//! Cross-validation: the sweep evaluator, the independent event-driven
//! simulator, and the detailed evaluator must agree on every allocation —
//! including on synthetic systems with special-purpose machines and on
//! GA-produced (non-permutation order key) chromosomes.

use hetsched::alloc::AllocationProblem;
use hetsched::data::HcSystem;
use hetsched::moea::{EngineConfig, Nsga2Config, Problem};
use hetsched::sim::{evaluate_event_driven, Allocation, DetailedOutcome, Evaluator};
use hetsched::synth::builder::dataset2_system;
use hetsched::workload::{Trace, TraceGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

fn synthetic_setup(tasks: usize, seed: u64) -> (HcSystem, Trace) {
    let mut rng = StdRng::seed_from_u64(seed);
    let system = dataset2_system(&mut rng).unwrap();
    let trace = TraceGenerator::new(tasks, 900.0, system.task_type_count())
        .generate(&mut rng)
        .unwrap();
    (system, trace)
}

#[test]
fn three_evaluators_agree_on_synthetic_system() {
    let (system, trace) = synthetic_setup(120, 1);
    let problem = AllocationProblem::new(&system, &trace);
    let mut rng = StdRng::seed_from_u64(2);
    let mut ev = Evaluator::new(&system, &trace);
    for _ in 0..30 {
        let genome = problem.random_genome(&mut rng);
        // The genome's keys are a permutation of 0..n. The sweep and the
        // detailed evaluator order tasks with a radix sort on the key,
        // the event simulator with a comparison sort, so also try keys
        // that repeat (ties break by task id) and keys past 2^16 (radix
        // passes over the third and fourth bytes).
        let rekeyed = |key: fn(u32) -> u32| Allocation {
            machine: genome.machine.clone(),
            order: genome.order.iter().map(|&k| key(k)).collect(),
        };
        let repeated = rekeyed(|k| k / 8);
        let wide = rekeyed(|k| u32::MAX - k / 4 * 65_537);
        for alloc in [&genome, &repeated, &wide] {
            let sweep = ev.evaluate(alloc);
            let events = evaluate_event_driven(&system, &trace, alloc).unwrap();
            let detail = DetailedOutcome::evaluate(&system, &trace, alloc).unwrap();
            assert!(close(sweep.utility, events.utility));
            assert!(close(sweep.utility, detail.utility));
            assert!(close(sweep.energy, events.energy));
            assert!(close(sweep.energy, detail.energy));
            assert!(close(sweep.makespan, events.makespan));
            assert!(close(sweep.makespan, detail.makespan));
        }
    }
}

#[test]
fn evaluators_agree_on_evolved_chromosomes() {
    // Crossover mixes order keys from two parents, producing duplicate and
    // gapped keys — exactly the case where tie-breaking rules could
    // diverge between implementations.
    let (system, trace) = synthetic_setup(60, 3);
    let problem = AllocationProblem::new(&system, &trace);
    let cfg = Nsga2Config {
        population: 20,
        mutation_rate: 0.8,
        generations: 15,
        parallel: false,
        ..Default::default()
    };
    let pop = EngineConfig::Nsga2(cfg).run(&problem, vec![], 4);
    let mut ev = Evaluator::new(&system, &trace);
    for ind in &pop {
        let sweep = ev.evaluate(&ind.genome);
        let events = evaluate_event_driven(&system, &trace, &ind.genome).unwrap();
        assert!(close(sweep.utility, events.utility), "utility diverged");
        assert!(close(sweep.energy, events.energy), "energy diverged");
        assert!(close(sweep.makespan, events.makespan), "makespan diverged");
        // And the engine's recorded objectives match a re-evaluation.
        assert!(close(-ind.objectives[0], sweep.utility));
        assert!(close(ind.objectives[1], sweep.energy));
    }
}

#[test]
fn special_purpose_machines_accelerate_their_tasks() {
    // On the synthetic system, schedule one accelerated task on its special
    // machine vs the best general machine: the special machine must be
    // ~10x the *average* general machine, hence faster than most.
    let (system, _) = synthetic_setup(10, 5);
    use hetsched::data::{MachineTypeId, TaskTypeId};
    let mut found = false;
    for t in 0..system.task_type_count() {
        let t = TaskTypeId(t as u16);
        for sm in 0..4u16 {
            let special = system.etc().time(t, MachineTypeId(sm));
            if special.is_finite() {
                found = true;
                let general_avg: f64 = (4..13u16)
                    .map(|m| system.etc().time(t, MachineTypeId(m)))
                    .sum::<f64>()
                    / 9.0;
                assert!(
                    special < general_avg / 9.0,
                    "special {special} not ~10x faster than avg {general_avg}"
                );
            }
        }
    }
    assert!(
        found,
        "no accelerated (task, machine) pair in the synthetic system"
    );
}
