//! Redundant-evaluation skip accounting.
//!
//! Engines hand every child to `Problem::evaluate_batch` together with the
//! parent it was bred from. When the child equals that parent — crossover
//! of identical parents, or a mutation that changed nothing — the
//! trait's default `evaluate_batch` reuses the parent's objectives instead
//! of calling the evaluator at all. The process-wide counter
//! (`hetsched_sim::eval_counters`) counts only evaluations that reach an
//! `Evaluator`, so the skip shows up as a counter that does not move.
//!
//! This lives in its own integration-test binary (its own process) because
//! the counters are process-global: sharing a process with unrelated tests
//! would race the deltas asserted here.

use hetsched_alloc::AllocationProblem;
use hetsched_data::{real_system, MachineInventory};
use hetsched_moea::{Nsga2, Nsga2Config, Problem};
use hetsched_sim::eval_counters;
use hetsched_workload::TraceGenerator;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One test fn covering every run: separate `#[test]`s would run
/// concurrently in this process and race the global counter.
#[test]
fn identical_offspring_skip_evaluation() {
    let sys = real_system();
    let trace = TraceGenerator::new(16, 600.0, sys.task_type_count())
        .generate(&mut StdRng::seed_from_u64(3))
        .unwrap();
    let problem = AllocationProblem::new(&sys, &trace);
    let config = Nsga2Config {
        population: 8,
        mutation_rate: 0.0,
        generations: 10,
        parallel: false,
        hv_reference: None,
        ..Default::default()
    };
    let engine = Nsga2::new(&problem, config);
    let mut rng = StdRng::seed_from_u64(99);

    // Clone-seeded population, mutation off: every crossover child is a
    // bit-identical copy of its base parent, so only the 8 initial
    // evaluations ever reach the evaluator — 80 offspring evaluations are
    // skipped outright.
    let seed_genome = problem.random_genome(&mut rng);
    let before = eval_counters::total();
    engine.run(vec![seed_genome; 8], 7);
    let clone_run = eval_counters::total() - before;
    assert_eq!(
        clone_run, 8,
        "clone-seeded run must evaluate the initial population only"
    );

    // Contrast: a diverse random population. Most offspring genuinely
    // differ from their base parent and must be evaluated (8 initial +
    // up to 8 x 10 offspring; self-mating still produces a few skips).
    let seeds = (0..8).map(|_| problem.random_genome(&mut rng)).collect();
    let before = eval_counters::total();
    engine.run(seeds, 7);
    let diverse_run = eval_counters::total() - before;
    assert!(
        diverse_run > 4 * clone_run && diverse_run <= 88,
        "diverse run should evaluate most offspring (got {diverse_run}, clone run {clone_run})"
    );

    // A mutation that cannot change anything: one machine and one task,
    // so the re-mapped machine and the swapped order key are the ones the
    // gene already holds. Every child of the clone-seeded population
    // equals its parent even though each one was mutated, so again only
    // the 8 initial evaluations reach the evaluator.
    let single = real_system()
        .with_inventory(MachineInventory::from_counts(vec![1, 0, 0, 0, 0, 0, 0, 0, 0]).unwrap())
        .unwrap();
    let one_task = TraceGenerator::new(1, 600.0, single.task_type_count())
        .generate(&mut StdRng::seed_from_u64(5))
        .unwrap();
    let problem = AllocationProblem::new(&single, &one_task);
    let config = Nsga2Config {
        mutation_rate: 1.0,
        ..config
    };
    let seed_genome = problem.random_genome(&mut rng);
    let before = eval_counters::total();
    Nsga2::new(&problem, config).run(vec![seed_genome; 8], 7);
    let unchanged_run = eval_counters::total() - before;
    assert_eq!(
        unchanged_run, 8,
        "children equal to their parent must skip even after a mutation"
    );
}
