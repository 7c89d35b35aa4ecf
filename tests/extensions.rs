//! Integration tests for the paper's future-work extensions: DVFS P-states
//! and negligible-utility task dropping.

use hetsched::alloc::DvfsAllocationProblem;
use hetsched::data::real_system;
use hetsched::heuristics::min_energy;
use hetsched::moea::{EngineConfig, Nsga2Config};
use hetsched::sim::{DvfsAllocation, DvfsTable, Evaluator};
use hetsched::workload::TraceGenerator;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn dvfs_front_extends_past_plain_front() {
    let sys = real_system();
    let trace = TraceGenerator::new(40, 900.0, sys.task_type_count())
        .generate(&mut StdRng::seed_from_u64(7))
        .unwrap();
    let table = DvfsTable::cubic_default();
    let problem = DvfsAllocationProblem::new(&sys, &trace, table);

    // Seed with the plain min-energy allocation at nominal frequency so the
    // comparison to the plain bound is honest.
    let seed = DvfsAllocation::nominal(min_energy(&sys, &trace));
    let cfg = Nsga2Config {
        population: 32,
        mutation_rate: 0.8,
        generations: 120,
        parallel: false,
        ..Default::default()
    };
    let pop = EngineConfig::Nsga2(cfg).run(&problem, vec![seed], 3);

    let plain_bound = Evaluator::new(&sys, &trace).min_possible_energy();
    let min_energy_nonzero_utility = pop
        .iter()
        .filter(|i| -i.objectives[0] > 0.0)
        .map(|i| i.objectives[1])
        .fold(f64::INFINITY, f64::min);
    assert!(
        min_energy_nonzero_utility < plain_bound,
        "DVFS should beat the plain-energy bound: {min_energy_nonzero_utility} vs {plain_bound}"
    );
}

#[test]
fn task_dropping_discovers_zero_utility_savings() {
    // Build a trace where decay is brutal (hard deadlines that expire fast),
    // so dropping hopeless tasks is strictly better than running them.
    let sys = real_system();
    let trace = TraceGenerator::new(30, 300.0, sys.task_type_count())
        .generate(&mut StdRng::seed_from_u64(21))
        .unwrap();
    let table = DvfsTable::cubic_default();
    let problem = DvfsAllocationProblem::new(&sys, &trace, table);
    let cfg = Nsga2Config {
        population: 24,
        mutation_rate: 0.9,
        generations: 150,
        parallel: false,
        ..Default::default()
    };
    let pop = EngineConfig::Nsga2(cfg).run(&problem, vec![], 11);

    // The front must contain at least one solution that drops something
    // (the all-dropped corner (0 utility, 0 energy) is always feasible and
    // nondominated on energy).
    let some_dropping = pop.iter().any(|i| i.genome.dropped.iter().any(|&d| d));
    assert!(some_dropping, "GA never explored task dropping");
    // The minimum-energy member of the front should exploit dropping: every
    // dropped task saves its full EEC, so the energy-greedy end of the
    // front accumulates drop flags.
    let cheapest = pop
        .iter()
        .min_by(|a, b| a.objectives[1].total_cmp(&b.objectives[1]))
        .unwrap();
    assert!(
        cheapest.genome.dropped.iter().any(|&d| d),
        "minimum-energy solution should drop at least one task"
    );
}

#[test]
fn pstates_trade_utility_for_energy_along_front() {
    let sys = real_system();
    let trace = TraceGenerator::new(25, 900.0, sys.task_type_count())
        .generate(&mut StdRng::seed_from_u64(33))
        .unwrap();
    let table = DvfsTable::cubic_default();

    // Manually sweep uniform P-states over the min-energy allocation: the
    // resulting points must be mutually nondominated (deeper states always
    // cost utility but save energy) — the DVFS trade-off curve.
    let base = min_energy(&sys, &trace);
    let mut previous_energy = f64::INFINITY;
    let mut previous_utility = f64::INFINITY;
    for ps in 0..table.len() as u8 {
        let mut ext = DvfsAllocation::nominal(base.clone());
        ext.pstate = vec![ps; trace.len()];
        let out = ext.evaluate(&sys, &trace, &table).unwrap();
        assert!(
            out.energy < previous_energy,
            "energy must fall with deeper P-state"
        );
        assert!(
            out.utility <= previous_utility + 1e-9,
            "utility cannot rise when slowing down"
        );
        previous_energy = out.energy;
        previous_utility = out.utility;
    }
}
