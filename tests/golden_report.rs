//! Golden-file regression tests for `hetsched report` and the evaluator's
//! numerics.
//!
//! The fixtures under `tests/golden/` are frozen artifacts produced by a
//! real (small) campaign run: a campaign manifest and a run journal, plus
//! the exact text `hetsched report` rendered for each at freeze time. The
//! tests assert the render is byte-identical — any change to journal
//! parsing, summary statistics, or table formatting shows up as a diff
//! here, and so does any drift in the objective values the engines write
//! into manifests (the manifest fixture embeds full Pareto fronts).
//!
//! `hypervolume_trace_is_frozen` additionally pins the evaluator's
//! floating-point results end to end: a fixed-seed engine run on the real
//! dataset must reproduce a checked-in hypervolume trace *bit for bit*
//! (the golden stores the f64 bit patterns). Regenerate with
//! `GOLDEN_REGEN=1 cargo test --test golden_report` after an intentional
//! numerics change.
//!
//! `nsga2_final_populations_are_frozen` pins the order-dependent engine
//! paths: crowding truncation and crowded-tournament ties, and naive
//! truncation, all read the within-front order the nondominated sort emits,
//! so a sort that finds the right fronts in a different order changes which
//! duplicates survive. `moead_and_spea2_final_populations_are_frozen` pins
//! the other two engines the same way, from a seeded start.

use hetsched::alloc::AllocationProblem;
use hetsched::core::inspect_path;
use hetsched::data::real_system;
use hetsched::heuristics::{max_utility, min_energy};
use hetsched::moea::{
    Algorithm, EngineConfig, Individual, Mating, Nsga2Config, StatsLog, Survival,
};
use hetsched::workload::TraceGenerator;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn assert_renders_identically(fixture: &str, expected: &str) {
    let dir = golden_dir();
    let rendered = inspect_path(&dir.join(fixture))
        .expect("fixture must parse")
        .render();
    let expected_path = dir.join(expected);
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(&expected_path, &rendered).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&expected_path).expect("expected render missing");
    assert!(
        rendered == expected,
        "`hetsched report {fixture}` output drifted from the golden render.\n\
         --- got ---\n{rendered}\n--- want ---\n{expected}"
    );
}

#[test]
fn campaign_manifest_renders_byte_identically() {
    assert_renders_identically("campaign_manifest.jsonl", "campaign_manifest.report.txt");
}

#[test]
fn run_journal_renders_byte_identically() {
    assert_renders_identically("run_journal.jsonl", "run_journal.report.txt");
}

/// A fixed-seed NSGA-II run on the real dataset, hypervolume trace frozen
/// as bit patterns. This is the canary for the evaluation pipeline: the
/// delta fast path, the reference evaluator, and the hypervolume
/// computation must all produce the exact same floats as at freeze time.
#[test]
fn hypervolume_trace_is_frozen() {
    let sys = real_system();
    let trace = TraceGenerator::new(32, 600.0, sys.task_type_count())
        .generate(&mut StdRng::seed_from_u64(5))
        .unwrap();
    let problem = AllocationProblem::new(&sys, &trace);
    let config = Nsga2Config {
        population: 16,
        generations: 20,
        mutation_rate: 0.5,
        parallel: false,
        hv_reference: Some([1.0, 1.0e6]),
        ..Default::default()
    };
    let mut log = StatsLog::default();
    EngineConfig::Nsga2(config).evolve(&problem, Vec::new(), 17, &[], &mut |_, _| {}, &mut log);
    let trace_lines: String = log
        .records
        .iter()
        .map(|r| {
            let hv = r.hypervolume.expect("hv reference is set");
            format!("{} {:016x} {hv:.6}\n", r.generation, hv.to_bits())
        })
        .collect();
    let path = golden_dir().join("hypervolume_trace.txt");
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(&path, &trace_lines).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).expect("golden trace missing");
    assert!(
        trace_lines == expected,
        "fixed-seed hypervolume trace drifted (evaluator numerics changed).\n\
         --- got ---\n{trace_lines}\n--- want ---\n{expected}"
    );
}

/// Fixed-seed NSGA-II runs in the three survival/mating configurations,
/// each final population's objectives frozen as bit patterns in population
/// order. The runs are small enough that the population holds duplicates,
/// so the fixtures see which of several equal members survives.
#[test]
fn nsga2_final_populations_are_frozen() {
    let sys = real_system();
    let trace = TraceGenerator::new(32, 600.0, sys.task_type_count())
        .generate(&mut StdRng::seed_from_u64(5))
        .unwrap();
    let problem = AllocationProblem::new(&sys, &trace);
    let base = Nsga2Config {
        population: 16,
        generations: 40,
        parallel: false,
        ..Default::default()
    };
    let configs = [
        ("nsga2_default.txt", base),
        (
            "nsga2_tournament.txt",
            Nsga2Config {
                mating: Mating::CrowdedTournament,
                ..base
            },
        ),
        (
            "nsga2_truncate.txt",
            Nsga2Config {
                survival: Survival::Truncate,
                ..base
            },
        ),
    ];
    let mut drifted = Vec::new();
    for (fixture, config) in configs {
        let population = EngineConfig::Nsga2(config).run(&problem, Vec::new(), 17);
        let mut distinct: Vec<[u64; 2]> = population
            .iter()
            .map(|ind| ind.objectives.map(f64::to_bits))
            .collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(
            distinct.len() < population.len(),
            "{fixture}: no duplicate objective vectors, so the pin cannot see survivor order"
        );
        drifted.extend(pin_population(fixture, &population));
    }
    assert!(drifted.is_empty(), "{}", drifted.join("\n"));
}

/// Fixed-seed MOEA/D and SPEA2 runs on the same instance, started from the
/// min-energy and max-utility seeds, each final population (MOEA/D's one
/// incumbent per subproblem, SPEA2's archive) frozen the same way.
#[test]
fn moead_and_spea2_final_populations_are_frozen() {
    let sys = real_system();
    let trace = TraceGenerator::new(32, 600.0, sys.task_type_count())
        .generate(&mut StdRng::seed_from_u64(5))
        .unwrap();
    let problem = AllocationProblem::new(&sys, &trace);
    let seeds = vec![min_energy(&sys, &trace), max_utility(&sys, &trace)];
    let mut drifted = Vec::new();
    for (fixture, algorithm) in [
        ("moead_final.txt", Algorithm::Moead),
        ("spea2_final.txt", Algorithm::Spea2),
    ] {
        let config = EngineConfig::builder()
            .algorithm(algorithm)
            .population(16)
            .generations(40)
            .parallel(false)
            .build()
            .unwrap();
        let population = config.run(&problem, seeds.clone(), 17);
        drifted.extend(pin_population(fixture, &population));
    }
    assert!(drifted.is_empty(), "{}", drifted.join("\n"));
}

/// Renders a final population's objectives as bit patterns in population
/// order. Under `GOLDEN_REGEN` it writes `fixture`; otherwise it returns a
/// drift message when the render differs from `fixture`.
fn pin_population<G>(fixture: &str, population: &[Individual<G>]) -> Option<String> {
    let lines: String = population
        .iter()
        .map(|ind| {
            let [a, b] = ind.objectives;
            format!("{:016x} {:016x} {a:.6} {b:.6}\n", a.to_bits(), b.to_bits())
        })
        .collect();
    let path = golden_dir().join(fixture);
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(&path, &lines).unwrap();
        return None;
    }
    let expected = std::fs::read_to_string(&path).expect("golden population missing");
    (lines != expected).then(|| {
        format!(
            "{fixture}: fixed-seed final population drifted.\n\
             --- got ---\n{lines}--- want ---\n{expected}"
        )
    })
}
