//! Engine determinism on the *real* scheduling problem — the analytic
//! benchmarks (SCH, ZDT1) in the engine's unit tests have trivial
//! evaluators, so they cannot catch a parallel-evaluation bug that only
//! shows up when per-thread evaluators carry scratch state. These tests
//! bind NSGA-II to an [`AllocationProblem`] over the paper's real system
//! and a generated trace.

use hetsched::alloc::AllocationProblem;
use hetsched::data::real_system;
use hetsched::moea::observe::StatsLog;
use hetsched::moea::{EngineConfig, Nsga2Config, Objectives, Spea2Config};
use hetsched::prelude::{DatasetId, ExperimentConfig, Framework, SeedKind};
use hetsched::sim::Allocation;
use hetsched::workload::TraceGenerator;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fixture() -> (hetsched::data::HcSystem, hetsched::workload::Trace) {
    let system = real_system();
    let trace = TraceGenerator::new(60, 900.0, system.task_type_count())
        .generate(&mut StdRng::seed_from_u64(7))
        .unwrap();
    (system, trace)
}

fn config(parallel: bool) -> Nsga2Config {
    Nsga2Config {
        population: 24,
        mutation_rate: 0.5,
        generations: 8,
        parallel,
        ..Default::default()
    }
}

fn spea2(parallel: bool) -> Spea2Config {
    Spea2Config {
        population: 24,
        archive: 24,
        mutation_rate: 0.5,
        generations: 8,
        parallel,
        hv_reference: None,
    }
}

fn objectives(pop: &[hetsched::moea::Individual<Allocation>]) -> Vec<Objectives> {
    pop.iter().map(|i| i.objectives).collect()
}

fn genomes(pop: &[hetsched::moea::Individual<Allocation>]) -> Vec<&Allocation> {
    pop.iter().map(|i| &i.genome).collect()
}

#[test]
fn parallel_and_serial_agree_on_the_scheduling_problem() {
    // Genetic operators draw from the single-threaded RNG stream; only
    // evaluation is parallelised, and each rayon worker gets its own
    // Evaluator. Results must be bit-identical either way.
    let (system, trace) = fixture();
    let problem = AllocationProblem::new(&system, &trace);
    let seeds: Vec<Allocation> = SeedKind::MinEnergy.seeds(&system, &trace);
    let serial = EngineConfig::Nsga2(config(false)).run(&problem, seeds.clone(), 5);
    let parallel = EngineConfig::Nsga2(config(true)).run(&problem, seeds, 5);
    assert_eq!(objectives(&serial), objectives(&parallel));
}

#[test]
fn concurrent_parallel_runs_match_their_serial_twins() {
    // Four callers at once contend for the process-wide pool, so each
    // batch's chunks land on callers and workers differently from run to
    // run; every result must still be bit-identical to its serial twin.
    let (system, trace) = fixture();
    let problem = AllocationProblem::new(&system, &trace);
    let engines = [
        (
            EngineConfig::Nsga2(config(true)),
            EngineConfig::Nsga2(config(false)),
        ),
        (
            EngineConfig::Spea2(spea2(true)),
            EngineConfig::Spea2(spea2(false)),
        ),
    ];
    let seeds: Vec<u64> = (0..4).map(|t| 40 + t).collect();
    let serial: Vec<Vec<_>> = seeds
        .iter()
        .map(|&seed| {
            engines
                .iter()
                .map(|(_, serial)| serial.run(&problem, vec![], seed))
                .collect()
        })
        .collect();
    std::thread::scope(|scope| {
        for (&seed, twins) in seeds.iter().zip(&serial) {
            let (problem, engines) = (&problem, &engines);
            scope.spawn(move || {
                for ((parallel, _), twin) in engines.iter().zip(twins) {
                    let run = parallel.run(problem, vec![], seed);
                    assert_eq!(objectives(&run), objectives(twin), "seed {seed}");
                    assert_eq!(genomes(&run), genomes(twin), "seed {seed}");
                }
            });
        }
    });
}

#[test]
fn framework_runs_with_nested_parallel_batches_match_serial() {
    // `Framework::run` spreads its populations over the pool, so with
    // `parallel` set each population's batches nest inside a pool chunk.
    let config = |parallel| {
        ExperimentConfig::builder(DatasetId::One)
            .tasks(40)
            .population(16)
            .snapshots(vec![3, 8])
            .parallel(parallel)
            .build()
            .unwrap()
    };
    let serial = Framework::new(&config(false)).unwrap().run();
    let parallel = Framework::new(&config(true)).unwrap().run();
    assert_eq!(parallel.runs.len(), 5);
    assert_eq!(serial.runs.len(), parallel.runs.len());
    for (s, p) in serial.runs.iter().zip(&parallel.runs) {
        assert_eq!(s.seed, p.seed);
        assert_eq!(s.fronts, p.fronts, "{:?}", s.seed);
    }
}

#[test]
fn parallel_scheduling_runs_are_deterministic_per_seed() {
    let (system, trace) = fixture();
    let problem = AllocationProblem::new(&system, &trace);
    let engine = EngineConfig::Nsga2(config(true));
    let a = engine.run(&problem, vec![], 11);
    let b = engine.run(&problem, vec![], 11);
    assert_eq!(objectives(&a), objectives(&b));
}

#[test]
fn tracing_spans_leave_the_trajectory_bit_identical() {
    // The span instrumentation reads only clocks, never the engine RNG
    // streams, so installing a full-verbosity span sink mid-process must
    // not perturb a single objective bit. The untraced baseline runs
    // first; the sink is process-global and cannot be uninstalled.
    let (system, trace) = fixture();
    let problem = AllocationProblem::new(&system, &trace);
    let engine = EngineConfig::Nsga2(config(true));
    let untraced = engine.run(&problem, vec![], 13);

    let path =
        std::env::temp_dir().join(format!("hetsched-det-trace-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let writer = std::sync::Arc::new(hetsched::core::TraceWriter::create(&path).unwrap());
    hetsched::core::install_tracing(tracing::Level::TRACE, Some(writer)).unwrap();
    let traced = engine.run(&problem, vec![], 13);
    assert_eq!(objectives(&untraced), objectives(&traced));

    // The sink really was live: generation spans (DEBUG) and engine phase
    // spans (TRACE) landed in the file.
    tracing::flush_span_sink();
    let spans = hetsched::core::read_trace(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert!(
        spans.iter().any(|s| s.name == "generation"),
        "no generation spans recorded"
    );
    assert!(
        spans.iter().any(|s| s.name == "evaluation"),
        "no phase spans recorded"
    );
}

#[test]
fn observation_is_inert_on_the_scheduling_problem() {
    // Attaching a metrics observer must not change the trajectory, and the
    // journalled per-generation stats must themselves be deterministic
    // (modulo wall-clock timings).
    let (system, trace) = fixture();
    let problem = AllocationProblem::new(&system, &trace);
    let mut cfg = config(true);
    cfg.hv_reference = Some([1e-9, 1e9]);
    let engine = EngineConfig::Nsga2(cfg);
    let plain = engine.run(&problem, vec![], 3);
    let mut log_a = StatsLog::default();
    let mut log_b = StatsLog::default();
    let observed = engine.evolve(&problem, vec![], 3, &[], &mut |_, _| {}, &mut log_a);
    engine.evolve(&problem, vec![], 3, &[], &mut |_, _| {}, &mut log_b);
    assert_eq!(objectives(&plain), objectives(&observed));
    assert_eq!(log_a.records.len(), 8);
    for (a, b) in log_a.records.iter().zip(&log_b.records) {
        assert_eq!(a.generation, b.generation);
        assert_eq!(a.front_sizes, b.front_sizes);
        assert_eq!(a.ideal, b.ideal);
        assert_eq!(a.hypervolume, b.hypervolume);
        assert_eq!(a.evaluations, b.evaluations);
    }
}
