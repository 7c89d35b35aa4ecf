//! The streaming/offline differential: a rolling-horizon stream whose
//! first horizon covers the whole trace must *be* the offline run — same
//! seed chromosomes, same hypervolume reference, same engine RNG stream —
//! so its tick-0 population and journal reproduce the offline engine run
//! bit for bit. The comparison is exact (`to_bits`/`total_cmp`).

use hetsched::alloc::AllocationProblem;
use hetsched::core::{
    DatasetId, EngineStreamSpec, ExperimentConfig, Framework, HorizonConfig, OptimizerSpec,
    RunJournal, SeedKind, StreamConfig, StreamRunner,
};
use hetsched::moea::{Algorithm, EngineConfig, NullObserver};
use hetsched::workload::{ArrivalSpec, ArrivalStream, TufPolicy};

/// The framework's population-stream decorrelation constant — the test
/// spells it out so a silent change to either side breaks the diff.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

fn mini_config(algorithm: Algorithm) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::scaled(DatasetId::One, 1.0);
    cfg.algorithm = algorithm;
    cfg.tasks = 24;
    cfg.duration = 120.0;
    cfg.population = 12;
    cfg.snapshots = vec![6];
    cfg.seeds = vec![SeedKind::MinMinCompletionTime];
    cfg.rng_seed = 42;
    cfg
}

fn engine_of(cfg: &ExperimentConfig) -> EngineConfig {
    EngineConfig::builder()
        .algorithm(cfg.algorithm)
        .population(cfg.population)
        .mutation_rate(cfg.mutation_rate)
        .generations(cfg.generations())
        .parallel(cfg.parallel)
        .build()
        .unwrap()
}

/// A stream whose single horizon spans the offline trace's whole window.
fn whole_trace_stream(cfg: &ExperimentConfig, fw: &Framework, warm_start: bool) -> StreamRunner {
    let config = StreamConfig {
        horizon: HorizonConfig {
            horizon: fw.trace().duration(),
            energy_budget: f64::INFINITY,
        },
        optimizer: OptimizerSpec::Engine(EngineStreamSpec {
            engine: engine_of(cfg),
            seed_kind: SeedKind::MinMinCompletionTime,
            rng_seed: cfg.rng_seed,
            stream: 0,
            warm_start,
        }),
    };
    StreamRunner::new(fw.system().clone(), config).unwrap()
}

#[test]
fn whole_trace_horizon_replays_the_offline_population_bit_identically() {
    for algorithm in Algorithm::ALL {
        let cfg = mini_config(algorithm);
        let fw = Framework::new(&cfg).unwrap();

        // The offline engine run, exactly as Framework::run_population
        // executes population stream 0 (snapshots reduce to the final
        // generation, so the mid-run snapshot slice is empty).
        let problem = AllocationProblem::new(fw.system(), fw.trace());
        let seeds = SeedKind::MinMinCompletionTime.seeds(fw.system(), fw.trace());
        let engine_seed = cfg.rng_seed ^ GOLDEN.wrapping_mul(1);
        let offline = fw.engine_config().evolve(
            &problem,
            seeds,
            engine_seed,
            &[],
            &mut |_, _| {},
            &mut NullObserver,
        );

        // The same work as one streaming tick: every task arrives inside
        // horizon 0, nothing arrives later.
        let mut runner = whole_trace_stream(&cfg, &fw, true);
        runner
            .feed(fw.trace().duration(), fw.trace().tasks().to_vec())
            .unwrap();
        let record = runner.tick().unwrap();
        assert_eq!(record.tasks, cfg.tasks, "{algorithm}");

        let online = runner.last_population();
        assert_eq!(online.len(), offline.len(), "{algorithm}");
        for (i, (a, b)) in online.iter().zip(&offline).enumerate() {
            assert_eq!(a.genome, b.genome, "{algorithm}: genome {i} diverged");
            for k in 0..2 {
                assert_eq!(
                    a.objectives[k].to_bits(),
                    b.objectives[k].to_bits(),
                    "{algorithm}: objective {k} of individual {i} diverged \
                     ({} vs {})",
                    a.objectives[k],
                    b.objectives[k],
                );
            }
        }
    }
}

#[test]
fn whole_trace_horizon_journals_the_offline_hypervolumes() {
    let cfg = mini_config(Algorithm::Nsga2);
    let fw = Framework::new(&cfg).unwrap();
    let dir = std::env::temp_dir();
    let offline_path = dir.join(format!(
        "hetsched-diff-offline-{}.jsonl",
        std::process::id()
    ));
    let online_path = dir.join(format!("hetsched-diff-online-{}.jsonl", std::process::id()));

    let journal = RunJournal::create(&offline_path).unwrap();
    fw.run_with_journal(Some(&journal));
    drop(journal);

    {
        let mut runner = whole_trace_stream(&cfg, &fw, true)
            .with_journal(RunJournal::create(&online_path).unwrap());
        runner
            .feed(fw.trace().duration(), fw.trace().tasks().to_vec())
            .unwrap();
        runner.tick().unwrap();
    }

    let offline = RunJournal::read(&offline_path).unwrap();
    let online = RunJournal::read(&online_path).unwrap();
    let _ = std::fs::remove_file(&offline_path);
    let _ = std::fs::remove_file(&online_path);

    assert_eq!(offline.len(), cfg.generations());
    assert_eq!(online.len(), offline.len());
    for (a, b) in online.iter().zip(&offline) {
        assert_eq!(a.population, b.population);
        assert_eq!(a.stream, b.stream);
        assert_eq!(a.stats.generation, b.stats.generation);
        let (ha, hb) = (
            a.stats.hypervolume.expect("engine journals hypervolume"),
            b.stats.hypervolume.expect("engine journals hypervolume"),
        );
        assert_eq!(
            ha.total_cmp(&hb),
            std::cmp::Ordering::Equal,
            "generation {}: streaming hypervolume {ha} != offline {hb}",
            a.stats.generation,
        );
        assert_eq!(a.stats.evaluations, b.stats.evaluations);
        for k in 0..2 {
            assert_eq!(a.stats.ideal[k].to_bits(), b.stats.ideal[k].to_bits());
        }
    }
}

#[test]
fn warm_started_commits_are_never_dominated_by_cold_starts() {
    let cfg = mini_config(Algorithm::Nsga2);
    let fw = Framework::new(&cfg).unwrap();
    let arrivals = || {
        ArrivalStream::new(
            ArrivalSpec::poisson(1.5).unwrap(),
            7,
            fw.system().task_type_count(),
            TufPolicy::essc_default(),
        )
    };
    let run = |warm: bool| {
        let config = StreamConfig {
            horizon: HorizonConfig {
                horizon: 20.0,
                energy_budget: f64::INFINITY,
            },
            optimizer: OptimizerSpec::Engine(EngineStreamSpec {
                engine: engine_of(&cfg),
                seed_kind: SeedKind::MinMinCompletionTime,
                rng_seed: cfg.rng_seed,
                stream: 0,
                warm_start: warm,
            }),
        };
        let mut runner = StreamRunner::new(fw.system().clone(), config).unwrap();
        runner.drive(&mut arrivals(), 80.0).unwrap()
    };

    let warm = run(true);
    let cold = run(false);
    assert_eq!(warm.len(), 4);
    assert_eq!(warm.len(), cold.len());
    // Tick 0 has no front to carry, so warm and cold are the same run.
    assert_eq!(warm[0], cold[0]);
    for (w, c) in warm.iter().zip(&cold) {
        assert_eq!(w.tasks, c.tasks, "tick {}: working sets diverged", w.tick);
        let strictly_dominated = c.utility >= w.utility
            && c.energy <= w.energy
            && (c.utility > w.utility || c.energy < w.energy);
        assert!(
            !strictly_dominated,
            "tick {}: cold start (U={}, E={}) dominates warm start (U={}, E={})",
            w.tick, c.utility, c.energy, w.utility, w.energy,
        );
    }
}
