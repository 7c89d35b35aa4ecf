//! The [`Framework`]: builds a data set + trace and runs one MOEA
//! population per seed configuration, collecting fronts at the configured
//! snapshot iterations.
//!
//! The engine is selected by `ExperimentConfig::algorithm` and run through
//! [`EngineConfig::evolve`], so the same framework runs NSGA-II (the
//! paper's engine), MOEA/D, or SPEA2.

use crate::config::{DatasetId, ExperimentConfig};
use crate::journal::{JournalObserver, RunJournal};
use crate::report::{AnalysisReport, PopulationRun};
use crate::{CoreError, Result};
use hetsched_alloc::AllocationProblem;
use hetsched_analysis::ParetoFront;
use hetsched_data::{real_system, HcSystem};
use hetsched_heuristics::SeedKind;
use hetsched_moea::observe::{NullObserver, Observer};
use hetsched_moea::{EngineConfig, Individual};
use hetsched_sim::Allocation;
use hetsched_workload::{Trace, TraceGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;

/// A bound experiment: system + trace + configuration.
pub struct Framework {
    system: HcSystem,
    trace: Trace,
    config: ExperimentConfig,
}

impl Framework {
    /// Builds the experiment for the configured data set (the `dataset`
    /// field selects real vs synthetic system construction).
    ///
    /// # Errors
    ///
    /// Configuration validation plus data/trace generation failures.
    pub fn new(config: &ExperimentConfig) -> Result<Self> {
        config.validate()?;
        let mut rng = StdRng::seed_from_u64(config.rng_seed);
        let system = match config.dataset {
            DatasetId::One => real_system(),
            DatasetId::Two | DatasetId::Three => {
                hetsched_synth::builder::dataset2_system(&mut rng)?
            }
        };
        let trace = TraceGenerator::new(config.tasks, config.duration, system.task_type_count())
            .generate(&mut rng)?;
        Ok(Framework {
            system,
            trace,
            config: config.clone(),
        })
    }

    /// Wraps an externally built system and trace — the "take traces from
    /// any given system" entry point of the paper's conclusion.
    ///
    /// # Errors
    ///
    /// Configuration validation only; `tasks`/`duration` in the config are
    /// overridden by the trace's actual values.
    pub fn custom(system: HcSystem, trace: Trace, config: &ExperimentConfig) -> Result<Self> {
        let mut config = config.clone();
        config.tasks = trace.len();
        config.duration = trace.duration();
        config.validate()?;
        Ok(Framework {
            system,
            trace,
            config,
        })
    }

    /// The system under analysis.
    pub fn system(&self) -> &HcSystem {
        &self.system
    }

    /// The trace under analysis.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// The engine this framework dispatches to, assembled from the
    /// configuration (algorithm, population, mutation rate, generation
    /// budget) plus the experiment's hypervolume reference point.
    pub fn engine_config(&self) -> EngineConfig {
        EngineConfig::builder()
            .algorithm(self.config.algorithm)
            .population(self.config.population)
            .mutation_rate(self.config.mutation_rate)
            .generations(self.config.generations())
            .parallel(self.config.parallel)
            .hv_reference(hv_reference(&self.system, &self.trace))
            .build()
            .expect("a validated ExperimentConfig yields a valid engine config")
    }

    /// A copy of this framework sharing the same system and trace but
    /// running under a different master RNG seed and/or algorithm —
    /// replicates and algorithm sweeps vary the engine streams without
    /// re-synthesising the data set.
    pub fn variant(&self, rng_seed: u64, algorithm: hetsched_moea::Algorithm) -> Framework {
        let mut config = self.config.clone();
        config.rng_seed = rng_seed;
        config.algorithm = algorithm;
        Framework {
            system: self.system.clone(),
            trace: self.trace.clone(),
            config,
        }
    }

    /// Runs one population of the configured engine per configured seed
    /// kind (in parallel across populations) and collects the
    /// per-snapshot Pareto fronts.
    pub fn run(&self) -> AnalysisReport {
        self.run_with_journal(None)
    }

    /// As [`Framework::run`], additionally appending every population's
    /// per-generation [`crate::journal::JournalRecord`] to `journal` when
    /// one is given. Populations still run in parallel; the journal
    /// serialises appends internally.
    pub fn run_with_journal(&self, journal: Option<&RunJournal>) -> AnalysisReport {
        let runs: Vec<PopulationRun> = self
            .config
            .seeds
            .par_iter()
            .enumerate()
            .map(|(i, &seed)| match journal {
                Some(journal) => {
                    let mut observer = JournalObserver::new(journal, seed, i as u64);
                    self.run_population(seed, i as u64, &mut observer)
                }
                None => self.run_population(seed, i as u64, &mut NullObserver),
            })
            .collect();
        AnalysisReport {
            runs,
            snapshots: self.config.snapshots.clone(),
        }
    }

    /// Runs the whole experiment `replicates` times with decorrelated RNG
    /// streams and summarises each seed configuration's final fronts as an
    /// [`hetsched_analysis::AttainmentSummary`] — the robust, across-run
    /// view of the trade-off curve (one stochastic run can get lucky; the
    /// median attainment cannot).
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] when `replicates == 0` — zero
    /// replicates would yield empty attainment summaries, which used to
    /// surface as a panic deep inside the summary constructor.
    pub fn run_replicated(
        &self,
        replicates: usize,
    ) -> Result<Vec<(SeedKind, hetsched_analysis::AttainmentSummary)>> {
        if replicates == 0 {
            return Err(CoreError::InvalidConfig("replicates must be >= 1"));
        }
        let reports: Vec<AnalysisReport> = (0..replicates as u64)
            .collect::<Vec<_>>()
            .par_iter()
            .map(|&r| {
                // Reuse this framework's system and trace; only the engine
                // streams differ between replicates.
                self.variant(
                    Self::replicate_seed(self.config.rng_seed, r),
                    self.config.algorithm,
                )
                .run()
            })
            .collect();
        self.config
            .seeds
            .iter()
            .map(|&seed| {
                let fronts = reports
                    .iter()
                    .filter_map(|rep| rep.run(seed).map(|r| r.final_front().clone()))
                    .collect();
                let summary = hetsched_analysis::AttainmentSummary::new(fronts)
                    .ok_or(CoreError::InvalidConfig("replicates must be >= 1"))?;
                Ok((seed, summary))
            })
            .collect()
    }

    /// The decorrelated master seed of replicate `r` — shared with the
    /// campaign runner so a one-dataset campaign reproduces
    /// [`Framework::run_replicated`]'s populations bit-for-bit.
    pub fn replicate_seed(rng_seed: u64, replicate: u64) -> u64 {
        rng_seed.wrapping_add(replicate.wrapping_mul(0xA5A5_1234))
    }

    /// Runs a single seeded population on population stream `stream`,
    /// delivering per-generation metrics to `observer` (see
    /// [`hetsched_moea::observe`]; pass `&mut NullObserver` for none).
    /// Dispatches to the engine selected by the configuration's
    /// `algorithm`.
    pub fn run_population(
        &self,
        seed: SeedKind,
        stream: u64,
        observer: &mut dyn Observer<Allocation>,
    ) -> PopulationRun {
        let problem = AllocationProblem::new(&self.system, &self.trace);
        let seeds: Vec<Allocation> = seed.seeds(&self.system, &self.trace);
        let mut fronts: Vec<(usize, ParetoFront)> = Vec::new();
        tracing::info!(
            "population {} (stream {stream}, {}): {} generations over {} tasks",
            seed.label(),
            self.config.algorithm,
            self.config.generations(),
            self.trace.len(),
        );
        let final_pop = self.engine_config().evolve(
            &problem,
            seeds,
            engine_seed(self.config.rng_seed, stream),
            &self.config.snapshots[..self.config.snapshots.len() - 1],
            &mut |generation, population| {
                fronts.push((generation, front_of(population)));
            },
            observer,
        );
        fronts.push((self.config.generations(), front_of(&final_pop)));
        PopulationRun { seed, fronts }
    }
}

/// The engine seed of population stream `stream` under master seed
/// `rng_seed`: one deterministic RNG stream per population, stable across
/// runs and independent of rayon scheduling. Tick 0 of a stream uses it
/// too, so a whole-trace stream replays the offline population.
pub(crate) fn engine_seed(rng_seed: u64, stream: u64) -> u64 {
    rng_seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream + 1)
}

/// The fixed hypervolume reference point journalled metrics are scored
/// against: the worst corner of the objective space — zero utility
/// (objective 0 is `-utility`, so 0.0) and every task on its most
/// expensive machine has an upper bound in `max_utility × machines`; we
/// use the simpler provable box `[ε, Σ max-energy]` padded slightly so
/// boundary points still contribute area. Streams score each tick against
/// the same box over their working trace.
pub(crate) fn hv_reference(system: &HcSystem, trace: &Trace) -> [f64; 2] {
    let max_energy: f64 = trace
        .tasks()
        .iter()
        .map(|t| {
            system
                .feasible_machines(t.task_type)
                .iter()
                .map(|&m| system.energy(t.task_type, m))
                .fold(0.0, f64::max)
        })
        .sum();
    // Objective 0 is -utility: all points lie at or below 0.0.
    [1e-9, max_energy * 1.000_001]
}

fn front_of(population: &[Individual<Allocation>]) -> ParetoFront {
    ParetoFront::from_objectives(population.iter().map(|i| &i.objectives))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(dataset: DatasetId) -> ExperimentConfig {
        let mut cfg = match dataset {
            DatasetId::One => ExperimentConfig::dataset1(),
            DatasetId::Two => ExperimentConfig::dataset2(),
            DatasetId::Three => ExperimentConfig::dataset3(),
        };
        cfg.tasks = 30;
        cfg.population = 12;
        cfg.snapshots = vec![2, 6];
        cfg
    }

    #[test]
    fn dataset1_builds_real_system() {
        let fw = Framework::new(&tiny(DatasetId::One)).unwrap();
        assert_eq!(fw.system().machine_count(), 9);
        assert_eq!(fw.trace().len(), 30);
    }

    #[test]
    fn dataset2_builds_synthetic_system() {
        let fw = Framework::new(&tiny(DatasetId::Two)).unwrap();
        assert_eq!(fw.system().machine_count(), 30);
        assert_eq!(fw.system().task_type_count(), 30);
    }

    #[test]
    fn run_produces_one_population_per_seed() {
        let fw = Framework::new(&tiny(DatasetId::One)).unwrap();
        let report = fw.run();
        assert_eq!(report.runs.len(), 5);
        for run in &report.runs {
            assert_eq!(run.fronts.len(), 2, "{:?}", run.seed);
            assert_eq!(run.fronts[0].0, 2);
            assert_eq!(run.fronts[1].0, 6);
            for (_, front) in &run.fronts {
                assert!(!front.is_empty());
            }
        }
    }

    #[test]
    fn runs_are_reproducible() {
        let cfg = tiny(DatasetId::One);
        let a = Framework::new(&cfg).unwrap().run();
        let b = Framework::new(&cfg).unwrap().run();
        for (ra, rb) in a.runs.iter().zip(&b.runs) {
            assert_eq!(ra.seed, rb.seed);
            for ((ia, fa), (ib, fb)) in ra.fronts.iter().zip(&rb.fronts) {
                assert_eq!(ia, ib);
                assert_eq!(fa, fb);
            }
        }
    }

    #[test]
    fn different_rng_seeds_differ() {
        let cfg = tiny(DatasetId::One);
        let mut cfg2 = cfg.clone();
        cfg2.rng_seed = 999;
        let a = Framework::new(&cfg).unwrap().run();
        let b = Framework::new(&cfg2).unwrap().run();
        // The random population's final front will almost surely differ.
        let fa = &a.runs.last().unwrap().fronts.last().unwrap().1;
        let fb = &b.runs.last().unwrap().fronts.last().unwrap().1;
        assert_ne!(fa, fb);
    }

    #[test]
    fn custom_framework_overrides_trace_parameters() {
        let system = real_system();
        let trace = TraceGenerator::new(12, 300.0, system.task_type_count())
            .generate(&mut StdRng::seed_from_u64(1))
            .unwrap();
        let mut cfg = tiny(DatasetId::One);
        cfg.tasks = 9999; // will be overridden
        let fw = Framework::custom(system, trace, &cfg).unwrap();
        assert_eq!(fw.config().tasks, 12);
        assert_eq!(fw.config().duration, 300.0);
    }

    #[test]
    fn replicated_runs_summarise_per_seed() {
        let mut cfg = tiny(DatasetId::One);
        cfg.seeds = vec![SeedKind::MinEnergy, SeedKind::Random];
        let fw = Framework::new(&cfg).unwrap();
        let summaries = fw.run_replicated(3).unwrap();
        assert_eq!(summaries.len(), 2);
        for (seed, summary) in &summaries {
            assert_eq!(summary.replicates(), 3, "{seed:?}");
            let curve = summary.median_curve(8);
            assert_eq!(curve.len(), 8);
        }
        // The min-energy summary attains the energy bound in all runs.
        let bound = hetsched_sim::Evaluator::new(fw.system(), fw.trace()).min_possible_energy();
        let (_, me) = &summaries[0];
        assert!(me.attained_by(0.0, bound * 1.0001, 3));
    }

    #[test]
    fn journaled_run_writes_one_record_per_generation_per_population() {
        let cfg = tiny(DatasetId::One);
        let fw = Framework::new(&cfg).unwrap();
        let path = std::env::temp_dir().join(format!(
            "hetsched-journal-test-{}.jsonl",
            std::process::id()
        ));
        let journal = RunJournal::create(&path).unwrap();
        let report = fw.run_with_journal(Some(&journal));
        drop(journal);
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), report.runs.len() * cfg.generations());
        for line in &lines {
            let value: serde_json::Value = serde_json::from_str(line).unwrap();
            let rendered = serde_json::to_string(&value).unwrap();
            assert!(rendered.contains("\"generation\""), "{rendered}");
            assert!(rendered.contains("\"hypervolume\""), "{rendered}");
        }
        // Journalling must not perturb the experiment itself.
        let plain = fw.run();
        for (a, b) in report.runs.iter().zip(&plain.runs) {
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.fronts, b.fronts);
        }
    }

    #[test]
    fn zero_replicates_is_an_error_not_a_panic() {
        let fw = Framework::new(&tiny(DatasetId::One)).unwrap();
        assert_eq!(
            fw.run_replicated(0).unwrap_err(),
            CoreError::InvalidConfig("replicates must be >= 1")
        );
    }

    #[test]
    fn every_algorithm_runs_through_the_framework() {
        for algorithm in hetsched_moea::Algorithm::ALL {
            let mut cfg = tiny(DatasetId::One);
            cfg.algorithm = algorithm;
            cfg.seeds = vec![SeedKind::MinEnergy, SeedKind::Random];
            let fw = Framework::new(&cfg).unwrap();
            let report = fw.run();
            assert_eq!(report.runs.len(), 2, "{algorithm}");
            for run in &report.runs {
                assert_eq!(run.fronts.len(), 2, "{algorithm}/{:?}", run.seed);
                for (_, front) in &run.fronts {
                    assert!(!front.is_empty(), "{algorithm}/{:?}", run.seed);
                }
            }
            // Same config, same report — determinism holds per engine.
            let again = Framework::new(&cfg).unwrap().run();
            assert_eq!(report.runs, again.runs, "{algorithm}");
        }
    }

    #[test]
    fn min_energy_population_starts_at_energy_bound() {
        // The min-energy-seeded population's first-snapshot front must
        // include the provably minimal energy value.
        let mut cfg = tiny(DatasetId::One);
        cfg.seeds = vec![SeedKind::MinEnergy];
        cfg.snapshots = vec![1, 2];
        let fw = Framework::new(&cfg).unwrap();
        let report = fw.run();
        let bound = hetsched_sim::Evaluator::new(fw.system(), fw.trace()).min_possible_energy();
        let first_front = &report.runs[0].fronts[0].1;
        let min_e = first_front.min_energy().unwrap().energy;
        assert!(
            (min_e - bound).abs() < 1e-6,
            "min energy {min_e} vs bound {bound}"
        );
    }
}
