//! [`EngineConfig`]: the one way to run a MOEA.
//!
//! The three MOEA families — [`Nsga2Config`] (dominance + crowding),
//! [`MoeadConfig`] (Tchebycheff decomposition), and [`Spea2Config`]
//! (strength fitness + archive) — sit behind one closed sum, so callers
//! pick a solver at runtime: campaigns sweep `--algorithm`, and ablation
//! benches swap engines without code changes. [`EngineConfig::evolve`]
//! dispatches to the selected engine; [`EngineConfig::run`] is its
//! shorthand with no snapshots and no observer.
//!
//! [`Algorithm`] is the plain tag of a family, what the CLI and
//! `ExperimentConfig` select.

use crate::moead::{self, MoeadConfig};
use crate::nsga2::{self, Individual, Mating, Nsga2Config, Survival};
use crate::observe::{NullObserver, Observer};
use crate::problem::Problem;
use crate::spea2::{self, Spea2Config};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// The built-in MOEA families, as a plain tag — this is what configs,
/// manifests, and CLI flags serialise; the full parameterisation lives in
/// [`EngineConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Algorithm {
    /// NSGA-II (Deb et al. 2002) — the paper's engine.
    #[default]
    Nsga2,
    /// MOEA/D (Zhang & Li 2007), Tchebycheff decomposition.
    Moead,
    /// SPEA2 (Zitzler et al. 2001), strength fitness + archive.
    Spea2,
}

impl Algorithm {
    /// Every built-in algorithm, in canonical order.
    pub const ALL: [Algorithm; 3] = [Algorithm::Nsga2, Algorithm::Moead, Algorithm::Spea2];

    /// Stable lowercase label used by CLI flags and file names.
    pub fn label(self) -> &'static str {
        match self {
            Algorithm::Nsga2 => "nsga2",
            Algorithm::Moead => "moead",
            Algorithm::Spea2 => "spea2",
        }
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for Algorithm {
    type Err = EngineError;

    fn from_str(s: &str) -> Result<Self, EngineError> {
        match s.to_ascii_lowercase().as_str() {
            "nsga2" | "nsga-ii" | "nsga" => Ok(Algorithm::Nsga2),
            "moead" | "moea/d" | "moea-d" => Ok(Algorithm::Moead),
            "spea2" | "spea-ii" | "spea" => Ok(Algorithm::Spea2),
            _ => Err(EngineError::UnknownAlgorithm(s.to_string())),
        }
    }
}

/// Snapshot callback handed to [`EngineConfig::evolve`]: invoked as
/// `(generation, post-survival population)` at each requested snapshot
/// generation.
pub type SnapshotFn<'a, G> = dyn FnMut(usize, &[Individual<G>]) + 'a;

/// The closed sum of the built-in engines — one value the framework, the
/// campaign runner, and the CLI can store, copy, and dispatch on. Build
/// one with [`EngineConfig::builder`] (validated) or wrap an existing
/// per-algorithm config directly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EngineConfig {
    /// NSGA-II with its full parameterisation.
    Nsga2(Nsga2Config),
    /// MOEA/D with its full parameterisation.
    Moead(MoeadConfig),
    /// SPEA2 with its full parameterisation.
    Spea2(Spea2Config),
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig::Nsga2(Nsga2Config::default())
    }
}

impl EngineConfig {
    /// Starts a validated builder (the preferred construction path; see
    /// [`EngineConfigBuilder`]).
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder::default()
    }

    /// Which family this config parameterises.
    pub fn algorithm(&self) -> Algorithm {
        match self {
            EngineConfig::Nsga2(_) => Algorithm::Nsga2,
            EngineConfig::Moead(_) => Algorithm::Moead,
            EngineConfig::Spea2(_) => Algorithm::Spea2,
        }
    }

    /// Working population size (subproblem count for MOEA/D).
    pub fn population(&self) -> usize {
        match self {
            EngineConfig::Nsga2(c) => c.population,
            EngineConfig::Moead(c) => c.subproblems,
            EngineConfig::Spea2(c) => c.population,
        }
    }

    /// Generation budget.
    pub fn generations(&self) -> usize {
        match self {
            EngineConfig::Nsga2(c) => c.generations,
            EngineConfig::Moead(c) => c.generations,
            EngineConfig::Spea2(c) => c.generations,
        }
    }

    /// Hypervolume reference point used when an observer is attached.
    pub fn hv_reference(&self) -> Option<[f64; 2]> {
        match self {
            EngineConfig::Nsga2(c) => c.hv_reference,
            EngineConfig::Moead(c) => c.hv_reference,
            EngineConfig::Spea2(c) => c.hv_reference,
        }
    }

    /// Sets the hypervolume reference point on whichever variant this is.
    pub fn with_hv_reference(mut self, hv: Option<[f64; 2]>) -> Self {
        match &mut self {
            EngineConfig::Nsga2(c) => c.hv_reference = hv,
            EngineConfig::Moead(c) => c.hv_reference = hv,
            EngineConfig::Spea2(c) => c.hv_reference = hv,
        }
        self
    }

    /// Runs the selected engine to completion and returns the final
    /// population (the archive for SPEA2).
    ///
    /// # Contract
    ///
    /// * **Determinism** — the output is a pure function of
    ///   `(self, problem, seeds, stream)`: the same inputs produce the same
    ///   population, and the snapshot and observer hooks never touch the
    ///   RNG stream. Campaign resume relies on this: replayed cells are
    ///   skipped and the remainder must walk the exact trajectory they
    ///   would have walked in an uninterrupted run.
    /// * **Evaluation** — every genome, initial ones included, is
    ///   evaluated through [`Problem::evaluate_batch`], which gives each
    ///   chunk of a parallel batch its own [`Problem::Evaluator`].
    ///   Evaluators hold mutable scratch (the scheduling evaluator sorts a
    ///   sequence buffer and tracks machine-free times), so one is never
    ///   shared across threads; the `Evaluator: Send` + `Problem: Sync`
    ///   bounds encode this split.
    /// * **Snapshots** — `snapshots` lists generation numbers in strictly
    ///   ascending order; `on_snapshot(generation, population)` fires at
    ///   each listed generation with the post-survival population of that
    ///   generation. Generations past the budget never fire.
    /// * **Observation** — one [`crate::GenerationStats`] record per
    ///   completed generation is delivered to `observer` when
    ///   `observer.enabled()`; otherwise no metric is computed and no
    ///   clock is read, so unobserved runs pay nothing.
    pub fn evolve<P: Problem>(
        &self,
        problem: &P,
        seeds: Vec<P::Genome>,
        stream: u64,
        snapshots: &[usize],
        on_snapshot: &mut SnapshotFn<'_, P::Genome>,
        observer: &mut dyn Observer<P::Genome>,
    ) -> Vec<Individual<P::Genome>> {
        match self {
            EngineConfig::Nsga2(c) => {
                nsga2::evolve(problem, c, seeds, stream, snapshots, on_snapshot, observer)
            }
            EngineConfig::Moead(c) => {
                moead::evolve(problem, c, seeds, stream, snapshots, on_snapshot, observer)
            }
            EngineConfig::Spea2(c) => {
                spea2::evolve(problem, c, seeds, stream, snapshots, on_snapshot, observer)
            }
        }
    }

    /// [`EngineConfig::evolve`] with no snapshots and no observer.
    pub fn run<P: Problem>(
        &self,
        problem: &P,
        seeds: Vec<P::Genome>,
        stream: u64,
    ) -> Vec<Individual<P::Genome>> {
        self.evolve(
            problem,
            seeds,
            stream,
            &[],
            &mut |_, _| {},
            &mut NullObserver,
        )
    }
}

/// A configuration error caught at [`EngineConfigBuilder::build`] time.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The algorithm name did not parse.
    UnknownAlgorithm(String),
    /// Population (or subproblem count) below the minimum of 2.
    PopulationTooSmall(usize),
    /// Mutation rate outside `[0, 1]`.
    MutationRateOutOfRange(f64),
    /// A zero generation budget.
    ZeroGenerations,
    /// MOEA/D neighbourhood smaller than 2.
    NeighbourhoodTooSmall(usize),
    /// SPEA2 archive smaller than 2.
    ArchiveTooSmall(usize),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownAlgorithm(s) => {
                write!(
                    f,
                    "unknown algorithm {s:?} (expected nsga2, moead, or spea2)"
                )
            }
            EngineError::PopulationTooSmall(n) => {
                write!(f, "population must be at least 2, got {n}")
            }
            EngineError::MutationRateOutOfRange(r) => {
                write!(f, "mutation rate must be within [0, 1], got {r}")
            }
            EngineError::ZeroGenerations => write!(f, "generation budget must be at least 1"),
            EngineError::NeighbourhoodTooSmall(t) => {
                write!(f, "MOEA/D neighbourhood must be at least 2, got {t}")
            }
            EngineError::ArchiveTooSmall(a) => {
                write!(f, "SPEA2 archive must be at least 2, got {a}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Validated builder for [`EngineConfig`] — the supported construction
/// path. Field-struct literals of `Nsga2Config`/`MoeadConfig`/
/// `Spea2Config` still compile but bypass validation and break on every
/// added field; prefer this builder in new code, examples, and docs.
///
/// Algorithm-specific knobs ([`neighbours`](Self::neighbours),
/// [`archive`](Self::archive), [`survival`](Self::survival), …) are held
/// until [`build`](Self::build) and only applied when the selected
/// algorithm uses them.
#[derive(Debug, Clone)]
pub struct EngineConfigBuilder {
    algorithm: Algorithm,
    population: usize,
    mutation_rate: f64,
    generations: usize,
    parallel: bool,
    neighbours: usize,
    archive: Option<usize>,
    hv_reference: Option<[f64; 2]>,
    survival: Survival,
    mating: Mating,
}

impl Default for EngineConfigBuilder {
    fn default() -> Self {
        let d = Nsga2Config::default();
        EngineConfigBuilder {
            algorithm: Algorithm::Nsga2,
            population: d.population,
            mutation_rate: d.mutation_rate,
            generations: d.generations,
            parallel: d.parallel,
            neighbours: MoeadConfig::default().neighbours,
            archive: None,
            hv_reference: None,
            survival: d.survival,
            mating: d.mating,
        }
    }
}

impl EngineConfigBuilder {
    /// Selects the algorithm family (default: NSGA-II).
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Working population size (MOEA/D subproblem count).
    pub fn population(mut self, population: usize) -> Self {
        self.population = population;
        self
    }

    /// Per-offspring mutation probability.
    pub fn mutation_rate(mut self, rate: f64) -> Self {
        self.mutation_rate = rate;
        self
    }

    /// Generation budget.
    pub fn generations(mut self, generations: usize) -> Self {
        self.generations = generations;
        self
    }

    /// Parallel batch evaluation, read by NSGA-II and SPEA2. MOEA/D
    /// always evaluates serially (each child is a batch of one).
    pub fn parallel(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }

    /// MOEA/D mating/replacement neighbourhood size.
    pub fn neighbours(mut self, neighbours: usize) -> Self {
        self.neighbours = neighbours;
        self
    }

    /// SPEA2 archive size (defaults to the population size).
    pub fn archive(mut self, archive: usize) -> Self {
        self.archive = Some(archive);
        self
    }

    /// Hypervolume reference point for observed runs.
    pub fn hv_reference(mut self, hv: [f64; 2]) -> Self {
        self.hv_reference = Some(hv);
        self
    }

    /// NSGA-II survival truncation rule.
    pub fn survival(mut self, survival: Survival) -> Self {
        self.survival = survival;
        self
    }

    /// NSGA-II mating-selection rule.
    pub fn mating(mut self, mating: Mating) -> Self {
        self.mating = mating;
        self
    }

    /// Validates and assembles the config for the selected algorithm.
    pub fn build(self) -> Result<EngineConfig, EngineError> {
        if self.population < 2 {
            return Err(EngineError::PopulationTooSmall(self.population));
        }
        if !(0.0..=1.0).contains(&self.mutation_rate) {
            return Err(EngineError::MutationRateOutOfRange(self.mutation_rate));
        }
        if self.generations == 0 {
            return Err(EngineError::ZeroGenerations);
        }
        Ok(match self.algorithm {
            Algorithm::Nsga2 => EngineConfig::Nsga2(Nsga2Config {
                population: self.population,
                mutation_rate: self.mutation_rate,
                generations: self.generations,
                parallel: self.parallel,
                survival: self.survival,
                mating: self.mating,
                hv_reference: self.hv_reference,
            }),
            Algorithm::Moead => {
                if self.neighbours < 2 {
                    return Err(EngineError::NeighbourhoodTooSmall(self.neighbours));
                }
                EngineConfig::Moead(MoeadConfig {
                    subproblems: self.population,
                    neighbours: self.neighbours,
                    mutation_rate: self.mutation_rate,
                    generations: self.generations,
                    hv_reference: self.hv_reference,
                })
            }
            Algorithm::Spea2 => {
                let archive = self.archive.unwrap_or(self.population);
                if archive < 2 {
                    return Err(EngineError::ArchiveTooSmall(archive));
                }
                EngineConfig::Spea2(Spea2Config {
                    population: self.population,
                    archive,
                    mutation_rate: self.mutation_rate,
                    generations: self.generations,
                    parallel: self.parallel,
                    hv_reference: self.hv_reference,
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dominance::Objectives;
    use crate::observe::StatsLog;
    use crate::problem::{Candidate, Schaffer};
    use rand::RngCore;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn algorithm_labels_roundtrip_through_fromstr() {
        for alg in Algorithm::ALL {
            assert_eq!(alg.label().parse::<Algorithm>().unwrap(), alg);
        }
        assert!("simulated-annealing".parse::<Algorithm>().is_err());
    }

    #[test]
    fn algorithm_serde_roundtrip() {
        for alg in Algorithm::ALL {
            let json = serde_json::to_string(&alg).unwrap();
            let back: Algorithm = serde_json::from_str(&json).unwrap();
            assert_eq!(alg, back);
        }
    }

    #[test]
    fn builder_validates() {
        assert_eq!(
            EngineConfig::builder().population(1).build(),
            Err(EngineError::PopulationTooSmall(1))
        );
        assert_eq!(
            EngineConfig::builder().mutation_rate(1.5).build(),
            Err(EngineError::MutationRateOutOfRange(1.5))
        );
        assert_eq!(
            EngineConfig::builder().generations(0).build(),
            Err(EngineError::ZeroGenerations)
        );
        assert_eq!(
            EngineConfig::builder()
                .algorithm(Algorithm::Moead)
                .neighbours(1)
                .build(),
            Err(EngineError::NeighbourhoodTooSmall(1))
        );
        assert_eq!(
            EngineConfig::builder()
                .algorithm(Algorithm::Spea2)
                .archive(1)
                .build(),
            Err(EngineError::ArchiveTooSmall(1))
        );
    }

    #[test]
    fn builder_defaults_match_config_defaults() {
        assert_eq!(
            EngineConfig::builder().build().unwrap(),
            EngineConfig::Nsga2(Nsga2Config::default())
        );
        assert_eq!(
            EngineConfig::builder()
                .algorithm(Algorithm::Moead)
                .build()
                .unwrap(),
            EngineConfig::Moead(MoeadConfig::default())
        );
        assert_eq!(
            EngineConfig::builder()
                .algorithm(Algorithm::Spea2)
                .build()
                .unwrap(),
            EngineConfig::Spea2(Spea2Config::default())
        );
    }

    #[test]
    fn every_engine_is_deterministic_per_seed() {
        // The property campaign resume stands on.
        let problem = Schaffer::default();
        for alg in Algorithm::ALL {
            let cfg = EngineConfig::builder()
                .algorithm(alg)
                .population(16)
                .generations(10)
                .mutation_rate(0.5)
                .build()
                .unwrap();
            let once = cfg.run(&problem, vec![], 7);
            let twice = cfg.run(&problem, vec![], 7);
            let a: Vec<_> = once.iter().map(|i| i.objectives).collect();
            let b: Vec<_> = twice.iter().map(|i| i.objectives).collect();
            assert_eq!(a, b, "{alg} not deterministic");
        }
    }

    #[test]
    fn evolve_fires_snapshots_and_observer_for_every_engine() {
        let problem = Schaffer::default();
        for alg in Algorithm::ALL {
            let cfg = EngineConfig::builder()
                .algorithm(alg)
                .population(12)
                .generations(8)
                .hv_reference([2e6, 2e6])
                .build()
                .unwrap();
            let mut seen = Vec::new();
            let mut log = StatsLog::default();
            let pop = cfg.evolve(
                &problem,
                vec![],
                3,
                &[2, 8],
                &mut |g, p| seen.push((g, p.len())),
                &mut log,
            );
            assert!(!pop.is_empty(), "{alg}: empty final population");
            assert_eq!(
                seen.iter().map(|&(g, _)| g).collect::<Vec<_>>(),
                vec![2, 8],
                "{alg}: snapshot generations"
            );
            assert_eq!(
                log.records.len(),
                8,
                "{alg}: one stats record per generation"
            );
            assert!(
                log.records.iter().all(|r| r.hypervolume.is_some()),
                "{alg}: hypervolume computed when reference set"
            );
        }
    }

    /// Schaffer's problem with an `evaluate_batch` that evaluates every
    /// candidate in full and records what it is handed: the `parallel`
    /// flag of each call and the number of candidates, next to the number
    /// of `evaluate` calls.
    #[derive(Default)]
    struct Recording {
        inner: Schaffer,
        parallel: Mutex<Vec<bool>>,
        candidates: AtomicUsize,
        evaluations: AtomicUsize,
    }

    impl Problem for Recording {
        type Genome = f64;
        type Evaluator = ();

        fn evaluator(&self) {}

        fn evaluate(&self, ev: &mut (), genome: &f64) -> Objectives {
            self.evaluations.fetch_add(1, Ordering::Relaxed);
            self.inner.evaluate(ev, genome)
        }

        fn random_genome(&self, rng: &mut dyn RngCore) -> f64 {
            self.inner.random_genome(rng)
        }

        fn crossover(&self, rng: &mut dyn RngCore, a: &f64, b: &f64) -> (f64, f64) {
            self.inner.crossover(rng, a, b)
        }

        fn mutate(&self, rng: &mut dyn RngCore, genome: &mut f64) {
            self.inner.mutate(rng, genome);
        }

        fn evaluate_batch(
            &self,
            ev: &mut (),
            parallel: bool,
            batch: &[Candidate<'_, f64>],
        ) -> Vec<Objectives> {
            self.parallel.lock().unwrap().push(parallel);
            self.candidates.fetch_add(batch.len(), Ordering::Relaxed);
            batch.iter().map(|c| self.evaluate(ev, &c.genome)).collect()
        }
    }

    fn recorded_run(algorithm: Algorithm, parallel: bool) -> Recording {
        let problem = Recording::default();
        EngineConfig::builder()
            .algorithm(algorithm)
            .population(12)
            .generations(6)
            .parallel(parallel)
            .build()
            .unwrap()
            .run(&problem, vec![0.0, 2.0], 5);
        problem
    }

    #[test]
    fn every_batch_sees_the_configured_parallel_setting() {
        for algorithm in Algorithm::ALL {
            for parallel in [false, true] {
                let seen = recorded_run(algorithm, parallel)
                    .parallel
                    .into_inner()
                    .unwrap();
                // MOEA/D evaluates each child as a batch of one, serially.
                let want = parallel && algorithm != Algorithm::Moead;
                assert!(!seen.is_empty(), "{algorithm}: no batch");
                assert!(
                    seen.iter().all(|&p| p == want),
                    "{algorithm} built with parallel={parallel} saw {seen:?}"
                );
            }
        }
    }

    #[test]
    fn spea2_breeds_no_offspring_after_its_last_selection() {
        // 12 initial genomes, then 12 offspring after each of the first
        // five selections; the sixth ends the run.
        let problem = recorded_run(Algorithm::Spea2, false);
        assert_eq!(problem.candidates.into_inner(), 12 + 5 * 12);
    }

    #[test]
    fn every_evaluation_goes_through_evaluate_batch() {
        for algorithm in Algorithm::ALL {
            let problem = recorded_run(algorithm, false);
            let candidates = problem.candidates.into_inner();
            assert!(candidates > 0, "{algorithm}: no batch");
            assert_eq!(
                problem.evaluations.into_inner(),
                candidates,
                "{algorithm}: an evaluation ran outside evaluate_batch"
            );
        }
    }
}
