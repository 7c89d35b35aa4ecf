//! The algorithm-agnostic [`Engine`] abstraction.
//!
//! The framework and CLI used to be hard-wired to NSGA-II. This module
//! factors the three MOEA families — [`Nsga2Config`] (dominance +
//! crowding), [`MoeadConfig`] (Tchebycheff decomposition), and
//! [`Spea2Config`] (strength fitness + archive) — behind one trait so
//! callers pick a solver at runtime: campaigns sweep `--algorithm`,
//! ablation benches swap engines without code changes, and new engines
//! plug in by implementing [`Engine`] for their config type.
//!
//! [`EngineConfig`] is the closed sum of the built-in engines (what the
//! CLI and `ExperimentConfig` select through [`Algorithm`]).

use crate::moead::{moead_observed, MoeadConfig};
use crate::nsga2::{Individual, Mating, Nsga2, Nsga2Config, Stagnation, Survival};
use crate::observe::Observer;
use crate::problem::Problem;
use crate::spea2::{spea2_observed, Spea2Config};
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

/// Snapshot callback handed to [`Engine::evolve`]: invoked as
/// `(generation, post-survival population)` at each requested snapshot
/// generation.
pub type SnapshotFn<'a, G> = dyn FnMut(usize, &[Individual<G>]) + 'a;

/// A multi-objective evolutionary engine over a [`Problem`].
///
/// # Contract
///
/// * **Determinism** — `evolve` must be a pure function of
///   `(config, problem, seeds, stream)`: the same inputs produce the same
///   output population, and the snapshot/observer hooks must never touch
///   the RNG stream. Campaign resume relies on this: replayed cells are
///   skipped and the remainder must walk the exact trajectory they would
///   have walked in an uninterrupted run.
/// * **Per-thread evaluators** — engines must evaluate genomes only
///   through [`Problem::Evaluator`] contexts obtained from
///   [`Problem::evaluator`], creating one per worker thread when
///   evaluating in parallel. Evaluators hold mutable scratch (the
///   scheduling evaluator sorts a sequence buffer and tracks machine-free
///   times); sharing one across threads would race, and the `Evaluator:
///   Send` + `Problem: Sync` bounds encode exactly this split. Engines
///   that evaluate serially may hold a single evaluator for the whole
///   run.
/// * **Snapshots** — `snapshots` lists generation numbers in strictly
///   ascending order; `on_snapshot(generation, population)` fires at each
///   listed generation with the post-survival population of that
///   generation. Generations past the engine's actual stopping point
///   (early termination) are silently skipped.
/// * **Observation** — one [`crate::GenerationStats`] record per completed
///   generation is delivered to `observer` when `observer.enabled()`;
///   engines must skip metric computation entirely otherwise, so
///   unobserved runs pay nothing.
pub trait Engine<P: Problem> {
    /// Runs the engine to completion and returns the final population
    /// (the archive for archive-based engines).
    fn evolve(
        &self,
        problem: &P,
        seeds: Vec<P::Genome>,
        stream: u64,
        snapshots: &[usize],
        on_snapshot: &mut SnapshotFn<'_, P::Genome>,
        observer: &mut dyn Observer<P::Genome>,
    ) -> Vec<Individual<P::Genome>>;
}

impl<P: Problem> Engine<P> for Nsga2Config {
    fn evolve(
        &self,
        problem: &P,
        seeds: Vec<P::Genome>,
        stream: u64,
        snapshots: &[usize],
        on_snapshot: &mut SnapshotFn<'_, P::Genome>,
        mut observer: &mut dyn Observer<P::Genome>,
    ) -> Vec<Individual<P::Genome>> {
        Nsga2::new(problem, *self).run_observed(
            seeds,
            stream,
            snapshots,
            |g, p| on_snapshot(g, p),
            &mut observer,
        )
    }
}

impl<P: Problem> Engine<P> for MoeadConfig {
    fn evolve(
        &self,
        problem: &P,
        seeds: Vec<P::Genome>,
        stream: u64,
        snapshots: &[usize],
        on_snapshot: &mut SnapshotFn<'_, P::Genome>,
        mut observer: &mut dyn Observer<P::Genome>,
    ) -> Vec<Individual<P::Genome>> {
        moead_observed(
            problem,
            *self,
            seeds,
            stream,
            snapshots,
            |g, p| on_snapshot(g, p),
            &mut observer,
        )
    }
}

impl<P: Problem> Engine<P> for Spea2Config {
    fn evolve(
        &self,
        problem: &P,
        seeds: Vec<P::Genome>,
        stream: u64,
        snapshots: &[usize],
        on_snapshot: &mut SnapshotFn<'_, P::Genome>,
        mut observer: &mut dyn Observer<P::Genome>,
    ) -> Vec<Individual<P::Genome>> {
        spea2_observed(
            problem,
            *self,
            seeds,
            stream,
            snapshots,
            |g, p| on_snapshot(g, p),
            &mut observer,
        )
    }
}

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

    /// Convenience: evolve with no snapshots and no observer.
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
            &mut crate::observe::NullObserver,
        )
    }
}

impl<P: Problem> Engine<P> for EngineConfig {
    fn evolve(
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
                c.evolve(problem, seeds, stream, snapshots, on_snapshot, observer)
            }
            EngineConfig::Moead(c) => {
                c.evolve(problem, seeds, stream, snapshots, on_snapshot, observer)
            }
            EngineConfig::Spea2(c) => {
                c.evolve(problem, seeds, stream, snapshots, on_snapshot, observer)
            }
        }
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
    stagnation: Option<Stagnation>,
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
            stagnation: d.stagnation,
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

    /// Parallel offspring evaluation. Only NSGA-II reads it: SPEA2
    /// always evaluates a generation in parallel, and MOEA/D always
    /// evaluates serially (each child is a batch of one).
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

    /// NSGA-II convergence-based early stop.
    pub fn stagnation(mut self, stagnation: Stagnation) -> Self {
        self.stagnation = Some(stagnation);
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
                stagnation: self.stagnation,
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
                    hv_reference: self.hv_reference,
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::StatsLog;
    use crate::problem::Schaffer;

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
    fn engine_trait_matches_direct_calls() {
        // Dispatching through the trait must reproduce the direct API
        // bit-for-bit for every family — the property campaign resume
        // stands on.
        let problem = Schaffer::default();
        let builder = || {
            EngineConfig::builder()
                .population(16)
                .generations(10)
                .mutation_rate(0.5)
        };

        let cfg = builder().build().unwrap();
        let via_trait = cfg.run(&problem, vec![], 42);
        let direct = match cfg {
            EngineConfig::Nsga2(c) => Nsga2::new(&problem, c).run(vec![], 42),
            _ => unreachable!(),
        };
        let a: Vec<_> = via_trait.iter().map(|i| i.objectives).collect();
        let b: Vec<_> = direct.iter().map(|i| i.objectives).collect();
        assert_eq!(a, b);

        for alg in [Algorithm::Moead, Algorithm::Spea2] {
            let cfg = builder().algorithm(alg).build().unwrap();
            let once = cfg.run(&problem, vec![], 7);
            let twice = cfg.run(&problem, vec![], 7);
            let a: Vec<_> = once.iter().map(|i| i.objectives).collect();
            let b: Vec<_> = twice.iter().map(|i| i.objectives).collect();
            assert_eq!(a, b, "{alg} not deterministic through the trait");
        }
    }

    #[test]
    fn trait_snapshots_and_observer_fire_for_every_engine() {
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
}
