#![warn(missing_docs)]

//! Multi-objective evolutionary algorithm engine.
//!
//! Implements the **Nondominated Sorting Genetic Algorithm II** (Deb et al.,
//! IEEE TEC 2002) as adapted by the paper (§IV-D, Algorithm 1): elitist
//! (μ+λ) survival driven by fast nondominated sorting and crowding-distance
//! truncation, with *uniform-random* mating selection (the paper selects
//! crossover parents uniformly at random rather than by crowded tournament).
//!
//! The engine is generic over a [`Problem`]: the allocation crate binds it
//! to the utility/energy scheduling problem, and the test-suite binds it to
//! analytic benchmark problems (SCH, ZDT1) with known Pareto fronts.
//!
//! All three engines (NSGA-II, MOEA/D, SPEA2) vary genomes with the
//! problem's plain crossover and mutation and evaluate each generation in
//! one [`Problem::evaluate_batch`] call, handing every child over as a
//! [`Candidate`] together with the individual it was bred from. A child
//! equal to that parent reuses the parent's objectives; every other child
//! is evaluated in full.
//!
//! Objectives are always **minimised**; the scheduling problem feeds
//! `(-utility, energy)`.

pub mod baselines;
pub mod dominance;
pub mod engine;
pub mod moead;
pub mod nsga2;
pub mod observe;
pub mod problem;
pub mod seeding;
pub mod sort;
pub mod spea2;

pub use dominance::{dominates, Objectives};
pub use engine::{Algorithm, Engine, EngineConfig, EngineConfigBuilder, EngineError};
pub use moead::{moead, moead_observed, MoeadConfig};
pub use nsga2::{pareto_front, Individual, Mating, Nsga2, Nsga2Config, Stagnation, Survival};
pub use observe::{GenerationStats, NullObserver, Observer, PhaseTimings, StatsLog};
pub use problem::{Candidate, Problem};
pub use seeding::prepare_warm_seeds;
pub use sort::{crowding_distance, fast_nondominated_sort};
pub use spea2::{spea2, spea2_observed, Spea2Config};
