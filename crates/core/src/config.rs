//! Experiment configurations for the paper's three data sets (§V-A).
//!
//! | Data set | System | Tasks | Window | Snapshot iterations (paper) |
//! |---|---|---|---|---|
//! | 1 | real 5×9, 9 machines | 250 | 15 min | 100 / 1 000 / 10 000 / 100 000 |
//! | 2 | synthetic 30×13, 30 machines | 1 000 | 15 min | 1 000 / 10 000 / 100 000 / 1 000 000 |
//! | 3 | synthetic 30×13, 30 machines | 4 000 | 1 h | 1 000 / 10 000 / 100 000 / 1 000 000 |
//!
//! The paper-scale iteration counts take cluster-scale CPU time; use
//! [`ExperimentConfig::scaled`] to shrink every snapshot by a factor while
//! keeping the logarithmic spacing that makes the convergence story
//! visible.

use hetsched_heuristics::SeedKind;
use hetsched_moea::Algorithm;
use serde::{Deserialize, Serialize};

/// Which of the paper's data sets an experiment runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DatasetId {
    /// Real 5×9 benchmark data, one machine per type.
    One,
    /// Synthetic 30-task-type system, 1000 tasks over 15 minutes.
    Two,
    /// Synthetic 30-task-type system, 4000 tasks over one hour.
    Three,
}

impl DatasetId {
    /// The paper's task count for this data set.
    pub fn tasks(self) -> usize {
        match self {
            DatasetId::One => 250,
            DatasetId::Two => 1000,
            DatasetId::Three => 4000,
        }
    }

    /// The paper's trace window in seconds.
    pub fn duration(self) -> f64 {
        match self {
            DatasetId::One | DatasetId::Two => 900.0,
            DatasetId::Three => 3600.0,
        }
    }

    /// The paper's snapshot iteration counts for this data set.
    pub fn paper_snapshots(self) -> Vec<usize> {
        match self {
            DatasetId::One => vec![100, 1_000, 10_000, 100_000],
            DatasetId::Two | DatasetId::Three => vec![1_000, 10_000, 100_000, 1_000_000],
        }
    }
}

/// Full experiment configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Data set to build.
    pub dataset: DatasetId,
    /// MOEA family the framework evolves with (default NSGA-II, the
    /// paper's engine; see [`hetsched_moea::EngineConfig`]).
    pub algorithm: Algorithm,
    /// Number of tasks in the trace (paper value via [`DatasetId::tasks`]).
    pub tasks: usize,
    /// Trace window in seconds.
    pub duration: f64,
    /// NSGA-II population size N (paper example: 100).
    pub population: usize,
    /// Per-offspring mutation probability.
    pub mutation_rate: f64,
    /// Ascending iteration counts at which fronts are captured; the last
    /// entry is the total generation budget.
    pub snapshots: Vec<usize>,
    /// Seed configurations to compare (defaults to all five).
    pub seeds: Vec<SeedKind>,
    /// Master RNG seed: drives data-set synthesis, trace generation, and
    /// the per-population engine streams. Same seed ⇒ identical report.
    pub rng_seed: u64,
    /// Evaluate offspring in parallel (rayon).
    pub parallel: bool,
}

impl ExperimentConfig {
    fn base(dataset: DatasetId, snapshots: Vec<usize>) -> Self {
        ExperimentConfig {
            dataset,
            algorithm: Algorithm::default(),
            tasks: dataset.tasks(),
            duration: dataset.duration(),
            population: 100,
            mutation_rate: 0.5,
            snapshots,
            seeds: SeedKind::ALL.to_vec(),
            rng_seed: 0x5EED,
            parallel: true,
        }
    }

    /// Data set 1 at a laptop-friendly default budget (snapshots
    /// 100 / 500 / 2 000 iterations). Use [`ExperimentConfig::paper_scale`]
    /// for the full counts.
    pub fn dataset1() -> Self {
        Self::base(DatasetId::One, vec![100, 500, 2_000])
    }

    /// Data set 2 at a laptop-friendly default budget.
    pub fn dataset2() -> Self {
        Self::base(DatasetId::Two, vec![100, 500, 2_000])
    }

    /// Data set 3 at a laptop-friendly default budget.
    pub fn dataset3() -> Self {
        Self::base(DatasetId::Three, vec![100, 500, 2_000])
    }

    /// The paper's full iteration schedule for `dataset` (expensive!).
    pub fn paper_scale(dataset: DatasetId) -> Self {
        Self::base(dataset, dataset.paper_snapshots())
    }

    /// A validating builder seeded with the laptop-friendly defaults for
    /// `dataset` — the mutation-friendly alternative to struct-literal
    /// update syntax, with [`ExperimentConfig::validate`] enforced at
    /// [`ExperimentConfigBuilder::build`].
    pub fn builder(dataset: DatasetId) -> ExperimentConfigBuilder {
        ExperimentConfigBuilder {
            config: Self::base(dataset, vec![100, 500, 2_000]),
        }
    }

    /// Scales every snapshot count by `factor` (rounded up, minimum 1),
    /// preserving the paper's logarithmic spacing; duplicate counts that
    /// appear after rounding are collapsed.
    pub fn scaled(dataset: DatasetId, factor: f64) -> Self {
        let mut snapshots: Vec<usize> = dataset
            .paper_snapshots()
            .into_iter()
            .map(|s| ((s as f64 * factor).ceil() as usize).max(1))
            .collect();
        snapshots.dedup();
        Self::base(dataset, snapshots)
    }

    /// Total generation budget (the last snapshot).
    pub fn generations(&self) -> usize {
        self.snapshots.last().copied().unwrap_or(0)
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// [`crate::CoreError::InvalidConfig`] with a description.
    pub fn validate(&self) -> crate::Result<()> {
        if self.tasks == 0 {
            return Err(crate::CoreError::InvalidConfig("tasks must be > 0"));
        }
        if self.population < 2 {
            return Err(crate::CoreError::InvalidConfig("population must be >= 2"));
        }
        if self.snapshots.is_empty() {
            return Err(crate::CoreError::InvalidConfig(
                "need at least one snapshot",
            ));
        }
        if self.snapshots.windows(2).any(|w| w[0] >= w[1]) {
            return Err(crate::CoreError::InvalidConfig(
                "snapshots must strictly ascend",
            ));
        }
        if self.snapshots.first() == Some(&0) {
            return Err(crate::CoreError::InvalidConfig(
                "snapshots must start at generation 1 or later",
            ));
        }
        if self.seeds.is_empty() {
            return Err(crate::CoreError::InvalidConfig(
                "need at least one seed kind",
            ));
        }
        if !(0.0..=1.0).contains(&self.mutation_rate) {
            return Err(crate::CoreError::InvalidConfig(
                "mutation rate must be in [0, 1]",
            ));
        }
        Ok(())
    }
}

/// Builder for [`ExperimentConfig`], mirroring
/// [`hetsched_moea::EngineConfigBuilder`]: setters never fail, every
/// consistency rule is checked once at [`ExperimentConfigBuilder::build`].
#[derive(Debug, Clone)]
pub struct ExperimentConfigBuilder {
    config: ExperimentConfig,
}

impl ExperimentConfigBuilder {
    /// MOEA family the framework evolves with.
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.config.algorithm = algorithm;
        self
    }

    /// Number of tasks in the trace.
    pub fn tasks(mut self, tasks: usize) -> Self {
        self.config.tasks = tasks;
        self
    }

    /// Trace window in seconds.
    pub fn duration(mut self, duration: f64) -> Self {
        self.config.duration = duration;
        self
    }

    /// Population size N.
    pub fn population(mut self, population: usize) -> Self {
        self.config.population = population;
        self
    }

    /// Per-offspring mutation probability.
    pub fn mutation_rate(mut self, rate: f64) -> Self {
        self.config.mutation_rate = rate;
        self
    }

    /// Ascending iteration counts at which fronts are captured.
    pub fn snapshots(mut self, snapshots: Vec<usize>) -> Self {
        self.config.snapshots = snapshots;
        self
    }

    /// Seed configurations to compare.
    pub fn seeds(mut self, seeds: Vec<SeedKind>) -> Self {
        self.config.seeds = seeds;
        self
    }

    /// Master RNG seed.
    pub fn rng_seed(mut self, rng_seed: u64) -> Self {
        self.config.rng_seed = rng_seed;
        self
    }

    /// Evaluate offspring in parallel (rayon).
    pub fn parallel(mut self, parallel: bool) -> Self {
        self.config.parallel = parallel;
        self
    }

    /// Validates the accumulated configuration and returns it.
    ///
    /// # Errors
    ///
    /// [`crate::Error::InvalidConfig`] on any rule
    /// [`ExperimentConfig::validate`] enforces (zero tasks, population
    /// below 2, empty or non-ascending snapshots, empty seed list, a
    /// mutation rate outside `[0, 1]`).
    pub fn build(self) -> crate::Result<ExperimentConfig> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_parameters_match_section_v() {
        assert_eq!(DatasetId::One.tasks(), 250);
        assert_eq!(DatasetId::One.duration(), 900.0);
        assert_eq!(DatasetId::Two.tasks(), 1000);
        assert_eq!(DatasetId::Two.duration(), 900.0);
        assert_eq!(DatasetId::Three.tasks(), 4000);
        assert_eq!(DatasetId::Three.duration(), 3600.0);
        assert_eq!(
            DatasetId::One.paper_snapshots(),
            vec![100, 1_000, 10_000, 100_000]
        );
        assert_eq!(
            DatasetId::Three.paper_snapshots(),
            vec![1_000, 10_000, 100_000, 1_000_000]
        );
    }

    #[test]
    fn defaults_validate() {
        for cfg in [
            ExperimentConfig::dataset1(),
            ExperimentConfig::dataset2(),
            ExperimentConfig::dataset3(),
            ExperimentConfig::paper_scale(DatasetId::One),
            ExperimentConfig::scaled(DatasetId::Two, 0.01),
        ] {
            cfg.validate().unwrap();
            assert_eq!(cfg.seeds.len(), 5);
        }
    }

    #[test]
    fn scaled_preserves_spacing_and_dedups() {
        let cfg = ExperimentConfig::scaled(DatasetId::One, 0.01);
        assert_eq!(cfg.snapshots, vec![1, 10, 100, 1000]);
        // Extreme shrink collapses to a single snapshot.
        let tiny = ExperimentConfig::scaled(DatasetId::One, 1e-9);
        assert_eq!(tiny.snapshots, vec![1]);
        tiny.validate().unwrap();
    }

    #[test]
    fn validation_catches_inconsistencies() {
        let mut cfg = ExperimentConfig::dataset1();
        cfg.tasks = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = ExperimentConfig::dataset1();
        cfg.snapshots = vec![10, 10];
        assert!(cfg.validate().is_err());

        let mut cfg = ExperimentConfig::dataset1();
        cfg.snapshots.clear();
        assert!(cfg.validate().is_err());

        let mut cfg = ExperimentConfig::dataset1();
        cfg.population = 1;
        assert!(cfg.validate().is_err());

        let mut cfg = ExperimentConfig::dataset1();
        cfg.mutation_rate = 1.5;
        assert!(cfg.validate().is_err());

        let mut cfg = ExperimentConfig::dataset1();
        cfg.seeds.clear();
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn generations_is_last_snapshot() {
        assert_eq!(ExperimentConfig::dataset1().generations(), 2_000);
    }

    #[test]
    fn builder_defaults_match_presets() {
        let built = ExperimentConfig::builder(DatasetId::Two).build().unwrap();
        assert_eq!(built, ExperimentConfig::dataset2());
    }

    #[test]
    fn builder_setters_land_in_the_config() {
        let cfg = ExperimentConfig::builder(DatasetId::One)
            .algorithm(Algorithm::Spea2)
            .tasks(40)
            .duration(120.0)
            .population(16)
            .mutation_rate(0.25)
            .snapshots(vec![5, 10])
            .seeds(vec![SeedKind::Random])
            .rng_seed(7)
            .parallel(false)
            .build()
            .unwrap();
        assert_eq!(cfg.algorithm, Algorithm::Spea2);
        assert_eq!(cfg.tasks, 40);
        assert_eq!(cfg.duration, 120.0);
        assert_eq!(cfg.population, 16);
        assert_eq!(cfg.mutation_rate, 0.25);
        assert_eq!(cfg.snapshots, vec![5, 10]);
        assert_eq!(cfg.seeds, vec![SeedKind::Random]);
        assert_eq!(cfg.rng_seed, 7);
        assert!(!cfg.parallel);
    }

    #[test]
    fn builder_rejects_inconsistencies_at_build() {
        assert!(ExperimentConfig::builder(DatasetId::One)
            .tasks(0)
            .build()
            .is_err());
        assert!(ExperimentConfig::builder(DatasetId::One)
            .snapshots(vec![])
            .build()
            .is_err());
        assert!(ExperimentConfig::builder(DatasetId::One)
            .seeds(vec![])
            .build()
            .is_err());
        assert!(ExperimentConfig::builder(DatasetId::One)
            .mutation_rate(1.5)
            .build()
            .is_err());
    }
}
