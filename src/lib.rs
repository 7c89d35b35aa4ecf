#![warn(missing_docs)]

//! Umbrella crate re-exporting the `hetsched` workspace.
//!
//! Most users want [`prelude`]: it curates the types a typical experiment
//! touches (configs, the campaign API, reports, telemetry) behind one
//! import. The individual subsystem crates are re-exported as modules so
//! examples and integration tests can still reach every layer through a
//! single dependency when the prelude is not enough.

pub use hetsched_alloc as alloc;
pub use hetsched_analysis as analysis;
pub use hetsched_core as core;
pub use hetsched_data as data;
pub use hetsched_heuristics as heuristics;
pub use hetsched_moea as moea;
pub use hetsched_serve as serve;
pub use hetsched_sim as sim;
pub use hetsched_stats as stats;
pub use hetsched_synth as synth;
pub use hetsched_workload as workload;

/// The types a typical experiment needs, behind one import:
///
/// ```
/// use hetsched::prelude::*;
///
/// let config = ExperimentConfig::builder(DatasetId::One)
///     .tasks(20)
///     .population(8)
///     .snapshots(vec![2])
///     .build()?;
/// let spec = CampaignSpec::single(&config);
/// # Ok::<(), Error>(())
/// ```
///
/// The prelude deliberately stays small — experiment configuration, the
/// campaign API, analysis outputs, and telemetry. Reach into the
/// subsystem modules ([`crate::sim`], [`crate::moea`], …) for engine
/// internals.
pub mod prelude {
    pub use hetsched_core::{
        Algorithm, AnalysisReport, Campaign, CampaignOutcome, CampaignReport, CampaignSpec,
        CampaignSpecBuilder, CancelToken, CellId, CellOutcome, CellRecord, CoreError, DatasetId,
        Error, ErrorClass, ExperimentConfig, ExperimentConfigBuilder, Framework, LeaseAction,
        LeaseRecord, LeaseTable, LocalManifestStore, ManifestStore, MetricsRegistry,
        MetricsSnapshot, ParetoFront, PopulationRun, SeedKind, SpanRecord, TraceAnalysis,
        TraceWriter, Worker, WorkerOutcome,
    };
    pub use hetsched_moea::{EngineConfig, EngineConfigBuilder};
    pub use hetsched_sim::Evaluator;
}
