#![warn(missing_docs)]

//! The analysis framework of the paper: wire a data set, a trace, the
//! seeding heuristics, and NSGA-II together; run one population per seed
//! configuration; and analyse the resulting Pareto fronts.
//!
//! ```
//! use hetsched_core::{DatasetId, ExperimentConfig, Framework};
//!
//! // A miniature data set 1 run (250-task version shrunk for doc tests).
//! let config = ExperimentConfig::builder(DatasetId::One)
//!     .tasks(40)
//!     .population(16)
//!     .snapshots(vec![5, 10])
//!     .build()?;
//! let framework = Framework::new(&config).unwrap();
//! let report = framework.run();
//! assert_eq!(report.runs.len(), 5); // four seeds + the random population
//! let front = report.combined_front();
//! assert!(!front.is_empty());
//! # Ok::<(), hetsched_core::Error>(())
//! ```

pub mod campaign;
pub mod config;
pub mod durable;
pub mod figures;
pub mod framework;
pub mod inspect;
pub mod journal;
mod jsonl;
pub mod lease;
pub mod manifest;
pub mod report;
pub mod streaming;
pub mod suite;
pub mod telemetry;
pub mod trace;
pub mod worker;

/// Deterministic fault injection: the simulator's registry, re-exported
/// so consumers address one crate. See README § Fault tolerance for the
/// plan syntax and the fault points.
pub use hetsched_sim::chaos;

pub use campaign::{
    load_manifest, Campaign, CampaignOutcome, CampaignReport, CampaignSpec, CampaignSpecBuilder,
    CancelToken, CellId, CellOutcome, CellRecord,
};
pub use config::{DatasetId, ExperimentConfig, ExperimentConfigBuilder};
pub use durable::durable_write;
pub use framework::Framework;
pub use inspect::{inspect_path, summarise_manifest, Inspection, ManifestSummary, WorkerSummary};
// The engine API the framework is parameterised over, re-exported so
// downstream crates (notably the CLI) need not depend on the MOEA crate
// directly to select an algorithm.
pub use hetsched_analysis::ParetoFront;
pub use hetsched_data::HcSystem;
pub use hetsched_heuristics::SeedKind;
pub use hetsched_moea::{Algorithm, EngineConfig, EngineConfigBuilder};
// The streaming surface the serve daemon builds on: horizon mechanics
// and records from the simulator, the arrival process and task shape
// from the workload crate.
pub use hetsched_sim::{HorizonConfig, HorizonRecord, OnlinePolicy, TaskRecord};
pub use hetsched_workload::{ArrivalSpec, ArrivalStream, Task, TufPolicy};
pub use journal::{JournalObserver, JournalRecord, RunJournal};
pub use lease::{LeaseAction, LeaseRecord, LeaseState, LeaseTable, DEFAULT_SKEW_SLACK_S};
pub use manifest::{
    load_manifest_records, replay_records, LocalManifestStore, ManifestRecord, ManifestStore,
    ManifestView, StoreLock, COMPAT_MANIFEST_VERSION, MANIFEST_VERSION,
};
pub use report::{AnalysisReport, PopulationRun};
pub use streaming::{
    EngineReoptimizer, EngineStreamSpec, OptimizerSpec, StreamConfig, StreamHeader, StreamRunner,
    STREAM_MANIFEST_SCHEMA,
};
pub use suite::{check_report, verify_dataset, Check, DatasetVerdict};
pub use telemetry::{Heartbeat, HeartbeatLine, HeartbeatTicker, MetricsRegistry, MetricsSnapshot};
pub use trace::{
    chrome_trace, install_tracing, installed_mux, read_trace, read_trace_from, SpanRecord,
    TraceAnalysis, TraceMux, TraceWriter,
};
pub use worker::{Worker, WorkerOutcome};

use hetsched_synth::SynthError;
use hetsched_workload::WorkloadError;
use std::fmt;

/// The shared error type every consumer of the framework wraps: the CLI
/// maps it to exit codes, the serve crate maps it to HTTP statuses, and
/// both do so through [`Error::class`] rather than matching variants.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Synthetic data generation failed.
    Synth(SynthError),
    /// Trace generation failed.
    Workload(WorkloadError),
    /// The experiment configuration is inconsistent.
    InvalidConfig(&'static str),
    /// A named resource (e.g. a job id) does not exist.
    NotFound(String),
    /// A campaign manifest could not be read or belongs to another
    /// campaign.
    Manifest(String),
    /// An I/O failure (message form keeps the error `Clone`able).
    Io(String),
}

/// Backwards-compatible name — the error began life as `CoreError` and
/// downstream code still constructs variants through this alias.
pub type CoreError = Error;

/// The coarse failure family of an [`Error`], for protocol mappings that
/// must not depend on the variant set (HTTP statuses, exit codes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// The caller's input was rejected (HTTP 400).
    InvalidInput,
    /// The named resource does not exist (HTTP 404).
    NotFound,
    /// The framework itself failed (HTTP 500).
    Internal,
}

impl Error {
    /// Classifies the error for protocol mappings: configuration and
    /// input-shaped failures are [`ErrorClass::InvalidInput`], missing
    /// resources are [`ErrorClass::NotFound`], everything else (state
    /// corruption, I/O) is [`ErrorClass::Internal`].
    pub fn class(&self) -> ErrorClass {
        match self {
            Error::Synth(_) | Error::Workload(_) | Error::InvalidConfig(_) => {
                ErrorClass::InvalidInput
            }
            Error::NotFound(_) => ErrorClass::NotFound,
            Error::Manifest(_) | Error::Io(_) => ErrorClass::Internal,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Synth(e) => write!(f, "synthetic data error: {e}"),
            Error::Workload(e) => write!(f, "workload error: {e}"),
            Error::InvalidConfig(what) => write!(f, "invalid config: {what}"),
            Error::NotFound(what) => write!(f, "not found: {what}"),
            Error::Manifest(what) => write!(f, "campaign manifest: {what}"),
            Error::Io(what) => write!(f, "i/o error: {what}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Synth(e) => Some(e),
            Error::Workload(e) => Some(e),
            Error::InvalidConfig(_) | Error::NotFound(_) | Error::Manifest(_) | Error::Io(_) => {
                None
            }
        }
    }
}

impl From<SynthError> for Error {
    fn from(e: SynthError) -> Self {
        Error::Synth(e)
    }
}

impl From<WorkloadError> for Error {
    fn from(e: WorkloadError) -> Self {
        Error::Workload(e)
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod error_tests {
    use super::*;

    #[test]
    fn classes_cover_protocol_mappings() {
        assert_eq!(
            Error::InvalidConfig("tasks must be > 0").class(),
            ErrorClass::InvalidInput
        );
        assert_eq!(
            Error::NotFound("job 42".into()).class(),
            ErrorClass::NotFound
        );
        assert_eq!(Error::Manifest("torn".into()).class(), ErrorClass::Internal);
        assert_eq!(Error::Io("disk".into()).class(), ErrorClass::Internal);
    }

    #[test]
    fn core_error_alias_still_constructs_variants() {
        // Downstream code spells the type `CoreError`; variant paths must
        // keep resolving through the alias.
        let e: CoreError = CoreError::InvalidConfig("population must be >= 2");
        assert_eq!(e.class(), ErrorClass::InvalidInput);
        assert_eq!(e.to_string(), "invalid config: population must be >= 2");
    }
}
