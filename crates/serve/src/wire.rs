//! The versioned JSON bodies served over HTTP.
//!
//! Every body carries a `schema` field (e.g. `hetsched.job-status.v1`)
//! so clients can detect drift the way the campaign manifest's version
//! header already does: a consumer checks the schema string before
//! trusting the shape. Required keys stay strict — the derive rejects a
//! missing one, which doubles as shape enforcement on the way in: an old
//! client POSTing a pre-v1 body gets a 400, not a half-parsed struct.
//! Optional keys are `#[serde(default, skip_serializing_if =
//! "Option::is_none")]`: absent on the wire when unset, never `null`, and
//! a client may leave them out.

use hetsched_core::{CampaignOutcome, CampaignReport, CampaignSpec, CellId, CellRecord};
use hetsched_core::{ErrorClass, MetricsSnapshot};
use serde::{Deserialize, Serialize};

/// Schema tag for [`JobRequest`].
pub const JOB_REQUEST_SCHEMA: &str = "hetsched.job-request.v1";
/// Schema tag for [`JobCreated`].
pub const JOB_CREATED_SCHEMA: &str = "hetsched.job-created.v1";
/// Schema tag for [`JobStatusBody`]. v2: the embedded
/// [`MetricsSnapshot`] gained the five lease counters.
pub const JOB_STATUS_SCHEMA: &str = "hetsched.job-status.v2";
/// Schema tag for [`JobReportBody`].
pub const JOB_REPORT_SCHEMA: &str = "hetsched.job-report.v1";
/// Schema tag for [`JobTraceBody`].
pub const JOB_TRACE_SCHEMA: &str = "hetsched.job-trace.v1";
/// Schema tag for [`JobWorkersBody`].
pub const JOB_WORKERS_SCHEMA: &str = "hetsched.job-workers.v1";
/// Schema tag for [`ErrorBody`].
pub const ERROR_SCHEMA: &str = "hetsched.error.v1";
/// Schema tag for [`StreamRequest`].
pub const STREAM_REQUEST_SCHEMA: &str = "hetsched.stream-request.v1";
/// Schema tag for [`StreamCreated`].
pub const STREAM_CREATED_SCHEMA: &str = "hetsched.stream-created.v1";
/// Schema tag for [`StreamFeedRequest`].
pub const STREAM_FEED_SCHEMA: &str = "hetsched.stream-feed.v1";
/// Schema tag for [`StreamStatusBody`].
pub const STREAM_STATUS_SCHEMA: &str = "hetsched.stream-status.v1";
/// Schema tag for [`StreamTimelineBody`].
pub const STREAM_TIMELINE_SCHEMA: &str = "hetsched.stream-timeline.v1";

/// `POST /v1/jobs` request body: the campaign to run. The spec names the
/// datasets (real ETC/EPC matrix or synth spec via [`CampaignSpec`]'s
/// dataset axis), algorithms, and replicates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRequest {
    /// Must equal [`JOB_REQUEST_SCHEMA`]; anything else is a 400.
    pub schema: String,
    /// The grid to run, validated server-side before admission.
    pub campaign: CampaignSpec,
    /// Optional per-cell watchdog budget in seconds (falls back to the
    /// daemon's `--cell-timeout` when absent).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub cell_timeout_s: Option<f64>,
}

impl JobRequest {
    /// A request for `campaign` with the current schema tag.
    pub fn new(campaign: CampaignSpec) -> Self {
        JobRequest {
            schema: JOB_REQUEST_SCHEMA.to_string(),
            campaign,
            cell_timeout_s: None,
        }
    }
}

/// `POST /v1/jobs` response body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobCreated {
    /// [`JOB_CREATED_SCHEMA`].
    pub schema: String,
    /// Server-assigned job id, the `{id}` of the other endpoints.
    pub job_id: String,
    /// [`CampaignSpec::fingerprint`] of the submitted spec — also the
    /// fingerprint-cache key and the manifest header value.
    pub fingerprint: String,
    /// Job state at admission (`queued`, or the cached job's state).
    pub state: String,
    /// Whether the spec hit the fingerprint cache (the returned job
    /// already existed; no new cells were enqueued).
    pub cached: bool,
}

/// `GET /v1/jobs/{id}` response body: live progress assembled from the
/// job's [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobStatusBody {
    /// [`JOB_STATUS_SCHEMA`].
    pub schema: String,
    /// The job id.
    pub job_id: String,
    /// The spec fingerprint.
    pub fingerprint: String,
    /// `queued` | `running` | `done` | `failed` | `cancelled`.
    pub state: String,
    /// Failure description when `state == "failed"`.
    pub error: Option<String>,
    /// Point-in-time telemetry for this job's registry.
    pub metrics: MetricsSnapshot,
}

/// `GET /v1/jobs/{id}/trace` response body: the job's recorded span
/// timeline, one [`SpanRecord`](hetsched_core::SpanRecord) per completed
/// span. Empty until the job's campaign starts executing (spans are
/// appended as they close, so a running job serves a growing prefix).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobTraceBody {
    /// [`JOB_TRACE_SCHEMA`].
    pub schema: String,
    /// The job id.
    pub job_id: String,
    /// The spec fingerprint.
    pub fingerprint: String,
    /// Completed spans in close order (parents close after children).
    pub spans: Vec<hetsched_core::SpanRecord>,
}

/// `GET /v1/jobs/{id}/workers` response body: the per-worker view of a
/// distributed campaign, computed purely from the job's manifest — cell
/// records each worker appended plus the replayed lease state machine.
/// A single-process job reports one worker (the daemon's own id);
/// external `hetsched work` processes sharing the job's manifest each
/// get a row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobWorkersBody {
    /// [`JOB_WORKERS_SCHEMA`].
    pub schema: String,
    /// The job id.
    pub job_id: String,
    /// The spec fingerprint.
    pub fingerprint: String,
    /// Per-worker rollups, sorted by worker id.
    pub workers: Vec<hetsched_core::WorkerSummary>,
}

/// `GET /v1/jobs/{id}/report` response body: the finished campaign, in
/// the same byte-stable serialisation the offline path emits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobReportBody {
    /// [`JOB_REPORT_SCHEMA`].
    pub schema: String,
    /// The job id.
    pub job_id: String,
    /// The spec fingerprint.
    pub fingerprint: String,
    /// Complete per-grid-point reports, canonical order.
    pub reports: Vec<CampaignReport>,
    /// Cells that exhausted their attempts.
    pub failed: Vec<CellRecord>,
    /// Cells skipped by cancellation or deadline.
    pub skipped: Vec<CellId>,
    /// Cells executed by the serving daemon.
    pub executed: u64,
    /// Cells replayed from the manifest (resume / fingerprint cache).
    pub replayed: u64,
}

impl JobReportBody {
    /// Wraps a finished [`CampaignOutcome`] for the wire.
    pub fn from_outcome(job_id: &str, fingerprint: &str, outcome: &CampaignOutcome) -> Self {
        JobReportBody {
            schema: JOB_REPORT_SCHEMA.to_string(),
            job_id: job_id.to_string(),
            fingerprint: fingerprint.to_string(),
            reports: outcome.reports.clone(),
            failed: outcome.failed.clone(),
            skipped: outcome.skipped.clone(),
            executed: outcome.executed as u64,
            replayed: outcome.replayed as u64,
        }
    }
}

/// `POST /v1/streams` request body: open (or resume) a rolling-horizon
/// stream. The stream id keys the per-stream manifest under the state
/// directory, so POSTing the same id + configuration after a daemon
/// restart resumes the stream mid-flight instead of starting over.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamRequest {
    /// Must equal [`STREAM_REQUEST_SCHEMA`]; anything else is a 400.
    pub schema: String,
    /// Client-chosen stream key (`[A-Za-z0-9_-]{1,64}`) — also the
    /// manifest filename stem.
    pub stream_id: String,
    /// Data set whose machines serve the stream (1-3).
    pub set: u8,
    /// Re-optimization period in seconds.
    pub horizon: f64,
    /// Stream-wide energy budget in joules (absent = unconstrained).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub energy_budget: Option<f64>,
    /// Per-arrival placement rule (`max-utility` | `gupta`) instead of
    /// the evolutionary re-optimizer.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub policy: Option<String>,
    /// MOEA family (`nsga2` | `moead` | `spea2`; default nsga2).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub algorithm: Option<String>,
    /// Engine population per tick (default 24).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub population: Option<usize>,
    /// Engine generations per tick (default 8).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub generations: Option<usize>,
    /// Master RNG seed (default 0x5EED).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub rng_seed: Option<u64>,
    /// Warm-start each tick from the previous front (default true).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub warm_start: Option<bool>,
}

impl StreamRequest {
    /// A minimal engine-backed request with the current schema tag.
    pub fn new(stream_id: impl Into<String>, set: u8, horizon: f64) -> Self {
        StreamRequest {
            schema: STREAM_REQUEST_SCHEMA.to_string(),
            stream_id: stream_id.into(),
            set,
            horizon,
            energy_budget: None,
            policy: None,
            algorithm: None,
            population: None,
            generations: None,
            rng_seed: None,
            warm_start: None,
        }
    }
}

/// `POST /v1/streams` response body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamCreated {
    /// [`STREAM_CREATED_SCHEMA`].
    pub schema: String,
    /// The stream id (echoed back).
    pub stream_id: String,
    /// Re-optimizer fingerprint (`engine:nsga2`, `policy:gupta`, …).
    pub optimizer: String,
    /// Whether the stream already existed — in memory or as an on-disk
    /// manifest replayed back to its interrupted state.
    pub resumed: bool,
    /// Horizon ticks already committed (0 for a fresh stream).
    pub ticks: u64,
    /// Exclusive end of the arrival window fed so far.
    pub fed_until: f64,
}

/// `POST /v1/streams/{id}/tasks` request body: one arrival window. The
/// daemon feeds the tasks, then synchronously runs every horizon the fed
/// window now covers and answers with the post-tick status.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamFeedRequest {
    /// Must equal [`STREAM_FEED_SCHEMA`].
    pub schema: String,
    /// Exclusive end of the window these tasks cover: finite, not behind
    /// the window already fed, and at most
    /// [`MAX_FEED_HORIZONS`](crate::http::MAX_FEED_HORIZONS) horizons past
    /// the stream's clock (400 otherwise).
    pub until: f64,
    /// Arrivals in the window, in arrival order.
    pub tasks: Vec<hetsched_core::Task>,
}

/// `GET /v1/streams/{id}` (and feed) response body: committed-schedule
/// totals as of the last horizon tick.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamStatusBody {
    /// [`STREAM_STATUS_SCHEMA`].
    pub schema: String,
    /// The stream id.
    pub stream_id: String,
    /// Re-optimizer fingerprint.
    pub optimizer: String,
    /// Horizon ticks committed so far.
    pub ticks: u64,
    /// Stream wall-clock (seconds; ticks × horizon).
    pub now: f64,
    /// Exclusive end of the arrival window fed so far.
    pub fed_until: f64,
    /// Tasks covered by the last committed schedule.
    pub tasks: u64,
    /// Tasks frozen (already started) after the last tick.
    pub frozen: u64,
    /// Tasks rejected stream-wide to fit the energy budget.
    pub rejected: u64,
    /// Committed total utility.
    pub utility: f64,
    /// Committed total energy in joules.
    pub energy: f64,
}

/// `GET /v1/streams/{id}/timeline` response body: the full committed
/// schedule (per-task placements) plus the per-tick records.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamTimelineBody {
    /// [`STREAM_TIMELINE_SCHEMA`].
    pub schema: String,
    /// The stream id.
    pub stream_id: String,
    /// One record per committed horizon tick.
    pub records: Vec<hetsched_core::HorizonRecord>,
    /// The committed schedule: start/finish/machine per task, in task
    /// order.
    pub timeline: Vec<hetsched_core::TaskRecord>,
}

/// Error response body, for every non-2xx JSON response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorBody {
    /// [`ERROR_SCHEMA`].
    pub schema: String,
    /// Machine-readable failure family, mirroring
    /// [`hetsched_core::ErrorClass`]: `invalid-input` | `not-found` |
    /// `internal`.
    pub class: String,
    /// Human-readable description.
    pub error: String,
}

impl ErrorBody {
    /// Builds the body for an error class + message.
    pub fn new(class: ErrorClass, error: impl Into<String>) -> Self {
        ErrorBody {
            schema: ERROR_SCHEMA.to_string(),
            class: class_label(class).to_string(),
            error: error.into(),
        }
    }
}

/// The wire label of an [`ErrorClass`].
pub fn class_label(class: ErrorClass) -> &'static str {
    match class {
        ErrorClass::InvalidInput => "invalid-input",
        ErrorClass::NotFound => "not-found",
        ErrorClass::Internal => "internal",
    }
}

/// The HTTP status an [`ErrorClass`] maps to — the single place the
/// unified error taxonomy meets HTTP.
pub fn class_status(class: ErrorClass) -> u16 {
    match class {
        ErrorClass::InvalidInput => 400,
        ErrorClass::NotFound => 404,
        ErrorClass::Internal => 500,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsched_core::ExperimentConfig;

    #[test]
    fn job_request_roundtrips_and_tolerates_missing_timeout() {
        let spec = CampaignSpec::single(&ExperimentConfig::dataset1());
        let req = JobRequest::new(spec.clone());
        let json = serde_json::to_string(&req).unwrap();
        // Absent timeout serialises to an absent key, not `null`.
        assert!(!json.contains("cell_timeout_s"));
        let back: JobRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, req);

        let with_timeout = JobRequest {
            cell_timeout_s: Some(1.5),
            ..req.clone()
        };
        let json = serde_json::to_string(&with_timeout).unwrap();
        assert!(json.contains("\"cell_timeout_s\":1.5"));
        let back: JobRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, with_timeout);
    }

    #[test]
    fn stream_request_roundtrips_with_and_without_optionals() {
        let bare = StreamRequest::new("s1", 1, 30.0);
        let json = serde_json::to_string(&bare).unwrap();
        // Absent knobs serialise to absent keys, not `null`.
        for key in [
            "energy_budget",
            "policy",
            "algorithm",
            "population",
            "generations",
            "rng_seed",
            "warm_start",
        ] {
            assert!(!json.contains(key), "{key} leaked into {json}");
        }
        let back: StreamRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, bare);

        let full = StreamRequest {
            energy_budget: Some(2.5e6),
            policy: None,
            algorithm: Some("spea2".into()),
            population: Some(16),
            generations: Some(5),
            rng_seed: Some(42),
            warm_start: Some(false),
            ..bare.clone()
        };
        let json = serde_json::to_string(&full).unwrap();
        let back: StreamRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, full);

        // Missing required fields stay hard errors.
        assert!(serde_json::from_str::<StreamRequest>(
            "{\"schema\":\"hetsched.stream-request.v1\",\"set\":1,\"horizon\":30.0}"
        )
        .is_err());
    }

    #[test]
    fn class_mapping_is_total() {
        assert_eq!(class_status(ErrorClass::InvalidInput), 400);
        assert_eq!(class_status(ErrorClass::NotFound), 404);
        assert_eq!(class_status(ErrorClass::Internal), 500);
        assert_eq!(class_label(ErrorClass::NotFound), "not-found");
        let body = ErrorBody::new(ErrorClass::InvalidInput, "bad spec");
        assert_eq!(body.schema, ERROR_SCHEMA);
        let json = serde_json::to_string(&body).unwrap();
        let back: ErrorBody = serde_json::from_str(&json).unwrap();
        assert_eq!(back, body);
    }
}
