//! Wire-schema regression tests: every body served over HTTP round-trips
//! through serde, and its serialisation is frozen as a golden fixture
//! under `tests/golden/` — schema drift (renamed fields, reordered keys,
//! a silent `v1` → `v2`) fails here before any client sees it.
//!
//! Regenerate after an intentional schema change with
//! `GOLDEN_REGEN=1 cargo test -p hetsched-serve --test wire`.

use hetsched_core::{
    Algorithm, AnalysisReport, CampaignReport, CampaignSpec, DatasetId, ErrorClass,
    ExperimentConfig, MetricsSnapshot, ParetoFront, PopulationRun, SeedKind,
};
use hetsched_serve::wire::{
    ErrorBody, JobCreated, JobReportBody, JobRequest, JobStatusBody, JobWorkersBody, StreamCreated,
    StreamFeedRequest, StreamRequest, StreamStatusBody, StreamTimelineBody, ERROR_SCHEMA,
    JOB_CREATED_SCHEMA, JOB_REPORT_SCHEMA, JOB_STATUS_SCHEMA, JOB_WORKERS_SCHEMA,
    STREAM_CREATED_SCHEMA, STREAM_FEED_SCHEMA, STREAM_STATUS_SCHEMA, STREAM_TIMELINE_SCHEMA,
};
use serde::{DeserializeOwned, Serialize};
use std::path::{Path, PathBuf};

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Round-trips `value` through JSON and pins its serialisation to the
/// committed fixture, byte for byte.
fn assert_frozen<T>(value: &T, fixture: &str)
where
    T: Serialize + DeserializeOwned + PartialEq + std::fmt::Debug,
{
    let json = serde_json::to_string(value).expect("wire type serialises");
    let back: T = serde_json::from_str(&json).expect("wire type parses back");
    assert_eq!(&back, value, "round-trip must be lossless");

    let path = golden_dir().join(fixture);
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&path, format!("{json}\n")).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("fixture {fixture} missing — run with GOLDEN_REGEN=1"));
    assert_eq!(
        json,
        expected.trim_end(),
        "wire schema for {fixture} drifted — bump the schema version \
         and regenerate the fixture if this is intentional"
    );
}

/// A deterministic config (no wall-clock, fixed seeds) shared by the
/// fixtures.
fn fixture_config() -> ExperimentConfig {
    ExperimentConfig::builder(DatasetId::One)
        .tasks(20)
        .population(8)
        .snapshots(vec![2])
        .seeds(vec![SeedKind::MinEnergy, SeedKind::Random])
        .rng_seed(7)
        .parallel(false)
        .build()
        .unwrap()
}

fn fixture_metrics() -> MetricsSnapshot {
    MetricsSnapshot {
        elapsed_s: 1.5,
        cells_total: 4,
        cells_replayed: 1,
        cells_started: 3,
        cells_finished: 2,
        cells_retried: 1,
        cells_panicked: 0,
        cells_timed_out: 0,
        cells_poisoned: 0,
        cells_failed: 0,
        cells_skipped: 0,
        generations: 12,
        evaluations: 96,
        leases_acquired: 3,
        leases_renewed: 5,
        leases_expired: 1,
        leases_stolen: 1,
        leases_fenced: 1,
        workers: 2,
        sim_evaluations: 0,
        faults_injected: 0,
        phase_mating_s: 0.25,
        phase_evaluation_s: 0.5,
        phase_sorting_s: 0.125,
        ewma_cell_s: 0.75,
        cell_duration_sum_s: 1.5,
        cell_duration_count: 2,
        cell_duration_buckets: vec![0, 1, 1, 0, 0, 0, 0, 0, 0],
    }
}

#[test]
fn job_request_is_frozen() {
    let request = JobRequest {
        cell_timeout_s: Some(2.5),
        ..JobRequest::new(CampaignSpec::single(&fixture_config()))
    };
    assert_frozen(&request, "job_request.json");
}

#[test]
fn job_request_without_timeout_is_frozen() {
    let request = JobRequest::new(CampaignSpec::single(&fixture_config()));
    assert_frozen(&request, "job_request_no_timeout.json");
}

#[test]
fn job_created_is_frozen() {
    let created = JobCreated {
        schema: JOB_CREATED_SCHEMA.to_string(),
        job_id: "j001".to_string(),
        fingerprint: "00c0ffee00c0ffee".to_string(),
        state: "queued".to_string(),
        cached: false,
    };
    assert_frozen(&created, "job_created.json");
}

#[test]
fn job_status_is_frozen() {
    let status = JobStatusBody {
        schema: JOB_STATUS_SCHEMA.to_string(),
        job_id: "j001".to_string(),
        fingerprint: "00c0ffee00c0ffee".to_string(),
        state: "running".to_string(),
        error: None,
        metrics: fixture_metrics(),
    };
    assert_frozen(&status, "job_status.json");
}

#[test]
fn job_report_is_frozen() {
    let report = JobReportBody {
        schema: JOB_REPORT_SCHEMA.to_string(),
        job_id: "j001".to_string(),
        fingerprint: "00c0ffee00c0ffee".to_string(),
        reports: vec![CampaignReport {
            dataset: DatasetId::One,
            algorithm: Algorithm::Nsga2,
            replicate: 0,
            report: AnalysisReport {
                runs: vec![PopulationRun {
                    seed: SeedKind::Random,
                    fronts: vec![(2, ParetoFront::from_points([(1.0, 2.0), (2.0, 1.0)]))],
                }],
                snapshots: vec![2],
            },
        }],
        failed: vec![],
        skipped: vec![],
        executed: 2,
        replayed: 0,
    };
    assert_frozen(&report, "job_report.json");
}

#[test]
fn job_workers_is_frozen() {
    let body = JobWorkersBody {
        schema: JOB_WORKERS_SCHEMA.to_string(),
        job_id: "j001".to_string(),
        fingerprint: "00c0ffee00c0ffee".to_string(),
        workers: vec![
            hetsched_core::WorkerSummary {
                worker: "alpha:100".to_string(),
                cells: 3,
                stolen: 1,
                fenced: 0,
                wall_clock_s: 2.5,
            },
            hetsched_core::WorkerSummary {
                worker: "beta:200".to_string(),
                cells: 1,
                stolen: 0,
                fenced: 1,
                wall_clock_s: 0.75,
            },
        ],
    };
    assert_frozen(&body, "job_workers.json");
}

#[test]
fn error_body_is_frozen() {
    let error = ErrorBody::new(
        ErrorClass::InvalidInput,
        "invalid config: tasks must be > 0",
    );
    assert_eq!(error.schema, ERROR_SCHEMA);
    assert_frozen(&error, "error_body.json");
}

/// Parses a fixed JSON literal into one of the embedded core types
/// (tasks, horizon records, task records), whose constructors live in
/// crates the serve tests do not depend on.
fn from_json<T: DeserializeOwned>(json: &str) -> T {
    serde_json::from_str(json).expect("fixture literal parses")
}

#[test]
fn stream_request_with_required_keys_only_is_frozen() {
    assert_frozen(
        &StreamRequest::new("s1", 2, 30.0),
        "stream_request_required.json",
    );
}

#[test]
fn stream_request_with_every_optional_key_is_frozen() {
    let request = StreamRequest {
        energy_budget: Some(2.5e6),
        policy: Some("gupta".to_string()),
        algorithm: Some("spea2".to_string()),
        population: Some(16),
        generations: Some(5),
        rng_seed: Some(42),
        warm_start: Some(false),
        ..StreamRequest::new("s1", 2, 30.0)
    };
    assert_frozen(&request, "stream_request_full.json");
}

#[test]
fn stream_created_is_frozen() {
    let created = StreamCreated {
        schema: STREAM_CREATED_SCHEMA.to_string(),
        stream_id: "s1".to_string(),
        optimizer: "engine:nsga2".to_string(),
        resumed: true,
        ticks: 3,
        fed_until: 90.0,
    };
    assert_frozen(&created, "stream_created.json");
}

#[test]
fn stream_feed_request_is_frozen() {
    let feed = StreamFeedRequest {
        schema: STREAM_FEED_SCHEMA.to_string(),
        until: 20.0,
        tasks: vec![
            from_json(
                r#"{"id":0,"task_type":0,"arrival":1.5,"tuf":{"priority":12.0,"urgency":0.05,"classes":[],"final_fraction":0.0}}"#,
            ),
            from_json(
                r#"{"id":1,"task_type":2,"arrival":6.0,"tuf":{"priority":8.0,"urgency":0.02,"classes":[{"duration":30.0,"begin_fraction":1.0,"end_fraction":0.75,"urgency_modifier":1.5}],"final_fraction":0.25}}"#,
            ),
        ],
    };
    assert_frozen(&feed, "stream_feed_request.json");
}

#[test]
fn stream_status_is_frozen() {
    let status = StreamStatusBody {
        schema: STREAM_STATUS_SCHEMA.to_string(),
        stream_id: "s1".to_string(),
        optimizer: "policy:gupta".to_string(),
        ticks: 2,
        now: 40.0,
        fed_until: 40.0,
        tasks: 5,
        frozen: 3,
        rejected: 1,
        utility: 31.25,
        energy: 1234.5,
    };
    assert_frozen(&status, "stream_status.json");
}

#[test]
fn stream_timeline_is_frozen() {
    let timeline = StreamTimelineBody {
        schema: STREAM_TIMELINE_SCHEMA.to_string(),
        stream_id: "s1".to_string(),
        records: vec![from_json(
            r#"{"tick":0,"now":0.0,"tasks":2,"frozen":1,"rejected":[3],"utility":18.5,"energy":640.0,"makespan":25.5}"#,
        )],
        timeline: vec![
            from_json(
                r#"{"task":0,"machine":4,"arrival":1.5,"start":1.5,"finish":9.75,"utility":11.5,"energy":320.0}"#,
            ),
            from_json(
                r#"{"task":1,"machine":0,"arrival":6.0,"start":9.75,"finish":25.5,"utility":7.0,"energy":320.0}"#,
            ),
        ],
    };
    assert_frozen(&timeline, "stream_timeline.json");
}

#[test]
fn schema_tags_are_versioned() {
    // The drift-detection contract: every schema tag names the payload
    // and carries an explicit version suffix.
    for tag in [
        hetsched_serve::wire::JOB_REQUEST_SCHEMA,
        JOB_CREATED_SCHEMA,
        JOB_STATUS_SCHEMA,
        JOB_REPORT_SCHEMA,
        JOB_WORKERS_SCHEMA,
        ERROR_SCHEMA,
        hetsched_serve::wire::STREAM_REQUEST_SCHEMA,
        STREAM_CREATED_SCHEMA,
        STREAM_FEED_SCHEMA,
        STREAM_STATUS_SCHEMA,
        STREAM_TIMELINE_SCHEMA,
    ] {
        assert!(tag.starts_with("hetsched."), "{tag}");
        let (_, version) = tag.rsplit_once(".v").expect(tag);
        assert!(version.parse::<u32>().is_ok(), "{tag}");
    }
    // The status body embeds the metrics snapshot, which gained the
    // lease counters — v2 on the wire.
    assert_eq!(JOB_STATUS_SCHEMA, "hetsched.job-status.v2");
}
