//! End-to-end test of `hetsched serve` run in-process: a real TCP server
//! on an ephemeral port, driven through the same HTTP client the CI
//! probe uses. Pins the three serve guarantees the README advertises:
//!
//! * a report fetched over HTTP is byte-identical to the offline
//!   `Campaign` run of the same spec (same seeds, same engine);
//! * a repeated identical `POST /v1/jobs` is served from the
//!   fingerprint cache without starting any new cells;
//! * one worker pool runs several campaigns concurrently, and
//!   `GET /metrics` aggregates across them.

use hetsched::prelude::*;
use hetsched::serve::client;
use hetsched::serve::wire::{JobCreated, JobReportBody, JobStatusBody, JobTraceBody};
use hetsched::serve::{SchedulerService, ServeConfig, Server};
use std::path::PathBuf;
use std::thread;
use std::time::Duration;

/// A running in-process daemon: ephemeral port, own state dir, torn down
/// (including the temp state) on drop.
struct Daemon {
    addr: String,
    service: SchedulerService,
    shutdown: CancelToken,
    accept_thread: Option<thread::JoinHandle<()>>,
    state_dir: PathBuf,
}

impl Daemon {
    fn start(tag: &str) -> Daemon {
        let state_dir =
            std::env::temp_dir().join(format!("hetsched-serve-e2e-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&state_dir);
        let service = SchedulerService::start(ServeConfig::new(&state_dir)).unwrap();
        let server = Server::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let shutdown = CancelToken::new();
        let accept_thread = {
            let service = service.clone();
            let shutdown = shutdown.clone();
            thread::spawn(move || server.run(&service, &shutdown).unwrap())
        };
        Daemon {
            addr,
            service,
            shutdown,
            accept_thread: Some(accept_thread),
            state_dir,
        }
    }

    /// Polls `GET /v1/jobs/{id}` until the job leaves queued/running.
    fn wait_settled(&self, id: &str) -> JobStatusBody {
        for _ in 0..600 {
            let resp = client::get(&self.addr, &format!("/v1/jobs/{id}")).unwrap();
            assert_eq!(resp.status, 200, "{}", resp.body);
            let status: JobStatusBody = serde_json::from_str(&resp.body).unwrap();
            if status.state != "queued" && status.state != "running" {
                return status;
            }
            thread::sleep(Duration::from_millis(20));
        }
        panic!("job {id} never settled");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown.cancel();
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        self.service.shutdown();
        let _ = std::fs::remove_dir_all(&self.state_dir);
    }
}

/// A laptop-instant campaign spec; `rng_seed` decorrelates specs so each
/// test gets its own fingerprint (the daemon caches by fingerprint).
fn tiny_spec(rng_seed: u64) -> CampaignSpec {
    let base = ExperimentConfig::builder(DatasetId::One)
        .tasks(20)
        .population(8)
        .snapshots(vec![2])
        .seeds(vec![SeedKind::MinEnergy, SeedKind::Random])
        .rng_seed(rng_seed)
        .parallel(false)
        .build()
        .expect("tiny serve config is consistent");
    CampaignSpec::single(&base)
}

fn job_body(spec: &CampaignSpec) -> String {
    serde_json::to_string(&hetsched::serve::wire::JobRequest::new(spec.clone())).unwrap()
}

#[test]
fn http_report_is_byte_identical_to_the_offline_run() {
    let daemon = Daemon::start("bitident");
    let spec = tiny_spec(0xE2E);

    let resp = client::post(&daemon.addr, "/v1/jobs", &job_body(&spec)).unwrap();
    assert_eq!(resp.status, 201, "{}", resp.body);
    let created: JobCreated = serde_json::from_str(&resp.body).unwrap();
    assert!(!created.cached);

    let status = daemon.wait_settled(&created.job_id);
    assert_eq!(status.state, "done", "error: {:?}", status.error);

    let resp = client::get(&daemon.addr, &format!("/v1/jobs/{}/report", created.job_id)).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let body: JobReportBody = serde_json::from_str(&resp.body).unwrap();

    // The same spec run offline, through the public Campaign API the
    // `run` subcommand uses. Report serde is byte-stable (pinned by
    // tests/golden_report.rs), so string equality is the right check.
    let offline = Campaign::new(spec).run(None).unwrap();
    assert_eq!(
        serde_json::to_string(&body.reports).unwrap(),
        serde_json::to_string(&offline.reports).unwrap(),
        "HTTP-fetched report must be byte-identical to the offline run"
    );
    assert_eq!(body.executed, offline.executed as u64);
}

#[test]
fn repeated_post_hits_the_fingerprint_cache_with_zero_new_cells() {
    let daemon = Daemon::start("cache");
    let spec = tiny_spec(0xCAC4E);
    let body = job_body(&spec);

    let resp = client::post(&daemon.addr, "/v1/jobs", &body).unwrap();
    assert_eq!(resp.status, 201, "{}", resp.body);
    let created: JobCreated = serde_json::from_str(&resp.body).unwrap();
    let done = daemon.wait_settled(&created.job_id);
    assert_eq!(done.state, "done", "error: {:?}", done.error);
    let started_before = done.metrics.cells_started;

    // Identical spec again: 200 (not 201), cached, same job id, and the
    // telemetry counters show no new cell executions.
    let resp = client::post(&daemon.addr, "/v1/jobs", &body).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let again: JobCreated = serde_json::from_str(&resp.body).unwrap();
    assert!(again.cached);
    assert_eq!(again.job_id, created.job_id);
    assert_eq!(again.state, "done");

    let resp = client::get(&daemon.addr, &format!("/v1/jobs/{}", created.job_id)).unwrap();
    let status: JobStatusBody = serde_json::from_str(&resp.body).unwrap();
    assert_eq!(
        status.metrics.cells_started, started_before,
        "cache hit must not start any cells"
    );
}

#[test]
fn concurrent_jobs_share_the_worker_pool_and_metrics_aggregate() {
    let daemon = Daemon::start("concurrent");
    // Two distinct specs (different fingerprints) admitted back-to-back:
    // the default two-worker pool runs them side by side.
    let ids: Vec<String> = [tiny_spec(11), tiny_spec(22)]
        .iter()
        .map(|spec| {
            let resp = client::post(&daemon.addr, "/v1/jobs", &job_body(spec)).unwrap();
            assert_eq!(resp.status, 201, "{}", resp.body);
            let created: JobCreated = serde_json::from_str(&resp.body).unwrap();
            created.job_id
        })
        .collect();
    assert_ne!(ids[0], ids[1]);
    let mut total_cells = 0;
    for id in &ids {
        let status = daemon.wait_settled(id);
        assert_eq!(status.state, "done", "job {id} error: {:?}", status.error);
        total_cells += status.metrics.cells_finished;
    }

    // /metrics folds both jobs into one exposition.
    let resp = client::get(&daemon.addr, "/metrics").unwrap();
    assert_eq!(resp.status, 200);
    assert!(
        resp.body.contains(&format!(
            "hetsched_campaign_cells_finished_total {total_cells}"
        )),
        "aggregated counter missing: {}",
        resp.body
    );
    assert!(resp.body.contains("hetsched_serve_jobs{state=\"done\"} 2"));
}

#[test]
fn finished_job_serves_its_span_timeline() {
    let daemon = Daemon::start("trace");
    let spec = tiny_spec(0x7ACE);

    let resp = client::post(&daemon.addr, "/v1/jobs", &job_body(&spec)).unwrap();
    assert_eq!(resp.status, 201, "{}", resp.body);
    let created: JobCreated = serde_json::from_str(&resp.body).unwrap();
    let status = daemon.wait_settled(&created.job_id);
    assert_eq!(status.state, "done", "error: {:?}", status.error);

    let resp = client::get(&daemon.addr, &format!("/v1/jobs/{}/trace", created.job_id)).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let body: JobTraceBody = serde_json::from_str(&resp.body).unwrap();
    assert_eq!(body.schema, "hetsched.job-trace.v1");
    assert_eq!(body.job_id, created.job_id);

    // The timeline covers every layer: the job root span, the campaign
    // beneath it, and one cell per grid point — all on one trace id, all
    // parented into a single tree.
    let job = body
        .spans
        .iter()
        .find(|s| s.name == "job")
        .expect("job root span recorded");
    assert_eq!(job.parent_id, None);
    assert_eq!(
        job.field("job_id").as_deref(),
        Some(created.job_id.as_str())
    );
    let campaign = body
        .spans
        .iter()
        .find(|s| s.name == "campaign")
        .expect("campaign span recorded");
    assert_eq!(campaign.parent_id, Some(job.span_id));
    let cells: Vec<_> = body.spans.iter().filter(|s| s.name == "cell").collect();
    assert_eq!(cells.len(), 2, "one cell span per grid point");
    for cell in &cells {
        assert_eq!(cell.trace_id, job.trace_id);
        assert_eq!(cell.field("dataset").as_deref(), Some("One"));
        assert!(cell.duration_ns <= job.duration_ns);
    }

    // The analysis layer accepts the endpoint's payload directly.
    let analysis = hetsched::core::TraceAnalysis::from_records(&body.spans, 3);
    let rendered = analysis.render();
    assert!(rendered.contains("slowest cells"), "{rendered}");

    // A trace for an unknown job stays a 404.
    let resp = client::get(&daemon.addr, "/v1/jobs/j999/trace").unwrap();
    assert_eq!(resp.status, 404);
}

#[test]
fn a_resubmitted_spec_serves_only_its_own_trace() {
    let daemon = Daemon::start("retrace");
    let spec = tiny_spec(0x2E7A);
    // Another campaign's manifest under this spec's name fails the first
    // job; both jobs of the spec append to the same trace file.
    let manifest = daemon
        .state_dir
        .join(format!("job-{}.manifest.jsonl", spec.fingerprint()));
    Campaign::new(tiny_spec(0x2E7B))
        .run(Some(&manifest))
        .unwrap();
    let submit = || {
        let resp = client::post(&daemon.addr, "/v1/jobs", &job_body(&spec)).unwrap();
        assert_eq!(resp.status, 201, "{}", resp.body);
        serde_json::from_str::<JobCreated>(&resp.body)
            .unwrap()
            .job_id
    };
    let first = submit();
    assert_eq!(daemon.wait_settled(&first).state, "failed");
    std::fs::remove_file(&manifest).unwrap();
    let second = submit();
    assert_ne!(second, first);
    let status = daemon.wait_settled(&second);
    assert_eq!(status.state, "done", "error: {:?}", status.error);

    for id in [&first, &second] {
        let resp = client::get(&daemon.addr, &format!("/v1/jobs/{id}/trace")).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
        let body: JobTraceBody = serde_json::from_str(&resp.body).unwrap();
        let roots: Vec<_> = body.spans.iter().filter(|s| s.name == "job").collect();
        assert_eq!(roots.len(), 1, "job {id} serves one job root: {roots:?}");
        assert_eq!(roots[0].field("job_id").as_deref(), Some(id.as_str()));
        assert!(body.spans.iter().all(|s| s.trace_id == roots[0].trace_id));
    }
}

#[test]
fn error_paths_map_to_http_statuses() {
    let daemon = Daemon::start("errors");

    // Unknown job id → 404 with a schema'd error body.
    let resp = client::get(&daemon.addr, "/v1/jobs/j999").unwrap();
    assert_eq!(resp.status, 404);
    assert!(resp.body.contains("hetsched.error.v1"), "{}", resp.body);
    assert!(resp.body.contains("not-found"), "{}", resp.body);

    // Invalid spec → 400.
    let mut bad = tiny_spec(33);
    bad.replicates = 0;
    let resp = client::post(&daemon.addr, "/v1/jobs", &job_body(&bad)).unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(resp.body.contains("invalid-input"), "{}", resp.body);

    // Malformed JSON → 400, not a dropped connection.
    let resp = client::post(&daemon.addr, "/v1/jobs", "{not json").unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);

    // A `\u` escape whose four bytes end inside a multi-byte character →
    // 400 with a schema'd error body, not a panicked connection thread.
    let resp = client::post(&daemon.addr, "/v1/jobs", r#""\u€€""#).unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);
    assert!(resp.body.contains("hetsched.error.v1"), "{}", resp.body);

    // Unroutable path → 404.
    let resp = client::get(&daemon.addr, "/v2/nope").unwrap();
    assert_eq!(resp.status, 404);
}

#[test]
fn cancelled_job_reports_its_status_not_a_report() {
    let daemon = Daemon::start("cancel");
    let spec = tiny_spec(0xDEAD);
    let resp = client::post(&daemon.addr, "/v1/jobs", &job_body(&spec)).unwrap();
    assert_eq!(resp.status, 201, "{}", resp.body);
    let created: JobCreated = serde_json::from_str(&resp.body).unwrap();

    // Cancel immediately; depending on worker timing the job lands in
    // `cancelled` or was already `done` — both are legitimate ends.
    let resp = client::delete(&daemon.addr, &format!("/v1/jobs/{}", created.job_id)).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let settled = daemon.wait_settled(&created.job_id);
    if settled.state == "done" {
        return; // finished before the cancel landed
    }
    assert_eq!(settled.state, "cancelled");

    // An unfinished job has no report: 404 carrying the live status body
    // so pollers keep a single endpoint.
    let resp = client::get(&daemon.addr, &format!("/v1/jobs/{}/report", created.job_id)).unwrap();
    assert_eq!(resp.status, 404, "{}", resp.body);
    let status: JobStatusBody = serde_json::from_str(&resp.body).unwrap();
    assert_eq!(status.state, "cancelled");
}
