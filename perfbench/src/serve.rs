//! The serve-mix workload: a spawned `hetsched serve` daemon driven over
//! HTTP by a closed loop of two client threads, each holding at most one
//! connection.
//!
//! * The **jobs client** submits small campaigns (data set 1, 60 tasks,
//!   population 24, snapshots [10], two seed kinds, one replicate,
//!   `rng_seed = seed + i`), polls `GET /v1/jobs/{id}` back to back until
//!   the job is done, then fetches its report. Every 8th submission
//!   resubmits spec #0, which must hit the fingerprint cache.
//!
//!   Every request waits for the daemon's 20 ms accept poll, so a job
//!   that computes for longer than that needs a second status poll and
//!   its round trip jumps from 60 ms to 80 ms. The job is sized to about
//!   4 ms of compute so that it finishes before the first poll even on a
//!   slow host: with 20 generations (about 12 ms, longer next to a
//!   concurrent stream feed) 40-50% of jobs took the second poll and the
//!   median flipped between runs.
//! * The **stream client** opens rolling-horizon streams (set 1, horizon
//!   20 s, population 12, 8 generations, warm start) and feeds each one
//!   40 arrival windows of 20 s drawn from `poisson:1.5,burst:3x60`,
//!   scraping `GET /metrics` after every 10th feed.
//!
//! An iteration is one job round trip, from the POST being sent to the
//! report being received; `iter_ms_p50` is its median.

use crate::harness::{assert_untraced, engine_layers};
use crate::http;
use crate::reference::{self, digest};
use crate::spans::{root_union_ns, Layers, SpanRow};
use crate::stats::{median, tail, Tally};
use crate::{err, host, Args, Outcome};
use hetsched_core::{
    read_trace, ArrivalSpec, ArrivalStream, Campaign, CampaignSpec, DatasetId, ExperimentConfig,
    Framework, SeedKind, TufPolicy,
};
use hetsched_serve::wire::{
    JobCreated, JobReportBody, JobRequest, JobStatusBody, StreamFeedRequest, StreamRequest,
    StreamTimelineBody, STREAM_FEED_SCHEMA,
};
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon spawns timed for `setup_s` (the measured daemon is the last).
const SETUP_REPS: usize = 7;
/// Wait between the daemon announcing its address and the readiness probe.
const PROBE_PAUSE: Duration = Duration::from_millis(2);
/// Every this-many-th submission resubmits spec #0.
const RESUBMIT_EVERY: u64 = 8;
/// Arrival windows fed to each stream, and their length in seconds.
const FEEDS_PER_STREAM: usize = 40;
const WINDOW_S: f64 = 20.0;
/// `GET /metrics` after every this-many feeds.
const SCRAPE_EVERY: usize = 10;
/// `serve.feed_drift` compares a stream's last this-many feeds with its
/// first.
const DRIFT_FEEDS: usize = 10;
const ARRIVALS: &str = "poisson:1.5,burst:3x60";
/// How long a freshly spawned daemon may take to answer.
const READY_BUDGET: Duration = Duration::from_secs(30);

/// The request bodies and offline references, built once per run.
struct Inputs {
    seed: u64,
    /// Serialised `CampaignReport`s of spec #0 run offline.
    offline_reports: String,
    /// Pre-serialised arrival windows, identical for every stream.
    feeds: Vec<String>,
    framework_new_s: f64,
}

fn job_spec(rng_seed: u64) -> Result<CampaignSpec, String> {
    let base = ExperimentConfig::builder(DatasetId::One)
        .tasks(60)
        .population(24)
        .snapshots(vec![10])
        .seeds(vec![SeedKind::MinEnergy, SeedKind::Random])
        .rng_seed(rng_seed)
        .build()
        .map_err(err)?;
    CampaignSpec::builder(base).build().map_err(err)
}

fn job_body(rng_seed: u64) -> Result<String, String> {
    serde_json::to_string(&JobRequest::new(job_spec(rng_seed)?)).map_err(err)
}

fn stream_body(id: &str, seed: u64) -> String {
    let mut request = StreamRequest::new(id, 1, WINDOW_S);
    request.population = Some(12);
    request.generations = Some(8);
    request.rng_seed = Some(seed);
    request.warm_start = Some(true);
    serde_json::to_string(&request).expect("stream request serialises")
}

impl Inputs {
    fn build(seed: u64) -> Result<Inputs, String> {
        let offline = Campaign::new(job_spec(seed)?).run(None).map_err(err)?;
        let offline_reports = serde_json::to_string(&offline.reports).map_err(err)?;
        let started = Instant::now();
        let framework =
            Framework::new(&ExperimentConfig::scaled(DatasetId::One, 0.001)).map_err(err)?;
        let framework_new_s = started.elapsed().as_secs_f64();
        let spec: ArrivalSpec = ARRIVALS.parse().map_err(err)?;
        let mut arrivals = ArrivalStream::new(
            spec,
            seed,
            framework.system().task_type_count(),
            TufPolicy::essc_default(),
        );
        let feeds = (1..=FEEDS_PER_STREAM)
            .map(|w| {
                let until = w as f64 * WINDOW_S;
                let tasks = arrivals.until(until).map_err(err)?;
                serde_json::to_string(&StreamFeedRequest {
                    schema: STREAM_FEED_SCHEMA.to_string(),
                    until,
                    tasks,
                })
                .map_err(err)
            })
            .collect::<Result<_, String>>()?;
        Ok(Inputs {
            seed,
            offline_reports,
            feeds,
            framework_new_s,
        })
    }
}

/// A running daemon; killed and reaped when dropped.
struct Daemon {
    child: Child,
    addr: SocketAddr,
    drain: Option<JoinHandle<()>>,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// The `hetsched` executable built next to this one.
fn hetsched_exe() -> Result<PathBuf, String> {
    let exe = std::env::current_exe()
        .map_err(err)?
        .with_file_name("hetsched");
    if exe.is_file() {
        Ok(exe)
    } else {
        Err(format!(
            "{} not found: build it with `cargo build --release -p hetsched-cli`",
            exe.display()
        ))
    }
}

impl Daemon {
    /// Spawns `hetsched serve` on an ephemeral port and waits until
    /// `GET /metrics` answers 200. Returns the daemon, the seconds from
    /// spawn to that answer, and the answering request's latency (ms).
    fn spawn(state_dir: &Path, trace_out: Option<&Path>) -> Result<(Daemon, f64, f64), String> {
        let exe = hetsched_exe()?;
        let started = Instant::now();
        let mut command = Command::new(exe);
        command
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "2",
                "--state-dir",
            ])
            .arg(state_dir);
        if let Some(path) = trace_out {
            command.arg("--trace-out").arg(path);
        }
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn hetsched serve: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut daemon = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            drain: None,
        };
        let mut line = String::new();
        stdout.read_line(&mut line).map_err(err)?;
        daemon.addr = line
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|addr| addr.parse().ok())
            .ok_or_else(|| format!("unexpected daemon banner {line:?}"))?;
        // Keep reading stdout so the daemon can never block on a full pipe.
        daemon.drain = Some(std::thread::spawn(move || {
            let _ = std::io::copy(&mut stdout, &mut std::io::sink());
        }));
        // The banner comes just before the accept loop's first poll. A
        // probe sent at once races that poll and is answered after either
        // ~1 ms or ~21 ms, a bimodal sample whose median flips between
        // runs; a probe sent a moment later always finds the loop asleep,
        // as does any client that is not racing the daemon's start-up.
        std::thread::sleep(PROBE_PAUSE);
        loop {
            let sent = Instant::now();
            match http::call(daemon.addr, "GET", "/metrics", None) {
                Ok((200, _)) => {
                    let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
                    return Ok((daemon, started.elapsed().as_secs_f64(), latency_ms));
                }
                Ok((status, _)) => return Err(format!("GET /metrics answered {status}")),
                Err(e) if started.elapsed() > READY_BUDGET => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }
}

/// What the jobs client saw.
#[derive(Default)]
struct JobsLog {
    tally: Tally,
    latency_ms: Vec<f64>,
    submissions: u64,
    cached: u64,
    polls: u64,
    requests: u64,
}

/// What the stream client saw.
#[derive(Default)]
struct StreamsLog {
    tally: Tally,
    feed_ms: Vec<f64>,
    metrics_ms: Vec<f64>,
    drift: Vec<f64>,
    timeline: Option<String>,
    requests: u64,
}

fn expect(status: u16, want: u16, what: &str, body: &str) -> Result<(), String> {
    if status == want {
        Ok(())
    } else {
        Err(format!("{what}: status {status} (expected {want}): {body}"))
    }
}

fn parse<T: serde::DeserializeOwned>(what: &str, text: &str) -> Result<T, String> {
    serde_json::from_str(text).map_err(|e| format!("{what}: unparseable body: {e}"))
}

/// One job round trip: submit, poll until done, fetch the report.
/// Returns the report body.
fn job_round_trip(
    addr: SocketAddr,
    body: &str,
    resubmit: bool,
    log: &mut JobsLog,
    requests: &mut u64,
) -> Result<String, String> {
    *requests += 1;
    let (status, text) = http::call(addr, "POST", "/v1/jobs", Some(body))?;
    expect(
        status,
        if resubmit { 200 } else { 201 },
        "POST /v1/jobs",
        &text,
    )?;
    let created: JobCreated = parse("POST /v1/jobs", &text)?;
    if created.cached != resubmit {
        return Err(format!(
            "POST /v1/jobs: cached = {} for a {} submission",
            created.cached,
            if resubmit { "repeated" } else { "new" }
        ));
    }
    let status_path = format!("/v1/jobs/{}", created.job_id);
    loop {
        *requests += 1;
        log.polls += 1;
        let (status, text) = http::call(addr, "GET", &status_path, None)?;
        expect(status, 200, "GET job status", &text)?;
        let job: JobStatusBody = parse("GET job status", &text)?;
        match job.state.as_str() {
            "done" => break,
            "queued" | "running" => {}
            other => return Err(format!("job {} ended {other}: {:?}", job.job_id, job.error)),
        }
    }
    *requests += 1;
    let (status, text) = http::call(addr, "GET", &format!("{status_path}/report"), None)?;
    expect(status, 200, "GET job report", &text)?;
    Ok(text)
}

fn jobs_client(addr: SocketAddr, inputs: &Inputs, deadline: Instant) -> JobsLog {
    let mut log = JobsLog::default();
    let mut first_report: Option<String> = None;
    for i in 0.. {
        if Instant::now() >= deadline {
            break;
        }
        let resubmit = i > 0 && i % RESUBMIT_EVERY == 0;
        let body = match job_body(inputs.seed.wrapping_add(if resubmit { 0 } else { i })) {
            Ok(body) => body,
            Err(e) => {
                log.tally.ops(1, &[e]);
                continue;
            }
        };
        let mut requests = 0;
        let mut failures = Vec::new();
        let sent = Instant::now();
        match job_round_trip(addr, &body, resubmit, &mut log, &mut requests) {
            Ok(report) => {
                log.latency_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                if let Err(e) = check_report(&report, i, resubmit, &mut first_report, inputs) {
                    failures.push(e);
                }
            }
            Err(e) => failures.push(e),
        }
        log.submissions += 1;
        log.cached += u64::from(resubmit);
        log.requests += requests;
        log.tally.ops(requests, &failures);
    }
    log
}

/// Checks a job's report: complete; spec #0's equal to the offline run;
/// a cached resubmission's byte-identical to the first submission's.
fn check_report(
    report: &str,
    i: u64,
    resubmit: bool,
    first_report: &mut Option<String>,
    inputs: &Inputs,
) -> Result<(), String> {
    let body: JobReportBody = parse("GET job report", report)?;
    if body.reports.len() != 1 || !body.failed.is_empty() || !body.skipped.is_empty() {
        return Err(format!(
            "job {}: {} reports, {} failed, {} skipped",
            body.job_id,
            body.reports.len(),
            body.failed.len(),
            body.skipped.len()
        ));
    }
    if i == 0 {
        let served = serde_json::to_string(&body.reports).map_err(err)?;
        if served != inputs.offline_reports {
            return Err("spec #0: served report differs from the offline Campaign::run".into());
        }
        *first_report = Some(report.to_string());
    } else if resubmit && first_report.as_deref() != Some(report) {
        return Err(format!(
            "job {}: cached resubmission's report differs from the first submission's",
            body.job_id
        ));
    }
    Ok(())
}

/// Runs streams until the deadline. Every completed stream's timeline
/// must equal `timeline` (the first one seen when `None`).
fn streams_client(
    addr: SocketAddr,
    inputs: &Inputs,
    deadline: Instant,
    timeline: Option<String>,
) -> StreamsLog {
    let mut log = StreamsLog {
        timeline,
        ..StreamsLog::default()
    };
    'streams: for k in 0.. {
        if Instant::now() >= deadline {
            break;
        }
        let id = format!("s{k}");
        log.requests += 1;
        let failure = http::call(
            addr,
            "POST",
            "/v1/streams",
            Some(&stream_body(&id, inputs.seed)),
        )
        .and_then(|(status, text)| expect(status, 201, "POST /v1/streams", &text))
        .err();
        log.tally.ops(1, failure.as_slice());
        if failure.is_some() {
            continue;
        }
        let feed_path = format!("/v1/streams/{id}/tasks");
        let mut latencies = Vec::with_capacity(FEEDS_PER_STREAM);
        for (w, feed) in inputs.feeds.iter().enumerate() {
            if Instant::now() >= deadline {
                break 'streams;
            }
            log.requests += 1;
            let sent = Instant::now();
            let result = http::call(addr, "POST", &feed_path, Some(feed))
                .and_then(|(status, text)| expect(status, 200, "POST feed", &text));
            let ms = sent.elapsed().as_secs_f64() * 1e3;
            match result {
                Ok(()) => {
                    latencies.push(ms);
                    log.feed_ms.push(ms);
                    log.tally.ops(1, &[]);
                }
                Err(e) => {
                    log.tally.ops(1, &[e]);
                    continue 'streams;
                }
            }
            if (w + 1) % SCRAPE_EVERY == 0 {
                log.requests += 1;
                let sent = Instant::now();
                let result = http::call(addr, "GET", "/metrics", None)
                    .and_then(|(status, text)| expect(status, 200, "GET /metrics", &text));
                log.metrics_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                log.tally.ops(1, result.err().as_slice());
            }
        }
        log.requests += 1;
        let timeline = http::call(addr, "GET", &format!("/v1/streams/{id}/timeline"), None)
            .and_then(|(status, text)| {
                expect(status, 200, "GET timeline", &text)?;
                let body: StreamTimelineBody = parse("GET timeline", &text)?;
                Ok(format!(
                    "{}\n{}",
                    serde_json::to_string(&body.records).map_err(err)?,
                    serde_json::to_string(&body.timeline).map_err(err)?
                ))
            });
        let failure = match (timeline, &log.timeline) {
            (Err(e), _) => Some(e),
            (Ok(t), None) => {
                log.timeline = Some(t);
                None
            }
            (Ok(t), Some(first)) => (&t != first)
                .then(|| format!("stream {id}: timeline differs from the first stream's")),
        };
        log.tally.ops(1, failure.as_slice());
        let first = median(&latencies[..DRIFT_FEEDS]).unwrap_or(0.0);
        let last = median(&latencies[FEEDS_PER_STREAM - DRIFT_FEEDS..]).unwrap_or(0.0);
        log.drift.push(last / first);
    }
    log
}

/// One measured window against one daemon.
struct Window {
    jobs: JobsLog,
    streams: StreamsLog,
    elapsed_s: f64,
    peak_rss_mb: f64,
}

fn drive(daemon: &Daemon, inputs: &Inputs, seconds: f64, timeline: Option<String>) -> Window {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let (jobs, streams) = std::thread::scope(|scope| {
        let jobs = scope.spawn(|| jobs_client(daemon.addr, inputs, deadline));
        let streams = scope.spawn(|| streams_client(daemon.addr, inputs, deadline, timeline));
        (
            jobs.join().expect("jobs client does not panic"),
            streams.join().expect("stream client does not panic"),
        )
    });
    Window {
        jobs,
        streams,
        elapsed_s: started.elapsed().as_secs_f64(),
        peak_rss_mb: host::peak_rss_mb(Some(daemon.child.id())).unwrap_or(0.0),
    }
}

fn account(window: &mut Window, out: &mut Outcome) {
    out.tally.merge(std::mem::take(&mut window.jobs.tally));
    out.tally.merge(std::mem::take(&mut window.streams.tally));
    out.iterations += window.jobs.submissions;
    out.requests += window.jobs.requests + window.streams.requests;
}

/// Runs serve-mix as `args` asks.
pub fn run(args: &Args, scratch: &Path) -> Result<Outcome, String> {
    assert_untraced();
    let inputs = Inputs::build(args.seed)?;
    let mut out = Outcome::default();
    // The offline run of spec #0 is one call; its digest is checked.
    let offline = digest(&[inputs.offline_reports.as_bytes()]);
    let failure = reference::check("serve-mix.report", args.seed, &offline);
    out.tally.ops(1, failure.as_slice());

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    if !args.trace {
        for rep in 1..SETUP_REPS {
            let (_, spawn_s, _) = Daemon::spawn(&scratch.join(format!("setup-{rep}")), None)?;
            setup_s.push(spawn_s);
        }
    }
    let (daemon, spawn_s, _) = Daemon::spawn(&scratch.join("untraced"), None)?;
    setup_s.push(spawn_s);
    let mut untraced = drive(&daemon, &inputs, args.window_s(), None);
    drop(daemon);
    account(&mut untraced, &mut out);
    check_timeline(&untraced.streams, args.seed, &mut out);
    let untraced_p50 = median(&untraced.jobs.latency_ms).unwrap_or(0.0);
    if !args.trace {
        let m = &mut out.metrics;
        m.insert("setup_s", median(&setup_s).unwrap_or(0.0));
        m.insert("iter_ms_p50", untraced_p50);
        m.insert(
            "ops_per_s",
            (untraced.jobs.requests + untraced.streams.requests) as f64 / untraced.elapsed_s,
        );
        m.insert("peak_rss_mb", untraced.peak_rss_mb);
        out.samples.insert("setup_s", setup_s.len());
        out.samples
            .insert("iter_ms_p50", untraced.jobs.latency_ms.len());
        return Ok(out);
    }

    let state = scratch.join("traced");
    let trace_file = scratch.join("daemon.trace.jsonl");
    let (daemon, _, ready_ms) = Daemon::spawn(&state, Some(&trace_file))?;
    let timeline = untraced.streams.timeline.clone();
    let mut traced = drive(&daemon, &inputs, args.window_s(), timeline);
    drop(daemon);
    account(&mut traced, &mut out);
    let spans = daemon_spans(&trace_file, &state)?;
    let mut client_metrics_ms = vec![ready_ms];
    client_metrics_ms.extend(&traced.streams.metrics_ms);
    layer_metrics(&traced, &spans, &client_metrics_ms, &inputs, &mut out);
    let traced_p50 = median(&traced.jobs.latency_ms).unwrap_or(0.0);
    out.metrics
        .insert("trace.overhead_frac", traced_p50 / untraced_p50 - 1.0);
    Ok(out)
}

/// The stream timeline against the committed reference (default seed);
/// later windows compare their streams with this one.
fn check_timeline(streams: &StreamsLog, seed: u64, out: &mut Outcome) {
    let failure = match &streams.timeline {
        Some(timeline) => {
            reference::check("serve-mix.timeline", seed, &digest(&[timeline.as_bytes()]))
        }
        None => Some("no stream completed its 40 feeds in the window".to_string()),
    };
    out.tally.ops(1, failure.as_slice());
}

/// Every span the traced daemon recorded: request and stream spans from
/// its `--trace-out` file, job spans from the per-job trace files it
/// keeps in its state directory.
fn daemon_spans(trace_file: &Path, state_dir: &Path) -> Result<Vec<SpanRow>, String> {
    let mut files = vec![trace_file.to_path_buf()];
    for entry in std::fs::read_dir(state_dir).map_err(err)? {
        let path = entry.map_err(err)?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with("job-") && name.ends_with(".trace.jsonl") {
            files.push(path);
        }
    }
    let mut rows = Vec::new();
    for file in files {
        rows.extend(read_trace(&file).map_err(err)?.iter().map(SpanRow::from));
    }
    Ok(rows)
}

/// The route a request span served, from its `METHOD path`.
fn route_of(route: &str) -> Option<&'static str> {
    let (method, path) = route.split_once(' ')?;
    let segments: Vec<&str> = path.trim_start_matches('/').split('/').collect();
    match (method, segments.as_slice()) {
        ("POST", ["v1", "jobs"]) => Some("serve.route.post_job.ms_p50"),
        ("GET", ["v1", "jobs", _]) => Some("serve.route.get_status.ms_p50"),
        ("GET", ["v1", "jobs", _, "report"]) => Some("serve.route.get_report.ms_p50"),
        ("POST", ["v1", "streams", _, "tasks"]) => Some("serve.route.post_feed.ms_p50"),
        ("GET", ["metrics"]) => Some("serve.route.get_metrics.ms_p50"),
        _ => None,
    }
}

/// The root of `span`'s tree (the request a feed's engine ran under).
fn root_of<'a>(by_id: &HashMap<u64, &'a SpanRow>, mut span: &'a SpanRow) -> &'a SpanRow {
    while let Some(parent) = span.parent.and_then(|p| by_id.get(&p)) {
        span = parent;
    }
    span
}

fn layer_metrics(
    window: &Window,
    spans: &[SpanRow],
    client_metrics_ms: &[f64],
    inputs: &Inputs,
    out: &mut Outcome,
) {
    let jobs = window.jobs.latency_ms.len().max(1) as f64;
    let layers = Layers::fold(spans);
    engine_layers(&layers, jobs, out);

    let by_id: HashMap<u64, &SpanRow> = spans.iter().map(|s| (s.id, s)).collect();
    let mut route_ms: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut metrics_spans: Vec<&SpanRow> = Vec::new();
    let mut feed_engine_ns = 0u64;
    for span in spans {
        if let Some(route) = span.route.as_deref().and_then(route_of) {
            route_ms
                .entry(route)
                .or_default()
                .push(span.dur_ns as f64 / 1e6);
            if route == "serve.route.get_metrics.ms_p50" {
                metrics_spans.push(span);
            }
        }
        if span.name == "generation" {
            let root = root_of(&by_id, span);
            if root.route.as_deref().and_then(route_of) == Some("serve.route.post_feed.ms_p50") {
                feed_engine_ns += span.dur_ns;
            }
        }
    }
    let m = &mut out.metrics;
    for (&route, values) in &route_ms {
        m.insert(route, median(values).unwrap_or(0.0));
    }
    // The client's GET /metrics latency minus the daemon's time inside
    // the request: connection set-up plus the wait for the accept loop.
    metrics_spans.sort_by_key(|s| s.start_ns);
    let waits: Vec<f64> = client_metrics_ms
        .iter()
        .zip(&metrics_spans)
        .map(|(client, span)| client - span.dur_ns as f64 / 1e6)
        .collect();
    if client_metrics_ms.len() != metrics_spans.len() {
        eprintln!(
            "perf: serve-mix: {} client /metrics calls vs {} daemon request spans",
            client_metrics_ms.len(),
            metrics_spans.len()
        );
    }
    m.insert("serve.accept_wait_ms_p50", median(&waits).unwrap_or(0.0));
    m.insert("serve.request.self_s", layers.self_s("request") / jobs);
    m.insert("serve.request.count", layers.count("request") as f64 / jobs);
    m.insert("serve.job.self_s", layers.self_s("job") / jobs);
    m.insert("serve.feed.engine_s", feed_engine_ns as f64 / 1e9 / jobs);
    m.insert("serve.polls_per_job", window.jobs.polls as f64 / jobs);
    m.insert(
        "serve.cache_hit_frac",
        window.jobs.cached as f64 / window.jobs.submissions.max(1) as f64,
    );
    m.insert(
        "serve.feed_ms_p50",
        median(&window.streams.feed_ms).unwrap_or(0.0),
    );
    m.insert(
        "serve.feed_drift",
        median(&window.streams.drift).unwrap_or(0.0),
    );
    m.insert("core.framework.new_ms", inputs.framework_new_s * 1e3);
    for (name, values) in [
        ("serve.job_ms_tail", &window.jobs.latency_ms),
        ("serve.feed_ms_tail", &window.streams.feed_ms),
    ] {
        if let Some(t) = tail(values) {
            m.insert(name, t.value);
            out.samples.insert(name, t.samples);
        }
    }
    // Wall time the daemon's root spans (requests, jobs) leave
    // unexplained, over the stretch from the first root to the last.
    let roots = spans.iter().filter(|s| s.parent.is_none());
    let first = roots.clone().map(|s| s.start_ns).min().unwrap_or(0);
    let last = roots.map(SpanRow::end_ns).max().unwrap_or(0);
    let unattributed = (last - first).saturating_sub(root_union_ns(spans));
    m.insert("trace.unattributed_s", unattributed as f64 / 1e9 / jobs);
    m.insert(
        "trace.unattributed_frac",
        unattributed as f64 / (last - first).max(1) as f64,
    );
    out.samples
        .insert("serve.jobs", window.jobs.latency_ms.len());
    out.samples
        .insert("serve.feed_ms_p50", window.streams.feed_ms.len());
    out.samples.insert("serve.accept_wait_ms_p50", waits.len());
    out.samples.insert("trace.spans", spans.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_classify_by_method_and_path_shape() {
        assert_eq!(
            route_of("POST /v1/jobs"),
            Some("serve.route.post_job.ms_p50")
        );
        assert_eq!(
            route_of("GET /v1/jobs/j001"),
            Some("serve.route.get_status.ms_p50")
        );
        assert_eq!(
            route_of("GET /v1/jobs/j001/report"),
            Some("serve.route.get_report.ms_p50")
        );
        assert_eq!(
            route_of("POST /v1/streams/s3/tasks"),
            Some("serve.route.post_feed.ms_p50")
        );
        assert_eq!(
            route_of("GET /metrics"),
            Some("serve.route.get_metrics.ms_p50")
        );
        assert_eq!(route_of("POST /v1/streams"), None);
        assert_eq!(route_of("GET /v1/streams/s3/timeline"), None);
    }
}
