//! The application layer: a job registry plus a shared worker pool that
//! runs submitted campaigns through the existing
//! [`hetsched_core::Campaign`] machinery — watchdog, deadline,
//! quarantine, and manifest resume all unchanged.
//!
//! Jobs are keyed two ways: by server-assigned id (the REST `{id}`) and
//! by [`CampaignSpec::fingerprint`]. The fingerprint index is the
//! completed-front cache: a repeated identical `POST` resolves to the
//! existing job — finished, running, or queued — without enqueuing any
//! new cells. Each job writes its manifest to
//! `<state-dir>/job-<fingerprint>.manifest.jsonl`, so even after a
//! daemon restart a resubmitted spec replays from the manifest instead
//! of re-executing.

use crate::http::MAX_FEED_HORIZONS;
use crate::wire::{
    self, JobCreated, JobReportBody, JobRequest, JobStatusBody, JobTraceBody, JobWorkersBody,
    StreamCreated, StreamFeedRequest, StreamRequest, StreamStatusBody, StreamTimelineBody,
};
use hetsched_core::{
    load_manifest_records, read_trace, replay_records, summarise_manifest, Campaign,
    CampaignOutcome, CampaignSpec, CancelToken, CoreError, DatasetId, EngineStreamSpec,
    ExperimentConfig, Framework, HorizonConfig, MetricsRegistry, MetricsSnapshot, OptimizerSpec,
    Result, SeedKind, StreamConfig, StreamRunner, TraceWriter, WorkerSummary,
};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Directory holding per-job campaign manifests.
    pub state_dir: PathBuf,
    /// Worker threads draining the job queue (the concurrency level for
    /// whole campaigns; cells within a campaign still parallelise on the
    /// process-wide rayon pool).
    pub workers: usize,
    /// Default per-cell watchdog budget for jobs that do not set one.
    pub cell_timeout: Option<Duration>,
}

impl ServeConfig {
    /// A config with `state_dir`, two workers, and no watchdog default.
    pub fn new(state_dir: impl Into<PathBuf>) -> Self {
        ServeConfig {
            state_dir: state_dir.into(),
            workers: 2,
            cell_timeout: None,
        }
    }
}

/// Lifecycle of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobPhase {
    Queued,
    Running,
    Done,
    Failed,
    Cancelled,
}

impl JobPhase {
    fn label(self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Done => "done",
            JobPhase::Failed => "failed",
            JobPhase::Cancelled => "cancelled",
        }
    }
}

/// Mutable job state, behind the job's own lock.
struct JobState {
    phase: JobPhase,
    error: Option<String>,
    outcome: Option<CampaignOutcome>,
}

/// One submitted campaign.
struct Job {
    id: String,
    fingerprint: String,
    spec: CampaignSpec,
    cell_timeout: Option<Duration>,
    token: CancelToken,
    registry: Arc<MetricsRegistry>,
    state: Mutex<JobState>,
}

impl Job {
    fn status_body(&self) -> JobStatusBody {
        let state = self.state.lock().expect("job state lock");
        JobStatusBody {
            schema: wire::JOB_STATUS_SCHEMA.to_string(),
            job_id: self.id.clone(),
            fingerprint: self.fingerprint.clone(),
            state: state.phase.label().to_string(),
            error: state.error.clone(),
            metrics: self.registry.snapshot(),
        }
    }
}

/// Both lookup maps behind one lock, so admission (check fingerprint,
/// insert job) is atomic.
#[derive(Default)]
struct JobTable {
    by_id: HashMap<String, Arc<Job>>,
    by_fingerprint: HashMap<String, String>,
}

/// One open rolling-horizon stream. Feeds and ticks run synchronously on
/// the request thread under the stream's own lock (streams are
/// independent, so two streams never serialise on each other).
struct StreamEntry {
    id: String,
    config: StreamConfig,
    runner: Mutex<StreamRunner>,
}

struct Inner {
    config: ServeConfig,
    jobs: Mutex<JobTable>,
    streams: Mutex<HashMap<String, Arc<StreamEntry>>>,
    queue: Mutex<Option<mpsc::Sender<Arc<Job>>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    next_id: AtomicU64,
}

/// The scheduler service: cheaply cloneable handle, shared by every
/// connection thread.
#[derive(Clone)]
pub struct SchedulerService {
    inner: Arc<Inner>,
}

impl SchedulerService {
    /// Creates the state directory and spawns the worker pool.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] on zero workers, [`CoreError::Io`]
    /// when the state directory cannot be created.
    pub fn start(config: ServeConfig) -> Result<SchedulerService> {
        if config.workers == 0 {
            return Err(CoreError::InvalidConfig("serve needs >= 1 worker"));
        }
        std::fs::create_dir_all(&config.state_dir).map_err(|e| {
            CoreError::Io(format!(
                "create state dir {}: {e}",
                config.state_dir.display()
            ))
        })?;
        // The span mux makes per-job timelines available through
        // `GET /v1/jobs/{id}/trace`: each running job routes its trace id
        // to its own writer. A pre-existing non-mux sink only costs the
        // endpoint its data, never the daemon its startup.
        if hetsched_core::install_tracing(tracing::Level::TRACE, None).is_err() {
            tracing::warn!("a span sink is already installed; job traces will not be recorded");
        }
        let (tx, rx) = mpsc::channel::<Arc<Job>>();
        let rx = Arc::new(Mutex::new(rx));
        let inner = Arc::new(Inner {
            config,
            jobs: Mutex::new(JobTable::default()),
            streams: Mutex::new(HashMap::new()),
            queue: Mutex::new(Some(tx)),
            workers: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
        });
        let mut handles = Vec::new();
        for i in 0..inner.config.workers {
            let inner_for_worker = Arc::clone(&inner);
            let rx = Arc::clone(&rx);
            handles.push(
                thread::Builder::new()
                    .name(format!("hetsched-serve-worker-{i}"))
                    .spawn(move || worker_loop(inner_for_worker, rx))
                    .expect("spawn worker thread"),
            );
        }
        *inner.workers.lock().expect("workers lock") = handles;
        Ok(SchedulerService { inner })
    }

    /// Admits a campaign: validates the request, resolves the
    /// fingerprint cache, and either returns the existing job (`cached`)
    /// or enqueues a new one.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] (→ 400) on a schema mismatch, an
    /// invalid spec, or a non-positive timeout; [`CoreError::Io`]
    /// (→ 500) when the daemon is shutting down.
    pub fn submit(&self, request: &JobRequest) -> Result<JobCreated> {
        if request.schema != wire::JOB_REQUEST_SCHEMA {
            return Err(CoreError::InvalidConfig(
                "unsupported job-request schema (expected hetsched.job-request.v1)",
            ));
        }
        request.campaign.validate()?;
        let cell_timeout = match request.cell_timeout_s {
            Some(secs) if secs > 0.0 && secs.is_finite() => Some(Duration::from_secs_f64(secs)),
            Some(_) => {
                return Err(CoreError::InvalidConfig(
                    "cell_timeout_s must be a positive number of seconds",
                ))
            }
            None => self.inner.config.cell_timeout,
        };
        let fingerprint = request.campaign.fingerprint();

        let mut table = self.inner.jobs.lock().expect("job table lock");
        if let Some(existing_id) = table.by_fingerprint.get(&fingerprint) {
            let job = table.by_id[existing_id].clone();
            let phase = job.state.lock().expect("job state lock").phase;
            return Ok(JobCreated {
                schema: wire::JOB_CREATED_SCHEMA.to_string(),
                job_id: job.id.clone(),
                fingerprint,
                state: phase.label().to_string(),
                cached: true,
            });
        }
        let id = format!("j{:03}", self.inner.next_id.fetch_add(1, Ordering::Relaxed));
        let job = Arc::new(Job {
            id: id.clone(),
            fingerprint: fingerprint.clone(),
            spec: request.campaign.clone(),
            cell_timeout,
            token: CancelToken::new(),
            registry: Arc::new(MetricsRegistry::new()),
            state: Mutex::new(JobState {
                phase: JobPhase::Queued,
                error: None,
                outcome: None,
            }),
        });
        table.by_id.insert(id.clone(), Arc::clone(&job));
        table.by_fingerprint.insert(fingerprint.clone(), id.clone());
        drop(table);

        let queue = self.inner.queue.lock().expect("queue lock");
        match queue.as_ref().map(|tx| tx.send(Arc::clone(&job))) {
            Some(Ok(())) => {}
            _ => return Err(CoreError::Io("job queue is shut down".to_string())),
        }
        Ok(JobCreated {
            schema: wire::JOB_CREATED_SCHEMA.to_string(),
            job_id: id,
            fingerprint,
            state: JobPhase::Queued.label().to_string(),
            cached: false,
        })
    }

    fn job(&self, id: &str) -> Result<Arc<Job>> {
        self.inner
            .jobs
            .lock()
            .expect("job table lock")
            .by_id
            .get(id)
            .cloned()
            .ok_or_else(|| CoreError::NotFound(format!("job {id}")))
    }

    /// Live progress for a job.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotFound`] (→ 404) for an unknown id.
    pub fn status(&self, id: &str) -> Result<JobStatusBody> {
        Ok(self.job(id)?.status_body())
    }

    /// The finished report, or the job's status while it is not done —
    /// the handler turns the latter into the 404-with-status response.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotFound`] (→ 404) for an unknown id.
    pub fn report(&self, id: &str) -> Result<std::result::Result<JobReportBody, JobStatusBody>> {
        let job = self.job(id)?;
        let state = job.state.lock().expect("job state lock");
        if state.phase == JobPhase::Done {
            let outcome = state.outcome.as_ref().expect("done job has an outcome");
            return Ok(Ok(JobReportBody::from_outcome(
                &job.id,
                &job.fingerprint,
                outcome,
            )));
        }
        drop(state);
        Ok(Err(job.status_body()))
    }

    /// The job's recorded span timeline: every completed span appended
    /// to its trace file so far (empty until the campaign starts).
    ///
    /// # Errors
    ///
    /// [`CoreError::NotFound`] (→ 404) for an unknown id; [`CoreError::Io`]
    /// on a corrupt trace file.
    pub fn trace(&self, id: &str) -> Result<JobTraceBody> {
        let job = self.job(id)?;
        let path = trace_path(&self.inner.config, &job.fingerprint);
        let spans = if path.exists() {
            read_trace(&path)?
        } else {
            Vec::new()
        };
        Ok(JobTraceBody {
            schema: wire::JOB_TRACE_SCHEMA.to_string(),
            job_id: job.id.clone(),
            fingerprint: job.fingerprint.clone(),
            spans,
        })
    }

    /// The per-worker view of a job's campaign, computed purely from its
    /// manifest: surviving cell records per worker plus the replayed
    /// lease state machine (steals, fenced appends, wall-clock). Empty
    /// for a job whose manifest has no worker-tagged records — i.e. one
    /// only ever run single-process by the daemon itself; external
    /// `hetsched work` processes sharing the job's manifest each get a
    /// row.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotFound`] (→ 404) for an unknown id;
    /// [`CoreError::Manifest`] on a corrupt or foreign manifest.
    pub fn workers(&self, id: &str) -> Result<JobWorkersBody> {
        let job = self.job(id)?;
        Ok(JobWorkersBody {
            schema: wire::JOB_WORKERS_SCHEMA.to_string(),
            job_id: job.id.clone(),
            fingerprint: job.fingerprint.clone(),
            workers: manifest_workers(&manifest_path(&self.inner.config, &job.fingerprint))?,
        })
    }

    /// Cancels a job via its [`CancelToken`] (idempotent): a queued job
    /// flips to `cancelled` immediately, a running one stops admitting
    /// cells and is marked by its worker when the campaign unwinds.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotFound`] (→ 404) for an unknown id.
    pub fn cancel(&self, id: &str) -> Result<JobStatusBody> {
        let job = self.job(id)?;
        job.token.cancel();
        {
            let mut state = job.state.lock().expect("job state lock");
            if state.phase == JobPhase::Queued {
                state.phase = JobPhase::Cancelled;
            }
        }
        Ok(job.status_body())
    }

    /// Opens a rolling-horizon stream, or resumes one: if the id is live
    /// in memory the existing stream is returned (idempotent POST), and
    /// if only its manifest survives — e.g. after a daemon restart — the
    /// manifest is replayed, which by determinism reproduces the
    /// interrupted stream's state bit-for-bit. Either way the request's
    /// configuration must match the stream's.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] (→ 400) on a schema mismatch, an
    /// invalid id/parameter, or a configuration clash;
    /// [`CoreError::Manifest`]/[`CoreError::Io`] (→ 500) on a corrupt
    /// manifest or filesystem failure.
    pub fn create_stream(&self, request: &StreamRequest) -> Result<StreamCreated> {
        if request.schema != wire::STREAM_REQUEST_SCHEMA {
            return Err(CoreError::InvalidConfig(
                "unsupported stream-request schema (expected hetsched.stream-request.v1)",
            ));
        }
        let config = stream_config(request)?;
        let mut streams = self.inner.streams.lock().expect("stream table lock");
        if let Some(entry) = streams.get(&request.stream_id) {
            if entry.config != config {
                return Err(CoreError::InvalidConfig(
                    "stream exists with a different configuration",
                ));
            }
            let runner = entry.runner.lock().expect("stream lock");
            return Ok(StreamCreated {
                schema: wire::STREAM_CREATED_SCHEMA.to_string(),
                stream_id: entry.id.clone(),
                optimizer: runner.header().optimizer,
                resumed: true,
                ticks: runner.scheduler().ticks() as u64,
                fed_until: runner.fed_until(),
            });
        }
        let system = stream_system(request.set)?;
        let path = stream_path(&self.inner.config, &request.stream_id);
        let runner = StreamRunner::resume(system, config, &path)?;
        let resumed = runner.scheduler().ticks() > 0 || runner.fed_until() > 0.0;
        let created = StreamCreated {
            schema: wire::STREAM_CREATED_SCHEMA.to_string(),
            stream_id: request.stream_id.clone(),
            optimizer: runner.header().optimizer,
            resumed,
            ticks: runner.scheduler().ticks() as u64,
            fed_until: runner.fed_until(),
        };
        streams.insert(
            request.stream_id.clone(),
            Arc::new(StreamEntry {
                id: request.stream_id.clone(),
                config,
                runner: Mutex::new(runner),
            }),
        );
        tracing::info!(
            "stream {} {} ({})",
            created.stream_id,
            if resumed { "resumed" } else { "opened" },
            created.optimizer
        );
        Ok(created)
    }

    fn stream(&self, id: &str) -> Result<Arc<StreamEntry>> {
        self.inner
            .streams
            .lock()
            .expect("stream table lock")
            .get(id)
            .cloned()
            .ok_or_else(|| CoreError::NotFound(format!("stream {id}")))
    }

    /// Appends one arrival window to a stream and synchronously runs
    /// every horizon the fed window now covers; answers with the
    /// post-tick status.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotFound`] (→ 404) for an unknown id;
    /// [`CoreError::InvalidConfig`] (→ 400), before anything is fed or
    /// recorded, on a schema mismatch, a non-finite `until`, an `until`
    /// behind the window already fed, or a window reaching more than
    /// [`MAX_FEED_HORIZONS`] horizons past the stream's clock; internal
    /// errors from the scheduler/manifest.
    pub fn feed_stream(&self, id: &str, request: &StreamFeedRequest) -> Result<StreamStatusBody> {
        if request.schema != wire::STREAM_FEED_SCHEMA {
            return Err(CoreError::InvalidConfig(
                "unsupported stream-feed schema (expected hetsched.stream-feed.v1)",
            ));
        }
        if !request.until.is_finite() {
            return Err(CoreError::InvalidConfig(
                "stream feed `until` must be finite",
            ));
        }
        let entry = self.stream(id)?;
        let mut runner = entry.runner.lock().expect("stream lock");
        if request.until < runner.fed_until() {
            return Err(CoreError::InvalidConfig(
                "stream feed `until` retreats behind the window already fed",
            ));
        }
        let horizon = runner.config().horizon.horizon;
        if (request.until - runner.scheduler().now()) / horizon > f64::from(MAX_FEED_HORIZONS) {
            return Err(CoreError::InvalidConfig(
                "stream feed window spans more than 1000 horizons",
            ));
        }
        runner.feed(request.until, request.tasks.clone())?;
        while runner.scheduler().now() + horizon <= runner.fed_until() {
            runner.tick()?;
        }
        Ok(stream_status(&entry.id, &runner))
    }

    /// Committed-schedule totals for a stream.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotFound`] (→ 404) for an unknown id.
    pub fn stream_status(&self, id: &str) -> Result<StreamStatusBody> {
        let entry = self.stream(id)?;
        let runner = entry.runner.lock().expect("stream lock");
        Ok(stream_status(&entry.id, &runner))
    }

    /// The stream's committed schedule: per-task placements plus the
    /// per-tick records.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotFound`] (→ 404) for an unknown id.
    pub fn stream_timeline(&self, id: &str) -> Result<StreamTimelineBody> {
        let entry = self.stream(id)?;
        let runner = entry.runner.lock().expect("stream lock");
        Ok(StreamTimelineBody {
            schema: wire::STREAM_TIMELINE_SCHEMA.to_string(),
            stream_id: entry.id.clone(),
            records: runner.scheduler().records().to_vec(),
            timeline: runner.scheduler().timeline().to_vec(),
        })
    }

    /// One [`MetricsSnapshot`] folded across every job's registry
    /// (`None` before the first submission).
    pub fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        let table = self.inner.jobs.lock().expect("job table lock");
        let snapshots: Vec<MetricsSnapshot> = table
            .by_id
            .values()
            .map(|j| j.registry.snapshot())
            .collect();
        MetricsSnapshot::aggregate(&snapshots)
    }

    /// The Prometheus exposition for `GET /metrics`: the aggregated
    /// campaign metrics plus per-state job gauges.
    pub fn prometheus(&self) -> String {
        let mut out = self
            .metrics_snapshot()
            .map(|s| s.prometheus())
            .unwrap_or_default();
        let table = self.inner.jobs.lock().expect("job table lock");
        let mut counts = [0u64; 5];
        for job in table.by_id.values() {
            let phase = job.state.lock().expect("job state lock").phase;
            counts[phase as usize] += 1;
        }
        drop(table);
        out.push_str("# TYPE hetsched_serve_jobs gauge\n");
        for (phase, count) in [
            JobPhase::Queued,
            JobPhase::Running,
            JobPhase::Done,
            JobPhase::Failed,
            JobPhase::Cancelled,
        ]
        .into_iter()
        .zip(counts)
        {
            out.push_str(&format!(
                "hetsched_serve_jobs{{state=\"{}\"}} {count}\n",
                phase.label()
            ));
        }
        out.push_str(&self.worker_gauges());
        out
    }

    /// Per-worker gauges for distributed jobs: one sample per (job,
    /// worker) replayed from the job's manifest. Jobs whose manifests
    /// carry no worker-tagged records (single-process) contribute
    /// nothing, so the plain daemon's exposition is unchanged.
    fn worker_gauges(&self) -> String {
        let jobs: Vec<(String, String)> = {
            let table = self.inner.jobs.lock().expect("job table lock");
            table
                .by_id
                .values()
                .map(|j| (j.id.clone(), j.fingerprint.clone()))
                .collect()
        };
        let mut rows = String::new();
        for (job_id, fingerprint) in jobs {
            let path = manifest_path(&self.inner.config, &fingerprint);
            let workers = match manifest_workers(&path) {
                Ok(workers) => workers,
                Err(e) => {
                    tracing::warn!("job {job_id}: cannot replay manifest for /metrics: {e}");
                    continue;
                }
            };
            for w in workers {
                for (name, value) in [
                    ("cells", w.cells as u64),
                    ("leases_stolen", w.stolen as u64),
                    ("appends_fenced", w.fenced as u64),
                ] {
                    rows.push_str(&format!(
                        "hetsched_serve_job_worker_{name}{{job=\"{job_id}\",\
                         worker=\"{}\"}} {value}\n",
                        w.worker
                    ));
                }
            }
        }
        if rows.is_empty() {
            return rows;
        }
        let mut out = String::new();
        for name in ["cells", "leases_stolen", "appends_fenced"] {
            out.push_str(&format!("# TYPE hetsched_serve_job_worker_{name} gauge\n"));
        }
        out.push_str(&rows);
        out
    }

    /// Graceful shutdown: cancels every job, closes the queue, and joins
    /// the workers (waits for in-flight campaigns to unwind past their
    /// current cell). Idempotent.
    pub fn shutdown(&self) {
        {
            let table = self.inner.jobs.lock().expect("job table lock");
            for job in table.by_id.values() {
                job.token.cancel();
            }
        }
        *self.inner.queue.lock().expect("queue lock") = None;
        let handles: Vec<_> = self
            .inner
            .workers
            .lock()
            .expect("workers lock")
            .drain(..)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// Where a stream's manifest lives, keyed by the client-chosen id so a
/// restarted daemon resumes the same file.
fn stream_path(config: &ServeConfig, id: &str) -> PathBuf {
    config.state_dir.join(format!("stream-{id}.manifest.jsonl"))
}

/// Validates a [`StreamRequest`] and assembles the [`StreamConfig`].
fn stream_config(request: &StreamRequest) -> Result<StreamConfig> {
    if request.stream_id.is_empty() || request.stream_id.len() > 64 {
        return Err(CoreError::InvalidConfig(
            "stream_id must be 1-64 characters",
        ));
    }
    if !request
        .stream_id
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
    {
        return Err(CoreError::InvalidConfig(
            "stream_id may only contain [A-Za-z0-9_-]",
        ));
    }
    if !(request.horizon.is_finite() && request.horizon > 0.0) {
        return Err(CoreError::InvalidConfig("horizon must be finite and > 0"));
    }
    let energy_budget = match request.energy_budget {
        Some(b) if b.is_finite() && b > 0.0 => b,
        Some(_) => {
            return Err(CoreError::InvalidConfig(
                "energy_budget must be finite and > 0",
            ))
        }
        None => f64::INFINITY,
    };
    let horizon = HorizonConfig {
        horizon: request.horizon,
        energy_budget,
    };
    let optimizer = match &request.policy {
        Some(policy) => OptimizerSpec::Policy(policy.parse().map_err(|_| {
            CoreError::InvalidConfig("unknown policy (expected max-utility or gupta)")
        })?),
        None => {
            let algorithm = match &request.algorithm {
                Some(name) => name.parse().map_err(|_| {
                    CoreError::InvalidConfig("unknown algorithm (expected nsga2, moead, or spea2)")
                })?,
                None => hetsched_core::Algorithm::Nsga2,
            };
            let engine = hetsched_core::EngineConfig::builder()
                .algorithm(algorithm)
                .population(request.population.unwrap_or(24))
                .generations(request.generations.unwrap_or(8))
                .build()
                .map_err(|_| CoreError::InvalidConfig("invalid engine parameters"))?;
            OptimizerSpec::Engine(EngineStreamSpec {
                engine,
                seed_kind: SeedKind::MinMinCompletionTime,
                rng_seed: request.rng_seed.unwrap_or(0x5EED),
                stream: 0,
                warm_start: request.warm_start.unwrap_or(true),
            })
        }
    };
    Ok(StreamConfig { horizon, optimizer })
}

/// The machine inventory a stream schedules onto (the data set's system;
/// the trace the framework also generates is discarded — arrivals come
/// over the wire).
fn stream_system(set: u8) -> Result<hetsched_core::HcSystem> {
    let dataset = match set {
        1 => DatasetId::One,
        2 => DatasetId::Two,
        3 => DatasetId::Three,
        _ => return Err(CoreError::InvalidConfig("set must be 1, 2, or 3")),
    };
    let cfg = ExperimentConfig::scaled(dataset, 0.001);
    Ok(Framework::new(&cfg)?.system().clone())
}

/// Assembles the status body from a stream's runner state.
fn stream_status(id: &str, runner: &StreamRunner) -> StreamStatusBody {
    let sched = runner.scheduler();
    let last = sched.records().last();
    StreamStatusBody {
        schema: wire::STREAM_STATUS_SCHEMA.to_string(),
        stream_id: id.to_string(),
        optimizer: runner.header().optimizer,
        ticks: sched.ticks() as u64,
        now: sched.now(),
        fed_until: runner.fed_until(),
        tasks: last.map_or(0, |r| r.tasks as u64),
        frozen: last.map_or(0, |r| r.frozen as u64),
        rejected: sched.rejected().len() as u64,
        utility: last.map_or(0.0, |r| r.utility),
        energy: last.map_or(0.0, |r| r.energy),
    }
}

/// Where a job's span timeline lives, keyed by fingerprint like its
/// manifest so a resubmitted spec appends to the same file.
fn trace_path(config: &ServeConfig, fingerprint: &str) -> PathBuf {
    config
        .state_dir
        .join(format!("job-{fingerprint}.trace.jsonl"))
}

/// Where a job's campaign manifest lives: also the rendezvous point for
/// external `hetsched work` processes joining the job's campaign.
fn manifest_path(config: &ServeConfig, fingerprint: &str) -> PathBuf {
    config
        .state_dir
        .join(format!("job-{fingerprint}.manifest.jsonl"))
}

/// Per-worker rollups replayed from a job manifest (empty when the file
/// does not exist yet or carries no worker-tagged records).
fn manifest_workers(path: &Path) -> Result<Vec<WorkerSummary>> {
    if !path.exists() {
        return Ok(Vec::new());
    }
    match load_manifest_records(path)? {
        None => Ok(Vec::new()),
        Some((fingerprint, records)) => {
            let view = replay_records(&records);
            Ok(summarise_manifest(fingerprint, &view).workers)
        }
    }
}

fn worker_loop(inner: Arc<Inner>, rx: Arc<Mutex<mpsc::Receiver<Arc<Job>>>>) {
    loop {
        // Hold the receiver lock only for the dequeue, not the run, so
        // the other workers keep draining while this one executes.
        let job = match rx.lock().expect("queue receiver lock").recv() {
            Ok(job) => job,
            Err(_) => return, // queue closed: shutdown
        };
        run_job(&inner, &job);
    }
}

fn run_job(inner: &Inner, job: &Job) {
    {
        let mut state = job.state.lock().expect("job state lock");
        if state.phase != JobPhase::Queued {
            return; // cancelled while queued
        }
        state.phase = JobPhase::Running;
    }
    if job.token.is_cancelled() {
        job.state.lock().expect("job state lock").phase = JobPhase::Cancelled;
        return;
    }
    tracing::info!("job {} starting ({} cells)", job.id, job.spec.cells().len());
    // Jobs share the process-wide rayon pool across `workers` concurrent
    // campaigns, so each job's fair share — not the whole host — is what
    // its heartbeat/ETA arithmetic should divide by.
    let host = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    job.registry
        .set_workers((host / inner.config.workers).max(1));
    let mut campaign = Campaign::new(job.spec.clone())
        .with_cancel_token(job.token.clone())
        .with_telemetry(Arc::clone(&job.registry));
    if let Some(timeout) = job.cell_timeout {
        campaign = campaign.cell_timeout(timeout);
    }
    let manifest = manifest_path(&inner.config, &job.fingerprint);
    // Root span of the job's trace tree; its trace id is routed to the
    // job's own writer so `GET /v1/jobs/{id}/trace` serves exactly this
    // job's timeline even with several jobs in flight.
    let job_span = tracing::Span::root(tracing::Level::INFO, module_path!(), "job")
        .with("job_id", job.id.clone())
        .with("fingerprint", job.fingerprint.clone());
    let trace_route = job_span.is_enabled().then(|| job_span.context().trace_id());
    if let (Some(trace_id), Some(mux)) = (trace_route, hetsched_core::installed_mux()) {
        match TraceWriter::create(trace_path(&inner.config, &job.fingerprint)) {
            Ok(writer) => mux.register(trace_id, Arc::new(writer)),
            Err(e) => tracing::warn!("job {}: cannot open trace file: {e}", job.id),
        }
    }
    let in_job = job_span.enter();
    let result = campaign.run(Some(&manifest));
    drop(in_job);
    drop(job_span); // close the root span before detaching its writer
    if let (Some(trace_id), Some(mux)) = (trace_route, hetsched_core::installed_mux()) {
        if let Some(writer) = mux.deregister(trace_id) {
            writer.flush_writer();
        }
    }
    let mut state = job.state.lock().expect("job state lock");
    match result {
        Ok(outcome) => {
            if outcome.is_complete() {
                state.phase = JobPhase::Done;
            } else if job.token.is_cancelled() {
                state.phase = JobPhase::Cancelled;
                state.error = Some("cancelled before completion".to_string());
            } else {
                state.phase = JobPhase::Failed;
                state.error = Some(format!(
                    "{} cells failed, {} skipped",
                    outcome.failed.len(),
                    outcome.skipped.len()
                ));
            }
            state.outcome = Some(outcome);
        }
        Err(e) => {
            state.phase = JobPhase::Failed;
            state.error = Some(e.to_string());
        }
    }
    tracing::info!("job {} finished: {}", job.id, state.phase.label());
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsched_core::{DatasetId, ExperimentConfig, SeedKind};

    fn tiny_request() -> JobRequest {
        let base = ExperimentConfig::builder(DatasetId::One)
            .tasks(20)
            .population(8)
            .snapshots(vec![2])
            .seeds(vec![SeedKind::MinEnergy, SeedKind::Random])
            .build()
            .unwrap();
        JobRequest::new(CampaignSpec::single(&base))
    }

    fn temp_state_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("hetsched-serve-{tag}-{}", std::process::id()))
    }

    fn wait_done(service: &SchedulerService, id: &str) -> JobStatusBody {
        for _ in 0..600 {
            let status = service.status(id).unwrap();
            if status.state != "queued" && status.state != "running" {
                return status;
            }
            thread::sleep(Duration::from_millis(20));
        }
        panic!("job {id} never settled");
    }

    #[test]
    fn submit_run_report_and_cache_hit() {
        let dir = temp_state_dir("basic");
        let service = SchedulerService::start(ServeConfig::new(&dir)).unwrap();
        let created = service.submit(&tiny_request()).unwrap();
        assert!(!created.cached);
        assert_eq!(created.state, "queued");

        let status = wait_done(&service, &created.job_id);
        assert_eq!(status.state, "done", "error: {:?}", status.error);
        assert!(status.metrics.cells_finished > 0);

        let report = service.report(&created.job_id).unwrap().unwrap();
        assert_eq!(report.schema, wire::JOB_REPORT_SCHEMA);
        assert_eq!(report.reports.len(), 1);
        assert!(report.failed.is_empty());

        // Identical resubmission hits the fingerprint cache: same job,
        // no new cells started.
        let started_before = service
            .status(&created.job_id)
            .unwrap()
            .metrics
            .cells_started;
        let again = service.submit(&tiny_request()).unwrap();
        assert!(again.cached);
        assert_eq!(again.job_id, created.job_id);
        assert_eq!(again.state, "done");
        let started_after = service
            .status(&created.job_id)
            .unwrap()
            .metrics
            .cells_started;
        assert_eq!(started_before, started_after);

        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn workers_view_is_empty_for_single_process_jobs() {
        let dir = temp_state_dir("workers-empty");
        let service = SchedulerService::start(ServeConfig::new(&dir)).unwrap();
        let created = service.submit(&tiny_request()).unwrap();
        let status = wait_done(&service, &created.job_id);
        assert_eq!(status.state, "done", "error: {:?}", status.error);
        let body = service.workers(&created.job_id).unwrap();
        assert_eq!(body.schema, wire::JOB_WORKERS_SCHEMA);
        assert_eq!(body.job_id, created.job_id);
        assert!(
            body.workers.is_empty(),
            "daemon-run cells are untagged: {:?}",
            body.workers
        );
        assert!(service.workers("j999").is_err());
        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn workers_view_reports_external_workers_from_the_manifest() {
        let dir = temp_state_dir("workers-dist");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // An external `hetsched work` process runs the whole campaign
        // into the job's manifest path before the job is submitted; the
        // daemon then resumes from the manifest (zero cells executed)
        // and the workers view reports the external worker's rows.
        let request = tiny_request();
        let fingerprint = request.campaign.fingerprint();
        let config = ServeConfig::new(&dir);
        let manifest = manifest_path(&config, &fingerprint);
        let campaign = Campaign::new(request.campaign.clone());
        let outcome = hetsched_core::Worker::new(campaign, "ext-worker-1")
            .run(&manifest)
            .unwrap();
        assert_eq!(outcome.executed, 2);

        let service = SchedulerService::start(config).unwrap();
        let created = service.submit(&request).unwrap();
        let status = wait_done(&service, &created.job_id);
        assert_eq!(status.state, "done", "error: {:?}", status.error);
        let body = service.workers(&created.job_id).unwrap();
        assert_eq!(body.workers.len(), 1, "{:?}", body.workers);
        assert_eq!(body.workers[0].worker, "ext-worker-1");
        assert_eq!(body.workers[0].cells, 2);
        assert_eq!(body.workers[0].stolen, 0);
        assert_eq!(body.workers[0].fenced, 0);
        // The per-worker gauges surface in the Prometheus exposition.
        let prom = service.prometheus();
        assert!(
            prom.contains(
                "hetsched_serve_job_worker_cells{job=\"j001\",worker=\"ext-worker-1\"} 2"
            ),
            "{prom}"
        );
        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_jobs_are_not_found_and_bad_specs_rejected() {
        let dir = temp_state_dir("errors");
        let service = SchedulerService::start(ServeConfig::new(&dir)).unwrap();
        let err = service.status("j999").unwrap_err();
        assert_eq!(err.class(), hetsched_core::ErrorClass::NotFound);

        let mut bad = tiny_request();
        bad.campaign.replicates = 0;
        let err = service.submit(&bad).unwrap_err();
        assert_eq!(err.class(), hetsched_core::ErrorClass::InvalidInput);

        let mut wrong_schema = tiny_request();
        wrong_schema.schema = "hetsched.job-request.v0".to_string();
        assert!(service.submit(&wrong_schema).is_err());

        let mut bad_timeout = tiny_request();
        bad_timeout.cell_timeout_s = Some(-1.0);
        assert!(service.submit(&bad_timeout).is_err());

        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_before_completion_returns_status() {
        let dir = temp_state_dir("pending");
        // Zero-throughput pool is impossible (workers >= 1), so submit a
        // job and immediately ask: depending on timing the answer is the
        // pending status or the report — both well-formed. Force the
        // pending side with a cancelled-at-admission job.
        let service = SchedulerService::start(ServeConfig::new(&dir)).unwrap();
        let created = service.submit(&tiny_request()).unwrap();
        let _ = service.cancel(&created.job_id);
        let settled = wait_done(&service, &created.job_id);
        if settled.state == "cancelled" {
            let pending = service.report(&created.job_id).unwrap();
            assert!(pending.is_err(), "cancelled job must not serve a report");
        }
        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn stream_request(id: &str) -> StreamRequest {
        let mut req = StreamRequest::new(id, 1, 20.0);
        req.population = Some(8);
        req.generations = Some(4);
        req
    }

    fn window(until: f64) -> StreamFeedRequest {
        let mut arrivals = hetsched_core::ArrivalStream::new(
            "poisson:1.5".parse().unwrap(),
            7,
            5,
            hetsched_core::TufPolicy::essc_default(),
        );
        StreamFeedRequest {
            schema: wire::STREAM_FEED_SCHEMA.to_string(),
            until,
            tasks: arrivals.until(until).unwrap(),
        }
    }

    #[test]
    fn stream_create_feed_and_restart_resume() {
        let dir = temp_state_dir("stream");
        let _ = std::fs::remove_dir_all(&dir);
        let service = SchedulerService::start(ServeConfig::new(&dir)).unwrap();
        let req = stream_request("s-test");
        let created = service.create_stream(&req).unwrap();
        assert!(!created.resumed);
        assert_eq!(created.optimizer, "engine:nsga2");
        // Idempotent re-POST returns the live stream.
        assert!(service.create_stream(&req).unwrap().resumed);
        // A clashing configuration is rejected.
        let mut other = req.clone();
        other.horizon = 30.0;
        assert!(service.create_stream(&other).is_err());

        // One window covering two horizons → two synchronous ticks.
        let status = service.feed_stream("s-test", &window(40.0)).unwrap();
        assert_eq!(status.ticks, 2);
        assert_eq!(status.now, 40.0);
        assert!(status.tasks > 0);
        let timeline = service.stream_timeline("s-test").unwrap();
        assert_eq!(timeline.records.len(), 2);
        assert!(!timeline.timeline.is_empty());

        // Daemon restart: the manifest alone resumes the stream to the
        // same committed schedule.
        service.shutdown();
        let service = SchedulerService::start(ServeConfig::new(&dir)).unwrap();
        let resumed = service.create_stream(&req).unwrap();
        assert!(resumed.resumed);
        assert_eq!(resumed.ticks, 2);
        assert_eq!(resumed.fed_until, 40.0);
        let replayed = service.stream_timeline("s-test").unwrap();
        assert_eq!(replayed.records, timeline.records);
        assert_eq!(replayed.timeline, timeline.timeline);
        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stream_requests_are_validated() {
        let dir = temp_state_dir("stream-bad");
        let service = SchedulerService::start(ServeConfig::new(&dir)).unwrap();
        let cases: Vec<StreamRequest> = vec![
            {
                let mut r = stream_request("ok");
                r.schema = "hetsched.stream-request.v0".into();
                r
            },
            stream_request("bad/../id"),
            stream_request(""),
            {
                let mut r = stream_request("ok");
                r.horizon = 0.0;
                r
            },
            {
                let mut r = stream_request("ok");
                r.set = 9;
                r
            },
            {
                let mut r = stream_request("ok");
                r.energy_budget = Some(-1.0);
                r
            },
            {
                let mut r = stream_request("ok");
                r.policy = Some("thorough".into());
                r
            },
            {
                let mut r = stream_request("ok");
                r.algorithm = Some("ga".into());
                r
            },
        ];
        for bad in cases {
            let err = service.create_stream(&bad).unwrap_err();
            assert_eq!(
                err.class(),
                hetsched_core::ErrorClass::InvalidInput,
                "{bad:?}"
            );
        }
        // Unknown ids are 404s; a retreating feed window is rejected.
        assert!(service.stream_status("nope").is_err());
        assert!(service.stream_timeline("nope").is_err());
        assert!(service.feed_stream("nope", &window(20.0)).is_err());
        service.create_stream(&stream_request("retreat")).unwrap();
        service.feed_stream("retreat", &window(20.0)).unwrap();
        let mut stale = window(40.0);
        stale.tasks.retain(|t| t.arrival < 10.0);
        stale.until = 40.0;
        assert!(
            service.feed_stream("retreat", &stale).is_err(),
            "arrivals behind the committed frontier must be rejected"
        );
        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stream_feed_windows_are_bounded() {
        let dir = temp_state_dir("stream-window");
        let _ = std::fs::remove_dir_all(&dir);
        let service = SchedulerService::start(ServeConfig::new(&dir)).unwrap();
        service.create_stream(&stream_request("w")).unwrap();
        let manifest = || std::fs::read_to_string(dir.join("stream-w.manifest.jsonl")).unwrap();
        let before = manifest();
        let rejected = |request: &StreamFeedRequest| {
            let err = service.feed_stream("w", request).unwrap_err();
            assert_eq!(err.class(), hetsched_core::ErrorClass::InvalidInput);
        };
        // `"until": 1e999` parses to +inf, and a finite but huge window
        // would tick for as long; neither reaches the runner.
        for until in [f64::INFINITY, f64::NAN, 1e300] {
            rejected(&StreamFeedRequest {
                schema: wire::STREAM_FEED_SCHEMA.to_string(),
                until,
                tasks: Vec::new(),
            });
        }
        // One horizon past the bound is refused; the stream's horizon is 20.
        let mut too_wide = window(20.0);
        too_wide.until = 20.0 * f64::from(MAX_FEED_HORIZONS + 1);
        rejected(&too_wide);
        assert_eq!(manifest(), before, "a rejected feed records nothing");

        // An accepted window ticks as before.
        let status = service.feed_stream("w", &window(40.0)).unwrap();
        assert_eq!(
            (status.ticks, status.now, status.fed_until),
            (2, 40.0, 40.0)
        );
        // A retreating window is refused even with no stale arrivals.
        rejected(&StreamFeedRequest {
            schema: wire::STREAM_FEED_SCHEMA.to_string(),
            until: 20.0,
            tasks: Vec::new(),
        });
        let status = service.stream_status("w").unwrap();
        assert_eq!((status.ticks, status.fed_until), (2, 40.0));
        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn policy_streams_run_without_engine_state() {
        let dir = temp_state_dir("stream-policy");
        let service = SchedulerService::start(ServeConfig::new(&dir)).unwrap();
        let mut req = StreamRequest::new("gupta-stream", 1, 15.0);
        req.policy = Some("gupta".into());
        let created = service.create_stream(&req).unwrap();
        assert_eq!(created.optimizer, "policy:gupta");
        let status = service.feed_stream("gupta-stream", &window(30.0)).unwrap();
        assert_eq!(status.ticks, 2);
        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_workers_is_invalid() {
        let mut config = ServeConfig::new(temp_state_dir("zero"));
        config.workers = 0;
        assert!(SchedulerService::start(config).is_err());
    }
}
