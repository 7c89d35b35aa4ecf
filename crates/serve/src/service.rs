//! The application layer: a job registry plus a shared worker pool that
//! runs submitted campaigns through the existing
//! [`hetsched_core::Campaign`] machinery — watchdog, deadline,
//! quarantine, and manifest resume all unchanged.
//!
//! Jobs are keyed two ways: by server-assigned id (the REST `{id}`) and
//! by [`CampaignSpec::fingerprint`]. The fingerprint index is the
//! completed-front cache: a repeated identical `POST` resolves to the
//! existing job — done, running, or queued — without enqueuing any new
//! cells; a job that failed or was cancelled does not answer for its
//! fingerprint, so resubmitting its spec admits a new job. Each job
//! writes its manifest to `<state-dir>/job-<fingerprint>.manifest.jsonl`,
//! so even after a daemon restart a resubmitted spec replays from the
//! manifest instead of re-executing.
//!
//! Memory is bounded. The daemon keeps at most `MAX_JOBS` jobs: when
//! an admission pushes past that, the least recently used settled job
//! (admission, a cache hit and a lookup by id each count as a use) is
//! dropped, while queued and running jobs are never dropped. A dropped
//! job is gone exactly as after a daemon restart: its id answers 404,
//! and its manifest and trace stay on disk, so resubmitting its spec
//! admits a new job that replays every cell. Its final metrics and its
//! phase fold into retired totals, so `/metrics` counters and job
//! gauges never go down. Likewise at most `MAX_STREAMS` streams stay
//! in memory: opening another drops the least recently used one that no
//! request holds, and `POST /v1/streams` with its id resumes it from its
//! manifest.

use crate::http::MAX_FEED_HORIZONS;
use crate::wire::{
    self, JobCreated, JobReportBody, JobRequest, JobStatusBody, JobTraceBody, JobWorkersBody,
    StreamCreated, StreamFeedRequest, StreamRequest, StreamStatusBody, StreamTimelineBody,
};
use hetsched_core::{
    load_manifest_records, read_trace_from, replay_records, summarise_manifest, Campaign,
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

/// Jobs kept in memory: past this, admission drops the least recently
/// used settled job. About 4 KB each.
pub(crate) const MAX_JOBS: usize = 256;

/// Streams kept in memory: past this, opening one drops the least
/// recently used stream that no request holds. A stream grows with
/// every task fed to it, to about 0.7 MiB after 40 feeds.
pub(crate) const MAX_STREAMS: usize = 8;

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
    const ALL: [JobPhase; 5] = [
        JobPhase::Queued,
        JobPhase::Running,
        JobPhase::Done,
        JobPhase::Failed,
        JobPhase::Cancelled,
    ];

    fn is_settled(self) -> bool {
        !matches!(self, JobPhase::Queued | JobPhase::Running)
    }

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
    /// The manifest's per-worker rows, read once when the job settled;
    /// `None` while it runs, so readers replay the manifest.
    workers: Option<Vec<WorkerSummary>>,
    /// Where this job's run starts in its trace file; `None` until its
    /// writer opens.
    trace: Option<TraceStart>,
}

/// A job's own run within its trace file, which every job of the same
/// spec appends to: earlier jobs, failed, cancelled, dropped or run
/// before a restart, and later ones.
#[derive(Debug, Clone, Copy)]
struct TraceStart {
    /// The file's length when the job's writer opened it; earlier runs
    /// lie before it.
    offset: u64,
    /// The job's trace id, which tells its spans from those of a later
    /// job in this process (span ids restart per process, so only the
    /// offset can exclude an earlier process's runs).
    trace_id: u64,
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
    fn phase(&self) -> JobPhase {
        self.state.lock().expect("job state lock").phase
    }

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

/// Values by id, each stamped with the clock reading of its last use,
/// so that the least recently used can be dropped.
struct LruMap<T> {
    entries: HashMap<String, (T, u64)>,
    clock: u64,
}

impl<T> Default for LruMap<T> {
    fn default() -> Self {
        LruMap {
            entries: HashMap::new(),
            clock: 0,
        }
    }
}

impl<T: Clone> LruMap<T> {
    /// The value under `id`, marked used.
    fn get(&mut self, id: &str) -> Option<T> {
        self.clock += 1;
        let (value, used) = self.entries.get_mut(id)?;
        *used = self.clock;
        Some(value.clone())
    }

    fn insert(&mut self, id: String, value: T) {
        self.clock += 1;
        self.entries.insert(id, (value, self.clock));
    }

    /// While more than `bound` values remain, drops the least recently
    /// used one that `droppable` accepts; returns those dropped.
    fn evict(&mut self, bound: usize, droppable: impl Fn(&T) -> bool) -> Vec<T> {
        let mut dropped = Vec::new();
        while self.entries.len() > bound {
            let Some(id) = self
                .entries
                .iter()
                .filter(|(_, (value, _))| droppable(value))
                .min_by_key(|(_, (_, used))| *used)
                .map(|(id, _)| id.clone())
            else {
                break;
            };
            dropped.extend(self.entries.remove(&id).map(|(value, _)| value));
        }
        dropped
    }

    fn values(&self) -> impl Iterator<Item = &T> {
        self.entries.values().map(|(value, _)| value)
    }
}

/// The retained jobs and the fingerprint index behind one lock, so
/// admission (check fingerprint, insert job, evict) is atomic.
#[derive(Default)]
struct JobTable {
    by_id: LruMap<Arc<Job>>,
    by_fingerprint: HashMap<String, String>,
    /// Evicted jobs' final metrics folded into one snapshot.
    retired: Option<MetricsSnapshot>,
    /// Evicted jobs per phase, indexed like [`JobPhase::ALL`].
    retired_phases: [u64; 5],
}

impl JobTable {
    /// Folds an evicted job into the retired totals and frees its
    /// fingerprint unless a newer job already holds it.
    fn retire(&mut self, job: &Job) {
        if self.by_fingerprint.get(&job.fingerprint) == Some(&job.id) {
            self.by_fingerprint.remove(&job.fingerprint);
        }
        let snapshot = job.registry.snapshot();
        match &mut self.retired {
            Some(retired) => retired.merge(&snapshot),
            None => self.retired = Some(snapshot),
        }
        self.retired_phases[job.phase() as usize] += 1;
    }
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
    /// A request holds a stream's `Arc` only after cloning it under this
    /// lock, so an entry whose count is 1 here is in no request's hands.
    streams: Mutex<LruMap<Arc<StreamEntry>>>,
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
            streams: Mutex::new(LruMap::default()),
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
    /// or enqueues a new one. A job answers for its fingerprint while it
    /// is queued, running or done; one that failed or was cancelled is
    /// superseded by a new job, which resumes from the manifest. An
    /// admission that leaves more than `MAX_JOBS` jobs in memory drops
    /// the least recently used settled ones.
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
        let existing = table.by_fingerprint.get(&fingerprint).cloned();
        if let Some(job) = existing.and_then(|id| table.by_id.get(&id)) {
            let phase = job.phase();
            if !matches!(phase, JobPhase::Failed | JobPhase::Cancelled) {
                return Ok(JobCreated {
                    schema: wire::JOB_CREATED_SCHEMA.to_string(),
                    job_id: job.id.clone(),
                    fingerprint,
                    state: phase.label().to_string(),
                    cached: true,
                });
            }
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
                workers: None,
                trace: None,
            }),
        });
        table.by_id.insert(id.clone(), Arc::clone(&job));
        table.by_fingerprint.insert(fingerprint.clone(), id.clone());
        for evicted in table.by_id.evict(MAX_JOBS, |job| job.phase().is_settled()) {
            table.retire(&evicted);
        }
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

    /// The job's recorded span timeline: every completed span of its own
    /// run appended to its trace file so far (empty until the campaign
    /// starts), without the runs of other jobs of the same spec.
    ///
    /// # Errors
    ///
    /// [`CoreError::NotFound`] (→ 404) for an unknown id; [`CoreError::Io`]
    /// on a corrupt trace file.
    pub fn trace(&self, id: &str) -> Result<JobTraceBody> {
        let job = self.job(id)?;
        let path = trace_path(&self.inner.config, &job.fingerprint);
        let start = job.state.lock().expect("job state lock").trace;
        let spans = match start {
            Some(start) if path.exists() => read_trace_from(&path, start.offset)?
                .into_iter()
                .filter(|span| span.trace_id == start.trace_id)
                .collect(),
            _ => Vec::new(),
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
    /// lease state machine (steals, fenced appends, wall-clock), read
    /// once when the job settles and on every call before that. Empty
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
            workers: job_workers(&self.inner.config, &job)?,
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
    /// if only its manifest survives — after a daemon restart, or once
    /// the stream was dropped from memory — the manifest is replayed,
    /// which by determinism reproduces the interrupted stream's state
    /// bit-for-bit. Either way the request's configuration must match
    /// the stream's. Opening a stream that leaves more than `MAX_STREAMS`
    /// in memory drops the least recently used ones that no request
    /// holds.
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
        streams.evict(MAX_STREAMS, |entry| Arc::strong_count(entry) == 1);
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

    /// One [`MetricsSnapshot`] folded across every job's registry, the
    /// evicted jobs' included (`None` before the first submission).
    pub fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        self.jobs_view().metrics
    }

    /// The retained jobs plus the evicted jobs' totals, taken under one
    /// table lock so that no job is counted twice or missed.
    fn jobs_view(&self) -> JobsView {
        let (jobs, retired, mut phases) = {
            let table = self.inner.jobs.lock().expect("job table lock");
            let jobs: Vec<Arc<Job>> = table.by_id.values().cloned().collect();
            (jobs, table.retired.clone(), table.retired_phases)
        };
        let snapshots: Vec<MetricsSnapshot> = jobs.iter().map(|j| j.registry.snapshot()).collect();
        for job in &jobs {
            phases[job.phase() as usize] += 1;
        }
        JobsView {
            metrics: MetricsSnapshot::aggregate(retired.iter().chain(&snapshots)),
            phases,
            jobs,
        }
    }

    /// The Prometheus exposition for `GET /metrics`: the aggregated
    /// campaign metrics plus per-state job gauges.
    pub fn prometheus(&self) -> String {
        let view = self.jobs_view();
        let mut out = view.metrics.map(|s| s.prometheus()).unwrap_or_default();
        out.push_str("# TYPE hetsched_serve_jobs gauge\n");
        for (phase, count) in JobPhase::ALL.into_iter().zip(view.phases) {
            out.push_str(&format!(
                "hetsched_serve_jobs{{state=\"{}\"}} {count}\n",
                phase.label()
            ));
        }
        out.push_str(&self.worker_gauges(&view.jobs));
        out
    }

    /// Per-worker gauges for distributed jobs: one sample per (job,
    /// worker), from the rows a settled job keeps and from a replay of
    /// the manifest of a job still in flight. Jobs whose manifests carry
    /// no worker-tagged records (single-process) contribute nothing, so
    /// the plain daemon's exposition is unchanged.
    fn worker_gauges(&self, jobs: &[Arc<Job>]) -> String {
        let mut rows = String::new();
        for job in jobs {
            let workers = match job_workers(&self.inner.config, job) {
                Ok(workers) => workers,
                Err(e) => {
                    tracing::warn!("job {}: cannot replay manifest for /metrics: {e}", job.id);
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
                        "hetsched_serve_job_worker_{name}{{job=\"{}\",\
                         worker=\"{}\"}} {value}\n",
                        job.id, w.worker
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

/// What `/metrics` reads from the job table.
struct JobsView {
    /// Retained jobs' snapshots folded with the evicted jobs' totals.
    metrics: Option<MetricsSnapshot>,
    /// Jobs per phase, evicted ones included, indexed like
    /// [`JobPhase::ALL`].
    phases: [u64; 5],
    /// The retained jobs.
    jobs: Vec<Arc<Job>>,
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

/// A job's per-worker rollups: the rows it kept when it settled, or a
/// replay of its manifest while it is in flight.
fn job_workers(config: &ServeConfig, job: &Job) -> Result<Vec<WorkerSummary>> {
    if let Some(rows) = &job.state.lock().expect("job state lock").workers {
        return Ok(rows.clone());
    }
    manifest_workers(&manifest_path(config, &job.fingerprint))
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
        // The job has settled; read its per-worker rows once here rather
        // than on every `/metrics` scrape.
        match manifest_workers(&manifest_path(&inner.config, &job.fingerprint)) {
            Ok(rows) => job.state.lock().expect("job state lock").workers = Some(rows),
            Err(e) => tracing::warn!("job {}: cannot replay manifest: {e}", job.id),
        }
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
        let path = trace_path(&inner.config, &job.fingerprint);
        match TraceWriter::create(&path) {
            Ok(writer) => {
                let offset = std::fs::metadata(&path).map_or(0, |meta| meta.len());
                job.state.lock().expect("job state lock").trace =
                    Some(TraceStart { offset, trace_id });
                mux.register(trace_id, Arc::new(writer));
            }
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

    /// `tiny_request` with a fingerprint of its own per `rng_seed`.
    fn seeded_request(rng_seed: u64) -> JobRequest {
        let mut request = tiny_request();
        request.campaign.base.rng_seed = rng_seed;
        request
    }

    fn wait_for(service: &SchedulerService, id: &str, state: &str) {
        for _ in 0..600 {
            if service.status(id).unwrap().state == state {
                return;
            }
            thread::sleep(Duration::from_millis(5));
        }
        panic!("job {id} never became {state}");
    }

    /// Takes the store lock on the manifest of `request`'s job, so a
    /// worker running that job blocks before its first cell until the
    /// returned guard drops.
    fn hold_manifest(config: &ServeConfig, request: &JobRequest) -> impl Sized {
        use hetsched_core::{LocalManifestStore, ManifestStore};
        let fingerprint = request.campaign.fingerprint();
        let path = manifest_path(config, &fingerprint);
        LocalManifestStore::open(&path, &fingerprint, 1)
            .unwrap()
            .lock()
            .unwrap()
    }

    /// The series of an exposition that must never fall while no job is
    /// in flight: every counter and the settled-job gauges.
    fn settled_series(text: &str) -> HashMap<String, f64> {
        text.lines()
            .filter(|line| !line.starts_with('#'))
            .filter_map(|line| line.rsplit_once(' '))
            .filter(|(series, _)| {
                series.contains("_total")
                    || series.starts_with("hetsched_serve_jobs")
                        && !series.contains("queued")
                        && !series.contains("running")
            })
            .map(|(series, value)| (series.to_string(), value.parse().unwrap()))
            .collect()
    }

    fn reports_json(service: &SchedulerService, id: &str) -> String {
        let report = service.report(id).unwrap().unwrap();
        serde_json::to_string(&report.reports).unwrap()
    }

    #[test]
    fn failed_and_cancelled_jobs_do_not_pin_their_fingerprint() {
        let dir = temp_state_dir("dead");
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = ServeConfig::new(&dir);
        config.workers = 1;
        let service = SchedulerService::start(config.clone()).unwrap();
        let (running, queued, failing) = (seeded_request(1), seeded_request(2), seeded_request(3));

        // `running` holds the only worker before its first cell, so the
        // next job stays queued until it is cancelled.
        let lock = hold_manifest(&config, &running);
        let first = service.submit(&running).unwrap();
        wait_for(&service, &first.job_id, "running");
        let second = service.submit(&queued).unwrap();
        assert_eq!(service.cancel(&second.job_id).unwrap().state, "cancelled");
        let requeued = service.submit(&queued).unwrap();
        assert!(!requeued.cached, "{requeued:?}");
        assert_ne!(requeued.job_id, second.job_id);
        assert_eq!(requeued.state, "queued");

        // A running job cancelled before its first cell settles as
        // cancelled, and its spec is admitted again.
        service.cancel(&first.job_id).unwrap();
        drop(lock);
        assert_eq!(wait_done(&service, &first.job_id).state, "cancelled");
        let rerun = service.submit(&running).unwrap();
        assert!(!rerun.cached, "{rerun:?}");
        assert_ne!(rerun.job_id, first.job_id);

        // A job fails on a manifest that belongs to another campaign;
        // once the manifest holds its own cells, a resubmission resumes
        // from it.
        let path = manifest_path(&config, &failing.campaign.fingerprint());
        drop(hetsched_core::LocalManifestStore::open(&path, "0000000000000000", 1).unwrap());
        let failed = service.submit(&failing).unwrap();
        assert_eq!(wait_done(&service, &failed.job_id).state, "failed");
        std::fs::remove_file(&path).unwrap();
        Campaign::new(failing.campaign.clone())
            .run(Some(&path))
            .unwrap();
        let resumed = service.submit(&failing).unwrap();
        assert!(!resumed.cached, "{resumed:?}");
        assert_ne!(resumed.job_id, failed.job_id);
        let status = wait_done(&service, &resumed.job_id);
        assert_eq!(status.state, "done", "error: {:?}", status.error);
        assert_eq!(status.metrics.cells_started, 0);
        assert_eq!(status.metrics.cells_replayed, status.metrics.cells_total);

        for id in [&requeued.job_id, &rerun.job_id] {
            let status = wait_done(&service, id);
            assert_eq!(status.state, "done", "job {id}: {:?}", status.error);
        }
        // The dead jobs still answer by id, and a done job answers for
        // the fingerprint again.
        assert_eq!(service.status(&first.job_id).unwrap().state, "cancelled");
        assert_eq!(service.status(&failed.job_id).unwrap().state, "failed");
        let hit = service.submit(&running).unwrap();
        assert!(hit.cached);
        assert_eq!(hit.job_id, rerun.job_id);
        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_keeps_a_hot_job_and_the_totals_and_an_evicted_job_replays() {
        let dir = temp_state_dir("retain");
        let _ = std::fs::remove_dir_all(&dir);
        let service = SchedulerService::start(ServeConfig::new(&dir)).unwrap();
        let hot = service.submit(&seeded_request(0)).unwrap();
        assert_eq!(wait_done(&service, &hot.job_id).state, "done");
        let cold = service.submit(&seeded_request(1)).unwrap();
        assert_eq!(wait_done(&service, &cold.job_id).state, "done");
        let cold_reports = reports_json(&service, &cold.job_id);

        // Past the bound, resubmitting the hot spec every 8th time.
        let mut admitted = 2;
        let mut totals = settled_series(&service.prometheus());
        for i in 2u64.. {
            if admitted > MAX_JOBS + 8 {
                break;
            }
            if i % 8 == 0 {
                let hit = service.submit(&seeded_request(0)).unwrap();
                assert!(hit.cached, "submission {i}: {hit:?}");
                assert_eq!(hit.job_id, hot.job_id);
                continue;
            }
            let created = service.submit(&seeded_request(i)).unwrap();
            assert!(!created.cached, "submission {i}: {created:?}");
            admitted += 1;
            assert_eq!(wait_done(&service, &created.job_id).state, "done");
            let now = settled_series(&service.prometheus());
            for (series, before) in &totals {
                assert!(
                    now[series] >= *before,
                    "{series} fell from {before} to {} at submission {i}",
                    now[series]
                );
            }
            totals = now;
        }
        assert_eq!(
            service.inner.jobs.lock().unwrap().by_id.entries.len(),
            MAX_JOBS
        );
        // Every job ever admitted is still counted.
        assert_eq!(
            totals["hetsched_serve_jobs{state=\"done\"}"],
            admitted as f64
        );
        assert_eq!(
            totals["hetsched_campaign_cells_finished_total"],
            2.0 * admitted as f64
        );

        // The cold job went first; it is gone as after a daemon restart.
        for gone in [
            service.status(&cold.job_id).map(drop),
            service.report(&cold.job_id).map(drop),
            service.trace(&cold.job_id).map(drop),
            service.workers(&cold.job_id).map(drop),
            service.cancel(&cold.job_id).map(drop),
        ] {
            assert_eq!(
                gone.unwrap_err().class(),
                hetsched_core::ErrorClass::NotFound
            );
        }
        let again = service.submit(&seeded_request(1)).unwrap();
        assert!(!again.cached, "{again:?}");
        assert_ne!(again.job_id, cold.job_id);
        let status = wait_done(&service, &again.job_id);
        assert_eq!(status.state, "done", "error: {:?}", status.error);
        assert_eq!(status.metrics.cells_started, 0);
        assert_eq!(status.metrics.cells_replayed, status.metrics.cells_total);
        assert_eq!(reports_json(&service, &again.job_id), cold_reports);
        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn queued_and_running_jobs_survive_eviction_pressure() {
        let dir = temp_state_dir("in-flight");
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServeConfig::new(&dir);
        let service = SchedulerService::start(config.clone()).unwrap();
        // Both workers block before their first cell; the third job
        // queues behind them.
        let (a, b) = (seeded_request(1), seeded_request(2));
        let locks = (hold_manifest(&config, &a), hold_manifest(&config, &b));
        let running = [&a, &b].map(|request| service.submit(request).unwrap().job_id);
        for id in &running {
            wait_for(&service, id, "running");
        }
        let queued = service.submit(&seeded_request(3)).unwrap().job_id;

        // Jobs cancelled while queued settle at once. The three in-flight
        // jobs are the least recently used, yet the settled ones go.
        let settled: Vec<String> = (0..MAX_JOBS as u64)
            .map(|i| {
                let id = service.submit(&seeded_request(100 + i)).unwrap().job_id;
                assert_eq!(service.cancel(&id).unwrap().state, "cancelled");
                id
            })
            .collect();
        assert_eq!(
            service.inner.jobs.lock().unwrap().by_id.entries.len(),
            MAX_JOBS
        );
        for id in &running {
            assert_eq!(service.status(id).unwrap().state, "running");
        }
        assert_eq!(service.status(&queued).unwrap().state, "queued");
        for id in &settled[..3] {
            let err = service.status(id).unwrap_err();
            assert_eq!(err.class(), hetsched_core::ErrorClass::NotFound);
        }
        assert_eq!(service.status(&settled[3]).unwrap().state, "cancelled");
        drop(locks);
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

    fn policy_stream(id: &str) -> StreamRequest {
        let mut request = StreamRequest::new(id, 1, 15.0);
        request.policy = Some("gupta".into());
        request
    }

    #[test]
    fn an_evicted_stream_resumes_its_timeline_from_the_manifest() {
        let dir = temp_state_dir("stream-evict");
        let _ = std::fs::remove_dir_all(&dir);
        let service = SchedulerService::start(ServeConfig::new(&dir)).unwrap();
        let req = stream_request("s-old");
        service.create_stream(&req).unwrap();
        service.feed_stream("s-old", &window(40.0)).unwrap();
        let timeline = service.stream_timeline("s-old").unwrap();
        for k in 0..MAX_STREAMS {
            service
                .create_stream(&policy_stream(&format!("s-new-{k}")))
                .unwrap();
        }
        let err = service.stream_status("s-old").unwrap_err();
        assert_eq!(err.class(), hetsched_core::ErrorClass::NotFound);

        let resumed = service.create_stream(&req).unwrap();
        assert!(resumed.resumed);
        assert_eq!((resumed.ticks, resumed.fed_until), (2, 40.0));
        let replayed = service.stream_timeline("s-old").unwrap();
        assert_eq!(replayed.records, timeline.records);
        assert_eq!(replayed.timeline, timeline.timeline);
        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_stream_held_by_a_request_is_not_evicted() {
        let dir = temp_state_dir("stream-held");
        let _ = std::fs::remove_dir_all(&dir);
        let service = SchedulerService::start(ServeConfig::new(&dir)).unwrap();
        let present = |id: &str| {
            service
                .inner
                .streams
                .lock()
                .unwrap()
                .entries
                .contains_key(id)
        };
        service.create_stream(&policy_stream("held")).unwrap();
        // What a feed holds while it runs.
        let held = service.stream("held").unwrap();
        for k in 0..MAX_STREAMS {
            service
                .create_stream(&policy_stream(&format!("s{k}")))
                .unwrap();
        }
        // "held" is the least recently used, so the next one went.
        assert!(present("held"));
        assert!(!present("s0"));
        // Released, it is the first to go.
        drop(held);
        service.create_stream(&policy_stream("s-last")).unwrap();
        assert!(!present("held"));
        assert!(present("s1"));
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
