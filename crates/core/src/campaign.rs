//! Resilient experiment campaigns: a checkpoint/resume orchestrator over
//! the framework, whichever engine [`EngineConfig`] selects.
//!
//! A *campaign* is the paper's analysis workflow at full width: the grid
//! dataset × algorithm × seed-kind × replicate, expanded into independent
//! **cells** (one evolved population each). Each completed cell is
//! appended to a JSONL **manifest** and flushed, so a run killed at any
//! point resumes by replaying the manifest and executing only the missing
//! cells — and because every cell runs on a decorrelated RNG stream
//! derived purely from its coordinates, the resumed campaign's
//! [`AnalysisReport`]s are bit-identical to an uninterrupted run's.
//!
//! One executor runs every campaign. It owns validation, the manifest
//! open and fingerprint-checked replay, the per-dataset frameworks, the
//! `campaign`/`cell` spans, every telemetry update, cancel and deadline,
//! and assembly. Only its claim policy differs between callers:
//! [`Campaign::run`] pulls missing cells off an in-memory queue on
//! `min(cores, missing)` threads and appends untagged records, while
//! [`Worker::run`](crate::Worker::run) leases one cell at a time through
//! the shared manifest on the calling thread (see [`crate::worker`]).
//!
//! Resilience properties:
//!
//! * **isolation** — a panicking cell is caught, retried up to the
//!   configured attempt budget, and then recorded as failed without
//!   sinking the rest of the campaign;
//! * **watchdog** — with a [`Campaign::cell_timeout`], a hung cell is
//!   abandoned and recorded as [`CellOutcome::TimedOut`] instead of
//!   stalling the whole campaign;
//! * **backoff** — retries wait out a deterministic exponential backoff
//!   with seeded jitter (kept entirely off the engine RNG streams, so
//!   retried and first-try campaigns stay bit-identical);
//! * **quarantine** — a cell that exhausts its budget is recorded as
//!   [`CellOutcome::Poisoned`] and, on resume, *not* re-executed unless
//!   [`Campaign::requeue_quarantined`] says so;
//! * **durability** — each manifest append is written in one `write` and
//!   fsynced before the next, and a panic while holding the manifest lock
//!   cannot disable checkpointing for the surviving cells;
//! * **cooperative cancellation** — a [`CancelToken`] stops new cells
//!   from starting (in-flight cells finish and are checkpointed);
//! * **deadline** — a wall-clock budget after which remaining cells are
//!   skipped the same way;
//! * **resume** — the manifest begins with a fingerprint of the
//!   [`CampaignSpec`]; resuming with a different spec is rejected rather
//!   than silently mixing incompatible cells, and a torn final line
//!   (killed mid-write) is ignored and terminated before the resume
//!   appends.
//!
//! Deterministic fault points ([`chaos`](crate::chaos)) thread through
//! this module (`campaign.cell.run`, `manifest.append`) so every one of
//! these properties is exercised by injected panics, IO errors, hangs,
//! and aborts — see README § Fault tolerance.
//!
//! [`EngineConfig`]: hetsched_moea::EngineConfig

use crate::config::{DatasetId, ExperimentConfig};
use crate::framework::Framework;
use crate::manifest::{
    load_manifest_records, replay_records, LocalManifestStore, ManifestStore, ManifestView,
};
use crate::report::{AnalysisReport, PopulationRun};
use crate::telemetry::MetricsRegistry;
use crate::{CoreError, Result};
use hetsched_heuristics::SeedKind;
use hetsched_moea::observe::{GenerationStats, NullObserver};
use hetsched_moea::{Algorithm, Individual};
use hetsched_sim::{chaos, Allocation};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// The grid a campaign sweeps. `base` supplies everything the grid axes
/// don't: trace size, population, snapshot schedule, seed kinds, and the
/// master RNG seed (`base.dataset` and `base.algorithm` are ignored in
/// favour of the explicit axes).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// Template configuration shared by every cell.
    pub base: ExperimentConfig,
    /// Datasets to sweep (each builds one system + trace).
    pub datasets: Vec<DatasetId>,
    /// Engines to sweep.
    pub algorithms: Vec<Algorithm>,
    /// Replicates per (dataset, algorithm) point, on decorrelated RNG
    /// streams (see [`Framework::replicate_seed`]).
    pub replicates: usize,
}

impl CampaignSpec {
    /// The one-point campaign equivalent to `Framework::new(&config)` +
    /// [`Framework::run`].
    pub fn single(config: &ExperimentConfig) -> Self {
        CampaignSpec {
            datasets: vec![config.dataset],
            algorithms: vec![config.algorithm],
            replicates: 1,
            base: config.clone(),
        }
    }

    /// Validates the grid and the base configuration.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] on an empty axis, duplicate axis
    /// entries (they would alias cells in the manifest), or an invalid
    /// base config.
    pub fn validate(&self) -> Result<()> {
        self.base.validate()?;
        if self.datasets.is_empty() {
            return Err(CoreError::InvalidConfig("campaign needs >= 1 dataset"));
        }
        if self.algorithms.is_empty() {
            return Err(CoreError::InvalidConfig("campaign needs >= 1 algorithm"));
        }
        if self.replicates == 0 {
            return Err(CoreError::InvalidConfig("campaign needs >= 1 replicate"));
        }
        if unique_count(&self.datasets) != self.datasets.len() {
            return Err(CoreError::InvalidConfig("duplicate dataset in campaign"));
        }
        if unique_count(&self.algorithms) != self.algorithms.len() {
            return Err(CoreError::InvalidConfig("duplicate algorithm in campaign"));
        }
        if unique_count(&self.base.seeds) != self.base.seeds.len() {
            return Err(CoreError::InvalidConfig("duplicate seed kind in campaign"));
        }
        Ok(())
    }

    /// Expands the grid into cells, in the campaign's canonical order
    /// (dataset, then algorithm, then replicate, then seed kind).
    pub fn cells(&self) -> Vec<CellId> {
        let mut out =
            Vec::with_capacity(self.datasets.len() * self.algorithms.len() * self.replicates);
        for &dataset in &self.datasets {
            for &algorithm in &self.algorithms {
                for replicate in 0..self.replicates {
                    for &seed in &self.base.seeds {
                        out.push(CellId {
                            dataset,
                            algorithm,
                            seed,
                            replicate,
                        });
                    }
                }
            }
        }
        out
    }

    /// A stable fingerprint of the spec (FNV-1a over its canonical JSON),
    /// written as the manifest header so a manifest can never be resumed
    /// against a different campaign.
    pub fn fingerprint(&self) -> String {
        let json = serde_json::to_string(self).unwrap_or_default();
        format!("{:016x}", fnv1a(json.as_bytes()))
    }

    /// A validating builder seeded from `base` (one dataset, one
    /// algorithm, one replicate — the [`CampaignSpec::single`] grid), with
    /// [`CampaignSpec::validate`] enforced at
    /// [`CampaignSpecBuilder::build`].
    pub fn builder(base: ExperimentConfig) -> CampaignSpecBuilder {
        CampaignSpecBuilder {
            spec: CampaignSpec::single(&base),
        }
    }
}

/// Builder for [`CampaignSpec`], mirroring
/// [`hetsched_moea::EngineConfigBuilder`]: setters never fail, the grid
/// rules (non-empty axes, no duplicates, at least one replicate) are
/// checked once at [`CampaignSpecBuilder::build`].
#[derive(Debug, Clone)]
pub struct CampaignSpecBuilder {
    spec: CampaignSpec,
}

impl CampaignSpecBuilder {
    /// Datasets to sweep (replaces the default single-dataset axis).
    pub fn datasets(mut self, datasets: Vec<DatasetId>) -> Self {
        self.spec.datasets = datasets;
        self
    }

    /// Engines to sweep (replaces the default single-algorithm axis).
    pub fn algorithms(mut self, algorithms: Vec<Algorithm>) -> Self {
        self.spec.algorithms = algorithms;
        self
    }

    /// Replicates per (dataset, algorithm) grid point.
    pub fn replicates(mut self, replicates: usize) -> Self {
        self.spec.replicates = replicates;
        self
    }

    /// Validates the accumulated grid and returns the spec.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] on an empty or duplicate-bearing
    /// axis, zero replicates, or an invalid base configuration — the
    /// same rules as [`CampaignSpec::validate`].
    pub fn build(self) -> Result<CampaignSpec> {
        self.spec.validate()?;
        Ok(self.spec)
    }
}

fn unique_count<T: PartialEq>(items: &[T]) -> usize {
    items
        .iter()
        .enumerate()
        .filter(|(i, item)| !items[..*i].contains(item))
        .count()
}

/// Coordinates of one campaign cell: a single evolved population.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CellId {
    /// Which dataset's system + trace the cell runs on.
    pub dataset: DatasetId,
    /// Which engine evolves the population.
    pub algorithm: Algorithm,
    /// The seeding heuristic of the population.
    pub seed: SeedKind,
    /// Replicate index (decorrelates the RNG stream).
    pub replicate: usize,
}

impl std::fmt::Display for CellId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:?}/{}/{}/r{}",
            self.dataset,
            self.algorithm,
            self.seed.label(),
            self.replicate
        )
    }
}

/// How a cell's execution ended — the quarantine-relevant classification
/// of a [`CellRecord`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CellOutcome {
    /// The cell completed and `run` holds its population.
    Ok,
    /// An attempt exceeded the campaign's [`Campaign::cell_timeout`];
    /// the hung attempt was abandoned and the cell quarantined.
    TimedOut,
    /// Every attempt in the budget panicked or failed; the cell is
    /// quarantined until the operator clears it (or the campaign runs
    /// with [`Campaign::requeue_quarantined`]).
    Poisoned,
}

/// One manifest line: a cell's outcome. Exactly one of `run` (success)
/// and `error` (failed after all attempts) is set — a data-carrying enum
/// would say this in the type, but the vendored serde derive only handles
/// flat structs; `outcome` classifies the failure side.
///
/// `worker` and `epoch` are set only by `hetsched work` (distributed
/// mode): they name the worker that produced the record and the fencing
/// epoch of the lease it held, so a stale worker's late append can be
/// rejected at merge time (see [`crate::manifest::replay_records`]).
/// Single-process campaigns leave both `None`. Both keys are then omitted,
/// which keeps those manifest lines byte-identical to the v3 format, and
/// a v3 line (no `worker`/`epoch` keys) reads back with both `None`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellRecord {
    /// Which cell this records.
    pub cell: CellId,
    /// The evolved population's snapshot fronts, on success.
    pub run: Option<PopulationRun>,
    /// The last attempt's panic/failure message, on failure.
    pub error: Option<String>,
    /// Terminal classification: success, watchdog timeout, or quarantine.
    pub outcome: CellOutcome,
    /// How many attempts were made.
    pub attempts: usize,
    /// Wall-clock seconds the cell took, all attempts included.
    pub duration_s: f64,
    /// Worker id that appended the record (distributed mode only).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub worker: Option<String>,
    /// Fencing epoch of the lease held while running (distributed mode
    /// only). A record whose epoch is older than the cell's newest lease
    /// is dropped at merge time.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub epoch: Option<u64>,
}

/// Cooperative cancellation flag, cloneable across threads: call
/// [`CancelToken::cancel`] from anywhere (a ctrl-c handler, a watchdog)
/// and the campaign stops starting new cells.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation (idempotent).
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation was requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// One per-(dataset, algorithm, replicate) result assembled from a
/// campaign's cells — the campaign analogue of [`Framework::run`]'s
/// report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// The dataset axis value.
    pub dataset: DatasetId,
    /// The algorithm axis value.
    pub algorithm: Algorithm,
    /// The replicate index.
    pub replicate: usize,
    /// One run per seed kind, in `base.seeds` order.
    pub report: AnalysisReport,
}

/// What a campaign invocation produced.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignOutcome {
    /// Complete reports (every seed-kind cell succeeded), in canonical
    /// grid order. Grid points with failed or skipped cells are omitted.
    pub reports: Vec<CampaignReport>,
    /// Cells that exhausted their attempts, in canonical order.
    pub failed: Vec<CellRecord>,
    /// Cells not executed because of cancellation or the deadline.
    pub skipped: Vec<CellId>,
    /// Cells executed by *this* invocation.
    pub executed: usize,
    /// Cells replayed from the manifest instead of executed.
    pub replayed: usize,
}

impl CampaignOutcome {
    /// The report for one grid point, if complete.
    pub fn report(
        &self,
        dataset: DatasetId,
        algorithm: Algorithm,
        replicate: usize,
    ) -> Option<&AnalysisReport> {
        self.reports
            .iter()
            .find(|r| r.dataset == dataset && r.algorithm == algorithm && r.replicate == replicate)
            .map(|r| &r.report)
    }

    /// Whether every cell of the grid completed successfully.
    pub fn is_complete(&self) -> bool {
        self.failed.is_empty() && self.skipped.is_empty()
    }
}

/// Per-attempt fault hook used by tests to simulate failing cells:
/// returns `Some(message)` to fail the attempt.
type FaultHook = dyn Fn(&CellId, usize) -> Option<String> + Send + Sync;

/// The orchestrator. Construct with [`Campaign::new`], tune with the
/// builder-style methods, then [`Campaign::run`].
///
/// # Retry / timeout / quarantine state machine
///
/// Each cell moves through exactly one path:
///
/// ```text
///             ┌────────────────────────────────────────────────┐
///             │ attempt n (catch_unwind; watchdog if timeout)  │
///             └────────────────────────────────────────────────┘
///    completes │          panics/fails │           hangs │
///              ▼                       ▼                 ▼
///      outcome = Ok        n < attempts? ── yes ──► backoff(n+1),
///      (recorded,              │                    retry (registry
///       replayed on            no                   sees cell_retried)
///       resume)                ▼
///                     outcome = Poisoned     outcome = TimedOut
///                     (cell_poisoned)        (cell_timed_out;
///                                             terminal immediately —
///                                             hangs are deterministic,
///                                             retrying re-hangs)
/// ```
///
/// * **Backoff** before attempt `n ≥ 2` sleeps an *equal-jitter*
///   exponential delay: `window = min(cap, base · 2^(n-2))`, sleep =
///   `window/2 + jitter` with the jitter drawn from a splitmix64 stream
///   seeded off the spec fingerprint (see [`Campaign::retry_backoff`]) —
///   never from the engine RNG, so results are bit-identical whatever
///   the attempt budget.
/// * **Quarantine**: `TimedOut`/`Poisoned` records persist in the
///   manifest; a resumed campaign replays them as terminal (the grid
///   point stays incomplete) rather than burning the budget again.
///   [`Campaign::requeue_quarantined`] opts back into re-execution, and
///   a fresh record then supersedes the quarantined one (last record
///   wins on replay).
pub struct Campaign {
    spec: CampaignSpec,
    attempts: usize,
    deadline: Option<Duration>,
    cell_timeout: Option<Duration>,
    backoff_base: Duration,
    backoff_cap: Duration,
    backoff_seed: u64,
    requeue_quarantined: bool,
    cancel: CancelToken,
    fault: Option<Arc<FaultHook>>,
    telemetry: Option<Arc<MetricsRegistry>>,
}

impl Campaign {
    /// A campaign over `spec` with default resilience settings: 2
    /// attempts per cell, 25ms-base/1s-cap retry backoff seeded off the
    /// spec fingerprint, no cell timeout, no deadline, quarantine
    /// honoured on resume, per-record manifest fsync, a fresh cancel
    /// token, no telemetry.
    pub fn new(spec: CampaignSpec) -> Self {
        let backoff_seed = fnv1a(spec.fingerprint().as_bytes());
        Campaign {
            spec,
            attempts: 2,
            deadline: None,
            cell_timeout: None,
            backoff_base: Duration::from_millis(25),
            backoff_cap: Duration::from_secs(1),
            backoff_seed,
            requeue_quarantined: false,
            cancel: CancelToken::new(),
            fault: None,
            telemetry: None,
        }
    }

    /// The spec under execution.
    pub fn spec(&self) -> &CampaignSpec {
        &self.spec
    }

    /// Sets the per-cell attempt budget (first try + retries; min 1).
    pub fn attempts(mut self, attempts: usize) -> Self {
        self.attempts = attempts.max(1);
        self
    }

    /// Sets a wall-clock budget measured from [`Campaign::run`]'s start;
    /// cells not yet started when it expires are skipped.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Arms the per-cell watchdog: an attempt running longer than
    /// `timeout` is abandoned (its thread keeps running detached but can
    /// no longer touch the registry) and the cell is recorded as
    /// [`CellOutcome::TimedOut`] without retrying — a deterministic hang
    /// would only hang again. Cells then run on a dedicated thread per
    /// attempt; without a timeout they run inline on the thread that
    /// claimed them.
    pub fn cell_timeout(mut self, timeout: Duration) -> Self {
        self.cell_timeout = Some(timeout);
        self
    }

    /// Tunes the retry backoff window: attempt `n ≥ 2` waits
    /// `min(cap, base · 2^(n-2))/2` plus seeded jitter up to the same
    /// amount (equal jitter). A zero `base` disables the wait entirely
    /// (used by tests that only care about retry counting).
    pub fn retry_backoff(mut self, base: Duration, cap: Duration) -> Self {
        self.backoff_base = base;
        self.backoff_cap = cap.max(base);
        self
    }

    /// Re-executes quarantined (`TimedOut`/`Poisoned`) manifest records
    /// on resume instead of replaying them as terminal. The default
    /// (`false`) preserves the attempt budget's meaning across resumes:
    /// a poisoned cell stays poisoned until an operator intervenes.
    pub fn requeue_quarantined(mut self, requeue: bool) -> Self {
        self.requeue_quarantined = requeue;
        self
    }

    /// Uses an external cancel token (e.g. shared with a signal handler).
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// A clone of the campaign's cancel token.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// The campaign's registry, if any (the lease policy reports lease
    /// events to it).
    pub(crate) fn telemetry(&self) -> Option<&MetricsRegistry> {
        self.telemetry.as_deref()
    }

    /// Attaches a [`MetricsRegistry`] that receives cell lifecycle events
    /// and per-generation engine stats. Without one (the default) the
    /// engines run unobserved, so telemetry is pay-for-what-you-use.
    pub fn with_telemetry(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.telemetry = Some(registry);
        self
    }

    /// Injects a per-attempt fault: `hook(cell, attempt)` returning
    /// `Some(message)` makes that attempt fail. Test-only plumbing for
    /// exercising retry and failure recording.
    #[doc(hidden)]
    pub fn with_fault_injection(
        mut self,
        hook: impl Fn(&CellId, usize) -> Option<String> + Send + Sync + 'static,
    ) -> Self {
        self.fault = Some(Arc::new(hook));
        self
    }

    /// Runs the campaign, checkpointing to `manifest` when given. An
    /// existing manifest is replayed first (resume); its successfully
    /// recorded cells are not re-executed.
    ///
    /// The process owns the whole grid: missing cells come off an
    /// in-memory queue on `min(cores, missing)` threads and their records
    /// are appended untagged, with no tail and no lease lines. The store
    /// lock is taken once, before replay, to heal a torn tail.
    ///
    /// # Errors
    ///
    /// Spec validation, framework construction, manifest I/O, or a
    /// manifest written by a different spec.
    pub fn run(&self, manifest: Option<&Path>) -> Result<CampaignOutcome> {
        self.execute(manifest, &Queue::default())
    }

    /// The campaign executor behind both [`Campaign::run`] and
    /// [`Worker::run`](crate::Worker::run). `claims` decides how a cell
    /// is claimed and how its record is committed; everything else —
    /// replay, frameworks, spans, telemetry, cancel and deadline,
    /// the final sync and the counts handed to [`Campaign::assemble`] —
    /// happens here, the same way for both.
    pub(crate) fn execute(
        &self,
        manifest: Option<&Path>,
        claims: &impl ClaimPolicy,
    ) -> Result<CampaignOutcome> {
        self.spec.validate()?;
        let cells = self.spec.cells();
        let fingerprint = self.spec.fingerprint();
        // Opening creates the file and stamps the header when it is new;
        // an existing manifest is replayed (resume).
        let store = manifest
            .map(|path| LocalManifestStore::open(path, &fingerprint, 1))
            .transpose()?;
        let known = match &store {
            Some(store) => {
                // Taking the store lock heals a tail torn by a killed
                // writer, so this invocation's first record cannot glue
                // onto the fragment and be dropped on the next replay.
                let _healed = store.lock()?;
                self.known(replay(store, &fingerprint)?.cells)
            }
            None => HashMap::new(),
        };
        let missing: Vec<CellId> = cells
            .iter()
            .copied()
            .filter(|c| !known.contains_key(c))
            .collect();
        let replayed = cells.len() - missing.len();

        // One framework per dataset, built once and shared by its cells
        // (the system and trace depend only on the dataset and the base
        // master seed, never on algorithm or replicate).
        let mut frameworks: HashMap<DatasetId, Framework> = HashMap::new();
        for &dataset in &self.spec.datasets {
            let mut config = self.spec.base.clone();
            config.dataset = dataset;
            frameworks.insert(dataset, Framework::new(&config)?);
        }

        let started = Instant::now();
        tracing::info!(
            "campaign {fingerprint}: {} cells ({replayed} replayed, {} to run)",
            cells.len(),
            missing.len(),
        );
        // The campaign span roots every cell's timeline (or nests under a
        // serve job span when one is current). Cells may run on threads
        // where this thread's span stack is invisible, so its context is
        // captured here and each cell span is parented to it explicitly.
        let campaign_span = tracing::span!(
            tracing::Level::INFO,
            "campaign",
            fingerprint = fingerprint.as_str(),
            cells = cells.len() as u64,
            replayed = replayed as u64
        );
        let _campaign_entered = campaign_span.enter();
        let threads = claims.threads(missing.len());
        if let Some(registry) = self.telemetry() {
            registry.campaign_started(cells.len(), replayed, threads);
        }
        let exec = Execution {
            campaign: self,
            cells,
            fingerprint,
            store,
            missing,
            frameworks,
            span: campaign_span.context(),
            started,
        };
        // The calling thread runs one loop itself; a lease worker's only
        // loop therefore never leaves it.
        let records = std::thread::scope(|scope| {
            let others: Vec<_> = (1..threads)
                .map(|_| scope.spawn(|| exec.drain(claims)))
                .collect();
            let mut records = exec.drain(claims)?;
            for other in others {
                let other = other
                    .join()
                    .unwrap_or_else(|p| std::panic::resume_unwind(p));
                records.extend(other?);
            }
            Ok::<_, CoreError>(records)
        })?;
        if let Some(store) = &exec.store {
            // A durability barrier before the outcome is reported. The
            // local store already fsyncs every append; a `ManifestStore`
            // of another kind may not.
            if let Err(e) = store.sync() {
                tracing::warn!("manifest final sync failed: {e}");
            }
        }

        let executed: Vec<CellId> = records.iter().map(|r| r.cell).collect();
        let known = claims.settle(&exec, known, records)?;
        let replayed = exec
            .cells
            .iter()
            .filter(|c| known.contains_key(c) && !executed.contains(c))
            .count();
        let skipped: Vec<CellId> = exec
            .cells
            .iter()
            .copied()
            .filter(|c| !known.contains_key(c))
            .collect();
        if let Some(registry) = self.telemetry() {
            registry.campaign_ended(skipped.len());
        }
        Ok(self.assemble(&exec.cells, known, skipped, executed.len(), replayed))
    }

    /// The last-record-wins map over replayed cell records. Quarantined
    /// (timed-out / poisoned) records stay terminal unless the campaign
    /// was asked to requeue them for a fresh chance.
    pub(crate) fn known(&self, records: Vec<CellRecord>) -> HashMap<CellId, CellRecord> {
        let mut known: HashMap<CellId, CellRecord> =
            records.into_iter().map(|r| (r.cell, r)).collect();
        known.retain(|_, r| r.run.is_some() || !self.requeue_quarantined);
        known
    }

    /// Runs one cell with the attempt budget, catching panics. Reports
    /// lifecycle events to the campaign's registry when it has one; the
    /// engine itself is observed (per-generation stats routed to
    /// [`MetricsRegistry::generation`]) only then — the observation
    /// contract guarantees the evolved population is identical either
    /// way.
    fn execute_cell(&self, framework: &Framework, cell: CellId) -> CellRecord {
        // A seed kind's RNG stream is its position in `base.seeds`.
        let stream = self.spec.base.seeds.iter().position(|&s| s == cell.seed);
        let stream = stream.expect("every grid cell's seed kind is in base.seeds") as u64;
        let telemetry = self.telemetry();
        let cell_started = Instant::now();
        if let Some(registry) = telemetry {
            registry.cell_started();
        }
        let mut last_error = String::new();
        for attempt in 1..=self.attempts {
            if attempt > 1 {
                if let Some(registry) = telemetry {
                    registry.cell_retried();
                }
                let delay = self.backoff_delay(&cell, attempt);
                if !delay.is_zero() {
                    tracing::debug!("cell {cell} attempt {attempt}: backing off {delay:?}");
                    std::thread::sleep(delay);
                }
            }
            if let Some(hook) = &self.fault {
                if let Some(message) = hook(&cell, attempt) {
                    tracing::warn!("cell {cell} attempt {attempt} failed (injected): {message}");
                    if let Some(registry) = telemetry {
                        registry.cell_panicked();
                    }
                    last_error = message;
                    continue;
                }
            }
            let fw = framework.variant(
                Framework::replicate_seed(self.spec.base.rng_seed, cell.replicate as u64),
                cell.algorithm,
            );
            match self.run_attempt(fw, cell, stream, attempt) {
                AttemptOutcome::Completed(run) => {
                    if let Some(registry) = telemetry {
                        registry.cell_finished(cell_started.elapsed());
                    }
                    return CellRecord {
                        cell,
                        run: Some(run),
                        error: None,
                        outcome: CellOutcome::Ok,
                        attempts: attempt,
                        duration_s: cell_started.elapsed().as_secs_f64(),
                        worker: None,
                        epoch: None,
                    };
                }
                AttemptOutcome::Panicked(message) => {
                    last_error = message;
                    tracing::warn!("cell {cell} attempt {attempt} panicked: {last_error}");
                    if let Some(registry) = telemetry {
                        registry.cell_panicked();
                    }
                }
                AttemptOutcome::TimedOut => {
                    // Terminal without retry: a cell that hangs once will
                    // hang again (everything it does is deterministic), so
                    // retrying only multiplies abandoned threads.
                    let timeout = self.cell_timeout.unwrap_or_default();
                    last_error = format!(
                        "attempt {attempt} exceeded the {:.3}s cell timeout",
                        timeout.as_secs_f64()
                    );
                    tracing::warn!("cell {cell} timed out: {last_error}");
                    if let Some(registry) = telemetry {
                        registry.cell_timed_out();
                    }
                    return CellRecord {
                        cell,
                        run: None,
                        error: Some(last_error),
                        outcome: CellOutcome::TimedOut,
                        attempts: attempt,
                        duration_s: cell_started.elapsed().as_secs_f64(),
                        worker: None,
                        epoch: None,
                    };
                }
            }
        }
        if let Some(registry) = telemetry {
            registry.cell_poisoned();
        }
        CellRecord {
            cell,
            run: None,
            error: Some(last_error),
            outcome: CellOutcome::Poisoned,
            attempts: self.attempts,
            duration_s: cell_started.elapsed().as_secs_f64(),
            worker: None,
            epoch: None,
        }
    }

    /// Runs one attempt, inline or (with a [`Campaign::cell_timeout`])
    /// on a watchdogged thread. The `campaign.cell.run` fault point sits
    /// inside the unwind barrier, so injected panics behave exactly like
    /// organic engine panics.
    fn run_attempt(
        &self,
        fw: Framework,
        cell: CellId,
        stream: u64,
        attempt: usize,
    ) -> AttemptOutcome {
        let telemetry = self.telemetry.clone();
        let abandoned = Arc::new(AtomicBool::new(false));
        // The cell span is entered on the thread that claimed the cell;
        // capture it so the attempt span parents correctly even when the
        // watchdog moves the attempt to a dedicated thread.
        let cell_ctx = tracing::current_span();
        let body = {
            let abandoned = Arc::clone(&abandoned);
            move || {
                catch_unwind(AssertUnwindSafe(|| {
                    let mut attempt_span = tracing::Span::child_of(
                        cell_ctx,
                        tracing::Level::DEBUG,
                        module_path!(),
                        "attempt",
                    );
                    attempt_span.record("attempt", attempt as u64);
                    let _in_attempt = attempt_span.enter();
                    chaos::raise("campaign.cell.run", &cell);
                    match telemetry {
                        Some(registry) => {
                            let mut bridge = GenerationBridge {
                                registry,
                                abandoned,
                            };
                            fw.run_population(cell.seed, stream, &mut bridge)
                        }
                        None => fw.run_population(cell.seed, stream, &mut NullObserver),
                    }
                }))
            }
        };
        let Some(timeout) = self.cell_timeout else {
            return match body() {
                Ok(run) => AttemptOutcome::Completed(run),
                Err(payload) => AttemptOutcome::Panicked(panic_message(payload)),
            };
        };
        // The watchdog deliberately detaches instead of joining: joining a
        // hung thread is the stall the watchdog exists to prevent. The
        // abandoned flag silences the orphan's generation bridge so a cell
        // recorded as TimedOut can't later pollute telemetry.
        let (tx, rx) = mpsc::channel();
        let spawned = std::thread::Builder::new()
            .name(format!("hetsched-cell-{cell}"))
            .spawn(move || {
                let _ = tx.send(body());
            });
        if let Err(e) = spawned {
            return AttemptOutcome::Panicked(format!("failed to spawn cell thread: {e}"));
        }
        match rx.recv_timeout(timeout) {
            Ok(Ok(run)) => AttemptOutcome::Completed(run),
            Ok(Err(payload)) => AttemptOutcome::Panicked(panic_message(payload)),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                abandoned.store(true, Ordering::Relaxed);
                AttemptOutcome::TimedOut
            }
            // The sender dropped without sending: the thread died in a way
            // catch_unwind can't report (e.g. an abort racing teardown).
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                AttemptOutcome::Panicked("cell thread terminated without a result".to_string())
            }
        }
    }

    /// The deterministic pre-retry sleep for `attempt` (≥ 2): equal
    /// jitter over an exponentially growing, capped window, seeded off
    /// the campaign's backoff stream and the cell's identity — two runs
    /// of the same campaign back off identically, and no engine RNG is
    /// consulted.
    fn backoff_delay(&self, cell: &CellId, attempt: usize) -> Duration {
        if self.backoff_base.is_zero() || attempt < 2 {
            return Duration::ZERO;
        }
        let exponent = (attempt - 2).min(20) as u32;
        let window = self
            .backoff_cap
            .min(self.backoff_base.saturating_mul(1u32 << exponent));
        let window_ms = window.as_millis() as u64;
        if window_ms == 0 {
            return window;
        }
        let salt = fnv1a(cell.to_string().as_bytes()) ^ (attempt as u64);
        let jitter = chaos::splitmix64(self.backoff_seed ^ salt) % (window_ms / 2 + 1);
        Duration::from_millis(window_ms / 2 + jitter)
    }

    /// Groups cell records into per-grid-point reports, in canonical
    /// order — the step that makes resumed and uninterrupted campaigns
    /// indistinguishable.
    fn assemble(
        &self,
        cells: &[CellId],
        known: HashMap<CellId, CellRecord>,
        skipped: Vec<CellId>,
        executed: usize,
        replayed: usize,
    ) -> CampaignOutcome {
        let mut reports = Vec::new();
        for &dataset in &self.spec.datasets {
            for &algorithm in &self.spec.algorithms {
                for replicate in 0..self.spec.replicates {
                    let runs: Vec<PopulationRun> = self
                        .spec
                        .base
                        .seeds
                        .iter()
                        .filter_map(|&seed| {
                            let cell = CellId {
                                dataset,
                                algorithm,
                                seed,
                                replicate,
                            };
                            known.get(&cell).and_then(|r| r.run.clone())
                        })
                        .collect();
                    if runs.len() == self.spec.base.seeds.len() {
                        reports.push(CampaignReport {
                            dataset,
                            algorithm,
                            replicate,
                            report: AnalysisReport {
                                runs,
                                snapshots: self.spec.base.snapshots.clone(),
                            },
                        });
                    }
                }
            }
        }
        let failed: Vec<CellRecord> = cells
            .iter()
            .filter_map(|c| known.get(c).filter(|r| r.run.is_none()).cloned())
            .collect();
        CampaignOutcome {
            reports,
            failed,
            skipped,
            executed,
            replayed,
        }
    }
}

/// How the executor claims cells and commits their records: the one thing
/// a single process ([`Campaign::run`]) and a lease worker
/// ([`Worker::run`](crate::Worker::run)) do differently.
pub(crate) trait ClaimPolicy: Sync {
    /// How many threads run the claim loop over `missing` unrecorded
    /// cells; with one, the loop runs on the calling thread only.
    fn threads(&self, missing: usize) -> usize;

    /// Claims a cell and, if one is free, runs it through `execute` and
    /// commits the record.
    fn step(
        &self,
        exec: &Execution<'_>,
        execute: impl FnOnce(CellId) -> CellRecord,
    ) -> Result<Step>;

    /// The records assembly reads once every loop has stopped, from those
    /// `known` when the run started and those it `executed`.
    fn settle(
        &self,
        exec: &Execution<'_>,
        known: HashMap<CellId, CellRecord>,
        executed: Vec<CellRecord>,
    ) -> Result<HashMap<CellId, CellRecord>>;
}

/// How one [`ClaimPolicy::step`] ended.
pub(crate) enum Step {
    /// A cell ran; its record, unless the commit was fenced.
    Ran(Option<CellRecord>),
    /// Every unrecorded cell was claimed elsewhere, and the policy waited
    /// for that to change: look again.
    Waited,
    /// Nothing is left to claim.
    Done,
}

/// One campaign invocation, as the claim loop and its policy see it.
pub(crate) struct Execution<'c> {
    pub(crate) campaign: &'c Campaign,
    /// The grid, in canonical order.
    pub(crate) cells: Vec<CellId>,
    pub(crate) fingerprint: String,
    /// The manifest, if any (a worker always has one).
    pub(crate) store: Option<LocalManifestStore>,
    /// Cells with no usable record when the run started, in grid order.
    missing: Vec<CellId>,
    frameworks: HashMap<DatasetId, Framework>,
    /// The campaign span, parent of every cell span on any thread.
    span: tracing::SpanContext,
    started: Instant,
}

impl Execution<'_> {
    /// The claim loop: steps the policy until it runs out of cells or
    /// cancellation or the deadline stops new cells from starting (a
    /// running cell finishes and is committed). Returns the records that
    /// count as executed.
    fn drain(&self, claims: &impl ClaimPolicy) -> Result<Vec<CellRecord>> {
        let mut executed = Vec::new();
        while !self.stopped() {
            match claims.step(self, |cell| self.run_cell(cell))? {
                Step::Ran(record) => executed.extend(record),
                Step::Waited => {}
                Step::Done => break,
            }
        }
        Ok(executed)
    }

    /// Whether cancellation or the deadline stops new cells from starting.
    pub(crate) fn stopped(&self) -> bool {
        let campaign = self.campaign;
        campaign.cancel.is_cancelled()
            || campaign
                .deadline
                .is_some_and(|d| self.started.elapsed() >= d)
    }

    /// Runs one claimed cell inside its `cell` span.
    fn run_cell(&self, cell: CellId) -> CellRecord {
        let mut span =
            tracing::Span::child_of(self.span, tracing::Level::INFO, module_path!(), "cell");
        if span.is_enabled() {
            span.record("dataset", format!("{:?}", cell.dataset));
            span.record("algorithm", cell.algorithm.to_string());
            span.record("seed", cell.seed.label().to_string());
            span.record("replicate", cell.replicate as u64);
        }
        let _entered = span.enter();
        self.campaign
            .execute_cell(&self.frameworks[&cell.dataset], cell)
    }
}

/// The single-process claim policy: the process owns the whole grid, so
/// missing cells come off an in-memory queue and records are appended
/// untagged.
#[derive(Default)]
struct Queue {
    /// Index into [`Execution::missing`] of the next unclaimed cell. Each
    /// claim takes a distinct index; the counter orders nothing else.
    next: AtomicUsize,
}

impl ClaimPolicy for Queue {
    fn threads(&self, missing: usize) -> usize {
        rayon::current_num_threads().min(missing).max(1)
    }

    fn step(
        &self,
        exec: &Execution<'_>,
        execute: impl FnOnce(CellId) -> CellRecord,
    ) -> Result<Step> {
        let Some(&cell) = exec.missing.get(self.next.fetch_add(1, Ordering::Relaxed)) else {
            return Ok(Step::Done);
        };
        let record = execute(cell);
        if let Some(store) = &exec.store {
            // A lost checkpoint only costs re-execution on the next
            // resume; the computed record is still used. The append is
            // unwind-isolated so even a panic inside the store
            // (chaos-injected or otherwise) can't take the loop's thread
            // down with it.
            match catch_unwind(AssertUnwindSafe(|| store.append_cell(&record))) {
                Ok(Ok(())) => {}
                Ok(Err(e)) => tracing::warn!("manifest append failed for cell {cell}: {e}"),
                Err(payload) => {
                    let message = panic_message(payload);
                    tracing::warn!("manifest append panicked for cell {cell}: {message}");
                }
            }
        }
        Ok(Step::Ran(Some(record)))
    }

    fn settle(
        &self,
        _exec: &Execution<'_>,
        mut known: HashMap<CellId, CellRecord>,
        executed: Vec<CellRecord>,
    ) -> Result<HashMap<CellId, CellRecord>> {
        known.extend(executed.into_iter().map(|r| (r.cell, r)));
        Ok(known)
    }
}

/// How one attempt of one cell ended (internal to the attempt loop).
enum AttemptOutcome {
    /// The engine finished; the population is in hand.
    Completed(PopulationRun),
    /// The attempt panicked (organically, via the test fault hook, or
    /// via an injected chaos fault) — retryable.
    Panicked(String),
    /// The watchdog expired — terminal.
    TimedOut,
}

/// Adapts the campaign's registry to the engine's per-generation
/// [`Observer`](hetsched_moea::observe::Observer) hook for one attempt,
/// so every observed generation anywhere in the grid rolls up to
/// [`MetricsRegistry::generation`]. Owned (not borrowed) because a
/// watchdogged attempt runs on its own thread; `abandoned` flips when
/// that thread outlives its timeout, muting the orphan.
struct GenerationBridge {
    registry: Arc<MetricsRegistry>,
    abandoned: Arc<AtomicBool>,
}

impl hetsched_moea::observe::Observer<Allocation> for GenerationBridge {
    fn on_generation(&mut self, stats: &GenerationStats, _population: &[Individual<Allocation>]) {
        if !self.abandoned.load(Ordering::Relaxed) {
            self.registry.generation(stats);
        }
    }
}

/// FNV-1a, the workspace's no-dependency stable hash (also behind
/// [`CampaignSpec::fingerprint`]).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Extracts a printable message from a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "cell panicked (non-string payload)".to_string()
    }
}

/// Tails `store` and merges its records, refusing a manifest written by
/// another campaign. A torn final line (a writer killed mid-append) is
/// tolerated; a torn or alien *header* is not.
pub(crate) fn replay(store: &LocalManifestStore, fingerprint: &str) -> Result<ManifestView> {
    match store.tail()? {
        None => Ok(ManifestView::default()),
        Some((owner, records)) if owner == fingerprint => Ok(replay_records(&records)),
        Some((owner, _)) => Err(CoreError::Manifest(format!(
            "manifest belongs to campaign {owner} but this campaign is {fingerprint}; \
             refusing to mix cells"
        ))),
    }
}

/// Reads a campaign manifest back without knowing its spec: returns the
/// owning campaign's fingerprint and the *surviving* cell records (lease
/// fencing applied — a stale worker's late append is dropped), or `None`
/// for an empty file. Post-hoc inspection tooling (`hetsched report`)
/// uses this directly, and resume layers a fingerprint check on top.
///
/// This is a convenience wrapper over
/// [`crate::manifest::load_manifest_records`] +
/// [`crate::manifest::replay_records`] for callers that only want the
/// merged cell view; callers that also need lease state (who holds what,
/// steal/fence counts) should use those directly.
///
/// # Errors
///
/// I/O failures, a corrupt or torn header, or an unsupported manifest
/// version (older than v3 or newer than v4).
pub fn load_manifest(path: &Path) -> Result<Option<(String, Vec<CellRecord>)>> {
    match load_manifest_records(path)? {
        None => Ok(None),
        Some((owner, records)) => Ok(Some((owner, replay_records(&records).cells))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> CampaignSpec {
        let mut base = ExperimentConfig::dataset1();
        base.tasks = 25;
        base.population = 10;
        base.snapshots = vec![2, 4];
        base.seeds = vec![SeedKind::MinEnergy, SeedKind::Random];
        CampaignSpec {
            base,
            datasets: vec![DatasetId::One],
            algorithms: vec![Algorithm::Nsga2, Algorithm::Spea2],
            replicates: 2,
        }
    }

    #[test]
    fn builder_defaults_to_the_single_grid() {
        let base = ExperimentConfig::dataset1();
        let spec = CampaignSpec::builder(base.clone()).build().unwrap();
        assert_eq!(spec, CampaignSpec::single(&base));
    }

    #[test]
    fn builder_sets_axes_and_validates_at_build() {
        let spec = CampaignSpec::builder(ExperimentConfig::dataset1())
            .datasets(vec![DatasetId::One, DatasetId::Two])
            .algorithms(vec![Algorithm::Nsga2, Algorithm::Moead])
            .replicates(3)
            .build()
            .unwrap();
        assert_eq!(spec.datasets, vec![DatasetId::One, DatasetId::Two]);
        assert_eq!(spec.algorithms, vec![Algorithm::Nsga2, Algorithm::Moead]);
        assert_eq!(spec.replicates, 3);

        // Empty axes, zero replicates, and duplicates are all rejected.
        assert!(CampaignSpec::builder(ExperimentConfig::dataset1())
            .datasets(vec![])
            .build()
            .is_err());
        assert!(CampaignSpec::builder(ExperimentConfig::dataset1())
            .algorithms(vec![])
            .build()
            .is_err());
        assert!(CampaignSpec::builder(ExperimentConfig::dataset1())
            .replicates(0)
            .build()
            .is_err());
        assert!(CampaignSpec::builder(ExperimentConfig::dataset1())
            .datasets(vec![DatasetId::One, DatasetId::One])
            .build()
            .is_err());
    }

    fn temp_manifest(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "hetsched-campaign-{tag}-{}.jsonl",
            std::process::id()
        ))
    }

    #[test]
    fn cells_cover_the_grid_in_canonical_order() {
        let spec = tiny_spec();
        let cells = spec.cells();
        assert_eq!(cells.len(), 2 * 2 * 2);
        assert_eq!(
            cells[0],
            CellId {
                dataset: DatasetId::One,
                algorithm: Algorithm::Nsga2,
                seed: SeedKind::MinEnergy,
                replicate: 0,
            }
        );
        // Dataset-major, then algorithm: the second half is SPEA2.
        assert!(cells[4..].iter().all(|c| c.algorithm == Algorithm::Spea2));
    }

    #[test]
    fn spec_validation_rejects_degenerate_grids() {
        let mut spec = tiny_spec();
        spec.datasets.clear();
        assert!(spec.validate().is_err());

        let mut spec = tiny_spec();
        spec.replicates = 0;
        assert!(spec.validate().is_err());

        let mut spec = tiny_spec();
        spec.algorithms = vec![Algorithm::Nsga2, Algorithm::Nsga2];
        assert!(spec.validate().is_err());
    }

    #[test]
    fn fingerprint_is_stable_and_spec_sensitive() {
        let spec = tiny_spec();
        assert_eq!(spec.fingerprint(), spec.fingerprint());
        let mut other = tiny_spec();
        other.base.rng_seed ^= 1;
        assert_ne!(spec.fingerprint(), other.fingerprint());
    }

    #[test]
    fn single_dataset_campaign_reproduces_framework_run() {
        let spec = CampaignSpec::single(&tiny_spec().base);
        let outcome = Campaign::new(spec.clone()).run(None).unwrap();
        assert!(outcome.is_complete());
        assert_eq!(outcome.reports.len(), 1);
        let direct = Framework::new(&spec.base).unwrap().run();
        assert_eq!(outcome.reports[0].report, direct);
    }

    #[test]
    fn campaign_resumes_from_manifest_bit_identically() {
        let spec = tiny_spec();
        let uninterrupted = Campaign::new(spec.clone()).run(None).unwrap();
        assert!(uninterrupted.is_complete());

        // Write a full manifest, then simulate a kill after three cells by
        // truncating it at a record boundary (deterministic regardless of
        // host core count, unlike racing the cancel token).
        let path = temp_manifest("resume");
        let _ = std::fs::remove_file(&path);
        Campaign::new(spec.clone()).run(Some(&path)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let kept: String = text.lines().take(1 + 3).fold(String::new(), |mut acc, l| {
            acc.push_str(l);
            acc.push('\n');
            acc
        });
        std::fs::write(&path, kept).unwrap();

        // Second invocation replays the manifest and finishes the rest.
        let resumed = Campaign::new(spec).run(Some(&path)).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(resumed.is_complete());
        assert_eq!(resumed.replayed, 3);
        assert_eq!(
            resumed.executed + resumed.replayed,
            uninterrupted.executed,
            "resume re-executed replayed cells"
        );
        assert_eq!(resumed.reports, uninterrupted.reports);
        // Byte-identical, not just PartialEq-identical.
        for (a, b) in resumed.reports.iter().zip(&uninterrupted.reports) {
            assert_eq!(
                serde_json::to_string(&a.report).unwrap(),
                serde_json::to_string(&b.report).unwrap()
            );
        }
    }

    #[test]
    fn failing_cell_is_retried_then_recorded_without_sinking_the_campaign() {
        let spec = tiny_spec();
        let doomed = CellId {
            dataset: DatasetId::One,
            algorithm: Algorithm::Spea2,
            seed: SeedKind::Random,
            replicate: 1,
        };
        let flaky = CellId {
            algorithm: Algorithm::Nsga2,
            ..doomed
        };
        let outcome = Campaign::new(spec)
            .attempts(2)
            .with_fault_injection(move |cell, attempt| {
                if *cell == doomed {
                    Some("injected permanent fault".to_string())
                } else if *cell == flaky && attempt == 1 {
                    Some("injected transient fault".to_string())
                } else {
                    None
                }
            })
            .run(None)
            .unwrap();
        assert_eq!(outcome.failed.len(), 1);
        assert_eq!(outcome.failed[0].cell, doomed);
        assert_eq!(outcome.failed[0].attempts, 2);
        assert_eq!(
            outcome.failed[0].error.as_deref(),
            Some("injected permanent fault")
        );
        // The transient cell recovered on attempt 2...
        assert!(outcome.skipped.is_empty());
        // ...so only the grid point containing the doomed cell is missing.
        assert_eq!(outcome.reports.len(), 3);
        assert!(outcome
            .report(doomed.dataset, doomed.algorithm, doomed.replicate)
            .is_none());
    }

    #[test]
    fn manifest_from_a_different_spec_is_rejected() {
        let path = temp_manifest("mismatch");
        let _ = std::fs::remove_file(&path);
        let spec = tiny_spec();
        Campaign::new(spec.clone()).run(Some(&path)).unwrap();
        let mut other = spec;
        other.base.rng_seed ^= 0xBEEF;
        let err = Campaign::new(other).run(Some(&path)).unwrap_err();
        let _ = std::fs::remove_file(&path);
        assert!(
            matches!(err, CoreError::Manifest(_)),
            "expected manifest mismatch, got {err:?}"
        );
    }

    #[test]
    fn torn_final_line_is_dropped_and_reexecuted() {
        let path = temp_manifest("torn");
        let _ = std::fs::remove_file(&path);
        let spec = tiny_spec();
        let full = Campaign::new(spec.clone()).run(Some(&path)).unwrap();
        assert!(full.is_complete());

        // Simulate a kill mid-write: truncate the file inside its last
        // record.
        let text = std::fs::read_to_string(&path).unwrap();
        let truncated = &text[..text.len() - 17];
        assert!(!truncated.ends_with('\n'));
        std::fs::write(&path, truncated).unwrap();

        let resumed = Campaign::new(spec).run(Some(&path)).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(resumed.is_complete());
        assert_eq!(resumed.executed, 1, "exactly the torn cell re-runs");
        assert_eq!(resumed.reports, full.reports);
    }

    #[test]
    fn a_resume_heals_a_torn_tail_so_the_next_resume_runs_nothing() {
        let path = temp_manifest("torn-twice");
        let _ = std::fs::remove_file(&path);
        let spec = tiny_spec();
        let uninterrupted = Campaign::new(spec.clone()).run(None).unwrap();
        Campaign::new(spec.clone()).run(Some(&path)).unwrap();

        // A kill mid-append cuts the last record 30 bytes short.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 30]).unwrap();

        let first = Campaign::new(spec.clone()).run(Some(&path)).unwrap();
        let second = Campaign::new(spec).run(Some(&path)).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(first.executed, 1, "exactly the torn cell re-runs");
        assert_eq!(
            second.executed, 0,
            "the first resume's record was glued onto the torn tail"
        );
        assert_eq!(second.reports, uninterrupted.reports);
    }

    #[test]
    fn observer_sees_full_cell_lifecycle_and_results_are_unchanged() {
        use crate::telemetry::Heartbeat;

        let spec = tiny_spec();
        let bare = Campaign::new(spec.clone()).run(None).unwrap();

        let flaky = CellId {
            dataset: DatasetId::One,
            algorithm: Algorithm::Nsga2,
            seed: SeedKind::Random,
            replicate: 1,
        };
        let registry = Arc::new(MetricsRegistry::new());
        let observed = Campaign::new(spec)
            .attempts(2)
            .with_fault_injection(move |cell, attempt| {
                (*cell == flaky && attempt == 1).then(|| "injected".to_string())
            })
            .with_telemetry(Arc::clone(&registry))
            .run(None)
            .unwrap();

        // Observation must not perturb the evolved populations.
        assert_eq!(observed.reports, bare.reports);

        let s = registry.snapshot();
        assert_eq!(s.cells_total, 8);
        assert_eq!(s.cells_started, 8);
        assert_eq!(s.cells_finished, 8);
        assert_eq!(s.cells_retried, 1);
        assert_eq!(s.cells_panicked, 1);
        assert_eq!(s.cells_failed, 0);
        assert!(s.generations > 0, "engine stats reached the registry");
        assert!(s.evaluations > 0);
        assert!(s.phase_evaluation_s > 0.0);
        assert_eq!(s.cell_duration_count, 8);
        assert!(s.ewma_cell_s > 0.0);
        // And the manifest-facing record carries the duration too.
        let _ = Heartbeat::to_writer(Vec::new(), Duration::ZERO); // exercised elsewhere
    }

    #[test]
    fn cell_records_carry_positive_durations() {
        let spec = CampaignSpec::single(&tiny_spec().base);
        let path = temp_manifest("duration");
        let _ = std::fs::remove_file(&path);
        Campaign::new(spec).run(Some(&path)).unwrap();
        let (_, records) = load_manifest(&path).unwrap().expect("non-empty manifest");
        let _ = std::fs::remove_file(&path);
        assert_eq!(records.len(), 2);
        assert!(records.iter().all(|r| r.duration_s > 0.0));
    }

    /// Runs `campaign` as a worker that must stop before its first
    /// claim: nothing executes, every cell is skipped, and the manifest
    /// holds no lease line.
    fn assert_worker_claims_nothing(campaign: Campaign, tag: &str) {
        let path = temp_manifest(tag);
        let _ = std::fs::remove_file(&path);
        let worker = crate::Worker::new(campaign, "w1").run(&path).unwrap();
        let (_, records) = load_manifest_records(&path).unwrap().unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(worker.executed, 0);
        assert_eq!(worker.outcome.executed, 0);
        assert_eq!(worker.outcome.skipped.len(), 8);
        assert!(worker.outcome.reports.is_empty());
        assert!(records.is_empty(), "a stopped worker appended {records:?}");
    }

    #[test]
    fn cancelled_campaign_skips_every_remaining_cell() {
        let campaign = Campaign::new(tiny_spec());
        campaign.cancel_token().cancel();
        let outcome = campaign.run(None).unwrap();
        assert_eq!(outcome.executed, 0);
        assert_eq!(outcome.skipped.len(), 8);
        assert!(outcome.reports.is_empty());
        assert!(!outcome.is_complete());

        let campaign = Campaign::new(tiny_spec());
        campaign.cancel_token().cancel();
        assert_worker_claims_nothing(campaign, "cancelled-worker");
    }

    #[test]
    fn expired_deadline_skips_every_cell() {
        let outcome = Campaign::new(tiny_spec())
            .deadline(Duration::ZERO)
            .run(None)
            .unwrap();
        assert_eq!(outcome.executed, 0);
        assert_eq!(outcome.skipped.len(), 8);
        assert!(outcome.reports.is_empty());

        let campaign = Campaign::new(tiny_spec()).deadline(Duration::ZERO);
        assert_worker_claims_nothing(campaign, "expired-worker");
    }

    #[test]
    fn load_manifest_rejects_corrupt_header_and_old_versions() {
        let path = temp_manifest("badheader");

        std::fs::write(&path, "{not json at all\n").unwrap();
        let err = load_manifest(&path).unwrap_err();
        assert!(
            matches!(&err, CoreError::Manifest(m) if m.contains("corrupt manifest header")),
            "got {err:?}"
        );

        // A v2 manifest (pre-`outcome` records) must be refused up front,
        // not half-parsed.
        std::fs::write(&path, "{\"fingerprint\":\"deadbeef\",\"version\":2}\n").unwrap();
        let err = load_manifest(&path).unwrap_err();
        assert!(
            matches!(&err, CoreError::Manifest(m) if m.contains("version 2 unsupported")),
            "got {err:?}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn v3_manifests_load_with_worker_and_epoch_defaulted() {
        // A campaign written by the previous release: v3 header, cell
        // records without `worker`/`epoch` keys. Must load with both
        // fields defaulted to None rather than being refused.
        let path = temp_manifest("v3compat");
        let record = CellRecord {
            cell: tiny_spec().cells()[0],
            run: None,
            error: Some("boom".to_string()),
            outcome: CellOutcome::Poisoned,
            attempts: 2,
            duration_s: 0.25,
            worker: None,
            epoch: None,
        };
        let line = serde_json::to_string(&record).unwrap();
        assert!(
            !line.contains("worker") && !line.contains("epoch"),
            "a record without worker/epoch serialises in the v3 shape: {line}"
        );
        std::fs::write(
            &path,
            format!("{{\"fingerprint\":\"cafe0000cafe0000\",\"version\":3}}\n{line}\n"),
        )
        .unwrap();
        let (owner, records) = load_manifest(&path).unwrap().expect("v3 manifest loads");
        let _ = std::fs::remove_file(&path);
        assert_eq!(owner, "cafe0000cafe0000");
        assert_eq!(records, vec![record]);
        assert_eq!(records[0].worker, None);
        assert_eq!(records[0].epoch, None);
    }

    #[test]
    fn load_manifest_handles_empty_and_header_only_files() {
        let path = temp_manifest("headeronly");

        std::fs::write(&path, "").unwrap();
        assert_eq!(load_manifest(&path).unwrap(), None, "empty file is fresh");

        let header = format!(
            "{{\"fingerprint\":\"cafe0000cafe0000\",\"version\":{}}}\n",
            crate::manifest::MANIFEST_VERSION
        );
        std::fs::write(&path, header).unwrap();
        let (owner, records) = load_manifest(&path).unwrap().expect("header parses");
        assert_eq!(owner, "cafe0000cafe0000");
        assert!(records.is_empty(), "header-only file has no records");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_off_the_engine_rng() {
        let spec = tiny_spec();
        let cell = spec.cells()[0];
        let other = spec.cells()[1];
        let campaign = Campaign::new(spec.clone())
            .retry_backoff(Duration::from_millis(40), Duration::from_millis(200));

        // Same campaign, same cell, same attempt: identical delays.
        let again = Campaign::new(spec.clone())
            .retry_backoff(Duration::from_millis(40), Duration::from_millis(200));
        for attempt in 2..=6 {
            let d = campaign.backoff_delay(&cell, attempt);
            assert_eq!(d, again.backoff_delay(&cell, attempt));
            // Equal jitter: window/2 <= delay <= window.
            let window = Duration::from_millis(200)
                .min(Duration::from_millis(40u64 << (attempt as u64 - 2).min(20)));
            assert!(d >= window / 2 && d <= window, "attempt {attempt}: {d:?}");
        }
        // Different cells draw different jitter (with overwhelming
        // likelihood for this seed), decorrelating retry stampedes.
        assert_ne!(
            campaign.backoff_delay(&cell, 3),
            campaign.backoff_delay(&other, 3)
        );
        // The first attempt and a zero base never wait.
        assert_eq!(campaign.backoff_delay(&cell, 1), Duration::ZERO);
        let no_backoff = Campaign::new(spec).retry_backoff(Duration::ZERO, Duration::ZERO);
        assert_eq!(no_backoff.backoff_delay(&cell, 5), Duration::ZERO);
    }

    #[test]
    fn attempt_budget_never_perturbs_engine_results() {
        // The backoff/jitter stream is off the engine RNGs: a campaign
        // retried through 4 injected failures produces reports
        // byte-identical to a first-try campaign.
        let spec = tiny_spec();
        let clean = Campaign::new(spec.clone()).attempts(1).run(None).unwrap();
        let flaky = CellId {
            dataset: DatasetId::One,
            algorithm: Algorithm::Nsga2,
            seed: SeedKind::MinEnergy,
            replicate: 0,
        };
        let retried = Campaign::new(spec)
            .attempts(5)
            .retry_backoff(Duration::from_millis(1), Duration::from_millis(2))
            .with_fault_injection(move |cell, attempt| {
                (*cell == flaky && attempt < 5).then(|| "transient".to_string())
            })
            .run(None)
            .unwrap();
        assert!(clean.is_complete() && retried.is_complete());
        assert_eq!(clean.reports, retried.reports);
        for (a, b) in clean.reports.iter().zip(&retried.reports) {
            assert_eq!(
                serde_json::to_string(&a.report).unwrap(),
                serde_json::to_string(&b.report).unwrap()
            );
        }
    }

    #[test]
    fn watchdogged_cells_match_inline_execution_bit_for_bit() {
        // A generous timeout moves every cell onto the watchdog thread
        // path without tripping it; results must not change.
        let spec = CampaignSpec::single(&tiny_spec().base);
        let inline = Campaign::new(spec.clone()).run(None).unwrap();
        let watched = Campaign::new(spec)
            .cell_timeout(Duration::from_secs(600))
            .run(None)
            .unwrap();
        assert!(watched.is_complete());
        assert_eq!(inline.reports, watched.reports);
        for (a, b) in inline.reports.iter().zip(&watched.reports) {
            assert_eq!(
                serde_json::to_string(&a.report).unwrap(),
                serde_json::to_string(&b.report).unwrap()
            );
        }
    }

    #[test]
    fn expired_watchdog_records_timed_out_without_retrying() {
        // A 1ns budget expires before any real cell can finish. The cells
        // are sized up (vs `tiny_spec`) so none can sneak a result into
        // the channel before the watchdog's first deadline check — a
        // completed result always wins over an expired deadline.
        let mut base = tiny_spec().base;
        base.tasks = 200;
        base.population = 48;
        base.snapshots = vec![30];
        let spec = CampaignSpec::single(&base);
        let outcome = Campaign::new(spec)
            .attempts(3)
            .cell_timeout(Duration::from_nanos(1))
            .run(None)
            .unwrap();
        assert!(outcome.reports.is_empty());
        assert_eq!(outcome.failed.len(), 2);
        for record in &outcome.failed {
            assert_eq!(record.outcome, CellOutcome::TimedOut);
            assert_eq!(record.attempts, 1, "timeouts are terminal, not retried");
            assert!(record.error.as_deref().unwrap().contains("cell timeout"));
        }
    }

    #[test]
    fn quarantined_cells_stay_poisoned_across_resume_until_requeued() {
        let spec = tiny_spec();
        let doomed = CellId {
            dataset: DatasetId::One,
            algorithm: Algorithm::Spea2,
            seed: SeedKind::Random,
            replicate: 1,
        };
        let path = temp_manifest("quarantine");
        let _ = std::fs::remove_file(&path);

        let first = Campaign::new(spec.clone())
            .attempts(1)
            .retry_backoff(Duration::ZERO, Duration::ZERO)
            .with_fault_injection(move |cell, _| {
                (*cell == doomed).then(|| "injected permanent fault".to_string())
            })
            .run(Some(&path))
            .unwrap();
        assert_eq!(first.failed.len(), 1);
        assert_eq!(first.failed[0].outcome, CellOutcome::Poisoned);

        // Resume without the fault: the poisoned record is quarantined,
        // not retried — the budget already condemned it.
        let resumed = Campaign::new(spec.clone()).run(Some(&path)).unwrap();
        assert_eq!(resumed.executed, 0, "quarantine re-executed a cell");
        assert_eq!(resumed.replayed, 8);
        assert_eq!(resumed.failed.len(), 1);
        assert_eq!(resumed.failed[0].cell, doomed);

        // Requeueing clears the quarantine; the fresh record supersedes
        // the poisoned one and the campaign completes.
        let requeued = Campaign::new(spec.clone())
            .requeue_quarantined(true)
            .run(Some(&path))
            .unwrap();
        assert_eq!(requeued.executed, 1);
        assert!(requeued.is_complete());

        // ...and the superseding record wins on the next replay too.
        let settled = Campaign::new(spec).run(Some(&path)).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(settled.is_complete());
        assert_eq!(settled.executed, 0);
        assert_eq!(settled.reports, requeued.reports);
    }
}
