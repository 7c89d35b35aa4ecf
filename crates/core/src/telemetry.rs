//! Campaign telemetry: a cheap, shareable metrics registry plus the
//! observer that feeds it from a running [`Campaign`].
//!
//! Three layers, each usable on its own:
//!
//! * [`MetricsRegistry`] — lock-free counters, gauges, and a fixed-bucket
//!   histogram of cell durations. Every mutation is a relaxed atomic, so
//!   the registry can be shared across the campaign's cell threads and
//!   read at any time by an exporter. Two export forms: a Prometheus-style
//!   text snapshot ([`MetricsRegistry::prometheus`]) and a structured
//!   [`MetricsSnapshot`] (serialisable, also the heartbeat's source).
//! * [`Heartbeat`] — a JSONL progress feed suitable for `tail -f`: one
//!   [`HeartbeatLine`] per interval with elapsed time, cells done/total,
//!   the EWMA cell duration, and an ETA. Opened in append mode so a
//!   killed-and-resumed campaign keeps writing to the same file and
//!   `cells_done` stays monotone across the restart.
//! * [`CampaignObserver`] — the campaign-level analogue of the engine's
//!   [`Observer`](hetsched_moea::observe::Observer) hook: per-cell
//!   lifecycle events plus the per-generation engine stats of every
//!   observed cell. The default [`NullCampaignObserver`] reports
//!   `enabled() == false` and the campaign then skips all event plumbing
//!   (and leaves the engines unobserved), so an untelemetered campaign
//!   pays one branch per event site. [`TelemetryObserver`] is the standard
//!   implementation: registry + optional heartbeat + a human progress line
//!   through `tracing`.
//!
//! [`Campaign`]: crate::campaign::Campaign

use crate::campaign::CellId;
use crate::chaos_hooks;
use crate::durable::lock_unpoisoned;
use crate::jsonl::{self, Writers};
use hetsched_moea::observe::GenerationStats;
use serde::{Deserialize, Serialize};
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Upper bucket boundaries (seconds) of the cell-duration histogram; an
/// implicit `+Inf` bucket follows the last entry. Roughly logarithmic from
/// a millisecond (test-sized cells) to ten minutes (paper-scale cells).
pub const CELL_DURATION_BUCKETS_S: [f64; 14] = [
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0, 600.0,
];

/// EWMA smoothing factor for the cell-duration estimate the heartbeat's
/// ETA is derived from. 0.3 tracks drift across a heterogeneous grid
/// (datasets of different sizes) without whiplashing on one outlier.
const EWMA_ALPHA: f64 = 0.3;

/// A fixed-bucket histogram with atomic counters — the minimal shape
/// Prometheus' histogram text format needs.
#[derive(Debug)]
pub struct DurationHistogram {
    /// Per-bucket observation counts (`CELL_DURATION_BUCKETS_S` plus the
    /// trailing `+Inf` bucket), non-cumulative.
    buckets: [AtomicU64; CELL_DURATION_BUCKETS_S.len() + 1],
    /// Sum of observed values, in nanoseconds.
    sum_ns: AtomicU64,
    count: AtomicU64,
}

impl Default for DurationHistogram {
    fn default() -> Self {
        DurationHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ns: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

impl DurationHistogram {
    /// Records one observation (seconds).
    pub fn observe(&self, seconds: f64) {
        let idx = CELL_DURATION_BUCKETS_S
            .iter()
            .position(|&bound| seconds <= bound)
            .unwrap_or(CELL_DURATION_BUCKETS_S.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_ns
            .fetch_add((seconds * 1e9) as u64, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

/// Atomically-updated campaign metrics, safe to share (`Arc`) between the
/// campaign's workers, a heartbeat ticker thread, and exporters.
///
/// Counters are monotone over the registry's lifetime; `cells_total` and
/// `cells_replayed` are set once at campaign start. A registry is
/// per-invocation state — resume a campaign with a *fresh* registry and
/// the replayed cells are accounted through `cells_replayed`, keeping
/// `cells_done` monotone across the restart.
#[derive(Debug)]
pub struct MetricsRegistry {
    started: Instant,
    cells_total: AtomicU64,
    cells_replayed: AtomicU64,
    cells_started: AtomicU64,
    cells_finished: AtomicU64,
    cells_retried: AtomicU64,
    cells_panicked: AtomicU64,
    cells_timed_out: AtomicU64,
    cells_poisoned: AtomicU64,
    cells_skipped: AtomicU64,
    generations: AtomicU64,
    evaluations: AtomicU64,
    leases_acquired: AtomicU64,
    leases_renewed: AtomicU64,
    leases_expired: AtomicU64,
    leases_stolen: AtomicU64,
    leases_fenced: AtomicU64,
    /// Configured worker-thread count executing cells (0 = not reported;
    /// the heartbeat ETA then falls back to the host's parallelism).
    workers: AtomicU64,
    phase_mating_ns: AtomicU64,
    phase_evaluation_ns: AtomicU64,
    phase_sorting_ns: AtomicU64,
    /// EWMA of cell wall-clock, stored as `f64::to_bits`.
    ewma_cell_bits: AtomicU64,
    /// Distribution of per-cell wall-clock.
    pub cell_duration: DurationHistogram,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            started: Instant::now(),
            cells_total: AtomicU64::new(0),
            cells_replayed: AtomicU64::new(0),
            cells_started: AtomicU64::new(0),
            cells_finished: AtomicU64::new(0),
            cells_retried: AtomicU64::new(0),
            cells_panicked: AtomicU64::new(0),
            cells_timed_out: AtomicU64::new(0),
            cells_poisoned: AtomicU64::new(0),
            cells_skipped: AtomicU64::new(0),
            generations: AtomicU64::new(0),
            evaluations: AtomicU64::new(0),
            leases_acquired: AtomicU64::new(0),
            leases_renewed: AtomicU64::new(0),
            leases_expired: AtomicU64::new(0),
            leases_stolen: AtomicU64::new(0),
            leases_fenced: AtomicU64::new(0),
            workers: AtomicU64::new(0),
            phase_mating_ns: AtomicU64::new(0),
            phase_evaluation_ns: AtomicU64::new(0),
            phase_sorting_ns: AtomicU64::new(0),
            ewma_cell_bits: AtomicU64::new(0.0f64.to_bits()),
            cell_duration: DurationHistogram::default(),
        }
    }
}

fn add_secs(cell: &AtomicU64, seconds: f64) {
    cell.fetch_add((seconds * 1e9) as u64, Ordering::Relaxed);
}

fn load_secs(cell: &AtomicU64) -> f64 {
    cell.load(Ordering::Relaxed) as f64 / 1e9
}

impl MetricsRegistry {
    /// A fresh registry; `started` is now.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the campaign's grid size and how many cells the manifest
    /// already covers (resume). Called once, at campaign start.
    pub fn set_grid(&self, total: usize, replayed: usize) {
        self.cells_total.store(total as u64, Ordering::Relaxed);
        self.cells_replayed
            .store(replayed as u64, Ordering::Relaxed);
    }

    /// Records how many worker threads actually execute cells, so the
    /// heartbeat's ETA divides by the configured pool rather than the
    /// host's full parallelism (which overstates throughput for serve
    /// jobs sharing a `--workers` pool). Called once at campaign start.
    pub fn set_workers(&self, workers: usize) {
        self.workers.store(workers as u64, Ordering::Relaxed);
    }

    /// As [`set_workers`](MetricsRegistry::set_workers), but only when no
    /// count has been reported yet — an explicitly configured pool share
    /// (serve's `--workers` split) wins over the campaign's own
    /// observation of the global pool.
    pub fn set_workers_if_unset(&self, workers: usize) {
        let _ =
            self.workers
                .compare_exchange(0, workers as u64, Ordering::Relaxed, Ordering::Relaxed);
    }

    /// A cell began executing.
    pub fn cell_started(&self) {
        self.cells_started.fetch_add(1, Ordering::Relaxed);
    }

    /// A cell finished successfully after `duration` of wall-clock.
    pub fn cell_finished(&self, duration: Duration) {
        self.cells_finished.fetch_add(1, Ordering::Relaxed);
        let seconds = duration.as_secs_f64();
        self.cell_duration.observe(seconds);
        // CAS loop: EWMA is a read-modify-write of an f64.
        let mut current = self.ewma_cell_bits.load(Ordering::Relaxed);
        loop {
            let old = f64::from_bits(current);
            let new = if old == 0.0 {
                seconds
            } else {
                EWMA_ALPHA * seconds + (1.0 - EWMA_ALPHA) * old
            };
            match self.ewma_cell_bits.compare_exchange_weak(
                current,
                new.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => current = seen,
            }
        }
    }

    /// A failed attempt is being retried.
    pub fn cell_retried(&self) {
        self.cells_retried.fetch_add(1, Ordering::Relaxed);
    }

    /// An attempt panicked (or was failed by fault injection).
    pub fn cell_panicked(&self) {
        self.cells_panicked.fetch_add(1, Ordering::Relaxed);
    }

    /// A cell's attempt exceeded the watchdog timeout (terminal; counts
    /// toward the `cells_failed` rollup).
    pub fn cell_timed_out(&self) {
        self.cells_timed_out.fetch_add(1, Ordering::Relaxed);
    }

    /// A cell exhausted its attempt budget and was quarantined (terminal;
    /// counts toward the `cells_failed` rollup).
    pub fn cell_poisoned(&self) {
        self.cells_poisoned.fetch_add(1, Ordering::Relaxed);
    }

    /// A cell was skipped (cancellation or deadline).
    pub fn cell_skipped(&self) {
        self.cells_skipped.fetch_add(1, Ordering::Relaxed);
    }

    /// A worker acquired a cell lease; `stolen` marks a takeover from an
    /// expired holder.
    pub fn lease_acquired(&self, stolen: bool) {
        self.leases_acquired.fetch_add(1, Ordering::Relaxed);
        if stolen {
            self.leases_stolen.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A worker's renewal thread extended a lease.
    pub fn lease_renewed(&self) {
        self.leases_renewed.fetch_add(1, Ordering::Relaxed);
    }

    /// A worker self-fenced an overdue lease.
    pub fn lease_expired(&self) {
        self.leases_expired.fetch_add(1, Ordering::Relaxed);
    }

    /// A worker's append was rejected because its lease was superseded.
    pub fn lease_fenced(&self) {
        self.leases_fenced.fetch_add(1, Ordering::Relaxed);
    }

    /// One engine generation completed somewhere in the campaign.
    pub fn generation(&self, stats: &GenerationStats) {
        self.generations.fetch_add(1, Ordering::Relaxed);
        self.evaluations
            .fetch_add(stats.evaluations as u64, Ordering::Relaxed);
        add_secs(&self.phase_mating_ns, stats.timings.mating_s);
        add_secs(&self.phase_evaluation_ns, stats.timings.evaluation_s);
        add_secs(&self.phase_sorting_ns, stats.timings.sorting_s);
    }

    /// Cells accounted for: replayed from the manifest plus finished by
    /// this invocation. Monotone within a run and across a resume.
    pub fn cells_done(&self) -> u64 {
        self.cells_replayed.load(Ordering::Relaxed) + self.cells_finished.load(Ordering::Relaxed)
    }

    /// A coherent-enough point-in-time copy of every metric (individual
    /// loads are relaxed; exact cross-counter consistency is not needed
    /// for progress reporting).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            elapsed_s: self.started.elapsed().as_secs_f64(),
            cells_total: self.cells_total.load(Ordering::Relaxed),
            cells_replayed: self.cells_replayed.load(Ordering::Relaxed),
            cells_started: self.cells_started.load(Ordering::Relaxed),
            cells_finished: self.cells_finished.load(Ordering::Relaxed),
            cells_retried: self.cells_retried.load(Ordering::Relaxed),
            cells_panicked: self.cells_panicked.load(Ordering::Relaxed),
            cells_timed_out: self.cells_timed_out.load(Ordering::Relaxed),
            cells_poisoned: self.cells_poisoned.load(Ordering::Relaxed),
            cells_failed: self.cells_timed_out.load(Ordering::Relaxed)
                + self.cells_poisoned.load(Ordering::Relaxed),
            cells_skipped: self.cells_skipped.load(Ordering::Relaxed),
            generations: self.generations.load(Ordering::Relaxed),
            evaluations: self.evaluations.load(Ordering::Relaxed),
            leases_acquired: self.leases_acquired.load(Ordering::Relaxed),
            leases_renewed: self.leases_renewed.load(Ordering::Relaxed),
            leases_expired: self.leases_expired.load(Ordering::Relaxed),
            leases_stolen: self.leases_stolen.load(Ordering::Relaxed),
            leases_fenced: self.leases_fenced.load(Ordering::Relaxed),
            workers: self.workers.load(Ordering::Relaxed),
            sim_evaluations: sim_evaluations_total(),
            faults_injected: chaos_faults_injected_total(),
            phase_mating_s: load_secs(&self.phase_mating_ns),
            phase_evaluation_s: load_secs(&self.phase_evaluation_ns),
            phase_sorting_s: load_secs(&self.phase_sorting_ns),
            ewma_cell_s: f64::from_bits(self.ewma_cell_bits.load(Ordering::Relaxed)),
            cell_duration_sum_s: load_secs(&self.cell_duration.sum_ns),
            cell_duration_count: self.cell_duration.count.load(Ordering::Relaxed),
            cell_duration_buckets: self.cell_duration.bucket_counts(),
        }
    }

    /// Renders the registry in the Prometheus text exposition format —
    /// the on-demand snapshot `--telemetry-out` writes.
    pub fn prometheus(&self) -> String {
        self.snapshot().prometheus()
    }
}
impl MetricsSnapshot {
    /// Renders the snapshot in the Prometheus text exposition format.
    /// The registry's [`MetricsRegistry::prometheus`] delegates here, and
    /// services that aggregate several registries ([`MetricsSnapshot::merge`])
    /// render the combined snapshot the same way.
    pub fn prometheus(&self) -> String {
        let s = self;
        let mut out = String::new();
        let mut metric = |name: &str, kind: &str, value: String| {
            out.push_str(&format!("# TYPE {name} {kind}\n{name} {value}\n"));
        };
        metric(
            "hetsched_campaign_uptime_seconds",
            "gauge",
            fmt_f64(s.elapsed_s),
        );
        metric(
            "hetsched_campaign_cells",
            "gauge",
            s.cells_total.to_string(),
        );
        metric(
            "hetsched_campaign_cells_done",
            "gauge",
            (s.cells_replayed + s.cells_finished).to_string(),
        );
        metric(
            "hetsched_campaign_cells_replayed_total",
            "counter",
            s.cells_replayed.to_string(),
        );
        metric(
            "hetsched_campaign_cells_started_total",
            "counter",
            s.cells_started.to_string(),
        );
        metric(
            "hetsched_campaign_cells_finished_total",
            "counter",
            s.cells_finished.to_string(),
        );
        metric(
            "hetsched_campaign_cells_retried_total",
            "counter",
            s.cells_retried.to_string(),
        );
        metric(
            "hetsched_campaign_cells_panicked_total",
            "counter",
            s.cells_panicked.to_string(),
        );
        metric(
            "hetsched_campaign_cells_timed_out_total",
            "counter",
            s.cells_timed_out.to_string(),
        );
        metric(
            "hetsched_campaign_cells_poisoned_total",
            "counter",
            s.cells_poisoned.to_string(),
        );
        metric(
            "hetsched_campaign_cells_failed_total",
            "counter",
            s.cells_failed.to_string(),
        );
        metric(
            "hetsched_chaos_faults_injected_total",
            "counter",
            s.faults_injected.to_string(),
        );
        metric(
            "hetsched_campaign_cells_skipped_total",
            "counter",
            s.cells_skipped.to_string(),
        );
        metric(
            "hetsched_engine_generations_total",
            "counter",
            s.generations.to_string(),
        );
        metric(
            "hetsched_engine_evaluations_total",
            "counter",
            s.evaluations.to_string(),
        );
        metric(
            "hetsched_sim_evaluations_total",
            "counter",
            s.sim_evaluations.to_string(),
        );
        metric(
            "hetsched_campaign_leases_acquired_total",
            "counter",
            s.leases_acquired.to_string(),
        );
        metric(
            "hetsched_campaign_leases_renewed_total",
            "counter",
            s.leases_renewed.to_string(),
        );
        metric(
            "hetsched_campaign_leases_expired_total",
            "counter",
            s.leases_expired.to_string(),
        );
        metric(
            "hetsched_campaign_leases_stolen_total",
            "counter",
            s.leases_stolen.to_string(),
        );
        metric(
            "hetsched_campaign_leases_fenced_total",
            "counter",
            s.leases_fenced.to_string(),
        );
        metric("hetsched_campaign_workers", "gauge", s.workers.to_string());
        out.push_str("# TYPE hetsched_engine_phase_seconds_total counter\n");
        for (phase, value) in [
            ("mating", s.phase_mating_s),
            ("evaluation", s.phase_evaluation_s),
            ("sorting", s.phase_sorting_s),
        ] {
            out.push_str(&format!(
                "hetsched_engine_phase_seconds_total{{phase=\"{phase}\"}} {}\n",
                fmt_f64(value)
            ));
        }
        out.push_str("# TYPE hetsched_campaign_cell_duration_seconds histogram\n");
        let mut cumulative = 0u64;
        for (i, count) in s.cell_duration_buckets.iter().enumerate() {
            cumulative += count;
            let le = CELL_DURATION_BUCKETS_S
                .get(i)
                .map(|b| fmt_f64(*b))
                .unwrap_or_else(|| "+Inf".to_string());
            out.push_str(&format!(
                "hetsched_campaign_cell_duration_seconds_bucket{{le=\"{le}\"}} {cumulative}\n"
            ));
        }
        out.push_str(&format!(
            "hetsched_campaign_cell_duration_seconds_sum {}\n",
            fmt_f64(s.cell_duration_sum_s)
        ));
        out.push_str(&format!(
            "hetsched_campaign_cell_duration_seconds_count {}\n",
            s.cell_duration_count
        ));
        out
    }

    /// Folds `other` into this snapshot, for services aggregating several
    /// per-campaign registries into one exposition: counters, phase times,
    /// and histogram buckets add; `elapsed_s` takes the maximum (oldest
    /// registry); the EWMA becomes a duration-count-weighted mean.
    /// `sim_evaluations` and `faults_injected` are process-wide totals
    /// every registry reports identically, so they take the maximum
    /// rather than double-counting.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        let self_w = self.cell_duration_count as f64;
        let other_w = other.cell_duration_count as f64;
        if self_w + other_w > 0.0 {
            self.ewma_cell_s =
                (self.ewma_cell_s * self_w + other.ewma_cell_s * other_w) / (self_w + other_w);
        }
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
        self.cells_total += other.cells_total;
        self.cells_replayed += other.cells_replayed;
        self.cells_started += other.cells_started;
        self.cells_finished += other.cells_finished;
        self.cells_retried += other.cells_retried;
        self.cells_panicked += other.cells_panicked;
        self.cells_timed_out += other.cells_timed_out;
        self.cells_poisoned += other.cells_poisoned;
        self.cells_failed += other.cells_failed;
        self.cells_skipped += other.cells_skipped;
        self.generations += other.generations;
        self.evaluations += other.evaluations;
        self.leases_acquired += other.leases_acquired;
        self.leases_renewed += other.leases_renewed;
        self.leases_expired += other.leases_expired;
        self.leases_stolen += other.leases_stolen;
        self.leases_fenced += other.leases_fenced;
        // Campaigns in one process share the worker pool, so the merged
        // view keeps the widest reported pool instead of summing.
        self.workers = self.workers.max(other.workers);
        self.sim_evaluations = self.sim_evaluations.max(other.sim_evaluations);
        self.faults_injected = self.faults_injected.max(other.faults_injected);
        self.phase_mating_s += other.phase_mating_s;
        self.phase_evaluation_s += other.phase_evaluation_s;
        self.phase_sorting_s += other.phase_sorting_s;
        self.cell_duration_sum_s += other.cell_duration_sum_s;
        self.cell_duration_count += other.cell_duration_count;
        if self.cell_duration_buckets.len() < other.cell_duration_buckets.len() {
            self.cell_duration_buckets
                .resize(other.cell_duration_buckets.len(), 0);
        }
        for (mine, theirs) in self
            .cell_duration_buckets
            .iter_mut()
            .zip(&other.cell_duration_buckets)
        {
            *mine += theirs;
        }
    }

    /// Merges an iterator of snapshots into one ([`MetricsSnapshot::merge`]
    /// folded over an all-zero start); `None` when the iterator is empty.
    pub fn aggregate<'a>(snapshots: impl IntoIterator<Item = &'a MetricsSnapshot>) -> Option<Self> {
        let mut iter = snapshots.into_iter();
        let mut acc = iter.next()?.clone();
        for s in iter {
            acc.merge(s);
        }
        Some(acc)
    }
}

/// Formats an f64 the way Prometheus text format expects (always with a
/// decimal representation, never scientific for the magnitudes we emit).
fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// The total `Evaluator::evaluate` calls this process has performed, when
/// the workspace is built with the `eval-counters` feature (routed from
/// `hetsched_sim`); 0 otherwise.
fn sim_evaluations_total() -> u64 {
    #[cfg(feature = "eval-counters")]
    {
        hetsched_sim::eval_counters::total()
    }
    #[cfg(not(feature = "eval-counters"))]
    {
        0
    }
}

/// The total chaos faults this process has injected, when built with the
/// `chaos` feature; 0 otherwise. Monotone across arm/disarm cycles, so
/// the telemetry layer accounts for every injected fault even after its
/// plan is gone.
fn chaos_faults_injected_total() -> u64 {
    #[cfg(feature = "chaos")]
    {
        hetsched_chaos::injected_total()
    }
    #[cfg(not(feature = "chaos"))]
    {
        0
    }
}

/// A point-in-time copy of the registry, serialisable for exporters and
/// tests.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Seconds since the registry was created.
    pub elapsed_s: f64,
    /// Grid size of the campaign.
    pub cells_total: u64,
    /// Cells satisfied from the manifest at start (resume).
    pub cells_replayed: u64,
    /// Cells that began executing in this invocation.
    pub cells_started: u64,
    /// Cells that finished successfully in this invocation.
    pub cells_finished: u64,
    /// Failed attempts that were retried.
    pub cells_retried: u64,
    /// Attempts that panicked (or were failed by fault injection).
    pub cells_panicked: u64,
    /// Cells whose attempt exceeded the watchdog timeout (terminal).
    pub cells_timed_out: u64,
    /// Cells quarantined after exhausting their attempt budget.
    pub cells_poisoned: u64,
    /// Terminal failures: `cells_timed_out + cells_poisoned`.
    pub cells_failed: u64,
    /// Cells skipped by cancellation or the deadline.
    pub cells_skipped: u64,
    /// Engine generations completed across all cells.
    pub generations: u64,
    /// Fitness evaluations reported by engine generation stats.
    pub evaluations: u64,
    /// Cell leases acquired by workers (distributed mode).
    pub leases_acquired: u64,
    /// Lease renewals appended by worker heartbeat threads.
    pub leases_renewed: u64,
    /// Leases self-fenced by their holder after an overdue renewal.
    pub leases_expired: u64,
    /// Leases taken over from expired holders.
    pub leases_stolen: u64,
    /// Worker appends rejected because the lease was superseded.
    pub leases_fenced: u64,
    /// Configured worker threads executing cells (0 = not reported).
    pub workers: u64,
    /// Process-wide simulator evaluation count (`eval-counters` builds
    /// only; 0 otherwise).
    pub sim_evaluations: u64,
    /// Process-wide injected chaos fault count (`chaos` builds only; 0
    /// otherwise).
    pub faults_injected: u64,
    /// Wall-clock spent in mating across all observed generations.
    pub phase_mating_s: f64,
    /// Wall-clock spent in evaluation across all observed generations.
    pub phase_evaluation_s: f64,
    /// Wall-clock spent in sorting/selection across all observed
    /// generations.
    pub phase_sorting_s: f64,
    /// EWMA of cell wall-clock (0 until the first cell finishes).
    pub ewma_cell_s: f64,
    /// Sum of observed cell durations.
    pub cell_duration_sum_s: f64,
    /// Number of observed cell durations.
    pub cell_duration_count: u64,
    /// Non-cumulative histogram bucket counts
    /// ([`CELL_DURATION_BUCKETS_S`] plus a trailing `+Inf`).
    pub cell_duration_buckets: Vec<u64>,
}

impl MetricsSnapshot {
    /// Cells accounted for (replayed + finished) — the heartbeat's
    /// monotone progress figure.
    pub fn cells_done(&self) -> u64 {
        self.cells_replayed + self.cells_finished
    }
}

/// One heartbeat line: the tail-able progress record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HeartbeatLine {
    /// Seconds since this invocation's registry was created.
    pub elapsed_s: f64,
    /// Cells accounted for: replayed from the manifest plus finished.
    pub cells_done: u64,
    /// Grid size.
    pub cells_total: u64,
    /// Cells that exhausted their attempt budget this invocation.
    pub cells_failed: u64,
    /// Failed attempts that were retried this invocation.
    pub cells_retried: u64,
    /// EWMA of cell wall-clock seconds (0 until a cell finishes).
    pub ewma_cell_s: f64,
    /// Estimated seconds to completion (EWMA × remaining ÷ workers);
    /// absent until the first cell finishes.
    pub eta_s: Option<f64>,
}

impl HeartbeatLine {
    /// Derives the line from a snapshot.
    pub fn from_snapshot(s: &MetricsSnapshot) -> Self {
        let done = s.cells_done();
        let settled = done + s.cells_failed + s.cells_skipped;
        let remaining = s.cells_total.saturating_sub(settled);
        // Prefer the registry's configured pool size — a serve job sharing
        // a `--workers` pool must not assume the whole host; the host's
        // parallelism is only the fallback for registries that never
        // reported one.
        let workers = if s.workers > 0 {
            s.workers as f64
        } else {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1) as f64
        };
        let eta_s =
            (s.ewma_cell_s > 0.0).then(|| s.ewma_cell_s * remaining as f64 / workers.max(1.0));
        HeartbeatLine {
            elapsed_s: s.elapsed_s,
            cells_done: done,
            cells_total: s.cells_total,
            cells_failed: s.cells_failed,
            cells_retried: s.cells_retried,
            ewma_cell_s: s.ewma_cell_s,
            eta_s,
        }
    }
}

/// A rate-limited JSONL progress sink. Appends (never truncates) so that
/// a resumed campaign continues the same file; [`Heartbeat::create`]
/// fsyncs every line so `tail -f`, a kill and a power loss lose nothing.
pub struct Heartbeat {
    sink: Mutex<jsonl::Sink>,
    every: Duration,
    /// Microseconds (since the owning registry's start) of the last emit;
    /// `u64::MAX` = never.
    last_emit_us: AtomicU64,
}

impl Heartbeat {
    /// Opens `path` for appending (creating it if needed).
    ///
    /// # Errors
    ///
    /// File open failures.
    pub fn create(path: impl AsRef<Path>, every: Duration) -> io::Result<Self> {
        let sink = jsonl::Sink::open(path.as_ref(), Writers::One, Some(1))?;
        Ok(Heartbeat::with_sink(sink, every))
    }

    /// Wraps any writer — for tests and in-memory capture.
    pub fn to_writer(writer: impl Write + Send + 'static, every: Duration) -> Self {
        Heartbeat::with_sink(jsonl::Sink::to_writer(writer), every)
    }

    fn with_sink(sink: jsonl::Sink, every: Duration) -> Self {
        Heartbeat {
            sink: Mutex::new(sink),
            every,
            last_emit_us: AtomicU64::new(u64::MAX),
        }
    }

    /// The configured emission interval.
    pub fn every(&self) -> Duration {
        self.every
    }

    /// Emits a line if at least the configured interval has passed since
    /// the last one (or none was ever written).
    pub fn maybe_emit(&self, registry: &MetricsRegistry) {
        let now_us = registry.started.elapsed().as_micros() as u64;
        let last = self.last_emit_us.load(Ordering::Relaxed);
        let due = last == u64::MAX || now_us.saturating_sub(last) >= self.every.as_micros() as u64;
        if !due {
            return;
        }
        // One writer wins the slot; losers skip rather than double-emit.
        if self
            .last_emit_us
            .compare_exchange(last, now_us, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            self.emit(registry);
        }
    }

    /// Emits a line unconditionally (campaign start and end do this so
    /// even short runs leave a record).
    pub fn emit(&self, registry: &MetricsRegistry) {
        self.last_emit_us.store(
            registry.started.elapsed().as_micros() as u64,
            Ordering::Relaxed,
        );
        // Poison-recovering lock + in-lock fault point: a heartbeat IO
        // failure (injected or real) is logged and swallowed — progress
        // reporting must never take the campaign down. The snapshot is
        // taken under the lock, so concurrent emitters write their lines
        // in snapshot order and progress never reads backwards.
        let mut sink = lock_unpoisoned(&self.sink);
        let line = HeartbeatLine::from_snapshot(&registry.snapshot());
        let wrote = chaos_hooks::raise_io("heartbeat.tick", &line.cells_done)
            .and_then(|()| sink.append(&line));
        if let Err(e) = wrote {
            tracing::warn!("heartbeat write failed: {e}");
        }
    }
}

/// Receives campaign lifecycle events. All methods default to no-ops, so
/// implementations override only what they consume; `&self` because events
/// arrive concurrently from the campaign's workers.
///
/// Mirrors the engine [`Observer`](hetsched_moea::observe::Observer)
/// contract: when [`enabled`](CampaignObserver::enabled) is `false` the
/// campaign skips event delivery *and* runs its engines unobserved, so
/// the null observer costs one branch per event site.
pub trait CampaignObserver: Send + Sync {
    /// Whether the campaign should deliver events at all.
    fn enabled(&self) -> bool {
        true
    }

    /// The grid has been expanded and the manifest replayed: `total`
    /// cells, of which `replayed` are already satisfied.
    fn on_campaign_start(&self, total: usize, replayed: usize) {
        let _ = (total, replayed);
    }

    /// How many worker threads will execute cells. Reported by the
    /// campaign right after `on_campaign_start`, from the actual pool it
    /// runs on — the number the heartbeat's ETA should divide by.
    fn on_workers(&self, workers: usize) {
        let _ = workers;
    }

    /// `cell` was satisfied from the manifest instead of executed
    /// (resume-skip).
    fn on_cell_replayed(&self, cell: &CellId) {
        let _ = cell;
    }

    /// `cell` began executing.
    fn on_cell_start(&self, cell: &CellId) {
        let _ = cell;
    }

    /// `cell` finished successfully after `attempts` attempts and
    /// `duration` of wall-clock (all attempts included).
    fn on_cell_finish(&self, cell: &CellId, attempts: usize, duration: Duration) {
        let _ = (cell, attempts, duration);
    }

    /// An attempt at `cell` panicked (or was failed by fault injection).
    fn on_cell_panic(&self, cell: &CellId, attempt: usize, error: &str) {
        let _ = (cell, attempt, error);
    }

    /// A failed attempt at `cell` is about to be retried.
    fn on_cell_retry(&self, cell: &CellId, next_attempt: usize) {
        let _ = (cell, next_attempt);
    }

    /// An attempt at `cell` exceeded the campaign's cell timeout; the
    /// cell was recorded as timed out (terminal).
    fn on_cell_timed_out(&self, cell: &CellId, attempt: usize, timeout: Duration) {
        let _ = (cell, attempt, timeout);
    }

    /// `cell` exhausted its attempt budget and was quarantined.
    fn on_cell_failed(&self, cell: &CellId, attempts: usize, error: &str) {
        let _ = (cell, attempts, error);
    }

    /// `cell` was not executed (cancellation or deadline).
    fn on_cell_skipped(&self, cell: &CellId) {
        let _ = cell;
    }

    /// One engine generation of `cell` completed — the campaign-level
    /// rollup of the engine's per-generation stats.
    fn on_generation(&self, cell: &CellId, stats: &GenerationStats) {
        let _ = (cell, stats);
    }

    /// A worker acquired a lease on `cell`; `stolen` marks a takeover
    /// from an expired holder. Distributed mode only.
    fn on_lease_acquired(&self, cell: &CellId, worker: &str, stolen: bool) {
        let _ = (cell, worker, stolen);
    }

    /// A worker's renewal thread extended its lease on `cell`.
    fn on_lease_renewed(&self, cell: &CellId, worker: &str) {
        let _ = (cell, worker);
    }

    /// A worker self-fenced its overdue lease on `cell`.
    fn on_lease_expired(&self, cell: &CellId, worker: &str) {
        let _ = (cell, worker);
    }

    /// A worker discarded a computed result because its lease on `cell`
    /// had been superseded.
    fn on_lease_fenced(&self, cell: &CellId, worker: &str) {
        let _ = (cell, worker);
    }

    /// The campaign invocation finished (successfully or not).
    fn on_campaign_end(&self) {}
}

/// The do-nothing campaign observer: `enabled()` is `false`, so a
/// campaign run with it skips all telemetry plumbing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullCampaignObserver;

impl CampaignObserver for NullCampaignObserver {
    fn enabled(&self) -> bool {
        false
    }
}

/// The standard telemetry pipeline: every event updates the
/// [`MetricsRegistry`]; cell completions additionally update the
/// heartbeat (when configured) and log a human progress line at `info`
/// level through the existing tracing sink.
pub struct TelemetryObserver {
    registry: Arc<MetricsRegistry>,
    heartbeat: Option<Heartbeat>,
}

impl TelemetryObserver {
    /// An observer feeding `registry`, with no heartbeat.
    pub fn new(registry: Arc<MetricsRegistry>) -> Self {
        TelemetryObserver {
            registry,
            heartbeat: None,
        }
    }

    /// Attaches a heartbeat sink.
    pub fn with_heartbeat(mut self, heartbeat: Heartbeat) -> Self {
        self.heartbeat = Some(heartbeat);
        self
    }

    /// The shared registry.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Emits a heartbeat line if one is due — called from cell events and
    /// the ticker thread.
    pub fn maybe_heartbeat(&self) {
        if let Some(hb) = &self.heartbeat {
            hb.maybe_emit(&self.registry);
        }
    }

    fn progress_line(&self) {
        let s = self.registry.snapshot();
        let line = HeartbeatLine::from_snapshot(&s);
        match line.eta_s {
            Some(eta) => tracing::info!(
                "campaign: {}/{} cells done ({} failed, {} retried), eta ~{eta:.1}s",
                line.cells_done,
                line.cells_total,
                line.cells_failed,
                line.cells_retried,
            ),
            None => tracing::info!(
                "campaign: {}/{} cells done ({} failed, {} retried)",
                line.cells_done,
                line.cells_total,
                line.cells_failed,
                line.cells_retried,
            ),
        }
    }
}

impl CampaignObserver for TelemetryObserver {
    fn on_campaign_start(&self, total: usize, replayed: usize) {
        self.registry.set_grid(total, replayed);
        if let Some(hb) = &self.heartbeat {
            hb.emit(&self.registry);
        }
    }

    fn on_workers(&self, workers: usize) {
        // `if_unset`: a daemon that already split its pool across jobs
        // knows the real share better than the campaign does.
        self.registry.set_workers_if_unset(workers);
    }

    fn on_cell_start(&self, _cell: &CellId) {
        self.registry.cell_started();
    }

    fn on_cell_finish(&self, _cell: &CellId, _attempts: usize, duration: Duration) {
        self.registry.cell_finished(duration);
        self.progress_line();
        self.maybe_heartbeat();
    }

    fn on_cell_panic(&self, _cell: &CellId, _attempt: usize, _error: &str) {
        self.registry.cell_panicked();
    }

    fn on_cell_retry(&self, _cell: &CellId, _next_attempt: usize) {
        self.registry.cell_retried();
    }

    fn on_cell_timed_out(&self, _cell: &CellId, _attempt: usize, _timeout: Duration) {
        self.registry.cell_timed_out();
        self.progress_line();
        self.maybe_heartbeat();
    }

    fn on_cell_failed(&self, _cell: &CellId, _attempts: usize, _error: &str) {
        self.registry.cell_poisoned();
        self.progress_line();
        self.maybe_heartbeat();
    }

    fn on_cell_skipped(&self, _cell: &CellId) {
        self.registry.cell_skipped();
    }

    fn on_cell_replayed(&self, _cell: &CellId) {}

    fn on_generation(&self, _cell: &CellId, stats: &GenerationStats) {
        self.registry.generation(stats);
    }

    fn on_lease_acquired(&self, _cell: &CellId, _worker: &str, stolen: bool) {
        self.registry.lease_acquired(stolen);
    }

    fn on_lease_renewed(&self, _cell: &CellId, _worker: &str) {
        self.registry.lease_renewed();
    }

    fn on_lease_expired(&self, _cell: &CellId, _worker: &str) {
        self.registry.lease_expired();
    }

    fn on_lease_fenced(&self, _cell: &CellId, _worker: &str) {
        self.registry.lease_fenced();
    }

    fn on_campaign_end(&self) {
        if let Some(hb) = &self.heartbeat {
            hb.emit(&self.registry);
        }
    }
}

/// A background thread that emits due heartbeat lines while cells run —
/// without it, a single long cell would silence the heartbeat for its
/// whole duration. Stopped (and joined) at once on drop.
pub struct HeartbeatTicker {
    stop: mpsc::Sender<()>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl HeartbeatTicker {
    /// Spawns the ticker. It polls `observer` at a fraction of the
    /// heartbeat interval; the heartbeat's own rate limit decides when a
    /// line is actually written.
    pub fn spawn(observer: Arc<TelemetryObserver>) -> Self {
        let (stop, stopped) = mpsc::channel();
        let every = observer
            .heartbeat
            .as_ref()
            .map(Heartbeat::every)
            .unwrap_or(Duration::from_secs(5));
        let poll = (every / 4).clamp(Duration::from_millis(20), Duration::from_millis(500));
        let handle = std::thread::spawn(move || {
            while let Err(mpsc::RecvTimeoutError::Timeout) = stopped.recv_timeout(poll) {
                observer.maybe_heartbeat();
            }
        });
        HeartbeatTicker {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for HeartbeatTicker {
    fn drop(&mut self) {
        let _ = self.stop.send(());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsched_moea::observe::PhaseTimings;

    /// A shared in-memory writer for asserting heartbeat output.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn stats(evaluations: usize) -> GenerationStats {
        GenerationStats {
            generation: 1,
            front_sizes: vec![4],
            ideal: [-1.0, 2.0],
            hypervolume: Some(3.0),
            crowding_spread: 0.1,
            evaluations,
            timings: PhaseTimings {
                mating_s: 0.5,
                evaluation_s: 1.0,
                sorting_s: 0.25,
            },
        }
    }

    #[test]
    fn registry_accumulates_events() {
        let reg = MetricsRegistry::new();
        reg.set_grid(10, 3);
        reg.cell_started();
        reg.cell_finished(Duration::from_millis(40));
        reg.cell_panicked();
        reg.cell_retried();
        reg.cell_timed_out();
        reg.cell_poisoned();
        reg.cell_skipped();
        reg.generation(&stats(16));
        reg.generation(&stats(16));
        let s = reg.snapshot();
        assert_eq!(s.cells_total, 10);
        assert_eq!(s.cells_replayed, 3);
        assert_eq!(s.cells_started, 1);
        assert_eq!(s.cells_finished, 1);
        assert_eq!(s.cells_panicked, 1);
        assert_eq!(s.cells_retried, 1);
        assert_eq!(s.cells_timed_out, 1);
        assert_eq!(s.cells_poisoned, 1);
        assert_eq!(s.cells_failed, 2, "failed rolls up timeouts + poisons");
        assert_eq!(s.cells_skipped, 1);
        assert_eq!(s.cells_done(), 4);
        assert_eq!(s.generations, 2);
        assert_eq!(s.evaluations, 32);
        assert!((s.phase_mating_s - 1.0).abs() < 1e-6);
        assert!((s.phase_evaluation_s - 2.0).abs() < 1e-6);
        assert!((s.phase_sorting_s - 0.5).abs() < 1e-6);
        assert!((s.ewma_cell_s - 0.04).abs() < 1e-6, "{}", s.ewma_cell_s);
    }

    #[test]
    fn ewma_tracks_recent_durations() {
        let reg = MetricsRegistry::new();
        reg.cell_finished(Duration::from_secs(1));
        assert!((reg.snapshot().ewma_cell_s - 1.0).abs() < 1e-9);
        reg.cell_finished(Duration::from_secs(2));
        // 0.3·2 + 0.7·1 = 1.3.
        assert!((reg.snapshot().ewma_cell_s - 1.3).abs() < 1e-9);
    }

    #[test]
    fn histogram_buckets_cover_the_range() {
        let hist = DurationHistogram::default();
        hist.observe(0.0005); // first bucket (≤ 0.001)
        hist.observe(0.06); // ≤ 0.1
        hist.observe(1e9); // +Inf
        let counts = hist.bucket_counts();
        assert_eq!(counts[0], 1);
        assert_eq!(counts[4], 1); // bounds: 0.001 0.005 0.01 0.05 0.1
        assert_eq!(*counts.last().unwrap(), 1);
        assert_eq!(hist.count.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn prometheus_snapshot_has_counters_and_cumulative_histogram() {
        let reg = MetricsRegistry::new();
        reg.set_grid(4, 1);
        reg.cell_finished(Duration::from_millis(2));
        reg.cell_finished(Duration::from_millis(700));
        let text = reg.prometheus();
        assert!(text.contains("# TYPE hetsched_campaign_cells_finished_total counter"));
        assert!(text.contains("hetsched_campaign_cells_finished_total 2"));
        assert!(text.contains("hetsched_campaign_cells_done 3"));
        assert!(text.contains("hetsched_engine_phase_seconds_total{phase=\"mating\"}"));
        // Histogram is cumulative and ends with +Inf == count.
        let inf_line = text
            .lines()
            .find(|l| l.contains("le=\"+Inf\""))
            .expect("+Inf bucket");
        assert!(inf_line.ends_with(" 2"), "{inf_line}");
        assert!(text.contains("hetsched_campaign_cell_duration_seconds_count 2"));
        // Every metric line parses as `name{labels} value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let value = line.rsplit(' ').next().unwrap();
            assert!(
                value.parse::<f64>().is_ok(),
                "unparseable value in {line:?}"
            );
        }
    }

    #[test]
    fn merge_adds_counters_and_keeps_process_wide_totals() {
        let a = MetricsRegistry::new();
        a.set_grid(4, 1);
        a.cell_started();
        a.cell_finished(Duration::from_millis(10));
        let b = MetricsRegistry::new();
        b.set_grid(2, 0);
        b.cell_started();
        b.cell_started();
        b.cell_finished(Duration::from_millis(700));
        b.cell_retried();

        // Each snapshot is taken once: parallel tests keep moving the
        // process-wide counters between two snapshots of one registry.
        let (snap_a, snap_b) = (a.snapshot(), b.snapshot());
        let mut merged = snap_a.clone();
        merged.merge(&snap_b);
        assert_eq!(merged.cells_total, 6);
        assert_eq!(merged.cells_replayed, 1);
        assert_eq!(merged.cells_started, 3);
        assert_eq!(merged.cells_finished, 2);
        assert_eq!(merged.cells_retried, 1);
        assert_eq!(merged.cell_duration_count, 2);
        // Process-wide totals (sim evaluations, chaos faults) must not
        // double: both registries report the same process counter.
        assert_eq!(
            merged.sim_evaluations,
            snap_a.sim_evaluations.max(snap_b.sim_evaluations)
        );
        // Histogram buckets add and the rendered exposition still sums.
        let text = merged.prometheus();
        assert!(text.contains("hetsched_campaign_cell_duration_seconds_count 2"));
        assert!(text.contains("hetsched_campaign_cells 6"));

        // Aggregating the same pair gives the same snapshot (modulo the
        // monotone elapsed clock, which we zero for comparison).
        let snaps = [snap_a, snap_b];
        let mut agg = MetricsSnapshot::aggregate(&snaps).unwrap();
        agg.elapsed_s = 0.0;
        merged.elapsed_s = 0.0;
        assert_eq!(agg.cells_total, merged.cells_total);
        assert_eq!(agg.cell_duration_buckets, merged.cell_duration_buckets);
        assert!(MetricsSnapshot::aggregate([]).is_none());
    }

    #[test]
    fn aggregate_of_an_empty_iterator_is_none() {
        assert!(MetricsSnapshot::aggregate([]).is_none());
        assert!(MetricsSnapshot::aggregate(Vec::<&MetricsSnapshot>::new()).is_none());
        // A single snapshot aggregates to itself.
        let reg = MetricsRegistry::new();
        reg.set_grid(3, 1);
        let s = reg.snapshot();
        let agg = MetricsSnapshot::aggregate([&s]).unwrap();
        assert_eq!(agg, s);
    }

    #[test]
    fn merging_zero_total_grids_stays_all_zero() {
        // Two registries that never saw a grid or a cell: every counter
        // stays zero, the EWMA is untouched (no division by a zero
        // weight), and the heartbeat derived from the merge has no ETA.
        let mut merged = MetricsRegistry::new().snapshot();
        merged.merge(&MetricsRegistry::new().snapshot());
        assert_eq!(merged.cells_total, 0);
        assert_eq!(merged.cells_done(), 0);
        assert_eq!(merged.cell_duration_count, 0);
        assert_eq!(merged.ewma_cell_s, 0.0);
        assert!(merged.ewma_cell_s.is_finite());
        let line = HeartbeatLine::from_snapshot(&merged);
        assert_eq!(line.eta_s, None);
    }

    #[test]
    fn merge_tolerates_mismatched_histogram_bucket_counts() {
        // An older snapshot (fewer buckets, e.g. deserialised from a
        // previous schema) must merge without truncating the newer one's
        // tail, in either merge direction.
        let reg = MetricsRegistry::new();
        reg.cell_finished(Duration::from_millis(10));
        let full = reg.snapshot();
        let mut short = full.clone();
        short.cell_duration_buckets.truncate(2);

        let mut a = full.clone();
        a.merge(&short);
        assert_eq!(
            a.cell_duration_buckets.len(),
            full.cell_duration_buckets.len()
        );
        let merged_total: u64 = a.cell_duration_buckets.iter().sum();
        let full_total: u64 = full.cell_duration_buckets.iter().sum();
        let short_total: u64 = short.cell_duration_buckets.iter().sum();
        assert_eq!(merged_total, full_total + short_total);

        // Short-then-full: the accumulator grows to the longer shape.
        let mut b = short.clone();
        b.merge(&full);
        assert_eq!(
            b.cell_duration_buckets.len(),
            full.cell_duration_buckets.len()
        );
        assert_eq!(b.cell_duration_buckets.iter().sum::<u64>(), merged_total);
    }

    #[test]
    fn ewma_merge_ignores_the_empty_side() {
        // One populated snapshot + one that never finished a cell: the
        // merged EWMA must equal the populated side exactly (weight 0
        // contributes nothing), regardless of merge order.
        let reg = MetricsRegistry::new();
        reg.cell_finished(Duration::from_secs(2));
        let populated = reg.snapshot();
        let empty = MetricsRegistry::new().snapshot();

        let mut a = populated.clone();
        a.merge(&empty);
        assert_eq!(a.ewma_cell_s, populated.ewma_cell_s);

        let mut b = empty.clone();
        b.merge(&populated);
        assert_eq!(b.ewma_cell_s, populated.ewma_cell_s);

        // Both populated: duration-count-weighted mean.
        let other = MetricsRegistry::new();
        other.cell_finished(Duration::from_secs(4));
        let mut c = populated.clone();
        c.merge(&other.snapshot());
        assert!((c.ewma_cell_s - 3.0).abs() < 1e-9, "{}", c.ewma_cell_s);
    }

    #[test]
    fn heartbeat_eta_divides_by_the_configured_worker_count() {
        // 10 cells remaining at an EWMA of 2 s/cell: with 2 configured
        // workers the ETA is 10 s — not 20/host_cores, whatever the host.
        let reg = MetricsRegistry::new();
        reg.set_grid(11, 0);
        reg.set_workers(2);
        reg.cell_finished(Duration::from_secs(2));
        let line = HeartbeatLine::from_snapshot(&reg.snapshot());
        let eta = line.eta_s.expect("one finished cell seeds the EWMA");
        assert!((eta - 10.0).abs() < 1e-9, "{eta}");
    }

    #[test]
    fn workers_merge_takes_the_widest_pool() {
        let a = MetricsRegistry::new();
        a.set_workers(4);
        let b = MetricsRegistry::new();
        b.set_workers(2);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.workers, 4);
        // if_unset respects an explicit value but fills a missing one.
        b.set_workers_if_unset(8);
        assert_eq!(b.snapshot().workers, 2);
        let c = MetricsRegistry::new();
        c.set_workers_if_unset(8);
        assert_eq!(c.snapshot().workers, 8);
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let reg = MetricsRegistry::new();
        reg.set_grid(2, 0);
        reg.cell_finished(Duration::from_millis(10));
        let s = reg.snapshot();
        let json = serde_json::to_string(&s).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn heartbeat_rate_limits_and_reports_progress() {
        let buf = SharedBuf::default();
        let reg = MetricsRegistry::new();
        reg.set_grid(8, 2);
        let hb = Heartbeat::to_writer(buf.clone(), Duration::from_secs(3600));
        hb.maybe_emit(&reg); // first is always due
        reg.cell_finished(Duration::from_millis(5));
        hb.maybe_emit(&reg); // within the interval: suppressed
        hb.emit(&reg); // forced
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<HeartbeatLine> = text
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].cells_done, 2);
        assert_eq!(lines[1].cells_done, 3);
        assert_eq!(lines[1].cells_total, 8);
        assert!(lines[0].eta_s.is_none());
        assert!(lines[1].eta_s.unwrap() > 0.0);
        // Monotone progress.
        assert!(lines[1].cells_done >= lines[0].cells_done);
        assert!(lines[1].elapsed_s >= lines[0].elapsed_s);
    }

    #[test]
    fn telemetry_observer_feeds_registry_and_heartbeat() {
        let buf = SharedBuf::default();
        let reg = Arc::new(MetricsRegistry::new());
        let obs = TelemetryObserver::new(Arc::clone(&reg))
            .with_heartbeat(Heartbeat::to_writer(buf.clone(), Duration::ZERO));
        let cell = sample_cell();
        obs.on_campaign_start(4, 1);
        obs.on_cell_start(&cell);
        obs.on_generation(&cell, &stats(8));
        obs.on_cell_panic(&cell, 1, "boom");
        obs.on_cell_retry(&cell, 2);
        obs.on_cell_finish(&cell, 2, Duration::from_millis(12));
        obs.on_cell_timed_out(&cell, 1, Duration::from_millis(5));
        obs.on_cell_failed(&cell, 2, "poisoned");
        obs.on_campaign_end();
        let s = reg.snapshot();
        assert_eq!(s.cells_started, 1);
        assert_eq!(s.cells_finished, 1);
        assert_eq!(s.cells_panicked, 1);
        assert_eq!(s.cells_retried, 1);
        assert_eq!(s.cells_timed_out, 1);
        assert_eq!(s.cells_poisoned, 1);
        assert_eq!(s.cells_failed, 2);
        assert_eq!(s.evaluations, 8);
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<HeartbeatLine> = text
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        // start + finish + timeout + failure + end, interval 0 so nothing
        // suppressed.
        assert_eq!(lines.len(), 5);
        assert_eq!(lines.last().unwrap().cells_done, 2);
        assert_eq!(lines.last().unwrap().cells_failed, 2);
    }

    #[test]
    fn null_observer_is_disabled() {
        assert!(!NullCampaignObserver.enabled());
        // Default trait methods are no-ops: just exercise them.
        NullCampaignObserver.on_campaign_start(1, 0);
        NullCampaignObserver.on_cell_skipped(&sample_cell());
        NullCampaignObserver.on_campaign_end();
    }

    #[test]
    fn ticker_emits_without_cell_events() {
        let buf = SharedBuf::default();
        let reg = Arc::new(MetricsRegistry::new());
        reg.set_grid(2, 0);
        let obs = Arc::new(
            TelemetryObserver::new(reg)
                .with_heartbeat(Heartbeat::to_writer(buf.clone(), Duration::from_millis(30))),
        );
        {
            let _ticker = HeartbeatTicker::spawn(Arc::clone(&obs));
            std::thread::sleep(Duration::from_millis(200));
        } // drop joins the thread
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert!(
            text.lines().count() >= 2,
            "ticker should have emitted: {text:?}"
        );
    }

    #[test]
    fn dropping_a_ticker_stops_it_without_waiting_out_its_poll() {
        let obs = Arc::new(
            TelemetryObserver::new(Arc::new(MetricsRegistry::new()))
                .with_heartbeat(Heartbeat::to_writer(Vec::new(), Duration::from_secs(5))),
        );
        let started = Instant::now();
        drop(HeartbeatTicker::spawn(obs));
        let took = started.elapsed();
        assert!(took < Duration::from_millis(250), "drop took {took:?}");
    }

    fn sample_cell() -> CellId {
        CellId {
            dataset: crate::config::DatasetId::One,
            algorithm: hetsched_moea::Algorithm::Nsga2,
            seed: hetsched_heuristics::SeedKind::Random,
            replicate: 0,
        }
    }
}
