//! Campaign telemetry: one shareable metrics registry that a running
//! [`Campaign`] reports to, and the progress feeds derived from it.
//!
//! * [`MetricsRegistry`] — counters, gauges, phase times, and a
//!   fixed-bucket histogram of cell durations. Every metric is a field of
//!   one [`MetricsSnapshot`] behind one mutex, so a snapshot is exact: it
//!   never sees one counter of an event updated and another not yet.
//!   Attach a registry with [`Campaign::with_telemetry`]; the campaign's
//!   executor and lease policy call it directly, and a campaign without
//!   one runs its engines unobserved. Two export forms: a
//!   Prometheus-style text snapshot ([`MetricsRegistry::prometheus`]) and
//!   the structured [`MetricsSnapshot`] (serialisable, also the
//!   heartbeat's source). Whenever a cell settles the registry logs a
//!   human progress line through `tracing`.
//! * [`Heartbeat`] — a JSONL progress feed suitable for `tail -f`: one
//!   [`HeartbeatLine`] per interval with elapsed time, cells done/total,
//!   the EWMA cell duration, and an ETA. Opened in append mode so a
//!   killed-and-resumed campaign keeps writing to the same file and
//!   `cells_done` stays monotone across the restart. A registry carries
//!   at most one ([`MetricsRegistry::with_heartbeat`]).
//!
//! [`Campaign`]: crate::campaign::Campaign
//! [`Campaign::with_telemetry`]: crate::campaign::Campaign::with_telemetry

use crate::durable::lock_unpoisoned;
use crate::jsonl::{self, Writers};
use hetsched_moea::observe::GenerationStats;
use hetsched_sim::chaos;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::{self, Write};
use std::path::Path;
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

/// Campaign metrics, safe to share (`Arc`) between the campaign's
/// workers, a heartbeat ticker thread, and exporters.
///
/// Counters are monotone over the registry's lifetime; `cells_total` and
/// `cells_replayed` are set once at campaign start. A registry is
/// per-invocation state — resume a campaign with a *fresh* registry and
/// the replayed cells are accounted through `cells_replayed`, keeping
/// `cells_done` monotone across the restart.
///
/// Each update holds the lock for a few additions. No method calls out to
/// the heartbeat or to `tracing` while it holds the lock.
pub struct MetricsRegistry {
    started: Instant,
    /// Every metric except the elapsed time and the two process-wide
    /// totals, which [`MetricsRegistry::snapshot`] fills in.
    metrics: Mutex<MetricsSnapshot>,
    heartbeat: Option<Heartbeat>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            started: Instant::now(),
            metrics: Mutex::new(MetricsSnapshot {
                cell_duration_buckets: vec![0; CELL_DURATION_BUCKETS_S.len() + 1],
                ..MetricsSnapshot::default()
            }),
            heartbeat: None,
        }
    }
}

impl fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("metrics", &self.snapshot())
            .field("heartbeat", &self.heartbeat.is_some())
            .finish()
    }
}

impl MetricsRegistry {
    /// A fresh registry; `started` is now.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a heartbeat sink: the campaign writes its start and end
    /// lines, and a settling cell writes one once the interval has passed.
    pub fn with_heartbeat(mut self, heartbeat: Heartbeat) -> Self {
        self.heartbeat = Some(heartbeat);
        self
    }

    /// Emits a heartbeat line if one is attached and due — called when a
    /// cell settles and by the ticker thread.
    pub fn maybe_heartbeat(&self) {
        if let Some(hb) = &self.heartbeat {
            hb.maybe_emit(self);
        }
    }

    fn update(&self, update: impl FnOnce(&mut MetricsSnapshot)) {
        update(&mut lock_unpoisoned(&self.metrics));
    }

    /// Applies the event that settled a cell, then, with the lock
    /// released, logs the progress line and emits a due heartbeat line.
    fn settle(&self, update: impl FnOnce(&mut MetricsSnapshot)) {
        self.update(update);
        let line = HeartbeatLine::from_snapshot(&self.snapshot());
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
        self.maybe_heartbeat();
    }

    /// Records the campaign's grid size and how many cells the manifest
    /// already covers (resume). Called once, at campaign start.
    pub fn set_grid(&self, total: usize, replayed: usize) {
        self.update(|m| {
            m.cells_total = total as u64;
            m.cells_replayed = replayed as u64;
        });
    }

    /// Records how many worker threads actually execute cells, so the
    /// heartbeat's ETA divides by the configured pool rather than the
    /// host's full parallelism (which overstates throughput for serve
    /// jobs sharing a `--workers` pool). Called once at campaign start.
    pub fn set_workers(&self, workers: usize) {
        self.update(|m| m.workers = workers as u64);
    }

    /// As [`set_workers`](MetricsRegistry::set_workers), but only when no
    /// count has been reported yet — an explicitly configured pool share
    /// (serve's `--workers` split) wins over the campaign's own
    /// observation of the global pool.
    pub fn set_workers_if_unset(&self, workers: usize) {
        self.update(|m| {
            if m.workers == 0 {
                m.workers = workers as u64;
            }
        });
    }

    /// The campaign expanded its grid and replayed its manifest: `total`
    /// cells, `replayed` of them already satisfied, to be run on
    /// `workers` threads. Writes the heartbeat's start line.
    pub(crate) fn campaign_started(&self, total: usize, replayed: usize, workers: usize) {
        self.set_grid(total, replayed);
        self.set_workers_if_unset(workers);
        if let Some(hb) = &self.heartbeat {
            hb.emit(self);
        }
    }

    /// The campaign invocation finished with `skipped` cells never run
    /// (cancellation or deadline). Writes the heartbeat's end line.
    pub(crate) fn campaign_ended(&self, skipped: usize) {
        self.update(|m| m.cells_skipped += skipped as u64);
        if let Some(hb) = &self.heartbeat {
            hb.emit(self);
        }
    }

    /// A cell began executing.
    pub fn cell_started(&self) {
        self.update(|m| m.cells_started += 1);
    }

    /// A cell finished successfully after `duration` of wall-clock.
    pub fn cell_finished(&self, duration: Duration) {
        let seconds = duration.as_secs_f64();
        let bucket = CELL_DURATION_BUCKETS_S
            .iter()
            .position(|&bound| seconds <= bound)
            .unwrap_or(CELL_DURATION_BUCKETS_S.len());
        self.settle(|m| {
            m.cells_finished += 1;
            m.cell_duration_buckets[bucket] += 1;
            m.cell_duration_sum_s += seconds;
            m.cell_duration_count += 1;
            m.ewma_cell_s = if m.ewma_cell_s == 0.0 {
                seconds
            } else {
                EWMA_ALPHA * seconds + (1.0 - EWMA_ALPHA) * m.ewma_cell_s
            };
        });
    }

    /// A failed attempt is being retried.
    pub fn cell_retried(&self) {
        self.update(|m| m.cells_retried += 1);
    }

    /// An attempt panicked (or was failed by fault injection).
    pub fn cell_panicked(&self) {
        self.update(|m| m.cells_panicked += 1);
    }

    /// A cell's attempt exceeded the watchdog timeout (terminal; counts
    /// toward the `cells_failed` rollup).
    pub fn cell_timed_out(&self) {
        self.settle(|m| {
            m.cells_timed_out += 1;
            m.cells_failed += 1;
        });
    }

    /// A cell exhausted its attempt budget and was quarantined (terminal;
    /// counts toward the `cells_failed` rollup).
    pub fn cell_poisoned(&self) {
        self.settle(|m| {
            m.cells_poisoned += 1;
            m.cells_failed += 1;
        });
    }

    /// A cell was skipped (cancellation or deadline).
    pub fn cell_skipped(&self) {
        self.update(|m| m.cells_skipped += 1);
    }

    /// A worker acquired a cell lease; `stolen` marks a takeover from an
    /// expired holder.
    pub fn lease_acquired(&self, stolen: bool) {
        self.update(|m| {
            m.leases_acquired += 1;
            m.leases_stolen += u64::from(stolen);
        });
    }

    /// A worker's renewal thread extended a lease.
    pub fn lease_renewed(&self) {
        self.update(|m| m.leases_renewed += 1);
    }

    /// A worker self-fenced an overdue lease.
    pub fn lease_expired(&self) {
        self.update(|m| m.leases_expired += 1);
    }

    /// A worker's append was rejected because its lease was superseded.
    pub fn lease_fenced(&self) {
        self.update(|m| m.leases_fenced += 1);
    }

    /// One engine generation completed somewhere in the campaign.
    pub fn generation(&self, stats: &GenerationStats) {
        self.update(|m| {
            m.generations += 1;
            m.evaluations += stats.evaluations as u64;
            m.phase_mating_s += stats.timings.mating_s;
            m.phase_evaluation_s += stats.timings.evaluation_s;
            m.phase_sorting_s += stats.timings.sorting_s;
        });
    }

    /// Cells accounted for: replayed from the manifest plus finished by
    /// this invocation. Monotone within a run and across a resume.
    pub fn cells_done(&self) -> u64 {
        lock_unpoisoned(&self.metrics).cells_done()
    }

    /// An exact point-in-time copy of every metric: one copy taken under
    /// the lock, plus the elapsed time and the process-wide totals.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snapshot = lock_unpoisoned(&self.metrics).clone();
        snapshot.elapsed_s = self.started.elapsed().as_secs_f64();
        snapshot.sim_evaluations = hetsched_sim::eval_counters::total();
        snapshot.faults_injected = chaos::injected_total();
        snapshot
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

/// A point-in-time copy of the registry, serialisable for exporters and
/// tests.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
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
    /// Process-wide count of simulator evaluations (`Evaluator::evaluate`
    /// calls).
    pub sim_evaluations: u64,
    /// Process-wide injected chaos fault count, monotone across arm and
    /// disarm cycles, so every injected fault is counted even after its
    /// plan is gone.
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
    every: Duration,
    /// The sink, and when (on the registry's clock) it last wrote a line.
    out: Mutex<(jsonl::Sink, Option<Duration>)>,
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
            every,
            out: Mutex::new((sink, None)),
        }
    }

    /// The configured emission interval.
    pub fn every(&self) -> Duration {
        self.every
    }

    /// Emits a line if at least the configured interval has passed since
    /// the last one (or none was ever written).
    pub fn maybe_emit(&self, registry: &MetricsRegistry) {
        self.append(registry, false);
    }

    /// Emits a line unconditionally (campaign start and end do this so
    /// even short runs leave a record).
    pub fn emit(&self, registry: &MetricsRegistry) {
        self.append(registry, true);
    }

    fn append(&self, registry: &MetricsRegistry, force: bool) {
        // Poison-recovering lock + in-lock fault point: a heartbeat IO
        // failure (injected or real) is logged and swallowed — progress
        // reporting must never take the campaign down. The due check and
        // the snapshot happen under the lock, so concurrent emitters
        // neither double-emit nor write their lines out of snapshot
        // order, and progress never reads backwards.
        let mut out = lock_unpoisoned(&self.out);
        let (sink, last) = &mut *out;
        let now = registry.started.elapsed();
        if !force && last.is_some_and(|last| now.saturating_sub(last) < self.every) {
            return;
        }
        *last = Some(now);
        let line = HeartbeatLine::from_snapshot(&registry.snapshot());
        let wrote =
            chaos::raise_io("heartbeat.tick", &line.cells_done).and_then(|()| sink.append(&line));
        if let Err(e) = wrote {
            tracing::warn!("heartbeat write failed: {e}");
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
    /// Spawns the ticker. It polls `registry` at a fraction of its
    /// heartbeat's interval; the heartbeat's own rate limit decides when
    /// a line is actually written.
    pub fn spawn(registry: Arc<MetricsRegistry>) -> Self {
        let (stop, stopped) = mpsc::channel();
        let every = registry
            .heartbeat
            .as_ref()
            .map_or(Duration::from_secs(5), Heartbeat::every);
        let poll = (every / 4).clamp(Duration::from_millis(20), Duration::from_millis(500));
        let handle = std::thread::spawn(move || {
            while let Err(mpsc::RecvTimeoutError::Timeout) = stopped.recv_timeout(poll) {
                registry.maybe_heartbeat();
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
        let reg = MetricsRegistry::new();
        reg.cell_finished(Duration::from_secs_f64(0.0005)); // first bucket (≤ 0.001)
        reg.cell_finished(Duration::from_secs_f64(0.06)); // ≤ 0.1
        reg.cell_finished(Duration::from_secs_f64(1e9)); // +Inf
        let s = reg.snapshot();
        let counts = &s.cell_duration_buckets;
        assert_eq!(counts[0], 1);
        assert_eq!(counts[4], 1); // bounds: 0.001 0.005 0.01 0.05 0.1
        assert_eq!(*counts.last().unwrap(), 1);
        assert_eq!(s.cell_duration_count, 3);
    }

    #[test]
    fn snapshots_taken_during_updates_are_exact() {
        // Each finished cell moves three metrics; under one lock no
        // snapshot can see some of them moved and not the others.
        let reg = Arc::new(MetricsRegistry::new());
        let writers: Vec<_> = (0..2)
            .map(|_| {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || {
                    for _ in 0..2000 {
                        reg.cell_finished(Duration::from_millis(3));
                    }
                })
            })
            .collect();
        let mut seen = 0;
        while seen < 4000 {
            let s = reg.snapshot();
            assert_eq!(s.cells_finished, s.cell_duration_count);
            assert_eq!(
                s.cell_duration_buckets.iter().sum::<u64>(),
                s.cells_finished
            );
            seen = s.cells_finished;
        }
        for writer in writers {
            writer.join().unwrap();
        }
        assert_eq!(reg.snapshot().cells_finished, 4000);
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
    fn registry_feeds_its_heartbeat() {
        let buf = SharedBuf::default();
        let reg = MetricsRegistry::new()
            .with_heartbeat(Heartbeat::to_writer(buf.clone(), Duration::ZERO));
        reg.campaign_started(4, 1, 2);
        reg.cell_started();
        reg.generation(&stats(8));
        reg.cell_panicked();
        reg.cell_retried();
        reg.cell_finished(Duration::from_millis(12));
        reg.cell_timed_out();
        reg.cell_poisoned();
        reg.campaign_ended(0);
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
    fn ticker_emits_without_cell_events() {
        let buf = SharedBuf::default();
        let reg = Arc::new(
            MetricsRegistry::new()
                .with_heartbeat(Heartbeat::to_writer(buf.clone(), Duration::from_millis(30))),
        );
        reg.set_grid(2, 0);
        {
            let _ticker = HeartbeatTicker::spawn(Arc::clone(&reg));
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
        let reg = Arc::new(
            MetricsRegistry::new()
                .with_heartbeat(Heartbeat::to_writer(Vec::new(), Duration::from_secs(5))),
        );
        let started = Instant::now();
        drop(HeartbeatTicker::spawn(reg));
        let took = started.elapsed();
        assert!(took < Duration::from_millis(250), "drop took {took:?}");
    }
}
