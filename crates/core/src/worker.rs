//! Distributed campaign execution: the `hetsched work` worker.
//!
//! A [`Worker`] runs its [`Campaign`] through the same executor as
//! [`Campaign::run`] — frameworks, cell machinery (watchdog, retries,
//! quarantine), spans, telemetry, cancel and deadline are shared — with a
//! different claim policy: one loop on the calling thread that leases
//! cells through the manifest instead of pulling them off an in-memory
//! queue. Workers coordinate **entirely through the manifest**: there is
//! no network protocol, no coordinator process, and no shared memory —
//! just interleaved cell and [`LeaseRecord`] lines in one append-only log
//! (see [`crate::manifest`]).
//!
//! # The lease protocol
//!
//! For each cell a worker wants to run it executes a read-decide-append
//! critical section under the store lock:
//!
//! 1. **tail + replay** the manifest; pick the first cell in canonical
//!    grid order that has no surviving result and no live lease. If every
//!    such cell is validly leased elsewhere, release the lock and wait
//!    until the manifest grows, the earliest of those leases lapses, or
//!    the campaign is cancelled or out of time — whichever comes first.
//! 2. **acquire**: append `Acquire` at `epoch = max_epoch(cell) + 1` with
//!    a wall-clock deadline `now + ttl`. Claiming over an *expired*
//!    lease (the holder stopped renewing — it is presumed dead) is a
//!    **steal**; the epoch bump is what fences the previous holder.
//! 3. **run** the cell while a heartbeat thread appends `Renew` every
//!    `ttl/3`. A heartbeat that oversleeps past its own deadline appends
//!    `Expire` and stops — self-fencing, so a paused worker never
//!    believes it still holds a lease another worker has since stolen.
//! 4. **append** the result tagged with `(worker, epoch)`, then
//!    `Release` — but only after re-checking under the lock that the
//!    epoch still admits: if another worker stole the lease while this
//!    one was stalled, the result is discarded *here*, and even a worker
//!    that skips this check (a true zombie) is fenced at merge time by
//!    [`crate::manifest::replay_records`].
//!
//! Because every cell runs on an RNG stream derived purely from its grid
//! coordinates, *which* worker runs a cell never affects its record:
//! the merged [`CampaignOutcome`] is byte-identical to a single-process
//! run of the same spec, no matter how workers raced, crashed, or stole.
//!
//! Fault points: `lease.acquire` fires after a cell is chosen but before
//! the Acquire append; `lease.renew` fires in the heartbeat thread before
//! each Renew append; `worker.cell.append` fires after the admission
//! re-check but before the result append. Each simulates a worker killed
//! at that instant.

use crate::campaign::{
    replay, Campaign, CampaignOutcome, CellId, CellRecord, ClaimPolicy, Execution, Step,
};
use crate::lease::{LeaseAction, LeaseRecord, DEFAULT_SKEW_SLACK_S};
use crate::manifest::{LocalManifestStore, ManifestStore};
use crate::telemetry::MetricsRegistry;
use crate::{CoreError, Result};
use hetsched_sim::chaos;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;

/// How often a waiting worker checks whether the manifest grew.
const WAKE_CHECK: Duration = Duration::from_millis(1);

/// Wall-clock seconds since the Unix epoch — the shared clock lease
/// deadlines are written in. Workers on different machines compare these
/// through the skew slack (see [`crate::lease`]).
fn now_s() -> f64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs_f64())
        .unwrap_or(0.0)
}

/// What one worker process contributed to a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerOutcome {
    /// The merged campaign outcome as seen when this worker drained the
    /// grid (reports, failures, replays) — identical across workers and
    /// to a single-process run once the campaign completes.
    pub outcome: CampaignOutcome,
    /// Cells this worker executed and whose results survived fencing.
    pub executed: usize,
    /// Leases this worker stole from expired holders.
    pub stolen: usize,
    /// Results this worker computed but discarded because its lease had
    /// been superseded (it was presumed dead and the cell re-ran).
    pub fenced: usize,
}

/// A single worker process in a distributed campaign. See the module
/// docs for the protocol; construct with [`Worker::new`], tune the lease
/// with [`Worker::lease_ttl`] / [`Worker::skew_slack`], then call
/// [`Worker::run`] against the shared manifest path. A worker with
/// nothing to claim sleeps until the next append or lease lapse, so it
/// picks up a peer's release within about a millisecond.
pub struct Worker {
    campaign: Campaign,
    id: String,
    ttl: Duration,
    slack_s: f64,
}

impl Worker {
    /// A worker named `id` driving `campaign`'s spec. The id lands in
    /// every record the worker appends; give each process a unique one
    /// (`hetsched work` defaults to `host:pid`).
    pub fn new(campaign: Campaign, id: impl Into<String>) -> Self {
        Worker {
            campaign,
            id: id.into(),
            ttl: Duration::from_secs(30),
            slack_s: DEFAULT_SKEW_SLACK_S,
        }
    }

    /// Sets the lease time-to-live (default 30s; clamped to ≥ 10ms).
    /// Leases renew every `ttl/3`, so a worker must fall silent for a
    /// full `ttl` (plus slack) before its cell is up for stealing.
    pub fn lease_ttl(mut self, ttl: Duration) -> Self {
        self.ttl = ttl.max(Duration::from_millis(10));
        self
    }

    /// Sets the clock-skew slack added to lease deadlines before another
    /// worker may treat them as expired (default
    /// [`DEFAULT_SKEW_SLACK_S`]).
    pub fn skew_slack(mut self, slack_s: f64) -> Self {
        self.slack_s = slack_s.max(0.0);
        self
    }

    /// The worker's id.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Runs the worker loop until the grid is drained (every cell has a
    /// surviving record or is terminally quarantined), the campaign's
    /// cancel token fires, or its deadline passes. Returns this worker's
    /// contribution plus the merged outcome.
    ///
    /// # Errors
    ///
    /// Spec validation, framework construction, manifest I/O, or a
    /// manifest owned by a different spec.
    pub fn run(&self, manifest: &Path) -> Result<WorkerOutcome> {
        let leases = Leases {
            worker: self,
            stolen: AtomicUsize::new(0),
            fenced: AtomicUsize::new(0),
        };
        let outcome = self.campaign.execute(Some(manifest), &leases)?;
        let (stolen, fenced) = (leases.stolen.into_inner(), leases.fenced.into_inner());
        tracing::info!(
            "worker {}: done — {} executed, {stolen} stolen, {fenced} fenced",
            self.id,
            outcome.executed
        );
        Ok(WorkerOutcome {
            executed: outcome.executed,
            outcome,
            stolen,
            fenced,
        })
    }

    /// Blocks, without the store lock, until the manifest grows past
    /// `seen` bytes, the wall clock passes `lapse_s`, or cancellation or
    /// the deadline stops the claim loop. The wall clock is read afresh at
    /// each check, so the lapse follows a clock that steps.
    fn wait(&self, exec: &Execution<'_>, store: &LocalManifestStore, seen: u64, lapse_s: f64) {
        while !exec.stopped() && now_s() < lapse_s {
            // An unreadable length wakes the worker too: the locked step
            // that follows reports the error.
            if !store.disk_len().is_ok_and(|len| len <= seen) {
                return;
            }
            std::thread::sleep(WAKE_CHECK);
        }
    }

    /// The heartbeat keeping a running cell's lease alive: appends `Renew`
    /// every `ttl/3` until `stop` disconnects, and self-fences with
    /// `Expire` if it ever wakes past its own deadline. Starts from the
    /// deadline of the `acquire` record.
    fn renew(
        &self,
        store: &LocalManifestStore,
        telemetry: Option<&MetricsRegistry>,
        acquire: &LeaseRecord,
        stop: mpsc::Receiver<()>,
    ) {
        let cell = acquire.cell;
        let interval = (self.ttl / 3).max(Duration::from_millis(5));
        let lease = |action, deadline_s| LeaseRecord {
            action,
            deadline_s,
            ..acquire.clone()
        };
        let mut deadline = acquire.deadline_s;
        while let Err(mpsc::RecvTimeoutError::Timeout) = stop.recv_timeout(interval) {
            let now = now_s();
            if now >= deadline {
                // Missed the renewal window (suspended, paged out…): the
                // lease may already be stolen. Self-fence rather than
                // renew a claim we can no longer trust.
                if let Err(e) = store.append_lease(&lease(LeaseAction::Expire, now)) {
                    tracing::warn!("lease expire append failed for {cell}: {e}");
                }
                if let Some(registry) = telemetry {
                    registry.lease_expired();
                }
                return;
            }
            chaos::raise("lease.renew", &cell);
            let renewed = now + 3.0 * interval.as_secs_f64();
            match store.append_lease(&lease(LeaseAction::Renew, renewed)) {
                Ok(()) => {
                    deadline = renewed;
                    if let Some(registry) = telemetry {
                        registry.lease_renewed();
                    }
                }
                Err(e) => {
                    tracing::warn!("lease renew append failed for {cell}: {e}");
                }
            }
        }
    }
}

/// The lease claim policy of one [`Worker::run`]: a claim is an Acquire
/// appended under the store lock, a commit is a fenced append, and the
/// loop runs once, on the calling thread.
struct Leases<'w> {
    worker: &'w Worker,
    /// Steals and fenced results so far; statistics only.
    stolen: AtomicUsize,
    fenced: AtomicUsize,
}

impl ClaimPolicy for Leases<'_> {
    fn threads(&self, _missing: usize) -> usize {
        1
    }

    fn step(
        &self,
        exec: &Execution<'_>,
        execute: impl FnOnce(CellId) -> CellRecord,
    ) -> Result<Step> {
        let worker = self.worker;
        let store = exec.store.as_ref().expect("a worker always has a manifest");
        let telemetry = exec.campaign.telemetry();
        // Read-decide-acquire under the store lock: the first cell in
        // canonical grid order with no surviving record and no live lease.
        let (acquire, steal) = {
            let guard = store.lock()?;
            // Taken before the replay, so whatever lands after it wakes a
            // wait.
            let seen = store
                .disk_len()
                .map_err(|e| CoreError::Io(format!("read manifest length: {e}")))?;
            let view = replay(store, &exec.fingerprint)?;
            let known = exec.campaign.known(view.cells);
            let now = now_s();
            // When the first of the leases held elsewhere lapses.
            let mut lapse_s: Option<f64> = None;
            let mut free = None;
            for &cell in exec.cells.iter().filter(|c| !known.contains_key(c)) {
                match view.leases.holder(&cell) {
                    Some(holder) if now < holder.deadline_s + worker.slack_s => {
                        let lapse = holder.deadline_s + worker.slack_s;
                        lapse_s = Some(lapse_s.map_or(lapse, |first| first.min(lapse)));
                    }
                    // Claiming over an expired holder is a steal.
                    holder => {
                        free = Some((cell, holder.is_some()));
                        break;
                    }
                }
            }
            let Some((cell, steal)) = free else {
                // Everything left is validly leased to someone else: wait
                // for results to land or leases to lapse.
                let Some(lapse_s) = lapse_s else {
                    return Ok(Step::Done);
                };
                drop(guard);
                worker.wait(exec, store, seen, lapse_s);
                return Ok(Step::Waited);
            };
            chaos::raise("lease.acquire", &cell);
            let acquire = LeaseRecord::new(
                cell,
                worker.id.clone(),
                view.leases.next_epoch(&cell),
                LeaseAction::Acquire,
                now_s() + worker.ttl.as_secs_f64(),
            );
            store
                .append_lease(&acquire)
                .and_then(|()| store.sync())
                .map_err(|e| CoreError::Io(format!("append lease acquire: {e}")))?;
            (acquire, steal)
        };
        let (cell, epoch) = (acquire.cell, acquire.epoch);
        if steal {
            self.stolen.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(registry) = telemetry {
            registry.lease_acquired(steal);
        }
        tracing::debug!(
            "worker {}: leased cell {cell} at epoch {epoch}{}",
            worker.id,
            if steal { " (stolen)" } else { "" }
        );

        let mut record = std::thread::scope(|scope| {
            let (stop, stopped) = mpsc::channel();
            let lease = &acquire;
            let heartbeat = std::thread::Builder::new()
                .name(format!("hetsched-renew-{cell}"))
                .spawn_scoped(scope, move || {
                    worker.renew(store, telemetry, lease, stopped)
                });
            let record = execute(cell);
            drop(stop);
            // Joined explicitly: a heartbeat killed mid-renewal has
            // stopped renewing, and its panic must not end the worker.
            if let Ok(heartbeat) = heartbeat {
                let _ = heartbeat.join();
            }
            record
        });
        record.worker = Some(worker.id.clone());
        record.epoch = Some(epoch);

        // Commit under the lock, re-checking admission: a worker that
        // stalled long enough to be presumed dead must not clobber its
        // successor's claim.
        let _guard = store.lock()?;
        let view = replay(store, &exec.fingerprint)?;
        if !view.leases.admits(&cell, Some(epoch)) {
            self.fenced.fetch_add(1, Ordering::Relaxed);
            if let Some(registry) = telemetry {
                registry.lease_fenced();
            }
            tracing::warn!(
                "worker {}: lease for cell {cell} superseded (epoch {epoch} < {}); \
                 discarding result",
                worker.id,
                view.leases.max_epoch(&cell)
            );
            return Ok(Step::Ran(None));
        }
        chaos::raise("worker.cell.append", &cell);
        let release = LeaseRecord {
            action: LeaseAction::Release,
            deadline_s: now_s(),
            ..acquire
        };
        store
            .append_cell(&record)
            .and_then(|()| store.append_lease(&release))
            .and_then(|()| store.sync())
            .map_err(|e| CoreError::Io(format!("append cell result: {e}")))?;
        Ok(Step::Ran(Some(record)))
    }

    /// The final manifest state, peers' records included.
    fn settle(
        &self,
        exec: &Execution<'_>,
        _known: HashMap<CellId, CellRecord>,
        _executed: Vec<CellRecord>,
    ) -> Result<HashMap<CellId, CellRecord>> {
        let store = exec.store.as_ref().expect("a worker always has a manifest");
        Ok(exec.campaign.known(replay(store, &exec.fingerprint)?.cells))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignSpec;
    use crate::config::ExperimentConfig;
    use crate::manifest::replay_records;
    use hetsched_heuristics::SeedKind;
    use std::path::PathBuf;

    fn tiny_spec() -> CampaignSpec {
        let mut base = ExperimentConfig::dataset1();
        base.tasks = 25;
        base.population = 10;
        base.snapshots = vec![2, 4];
        base.seeds = vec![SeedKind::MinEnergy, SeedKind::Random];
        CampaignSpec::single(&base)
    }

    fn temp_manifest(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "hetsched-worker-{tag}-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn one_worker_matches_the_single_process_run_bit_for_bit() {
        let spec = tiny_spec();
        let solo = Campaign::new(spec.clone()).run(None).unwrap();

        let path = temp_manifest("solo");
        let _ = std::fs::remove_file(&path);
        let outcome = Worker::new(Campaign::new(spec), "w1")
            .lease_ttl(Duration::from_secs(5))
            .run(&path)
            .unwrap();
        let _ = std::fs::remove_file(&path);

        assert_eq!(outcome.executed, 2);
        assert_eq!(outcome.stolen, 0);
        assert_eq!(outcome.fenced, 0);
        assert_eq!(outcome.outcome.reports, solo.reports);
        assert!(outcome.outcome.is_complete());
    }

    #[test]
    fn second_worker_replays_what_the_first_ran() {
        let spec = tiny_spec();
        let path = temp_manifest("handoff");
        let _ = std::fs::remove_file(&path);
        let first = Worker::new(Campaign::new(spec.clone()), "w1")
            .run(&path)
            .unwrap();
        let second = Worker::new(Campaign::new(spec), "w2").run(&path).unwrap();
        let _ = std::fs::remove_file(&path);

        assert_eq!(first.executed, 2);
        assert_eq!(second.executed, 0);
        assert_eq!(second.outcome.replayed, 2);
        assert_eq!(second.outcome.reports, first.outcome.reports);
    }

    #[test]
    fn expired_leases_are_stolen_and_the_result_still_matches() {
        let spec = tiny_spec();
        let solo = Campaign::new(spec.clone()).run(None).unwrap();
        let cells = spec.cells();
        let fingerprint = spec.fingerprint();

        // A dead worker left an expired claim on the first cell.
        let path = temp_manifest("steal");
        let _ = std::fs::remove_file(&path);
        let store = LocalManifestStore::open(&path, &fingerprint, 1).unwrap();
        store
            .append_lease(&LeaseRecord::new(
                cells[0],
                "dead",
                1,
                LeaseAction::Acquire,
                now_s() - 60.0,
            ))
            .unwrap();
        store.sync().unwrap();
        drop(store);

        let outcome = Worker::new(Campaign::new(spec), "w2")
            .lease_ttl(Duration::from_secs(5))
            .run(&path)
            .unwrap();
        let _ = std::fs::remove_file(&path);

        assert_eq!(outcome.stolen, 1, "the expired lease is stolen");
        assert_eq!(outcome.executed, 2);
        assert_eq!(outcome.outcome.reports, solo.reports);
    }

    /// Appends a lease on `cell` held by `holder` until `deadline_s`.
    fn leased(path: &Path, fingerprint: &str, cell: CellId, holder: &str, deadline_s: f64) {
        let store = LocalManifestStore::open(path, fingerprint, 1).unwrap();
        store
            .append_lease(&LeaseRecord::new(
                cell,
                holder,
                1,
                LeaseAction::Acquire,
                deadline_s,
            ))
            .unwrap();
    }

    #[test]
    fn a_waiting_worker_wakes_when_a_live_lease_lapses() {
        let spec = tiny_spec();
        let solo = Campaign::new(spec.clone()).run(None).unwrap();
        let path = temp_manifest("lapse");
        let _ = std::fs::remove_file(&path);
        // A dead worker's lease on the first cell is live for 300 ms more,
        // and nothing will be appended when it lapses.
        leased(
            &path,
            &spec.fingerprint(),
            spec.cells()[0],
            "dead",
            now_s() + 0.3,
        );

        // The deadline only ends the run if the worker never wakes.
        let outcome = Worker::new(Campaign::new(spec).deadline(Duration::from_secs(30)), "w2")
            .skew_slack(0.0)
            .run(&path)
            .unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(outcome.stolen, 1, "the lapsed lease is stolen");
        assert_eq!(outcome.executed, 2);
        assert_eq!(outcome.outcome.reports, solo.reports);
    }

    #[test]
    fn a_waiting_worker_stops_at_the_campaign_deadline() {
        let spec = tiny_spec();
        let first = spec.cells()[0];
        let path = temp_manifest("deadline");
        let _ = std::fs::remove_file(&path);
        leased(&path, &spec.fingerprint(), first, "alive", now_s() + 3600.0);

        // Run off the test thread: a wait that ignored the deadline would
        // otherwise hang the test for the lease's hour.
        let (finished, outcome) = mpsc::channel();
        let worker_path = path.clone();
        std::thread::spawn(move || {
            let campaign = Campaign::new(spec).deadline(Duration::from_millis(300));
            finished
                .send(Worker::new(campaign, "w2").run(&worker_path).unwrap())
                .unwrap();
        });
        let outcome = outcome
            .recv_timeout(Duration::from_secs(20))
            .expect("the waiting worker ignored the deadline");
        let _ = std::fs::remove_file(&path);
        assert_eq!(outcome.executed, 1);
        assert_eq!(outcome.outcome.skipped, vec![first]);
    }

    #[test]
    fn zombie_result_is_fenced_after_a_steal() {
        let spec = tiny_spec();
        let cells = spec.cells();
        let fingerprint = spec.fingerprint();

        let path = temp_manifest("zombie");
        let _ = std::fs::remove_file(&path);
        {
            // The takeover worker re-ran the cell at epoch 2...
            let store = LocalManifestStore::open(&path, &fingerprint, 1).unwrap();
            store
                .append_lease(&LeaseRecord::new(
                    cells[0],
                    "w2",
                    2,
                    LeaseAction::Acquire,
                    now_s() + 60.0,
                ))
                .unwrap();
            // ...and the presumed-dead w1 then wakes up and appends its
            // stale epoch-1 result straight to the log (no lock, no
            // re-check — a true zombie).
            let mut zombie = CellRecord {
                cell: cells[0],
                run: None,
                error: Some("zombie".to_string()),
                outcome: crate::campaign::CellOutcome::Poisoned,
                attempts: 1,
                duration_s: 0.1,
                worker: Some("w1".to_string()),
                epoch: Some(1),
            };
            store.append_cell(&zombie).unwrap();
            zombie.worker = Some("w2".to_string());
            zombie.epoch = Some(2);
            store.append_cell(&zombie).unwrap();
            store.sync().unwrap();
        }

        let (_, records) = crate::manifest::load_manifest_records(&path)
            .unwrap()
            .unwrap();
        let _ = std::fs::remove_file(&path);
        let view = replay_records(&records);
        assert_eq!(view.cells.len(), 1, "only the takeover's record survives");
        assert_eq!(view.cells[0].worker.as_deref(), Some("w2"));
        assert_eq!(view.fenced.get("w1"), Some(&1));
    }
}
