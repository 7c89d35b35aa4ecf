//! Cell leases: the coordination records that let many worker processes
//! share one campaign manifest (see README § Distributed campaigns).
//!
//! A lease is a claim on one campaign cell by one worker, written into
//! the manifest as a [`LeaseRecord`] interleaved with the cell records.
//! Replaying the manifest through a [`LeaseTable`] reconstructs, for
//! every cell, who holds it, until when, and at which **fencing epoch**
//! — a per-cell counter that increases by one on every acquisition.
//!
//! # Fencing
//!
//! The epoch is the whole safety story. A worker that acquires a cell at
//! epoch *e* tags everything it later writes for that cell with *e*. If
//! the worker stalls past its lease deadline, a peer takes the cell over
//! at epoch *e + 1* — and from that moment any record still carrying *e*
//! (a renewal from the stalled heartbeat thread, or worse, the stale
//! worker's late result append) is **fenced**: rejected during replay by
//! epoch comparison. A "dead" worker that wakes up cannot clobber the
//! takeover's result, no matter how late its writes land, because
//! rejection happens at *merge* time, not at append time — the append
//! itself needs no coordination.
//!
//! # Clock skew
//!
//! Deadlines are wall-clock seconds (workers on different hosts share no
//! monotonic clock), so expiry checks allow a configurable **skew
//! slack**: a lease only counts as expired once `now` exceeds
//! `deadline + slack`. A worker renewing on time with a slightly slow
//! clock is therefore never stolen from; a genuinely dead worker is
//! taken over one slack interval late, which only costs latency.
//!
//! Every query that involves "now" takes the timestamp explicitly, so
//! the state machine is fully deterministic under test.

use crate::campaign::CellId;
use serde::{Deserialize, Deserializer, Serialize, Serializer, Value};
use std::collections::HashMap;

/// Default clock-skew slack added to lease deadlines before a lease
/// counts as expired (seconds).
pub const DEFAULT_SKEW_SLACK_S: f64 = 0.5;

/// The discriminator value that marks a manifest line as a lease record
/// (cell records have no `kind` field).
pub(crate) const LEASE_KIND: &str = "lease";

/// What a lease record does to its cell's lease.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LeaseAction {
    /// A worker claims the cell at a fresh epoch.
    Acquire,
    /// The holder extends its deadline (same epoch).
    Renew,
    /// The holder is done with the cell (result appended, or abandoned
    /// cleanly).
    Release,
    /// The holder observed its own lease expire (a renewal landed too
    /// late) and self-fenced instead of appending a possibly-clobbering
    /// result.
    Expire,
}

impl LeaseAction {
    /// Stable wire label.
    pub fn label(self) -> &'static str {
        match self {
            LeaseAction::Acquire => "acquire",
            LeaseAction::Renew => "renew",
            LeaseAction::Release => "release",
            LeaseAction::Expire => "expire",
        }
    }
}

/// One lease line in a v4 manifest. Serialised with a leading
/// `"kind":"lease"` discriminator so replay can tell lease lines from
/// cell lines (which carry no `kind` field).
#[derive(Debug, Clone, PartialEq)]
pub struct LeaseRecord {
    /// The claimed cell.
    pub cell: CellId,
    /// The claiming worker's id.
    pub worker: String,
    /// Fencing epoch of the claim (monotonically increasing per cell).
    pub epoch: u64,
    /// What this record does to the lease.
    pub action: LeaseAction,
    /// Wall-clock deadline (seconds since the Unix epoch) after which
    /// the lease may be taken over — see [`DEFAULT_SKEW_SLACK_S`].
    pub deadline_s: f64,
}

impl LeaseRecord {
    /// A record of `action` by `worker` on `cell` at `epoch`.
    pub fn new(
        cell: CellId,
        worker: impl Into<String>,
        epoch: u64,
        action: LeaseAction,
        deadline_s: f64,
    ) -> Self {
        LeaseRecord {
            cell,
            worker: worker.into(),
            epoch,
            action,
            deadline_s,
        }
    }
}

// Hand-written because the `kind` tag is not a field: it is written first
// and checked on read, so a cell line never parses as a lease.
impl Serialize for LeaseRecord {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let entries = vec![
            ("kind".to_string(), serde::to_value(&LEASE_KIND)),
            ("cell".to_string(), serde::to_value(&self.cell)),
            ("worker".to_string(), serde::to_value(&self.worker)),
            ("epoch".to_string(), serde::to_value(&self.epoch)),
            ("action".to_string(), serde::to_value(&self.action)),
            ("deadline_s".to_string(), serde::to_value(&self.deadline_s)),
        ];
        serializer.serialize_value(Value::Object(entries))
    }
}

impl<'de> Deserialize<'de> for LeaseRecord {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        use serde::__private::{from_field, into_object};
        let mut entries = into_object::<D::Error>(deserializer.take_value()?, "LeaseRecord")?;
        let kind: String = from_field(&mut entries, "kind")?;
        if kind != LEASE_KIND {
            return Err(serde::de::Error::custom(format!(
                "expected kind `{LEASE_KIND}`, found `{kind}`"
            )));
        }
        Ok(LeaseRecord {
            cell: from_field(&mut entries, "cell")?,
            worker: from_field(&mut entries, "worker")?,
            epoch: from_field(&mut entries, "epoch")?,
            action: from_field(&mut entries, "action")?,
            deadline_s: from_field(&mut entries, "deadline_s")?,
        })
    }
}

/// The live lease of one cell, as reconstructed by replay.
#[derive(Debug, Clone, PartialEq)]
pub struct LeaseState {
    /// The most recent legitimate claimant.
    pub worker: String,
    /// The cell's current (maximum ever seen) fencing epoch.
    pub epoch: u64,
    /// The last applied action at that epoch.
    pub action: LeaseAction,
    /// The last applied deadline.
    pub deadline_s: f64,
}

impl LeaseState {
    /// Whether the lease is currently held (not released or expired by
    /// its own holder). Deadline expiry is a separate, time-dependent
    /// question — see [`LeaseTable::is_held`].
    pub fn is_claimed(&self) -> bool {
        matches!(self.action, LeaseAction::Acquire | LeaseAction::Renew)
    }
}

/// The lease state machine: replays [`LeaseRecord`]s in manifest order
/// and answers who holds what, which epochs are fenced, and which
/// takeovers counted as steals.
#[derive(Debug, Clone)]
pub struct LeaseTable {
    states: HashMap<CellId, LeaseState>,
    /// Per-worker count of acquisitions that superseded an unreleased
    /// lease of a *different* worker (lease steals / takeovers).
    stolen: HashMap<String, usize>,
    slack_s: f64,
}

impl Default for LeaseTable {
    fn default() -> Self {
        LeaseTable {
            states: HashMap::new(),
            stolen: HashMap::new(),
            slack_s: DEFAULT_SKEW_SLACK_S,
        }
    }
}

impl LeaseTable {
    /// An empty table with the default skew slack.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the clock-skew slack (seconds; clamped to ≥ 0).
    pub fn with_slack(mut self, slack_s: f64) -> Self {
        self.slack_s = slack_s.max(0.0);
        self
    }

    /// The configured skew slack in seconds.
    pub fn slack_s(&self) -> f64 {
        self.slack_s
    }

    /// Applies one record in manifest order. Returns `false` when the
    /// record is **fenced** — it carries an epoch below the cell's
    /// current one, or claims someone else's live epoch — and therefore
    /// changes nothing.
    pub fn apply(&mut self, record: &LeaseRecord) -> bool {
        match self.states.get_mut(&record.cell) {
            None => {
                self.states.insert(
                    record.cell,
                    LeaseState {
                        worker: record.worker.clone(),
                        epoch: record.epoch,
                        action: record.action,
                        deadline_s: record.deadline_s,
                    },
                );
                true
            }
            Some(state) => {
                let applies = record.epoch > state.epoch
                    || (record.epoch == state.epoch && record.worker == state.worker);
                if !applies {
                    return false;
                }
                if record.epoch > state.epoch && state.is_claimed() && record.worker != state.worker
                {
                    // Superseding an unreleased lease of another worker:
                    // a takeover, credited to the new claimant.
                    *self.stolen.entry(record.worker.clone()).or_insert(0) += 1;
                }
                state.worker.clone_from(&record.worker);
                state.epoch = record.epoch;
                state.action = record.action;
                state.deadline_s = record.deadline_s;
                true
            }
        }
    }

    /// The cell's current fencing epoch (0 when no lease was ever
    /// recorded — real epochs start at 1).
    pub fn max_epoch(&self, cell: &CellId) -> u64 {
        self.states.get(cell).map_or(0, |s| s.epoch)
    }

    /// The epoch a fresh acquisition of `cell` must use.
    pub fn next_epoch(&self, cell: &CellId) -> u64 {
        self.max_epoch(cell) + 1
    }

    /// The cell's lease state, claimed or not.
    pub fn state(&self, cell: &CellId) -> Option<&LeaseState> {
        self.states.get(cell)
    }

    /// The current claimant, if the lease was neither released nor
    /// self-expired (deadline expiry is checked separately).
    pub fn holder(&self, cell: &CellId) -> Option<&LeaseState> {
        self.states.get(cell).filter(|s| s.is_claimed())
    }

    /// Whether the cell is held by a live lease at wall-clock `now_s`:
    /// claimed, and within `deadline + slack`.
    pub fn is_held(&self, cell: &CellId, now_s: f64) -> bool {
        self.holder(cell)
            .is_some_and(|s| now_s < s.deadline_s + self.slack_s)
    }

    /// The claimant whose lease has expired at `now_s` without a release
    /// — the takeover case. `None` when the cell is unleased, live, or
    /// cleanly released.
    pub fn expired_holder(&self, cell: &CellId, now_s: f64) -> Option<&LeaseState> {
        self.holder(cell)
            .filter(|s| now_s >= s.deadline_s + self.slack_s)
    }

    /// Merge-time fencing for *cell* records: a result tagged with an
    /// epoch applies only if that epoch is still the cell's newest; an
    /// untagged result (single-process campaigns, v3 manifests) always
    /// applies.
    pub fn admits(&self, cell: &CellId, epoch: Option<u64>) -> bool {
        epoch.is_none_or(|e| e >= self.max_epoch(cell))
    }

    /// How many takeovers `worker` performed.
    pub fn stolen_by(&self, worker: &str) -> usize {
        self.stolen.get(worker).copied().unwrap_or(0)
    }

    /// Per-worker takeover counts, unordered.
    pub fn steals(&self) -> &HashMap<String, usize> {
        &self.stolen
    }

    /// Every worker that ever appears in the table, unordered.
    pub fn workers(&self) -> impl Iterator<Item = &str> {
        self.states.values().map(|s| s.worker.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DatasetId;
    use hetsched_heuristics::SeedKind;
    use hetsched_moea::Algorithm;
    use proptest::prelude::*;

    fn cell(replicate: usize) -> CellId {
        CellId {
            dataset: DatasetId::One,
            algorithm: Algorithm::Nsga2,
            seed: SeedKind::Random,
            replicate,
        }
    }

    fn rec(worker: &str, epoch: u64, action: LeaseAction, deadline_s: f64) -> LeaseRecord {
        LeaseRecord::new(cell(0), worker, epoch, action, deadline_s)
    }

    #[test]
    fn lease_record_roundtrips_with_kind_discriminator() {
        let record = rec("w1", 3, LeaseAction::Renew, 12.5);
        let json = serde_json::to_string(&record).unwrap();
        assert!(json.starts_with("{\"kind\":\"lease\""), "{json}");
        let back: LeaseRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, record);
        // A cell record (no `kind`) must not parse as a lease.
        assert!(serde_json::from_str::<LeaseRecord>("{\"cell\":1}").is_err());
        assert!(serde_json::from_str::<LeaseRecord>("{\"kind\":\"other\"}").is_err());
    }

    #[test]
    fn acquire_renew_release_lifecycle() {
        let mut table = LeaseTable::new();
        assert_eq!(table.next_epoch(&cell(0)), 1);
        assert!(table.apply(&rec("w1", 1, LeaseAction::Acquire, 10.0)));
        assert!(table.is_held(&cell(0), 5.0));
        assert!(table.apply(&rec("w1", 1, LeaseAction::Renew, 20.0)));
        assert!(table.is_held(&cell(0), 15.0));
        assert!(table.apply(&rec("w1", 1, LeaseAction::Release, 15.0)));
        assert!(!table.is_held(&cell(0), 15.0));
        assert!(table.holder(&cell(0)).is_none());
        assert_eq!(table.next_epoch(&cell(0)), 2);
    }

    #[test]
    fn stale_epoch_records_are_fenced() {
        let mut table = LeaseTable::new();
        assert!(table.apply(&rec("w1", 1, LeaseAction::Acquire, 10.0)));
        assert!(table.apply(&rec("w2", 2, LeaseAction::Acquire, 30.0)));
        // The zombie's late renewal and release at epoch 1 bounce off.
        assert!(!table.apply(&rec("w1", 1, LeaseAction::Renew, 40.0)));
        assert!(!table.apply(&rec("w1", 1, LeaseAction::Release, 40.0)));
        assert_eq!(table.holder(&cell(0)).unwrap().worker, "w2");
        // And its result would be fenced at merge time.
        assert!(!table.admits(&cell(0), Some(1)));
        assert!(table.admits(&cell(0), Some(2)));
        assert!(table.admits(&cell(0), None));
    }

    #[test]
    fn same_epoch_different_worker_is_fenced() {
        let mut table = LeaseTable::new();
        assert!(table.apply(&rec("w1", 1, LeaseAction::Acquire, 10.0)));
        assert!(!table.apply(&rec("w2", 1, LeaseAction::Release, 10.0)));
        assert_eq!(table.holder(&cell(0)).unwrap().worker, "w1");
    }

    #[test]
    fn takeover_of_unreleased_lease_counts_as_steal() {
        let mut table = LeaseTable::new();
        table.apply(&rec("w1", 1, LeaseAction::Acquire, 10.0));
        assert!(table
            .expired_holder(&cell(0), 10.0 + table.slack_s())
            .is_some());
        table.apply(&rec("w2", 2, LeaseAction::Acquire, 30.0));
        assert_eq!(table.stolen_by("w2"), 1);
        assert_eq!(table.stolen_by("w1"), 0);
        // Acquiring after a clean release is not a steal.
        table.apply(&rec("w2", 2, LeaseAction::Release, 30.0));
        table.apply(&rec("w1", 3, LeaseAction::Acquire, 50.0));
        assert_eq!(table.stolen_by("w1"), 0);
    }

    #[test]
    fn expiry_respects_clock_skew_slack() {
        let mut table = LeaseTable::new().with_slack(2.0);
        table.apply(&rec("w1", 1, LeaseAction::Acquire, 10.0));
        assert!(table.is_held(&cell(0), 11.9));
        assert!(table.expired_holder(&cell(0), 11.9).is_none());
        assert!(!table.is_held(&cell(0), 12.0));
        assert_eq!(table.expired_holder(&cell(0), 12.0).unwrap().worker, "w1");
    }

    #[test]
    fn self_expire_clears_the_claim_without_a_new_epoch() {
        let mut table = LeaseTable::new();
        table.apply(&rec("w1", 1, LeaseAction::Acquire, 10.0));
        assert!(table.apply(&rec("w1", 1, LeaseAction::Expire, 10.0)));
        assert!(table.holder(&cell(0)).is_none());
        assert_eq!(table.next_epoch(&cell(0)), 2);
        // The self-fenced worker's own result at its old epoch still
        // admits (nobody superseded it) — results are deterministic, so
        // that is safe; a takeover bumps the epoch and fences it.
        assert!(table.admits(&cell(0), Some(1)));
    }

    #[test]
    fn cells_are_independent() {
        let mut table = LeaseTable::new();
        table.apply(&LeaseRecord::new(
            cell(0),
            "w1",
            1,
            LeaseAction::Acquire,
            10.0,
        ));
        table.apply(&LeaseRecord::new(
            cell(1),
            "w2",
            1,
            LeaseAction::Acquire,
            10.0,
        ));
        assert_eq!(table.holder(&cell(0)).unwrap().worker, "w1");
        assert_eq!(table.holder(&cell(1)).unwrap().worker, "w2");
        assert_eq!(table.next_epoch(&cell(0)), 2);
    }

    /// Random interleavings for the property tests: a stream of records
    /// over a handful of workers, epochs, and actions.
    fn arb_records() -> impl Strategy<Value = Vec<LeaseRecord>> {
        prop::collection::vec(
            (0usize..3, 1u64..6, 0usize..4, 0.0f64..100.0).prop_map(
                |(worker, epoch, action, deadline_s)| {
                    let action = match action {
                        0 => LeaseAction::Acquire,
                        1 => LeaseAction::Renew,
                        2 => LeaseAction::Release,
                        _ => LeaseAction::Expire,
                    };
                    LeaseRecord::new(cell(0), format!("w{worker}"), epoch, action, deadline_s)
                },
            ),
            0..40,
        )
    }

    proptest! {
        /// Fencing-epoch monotonicity: whatever the record stream, the
        /// cell's epoch never decreases, and every applied record's
        /// epoch is the new maximum.
        #[test]
        fn epoch_is_monotone(records in arb_records()) {
            let mut table = LeaseTable::new();
            let mut last = 0u64;
            for record in &records {
                let applied = table.apply(record);
                let epoch = table.max_epoch(&cell(0));
                prop_assert!(epoch >= last, "epoch went backwards: {last} -> {epoch}");
                if applied {
                    prop_assert_eq!(epoch, record.epoch.max(last));
                }
                last = epoch;
            }
        }

        /// Double-acquire exclusion: after any stream, at most one
        /// worker holds the cell, and a second acquire at the same
        /// epoch by a different worker never displaces the holder.
        #[test]
        fn at_most_one_holder(records in arb_records()) {
            let mut table = LeaseTable::new();
            for record in &records {
                let before = table.holder(&cell(0)).cloned();
                let applied = table.apply(record);
                if let Some(before) = before {
                    if record.worker != before.worker && record.epoch <= before.epoch {
                        prop_assert!(!applied, "same/lower-epoch claim displaced the holder");
                        prop_assert_eq!(
                            &table.holder(&cell(0)).unwrap().worker,
                            &before.worker
                        );
                    }
                }
                // Exactly zero or one lease state exists per cell by
                // construction; the "holder" is unique.
                prop_assert!(table.holder(&cell(0)).is_none() || table.states.len() == 1);
            }
        }

        /// Release-after-expiry no-op: once a newer epoch exists, the
        /// old holder's release (or any action) changes nothing.
        #[test]
        fn release_after_takeover_is_a_noop(deadline in 0.0f64..50.0, late in 0.0f64..50.0) {
            let mut table = LeaseTable::new();
            table.apply(&rec("w1", 1, LeaseAction::Acquire, deadline));
            table.apply(&rec("w2", 2, LeaseAction::Acquire, deadline + 30.0));
            let state = table.state(&cell(0)).cloned().unwrap();
            for action in [LeaseAction::Release, LeaseAction::Renew, LeaseAction::Expire] {
                prop_assert!(!table.apply(&rec("w1", 1, action, deadline + late)));
                prop_assert_eq!(table.state(&cell(0)).unwrap(), &state);
            }
        }

        /// Expiry under skew slack: a lease is held strictly before
        /// `deadline + slack` and expired at or after it, for any slack.
        #[test]
        fn expiry_boundary_matches_slack(
            deadline in 0.0f64..100.0,
            slack in 0.0f64..10.0,
            delta in 0.001f64..10.0,
        ) {
            let mut table = LeaseTable::new().with_slack(slack);
            table.apply(&rec("w1", 1, LeaseAction::Acquire, deadline));
            prop_assert!(table.is_held(&cell(0), deadline + slack - delta));
            prop_assert!(!table.is_held(&cell(0), deadline + slack + delta));
            prop_assert!(table.expired_holder(&cell(0), deadline + slack + delta).is_some());
        }
    }
}
