//! The manifest as a storage abstraction: the [`ManifestStore`] trait
//! (append / tail / lock) and its local-JSONL implementation,
//! [`LocalManifestStore`].
//!
//! The campaign manifest started life as a private checkpoint file; for
//! distributed execution (see [`crate::worker`]) it is the *only*
//! coordination substrate — every worker appends cell results and
//! [`LeaseRecord`]s to the same log and replays it to decide what to do
//! next. This module owns the format (header, version, interleaved
//! record kinds, torn-line tolerance) and its concurrency story:
//!
//! * **append** — one whole line per record. The local store writes
//!   through an `O_APPEND` handle and flushes each record in a single
//!   `write`, so concurrent appenders never interleave *within* a line.
//! * **tail** — read the log back as raw [`ManifestRecord`]s. Lines that
//!   fail to parse (a writer killed mid-append) are dropped with a
//!   warning; every surviving record is self-describing, and a dropped
//!   *result* only costs a deterministic re-execution once its lease
//!   expires. The local store remembers what it has parsed, so each tail
//!   reads only the bytes appended since the last one.
//! * **lock** — a short exclusive critical section for read-decide-append
//!   sequences (lease acquisition). The local store takes the kernel's
//!   advisory lock (`flock`) on the manifest file itself, through a
//!   handle of its own: a contended caller blocks until the holder lets
//!   go, and the kernel frees the lock the moment its holder dies
//!   (`kill -9` included), so there is no lockfile and no stale lock to
//!   break. Taking the lock also heals a missing trailing newline left by
//!   a writer that died mid-append, so the next append cannot glue onto
//!   the torn line.
//!
//! Correctness never rests on the lock alone: a worker that appends
//! without it is fenced by lease epochs at merge time — see
//! [`crate::lease`]. That also covers NFS, where Linux emulates `flock`
//! with byte-range locks that any close of the file by the same process
//! releases.

use crate::campaign::CellRecord;
use crate::durable::lock_unpoisoned;
use crate::jsonl::{self, ReadError, Writers};
use crate::lease::{LeaseRecord, LEASE_KIND};
use crate::{CoreError, Result};
use hetsched_sim::chaos;
use serde::{Deserialize, Deserializer, Serialize, Serializer, Value};
use std::fmt::Display;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Current manifest format version. Bumped to 2 when [`CellRecord`] grew
/// `duration_s`, to 3 when it grew `outcome` (timeout/quarantine
/// classification), and to 4 when lease records and the optional
/// `worker`/`epoch` cell tags arrived (distributed execution). v3 files
/// are still readable — the new fields default — but v1/v2 records lack
/// required fields and must be refused up front rather than half-parsed.
pub const MANIFEST_VERSION: usize = 4;

/// Oldest manifest version this build still reads (the new v4 fields are
/// optional, so v3 records parse unchanged).
pub const COMPAT_MANIFEST_VERSION: usize = 3;

/// The manifest's first line, guarding resume against spec mismatches.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ManifestHeader {
    /// Fingerprint of the campaign spec that owns the file.
    fingerprint: String,
    /// Manifest format version.
    version: usize,
}

/// One line of a v4 manifest: either a cell's result or a lease action.
/// Lease lines carry a `"kind":"lease"` discriminator; cell lines have
/// no `kind` field.
#[derive(Debug, Clone, PartialEq)]
pub enum ManifestRecord {
    /// A cell's recorded outcome.
    Cell(CellRecord),
    /// A lease acquire/renew/release/expire.
    Lease(LeaseRecord),
}

// Hand-written because the variant is picked by the `kind` key, not by
// the `{"Cell": …}` wrapper an externally tagged derive would write.
impl Serialize for ManifestRecord {
    fn serialize<S: Serializer>(&self, serializer: S) -> std::result::Result<S::Ok, S::Error> {
        match self {
            ManifestRecord::Cell(record) => record.serialize(serializer),
            ManifestRecord::Lease(record) => record.serialize(serializer),
        }
    }
}

impl<'de> Deserialize<'de> for ManifestRecord {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> std::result::Result<Self, D::Error> {
        let value = deserializer.take_value()?;
        if value.get("kind").and_then(Value::as_str) == Some(LEASE_KIND) {
            serde::from_value::<LeaseRecord>(value)
                .map(ManifestRecord::Lease)
                .map_err(serde::de::Error::custom)
        } else {
            serde::from_value::<CellRecord>(value)
                .map(ManifestRecord::Cell)
                .map_err(serde::de::Error::custom)
        }
    }
}

/// Reads a manifest back as raw records, without merging or fencing:
/// the owning fingerprint plus every parseable line in order, or `None`
/// for an empty file. Torn lines (a writer killed mid-append) are
/// dropped with a warning — each surviving record is self-describing,
/// and the lease protocol re-runs any cell whose result line was lost.
///
/// # Errors
///
/// I/O failures, a corrupt or torn header, or an unsupported manifest
/// version (anything other than v{3,4}).
pub fn load_manifest_records(path: &Path) -> Result<Option<(String, Vec<ManifestRecord>)>> {
    let mut reader = jsonl::Reader::open(path)
        .map_err(|e| CoreError::Io(format!("open manifest {}: {e}", path.display())))?;
    let Some(header_line) = reader
        .next_line()
        .map_err(|e| CoreError::Io(format!("read manifest: {e}")))?
    else {
        return Ok(None);
    };
    let fingerprint = parse_header(&header_line)?;
    // A line that does not parse was left by a writer that died
    // mid-append. It identifies nothing trustworthy, so it is dropped;
    // whatever it would have recorded is re-derivable (results re-execute
    // bit-identically once the cell's lease expires).
    let (records, torn) = reader
        .records(Writers::Many, |line| serde_json::from_str(line).ok())
        .map_err(|e| match e {
            ReadError::Io(e) => CoreError::Io(format!("read manifest: {e}")),
            ReadError::Corrupt => CoreError::Manifest("records after a torn line".into()),
        })?;
    warn_torn(path, torn);
    Ok(Some((fingerprint, records)))
}

/// The owning fingerprint in a manifest's header line.
fn parse_header(line: &[u8]) -> Result<String> {
    let header: ManifestHeader = serde_json::from_str(&String::from_utf8_lossy(line))
        .map_err(|e| CoreError::Manifest(format!("corrupt manifest header: {e}")))?;
    if header.version != MANIFEST_VERSION && header.version != COMPAT_MANIFEST_VERSION {
        return Err(CoreError::Manifest(format!(
            "manifest version {} unsupported (this build writes v{MANIFEST_VERSION} and still \
             reads v{COMPAT_MANIFEST_VERSION})",
            header.version
        )));
    }
    Ok(header.fingerprint)
}

/// One record line, or `None` for a line torn by a killed writer.
fn parse_record(line: &[u8]) -> Option<ManifestRecord> {
    std::str::from_utf8(line)
        .ok()
        .and_then(|line| serde_json::from_str(line).ok())
}

fn warn_torn(path: &Path, torn: usize) {
    if torn > 0 {
        tracing::warn!(
            "manifest {}: dropped {torn} torn line(s) left by interrupted writer(s)",
            path.display()
        );
    }
}

/// What [`LocalManifestStore::tail`] has parsed so far, so each tail reads
/// only the bytes appended since the last. A last line still missing its
/// newline is read but not consumed: once the lock's heal terminates a
/// torn one, the next tail drops and counts it as a whole line. A file
/// cut back behind the offset is read again from byte 0; one cut and
/// regrown past it between two tails is not noticed, but nothing in the
/// program cuts a manifest.
#[derive(Default)]
struct Tail {
    /// Bytes of whole lines parsed so far.
    offset: u64,
    /// The owning fingerprint, once the header line is whole.
    fingerprint: Option<String>,
    records: Vec<ManifestRecord>,
    /// Whole lines dropped as torn so far.
    torn: usize,
}

impl Tail {
    /// Parses what was appended to `path` since the last call and returns
    /// what [`load_manifest_records`] returns for it.
    fn read(&mut self, path: &Path) -> Result<Option<(String, Vec<ManifestRecord>)>> {
        let io = |e: io::Error| CoreError::Io(format!("read manifest {}: {e}", path.display()));
        let mut file = File::open(path)
            .map_err(|e| CoreError::Io(format!("open manifest {}: {e}", path.display())))?;
        if file.metadata().map_err(io)?.len() < self.offset {
            // Cut back behind what was parsed: start again.
            *self = Tail::default();
        }
        let mut bytes = Vec::new();
        file.seek(SeekFrom::Start(self.offset)).map_err(io)?;
        file.read_to_end(&mut bytes).map_err(io)?;
        let whole = bytes
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |at| at + 1);
        let (whole_lines, rest) = bytes.split_at(whole);
        let mut lines = whole_lines
            .split_inclusive(|&b| b == b'\n')
            .map(|line| &line[..line.len() - 1]);
        // Nothing is committed until every line is parsed: a corrupt
        // header fails every read, as it fails every load.
        let fingerprint = match self.fingerprint.clone() {
            None => lines.next().map(parse_header).transpose()?,
            known => known,
        };
        let (mut records, mut torn) = (Vec::new(), 0);
        for line in lines {
            match parse_record(line) {
                Some(record) => records.push(record),
                None => torn += 1,
            }
        }
        warn_torn(path, torn);
        self.fingerprint = fingerprint;
        self.records.append(&mut records);
        self.offset += whole as u64;
        self.torn += torn;

        let Some(fingerprint) = &self.fingerprint else {
            return match rest {
                [] => Ok(None),
                header => parse_header(header).map(|fingerprint| Some((fingerprint, Vec::new()))),
            };
        };
        let mut records = self.records.clone();
        records.extend(parse_record(rest));
        Ok(Some((fingerprint.clone(), records)))
    }
}

/// The fencing-merged view of a manifest's records: what replay actually
/// trusts after lease epochs have had their say.
#[derive(Debug, Clone, Default)]
pub struct ManifestView {
    /// Admitted cell records, in manifest order (later records for the
    /// same cell still supersede earlier ones — apply last-record-wins
    /// on top, as [`crate::Campaign::run`] does).
    pub cells: Vec<CellRecord>,
    /// The replayed lease state machine.
    pub leases: crate::lease::LeaseTable,
    /// Per-worker count of records rejected by epoch fencing (a stale
    /// worker's late appends).
    pub fenced: std::collections::HashMap<String, usize>,
}

/// Replays raw records through the lease state machine, dropping every
/// fenced append. This is **the** merge: every reader (resume, workers,
/// `hetsched report`, the serve daemon) sees the same surviving records.
pub fn replay_records(records: &[ManifestRecord]) -> ManifestView {
    let mut view = ManifestView::default();
    for record in records {
        match record {
            ManifestRecord::Lease(lease) => {
                if !view.leases.apply(lease) {
                    *view.fenced.entry(lease.worker.clone()).or_insert(0) += 1;
                }
            }
            ManifestRecord::Cell(cell) => {
                if view.leases.admits(&cell.cell, cell.epoch) {
                    view.cells.push(cell.clone());
                } else {
                    let worker = cell.worker.clone().unwrap_or_else(|| "?".to_string());
                    tracing::warn!(
                        "manifest: fenced stale result for cell {} from worker {worker} \
                         (epoch {:?} < {})",
                        cell.cell,
                        cell.epoch,
                        view.leases.max_epoch(&cell.cell)
                    );
                    *view.fenced.entry(worker).or_insert(0) += 1;
                }
            }
        }
    }
    view
}

/// An exclusive claim on a manifest store, released on drop. For the
/// local store this is the kernel's lock on the manifest file, held
/// through a handle of its own: dropping the guard closes that handle,
/// which releases the lock, and so does the death of the process.
#[derive(Debug)]
pub struct StoreLock {
    _file: File,
}

impl StoreLock {
    /// Blocks until this guard holds the lock on the file at `path`.
    fn take(path: &Path) -> Result<StoreLock> {
        let err = |e: io::Error| CoreError::Io(format!("lock manifest {}: {e}", path.display()));
        // `flock` belongs to an open file description, so a handle of
        // its own makes two stores, or two threads of one, exclude each
        // other. NFS grants its emulated exclusive lock only to a handle
        // open for writing.
        let file = OpenOptions::new().append(true).open(path).map_err(err)?;
        file.lock().map_err(err)?;
        Ok(StoreLock { _file: file })
    }
}

/// Where a campaign manifest lives and how its records are appended,
/// read back, and locked. [`LocalManifestStore`] is the JSONL-file
/// implementation; the trait exists so a shared object store can slot in
/// behind the same campaign/worker machinery later.
pub trait ManifestStore: Send + Sync {
    /// Appends one cell record as a whole line (atomic with respect to
    /// concurrent appenders).
    fn append_cell(&self, record: &CellRecord) -> std::io::Result<()>;

    /// Appends one lease record as a whole line.
    fn append_lease(&self, record: &LeaseRecord) -> std::io::Result<()>;

    /// Reads the whole log back: owning fingerprint plus raw records, or
    /// `None` when the store is empty.
    fn tail(&self) -> Result<Option<(String, Vec<ManifestRecord>)>>;

    /// Takes the store's exclusive lock for a read-decide-append critical
    /// section, blocking until the holder releases it. A lock whose
    /// holder died is free at once: there is no stale lock to break.
    fn lock(&self) -> Result<StoreLock>;

    /// Durability barrier: everything appended so far reaches stable
    /// storage.
    fn sync(&self) -> std::io::Result<()>;
}

/// The JSONL-file manifest store: appends behind a mutex, one write per
/// record so a kill loses at most the line being written, and fsynced
/// every `sync_every` records so a power loss loses at most that window.
/// The lock recovers from poisoning (a panicking appender leaves at worst
/// a torn tail line, which the reader tolerates) — one bad cell must not
/// disable checkpointing for the rest of the campaign.
pub struct LocalManifestStore {
    path: PathBuf,
    state: Mutex<jsonl::Sink>,
    tail: Mutex<Tail>,
}

impl LocalManifestStore {
    /// Opens `path` for appending, writing (and fsyncing) the fingerprint
    /// header if the file is new or empty. `sync_every` batches fsyncs
    /// (clamped to ≥ 1).
    pub fn open(path: &Path, fingerprint: &str, sync_every: usize) -> Result<Self> {
        let mut sink = jsonl::Sink::open(path, Writers::Many, Some(sync_every))
            .map_err(|e| CoreError::Io(format!("open manifest {}: {e}", path.display())))?;
        let header = ManifestHeader {
            fingerprint: fingerprint.to_string(),
            version: MANIFEST_VERSION,
        };
        {
            // Under the lock, so stores opening a fresh file together
            // write one header between them.
            let _lock = StoreLock::take(path)?;
            sink.header(&header)
                .map_err(|e| CoreError::Io(format!("write manifest header: {e}")))?;
        }
        Ok(LocalManifestStore {
            path: path.to_path_buf(),
            state: Mutex::new(sink),
            tail: Mutex::default(),
        })
    }

    fn append(&self, record: &impl Serialize, scope: &dyn Display) -> io::Result<()> {
        let mut sink = lock_unpoisoned(&self.state);
        // The fault point sits inside the critical section so an injected
        // panic genuinely poisons the mutex — the scenario the poisoning
        // recovery exists for.
        chaos::raise_io("manifest.append", scope)?;
        sink.append(record)
    }

    /// The manifest's length in bytes, without the lock. It opens the
    /// file and `fstat`s the handle: an NFS client revalidates its cached
    /// attributes on open, where a `stat` of the path may answer from the
    /// cache.
    pub(crate) fn disk_len(&self) -> io::Result<u64> {
        Ok(File::open(&self.path)?.metadata()?.len())
    }
}

impl ManifestStore for LocalManifestStore {
    fn append_cell(&self, record: &CellRecord) -> std::io::Result<()> {
        self.append(record, &record.cell)
    }

    fn append_lease(&self, record: &LeaseRecord) -> std::io::Result<()> {
        self.append(record, &record.cell)
    }

    fn tail(&self) -> Result<Option<(String, Vec<ManifestRecord>)>> {
        lock_unpoisoned(&self.tail).read(&self.path)
    }

    fn lock(&self) -> Result<StoreLock> {
        let guard = StoreLock::take(&self.path)?;
        lock_unpoisoned(&self.state)
            .repair(Writers::Many, &self.path)
            .map_err(|e| CoreError::Io(format!("heal manifest tail: {e}")))?;
        Ok(guard)
    }

    fn sync(&self) -> std::io::Result<()> {
        lock_unpoisoned(&self.state).sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{CellId, CellOutcome};
    use crate::config::DatasetId;
    use crate::lease::LeaseAction;
    use hetsched_heuristics::SeedKind;
    use hetsched_moea::Algorithm;
    use proptest::prelude::*;
    use std::io::Write;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{mpsc, Barrier};
    use std::time::Duration;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "hetsched-store-{tag}-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    fn cell(replicate: usize) -> CellId {
        CellId {
            dataset: DatasetId::One,
            algorithm: Algorithm::Nsga2,
            seed: SeedKind::Random,
            replicate,
        }
    }

    fn cell_record(replicate: usize, worker: Option<&str>, epoch: Option<u64>) -> CellRecord {
        CellRecord {
            cell: cell(replicate),
            run: None,
            error: Some("x".to_string()),
            outcome: CellOutcome::Poisoned,
            attempts: 1,
            duration_s: 0.1,
            worker: worker.map(String::from),
            epoch,
        }
    }

    #[test]
    fn store_appends_both_record_kinds_and_tails_them_back() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let store = LocalManifestStore::open(&path, "cafe", 1).unwrap();
        store
            .append_cell(&cell_record(0, Some("w1"), Some(1)))
            .unwrap();
        store
            .append_lease(&LeaseRecord::new(
                cell(1),
                "w1",
                1,
                LeaseAction::Acquire,
                9.0,
            ))
            .unwrap();
        store.sync().unwrap();
        let (owner, records) = store.tail().unwrap().unwrap();
        assert_eq!(owner, "cafe");
        assert_eq!(records.len(), 2);
        assert!(matches!(&records[0], ManifestRecord::Cell(r) if r.epoch == Some(1)));
        assert!(
            matches!(&records[1], ManifestRecord::Lease(l) if l.action == LeaseAction::Acquire)
        );
        let _ = std::fs::remove_file(&path);
    }

    /// Appends `bytes` the way a writer killed mid-append leaves them.
    fn append_raw(path: &Path, bytes: &[u8]) {
        let mut file = OpenOptions::new().append(true).open(path).unwrap();
        file.write_all(bytes).unwrap();
    }

    #[test]
    fn lock_holds_the_manifest_file_itself_and_heals_torn_tails() {
        let path = temp_path("lock");
        let _ = std::fs::remove_file(&path);
        let store = LocalManifestStore::open(&path, "cafe", 1).unwrap();
        // Simulate a writer killed mid-append: bytes with no newline.
        append_raw(&path, b"{\"cell\":{\"part");
        let guard = store.lock().unwrap();
        // Any other handle on the manifest is locked out until the guard
        // drops, and no lockfile appears next to the manifest.
        let other = File::open(&path).unwrap();
        assert!(matches!(
            other.try_lock(),
            Err(std::fs::TryLockError::WouldBlock)
        ));
        let mut sidecar = path.clone().into_os_string();
        sidecar.push(".lock");
        assert!(!Path::new(&sidecar).exists());
        drop(guard);
        other.try_lock().unwrap();
        drop(other);
        // The torn tail was healed: the next append lands on its own
        // line, and the garbage line is dropped at read time.
        store.append_cell(&cell_record(0, None, None)).unwrap();
        let (_, records) = store.tail().unwrap().unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(lock_unpoisoned(&store.tail).torn, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn two_stores_in_one_process_exclude_each_other_and_hand_off_at_once() {
        // Everything that can block runs off the test thread, so a lock
        // that is never released fails the test instead of hanging it.
        let (finished, outcome) = mpsc::channel();
        std::thread::spawn(move || {
            let path = temp_path("handoff");
            let _ = std::fs::remove_file(&path);
            let first = LocalManifestStore::open(&path, "cafe", 1).unwrap();
            let second = LocalManifestStore::open(&path, "cafe", 1).unwrap();
            let released = AtomicBool::new(false);
            let guard = first.lock().unwrap();
            let (calling, called) = mpsc::channel();
            let after_release = std::thread::scope(|scope| {
                let contender = scope.spawn(|| {
                    calling.send(()).unwrap();
                    let _guard = second.lock().unwrap();
                    released.load(Ordering::SeqCst)
                });
                called.recv().unwrap();
                // Time for the contender to block in `lock`; the order
                // itself is read from the flag.
                std::thread::sleep(Duration::from_millis(50));
                released.store(true, Ordering::SeqCst);
                // `first` stays open: dropping its guard alone frees the
                // lock.
                drop(guard);
                contender.join().unwrap()
            });
            drop(first);
            let _ = std::fs::remove_file(&path);
            finished.send(after_release).unwrap();
        });
        let after_release = outcome
            .recv_timeout(Duration::from_secs(20))
            .expect("a store never got the lock");
        assert!(after_release, "both stores held the lock at once");
    }

    #[test]
    fn stores_opening_a_fresh_manifest_together_write_one_header() {
        const STORES: usize = 4;
        for round in 0..20 {
            let path = temp_path(&format!("fresh-{round}"));
            let _ = std::fs::remove_file(&path);
            let start = Barrier::new(STORES);
            let stores: Vec<LocalManifestStore> = std::thread::scope(|scope| {
                let opening: Vec<_> = (0..STORES)
                    .map(|_| {
                        scope.spawn(|| {
                            start.wait();
                            LocalManifestStore::open(&path, "cafe", 1).unwrap()
                        })
                    })
                    .collect();
                opening.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let bytes = std::fs::read(&path).unwrap();
            assert_eq!(bytes, b"{\"fingerprint\":\"cafe\",\"version\":4}\n");
            for store in &stores {
                assert_eq!(store.tail().unwrap(), Some(("cafe".to_string(), vec![])));
                assert_eq!(lock_unpoisoned(&store.tail).torn, 0);
            }
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn a_tail_starts_again_when_the_manifest_is_cut_back() {
        let path = temp_path("cut");
        let _ = std::fs::remove_file(&path);
        let store = LocalManifestStore::open(&path, "cafe", 1).unwrap();
        for replicate in 0..3 {
            store
                .append_cell(&cell_record(replicate, None, None))
                .unwrap();
        }
        assert_eq!(store.tail().unwrap().unwrap().1.len(), 3);
        // Keep the header and the first record.
        let bytes = std::fs::read(&path).unwrap();
        let second_newline = bytes
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b == b'\n')
            .nth(1)
            .unwrap()
            .0;
        File::options()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(second_newline as u64 + 1)
            .unwrap();
        let tailed = store.tail().unwrap();
        assert_eq!(tailed, load_manifest_records(&path).unwrap());
        assert_eq!(tailed.unwrap().1.len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    /// One step of an interleaving of writers and readers on one manifest.
    #[derive(Debug, Clone)]
    enum Op {
        /// Store `store` appends a cell record, or a lease record if
        /// `lease`.
        Append {
            store: usize,
            lease: bool,
            replicate: usize,
        },
        /// A writer killed mid-append: the first `len` bytes of a record
        /// line, up to all of it but the newline.
        Fragment { replicate: usize, len: usize },
        /// Store `store` takes and drops the lock, healing a torn tail.
        Lock(usize),
        /// The second store tails; the first tails after every step.
        Tail,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        (0u8..6, 0usize..2, 0usize..8, 1usize..4096).prop_map(|(kind, store, replicate, len)| {
            match kind {
                0 | 1 => Op::Append {
                    store,
                    lease: kind == 1,
                    replicate,
                },
                2 => Op::Fragment { replicate, len },
                3 => Op::Lock(store),
                _ => Op::Tail,
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn incremental_tails_equal_a_full_read(
            ops in prop::collection::vec(op_strategy(), 0..40),
        ) {
            let path = temp_path("incremental");
            let _ = std::fs::remove_file(&path);
            let stores = [
                LocalManifestStore::open(&path, "cafe", 1).unwrap(),
                LocalManifestStore::open(&path, "cafe", 1).unwrap(),
            ];
            for op in &ops {
                match *op {
                    Op::Append { store, lease: false, replicate } => stores[store]
                        .append_cell(&cell_record(replicate, Some("w"), Some(1)))
                        .unwrap(),
                    Op::Append { store, lease: true, replicate } => stores[store]
                        .append_lease(&LeaseRecord::new(
                            cell(replicate),
                            "w",
                            1,
                            LeaseAction::Acquire,
                            9.5,
                        ))
                        .unwrap(),
                    Op::Fragment { replicate, len } => {
                        let line = serde_json::to_string(&cell_record(replicate, None, None))
                            .unwrap();
                        append_raw(&path, &line.as_bytes()[..1 + len % line.len()]);
                    }
                    Op::Lock(store) => drop(stores[store].lock().unwrap()),
                    Op::Tail => {
                        prop_assert_eq!(
                            stores[1].tail().unwrap(),
                            load_manifest_records(&path).unwrap()
                        );
                    }
                }
                prop_assert_eq!(
                    stores[0].tail().unwrap(),
                    load_manifest_records(&path).unwrap(),
                    "after {:?}",
                    op
                );
            }
            prop_assert_eq!(stores[1].tail().unwrap(), load_manifest_records(&path).unwrap());
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn replay_fences_stale_epochs_and_counts_per_worker() {
        let records = vec![
            ManifestRecord::Lease(LeaseRecord::new(
                cell(0),
                "w1",
                1,
                LeaseAction::Acquire,
                1.0,
            )),
            ManifestRecord::Lease(LeaseRecord::new(
                cell(0),
                "w2",
                2,
                LeaseAction::Acquire,
                9.0,
            )),
            // w1's zombie result at the superseded epoch: fenced.
            ManifestRecord::Cell(cell_record(0, Some("w1"), Some(1))),
            // w2's result at the live epoch: admitted.
            ManifestRecord::Cell(cell_record(0, Some("w2"), Some(2))),
            // w1's zombie renewal: fenced too.
            ManifestRecord::Lease(LeaseRecord::new(cell(0), "w1", 1, LeaseAction::Renew, 99.0)),
            // An untagged (single-process / v3) record always admits.
            ManifestRecord::Cell(cell_record(1, None, None)),
        ];
        let view = replay_records(&records);
        assert_eq!(view.cells.len(), 2);
        assert_eq!(view.cells[0].worker.as_deref(), Some("w2"));
        assert_eq!(view.fenced.get("w1"), Some(&2));
        assert_eq!(view.leases.stolen_by("w2"), 1);
    }

    #[test]
    fn store_survives_a_poisoned_mutex() {
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let path = temp_path("poison");
        let _ = std::fs::remove_file(&path);
        let store = LocalManifestStore::open(&path, "feedface00000000", 1).unwrap();

        // Poison the store's mutex the way a panicking appender would.
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let _guard = store.state.lock().unwrap();
            panic!("injected panic while holding the manifest lock");
        }));
        assert!(caught.is_err());
        assert!(store.state.is_poisoned());

        // Checkpointing keeps working for the surviving cells.
        let record = cell_record(0, None, None);
        store.append_cell(&record).unwrap();
        store.sync().unwrap();
        let (_, records) = store.tail().unwrap().unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(records, vec![ManifestRecord::Cell(record)]);
    }

    #[test]
    fn old_versions_are_refused_naming_both_versions() {
        let path = temp_path("version");
        std::fs::write(&path, "{\"fingerprint\":\"d00d\",\"version\":2}\n").unwrap();
        let err = load_manifest_records(&path).unwrap_err();
        let message = err.to_string();
        assert!(message.contains("version 2 unsupported"), "{message}");
        assert!(message.contains("writes v4"), "{message}");
        assert!(message.contains("reads v3"), "{message}");
        std::fs::write(&path, "{\"fingerprint\":\"d00d\",\"version\":5}\n").unwrap();
        assert!(load_manifest_records(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }
}
