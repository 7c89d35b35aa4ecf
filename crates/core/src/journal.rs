//! Run journal: serialises an experiment's per-generation trajectory to
//! JSON Lines — one [`JournalRecord`] per generation per population.
//!
//! The journal is shared across the populations a [`Framework`] run
//! executes in parallel, so appends go through a mutex; each record is
//! written as a single line in a single write, keeping concurrent writers
//! from interleaving within a record.
//!
//! [`Framework`]: crate::Framework

use crate::durable::lock_unpoisoned;
use crate::jsonl::{self, ReadError, Writers};
use hetsched_heuristics::SeedKind;
use hetsched_moea::observe::{GenerationStats, Observer};
use hetsched_moea::Individual;
use hetsched_sim::{chaos, Allocation};
use serde::{Deserialize, Serialize};
use std::io::{self, Write};
use std::path::Path;
use std::sync::Mutex;

/// One journal line: which population produced the generation, plus the
/// engine's metrics record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalRecord {
    /// Seeding-heuristic label of the population (e.g. `"Min Energy"`).
    pub population: String,
    /// The population's RNG stream index within the experiment.
    pub stream: u64,
    /// The engine's per-generation metrics.
    pub stats: GenerationStats,
}

/// A JSONL sink for [`JournalRecord`]s, safe to share across the
/// framework's parallel population runs.
pub struct RunJournal {
    sink: Mutex<jsonl::Sink>,
}

impl RunJournal {
    /// Opens (truncating) a journal file.
    ///
    /// # Errors
    ///
    /// File creation failures.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(RunJournal {
            sink: Mutex::new(jsonl::Sink::create(path.as_ref())?),
        })
    }

    /// Wraps any writer — handy for tests and in-memory capture.
    pub fn to_writer(writer: impl Write + Send + 'static) -> Self {
        RunJournal {
            sink: Mutex::new(jsonl::Sink::to_writer(writer)),
        }
    }

    /// Appends one record as a JSON line and flushes it, so a killed run
    /// loses at most the line being written.
    ///
    /// # Errors
    ///
    /// Serialisation or write failures.
    pub fn append(&self, record: &JournalRecord) -> io::Result<()> {
        // Poison-recovering lock: a panicking writer leaves at worst a
        // torn tail line, which the reader tolerates — the journal keeps
        // accepting records from the surviving populations.
        let mut sink = lock_unpoisoned(&self.sink);
        chaos::raise_io("journal.write", &record.stream)?;
        sink.append(record)
    }

    /// Flushes the underlying writer.
    ///
    /// # Errors
    ///
    /// Write failures.
    pub fn flush(&self) -> io::Result<()> {
        lock_unpoisoned(&self.sink).sync()
    }

    /// Reads a journal file back. A torn final line (the process was
    /// killed mid-write) is dropped, matching the append-side discipline;
    /// any *earlier* unparseable line is an error, since the file is
    /// then corrupt rather than merely truncated.
    ///
    /// # Errors
    ///
    /// I/O failures, or a malformed line that is not the last.
    pub fn read(path: impl AsRef<Path>) -> io::Result<Vec<JournalRecord>> {
        let reader = jsonl::Reader::open(path.as_ref())?;
        match reader.records(Writers::One, |line| serde_json::from_str(line).ok()) {
            Ok((records, _)) => Ok(records),
            Err(ReadError::Io(e)) => Err(e),
            Err(ReadError::Corrupt) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "journal has records after a torn line",
            )),
        }
    }
}

/// Bridges one population's engine observer to a shared [`RunJournal`].
/// Write errors are reported once via `tracing::warn!` and further appends
/// are suppressed, so a full disk cannot abort a long experiment.
pub struct JournalObserver<'a> {
    journal: &'a RunJournal,
    population: &'static str,
    stream: u64,
    failed: bool,
}

impl<'a> JournalObserver<'a> {
    /// Creates the observer for one population run.
    pub fn new(journal: &'a RunJournal, seed: SeedKind, stream: u64) -> Self {
        JournalObserver {
            journal,
            population: seed.label(),
            stream,
            failed: false,
        }
    }
}

impl Observer<Allocation> for JournalObserver<'_> {
    fn on_generation(&mut self, stats: &GenerationStats, _population: &[Individual<Allocation>]) {
        if self.failed {
            return;
        }
        let record = JournalRecord {
            population: self.population.to_string(),
            stream: self.stream,
            stats: stats.clone(),
        };
        if let Err(e) = self.journal.append(&record) {
            tracing::warn!(
                "journal write failed for population {} (stream {}): {e}; disabling journal",
                self.population,
                self.stream,
            );
            self.failed = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsched_moea::observe::PhaseTimings;
    use std::sync::{Arc, Mutex as StdMutex};

    /// A writer whose buffer outlives the journal, for asserting output.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<StdMutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn record(generation: usize) -> JournalRecord {
        JournalRecord {
            population: "Random".to_string(),
            stream: 4,
            stats: GenerationStats {
                generation,
                front_sizes: vec![3, 1],
                ideal: [-10.0, 2.5],
                hypervolume: Some(12.0),
                crowding_spread: 0.5,
                evaluations: 16,
                timings: PhaseTimings {
                    mating_s: 0.01,
                    evaluation_s: 0.02,
                    sorting_s: 0.003,
                },
            },
        }
    }

    #[test]
    fn writes_one_line_per_record() {
        let buf = SharedBuf::default();
        let journal = RunJournal::to_writer(buf.clone());
        for generation in 1..=3 {
            journal.append(&record(generation)).unwrap();
        }
        journal.flush().unwrap();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for (i, line) in lines.iter().enumerate() {
            let value: serde_json::Value = serde_json::from_str(line).unwrap();
            let rendered = serde_json::to_string(&value).unwrap();
            assert!(rendered.contains("\"population\":\"Random\""), "{rendered}");
            assert!(
                rendered.contains(&format!("\"generation\":{}", i + 1)),
                "{rendered}"
            );
        }
    }

    #[test]
    fn records_roundtrip_through_write_and_read() {
        let path = std::env::temp_dir().join(format!(
            "hetsched-journal-roundtrip-{}.jsonl",
            std::process::id()
        ));
        let written: Vec<JournalRecord> = (1..=4).map(record).collect();
        {
            let journal = RunJournal::create(&path).unwrap();
            for r in &written {
                journal.append(r).unwrap();
            }
        } // drop flushes
        let read = RunJournal::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(read, written);
    }

    #[test]
    fn torn_final_line_is_dropped_on_read() {
        let path = std::env::temp_dir().join(format!(
            "hetsched-journal-torn-{}.jsonl",
            std::process::id()
        ));
        {
            let journal = RunJournal::create(&path).unwrap();
            journal.append(&record(1)).unwrap();
            journal.append(&record(2)).unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 9]).unwrap();
        let read = RunJournal::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(read, vec![record(1)]);
    }

    /// A writer that fails every operation, for the error path.
    struct BrokenWriter;

    impl Write for BrokenWriter {
        fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
            Err(io::Error::other("disk full"))
        }
        fn flush(&mut self) -> io::Result<()> {
            Err(io::Error::other("disk full"))
        }
    }

    #[test]
    fn append_surfaces_write_errors_and_drop_does_not_panic() {
        let journal = RunJournal::to_writer(BrokenWriter);
        let err = journal.append(&record(1)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Other);
        assert!(journal.flush().is_err());
        drop(journal); // Drop swallows the flush failure (warns via tracing)
    }

    #[test]
    fn concurrent_appends_do_not_interleave() {
        let buf = SharedBuf::default();
        let journal = Arc::new(RunJournal::to_writer(buf.clone()));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let journal = Arc::clone(&journal);
                scope.spawn(move || {
                    for generation in 1..=50 {
                        journal.append(&record(generation)).unwrap();
                    }
                });
            }
        });
        journal.flush().unwrap();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 200);
        for line in lines {
            serde_json::from_str::<serde_json::Value>(line)
                .unwrap_or_else(|e| panic!("corrupt journal line {line:?}: {e}"));
        }
    }
}
