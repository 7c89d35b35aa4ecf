//! The append-only JSON Lines format of every log this crate keeps: the
//! campaign manifest, the run journal, the span trace, the heartbeat and
//! the stream manifest. A record is one line, written with its newline in
//! one `write`, so concurrent `O_APPEND` writers never interleave within a
//! line. Owners shared across threads keep their [`Sink`] behind
//! [`lock_unpoisoned`](crate::durable::lock_unpoisoned) and raise their
//! chaos fault point inside that critical section.

use serde::Serialize;
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Who appends to a log, which fixes how a line torn by a killed writer
/// is repaired and read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Writers {
    /// One process: the journal, trace, heartbeat and stream manifest.
    /// Opening cuts an unterminated last line that does not parse and
    /// terminates one that does; reading drops a bad last line and
    /// rejects an earlier one, which no crash leaves behind.
    One,
    /// Many processes: the campaign manifest. The store lock terminates
    /// an unterminated last line, as its writer may still be appending;
    /// reading skips and counts bad lines anywhere.
    Many,
}

enum Out {
    File(File),
    /// A caller's writer (tests, in-memory capture): never fsynced.
    Writer(Box<dyn Write + Send>),
}

/// The append side of a log.
pub(crate) struct Sink {
    out: Out,
    /// Fsync after this many lines; `None` only hands lines to the OS.
    fsync_every: Option<usize>,
    /// Lines written since the last fsync.
    pending: usize,
}

impl Sink {
    /// Opens `path` for appending, creating it, and repairs a
    /// single-writer log's torn tail.
    pub(crate) fn open(path: &Path, writers: Writers, fsync: Option<usize>) -> io::Result<Sink> {
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;
        let mut sink = Sink::new(Out::File(file), fsync);
        if writers == Writers::One {
            sink.repair(writers, path)?;
        }
        Ok(sink)
    }

    /// Creates `path`, truncating a log left by an earlier run.
    pub(crate) fn create(path: &Path) -> io::Result<Sink> {
        Ok(Sink::new(Out::File(File::create(path)?), None))
    }

    /// Wraps any writer.
    pub(crate) fn to_writer(writer: impl Write + Send + 'static) -> Sink {
        Sink::new(Out::Writer(Box::new(writer)), None)
    }

    fn new(out: Out, fsync_every: Option<usize>) -> Sink {
        Sink {
            out,
            fsync_every,
            pending: 0,
        }
    }

    /// Writes `header` as the first line of an empty log, and makes it
    /// durable at once: every later record is read against it.
    pub(crate) fn header(&mut self, header: &impl Serialize) -> io::Result<()> {
        if let Out::File(file) = &self.out {
            if file.metadata()?.len() > 0 {
                return Ok(());
            }
        }
        self.write(header)?;
        self.sync()
    }

    /// Appends `record` as one line, and fsyncs when one is due.
    pub(crate) fn append(&mut self, record: &impl Serialize) -> io::Result<()> {
        self.write(record)?;
        if let Some(every) = self.fsync_every {
            self.pending += 1;
            if self.pending >= every {
                self.sync()?;
            }
        }
        Ok(())
    }

    fn write(&mut self, record: &impl Serialize) -> io::Result<()> {
        let mut line = serde_json::to_string(record)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        line.push('\n');
        match &mut self.out {
            Out::File(file) => file.write_all(line.as_bytes()),
            Out::Writer(writer) => writer
                .write_all(line.as_bytes())
                .and_then(|()| writer.flush()),
        }
    }

    /// Makes every line written so far as durable as the log asks.
    pub(crate) fn sync(&mut self) -> io::Result<()> {
        match (&mut self.out, self.fsync_every) {
            (Out::File(file), Some(_)) => file.sync_data()?,
            (Out::File(_), None) => {}
            (Out::Writer(writer), _) => writer.flush()?,
        }
        self.pending = 0;
        Ok(())
    }

    /// Repairs an unterminated last line by `writers`' rule.
    pub(crate) fn repair(&mut self, writers: Writers, path: &Path) -> io::Result<()> {
        let Out::File(file) = &mut self.out else {
            return Ok(());
        };
        let mut last = [b'\n'];
        if file.metadata()?.len() > 0 {
            file.seek(SeekFrom::End(-1))?;
            file.read_exact(&mut last)?;
        }
        if last == [b'\n'] {
            return Ok(());
        }
        tracing::warn!(
            "{}: repairing a last line torn by an interrupted writer",
            path.display()
        );
        if writers == Writers::One {
            // Only after a crash: read the file to find its last line.
            let mut bytes = Vec::new();
            file.seek(SeekFrom::Start(0))?;
            file.read_to_end(&mut bytes)?;
            let start = bytes
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |at| at + 1);
            // A strict prefix of a JSON object never parses, so this tells
            // a torn record from one that lost only its newline.
            let whole = std::str::from_utf8(&bytes[start..])
                .is_ok_and(|text| serde_json::from_str::<serde::Value>(text).is_ok());
            if !whole {
                return file.set_len(start as u64);
            }
        }
        file.write_all(b"\n")
    }
}

/// Why a log could not be read back.
#[derive(Debug)]
pub(crate) enum ReadError {
    Io(io::Error),
    /// A single-writer log has a bad line before its last.
    Corrupt,
}

/// Reads a log back one line at a time.
pub(crate) struct Reader(BufReader<File>);

impl Reader {
    pub(crate) fn open(path: &Path) -> io::Result<Reader> {
        Self::open_at(path, 0)
    }

    /// Opens `path` to read from byte `offset` on.
    pub(crate) fn open_at(path: &Path, offset: u64) -> io::Result<Reader> {
        let mut file = File::open(path)?;
        file.seek(SeekFrom::Start(offset))?;
        Ok(Reader(BufReader::new(file)))
    }

    /// The next line, newline stripped; `None` at the end.
    pub(crate) fn next_line(&mut self) -> io::Result<Option<Vec<u8>>> {
        let mut line = Vec::new();
        if self.0.read_until(b'\n', &mut line)? == 0 {
            return Ok(None);
        }
        if line.last() == Some(&b'\n') {
            line.pop();
        }
        Ok(Some(line))
    }

    /// Parses every remaining line by `writers`' rule: the records that
    /// parse, and how many lines did not.
    pub(crate) fn records<T>(
        mut self,
        writers: Writers,
        mut parse: impl FnMut(&str) -> Option<T>,
    ) -> Result<(Vec<T>, usize), ReadError> {
        let mut records = Vec::new();
        let mut torn = 0;
        while let Some(line) = self.next_line().map_err(ReadError::Io)? {
            if torn > 0 && writers == Writers::One {
                return Err(ReadError::Corrupt);
            }
            match std::str::from_utf8(&line).ok().and_then(&mut parse) {
                Some(record) => records.push(record),
                None => torn += 1,
            }
        }
        Ok((records, torn))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use serde::Deserialize;
    use std::path::PathBuf;
    use std::sync::{Arc, Mutex};

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Rec {
        id: u64,
        text: String,
    }

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "hetsched-jsonl-{tag}-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    fn parse(line: &str) -> Option<Rec> {
        serde_json::from_str(line).ok()
    }

    fn read(path: &Path, writers: Writers) -> Result<(Vec<Rec>, usize), ReadError> {
        Reader::open(path)
            .map_err(ReadError::Io)?
            .records(writers, parse)
    }

    /// Counts the `write` calls that reach it.
    #[derive(Clone, Default)]
    struct CountingSink(Arc<Mutex<Vec<usize>>>);

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().push(buf.len());
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_large_record_reaches_the_sink_in_one_write() {
        let writes = CountingSink::default();
        let mut sink = Sink::to_writer(writes.clone());
        let record = Rec {
            id: 1,
            text: "x".repeat(20_000),
        };
        sink.append(&record).unwrap();
        let sizes = writes.0.lock().unwrap().clone();
        assert_eq!(
            sizes,
            vec![serde_json::to_string(&record).unwrap().len() + 1]
        );
    }

    /// One way to damage a well-formed log.
    #[derive(Debug, Clone)]
    enum Damage {
        /// Keep only the first `len` bytes.
        Truncate(usize),
        /// XOR the byte at `at` with a nonzero mask.
        Flip(usize, u8),
        /// Repeat line `i` right after itself.
        Duplicate(usize),
        /// Exchange lines `i` and `j`.
        Swap(usize, usize),
    }

    fn record_strategy() -> impl Strategy<Value = Rec> {
        // Quotes, backslashes, braces, a newline and a multi-byte char
        // exercise the escaping that keeps one record on one line.
        const ALPHABET: [char; 10] = ['a', 'z', '0', ' ', '"', '\\', '{', '}', '\n', 'é'];
        (
            0u64..1_000_000,
            prop::collection::vec(0usize..ALPHABET.len(), 0..12),
        )
            .prop_map(|(id, chars)| Rec {
                id,
                text: chars.into_iter().map(|i| ALPHABET[i]).collect(),
            })
    }

    fn damage_strategy() -> impl Strategy<Value = Damage> {
        (0u8..4, 0usize..4096, 0usize..4096, 1u8..=255).prop_map(|(kind, a, b, mask)| match kind {
            0 => Damage::Truncate(a),
            1 => Damage::Flip(a, mask),
            2 => Damage::Duplicate(a),
            _ => Damage::Swap(a, b),
        })
    }

    /// Lines of `bytes`, each without its newline.
    fn split_lines(bytes: &[u8]) -> Vec<&[u8]> {
        let mut lines: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
        if bytes.last() == Some(&b'\n') || bytes.is_empty() {
            lines.pop();
        }
        lines
    }

    fn apply(bytes: &[u8], damage: &Damage) -> Vec<u8> {
        let lines = split_lines(bytes);
        let join = |lines: Vec<&[u8]>| -> Vec<u8> {
            lines
                .iter()
                .flat_map(|l| l.iter().chain(b"\n"))
                .copied()
                .collect()
        };
        match *damage {
            Damage::Truncate(len) => bytes[..len % (bytes.len() + 1)].to_vec(),
            Damage::Flip(at, mask) => {
                let mut out = bytes.to_vec();
                if !out.is_empty() {
                    let at = at % out.len();
                    out[at] ^= mask;
                }
                out
            }
            Damage::Duplicate(i) if !lines.is_empty() => {
                let mut lines = lines;
                let i = i % lines.len();
                lines.insert(i, lines[i]);
                join(lines)
            }
            Damage::Swap(i, j) if !lines.is_empty() => {
                let mut lines = lines;
                let n = lines.len();
                lines.swap(i % n, j % n);
                join(lines)
            }
            Damage::Duplicate(_) | Damage::Swap(..) => bytes.to_vec(),
        }
    }

    /// What each rule must make of `bytes`, worked out line by line.
    fn expected(bytes: &[u8], writers: Writers) -> Option<(Vec<Rec>, usize)> {
        let parsed: Vec<Option<Rec>> = split_lines(bytes)
            .iter()
            .map(|l| std::str::from_utf8(l).ok().and_then(parse))
            .collect();
        let bad = parsed.iter().filter(|p| p.is_none()).count();
        if writers == Writers::One && parsed.iter().rev().skip(1).any(Option::is_none) {
            return None;
        }
        Some((parsed.into_iter().flatten().collect(), bad))
    }

    fn write_log(path: &Path, records: &[Rec]) -> Vec<u8> {
        let _ = std::fs::remove_file(path);
        let mut sink = Sink::open(path, Writers::One, None).unwrap();
        for record in records {
            sink.append(record).unwrap();
        }
        std::fs::read(path).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn untouched_logs_round_trip_byte_for_byte(
            records in prop::collection::vec(record_strategy(), 0..10),
        ) {
            let path = temp_path("roundtrip");
            let bytes = write_log(&path, &records);
            for writers in [Writers::One, Writers::Many] {
                let (read, torn) = read(&path, writers).unwrap();
                prop_assert_eq!(torn, 0);
                prop_assert_eq!(&read, &records);
                let rewritten: Vec<u8> = read
                    .iter()
                    .flat_map(|r| (serde_json::to_string(r).unwrap() + "\n").into_bytes())
                    .collect();
                prop_assert_eq!(&rewritten, &bytes);
            }
            let _ = std::fs::remove_file(&path);
        }

        #[test]
        fn damaged_logs_read_by_their_writers_rule(
            records in prop::collection::vec(record_strategy(), 1..10),
            damage in damage_strategy(),
        ) {
            let path = temp_path("damage");
            let clean = write_log(&path, &records);
            let damaged = apply(&clean, &damage);
            std::fs::write(&path, &damaged).unwrap();
            for writers in [Writers::One, Writers::Many] {
                // No panic, and a rejection is a typed error.
                let outcome = read(&path, writers);
                match (&outcome, expected(&damaged, writers)) {
                    (Ok(got), Some(want)) => prop_assert_eq!(got, &want),
                    (Err(ReadError::Corrupt), None) => {}
                    (got, want) => panic!("{damage:?} {writers:?}: {got:?} vs {want:?}"),
                }
                prop_assert!(writers == Writers::One || outcome.is_ok());
                match damage {
                    Damage::Truncate(_) => {
                        // Truncation loses at most the record it cut into.
                        let (got, _) = outcome.unwrap();
                        let whole = damaged.iter().filter(|&&b| b == b'\n').count();
                        prop_assert!(got.len() == whole || got.len() == whole + 1);
                        prop_assert_eq!(&got[..], &records[..got.len()]);
                    }
                    Damage::Flip(at, _) => {
                        // Every line the flip did not touch reads back unchanged.
                        // A flipped newline joins its line to the next.
                        let at = at % clean.len();
                        let hit = clean[..at].iter().filter(|&&b| b == b'\n').count();
                        let touched = hit..=hit + usize::from(clean[at] == b'\n');
                        if let Ok((got, _)) = &outcome {
                            for (i, record) in records.iter().enumerate() {
                                if !touched.contains(&i) {
                                    prop_assert!(got.contains(record), "{damage:?}: lost {i}");
                                }
                            }
                        }
                    }
                    Damage::Duplicate(_) | Damage::Swap(..) => {
                        prop_assert_eq!(outcome.unwrap().1, 0);
                    }
                }
            }
            let _ = std::fs::remove_file(&path);
        }

        #[test]
        fn reopening_a_truncated_log_keeps_every_whole_record(
            records in prop::collection::vec(record_strategy(), 1..10),
            cut in 0usize..4096,
            extra in record_strategy(),
        ) {
            let path = temp_path("reopen");
            let clean = write_log(&path, &records);
            let kept = cut % (clean.len() + 1);
            let whole = clean[..kept].iter().filter(|&&b| b == b'\n').count();
            for writers in [Writers::One, Writers::Many] {
                std::fs::write(&path, &clean[..kept]).unwrap();
                let mut sink = Sink::open(&path, writers, None).unwrap();
                sink.repair(writers, &path).unwrap();
                sink.append(&extra).unwrap();
                drop(sink);
                // The single-writer repair leaves a log its strict reader
                // accepts; the shared heal leaves at most one bad line.
                let (got, torn) = read(&path, writers).unwrap();
                prop_assert_eq!(got.last(), Some(&extra));
                let survivors = &got[..got.len() - 1];
                prop_assert!(survivors.len() == whole || survivors.len() == whole + 1);
                prop_assert_eq!(survivors, &records[..survivors.len()]);
                prop_assert!(torn <= 1);
                prop_assert!(writers == Writers::Many || torn == 0);
            }
            let _ = std::fs::remove_file(&path);
        }
    }
}
