//! Span persistence and timeline analysis: the file half of the tracing
//! subsystem.
//!
//! The vendored `tracing` shim delivers completed spans to one
//! process-global [`tracing::SpanSink`]. This module provides the sinks
//! and everything downstream of them:
//!
//! * [`SpanRecord`] — the serialisable mirror of a completed span, one
//!   JSON line per span;
//! * [`TraceWriter`] — an append-mode JSONL sink for one writer: opening
//!   repairs a tail torn by a crash, and [`read_trace`] drops a torn final
//!   line and rejects corruption anywhere earlier;
//! * [`TraceMux`] — the process-global sink for multi-tenant processes
//!   (the serve daemon): routes each span by trace id to a registered
//!   per-job writer, with an optional default writer for everything else;
//! * [`chrome_trace`] — export to Chrome trace-event JSON, loadable in
//!   Perfetto / `chrome://tracing`;
//! * [`TraceAnalysis`] — the post-hoc summary behind `hetsched trace`:
//!   per-phase self-time breakdown, slowest cells, the critical path
//!   through the dominant trace, and wall-clock vs summed cell time.
//!
//! Everything here observes only wall clocks and span metadata; nothing
//! touches the engine RNG streams, so traced and untraced runs stay
//! bit-identical.

use crate::durable::lock_unpoisoned;
use crate::jsonl::{self, ReadError, Writers};
use crate::{CoreError, Result};
use serde::{Deserialize, Number, Serialize, Value};
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use tracing::{ClosedSpan, FieldValue, Level, SpanSink};

/// One completed span, as persisted to a trace JSONL file. The owned
/// mirror of [`tracing::ClosedSpan`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Trace (root-span lineage) id shared by one causal tree — one
    /// campaign run or one serve job.
    pub trace_id: u64,
    /// This span's process-unique id.
    pub span_id: u64,
    /// The parent span's id; absent for roots.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub parent_id: Option<u64>,
    /// Span name (`"campaign"`, `"cell"`, `"generation"`, ...).
    pub name: String,
    /// Emitting module path.
    pub target: String,
    /// Severity label (`"INFO"`, ...).
    pub level: String,
    /// Start in nanoseconds since the sink's installation epoch.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub duration_ns: u64,
    /// Per-process thread number.
    pub thread: u64,
    /// Structured fields, in attachment order.
    #[serde(with = "span_fields")]
    pub fields: Vec<(String, Value)>,
}

/// A span's fields persist as one JSON object, in attachment order (the
/// vendored data model has no tuples for the derive to pair them with).
mod span_fields {
    use serde::{Deserializer, Serializer, Value};

    pub fn serialize<S: Serializer>(
        fields: &[(String, Value)],
        serializer: S,
    ) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(Value::Object(fields.to_vec()))
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(
        deserializer: D,
    ) -> Result<Vec<(String, Value)>, D::Error> {
        match deserializer.take_value()? {
            Value::Object(pairs) => Ok(pairs),
            other => Err(serde::de::Error::custom(format!(
                "expected object, found {}",
                other.kind()
            ))),
        }
    }
}

fn field_to_value(value: &FieldValue) -> Value {
    match value {
        FieldValue::Str(s) => Value::Str(s.clone()),
        FieldValue::U64(v) => Value::Num(Number::U(*v)),
        FieldValue::I64(v) => Value::Num(Number::I(*v)),
        FieldValue::F64(v) => Value::Num(Number::F(*v)),
        FieldValue::Bool(v) => Value::Bool(*v),
    }
}

impl SpanRecord {
    /// Converts a just-closed span into its persistent form.
    pub fn from_closed(span: &ClosedSpan) -> Self {
        SpanRecord {
            trace_id: span.trace_id,
            span_id: span.span_id,
            parent_id: span.parent_id,
            name: span.name.to_string(),
            target: span.target.to_string(),
            level: span.level.to_string(),
            start_ns: span.start_ns,
            duration_ns: span.duration_ns,
            thread: span.thread,
            fields: span
                .fields
                .iter()
                .map(|(k, v)| (k.to_string(), field_to_value(v)))
                .collect(),
        }
    }

    /// The value of a named field, as a display string.
    pub fn field(&self, key: &str) -> Option<String> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| match v {
                Value::Str(s) => s.clone(),
                Value::Num(Number::U(n)) => n.to_string(),
                Value::Num(Number::I(n)) => n.to_string(),
                Value::Num(Number::F(n)) => n.to_string(),
                Value::Bool(b) => b.to_string(),
                other => format!("{other:?}"),
            })
    }

    /// Duration in seconds.
    pub fn duration_s(&self) -> f64 {
        self.duration_ns as f64 / 1e9
    }

    /// A short human label assembled from the span's fields: the cell
    /// coordinate for `cell` spans, otherwise `key=value` pairs.
    pub fn label(&self) -> String {
        let coordinate: Vec<String> = ["dataset", "algorithm", "seed", "replicate"]
            .iter()
            .filter_map(|key| self.field(key))
            .collect();
        if coordinate.len() == 4 {
            return format!(
                "{}/{}/{}/r{}",
                coordinate[0], coordinate[1], coordinate[2], coordinate[3]
            );
        }
        self.fields
            .iter()
            .map(|(k, _)| format!("{k}={}", self.field(k).unwrap_or_default()))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// An append-mode JSONL sink for completed spans: one [`SpanRecord`] per
/// line, flushed per append so a killed process loses at most the line
/// being written, and repaired on open so no span glues onto a torn one.
///
/// Write errors are reported once via `tracing::warn!` and further
/// appends are suppressed, so a full disk cannot abort the traced run.
pub struct TraceWriter {
    sink: Mutex<Option<jsonl::Sink>>,
}

impl TraceWriter {
    /// Opens (appending, creating) a trace file.
    ///
    /// # Errors
    ///
    /// File creation failures.
    pub fn create(path: impl AsRef<Path>) -> Result<TraceWriter> {
        let path = path.as_ref();
        let sink = jsonl::Sink::open(path, Writers::One, None)
            .map_err(|e| CoreError::Io(format!("open trace {}: {e}", path.display())))?;
        Ok(TraceWriter {
            sink: Mutex::new(Some(sink)),
        })
    }

    /// Appends one span as a JSON line and flushes it. After the first
    /// failure the writer disables itself (appends become no-ops).
    pub fn append(&self, record: &SpanRecord) {
        let mut sink = lock_unpoisoned(&self.sink);
        if let Some(Err(e)) = sink.as_mut().map(|sink| sink.append(record)) {
            tracing::warn!("trace write failed: {e}; disabling trace output");
            *sink = None;
        }
    }

    /// Flushes the underlying writer.
    pub fn flush_writer(&self) {
        if let Some(sink) = lock_unpoisoned(&self.sink).as_mut() {
            let _ = sink.sync();
        }
    }
}

impl SpanSink for TraceWriter {
    fn on_span(&self, span: ClosedSpan) {
        self.append(&SpanRecord::from_closed(&span));
    }

    fn flush(&self) {
        self.flush_writer();
    }
}

/// Reads a trace file back. A torn final line (the process was killed
/// mid-write) is dropped, matching the append-side discipline; any
/// earlier unparseable line is an error, since the file is then corrupt
/// rather than merely truncated.
///
/// # Errors
///
/// I/O failures, or a malformed line that is not the last.
pub fn read_trace(path: impl AsRef<Path>) -> Result<Vec<SpanRecord>> {
    read_trace_from(path, 0)
}

/// As [`read_trace`], reading only the lines from byte `offset` on — the
/// spans appended after the file had that length. `offset` must fall at
/// the start of a line.
///
/// # Errors
///
/// I/O failures, or a malformed line that is not the last.
pub fn read_trace_from(path: impl AsRef<Path>, offset: u64) -> Result<Vec<SpanRecord>> {
    let path = path.as_ref();
    jsonl::Reader::open_at(path, offset)
        .map_err(ReadError::Io)
        .and_then(|reader| reader.records(Writers::One, |line| serde_json::from_str(line).ok()))
        .map(|(records, _)| records)
        .map_err(|e| match e {
            ReadError::Io(e) => CoreError::Io(format!("read trace {}: {e}", path.display())),
            ReadError::Corrupt => CoreError::Io(format!(
                "trace {} has spans after a torn line",
                path.display()
            )),
        })
}

/// The process-global span sink for multi-tenant processes: spans are
/// routed by trace id to a registered per-job [`TraceWriter`]; spans of
/// unregistered traces go to the default writer, if any.
///
/// Installed once per process via [`install_tracing`]; the serve daemon
/// registers one route per running job so `GET /v1/jobs/{id}/trace` can
/// serve each job's own timeline.
#[derive(Default)]
pub struct TraceMux {
    default: RwLock<Option<Arc<TraceWriter>>>,
    routes: RwLock<Vec<(u64, Arc<TraceWriter>)>>,
}

impl TraceMux {
    /// Sets (or clears) the default writer for unrouted spans.
    pub fn set_default(&self, writer: Option<Arc<TraceWriter>>) {
        *lock_unpoisoned_rw_write(&self.default) = writer;
    }

    /// Routes `trace_id`'s spans to `writer` until deregistered.
    pub fn register(&self, trace_id: u64, writer: Arc<TraceWriter>) {
        if trace_id == 0 {
            return;
        }
        let mut routes = lock_unpoisoned_rw_write(&self.routes);
        routes.retain(|(id, _)| *id != trace_id);
        routes.push((trace_id, writer));
    }

    /// Removes the route for `trace_id`, returning its writer (which the
    /// caller should flush).
    pub fn deregister(&self, trace_id: u64) -> Option<Arc<TraceWriter>> {
        let mut routes = lock_unpoisoned_rw_write(&self.routes);
        let at = routes.iter().position(|(id, _)| *id == trace_id)?;
        Some(routes.swap_remove(at).1)
    }
}

fn lock_unpoisoned_rw_write<T>(lock: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    lock.write()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn lock_unpoisoned_rw_read<T>(lock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    lock.read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

struct MuxSink(&'static TraceMux);

impl SpanSink for MuxSink {
    fn on_span(&self, span: ClosedSpan) {
        let routed = {
            let routes = lock_unpoisoned_rw_read(&self.0.routes);
            routes
                .iter()
                .find(|(id, _)| *id == span.trace_id)
                .map(|(_, w)| Arc::clone(w))
        };
        match routed {
            Some(writer) => writer.on_span(span),
            None => {
                let default = lock_unpoisoned_rw_read(&self.0.default);
                if let Some(writer) = default.as_ref() {
                    writer.on_span(span);
                }
            }
        }
    }

    fn flush(&self) {
        for (_, writer) in lock_unpoisoned_rw_read(&self.0.routes).iter() {
            writer.flush_writer();
        }
        if let Some(writer) = lock_unpoisoned_rw_read(&self.0.default).as_ref() {
            writer.flush_writer();
        }
    }
}

static GLOBAL_MUX: OnceLock<&'static TraceMux> = OnceLock::new();

/// Installs the process-global [`TraceMux`] as the span sink, recording
/// spans down to `max_level`, with `default` receiving unrouted spans.
/// Idempotent across callers that agree a mux should exist: a second call
/// returns the existing mux (updating its default writer only when one is
/// given).
///
/// # Errors
///
/// A non-mux span sink was already installed.
pub fn install_tracing(
    max_level: Level,
    default: Option<Arc<TraceWriter>>,
) -> Result<&'static TraceMux> {
    if let Some(mux) = GLOBAL_MUX.get() {
        if let Some(writer) = default {
            mux.set_default(Some(writer));
        }
        return Ok(mux);
    }
    let mux: &'static TraceMux = Box::leak(Box::new(TraceMux::default()));
    mux.set_default(default);
    tracing::set_span_sink(max_level, Box::new(MuxSink(mux)))
        .map_err(|_| CoreError::InvalidConfig("a span sink is already installed"))?;
    let _ = GLOBAL_MUX.set(mux);
    Ok(mux)
}

/// The installed mux, if [`install_tracing`] has run in this process.
pub fn installed_mux() -> Option<&'static TraceMux> {
    GLOBAL_MUX.get().copied()
}

// ---------------------------------------------------------------------------
// Chrome trace-event export.
// ---------------------------------------------------------------------------

/// Converts span records to Chrome trace-event JSON (the
/// `{"traceEvents": [...]}` object form), loadable in Perfetto or
/// `chrome://tracing`. Every span becomes one complete (`"ph":"X"`)
/// event on its thread's lane, with the span's fields and lineage ids
/// under `args`.
pub fn chrome_trace(records: &[SpanRecord]) -> Value {
    let events: Vec<Value> = records
        .iter()
        .map(|r| {
            let mut args = vec![
                ("trace_id".to_string(), Value::Num(Number::U(r.trace_id))),
                ("span_id".to_string(), Value::Num(Number::U(r.span_id))),
            ];
            if let Some(parent) = r.parent_id {
                args.push(("parent_id".to_string(), Value::Num(Number::U(parent))));
            }
            args.push(("level".to_string(), Value::Str(r.level.clone())));
            args.extend(r.fields.iter().cloned());
            Value::Object(vec![
                ("name".to_string(), Value::Str(r.name.clone())),
                ("cat".to_string(), Value::Str(r.target.clone())),
                ("ph".to_string(), Value::Str("X".to_string())),
                (
                    "ts".to_string(),
                    Value::Num(Number::F(r.start_ns as f64 / 1_000.0)),
                ),
                (
                    "dur".to_string(),
                    Value::Num(Number::F(r.duration_ns as f64 / 1_000.0)),
                ),
                ("pid".to_string(), Value::Num(Number::U(1))),
                ("tid".to_string(), Value::Num(Number::U(r.thread))),
                ("args".to_string(), Value::Object(args)),
            ])
        })
        .collect();
    Value::Object(vec![
        ("displayTimeUnit".to_string(), Value::Str("ms".to_string())),
        ("traceEvents".to_string(), Value::Array(events)),
    ])
}

/// Parses a Chrome trace-event JSON object back into the span shape —
/// the schema round-trip direction ([`chrome_trace`] is the forward
/// direction). Only the fields [`chrome_trace`] emits are recovered.
///
/// # Errors
///
/// A value that is not a trace-event object of complete events.
pub fn spans_from_chrome(value: &Value) -> Result<Vec<SpanRecord>> {
    let events =
        value
            .get("traceEvents")
            .and_then(Value::as_array)
            .ok_or(CoreError::InvalidConfig(
                "chrome trace has no traceEvents array",
            ))?;
    events
        .iter()
        .map(|event| {
            let get_u64 = |key: &str| {
                event
                    .get(key)
                    .and_then(Value::as_u64)
                    .ok_or_else(|| CoreError::Io(format!("chrome event missing numeric `{key}`")))
            };
            let get_str = |key: &str| {
                event
                    .get(key)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| CoreError::Io(format!("chrome event missing `{key}`")))
            };
            if event.get("ph").and_then(Value::as_str) != Some("X") {
                return Err(CoreError::Io(
                    "chrome event is not a complete (ph=X) event".to_string(),
                ));
            }
            let args = event
                .get("args")
                .and_then(Value::as_object)
                .ok_or_else(|| CoreError::Io("chrome event missing args".to_string()))?;
            let arg_u64 = |key: &str| {
                args.iter()
                    .find(|(k, _)| k == key)
                    .and_then(|(_, v)| v.as_u64())
            };
            let ts = event
                .get("ts")
                .and_then(Value::as_f64)
                .ok_or_else(|| CoreError::Io("chrome event missing ts".to_string()))?;
            let dur = event
                .get("dur")
                .and_then(Value::as_f64)
                .ok_or_else(|| CoreError::Io("chrome event missing dur".to_string()))?;
            Ok(SpanRecord {
                trace_id: arg_u64("trace_id").unwrap_or(0),
                span_id: arg_u64("span_id").unwrap_or(0),
                parent_id: arg_u64("parent_id"),
                name: get_str("name")?,
                target: get_str("cat")?,
                level: args
                    .iter()
                    .find(|(k, _)| k == "level")
                    .and_then(|(_, v)| v.as_str())
                    .unwrap_or("INFO")
                    .to_string(),
                start_ns: (ts * 1_000.0).round() as u64,
                duration_ns: (dur * 1_000.0).round() as u64,
                thread: get_u64("tid")?,
                fields: args
                    .iter()
                    .filter(|(k, _)| {
                        !matches!(k.as_str(), "trace_id" | "span_id" | "parent_id" | "level")
                    })
                    .cloned()
                    .collect(),
            })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Post-hoc timeline analysis (`hetsched trace`).
// ---------------------------------------------------------------------------

/// Aggregate timing of one span name across a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRow {
    /// The span name (`"cell"`, `"evaluation"`, ...).
    pub name: String,
    /// How many spans closed under this name.
    pub count: usize,
    /// Total wall-clock across those spans, seconds.
    pub total_s: f64,
    /// Self time: total minus time attributed to child spans, seconds.
    pub self_s: f64,
}

/// One hop of the critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathRow {
    /// Nesting depth from the root (0 = root).
    pub depth: usize,
    /// The span's name.
    pub name: String,
    /// The span's field label.
    pub label: String,
    /// The span's duration, seconds.
    pub duration_s: f64,
}

/// One of the slowest cells.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRow {
    /// The cell coordinate label.
    pub label: String,
    /// The cell span's duration, seconds.
    pub duration_s: f64,
}

/// The `hetsched trace` summary of a span file.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceAnalysis {
    /// Total spans analysed.
    pub spans: usize,
    /// Distinct trace ids seen.
    pub traces: usize,
    /// Per-name self-time breakdown, widest self time first.
    pub phases: Vec<PhaseRow>,
    /// Slowest `cell` spans, slowest first.
    pub slowest_cells: Vec<CellRow>,
    /// Critical path through the dominant (longest-root) trace: from the
    /// root, each hop descends into the longest child.
    pub critical_path: Vec<PathRow>,
    /// The dominant trace's root-span wall clock, seconds.
    pub wall_s: f64,
    /// Sum of all `cell` span durations, seconds.
    pub cell_total_s: f64,
    /// Distinct threads that closed at least one span.
    pub threads: usize,
}

impl TraceAnalysis {
    /// Analyses span records, keeping the `top_n` slowest cells.
    pub fn from_records(records: &[SpanRecord], top_n: usize) -> TraceAnalysis {
        // Children-duration sums keyed by parent span id, for self time.
        let mut child_time: Vec<(u64, u64)> = Vec::new(); // (parent span_id, Σ child ns)
        for r in records {
            if let Some(parent) = r.parent_id {
                match child_time.iter_mut().find(|(id, _)| *id == parent) {
                    Some((_, total)) => *total += r.duration_ns,
                    None => child_time.push((parent, r.duration_ns)),
                }
            }
        }
        let children_ns = |span_id: u64| {
            child_time
                .iter()
                .find(|(id, _)| *id == span_id)
                .map_or(0, |(_, total)| *total)
        };

        let mut phases: Vec<PhaseRow> = Vec::new();
        for r in records {
            let self_ns = r.duration_ns.saturating_sub(children_ns(r.span_id));
            match phases.iter_mut().find(|p| p.name == r.name) {
                Some(row) => {
                    row.count += 1;
                    row.total_s += r.duration_s();
                    row.self_s += self_ns as f64 / 1e9;
                }
                None => phases.push(PhaseRow {
                    name: r.name.clone(),
                    count: 1,
                    total_s: r.duration_s(),
                    self_s: self_ns as f64 / 1e9,
                }),
            }
        }
        phases.sort_by(|a, b| b.self_s.total_cmp(&a.self_s).then(a.name.cmp(&b.name)));

        let mut cells: Vec<&SpanRecord> = records.iter().filter(|r| r.name == "cell").collect();
        let cell_total_s = cells.iter().map(|r| r.duration_s()).sum();
        cells.sort_by(|a, b| {
            b.duration_ns
                .cmp(&a.duration_ns)
                .then(a.span_id.cmp(&b.span_id))
        });
        let slowest_cells = cells
            .iter()
            .take(top_n)
            .map(|r| CellRow {
                label: r.label(),
                duration_s: r.duration_s(),
            })
            .collect();

        // Dominant trace: the longest root span (ties broken by id for
        // determinism).
        let root = records
            .iter()
            .filter(|r| r.parent_id.is_none())
            .max_by(|a, b| {
                a.duration_ns
                    .cmp(&b.duration_ns)
                    .then(b.span_id.cmp(&a.span_id))
            });
        let mut critical_path = Vec::new();
        let wall_s = root.map_or(0.0, SpanRecord::duration_s);
        let mut cursor = root;
        let mut depth = 0usize;
        while let Some(span) = cursor {
            critical_path.push(PathRow {
                depth,
                name: span.name.clone(),
                label: span.label(),
                duration_s: span.duration_s(),
            });
            cursor = records
                .iter()
                .filter(|r| r.parent_id == Some(span.span_id))
                .max_by(|a, b| {
                    a.duration_ns
                        .cmp(&b.duration_ns)
                        .then(b.span_id.cmp(&a.span_id))
                });
            depth += 1;
        }

        let mut trace_ids: Vec<u64> = records.iter().map(|r| r.trace_id).collect();
        trace_ids.sort_unstable();
        trace_ids.dedup();
        let mut threads: Vec<u64> = records.iter().map(|r| r.thread).collect();
        threads.sort_unstable();
        threads.dedup();

        TraceAnalysis {
            spans: records.len(),
            traces: trace_ids.len(),
            phases,
            slowest_cells,
            critical_path,
            wall_s,
            cell_total_s,
            threads: threads.len(),
        }
    }

    /// Renders the analysis for the terminal.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace: {} span(s) across {} trace(s), {} thread(s)\n",
            self.spans, self.traces, self.threads
        );
        let width = self
            .phases
            .iter()
            .map(|p| p.name.len())
            .max()
            .unwrap_or(0)
            .max("phase".len());
        let _ = writeln!(
            out,
            "{:width$}  {:>7}  {:>12}  {:>12}  {:>6}",
            "phase", "count", "total (s)", "self (s)", "self%"
        );
        let all_self: f64 = self.phases.iter().map(|p| p.self_s).sum();
        for phase in &self.phases {
            let share = if all_self > 0.0 {
                100.0 * phase.self_s / all_self
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{:width$}  {:>7}  {:>12.6}  {:>12.6}  {:>5.1}%",
                phase.name, phase.count, phase.total_s, phase.self_s, share
            );
        }
        if !self.slowest_cells.is_empty() {
            let _ = writeln!(out, "\nslowest cells:");
            for (i, cell) in self.slowest_cells.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "{:>3}. {:>10.6}s  {}",
                    i + 1,
                    cell.duration_s,
                    cell.label
                );
            }
        }
        if !self.critical_path.is_empty() {
            let _ = writeln!(out, "\ncritical path (longest child at each hop):");
            for row in &self.critical_path {
                let label = if row.label.is_empty() {
                    String::new()
                } else {
                    format!("  [{}]", row.label)
                };
                let _ = writeln!(
                    out,
                    "{:indent$}{} {:.6}s{label}",
                    "",
                    row.name,
                    row.duration_s,
                    indent = row.depth * 2
                );
            }
        }
        if self.wall_s > 0.0 && self.cell_total_s > 0.0 {
            let _ = writeln!(
                out,
                "\nwall-clock {:.6}s, cell time {:.6}s — parallel speedup {:.2}x",
                self.wall_s,
                self.cell_total_s,
                self.cell_total_s / self.wall_s
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        trace_id: u64,
        span_id: u64,
        parent_id: Option<u64>,
        name: &str,
        start_ns: u64,
        duration_ns: u64,
    ) -> SpanRecord {
        SpanRecord {
            trace_id,
            span_id,
            parent_id,
            name: name.to_string(),
            target: "test".to_string(),
            level: "INFO".to_string(),
            start_ns,
            duration_ns,
            thread: 1,
            fields: Vec::new(),
        }
    }

    fn cell(span_id: u64, parent: u64, replicate: u64, duration_ns: u64) -> SpanRecord {
        let mut record = span(1, span_id, Some(parent), "cell", 0, duration_ns);
        record.fields = vec![
            ("dataset".to_string(), Value::Str("One".to_string())),
            ("algorithm".to_string(), Value::Str("nsga2".to_string())),
            ("seed".to_string(), Value::Str("random".to_string())),
            ("replicate".to_string(), Value::Num(Number::U(replicate))),
        ];
        record
    }

    #[test]
    fn span_record_roundtrips_with_and_without_parent() {
        let root = span(1, 2, None, "campaign", 10, 500);
        let mut child = span(1, 3, Some(2), "cell", 20, 100);
        child.fields = vec![
            ("replicate".to_string(), Value::Num(Number::U(3))),
            ("flag".to_string(), Value::Bool(true)),
        ];
        for record in [&root, &child] {
            let line = serde_json::to_string(record).unwrap();
            let back: SpanRecord = serde_json::from_str(&line).unwrap();
            assert_eq!(&back, record);
        }
        let line = serde_json::to_string(&root).unwrap();
        assert!(!line.contains("parent_id"), "{line}");
    }

    #[test]
    fn trace_writer_appends_and_reads_back() {
        let path =
            std::env::temp_dir().join(format!("hetsched-trace-rt-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let writer = TraceWriter::create(&path).unwrap();
        let records = vec![span(1, 2, None, "a", 0, 10), span(1, 3, Some(2), "b", 1, 5)];
        for r in &records {
            writer.append(r);
        }
        drop(writer);
        let read = read_trace(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(read, records);
    }

    #[test]
    fn torn_final_line_is_dropped_and_mid_corruption_rejected() {
        let path =
            std::env::temp_dir().join(format!("hetsched-trace-torn-{}.jsonl", std::process::id()));
        let a = serde_json::to_string(&span(1, 2, None, "a", 0, 10)).unwrap();
        std::fs::write(&path, format!("{a}\n{{\"torn")).unwrap();
        let read = read_trace(&path).unwrap();
        assert_eq!(read.len(), 1);
        std::fs::write(&path, format!("{{\"torn\n{a}\n")).unwrap();
        assert!(read_trace(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn create_repairs_a_torn_tail_before_appending() {
        let path = std::env::temp_dir().join(format!(
            "hetsched-trace-reopen-{}.jsonl",
            std::process::id()
        ));
        let old = span(1, 2, None, "a", 0, 10);
        let line = serde_json::to_string(&old).unwrap();
        std::fs::write(&path, format!("{line}\n{{\"torn")).unwrap();
        let writer = TraceWriter::create(&path).unwrap();
        let new = [
            span(1, 3, Some(2), "b", 1, 5),
            span(1, 4, Some(2), "c", 2, 5),
        ];
        for record in &new {
            writer.append(record);
        }
        drop(writer);
        let read = read_trace(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(read, [old, new[0].clone(), new[1].clone()]);
    }

    #[test]
    fn chrome_export_roundtrips_the_span_shape() {
        let mut records = vec![span(7, 8, None, "campaign", 1_000, 9_000)];
        records.push(cell(9, 8, 2, 4_000));
        let chrome = chrome_trace(&records);
        let text = serde_json::to_string(&chrome).unwrap();
        assert!(text.contains("\"traceEvents\""), "{text}");
        assert!(text.contains("\"ph\":\"X\""), "{text}");
        let parsed: Value = serde_json::from_str(&text).unwrap();
        let back = spans_from_chrome(&parsed).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn analysis_self_time_critical_path_and_cells() {
        // campaign(10s) -> cell r0 (6s) -> generation (4s)
        //              \-> cell r1 (3s)
        let records = vec![
            span(1, 1, None, "campaign", 0, 10_000_000_000),
            cell(2, 1, 0, 6_000_000_000),
            cell(3, 1, 1, 3_000_000_000),
            span(1, 4, Some(2), "generation", 0, 4_000_000_000),
        ];
        let analysis = TraceAnalysis::from_records(&records, 1);
        assert_eq!(analysis.spans, 4);
        assert_eq!(analysis.traces, 1);
        let campaign = analysis
            .phases
            .iter()
            .find(|p| p.name == "campaign")
            .unwrap();
        assert!((campaign.self_s - 1.0).abs() < 1e-9, "{campaign:?}");
        let cells = analysis.phases.iter().find(|p| p.name == "cell").unwrap();
        assert_eq!(cells.count, 2);
        assert!((cells.total_s - 9.0).abs() < 1e-9);
        assert!((cells.self_s - 5.0).abs() < 1e-9);
        assert_eq!(analysis.slowest_cells.len(), 1);
        assert_eq!(analysis.slowest_cells[0].label, "One/nsga2/random/r0");
        let path: Vec<&str> = analysis
            .critical_path
            .iter()
            .map(|r| r.name.as_str())
            .collect();
        assert_eq!(path, ["campaign", "cell", "generation"]);
        assert!((analysis.wall_s - 10.0).abs() < 1e-9);
        assert!((analysis.cell_total_s - 9.0).abs() < 1e-9);
        let rendered = analysis.render();
        assert!(rendered.contains("critical path"), "{rendered}");
        assert!(rendered.contains("One/nsga2/random/r0"), "{rendered}");
        assert!(rendered.contains("parallel speedup 0.90x"), "{rendered}");
    }

    #[test]
    fn mux_routes_by_trace_id_with_default_fallback() {
        let mux = TraceMux::default();
        let routed_path = std::env::temp_dir().join(format!(
            "hetsched-trace-mux-routed-{}.jsonl",
            std::process::id()
        ));
        let default_path = std::env::temp_dir().join(format!(
            "hetsched-trace-mux-default-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&routed_path);
        let _ = std::fs::remove_file(&default_path);
        mux.set_default(Some(Arc::new(TraceWriter::create(&default_path).unwrap())));
        mux.register(7, Arc::new(TraceWriter::create(&routed_path).unwrap()));
        // Route through the sink interface the shim would use.
        let sink = MuxSink(Box::leak(Box::new(mux)));
        let closed = |trace_id| ClosedSpan {
            trace_id,
            span_id: trace_id * 10,
            parent_id: None,
            name: "x",
            target: "t",
            level: Level::INFO,
            start_ns: 0,
            duration_ns: 1,
            thread: 1,
            fields: Vec::new(),
        };
        sink.on_span(closed(7));
        sink.on_span(closed(9));
        sink.flush();
        let routed = read_trace(&routed_path).unwrap();
        let default = read_trace(&default_path).unwrap();
        let _ = std::fs::remove_file(&routed_path);
        let _ = std::fs::remove_file(&default_path);
        assert_eq!(routed.len(), 1);
        assert_eq!(routed[0].trace_id, 7);
        assert_eq!(default.len(), 1);
        assert_eq!(default[0].trace_id, 9);
        assert!(sink.0.deregister(7).is_some());
        assert!(sink.0.deregister(7).is_none());
    }
}
