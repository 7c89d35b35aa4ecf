//! Span capture and folding for the traced runs.
//!
//! In-process workloads install [`MemorySink`] at TRACE; the serve
//! workload reads the daemon's JSONL trace files back. Both end up as
//! [`SpanRow`]s, folded here into per-name self time with a map keyed by
//! span id (linear in the span count, unlike a per-parent scan).

use hetsched_core::SpanRecord;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use tracing::{ClosedSpan, FieldValue, SpanSink};

/// One closed span, reduced to what the folds need.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRow {
    /// Span id (unique within one process).
    pub id: u64,
    /// Parent span id; `None` for a root.
    pub parent: Option<u64>,
    /// Span name (`"batch"`, `"request"`, `"call.Worker::run"`, ...).
    pub name: String,
    /// Start, in nanoseconds since the recording process's span epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// The `jobs` field of evaluator `batch` spans (0 elsewhere).
    pub jobs: u64,
    /// `METHOD path` of serve `request` spans.
    pub route: Option<String>,
}

impl SpanRow {
    /// End, in the same clock as `start_ns`.
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

impl From<&ClosedSpan> for SpanRow {
    fn from(span: &ClosedSpan) -> Self {
        let field = |key: &str| span.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v);
        SpanRow {
            id: span.span_id,
            parent: span.parent_id,
            name: span.name.to_string(),
            start_ns: span.start_ns,
            dur_ns: span.duration_ns,
            jobs: match field("jobs") {
                Some(FieldValue::U64(n)) => *n,
                _ => 0,
            },
            route: None,
        }
    }
}

impl From<&SpanRecord> for SpanRow {
    fn from(span: &SpanRecord) -> Self {
        let route = match (span.field("method"), span.field("path")) {
            (Some(method), Some(path)) => Some(format!("{method} {path}")),
            _ => None,
        };
        SpanRow {
            id: span.span_id,
            parent: span.parent_id,
            name: span.name.clone(),
            start_ns: span.start_ns,
            dur_ns: span.duration_ns,
            jobs: span.field("jobs").and_then(|j| j.parse().ok()).unwrap_or(0),
            route,
        }
    }
}

/// An in-memory [`SpanSink`]: every closed span is kept until drained.
#[derive(Clone, Default)]
pub struct MemorySink(Arc<Mutex<Vec<ClosedSpan>>>);

impl MemorySink {
    /// Installs a sink recording every span down to TRACE for the rest of
    /// the process and returns a handle for draining it.
    pub fn install() -> Result<MemorySink, String> {
        let sink = MemorySink::default();
        tracing::set_span_sink(tracing::Level::TRACE, Box::new(sink.clone()))
            .map_err(|e| format!("install span sink: {e}"))?;
        Ok(sink)
    }

    /// Takes every span closed since the last drain.
    pub fn drain(&self) -> Vec<SpanRow> {
        let spans = std::mem::take(&mut *self.0.lock().expect("span sink lock"));
        spans.iter().map(SpanRow::from).collect()
    }
}

impl SpanSink for MemorySink {
    fn on_span(&self, span: ClosedSpan) {
        self.0.lock().expect("span sink lock").push(span);
    }
}

/// Total length covered by `intervals` (half-open `[start, end)` pairs;
/// overlaps count once, empty or inverted pairs not at all).
pub fn union_ns(intervals: impl IntoIterator<Item = (u64, u64)>) -> u64 {
    let mut sorted: Vec<(u64, u64)> = intervals.into_iter().filter(|(a, b)| b > a).collect();
    sorted.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (start, end) in sorted {
        current = match current {
            Some((s, e)) if start <= e => Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children may run on other threads, in
/// parallel with each other, so their union is taken rather than their
/// sum — a parent waiting on two concurrent children has no self time
/// in that stretch, not a negative one.
pub fn self_times(spans: &[SpanRow]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start_ns, span.end_ns()));
        }
    }
    spans
        .iter()
        .map(|span| {
            let covered = children.get(&span.id).map_or(0, |kids| {
                union_ns(
                    kids.iter()
                        .map(|&(s, e)| (s.max(span.start_ns), e.min(span.end_ns()))),
                )
            });
            (span.id, span.dur_ns.saturating_sub(covered))
        })
        .collect()
}

/// Length of the union of every root span's interval: the part of the
/// wall time some span accounts for.
pub fn root_union_ns(spans: &[SpanRow]) -> u64 {
    union_ns(
        spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.start_ns, s.end_ns())),
    )
}

/// Per-name totals of one batch of spans.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Layers {
    /// Summed self time per span name, in nanoseconds.
    pub self_ns: BTreeMap<String, u64>,
    /// Number of spans per name.
    pub count: BTreeMap<String, u64>,
    /// Summed `jobs` field of evaluator `batch` spans.
    pub batch_jobs: u64,
}

impl Layers {
    /// Folds `spans` (which must hold every child of every span in it).
    pub fn fold(spans: &[SpanRow]) -> Layers {
        let self_ns = self_times(spans);
        let mut layers = Layers::default();
        for span in spans {
            *layers.self_ns.entry(span.name.clone()).or_insert(0) += self_ns[&span.id];
            *layers.count.entry(span.name.clone()).or_insert(0) += 1;
            layers.batch_jobs += span.jobs;
        }
        layers
    }

    /// Adds another batch's totals.
    pub fn add(&mut self, other: &Layers) {
        for (name, ns) in &other.self_ns {
            *self.self_ns.entry(name.clone()).or_insert(0) += ns;
        }
        for (name, n) in &other.count {
            *self.count.entry(name.clone()).or_insert(0) += n;
        }
        self.batch_jobs += other.batch_jobs;
    }

    /// Summed self time of spans named `name`, in seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e9
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.count.get(name).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(id: u64, parent: Option<u64>, name: &str, start: u64, end: u64) -> SpanRow {
        SpanRow {
            id,
            parent,
            name: name.to_string(),
            start_ns: start,
            dur_ns: end - start,
            jobs: 0,
            route: None,
        }
    }

    #[test]
    fn union_merges_overlaps_and_skips_empty_intervals() {
        assert_eq!(union_ns([]), 0);
        assert_eq!(union_ns([(0, 10), (5, 15), (20, 30)]), 25);
        // Touching intervals merge; contained ones add nothing.
        assert_eq!(union_ns([(0, 10), (10, 20), (2, 3)]), 20);
        assert_eq!(union_ns([(7, 7), (9, 4), (1, 2)]), 1);
        // Order of the input does not matter.
        assert_eq!(union_ns([(20, 30), (5, 15), (0, 10)]), 25);
    }

    #[test]
    fn self_time_subtracts_the_union_of_cross_thread_children() {
        // A campaign span [0, 100) whose two cells ran in parallel on
        // other threads, [10, 60) and [40, 90): they cover [10, 90).
        // One cell holds a generation [20, 50) and the generation a
        // batch [25, 45). A child is linked to its parent by id alone,
        // whatever thread or order it closed in.
        let spans = vec![
            row(5, Some(4), "batch", 25, 45),
            row(2, Some(1), "cell", 10, 60),
            row(4, Some(2), "generation", 20, 50),
            row(3, Some(1), "cell", 40, 90),
            row(1, None, "campaign", 0, 100),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 20);
        assert_eq!(own[&2], 20);
        assert_eq!(own[&3], 50);
        assert_eq!(own[&4], 10);
        assert_eq!(own[&5], 20);
        let layers = Layers::fold(&spans);
        assert_eq!(layers.self_ns["cell"], 70);
        assert_eq!(layers.count("cell"), 2);
        assert_eq!(layers.self_s("campaign"), 20e-9);
        // Self times add up to busy thread time: the root-union wall time
        // plus the 20 ns in which both cells ran at once.
        let total: u64 = own.values().sum();
        assert_eq!(total, root_union_ns(&spans) + 20);
    }

    #[test]
    fn a_child_overrunning_its_parent_only_covers_the_overlap() {
        // A detached child that outlives its parent (a watchdogged
        // attempt) must not drive the parent's self time negative.
        let spans = vec![
            row(1, None, "cell", 0, 50),
            row(2, Some(1), "attempt", 30, 80),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 30);
        assert_eq!(own[&2], 50);
    }

    #[test]
    fn unattributed_time_is_wall_minus_the_root_union() {
        // Two roots on different threads overlap; a third is disjoint. A
        // nested span never widens the union.
        let spans = vec![
            row(1, None, "call.Worker::run", 0, 40),
            row(2, None, "call.Worker::run", 30, 70),
            row(3, Some(2), "attempt", 35, 60),
            row(4, None, "bench.digest", 80, 90),
        ];
        let covered = root_union_ns(&spans);
        assert_eq!(covered, 80);
        let wall = 100;
        assert_eq!(wall - covered, 20);
    }

    #[test]
    fn layers_add_up_across_batches() {
        let mut a = Layers::fold(&[row(1, None, "batch", 0, 10)]);
        let mut b_rows = vec![row(2, None, "batch", 0, 5)];
        b_rows[0].jobs = 100;
        a.add(&Layers::fold(&b_rows));
        assert_eq!(a.self_ns["batch"], 15);
        assert_eq!(a.count("batch"), 2);
        assert_eq!(a.batch_jobs, 100);
        assert_eq!(a.count("absent"), 0);
        assert_eq!(a.self_s("absent"), 0.0);
    }
}
