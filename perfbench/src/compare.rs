//! `perf compare A.jsonl B.jsonl`: the end-to-end medians of two sets of
//! runs, judged by the bounds and directions in `BENCHMARK.json`.
//!
//! For every workload and end-to-end metric it prints each side's median
//! and quartiles over the correct runs, and a verdict: `regressed` when
//! B's median is worse than A's by more than the bound, `unresolved` when
//! either side's spread (quartile distance over median) is wider than the
//! bound — unless every B run beats every A run (`ok`), or every A run
//! beats every B run and B's median is worse by more than the bound
//! (`regressed`) — and `ok` otherwise. For every workload it also counts
//! failed operations: B failing a larger share of its operations than A
//! is a regression. It warns when the runs were not all measured on the
//! same host fingerprint, and exits 1 when anything regressed.

use crate::spec::{self, Metric};
use crate::stats::{median, quartiles};
use serde::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;

/// The verdict for one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// Judges B against A for one end-to-end metric. `None` when a side has
/// fewer than two runs (no quartiles).
pub fn judge(metric: &Metric, a: &[f64], b: &[f64]) -> Option<Verdict> {
    let bound = metric.bound.unwrap_or(0.0);
    let (ma, mb) = (median(a)?, median(b)?);
    let spread = |values: &[f64], m: f64| {
        quartiles(values).map(|(q1, q3)| if m == 0.0 { 0.0 } else { (q3 - q1) / m.abs() })
    };
    let (sa, sb) = (spread(a, ma)?, spread(b, mb)?);
    let better = |x: f64, y: f64| if metric.lower_is_better { x < y } else { x > y };
    let worse = if ma == 0.0 {
        0.0
    } else if metric.lower_is_better {
        (mb - ma) / ma.abs()
    } else {
        (ma - mb) / ma.abs()
    };
    if sa > bound || sb > bound {
        let beats_all =
            |xs: &[f64], ys: &[f64]| xs.iter().all(|&x| ys.iter().all(|&y| better(x, y)));
        return Some(if beats_all(b, a) {
            Verdict::Ok
        } else if beats_all(a, b) && worse > bound {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        });
    }
    Some(if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    })
}

/// Failure accounting of one side's runs of one workload.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Failures {
    runs: u64,
    incorrect_runs: u64,
    attempted: u64,
    failed: u64,
}

impl Failures {
    fn add(&mut self, record: &Value) {
        let count = |key: &str| record.get(key).and_then(Value::as_u64).unwrap_or(0);
        self.runs += 1;
        self.incorrect_runs += u64::from(!is_correct(record));
        self.attempted += count("attempted");
        self.failed += count("failed");
    }

    fn frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Whether `self` (B) fails a larger share of its operations than `a`.
    pub fn regressed_from(&self, a: &Failures) -> bool {
        self.frac() > a.frac()
    }
}

fn is_correct(record: &Value) -> bool {
    record.get("correct") == Some(&Value::Bool(true))
}

/// The untraced records of a result file.
fn records(path: &str) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| serde_json::from_str::<Value>(l).map_err(|e| format!("{path}: {e}")))
        .filter(|r| {
            r.as_ref()
                .map_or(true, |v| v.get("trace") == Some(&Value::Bool(false)))
        })
        .collect()
}

fn workload(record: &Value) -> Option<&str> {
    record.get("workload").and_then(Value::as_str)
}

/// `(workload, metric) → values` over the correct records: a run whose
/// outputs were wrong timed something else.
fn values(records: &[Value]) -> BTreeMap<(String, String), Vec<f64>> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for record in records.iter().filter(|r| is_correct(r)) {
        let (Some(workload), Some(metrics)) = (
            workload(record),
            record.get("metrics").and_then(Value::as_object),
        ) else {
            continue;
        };
        for (name, metric) in metrics {
            if let Some(v) = metric.get("value").and_then(Value::as_f64) {
                out.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    out
}

/// `workload → failure accounting` over all records.
fn failures(records: &[Value]) -> BTreeMap<String, Failures> {
    let mut out: BTreeMap<String, Failures> = BTreeMap::new();
    for record in records {
        if let Some(workload) = workload(record) {
            out.entry(workload.to_string()).or_default().add(record);
        }
    }
    out
}

fn hosts(records: &[Value]) -> BTreeSet<String> {
    records
        .iter()
        .filter_map(|r| r.get("host"))
        .map(|h| serde_json::to_string(h).unwrap_or_default())
        .collect()
}

/// `x` to four significant digits (set-up times are a few microseconds).
fn sig(x: f64) -> String {
    if x == 0.0 || !x.is_finite() {
        return format!("{x}");
    }
    let decimals = (3 - x.abs().log10().floor() as i32).max(0) as usize;
    format!("{x:.decimals$}")
}

fn describe(values: &[f64]) -> String {
    match (median(values), quartiles(values)) {
        (Some(m), Some((q1, q3))) => format!("{} [{}, {}]", sig(m), sig(q1), sig(q3)),
        (Some(m), None) => sig(m),
        _ => "-".into(),
    }
}

fn describe_failures(f: &Failures) -> String {
    format!(
        "{}/{} ops, {}/{} runs",
        f.failed, f.attempted, f.incorrect_runs, f.runs
    )
}

/// Entry point of `perf compare`.
pub fn main(argv: &[String]) -> ExitCode {
    let [a_path, b_path] = argv else {
        eprintln!("usage: perf compare A.jsonl B.jsonl");
        return ExitCode::from(2);
    };
    match compare(a_path, b_path) {
        Ok(regressed) if regressed => ExitCode::FAILURE,
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perf compare: {e}");
            ExitCode::from(2)
        }
    }
}

fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (records(a_path)?, records(b_path)?);
    let (host_a, host_b) = (hosts(&a), hosts(&b));
    if host_a.len() != 1 || host_a != host_b {
        println!(
            "warning: host fingerprints differ ({} in A, {} in B, {} shared): \
             differences may be the machine, not the code",
            host_a.len(),
            host_b.len(),
            host_a.intersection(&host_b).count()
        );
    }
    let (va, vb) = (values(&a), values(&b));
    let (fa, fb) = (failures(&a), failures(&b));
    let workloads: BTreeSet<&String> = fa.keys().chain(fb.keys()).collect();
    println!(
        "{:<12} {:<12} {:>34} {:>34}  verdict (bound)",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]"
    );
    let mut regressed = false;
    for workload in workloads {
        let (wa, wb) = (
            fa.get(workload).copied().unwrap_or_default(),
            fb.get(workload).copied().unwrap_or_default(),
        );
        let verdict = if wb.regressed_from(&wa) {
            regressed = true;
            "REGRESSED"
        } else {
            "ok"
        };
        println!(
            "{workload:<12} {:<12} {:>34} {:>34}  {verdict} (any increase)",
            "failed",
            describe_failures(&wa),
            describe_failures(&wb)
        );
        for metric in &spec::get().end_to_end {
            let key = (workload.clone(), metric.name.clone());
            let (xa, xb) = (
                va.get(&key).cloned().unwrap_or_default(),
                vb.get(&key).cloned().unwrap_or_default(),
            );
            let verdict = match judge(metric, &xa, &xb) {
                Some(Verdict::Ok) => "ok",
                Some(Verdict::Regressed) => {
                    regressed = true;
                    "REGRESSED"
                }
                Some(Verdict::Unresolved) => "unresolved",
                None => "unresolved (fewer than 2 correct runs)",
            };
            println!(
                "{workload:<12} {:<12} {:>34} {:>34}  {verdict} ({:.0}%)",
                metric.name,
                describe(&xa),
                describe(&xb),
                metric.bound.unwrap_or(0.0) * 100.0
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(lower: bool, bound: f64) -> Metric {
        Metric {
            name: "m".into(),
            unit: "ms".into(),
            lower_is_better: lower,
            bound: Some(bound),
        }
    }

    #[test]
    fn judges_by_bound_and_direction() {
        let a = [100.0, 101.0, 99.0, 100.0, 100.5];
        let slower = [115.0, 116.0, 114.0, 115.0, 115.5];
        let same = [102.0, 103.0, 101.0, 102.0, 102.5];
        assert_eq!(
            judge(&metric(true, 0.1), &a, &slower),
            Some(Verdict::Regressed)
        );
        assert_eq!(judge(&metric(true, 0.1), &a, &same), Some(Verdict::Ok));
        // Higher-is-better flips the direction: a 15% rise is fine, a
        // 15% fall regresses.
        assert_eq!(judge(&metric(false, 0.1), &a, &slower), Some(Verdict::Ok));
        assert_eq!(
            judge(&metric(false, 0.1), &slower, &a),
            Some(Verdict::Regressed)
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_one_side_dominates() {
        let noisy = [80.0, 120.0, 100.0, 60.0, 140.0];
        let calm = [100.0, 100.5, 99.5, 100.0, 100.2];
        assert_eq!(
            judge(&metric(true, 0.1), &noisy, &calm),
            Some(Verdict::Unresolved)
        );
        let far_better = [10.0, 11.0, 12.0, 10.5, 30.0];
        assert_eq!(
            judge(&metric(true, 0.1), &noisy, &far_better),
            Some(Verdict::Ok)
        );
        // The mirror case: every A run beats every B run and B's median is
        // worse by more than the bound.
        let far_worse = [300.0, 200.0, 250.0, 400.0, 150.0];
        assert_eq!(
            judge(&metric(true, 0.1), &noisy, &far_worse),
            Some(Verdict::Regressed)
        );
        // Dominated but within the bound stays unresolved.
        let just_worse = [141.0, 142.0, 141.5, 143.0, 141.2];
        assert_eq!(
            judge(&metric(true, 0.5), &noisy, &just_worse),
            Some(Verdict::Unresolved)
        );
        assert_eq!(judge(&metric(true, 0.1), &[1.0], &calm), None);
    }

    fn record(correct: bool, attempted: u64, failed: u64, iter_ms: f64) -> Value {
        serde_json::from_str(&format!(
            r#"{{"workload": "w", "trace": false, "correct": {correct},
                "attempted": {attempted}, "failed": {failed},
                "metrics": {{"m": {{"value": {iter_ms}, "unit": "ms"}}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn failed_runs_are_counted_and_kept_out_of_the_medians() {
        let a = [record(true, 100, 0, 10.0), record(true, 100, 0, 11.0)];
        let b = [record(true, 100, 0, 10.0), record(false, 100, 1, 1.0)];
        // The incorrect run's timing is not a sample.
        let key = ("w".to_string(), "m".to_string());
        assert_eq!(values(&b)[&key], [10.0]);
        let (fa, fb) = (failures(&a)["w"], failures(&b)["w"]);
        assert_eq!(
            (fb.runs, fb.incorrect_runs, fb.attempted, fb.failed),
            (2, 1, 200, 1)
        );
        assert!(fb.regressed_from(&fa));
        assert!(!fa.regressed_from(&fb));
        assert!(!fa.regressed_from(&fa));
    }
}
