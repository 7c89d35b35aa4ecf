//! `perf`: the end-to-end benchmark for hetsched.
//!
//! ```text
//! perf --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! perf compare A.jsonl B.jsonl
//! ```
//!
//! A run builds the workload's inputs from the seed, measures for the
//! given seconds and checks every output. Its last stdout line is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`, as `BENCHMARK.json` lists them. The full record — every metric, the sample counts behind
//! medians, and the host and run fingerprint — goes to stderr and, with
//! `--out`, is appended as one line to a result file that `perf compare`
//! reads. The workloads, metrics and their bounds are described in
//! `perfbench/README.md`.

mod compare;
mod harness;
mod host;
mod http;
mod inproc;
mod reference;
mod serve;
mod spans;
mod spec;
mod stats;

use serde::{Number, Value};
use spec::Metric;
use stats::Tally;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage() -> String {
    format!(
        "usage: perf --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n       \
         perf compare A.jsonl B.jsonl",
        spec::get().workloads.join("|")
    )
}

/// The metrics a run prints: per-layer when traced, end-to-end otherwise.
/// A layer a workload never enters reads 0 (e.g. `core.campaign.self_s`
/// on paper-ds2).
fn declared(trace: bool) -> &'static [Metric] {
    let spec = spec::get();
    if trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    }
}

/// Command-line arguments of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Which workload to run.
    pub workload: String,
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// How long the measurement lasts.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Result file to append the full record to.
    pub out: Option<PathBuf>,
}

impl Args {
    /// Seconds one measured window lasts: the whole run when untraced; a
    /// traced run splits it into an untraced and a traced half.
    pub fn window_s(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }

    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: reference::DEFAULT_SEED,
            seconds: 20.0,
            trace: false,
            out: None,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => args.workload = value()?.clone(),
                "--seed" => {
                    args.seed = value()?.parse().map_err(|_| "--seed must be an integer")?
                }
                "--seconds" => {
                    args.seconds = value()?
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or("--seconds must be a positive number")?
                }
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace must be 0 or 1".into()),
                    }
                }
                "--out" => args.out = Some(PathBuf::from(value()?)),
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        if !spec::get().workloads.contains(&args.workload) {
            return Err(format!("unknown workload `{}`", args.workload));
        }
        Ok(args)
    }
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Attempted and failed operations.
    pub tally: Tally,
    /// Metric values by name (the declared list for the run's mode).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample count behind each median or tail, by metric name.
    pub samples: BTreeMap<&'static str, usize>,
    /// Workload iterations run (warm-up included).
    pub iterations: u64,
    /// HTTP requests sent (serve-mix).
    pub requests: u64,
}

/// Renders any error as the message string a run reports.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// A scratch directory inside the checkout, removed when dropped.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn create(workload: &str) -> Result<ScratchDir, String> {
        let cwd = std::env::current_dir().map_err(|e| format!("current dir: {e}"))?;
        let path = cwd
            .join(".perf_tmp")
            .join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(ScratchDir(path))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent); // only succeeds once empty
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return compare::main(&argv[1..]);
    }
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perf: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let scratch = match ScratchDir::create(&args.workload) {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("perf: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match args.workload.as_str() {
        "paper-ds2" => harness::run::<inproc::PaperDs2>(&args, &scratch.0),
        "wide-front" => harness::run::<inproc::WideFront>(&args, &scratch.0),
        "campaign-io" => harness::run::<inproc::CampaignIo>(&args, &scratch.0),
        _ => serve::run(&args, &scratch.0),
    };
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perf: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        outcome
            .metrics
            .insert("failed_frac", outcome.tally.failed_frac());
    }
    for note in &outcome.tally.notes {
        eprintln!("perf: {}: FAILED: {note}", args.workload);
    }
    let record = full_record(&args, &outcome, &scratch.0);
    eprintln!("{record}");
    if let Some(path) = &args.out {
        if let Err(e) = append_line(path, &record) {
            eprintln!("perf: write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", result_line(&outcome, declared(args.trace)));
    if outcome.tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn num(value: f64) -> Value {
    // A metric that could not be computed (no samples) reads 0 rather
    // than producing invalid JSON.
    Value::Num(Number::F(if value.is_finite() { value } else { 0.0 }))
}

fn metrics_object(outcome: &Outcome, declared: &[Metric]) -> Value {
    Value::Object(
        declared
            .iter()
            .map(|m| {
                let value = outcome.metrics.get(m.name.as_str()).copied().unwrap_or(0.0);
                (
                    m.name.clone(),
                    Value::Object(vec![
                        ("value".into(), num(value)),
                        ("unit".into(), Value::Str(m.unit.clone())),
                    ]),
                )
            })
            .collect(),
    )
}

/// The last stdout line: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
fn result_line(outcome: &Outcome, declared: &[Metric]) -> String {
    let line = Value::Object(vec![
        ("correct".into(), Value::Bool(outcome.tally.failed == 0)),
        (
            "attempted".into(),
            Value::Num(Number::U(outcome.tally.attempted.max(1))),
        ),
        ("failed".into(), Value::Num(Number::U(outcome.tally.failed))),
        ("metrics".into(), metrics_object(outcome, declared)),
    ]);
    serde_json::to_string(&line).expect("a Value always serialises")
}

/// The result-file record: the metrics plus sample counts, failure
/// accounting and the host and run fingerprint.
fn full_record(args: &Args, outcome: &Outcome, scratch: &Path) -> String {
    let samples = Value::Object(
        outcome
            .samples
            .iter()
            .map(|(name, n)| (name.to_string(), Value::Num(Number::U(*n as u64))))
            .collect(),
    );
    let record = Value::Object(vec![
        ("workload".into(), Value::Str(args.workload.clone())),
        ("trace".into(), Value::Bool(args.trace)),
        ("correct".into(), Value::Bool(outcome.tally.failed == 0)),
        (
            "attempted".into(),
            Value::Num(Number::U(outcome.tally.attempted)),
        ),
        ("failed".into(), Value::Num(Number::U(outcome.tally.failed))),
        ("failed_frac".into(), num(outcome.tally.failed_frac())),
        (
            "metrics".into(),
            metrics_object(outcome, declared(args.trace)),
        ),
        ("samples".into(), samples),
        (
            "run".into(),
            Value::Object(vec![
                ("seed".into(), Value::Num(Number::U(args.seed))),
                ("seconds".into(), num(args.seconds)),
                (
                    "iterations".into(),
                    Value::Num(Number::U(outcome.iterations)),
                ),
                ("requests".into(), Value::Num(Number::U(outcome.requests))),
                ("git".into(), Value::Str(host::git_revision())),
            ]),
        ),
        ("host".into(), host::fingerprint(scratch)),
    ]);
    serde_json::to_string(&record).expect("a Value always serialises")
}

fn append_line(path: &Path, line: &str) -> std::io::Result<()> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{line}")?;
    file.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_run_arguments() {
        let args =
            Args::parse(&argv("--workload hit --seed 3 --seconds 10 --trace 1")).unwrap_err();
        assert!(args.contains("unknown workload"), "{args}");
        let args = Args::parse(&argv(
            "--workload serve-mix --seed 3 --seconds 10 --trace 1 --out r.jsonl",
        ))
        .unwrap();
        assert_eq!(args.seed, 3);
        assert_eq!(args.seconds, 10.0);
        assert!(args.trace);
        assert_eq!(args.out, Some(PathBuf::from("r.jsonl")));
        let default = Args::parse(&argv("--workload paper-ds2")).unwrap();
        assert_eq!(default.seed, 0x5EED);
        assert!(!default.trace);
        assert!(Args::parse(&argv("--workload paper-ds2 --trace 2")).is_err());
        assert!(Args::parse(&argv("--workload paper-ds2 --seconds 0")).is_err());
        assert!(Args::parse(&argv("--workload paper-ds2 --seed")).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut outcome = Outcome::default();
        outcome.tally.ops(4, &[]);
        outcome.metrics.insert("setup_s", 0.25);
        outcome.metrics.insert("iter_ms_p50", f64::NAN);
        let line: Value = serde_json::from_str(&result_line(&outcome, declared(false))).unwrap();
        let keys: Vec<&str> = line
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = line.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), declared(false).len());
        let setup = line.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(Value::as_f64), Some(0.25));
        assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
        let iter = line
            .get("metrics")
            .and_then(|m| m.get("iter_ms_p50"))
            .unwrap();
        assert_eq!(iter.get("value").and_then(Value::as_f64), Some(0.0));
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
    }
}
