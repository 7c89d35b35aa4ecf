//! `hetsched` — regenerate the paper's tables and figures from the command
//! line.
//!
//! ```text
//! hetsched dataset --set <1|2|3>            print the system (Tables I-III)
//! hetsched figure <1|2|3|4|5|6> [options]   emit a figure's data as CSV/JSON
//! hetsched run [options]                    run one experiment, print fronts
//! hetsched work --manifest <p> [options]    join a distributed campaign as a worker
//! hetsched seeds [options]                  evaluate the four seeding heuristics
//! hetsched serve [options]                  long-running scheduler daemon (HTTP API)
//!
//! common options:
//!   --set <1|2|3>      data set (default 1)
//!   --scale <f>        fraction of the paper's iteration schedule (default 0.001)
//!   --tasks <n>        override the trace length
//!   --pop <n>          population size (default 100)
//!   --rng <seed>       master RNG seed (default 0x5EED)
//!   --algorithm <a>    MOEA family: nsga2 (default), moead, or spea2
//!   --replicates <n>   replicate the run on decorrelated RNG streams
//!   --manifest <p>     campaign checkpoint file; rerun to resume (run only)
//!   --online           rolling-horizon streaming run (see --arrivals/--horizon)
//!   --arrivals <spec>  arrival process, e.g. poisson:2.5 or poisson:2,burst:4x60
//!   --horizon <s>      re-optimization period in seconds (default 60)
//!   --duration <s>     stream length in seconds (overrides the data set default)
//!   --policy <p>       per-arrival rule instead of the MOEA: max-utility or gupta
//!   --cold-start       re-seed every horizon from scratch (ablation baseline)
//!   --energy-budget <j> stream-wide energy budget in joules
//!   --out <path>       write output to a file instead of stdout
//!   --json             emit JSON instead of CSV (figures only)
//!   --metrics-out <p>  write a per-generation JSONL journal (run only)
//!   --heartbeat-out <p> append JSONL campaign progress lines (campaign run only)
//!   --heartbeat-every <s> seconds between heartbeat lines (default 5)
//!   --telemetry-out <p> write a Prometheus-style metrics snapshot (campaign run only)
//!   --cell-timeout <s> per-cell watchdog budget in seconds (campaign run only)
//!   --requeue-quarantined  re-execute quarantined manifest cells on resume
//!   --chaos-plan <spec> arm a deterministic fault-injection plan
//!   --log-level <l>    stderr verbosity: a level, optionally with
//!                      RUST_LOG-style target=level rules (default warn)
//!   --trace-out <p>    append completed spans to a JSONL trace file
//! ```
//!
//! `hetsched trace <file>` summarises a recorded span trace (phase
//! self-times, slowest cells, critical path); `--json` exports Chrome
//! trace-event JSON for Perfetto / chrome://tracing.
//!
//! `hetsched report <manifest-or-journal>` summarises a finished run
//! post hoc (per-cell status, per-population convergence) without
//! re-running anything.
//!
//! Exit codes: 0 success, 1 runtime failure (the cause chain is printed
//! to stderr), 2 usage error.

mod commands;
mod error;
mod options;

use error::CliError;
use hetsched_core::chaos;
use options::Options;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("error: {err}");
            let mut source = std::error::Error::source(&err);
            while let Some(cause) = source {
                eprintln!("  caused by: {cause}");
                source = cause.source();
            }
            if err.is_usage() {
                eprintln!("run `hetsched help` for usage");
            }
            ExitCode::from(err.exit_code())
        }
    }
}

fn run(args: &[String]) -> Result<(), CliError> {
    let Some(command) = args.first() else {
        return Err(CliError::Usage("missing command".into()));
    };
    let options = Options::parse(&args[1..])?;
    // Armed for the whole command; the guard disarms the global fault
    // registry on drop.
    let _chaos = arm_chaos(&options)?;
    // Route engine/framework tracing to stderr at the requested verbosity.
    // try_init: repeated invocations (tests) keep the first subscriber.
    let _ = tracing_subscriber::fmt()
        .with_directives(options.log_directives.clone())
        .try_init();
    // `--trace-out` arms the span sink for the whole command: every span
    // the run closes is appended to the JSONL file as it completes. The
    // file is disarmed afterwards, so spans of later work in the same
    // process (parallel tests, library callers) do not land in it.
    let traced = match &options.trace_out {
        Some(path) => {
            let writer = hetsched_core::TraceWriter::create(path)?;
            Some(hetsched_core::install_tracing(
                tracing::Level::TRACE,
                Some(std::sync::Arc::new(writer)),
            )?)
        }
        None => None,
    };
    let result = dispatch(command, &options);
    if let Some(mux) = traced {
        tracing::flush_span_sink();
        mux.set_default(None);
    }
    result
}

fn dispatch(command: &str, options: &Options) -> Result<(), CliError> {
    match command {
        "dataset" => commands::dataset(options),
        "figure" => {
            let which = options
                .positional
                .first()
                .ok_or_else(|| CliError::Usage("figure requires a number (1-6)".into()))?
                .parse::<u8>()
                .map_err(|_| CliError::Usage("figure number must be 1-6".into()))?;
            commands::figure(which, options)
        }
        "run" => commands::run_experiment(options),
        "work" => commands::work(options),
        "seeds" => commands::seeds(options),
        "gantt" => commands::gantt(options),
        "online" => commands::online(options),
        "verify-synth" => commands::verify_synth(options),
        "verify" => commands::verify(options),
        "attain" => commands::attain(options),
        "report" => commands::report(options),
        "trace" => commands::trace(options),
        "serve" => commands::serve(options),
        "help" | "--help" | "-h" => {
            println!("{}", HELP);
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown command `{other}`"))),
    }
}

/// Parses and arms `--chaos-plan`; the returned guard keeps the plan
/// armed for the command and disarms on drop. A point outside
/// [`chaos::POINTS`] is a usage error: it would never fire.
fn arm_chaos(options: &Options) -> Result<Option<chaos::ArmedGuard>, CliError> {
    let Some(text) = &options.chaos_plan else {
        return Ok(None);
    };
    let plan =
        chaos::FaultPlan::parse(text).map_err(|e| CliError::Usage(format!("--chaos-plan: {e}")))?;
    if let Some(spec) = plan
        .faults
        .iter()
        .find(|spec| !chaos::POINTS.contains(&spec.point.as_str()))
    {
        return Err(CliError::Usage(format!(
            "--chaos-plan: unknown fault point `{}` (known: {})",
            spec.point,
            chaos::POINTS.join(", ")
        )));
    }
    Ok(Some(chaos::armed(plan)))
}

const HELP: &str = "\
hetsched — energy/utility trade-off analysis framework

USAGE:
    hetsched dataset [--set 1|2|3] [--rng SEED]
    hetsched figure <1|2|3|4|5|6> [--scale F] [--out PATH] [--json]
    hetsched run [--set 1|2|3] [--tasks N] [--pop N] [--scale F] [--rng SEED]
                 [--algorithm nsga2|moead|spea2] [--replicates N] [--manifest PATH]
                 [--metrics-out PATH] [--heartbeat-out PATH] [--heartbeat-every S]
                 [--telemetry-out PATH] [--cell-timeout S] [--requeue-quarantined]
                 [--chaos-plan SPEC] [--log-level error|warn|info|debug|trace]
    hetsched run --online --arrivals SPEC [--horizon S] [--duration S]
                 [--policy max-utility|gupta] [--cold-start] [--energy-budget J]
                 [--manifest PATH] [--metrics-out PATH]
    hetsched work --manifest PATH [--worker-id ID] [--lease-ttl S]
                  [--replicates N] [--reports-out PATH] [run options]
    hetsched seeds [--set 1|2|3] [--tasks N] [--rng SEED]
    hetsched gantt [--set 1|2|3] [--tasks N]
    hetsched online [--set 1|2|3] [--tasks N]
    hetsched verify-synth [--tasks N] [--rng SEED]
    hetsched verify [--set 1|2|3] [--scale F]
    hetsched attain [--set 1|2|3] [--tasks N] [--pop N] [--scale F] [--replicates N]
    hetsched report [MANIFEST-OR-JOURNAL] [--scale F] [--out PATH]
    hetsched trace TRACE-FILE [--top N] [--json] [--out PATH]
    hetsched serve [--addr HOST:PORT] [--state-dir DIR] [--workers N] [--cell-timeout S]
    hetsched help

`run --replicates N` executes the experiment as a campaign: one cell per
(replicate, seed kind), run in parallel. Add `--manifest PATH` to
checkpoint finished cells; rerunning the same command resumes from the
manifest and executes only the missing cells. `--heartbeat-out PATH`
appends a tail-able JSONL progress line (cells done/total, ETA) every
`--heartbeat-every` seconds, surviving kill-and-resume; `--telemetry-out
PATH` writes a Prometheus-style metrics snapshot when the campaign ends.
`--reports-out PATH` dumps the replicate reports as canonical JSON —
identical bytes from every process that merged the same campaign.

`work` joins the same campaign as one worker process among many: give
every worker the same experiment flags (the campaign fingerprint must
match) and the same shared `--manifest` file. Each worker leases a cell,
runs it, appends the result, and releases; a worker that dies mid-cell
stops renewing its lease, and after `--lease-ttl` seconds (default 30) a
surviving peer steals the cell and re-runs it deterministically. Stale
workers are fenced by lease epoch: their late results are discarded at
append and at merge. Every worker exits with the merged campaign
outcome, byte-identical to a single-process `run`. See README
§ Distributed campaigns.

`run --online` streams instead of batching: a seeded arrival process
(`--arrivals poisson:RATE[,burst:FACTORxPERIOD]`) feeds a
rolling-horizon scheduler that re-optimizes the pending window every
`--horizon` seconds with the configured MOEA, warm-started from the
previous horizon's Pareto front (`--cold-start` disables the warm
start; `--policy gupta|max-utility` swaps in a non-evolutionary
per-arrival rule). Already-started tasks are frozen; the committed
point is the knee of the front, or the best utility fitting
`--energy-budget`. With `--manifest PATH` every feed and commit is
journalled, and rerunning the same command resumes the stream
mid-flight to a byte-identical schedule. See README § Streaming.

`report` with a path summarises a finished campaign manifest (per-cell
status and durations, per-population convergence) or a `--metrics-out`
run journal (convergence and phase-time breakdown) without re-running
anything; without a path it runs the full reproduction suite.

`--trace-out PATH` records every completed tracing span (campaign, cell,
attempt, generation, engine phase, evaluator batch) to an append-mode
JSONL file; `hetsched trace PATH` then prints the per-phase self-time
breakdown, the `--top N` slowest cells, the critical path through the
longest trace, and the parallel speedup (summed cell time over wall
clock). `hetsched trace PATH --json` converts the trace to Chrome
trace-event JSON for Perfetto or chrome://tracing. `--log-level` takes a
default level or full RUST_LOG-style directives, e.g.
`info,hetsched_core::campaign=debug,hetsched_sim=off`.

`--cell-timeout S` puts each campaign cell under a wall-clock watchdog:
an attempt that exceeds the budget is recorded as timed out (terminal,
no retry) while the rest of the campaign carries on. Quarantined cells
(timed out, or panicking through the whole attempt budget) stay failed
across resumes until `--requeue-quarantined` re-executes them.
`--chaos-plan SPEC` arms deterministic fault injection (e.g.
`seed=7;campaign.cell.run@2=panic;manifest.append@1=io`); a plan naming
a fault point the program does not have is a usage error. See README
§ Fault tolerance for the grammar and the ten fault points.

`serve` runs the scheduler as a daemon: campaign jobs are submitted as
JSON over HTTP (POST /v1/jobs), polled (GET /v1/jobs/ID), fetched
(GET /v1/jobs/ID/report), cancelled (DELETE /v1/jobs/ID), and observed
(GET /metrics, Prometheus text). Jobs run concurrently on `--workers`
threads; per-job manifests live under `--state-dir`, so a restarted
daemon resumes finished work instead of recomputing it. SIGINT/SIGTERM
shut the daemon down cleanly. See README § Serve.

Exit codes: 0 success, 1 runtime failure, 2 usage error.";

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn missing_command_errors() {
        assert!(run(&[]).is_err());
        assert!(run(&argv("bogus")).is_err());
    }

    #[test]
    fn bad_command_lines_are_usage_errors_with_exit_code_2() {
        for bad in ["", "bogus", "figure", "figure nine", "run --algorithm ga"] {
            let err = run(&argv(bad)).unwrap_err();
            assert!(err.is_usage(), "{bad:?} should be a usage error: {err}");
            assert_eq!(err.exit_code(), 2);
        }
    }

    #[test]
    fn figure_requires_valid_number() {
        assert!(run(&argv("figure")).is_err());
        assert!(run(&argv("figure nine")).is_err());
    }

    #[test]
    fn help_succeeds() {
        assert!(run(&argv("help")).is_ok());
    }

    #[test]
    fn dataset_one_prints() {
        assert!(run(&argv("dataset --set 1")).is_ok());
    }

    #[test]
    fn tiny_run_completes() {
        assert!(run(&argv("run --set 1 --tasks 20 --pop 8 --scale 0.00002")).is_ok());
    }

    #[test]
    fn tiny_run_completes_with_every_algorithm() {
        for algorithm in ["nsga2", "moead", "spea2"] {
            let cmd =
                format!("run --set 1 --tasks 15 --pop 8 --scale 0.00002 --algorithm {algorithm}");
            assert!(run(&argv(&cmd)).is_ok(), "{algorithm} run failed");
        }
    }

    #[test]
    fn replicated_run_goes_through_the_campaign_path() {
        let out =
            std::env::temp_dir().join(format!("hetsched-cli-camp-{}.txt", std::process::id()));
        let cmd = format!(
            "run --set 1 --tasks 15 --pop 8 --scale 0.00002 --algorithm spea2 \
             --replicates 2 --out {}",
            out.display()
        );
        assert!(run(&argv(&cmd)).is_ok());
        let text = std::fs::read_to_string(&out).unwrap();
        let _ = std::fs::remove_file(&out);
        assert!(text.contains("campaign: data set 1, engine spea2, 2 replicate(s)"));
        assert!(text.contains("replicate 0:"));
        assert!(text.contains("replicate 1:"));
    }

    #[test]
    fn campaign_manifest_is_written_and_resumed() {
        let dir = std::env::temp_dir();
        let manifest = dir.join(format!(
            "hetsched-cli-manifest-{}.jsonl",
            std::process::id()
        ));
        let out = dir.join(format!(
            "hetsched-cli-manifest-out-{}.txt",
            std::process::id()
        ));
        let cmd = format!(
            "run --set 1 --tasks 15 --pop 8 --scale 0.00002 --replicates 2 \
             --manifest {} --out {}",
            manifest.display(),
            out.display()
        );
        assert!(run(&argv(&cmd)).is_ok());
        let lines = std::fs::read_to_string(&manifest).unwrap().lines().count();
        // Header + one record per (replicate, seed kind) cell.
        let cells = 2 * hetsched_core::ExperimentConfig::dataset1().seeds.len();
        assert_eq!(lines, 1 + cells);
        // Second invocation replays every cell from the manifest.
        assert!(run(&argv(&cmd)).is_ok());
        let text = std::fs::read_to_string(&out).unwrap();
        let _ = std::fs::remove_file(&manifest);
        let _ = std::fs::remove_file(&out);
        assert!(
            text.contains(&format!("0 executed, {cells} replayed")),
            "resume should replay all cells: {text}"
        );
    }

    #[test]
    fn campaign_with_telemetry_writes_heartbeat_and_prometheus_snapshot() {
        let dir = std::env::temp_dir();
        let hb = dir.join(format!("hetsched-cli-hb-{}.jsonl", std::process::id()));
        let prom = dir.join(format!("hetsched-cli-prom-{}.prom", std::process::id()));
        let out = dir.join(format!("hetsched-cli-telem-out-{}.txt", std::process::id()));
        let cmd = format!(
            "run --set 1 --tasks 15 --pop 8 --scale 0.00002 --replicates 2 \
             --heartbeat-out {} --heartbeat-every 0.01 --telemetry-out {} --out {}",
            hb.display(),
            prom.display(),
            out.display()
        );
        assert!(run(&argv(&cmd)).is_ok());
        let hb_text = std::fs::read_to_string(&hb).unwrap();
        let prom_text = std::fs::read_to_string(&prom).unwrap();
        let _ = std::fs::remove_file(&hb);
        let _ = std::fs::remove_file(&prom);
        let _ = std::fs::remove_file(&out);
        // At least the unconditional start and end lines, all valid JSON
        // with monotone progress.
        let cells = 2 * hetsched_core::ExperimentConfig::dataset1().seeds.len() as u64;
        let mut last_done = 0u64;
        let mut lines = 0;
        for line in hb_text.lines() {
            let hb: hetsched_core::HeartbeatLine = serde_json::from_str(line).unwrap();
            assert!(
                hb.cells_done >= last_done,
                "heartbeat progress went backwards"
            );
            assert_eq!(hb.cells_total, cells);
            last_done = hb.cells_done;
            lines += 1;
        }
        assert!(lines >= 2, "expected start+end heartbeat lines: {hb_text}");
        assert_eq!(last_done, cells);
        assert!(prom_text.contains(&format!("hetsched_campaign_cells_finished_total {cells}")));
        assert!(prom_text.contains("hetsched_engine_generations_total"));
        assert!(prom_text.contains("hetsched_campaign_cell_duration_seconds_bucket"));
    }

    #[test]
    fn work_requires_a_manifest() {
        let err = run(&argv("work --tasks 15 --pop 8 --scale 0.00002")).unwrap_err();
        assert!(err.is_usage(), "{err}");
        assert!(err.to_string().contains("--manifest"), "{err}");
    }

    #[test]
    fn work_command_runs_a_campaign_and_matches_single_process_reports() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let solo_manifest = dir.join(format!("hetsched-cli-work-solo-{pid}.jsonl"));
        let work_manifest = dir.join(format!("hetsched-cli-work-dist-{pid}.jsonl"));
        let solo_reports = dir.join(format!("hetsched-cli-work-solo-{pid}.json"));
        let work_reports = dir.join(format!("hetsched-cli-work-dist-{pid}.json"));
        let out = dir.join(format!("hetsched-cli-work-out-{pid}.txt"));
        let _ = std::fs::remove_file(&solo_manifest);
        let _ = std::fs::remove_file(&work_manifest);
        let flags = "--set 1 --tasks 15 --pop 8 --scale 0.00002 --replicates 1";
        let solo = format!(
            "run {flags} --manifest {} --reports-out {} --out {}",
            solo_manifest.display(),
            solo_reports.display(),
            out.display()
        );
        assert!(run(&argv(&solo)).is_ok());
        let work = format!(
            "work {flags} --manifest {} --worker-id w1 --lease-ttl 30 \
             --reports-out {} --out {}",
            work_manifest.display(),
            work_reports.display(),
            out.display()
        );
        assert!(run(&argv(&work)).is_ok());
        let text = std::fs::read_to_string(&out).unwrap();
        assert!(
            text.contains("worker w1:") && text.contains("executed"),
            "missing worker summary: {text}"
        );
        // The merge contract: a worker campaign's reports are
        // byte-identical to a single-process run of the same spec.
        let solo_json = std::fs::read(&solo_reports).unwrap();
        let work_json = std::fs::read(&work_reports).unwrap();
        assert!(!solo_json.is_empty());
        assert_eq!(solo_json, work_json, "reports diverge across modes");
        // The worker manifest carries lease records alongside cells.
        let manifest_text = std::fs::read_to_string(&work_manifest).unwrap();
        assert!(
            manifest_text.contains("\"kind\":\"lease\""),
            "no lease records: {manifest_text}"
        );
        for p in [
            &solo_manifest,
            &work_manifest,
            &solo_reports,
            &work_reports,
            &out,
        ] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn report_on_a_manifest_prints_cell_table_and_convergence() {
        let dir = std::env::temp_dir();
        let manifest = dir.join(format!(
            "hetsched-cli-report-manifest-{}.jsonl",
            std::process::id()
        ));
        let out = dir.join(format!(
            "hetsched-cli-report-inspect-{}.txt",
            std::process::id()
        ));
        let cmd = format!(
            "run --set 1 --tasks 15 --pop 8 --scale 0.00002 --replicates 1 --manifest {}",
            manifest.display()
        );
        assert!(run(&argv(&cmd)).is_ok());
        let report_cmd = format!("report {} --out {}", manifest.display(), out.display());
        assert!(run(&argv(&report_cmd)).is_ok());
        let text = std::fs::read_to_string(&out).unwrap();
        let _ = std::fs::remove_file(&manifest);
        let _ = std::fs::remove_file(&out);
        assert!(text.contains("campaign"), "missing header: {text}");
        assert!(text.contains("done"), "missing cell status: {text}");
        assert!(text.contains("nsga2"), "missing cell rows: {text}");
    }

    #[test]
    fn report_on_garbage_path_is_a_runtime_error() {
        assert!(run(&argv("report /nonexistent/path.jsonl")).is_err());
    }

    #[test]
    fn trace_out_records_spans_and_trace_command_analyses_them() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let manifest = dir.join(format!("hetsched-cli-trace-manifest-{pid}.jsonl"));
        let _ = std::fs::remove_file(&manifest);
        // A single-process campaign and a worker record the same timeline.
        let work = format!("work --manifest {}", manifest.display());
        for (tag, command) in [("run", "run"), ("work", work.as_str())] {
            let trace = dir.join(format!("hetsched-cli-trace-{tag}-{pid}.jsonl"));
            let out = dir.join(format!("hetsched-cli-trace-run-{tag}-{pid}.txt"));
            let _ = std::fs::remove_file(&trace);
            let cmd = format!(
                "{command} --set 1 --tasks 15 --pop 8 --scale 0.00002 --replicates 2 \
                 --trace-out {} --out {}",
                trace.display(),
                out.display()
            );
            assert!(run(&argv(&cmd)).is_ok());
            let spans = hetsched_core::read_trace(&trace).unwrap();
            assert!(
                spans.iter().any(|s| s.name == "campaign"),
                "no campaign span"
            );
            assert!(spans.iter().any(|s| s.name == "cell"), "no cell spans");
            assert!(
                spans.iter().any(|s| s.name == "generation"),
                "no generation spans"
            );
            let cells: Vec<u64> = spans
                .iter()
                .filter(|s| s.name == "cell")
                .map(|s| s.span_id)
                .collect();
            let mut attempts = spans.iter().filter(|s| s.name == "attempt").peekable();
            assert!(
                attempts.peek().is_some()
                    && attempts.all(|s| s.parent_id.is_some_and(|p| cells.contains(&p))),
                "{tag}: an attempt span is missing or not parented to a cell span"
            );

            // Post-hoc analysis renders the report sections.
            let report = dir.join(format!("hetsched-cli-trace-report-{tag}-{pid}.txt"));
            let report_cmd = format!(
                "trace {} --top 3 --out {}",
                trace.display(),
                report.display()
            );
            assert!(run(&argv(&report_cmd)).is_ok());
            let text = std::fs::read_to_string(&report).unwrap();
            assert!(text.contains("self (s)"), "{text}");
            assert!(text.contains("slowest cells"), "{text}");
            assert!(text.contains("critical path"), "{text}");

            // Chrome export is valid JSON with a traceEvents array.
            let chrome = dir.join(format!("hetsched-cli-trace-chrome-{tag}-{pid}.json"));
            let chrome_cmd = format!(
                "trace {} --json --out {}",
                trace.display(),
                chrome.display()
            );
            assert!(run(&argv(&chrome_cmd)).is_ok());
            let parsed: serde_json::Value =
                serde_json::from_str(&std::fs::read_to_string(&chrome).unwrap()).unwrap();
            let events = parsed
                .get("traceEvents")
                .and_then(|v| v.as_array())
                .unwrap();
            assert_eq!(events.len(), spans.len());

            let _ = std::fs::remove_file(&trace);
            let _ = std::fs::remove_file(&out);
            let _ = std::fs::remove_file(&report);
            let _ = std::fs::remove_file(&chrome);
        }
        let _ = std::fs::remove_file(&manifest);
    }

    #[test]
    fn trace_command_requires_a_readable_path() {
        let err = run(&argv("trace")).unwrap_err();
        assert!(err.is_usage(), "{err}");
        assert!(run(&argv("trace /nonexistent/spans.jsonl")).is_err());
    }

    #[test]
    fn heartbeat_flags_are_rejected_on_the_plain_run_path() {
        let err = run(&argv(
            "run --heartbeat-out hb.jsonl --tasks 15 --pop 8 --scale 0.00002",
        ))
        .unwrap_err();
        assert!(err.is_usage());
        let err = run(&argv(
            "run --telemetry-out m.prom --tasks 15 --pop 8 --scale 0.00002",
        ))
        .unwrap_err();
        assert!(err.is_usage());
    }

    #[test]
    fn cell_timeout_is_rejected_on_the_plain_run_path() {
        let err = run(&argv(
            "run --cell-timeout 5 --tasks 15 --pop 8 --scale 0.00002",
        ))
        .unwrap_err();
        assert!(err.is_usage(), "{err}");
    }

    #[test]
    fn campaign_accepts_a_cell_timeout() {
        assert!(run(&argv(
            "run --set 1 --tasks 15 --pop 8 --scale 0.00002 --replicates 1 --cell-timeout 600",
        ))
        .is_ok());
    }

    #[test]
    fn malformed_chaos_plans_are_usage_errors() {
        let err = run(&argv(
            "run --chaos-plan not-a-plan --tasks 15 --pop 8 --scale 0.00002",
        ))
        .unwrap_err();
        assert!(err.is_usage(), "{err}");
    }

    #[test]
    fn metrics_out_is_rejected_on_the_campaign_path() {
        let err = run(&argv(
            "run --replicates 2 --metrics-out x.jsonl --tasks 15 --pop 8 --scale 0.00002",
        ))
        .unwrap_err();
        assert!(err.is_usage());
    }

    #[test]
    fn tiny_online_stream_completes() {
        let out = std::env::temp_dir().join(format!(
            "hetsched-cli-stream-out-{}.txt",
            std::process::id()
        ));
        let cmd = format!(
            "run --online --arrivals poisson:1.5 --horizon 20 --duration 60 \
             --set 1 --pop 8 --scale 0.00002 --out {}",
            out.display()
        );
        assert!(run(&argv(&cmd)).is_ok());
        let text = std::fs::read_to_string(&out).unwrap();
        let _ = std::fs::remove_file(&out);
        assert!(text.contains("streaming run: poisson:1.5"), "{text}");
        assert!(text.contains("engine:nsga2"), "{text}");
        // Three horizons of 20 s over a 60 s stream; tick 2 plans at t=40.
        assert!(text.contains("\n2,40.00,"), "{text}");
        assert!(text.contains("committed:"), "{text}");
    }

    #[test]
    fn online_stream_with_policy_and_budget_completes() {
        assert!(run(&argv(
            "run --online --arrivals poisson:2,burst:3x30 --horizon 15 --duration 45 \
             --policy gupta --energy-budget 50000000 --set 1 --scale 0.00002"
        ))
        .is_ok());
    }

    #[test]
    fn online_stream_manifest_resumes_mid_stream() {
        let dir = std::env::temp_dir();
        let manifest = dir.join(format!(
            "hetsched-cli-stream-manifest-{}.jsonl",
            std::process::id()
        ));
        let out = dir.join(format!(
            "hetsched-cli-stream-resume-{}.txt",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&manifest);
        let base = format!(
            "run --online --arrivals poisson:1.5 --horizon 20 --set 1 --pop 8 \
             --scale 0.00002 --manifest {} --out {}",
            manifest.display(),
            out.display()
        );
        assert!(run(&argv(&format!("{base} --duration 40"))).is_ok());
        assert!(run(&argv(&format!("{base} --duration 80"))).is_ok());
        let text = std::fs::read_to_string(&out).unwrap();
        let _ = std::fs::remove_file(&manifest);
        let _ = std::fs::remove_file(&out);
        assert!(text.contains("(resumed at tick 2)"), "{text}");
    }

    #[test]
    fn streaming_flags_require_the_online_arm() {
        for bad in [
            "run --horizon 20 --tasks 15 --pop 8 --scale 0.00002",
            "run --arrivals poisson:2 --tasks 15 --pop 8 --scale 0.00002",
            "run --online --pop 8 --scale 0.00002",
            "run --online --arrivals poisson:2 --replicates 2 --pop 8 --scale 0.00002",
        ] {
            let err = run(&argv(bad)).unwrap_err();
            assert!(err.is_usage(), "{bad:?}: {err}");
        }
    }

    #[test]
    fn seeds_command_completes() {
        assert!(run(&argv("seeds --set 1 --tasks 25")).is_ok());
    }

    #[test]
    fn gantt_online_and_verify_synth_complete() {
        assert!(run(&argv("gantt --set 1 --tasks 15")).is_ok());
        assert!(run(&argv("online --set 1 --tasks 20")).is_ok());
        assert!(run(&argv("verify-synth --tasks 60")).is_ok());
    }

    #[test]
    fn attain_completes_on_mini_experiment() {
        assert!(run(&argv("attain --set 1 --tasks 15 --pop 8 --scale 0.00002")).is_ok());
        // --replicates steers the repetition count on attain too.
        assert!(run(&argv(
            "attain --set 1 --tasks 15 --pop 8 --scale 0.00002 --replicates 2"
        ))
        .is_ok());
    }

    #[test]
    fn verify_suite_passes_at_tiny_scale() {
        assert!(run(&argv("verify --set 1 --scale 0.0002")).is_ok());
    }

    #[test]
    fn figure_one_and_two_print() {
        assert!(run(&argv("figure 1")).is_ok());
        assert!(run(&argv("figure 2")).is_ok());
    }

    #[test]
    fn run_with_metrics_out_writes_one_record_per_generation() {
        let dir = std::env::temp_dir();
        let journal = dir.join(format!("hetsched-cli-metrics-{}.jsonl", std::process::id()));
        let report = dir.join(format!("hetsched-cli-report-{}.txt", std::process::id()));
        let cmd = format!(
            "run --set 1 --tasks 20 --pop 8 --scale 0.00002 --log-level error \
             --metrics-out {} --out {}",
            journal.display(),
            report.display()
        );
        assert!(run(&argv(&cmd)).is_ok());
        let text = std::fs::read_to_string(&journal).unwrap();
        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_file(&report);
        let cfg = hetsched_core::ExperimentConfig::scaled(hetsched_core::DatasetId::One, 0.00002);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), cfg.generations() * cfg.seeds.len());
        for line in lines {
            serde_json::from_str::<serde_json::Value>(line)
                .unwrap_or_else(|e| panic!("bad journal line {line:?}: {e}"));
        }
    }
}
