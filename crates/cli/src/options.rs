//! Minimal flag parser — the CLI's surface is small enough that a
//! hand-rolled parser beats pulling in a dependency.

use crate::error::CliError;
use hetsched_core::Algorithm;
use hetsched_sim::OnlinePolicy;
use std::time::Duration;

/// Parsed command-line options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Positional arguments after the command.
    pub positional: Vec<String>,
    /// Data set selector (1-3).
    pub set: u8,
    /// Iteration-schedule scale factor.
    pub scale: f64,
    /// Trace-length override.
    pub tasks: Option<usize>,
    /// Trace/stream duration override in seconds.
    pub duration: Option<f64>,
    /// Rolling-horizon streaming mode (`run --online`).
    pub online: bool,
    /// Horizon tick length in seconds (streaming `run` only).
    pub horizon: Option<f64>,
    /// Arrival-process spec, e.g. `poisson:2.5` or
    /// `poisson:2,burst:4x60` (streaming `run` only).
    pub arrivals: Option<String>,
    /// Use a non-evolutionary per-arrival policy instead of the engine
    /// (streaming `run` only).
    pub policy: Option<OnlinePolicy>,
    /// Re-seed every horizon from scratch instead of warm-starting from
    /// the previous front (streaming `run` only).
    pub cold_start: bool,
    /// Stream-wide committed-energy cap in joules (streaming `run` only).
    pub energy_budget: Option<f64>,
    /// Population size.
    pub population: usize,
    /// Master RNG seed.
    pub rng_seed: u64,
    /// MOEA family to evolve with (`run`, `attain`).
    pub algorithm: Algorithm,
    /// Replicate count: campaign replicates for `run` (default 1), run
    /// repetitions for `attain` (default 5).
    pub replicates: Option<usize>,
    /// Campaign manifest path (`run` only): checkpoint cells as they
    /// finish and resume from the file on restart.
    pub manifest: Option<String>,
    /// Worker identity for `hetsched work` (defaults to `host:pid`).
    pub worker_id: Option<String>,
    /// Lease time-to-live in seconds for `hetsched work`: how long a
    /// claimed cell stays fenced off before peers may steal it.
    pub lease_ttl: Option<f64>,
    /// Canonical JSON dump of the campaign's replicate reports
    /// (campaign `run` and `work`): byte-identical across processes
    /// that computed the same campaign, used for merge verification.
    pub reports_out: Option<String>,
    /// Output path (stdout when absent).
    pub out: Option<String>,
    /// Emit JSON instead of CSV.
    pub json: bool,
    /// Per-generation metrics journal path (JSONL; `run` command only).
    pub metrics_out: Option<String>,
    /// Campaign heartbeat path (JSONL progress lines, appended; campaign
    /// `run` only).
    pub heartbeat_out: Option<String>,
    /// Seconds between heartbeat lines.
    pub heartbeat_every: f64,
    /// Prometheus-style metrics snapshot path, written when the campaign
    /// finishes (campaign `run` only).
    pub telemetry_out: Option<String>,
    /// Per-cell wall-clock watchdog budget (campaign `run` only): an
    /// attempt exceeding it is recorded as timed out without retrying.
    pub cell_timeout: Option<Duration>,
    /// Fault-injection plan, e.g.
    /// `seed=7;campaign.cell.run@2=panic;manifest.append@1=io`.
    pub chaos_plan: Option<String>,
    /// Re-execute cells the manifest marks quarantined (timed out or
    /// attempt-budget exhausted) instead of replaying the failure.
    pub requeue_quarantined: bool,
    /// Listen address for the `serve` daemon (`host:port`; port 0 picks
    /// an ephemeral port).
    pub addr: String,
    /// Daemon state directory holding per-job campaign manifests
    /// (`serve` only; default `hetsched-state`).
    pub state_dir: Option<String>,
    /// Campaign worker threads for the `serve` daemon.
    pub workers: usize,
    /// Stderr log verbosity: a default level plus optional RUST_LOG-style
    /// `target=level` rules (e.g. `info,hetsched_core::campaign=debug`).
    pub log_directives: tracing::Directives,
    /// Span trace output path (JSONL, appended; installs the process
    /// span sink).
    pub trace_out: Option<String>,
    /// Row budget for top-N listings (`trace` command).
    pub top: usize,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            positional: Vec::new(),
            set: 1,
            scale: 0.001,
            tasks: None,
            duration: None,
            online: false,
            horizon: None,
            arrivals: None,
            policy: None,
            cold_start: false,
            energy_budget: None,
            population: 100,
            rng_seed: 0x5EED,
            algorithm: Algorithm::default(),
            replicates: None,
            manifest: None,
            worker_id: None,
            lease_ttl: None,
            reports_out: None,
            out: None,
            json: false,
            metrics_out: None,
            heartbeat_out: None,
            heartbeat_every: 5.0,
            telemetry_out: None,
            cell_timeout: None,
            chaos_plan: None,
            requeue_quarantined: false,
            addr: "127.0.0.1:7878".to_string(),
            state_dir: None,
            workers: 2,
            log_directives: tracing::Directives::new(tracing::Level::WARN),
            trace_out: None,
            top: 10,
        }
    }
}

fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

impl Options {
    /// Parses flags; unknown flags are errors, anything without a leading
    /// `--` is positional.
    pub fn parse(args: &[String]) -> Result<Self, CliError> {
        let mut opts = Options::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value_for = |flag: &str| -> Result<&String, CliError> {
                it.next()
                    .ok_or_else(|| usage(format!("--{flag} requires a value")))
            };
            match arg.as_str() {
                "--set" => {
                    opts.set = value_for("set")?
                        .parse()
                        .map_err(|_| usage("--set must be 1, 2, or 3"))?;
                    if !(1..=3).contains(&opts.set) {
                        return Err(usage("--set must be 1, 2, or 3"));
                    }
                }
                "--scale" => {
                    opts.scale = value_for("scale")?
                        .parse()
                        .map_err(|_| usage("--scale must be a number"))?;
                    if opts.scale <= 0.0 || opts.scale.is_nan() {
                        return Err(usage("--scale must be > 0"));
                    }
                }
                "--tasks" => {
                    opts.tasks = Some(
                        value_for("tasks")?
                            .parse()
                            .map_err(|_| usage("--tasks must be a positive integer"))?,
                    );
                }
                "--duration" => {
                    let d: f64 = value_for("duration")?
                        .parse()
                        .map_err(|_| usage("--duration must be a number of seconds"))?;
                    if !(d.is_finite() && d > 0.0) {
                        return Err(usage("--duration must be > 0"));
                    }
                    opts.duration = Some(d);
                }
                "--horizon" => {
                    let h: f64 = value_for("horizon")?
                        .parse()
                        .map_err(|_| usage("--horizon must be a number of seconds"))?;
                    if !(h.is_finite() && h > 0.0) {
                        return Err(usage("--horizon must be > 0"));
                    }
                    opts.horizon = Some(h);
                }
                "--arrivals" => {
                    let spec = value_for("arrivals")?.clone();
                    // Validate the grammar up front so a typo is a usage
                    // error, not a runtime failure mid-stream.
                    spec.parse::<hetsched_workload::ArrivalSpec>()
                        .map_err(|e| usage(format!("--arrivals: {e}")))?;
                    opts.arrivals = Some(spec);
                }
                "--policy" => {
                    opts.policy = Some(
                        value_for("policy")?
                            .parse()
                            .map_err(|_| usage("--policy must be max-utility or gupta"))?,
                    );
                }
                "--energy-budget" => {
                    let b: f64 = value_for("energy-budget")?
                        .parse()
                        .map_err(|_| usage("--energy-budget must be a number of joules"))?;
                    if !(b.is_finite() && b > 0.0) {
                        return Err(usage("--energy-budget must be > 0"));
                    }
                    opts.energy_budget = Some(b);
                }
                "--pop" => {
                    opts.population = value_for("pop")?
                        .parse()
                        .map_err(|_| usage("--pop must be a positive integer"))?;
                }
                "--rng" => {
                    opts.rng_seed = value_for("rng")?
                        .parse()
                        .map_err(|_| usage("--rng must be an integer seed"))?;
                }
                "--algorithm" => {
                    opts.algorithm = value_for("algorithm")?
                        .parse()
                        .map_err(|_| usage("--algorithm must be nsga2, moead, or spea2"))?;
                }
                "--replicates" => {
                    let n: usize = value_for("replicates")?
                        .parse()
                        .map_err(|_| usage("--replicates must be a positive integer"))?;
                    if n == 0 {
                        return Err(usage("--replicates must be >= 1"));
                    }
                    opts.replicates = Some(n);
                }
                "--manifest" => {
                    opts.manifest = Some(value_for("manifest")?.clone());
                }
                "--worker-id" => {
                    let id = value_for("worker-id")?.clone();
                    if id.is_empty() {
                        return Err(usage("--worker-id must not be empty"));
                    }
                    opts.worker_id = Some(id);
                }
                "--lease-ttl" => {
                    let ttl: f64 = value_for("lease-ttl")?
                        .parse()
                        .map_err(|_| usage("--lease-ttl must be a number of seconds"))?;
                    if !(ttl.is_finite() && ttl > 0.0) {
                        return Err(usage("--lease-ttl must be > 0"));
                    }
                    opts.lease_ttl = Some(ttl);
                }
                "--reports-out" => {
                    opts.reports_out = Some(value_for("reports-out")?.clone());
                }
                "--out" => {
                    opts.out = Some(value_for("out")?.clone());
                }
                "--metrics-out" => {
                    opts.metrics_out = Some(value_for("metrics-out")?.clone());
                }
                "--heartbeat-out" => {
                    opts.heartbeat_out = Some(value_for("heartbeat-out")?.clone());
                }
                "--heartbeat-every" => {
                    opts.heartbeat_every = value_for("heartbeat-every")?
                        .parse()
                        .map_err(|_| usage("--heartbeat-every must be a number of seconds"))?;
                    if opts.heartbeat_every <= 0.0 || opts.heartbeat_every.is_nan() {
                        return Err(usage("--heartbeat-every must be > 0"));
                    }
                }
                "--telemetry-out" => {
                    opts.telemetry_out = Some(value_for("telemetry-out")?.clone());
                }
                "--cell-timeout" => {
                    let secs: f64 = value_for("cell-timeout")?
                        .parse()
                        .map_err(|_| usage("--cell-timeout must be a number of seconds"))?;
                    if secs <= 0.0 || !secs.is_finite() {
                        return Err(usage("--cell-timeout must be > 0"));
                    }
                    opts.cell_timeout = Some(Duration::from_secs_f64(secs));
                }
                "--chaos-plan" => {
                    opts.chaos_plan = Some(value_for("chaos-plan")?.clone());
                }
                "--addr" => {
                    opts.addr = value_for("addr")?.clone();
                    if !opts.addr.contains(':') {
                        return Err(usage("--addr must be host:port"));
                    }
                }
                "--state-dir" => {
                    opts.state_dir = Some(value_for("state-dir")?.clone());
                }
                "--workers" => {
                    let n: usize = value_for("workers")?
                        .parse()
                        .map_err(|_| usage("--workers must be a positive integer"))?;
                    if n == 0 {
                        return Err(usage("--workers must be >= 1"));
                    }
                    opts.workers = n;
                }
                "--log-level" => {
                    opts.log_directives = value_for("log-level")?.parse().map_err(|_| {
                        usage(
                            "--log-level must be error, warn, info, debug, or trace, \
                             optionally with `target=level` rules \
                             (e.g. info,hetsched_core::campaign=debug,hetsched_sim=off)",
                        )
                    })?;
                }
                "--trace-out" => {
                    opts.trace_out = Some(value_for("trace-out")?.clone());
                }
                "--top" => {
                    let n: usize = value_for("top")?
                        .parse()
                        .map_err(|_| usage("--top must be a positive integer"))?;
                    if n == 0 {
                        return Err(usage("--top must be >= 1"));
                    }
                    opts.top = n;
                }
                "--json" => opts.json = true,
                "--online" => opts.online = true,
                "--cold-start" => opts.cold_start = true,
                "--requeue-quarantined" => opts.requeue_quarantined = true,
                flag if flag.starts_with("--") => {
                    return Err(usage(format!("unknown flag `{flag}`")));
                }
                positional => opts.positional.push(positional.to_string()),
            }
        }
        Ok(opts)
    }

    /// Writes `content` to `--out` or stdout. File output goes through
    /// [`hetsched_core::durable_write`], so an interrupted rerun never
    /// leaves a half-written report over a previous good one.
    pub fn emit(&self, content: &str) -> Result<(), CliError> {
        match &self.out {
            Some(path) => {
                hetsched_core::durable_write(path, content).map_err(|e| CliError::io(path, e))
            }
            None => {
                println!("{content}");
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn defaults() {
        let o = Options::parse(&[]).unwrap();
        assert_eq!(o.set, 1);
        assert_eq!(o.population, 100);
        assert_eq!(o.algorithm, Algorithm::Nsga2);
        assert_eq!(o.replicates, None);
        assert!(o.manifest.is_none());
        assert!(!o.json);
    }

    #[test]
    fn parses_all_flags() {
        let o = Options::parse(&argv(
            "5 --set 2 --scale 0.5 --tasks 42 --pop 10 --rng 7 --json \
             --algorithm spea2 --replicates 3 --manifest cells.jsonl \
             --metrics-out run.jsonl --heartbeat-out hb.jsonl \
             --heartbeat-every 0.5 --telemetry-out metrics.prom \
             --cell-timeout 2.5 --log-level debug",
        ))
        .unwrap();
        assert_eq!(o.positional, vec!["5"]);
        assert_eq!(o.set, 2);
        assert_eq!(o.scale, 0.5);
        assert_eq!(o.tasks, Some(42));
        assert_eq!(o.population, 10);
        assert_eq!(o.rng_seed, 7);
        assert!(o.json);
        assert_eq!(o.algorithm, Algorithm::Spea2);
        assert_eq!(o.replicates, Some(3));
        assert_eq!(o.manifest.as_deref(), Some("cells.jsonl"));
        assert_eq!(o.metrics_out.as_deref(), Some("run.jsonl"));
        assert_eq!(o.heartbeat_out.as_deref(), Some("hb.jsonl"));
        assert_eq!(o.heartbeat_every, 0.5);
        assert_eq!(o.telemetry_out.as_deref(), Some("metrics.prom"));
        assert_eq!(o.cell_timeout, Some(Duration::from_secs_f64(2.5)));
        assert_eq!(
            o.log_directives,
            tracing::Directives::new(tracing::Level::DEBUG)
        );
    }

    #[test]
    fn log_level_accepts_per_target_directives() {
        let o = Options::parse(&argv(
            "--log-level info,hetsched_core::campaign=debug,hetsched_sim=off",
        ))
        .unwrap();
        assert_eq!(
            o.log_directives.level_for("hetsched_core::campaign::inner"),
            Some(tracing::Level::DEBUG)
        );
        assert_eq!(o.log_directives.level_for("hetsched_sim"), None);
        assert_eq!(
            o.log_directives.level_for("elsewhere"),
            Some(tracing::Level::INFO)
        );
        assert!(Options::parse(&argv("--log-level info,=debug")).is_err());
    }

    #[test]
    fn trace_flags_parse() {
        let o = Options::parse(&argv("--trace-out spans.jsonl --top 3")).unwrap();
        assert_eq!(o.trace_out.as_deref(), Some("spans.jsonl"));
        assert_eq!(o.top, 3);
        let o = Options::parse(&[]).unwrap();
        assert!(o.trace_out.is_none());
        assert_eq!(o.top, 10);
        assert!(Options::parse(&argv("--trace-out")).is_err());
        assert!(Options::parse(&argv("--top 0")).is_err());
        assert!(Options::parse(&argv("--top lots")).is_err());
    }

    #[test]
    fn algorithm_accepts_every_engine_label() {
        for (label, expected) in [
            ("nsga2", Algorithm::Nsga2),
            ("moead", Algorithm::Moead),
            ("spea2", Algorithm::Spea2),
        ] {
            let o = Options::parse(&argv(&format!("--algorithm {label}"))).unwrap();
            assert_eq!(o.algorithm, expected);
        }
    }

    #[test]
    fn rejects_bad_values() {
        assert!(Options::parse(&argv("--set 4")).is_err());
        assert!(Options::parse(&argv("--set x")).is_err());
        assert!(Options::parse(&argv("--scale 0")).is_err());
        assert!(Options::parse(&argv("--scale -1")).is_err());
        assert!(Options::parse(&argv("--tasks")).is_err());
        assert!(Options::parse(&argv("--frobnicate 1")).is_err());
        assert!(Options::parse(&argv("--log-level loud")).is_err());
        assert!(Options::parse(&argv("--metrics-out")).is_err());
        assert!(Options::parse(&argv("--algorithm genetic")).is_err());
        assert!(Options::parse(&argv("--replicates 0")).is_err());
        assert!(Options::parse(&argv("--manifest")).is_err());
        assert!(Options::parse(&argv("--heartbeat-every 0")).is_err());
        assert!(Options::parse(&argv("--heartbeat-every -1")).is_err());
        assert!(Options::parse(&argv("--heartbeat-every soon")).is_err());
        assert!(Options::parse(&argv("--heartbeat-out")).is_err());
        assert!(Options::parse(&argv("--telemetry-out")).is_err());
        assert!(Options::parse(&argv("--cell-timeout 0")).is_err());
        assert!(Options::parse(&argv("--cell-timeout -3")).is_err());
        assert!(Options::parse(&argv("--cell-timeout later")).is_err());
        assert!(Options::parse(&argv("--chaos-plan")).is_err());
    }

    #[test]
    fn parses_serve_flags() {
        let o =
            Options::parse(&argv("--addr 0.0.0.0:8080 --state-dir /tmp/st --workers 4")).unwrap();
        assert_eq!(o.addr, "0.0.0.0:8080");
        assert_eq!(o.state_dir.as_deref(), Some("/tmp/st"));
        assert_eq!(o.workers, 4);
        // Defaults.
        let o = Options::parse(&[]).unwrap();
        assert_eq!(o.addr, "127.0.0.1:7878");
        assert!(o.state_dir.is_none());
        assert_eq!(o.workers, 2);
        // Rejections.
        assert!(Options::parse(&argv("--addr localhost")).is_err());
        assert!(Options::parse(&argv("--workers 0")).is_err());
        assert!(Options::parse(&argv("--workers many")).is_err());
        assert!(Options::parse(&argv("--state-dir")).is_err());
    }

    #[test]
    fn parses_streaming_flags() {
        let o = Options::parse(&argv(
            "--online --horizon 30 --arrivals poisson:2.5,burst:4x60 \
             --duration 120 --energy-budget 5e6 --cold-start",
        ))
        .unwrap();
        assert!(o.online);
        assert_eq!(o.horizon, Some(30.0));
        assert_eq!(o.arrivals.as_deref(), Some("poisson:2.5,burst:4x60"));
        assert_eq!(o.duration, Some(120.0));
        assert_eq!(o.energy_budget, Some(5e6));
        assert!(o.cold_start);
        assert!(o.policy.is_none());
        let o = Options::parse(&argv("--online --arrivals poisson:1 --policy gupta")).unwrap();
        assert_eq!(o.policy, Some(OnlinePolicy::GuptaGreedy));
        // Defaults.
        let o = Options::parse(&[]).unwrap();
        assert!(!o.online);
        assert!(!o.cold_start);
        assert!(o.horizon.is_none() && o.arrivals.is_none() && o.energy_budget.is_none());
    }

    #[test]
    fn rejects_bad_streaming_values() {
        assert!(Options::parse(&argv("--horizon 0")).is_err());
        assert!(Options::parse(&argv("--horizon -5")).is_err());
        assert!(Options::parse(&argv("--horizon soon")).is_err());
        assert!(Options::parse(&argv("--duration 0")).is_err());
        assert!(Options::parse(&argv("--energy-budget 0")).is_err());
        assert!(Options::parse(&argv("--policy thorough")).is_err());
        // The arrival grammar is validated at parse time.
        assert!(Options::parse(&argv("--arrivals poisson:0")).is_err());
        assert!(Options::parse(&argv("--arrivals uniform:3")).is_err());
        assert!(Options::parse(&argv("--arrivals poisson:2,burst:0.5x60")).is_err());
    }

    #[test]
    fn requeue_quarantined_is_a_bare_flag() {
        assert!(!Options::parse(&[]).unwrap().requeue_quarantined);
        let o = Options::parse(&argv("--requeue-quarantined")).unwrap();
        assert!(o.requeue_quarantined);
    }

    #[test]
    fn parses_worker_flags() {
        let o = Options::parse(&argv(
            "--worker-id w1 --lease-ttl 2.5 --reports-out reports.json",
        ))
        .unwrap();
        assert_eq!(o.worker_id.as_deref(), Some("w1"));
        assert_eq!(o.lease_ttl, Some(2.5));
        assert_eq!(o.reports_out.as_deref(), Some("reports.json"));
        // Defaults.
        let o = Options::parse(&[]).unwrap();
        assert!(o.worker_id.is_none() && o.lease_ttl.is_none() && o.reports_out.is_none());
        // Rejections.
        assert!(Options::parse(&argv("--worker-id")).is_err());
        assert!(Options::parse(&["--worker-id".into(), String::new()]).is_err());
        assert!(Options::parse(&argv("--lease-ttl 0")).is_err());
        assert!(Options::parse(&argv("--lease-ttl -1")).is_err());
        assert!(Options::parse(&argv("--lease-ttl inf")).is_err());
        assert!(Options::parse(&argv("--lease-ttl soon")).is_err());
        assert!(Options::parse(&argv("--reports-out")).is_err());
    }

    #[test]
    fn chaos_plan_is_captured_verbatim() {
        let o = Options::parse(&argv("--chaos-plan seed=7;manifest.append@1=io")).unwrap();
        assert_eq!(o.chaos_plan.as_deref(), Some("seed=7;manifest.append@1=io"));
    }

    #[test]
    fn parse_failures_are_usage_errors() {
        let err = Options::parse(&argv("--algorithm genetic")).unwrap_err();
        assert!(err.is_usage());
        assert_eq!(err.exit_code(), 2);
    }
}
