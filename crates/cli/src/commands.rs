//! Command implementations.

use crate::error::CliError;
use crate::options::Options;
use hetsched_analysis::export::{series_to_csv, series_to_json};
use hetsched_core::figures;
use hetsched_core::{
    Campaign, CampaignOutcome, CampaignSpec, DatasetId, ExperimentConfig, Framework, Heartbeat,
    HeartbeatTicker, MetricsRegistry,
};
use hetsched_data::{MachineTypeId, TaskTypeId};
use hetsched_heuristics::SeedKind;
use hetsched_sim::Evaluator;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

fn dataset_id(set: u8) -> DatasetId {
    match set {
        1 => DatasetId::One,
        2 => DatasetId::Two,
        _ => DatasetId::Three,
    }
}

fn config_from(options: &Options) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::scaled(dataset_id(options.set), options.scale);
    if let Some(tasks) = options.tasks {
        cfg.tasks = tasks;
    }
    if let Some(duration) = options.duration {
        cfg.duration = duration;
    }
    cfg.population = options.population;
    cfg.rng_seed = options.rng_seed;
    cfg.algorithm = options.algorithm;
    cfg
}

/// `hetsched dataset`: print the system's machines, task types, and the
/// ETC/EPC matrices.
pub fn dataset(options: &Options) -> Result<(), CliError> {
    let cfg = config_from(options);
    let fw = Framework::new(&cfg)?;
    let sys = fw.system();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "data set {} — {} machines over {} machine types, {} task types",
        options.set,
        sys.machine_count(),
        sys.machine_type_count(),
        sys.task_type_count()
    );
    let _ = writeln!(out, "\nmachine types (Table I / III):");
    for m in 0..sys.machine_type_count() {
        let mt = MachineTypeId(m as u16);
        let count = sys.inventory().count(mt);
        let _ = writeln!(
            out,
            "  {:>2}  {:<32} × {}",
            m,
            sys.machine_type_name(mt),
            count
        );
    }
    let _ = writeln!(out, "\ntask types (Table II + synthetic):");
    for t in 0..sys.task_type_count() {
        let tt = TaskTypeId(t as u16);
        let row_avg = sys.etc().0.row_average(tt).unwrap_or(f64::NAN);
        let _ = writeln!(
            out,
            "  {:>2}  {:<32} row-average ETC {:.1} s",
            t,
            sys.task_type_name(tt),
            row_avg
        );
    }
    options.emit(&out)
}

/// `hetsched figure N`: regenerate one figure's data.
pub fn figure(which: u8, options: &Options) -> Result<(), CliError> {
    match which {
        1 => {
            let mut out = String::from("time_s,utility\n");
            for (t, u) in figures::fig1_curve(200) {
                let _ = writeln!(out, "{t:.2},{u:.4}");
            }
            options.emit(&out)
        }
        2 => {
            let mut out = String::from("label,energy,utility\n");
            for (label, e, u) in figures::fig2_points() {
                let _ = writeln!(out, "{label},{e},{u}");
            }
            options.emit(&out)
        }
        3 | 4 | 6 => {
            let result = match which {
                3 => figures::fig3(options.scale),
                4 => figures::fig4(options.scale),
                _ => figures::fig6(options.scale),
            };
            let (_, series) = result?;
            let rendered = if options.json {
                series_to_json(&series)?
            } else {
                series_to_csv(&series)
            };
            // When writing to a file, also drop a gnuplot script next to it
            // so `gnuplot figN.gp` reproduces the subplot layout directly.
            if let Some(path) = &options.out {
                let gp = hetsched_analysis::export::gnuplot_script(
                    &series,
                    path,
                    &format!("figure{which}"),
                );
                let gp_path = format!("{path}.gp");
                std::fs::write(&gp_path, gp).map_err(|e| CliError::io(&gp_path, e))?;
            }
            options.emit(&rendered)
        }
        5 => {
            let (report, _) = figures::fig4(options.scale)?;
            let data = figures::fig5(&report)
                .ok_or_else(|| CliError::Failed("figure 5: empty front".into()))?;
            let mut out = String::from("subplot,x,y\n");
            for (e, u) in &data.front {
                let _ = writeln!(out, "A,{:.6},{:.6}", e / 1.0e6, u);
            }
            for (u, upe) in &data.upe_vs_utility {
                let _ = writeln!(out, "B,{u:.6},{upe:.9}");
            }
            for (e, upe) in &data.upe_vs_energy {
                let _ = writeln!(out, "C,{:.6},{:.9}", e / 1.0e6, upe);
            }
            let _ = writeln!(out, "peak,{:.6},{:.6}", data.peak.1 / 1.0e6, data.peak.0);
            options.emit(&out)
        }
        other => Err(CliError::Usage(format!(
            "unknown figure {other} (valid: 1-6)"
        ))),
    }
}

/// `hetsched run`: full multi-population experiment; prints a per-seed
/// summary plus the combined front and its UPE peak.
///
/// With `--replicates` or `--manifest` the experiment runs as a
/// [`Campaign`]: one cell per (replicate, seed kind), executed in
/// parallel, checkpointed to the manifest (when given) so a killed run
/// resumes where it left off.
pub fn run_experiment(options: &Options) -> Result<(), CliError> {
    if options.online {
        return run_online_stream(options);
    }
    if options.horizon.is_some() || options.arrivals.is_some() {
        return Err(CliError::Usage(
            "--horizon/--arrivals require --online".into(),
        ));
    }
    if options.replicates.is_some() || options.manifest.is_some() {
        return run_campaign(options);
    }
    if options.heartbeat_out.is_some() || options.telemetry_out.is_some() {
        return Err(CliError::Usage(
            "--heartbeat-out/--telemetry-out require a campaign \
             (add --replicates or --manifest)"
                .into(),
        ));
    }
    if options.cell_timeout.is_some() {
        return Err(CliError::Usage(
            "--cell-timeout requires a campaign (add --replicates or --manifest)".into(),
        ));
    }
    let cfg = config_from(options);
    let fw = Framework::new(&cfg)?;
    let journal = match &options.metrics_out {
        Some(path) => {
            Some(hetsched_core::RunJournal::create(path).map_err(|e| CliError::io(path, e))?)
        }
        None => None,
    };
    let report = fw.run_with_journal(journal.as_ref());
    let mut out = String::new();
    let _ = writeln!(
        out,
        "data set {} — {} tasks, population {}, snapshots {:?}, engine {}",
        options.set,
        fw.config().tasks,
        fw.config().population,
        fw.config().snapshots,
        fw.config().algorithm
    );
    summarise_report(&mut out, &report)?;
    options.emit(&out)
}

/// The `--online` arm of `hetsched run`: a rolling-horizon stream. A
/// seeded arrival process feeds a [`hetsched_core::StreamRunner`]; every
/// `--horizon` seconds the pending window is re-optimized — by the
/// configured engine warm-started from the previous front (default), or
/// by a per-arrival `--policy` — and the committed schedule is printed
/// per tick. `--manifest PATH` makes the stream durable: feeds and
/// commits are journalled, and rerunning the same command resumes
/// mid-stream instead of starting over.
fn run_online_stream(options: &Options) -> Result<(), CliError> {
    use hetsched_core::{EngineStreamSpec, OptimizerSpec, StreamConfig, StreamRunner};
    use hetsched_sim::HorizonConfig;
    use hetsched_workload::{ArrivalSpec, ArrivalStream, TufPolicy};

    if options.replicates.is_some() {
        return Err(CliError::Usage(
            "--replicates is not supported with --online".into(),
        ));
    }
    let Some(arrivals_spec) = &options.arrivals else {
        return Err(CliError::Usage(
            "--online requires --arrivals (e.g. --arrivals poisson:2.5)".into(),
        ));
    };
    let spec: ArrivalSpec = arrivals_spec
        .parse()
        .map_err(|e| CliError::Usage(format!("--arrivals: {e}")))?;
    let cfg = config_from(options);
    let fw = Framework::new(&cfg)?;
    let system = fw.system().clone();
    let horizon = HorizonConfig {
        horizon: options.horizon.unwrap_or(60.0),
        energy_budget: options.energy_budget.unwrap_or(f64::INFINITY),
    };
    let optimizer = match options.policy {
        Some(policy) => OptimizerSpec::Policy(policy),
        None => OptimizerSpec::Engine(EngineStreamSpec {
            engine: hetsched_core::EngineConfig::builder()
                .algorithm(cfg.algorithm)
                .population(cfg.population)
                .mutation_rate(cfg.mutation_rate)
                .generations(cfg.generations())
                .parallel(cfg.parallel)
                .build()
                .map_err(|e| CliError::Failed(format!("engine config: {e}")))?,
            seed_kind: SeedKind::MinMinCompletionTime,
            rng_seed: cfg.rng_seed,
            stream: 0,
            warm_start: !options.cold_start,
        }),
    };
    let stream_config = StreamConfig { horizon, optimizer };
    let mut runner = match &options.manifest {
        Some(path) => StreamRunner::resume(system, stream_config, path)?,
        None => StreamRunner::new(system, stream_config)?,
    };
    if let Some(path) = &options.metrics_out {
        let journal = hetsched_core::RunJournal::create(path).map_err(|e| CliError::io(path, e))?;
        runner = runner.with_journal(journal);
    }
    let mut arrivals = ArrivalStream::new(
        spec,
        cfg.rng_seed,
        runner.system().task_type_count(),
        TufPolicy::essc_default(),
    );
    let resumed_at = runner.scheduler().ticks();
    let records = runner.drive(&mut arrivals, cfg.duration)?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "streaming run: {} over {:.0}s, horizon {:.0}s, {}{}",
        arrivals_spec,
        cfg.duration,
        runner.config().horizon.horizon,
        runner.header().optimizer,
        if resumed_at > 0 {
            format!(" (resumed at tick {resumed_at})")
        } else {
            String::new()
        }
    );
    let _ = writeln!(
        out,
        "tick,now_s,tasks,frozen,rejected,utility,energy_megajoules,makespan_s"
    );
    for r in &records {
        let _ = writeln!(
            out,
            "{},{:.2},{},{},{},{:.3},{:.6},{:.2}",
            r.tick,
            r.now,
            r.tasks,
            r.frozen,
            r.rejected.len(),
            r.utility,
            r.energy / 1e6,
            r.makespan
        );
    }
    let sched = runner.scheduler();
    if let Some(last) = sched.records().last() {
        let _ = writeln!(
            out,
            "committed: {} tasks ({} rejected), utility {:.3}, energy {:.6} MJ, \
             throughput {:.2} tasks/s",
            last.tasks,
            sched.rejected().len(),
            last.utility,
            last.energy / 1e6,
            last.tasks as f64 / sched.now().max(f64::MIN_POSITIVE)
        );
    }
    options.emit(&out)
}

/// Telemetry wiring shared by the campaign arm of `run` and by `work`:
/// one shared registry takes the campaign's events; its heartbeat
/// appends progress lines (a ticker keeps them coming while cells run)
/// and the registry is exported as Prometheus text after the run.
fn campaign_telemetry(options: &Options) -> Result<Option<Arc<MetricsRegistry>>, CliError> {
    match (&options.heartbeat_out, &options.telemetry_out) {
        (None, None) => Ok(None),
        (heartbeat_out, _) => {
            let mut registry = MetricsRegistry::new();
            if let Some(path) = heartbeat_out {
                let every = Duration::from_secs_f64(options.heartbeat_every);
                let heartbeat =
                    Heartbeat::create(path, every).map_err(|e| CliError::io(path, e))?;
                registry = registry.with_heartbeat(heartbeat);
            }
            Ok(Some(Arc::new(registry)))
        }
    }
}

/// `--reports-out`: the replicate reports as one canonical JSON array.
/// Reports are assembled purely from the manifest's population runs —
/// never from worker identity, lease epochs, or timings — so every
/// process that merged the same campaign writes identical bytes. The CI
/// distributed-smoke job `cmp`s these files to prove the merge.
fn write_reports(path: &str, reports: &[hetsched_core::CampaignReport]) -> Result<(), CliError> {
    let json = serde_json::to_string(reports)
        .map_err(|e| CliError::Failed(format!("serialising reports: {e}")))?;
    hetsched_core::durable_write(path, json).map_err(|e| CliError::io(path, e))
}

/// The `--replicates`/`--manifest` arm of `hetsched run`.
fn run_campaign(options: &Options) -> Result<(), CliError> {
    if options.metrics_out.is_some() {
        return Err(CliError::Usage(
            "--metrics-out is not supported together with --replicates/--manifest".into(),
        ));
    }
    campaign_command(options, |campaign| {
        let outcome = campaign.run(options.manifest.as_deref().map(Path::new))?;
        let spec = campaign.spec();
        let header = format!(
            "campaign: data set {}, engine {}, {} replicate(s) × {} seed(s) — \
             {} executed, {} replayed from manifest",
            options.set,
            spec.base.algorithm,
            spec.replicates,
            spec.base.seeds.len(),
            outcome.executed,
            outcome.replayed
        );
        Ok((header, outcome))
    })
}

/// Default `hetsched work` identity: `host:pid`. The hostname
/// distinguishes machines sharing a manifest over a network filesystem;
/// the pid distinguishes workers on one machine.
fn default_worker_id() -> String {
    let host = std::env::var("HOSTNAME")
        .ok()
        .or_else(|| std::fs::read_to_string("/proc/sys/kernel/hostname").ok())
        .map(|h| h.trim().to_string())
        .filter(|h| !h.is_empty())
        .unwrap_or_else(|| "host".to_string());
    format!("{host}:{}", std::process::id())
}

/// `hetsched work`: join a campaign as one worker process. Workers
/// coordinate purely through the shared `--manifest` file: each leases
/// an unowned (or expired) cell, runs it through the same executor as
/// `run`, appends the result under its lease epoch, and releases.
/// Start any number of workers concurrently, or late as failover
/// replacements — every one of them merges the manifest to the same
/// byte-identical reports a single-process `run` would produce.
pub fn work(options: &Options) -> Result<(), CliError> {
    let Some(manifest) = &options.manifest else {
        return Err(CliError::Usage(
            "work requires --manifest PATH (the shared campaign manifest)".into(),
        ));
    };
    if options.online {
        return Err(CliError::Usage(
            "--online is not supported with work".into(),
        ));
    }
    if options.metrics_out.is_some() {
        return Err(CliError::Usage(
            "--metrics-out is not supported with work".into(),
        ));
    }
    campaign_command(options, |campaign| {
        let engine = campaign.spec().base.algorithm;
        let worker_id = options.worker_id.clone().unwrap_or_else(default_worker_id);
        let mut worker = hetsched_core::Worker::new(campaign, &worker_id);
        if let Some(ttl) = options.lease_ttl {
            worker = worker.lease_ttl(Duration::from_secs_f64(ttl));
        }
        let outcome = worker.run(Path::new(manifest))?;
        let header = format!(
            "worker {worker_id}: data set {}, engine {engine} — {} cell(s) executed \
             ({} stolen), {} fenced, {} merged from peers",
            options.set, outcome.executed, outcome.stolen, outcome.fenced, outcome.outcome.replayed
        );
        Ok((header, outcome.outcome))
    })
}

/// The body `run --replicates/--manifest` and `work` share. `execute`
/// runs the campaign and returns the header line plus the outcome; around
/// it sit the campaign build, the telemetry wiring (a heartbeat ticker
/// while cells run, the Prometheus export after), the report and failure
/// summary, `--reports-out`, and the incomplete-campaign error.
///
/// Both commands must build the campaign identically: its fingerprint is
/// derived from the spec, and a worker whose spec differs from the
/// manifest owner's is refused.
fn campaign_command(
    options: &Options,
    execute: impl FnOnce(Campaign) -> Result<(String, CampaignOutcome), CliError>,
) -> Result<(), CliError> {
    let mut spec = CampaignSpec::single(&config_from(options));
    spec.replicates = options.replicates.unwrap_or(1);
    let mut campaign = Campaign::new(spec);
    if let Some(timeout) = options.cell_timeout {
        campaign = campaign.cell_timeout(timeout);
    }
    if options.requeue_quarantined {
        campaign = campaign.requeue_quarantined(true);
    }
    let telemetry = campaign_telemetry(options)?;
    if let Some(registry) = &telemetry {
        campaign = campaign.with_telemetry(Arc::clone(registry));
    }
    let ticker = match &telemetry {
        Some(registry) if options.heartbeat_out.is_some() => {
            Some(HeartbeatTicker::spawn(Arc::clone(registry)))
        }
        _ => None,
    };
    let (header, outcome) = execute(campaign)?;
    drop(ticker);
    if let (Some(registry), Some(path)) = (&telemetry, &options.telemetry_out) {
        hetsched_core::durable_write(path, registry.prometheus())
            .map_err(|e| CliError::io(path, e))?;
    }
    let mut out = String::new();
    let _ = writeln!(out, "{header}");
    for report in &outcome.reports {
        let _ = writeln!(out, "\nreplicate {}:", report.replicate);
        summarise_report(&mut out, &report.report)?;
    }
    for record in &outcome.failed {
        let verdict = match record.outcome {
            hetsched_core::CellOutcome::TimedOut => "TIMED OUT",
            _ => "FAILED",
        };
        let _ = writeln!(
            out,
            "\n{verdict} {} after {} attempt(s): {}",
            record.cell,
            record.attempts,
            record.error.as_deref().unwrap_or("unknown error")
        );
    }
    if let Some(path) = &options.reports_out {
        write_reports(path, &outcome.reports)?;
    }
    options.emit(&out)?;
    if outcome.is_complete() {
        Ok(())
    } else {
        Err(CliError::Failed(format!(
            "campaign incomplete: {} cell(s) failed, {} skipped",
            outcome.failed.len(),
            outcome.skipped.len()
        )))
    }
}

/// Appends the per-seed front table, combined front, and UPE peak of one
/// report to `out` (shared by the plain and campaign arms of `run`).
///
/// # Errors
///
/// [`CliError::Failed`] when a population's final front is empty — a
/// degenerate run the summary cannot describe (and previously a panic).
fn summarise_report(
    out: &mut String,
    report: &hetsched_core::AnalysisReport,
) -> Result<(), CliError> {
    for run in &report.runs {
        let front = run.final_front();
        let (Some(min_e), Some(max_u)) = (front.min_energy(), front.max_utility()) else {
            return Err(CliError::Failed(format!(
                "front is empty for seed {}",
                run.seed.label()
            )));
        };
        let _ = writeln!(
            out,
            "  {:<24} front {:>3} pts   energy [{:.3}, {:.3}] MJ   utility [{:.1}, {:.1}]",
            run.seed.label(),
            front.len(),
            min_e.energy / 1e6,
            max_u.energy / 1e6,
            min_e.utility,
            max_u.utility
        );
    }
    let combined = report.combined_front();
    let _ = writeln!(out, "combined front: {} points", combined.len());
    if let Some(upe) = report.upe() {
        let _ = writeln!(
            out,
            "max utility-per-energy: {:.3} utility/MJ at utility {:.1}, energy {:.3} MJ",
            upe.peak_upe * 1e6,
            upe.peak.utility,
            upe.peak.energy / 1e6
        );
    }
    Ok(())
}

/// `hetsched gantt`: render the Min-Min allocation of the data set as an
/// ASCII Gantt chart (a quick visual sanity check of the simulator).
pub fn gantt(options: &Options) -> Result<(), CliError> {
    let cfg = config_from(options);
    let fw = Framework::new(&cfg)?;
    let alloc = hetsched_heuristics::min_min_completion_time(fw.system(), fw.trace());
    let detailed = hetsched_sim::DetailedOutcome::evaluate(fw.system(), fw.trace(), &alloc)?;
    let mut out = hetsched_sim::render_gantt(fw.system(), &detailed, 80);
    let _ = writeln!(
        out,
        "min-min schedule: utility {:.1}, energy {:.3} MJ, makespan {:.1} s",
        detailed.utility,
        detailed.energy / 1e6,
        detailed.makespan
    );
    options.emit(&out)
}

/// `hetsched online`: sweep energy budgets through the online greedy
/// scheduler (the framework's downstream consumer) and print the
/// utility-vs-budget curve.
pub fn online(options: &Options) -> Result<(), CliError> {
    let cfg = config_from(options);
    let fw = Framework::new(&cfg)?;
    let unconstrained = hetsched_sim::schedule_online(
        fw.system(),
        fw.trace(),
        &hetsched_sim::OnlineConfig::default(),
    );
    let mut out = String::from("budget_fraction,energy_megajoules,utility,accepted,rejected\n");
    for pct in [100u32, 90, 75, 60, 50, 40, 30, 20, 10] {
        let budget = unconstrained.energy * pct as f64 / 100.0;
        let o = hetsched_sim::schedule_online(
            fw.system(),
            fw.trace(),
            &hetsched_sim::OnlineConfig {
                energy_budget: budget,
                drop_threshold: 0.0,
            },
        );
        let _ = writeln!(
            out,
            "{:.2},{:.6},{:.3},{},{}",
            pct as f64 / 100.0,
            o.energy / 1e6,
            o.utility,
            o.accepted,
            o.rejected.len()
        );
    }
    options.emit(&out)
}

/// `hetsched verify-synth`: generate a large synthetic ETC matrix and
/// report how well the §III-D2 pipeline preserved the real data's
/// heterogeneity (moments + Kolmogorov-Smirnov distance of the ratio
/// distributions).
pub fn verify_synth(options: &Options) -> Result<(), CliError> {
    use hetsched_data::{real_etc, TypeMatrix};
    use rand::SeedableRng;
    let n = options.tasks.unwrap_or(500);
    let mut rng = rand::rngs::StdRng::seed_from_u64(options.rng_seed);
    let sys = hetsched_synth::DatasetBuilder::from_real()
        .new_task_types(n)
        .build(&mut rng)?;
    // Synthetic rows only, general columns only.
    let mut synth = TypeMatrix::filled(n, 9, 0.0);
    for t in 0..n {
        for m in 0..9 {
            synth.set(
                TaskTypeId(t as u16),
                MachineTypeId(m as u16),
                sys.etc()
                    .time(TaskTypeId((t + 5) as u16), MachineTypeId(m as u16)),
            );
        }
    }
    let real = real_etc().0;
    let report = hetsched_synth::HeterogeneityReport::compare(&real, &synth)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "heterogeneity preservation report ({n} synthetic task types)"
    );
    let s = &report.source_row_avg;
    let g = &report.generated_row_avg;
    let _ = writeln!(
        out,
        "row averages   real: mean {:.1}  CV {:.3}  skew {:+.3}  kurt {:+.3}",
        s.mean,
        s.coefficient_of_variation(),
        s.skewness,
        s.kurtosis
    );
    let _ = writeln!(
        out,
        "              synth: mean {:.1}  CV {:.3}  skew {:+.3}  kurt {:+.3}",
        g.mean,
        g.coefficient_of_variation(),
        g.skewness,
        g.kurtosis
    );
    let _ = writeln!(
        out,
        "worst per-machine ratio-moment discrepancy: {:.3}",
        report.worst_ratio_discrepancy()
    );
    // KS distance between real and synthetic ratio samples, per machine.
    let real_ratio = hetsched_synth::ratios::ratio_matrix(&real)?;
    let synth_ratio = hetsched_synth::ratios::ratio_matrix(&synth)?;
    let _ = writeln!(out, "per-machine KS distance (real vs synthetic ratios):");
    for m in 0..9u16 {
        let a: Vec<f64> = real_ratio
            .column(MachineTypeId(m))
            .filter(|v| v.is_finite())
            .collect();
        let b: Vec<f64> = synth_ratio
            .column(MachineTypeId(m))
            .filter(|v| v.is_finite())
            .collect();
        let d = hetsched_stats::ks_statistic(&a, &b)?;
        let crit = hetsched_stats::ks_critical_value(a.len(), b.len(), 0.05)?;
        let verdict = if d <= crit { "ok" } else { "differs" };
        let _ = writeln!(
            out,
            "  machine {m}: D = {d:.3} (crit@5% {crit:.3}) {verdict}"
        );
    }
    options.emit(&out)
}

/// `hetsched report`: with a path argument, summarise a finished run
/// without re-running anything — a campaign manifest gets a per-cell
/// status table plus per-population convergence, a run journal gets the
/// per-population convergence and phase-time breakdown. Without a path,
/// run the whole reproduction suite (figures 3-6, the seeding table, and
/// the claim checks) at the given scale and emit a self-contained
/// markdown report.
pub fn report(options: &Options) -> Result<(), CliError> {
    use hetsched_core::suite::verify_dataset;
    if let Some(path) = options.positional.first() {
        let inspection = hetsched_core::inspect_path(Path::new(path))?;
        return options.emit(&inspection.render());
    }
    let mut out = String::new();
    let _ = writeln!(out, "# hetsched reproduction report\n");
    let _ = writeln!(
        out,
        "iteration scale: {} of the paper's schedule; master seed {:#x}\n",
        options.scale, options.rng_seed
    );

    for set in 1..=3u8 {
        let dataset = dataset_id(set);
        let _ = writeln!(out, "## data set {set}\n");
        // Seeding heuristics table.
        let cfg = {
            let mut cfg = ExperimentConfig::scaled(dataset, options.scale);
            cfg.rng_seed = options.rng_seed;
            cfg
        };
        let fw = Framework::new(&cfg)?;
        let mut ev = Evaluator::new(fw.system(), fw.trace());
        let _ = writeln!(out, "| heuristic | utility | energy (MJ) | makespan (s) |");
        let _ = writeln!(out, "|---|---|---|---|");
        for kind in SeedKind::ALL {
            if let Some(alloc) = kind.seeds(fw.system(), fw.trace()).first() {
                let o = ev.evaluate(alloc);
                let _ = writeln!(
                    out,
                    "| {} | {:.1} | {:.3} | {:.1} |",
                    kind.label(),
                    o.utility,
                    o.energy / 1e6,
                    o.makespan
                );
            }
        }
        let _ = writeln!(
            out,
            "| *bounds* | {:.1} | {:.3} | |\n",
            ev.max_possible_utility(),
            ev.min_possible_energy() / 1e6
        );

        // Claim checks (runs the full multi-population experiment).
        let verdict = verify_dataset(dataset, options.scale)?;
        let _ = writeln!(out, "claim checks:\n");
        for c in &verdict.checks {
            let _ = writeln!(
                out,
                "- **{}** {} — {}",
                if c.passed { "pass" } else { "FAIL" },
                c.name,
                c.evidence
            );
        }
        let _ = writeln!(out);
    }
    options.emit(&out)
}

/// `hetsched trace`: summarise a span trace (the JSONL `--trace-out`
/// writes, or a serve job's trace file) without re-running anything:
/// per-phase self-time breakdown, the `--top` slowest cells, the critical
/// path through the longest trace, and wall-clock vs summed cell time.
/// With `--json` the spans are exported as Chrome trace-event JSON
/// instead, loadable in Perfetto or `chrome://tracing`.
pub fn trace(options: &Options) -> Result<(), CliError> {
    let Some(path) = options.positional.first() else {
        return Err(CliError::Usage(
            "trace requires a span-trace path (the JSONL written by --trace-out)".into(),
        ));
    };
    let spans = hetsched_core::read_trace(Path::new(path))?;
    if options.json {
        let chrome = hetsched_core::chrome_trace(&spans);
        options.emit(&serde_json::to_string(&chrome)?)
    } else {
        let analysis = hetsched_core::TraceAnalysis::from_records(&spans, options.top);
        options.emit(&analysis.render())
    }
}

/// `hetsched attain`: run the experiment `--replicates` times (default 5)
/// and print each seed's median attainment curve — the robust across-run
/// view of the trade-off.
pub fn attain(options: &Options) -> Result<(), CliError> {
    let cfg = config_from(options);
    let fw = Framework::new(&cfg)?;
    let replicates = options.replicates.unwrap_or(5);
    let summaries = fw.run_replicated(replicates)?;
    let mut out = String::from("seed,energy_megajoules,median_utility\n");
    for (seed, summary) in &summaries {
        for (e, u) in summary.median_curve(12) {
            let _ = writeln!(
                out,
                "{},{:.6},{}",
                seed.label(),
                e / 1e6,
                u.map(|v| format!("{v:.3}"))
                    .unwrap_or_else(|| "NA".to_string())
            );
        }
    }
    options.emit(&out)
}

/// `hetsched verify`: run the reproduction suite's claim checks for the
/// selected data set at the given scale.
pub fn verify(options: &Options) -> Result<(), CliError> {
    let dataset = dataset_id(options.set);
    let verdict = hetsched_core::verify_dataset(dataset, options.scale)?;
    let mut out = verdict.to_string();
    out.push_str(if verdict.all_passed() {
        "all claims supported\n"
    } else {
        "SOME CLAIMS FAILED\n"
    });
    options.emit(&out)?;
    if verdict.all_passed() {
        Ok(())
    } else {
        Err(CliError::Failed("claim checks failed".into()))
    }
}

/// `hetsched seeds`: evaluate the four greedy heuristics on the data set.
pub fn seeds(options: &Options) -> Result<(), CliError> {
    let cfg = config_from(options);
    let fw = Framework::new(&cfg)?;
    let mut ev = Evaluator::new(fw.system(), fw.trace());
    let mut out = String::from("heuristic,utility,energy_megajoules,makespan_s\n");
    for kind in SeedKind::ALL {
        let seeds = kind.seeds(fw.system(), fw.trace());
        let Some(alloc) = seeds.first() else { continue };
        let o = ev.evaluate(alloc);
        let _ = writeln!(
            out,
            "{},{:.3},{:.6},{:.1}",
            kind.label(),
            o.utility,
            o.energy / 1e6,
            o.makespan
        );
    }
    let _ = writeln!(
        out,
        "bounds,{:.3},{:.6},",
        ev.max_possible_utility(),
        ev.min_possible_energy() / 1e6
    );
    options.emit(&out)
}

/// `hetsched serve`: run the long-lived scheduler daemon until SIGTERM,
/// SIGINT, or ctrl-c. Campaign jobs arrive over HTTP (see the
/// `hetsched-serve` crate docs for the endpoint table) and run on a
/// shared worker pool with per-job manifests under `--state-dir`.
pub fn serve(options: &Options) -> Result<(), CliError> {
    let state_dir = options
        .state_dir
        .clone()
        .unwrap_or_else(|| "hetsched-state".to_string());
    let mut config = hetsched_serve::ServeConfig::new(&state_dir);
    config.workers = options.workers;
    config.cell_timeout = options.cell_timeout;
    let service = hetsched_serve::SchedulerService::start(config)?;
    let server = hetsched_serve::Server::bind(&options.addr)
        .map_err(|e| hetsched_core::CoreError::Io(format!("bind {}: {e}", options.addr)))?;
    let addr = server
        .local_addr()
        .map_err(|e| hetsched_core::CoreError::Io(format!("local addr: {e}")))?;
    // The probe/scrape side parses this line to learn the bound port
    // when --addr used port 0.
    println!(
        "hetsched serve listening on {addr} (state-dir {state_dir}, workers {})",
        options.workers
    );
    let shutdown = hetsched_core::CancelToken::new();
    watch_signals(shutdown.clone());
    server
        .run(&service, &shutdown)
        .map_err(|e| hetsched_core::CoreError::Io(format!("serve loop: {e}")))?;
    eprintln!("hetsched serve: shutting down");
    service.shutdown();
    Ok(())
}

/// Flips the daemon's shutdown token when SIGINT or SIGTERM arrives.
/// The handler only stores into an atomic; a watcher thread does the
/// actual cancellation. Registered through the C `signal` entry point
/// std already links — the workspace is offline, so no libc crate.
#[cfg(unix)]
fn watch_signals(shutdown: hetsched_core::CancelToken) {
    use std::sync::atomic::{AtomicBool, Ordering};

    static REQUESTED: AtomicBool = AtomicBool::new(false);
    extern "C" fn on_signal(_signum: i32) {
        REQUESTED.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }
    std::thread::spawn(move || loop {
        if REQUESTED.load(Ordering::SeqCst) {
            shutdown.cancel();
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    });
}

/// Non-unix builds run until the process is killed externally.
#[cfg(not(unix))]
fn watch_signals(_shutdown: hetsched_core::CancelToken) {}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsched_core::{AnalysisReport, PopulationRun};

    #[test]
    fn summarise_report_fails_cleanly_on_an_empty_front() {
        // A degenerate report whose population produced no front at all
        // used to panic on `min_energy().unwrap()`; it must surface as a
        // runtime failure (exit code 1) instead.
        use hetsched_analysis::ParetoFront;
        let empty: [(f64, f64); 0] = [];
        let report = AnalysisReport {
            runs: vec![PopulationRun {
                seed: SeedKind::Random,
                fronts: vec![(2, ParetoFront::from_points(empty))],
            }],
            snapshots: vec![2],
        };
        let mut out = String::new();
        let err = summarise_report(&mut out, &report).unwrap_err();
        assert_eq!(err.exit_code(), 1);
        assert!(!err.is_usage());
        assert!(
            err.to_string().contains("front is empty for seed random"),
            "{err}"
        );
    }

    #[test]
    fn summarise_report_renders_a_populated_front() {
        use hetsched_analysis::ParetoFront;
        let report = AnalysisReport {
            runs: vec![PopulationRun {
                seed: SeedKind::Random,
                fronts: vec![(2, ParetoFront::from_points([(1.5e6, 10.0), (2.0e6, 20.0)]))],
            }],
            snapshots: vec![2],
        };
        let mut out = String::new();
        summarise_report(&mut out, &report).unwrap();
        assert!(out.contains("random"), "{out}");
        assert!(out.contains("combined front"), "{out}");
    }
}
