//! The three in-process workloads. Each times calls into the library's
//! public API (`Framework`, `figures`, `Campaign`, `Worker`,
//! `LocalManifestStore`) from this process.

use crate::harness::{call, Iteration, Workload};
use crate::reference::digest;
use crate::stats::{median, tail};
use crate::{err, Outcome};
use hetsched_core::{
    figures, load_manifest_records, replay_records, Algorithm, Campaign, CampaignOutcome,
    CampaignSpec, DatasetId, ExperimentConfig, Framework, LocalManifestStore, ManifestRecord,
    ManifestStore, SeedKind, Worker,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Builds a framework for `config` and times it.
fn timed_framework(config: &ExperimentConfig) -> Result<(Framework, f64), String> {
    let started = Instant::now();
    let framework = Framework::new(config).map_err(err)?;
    Ok((framework, started.elapsed().as_secs_f64()))
}

/// The reports of a campaign outcome in their byte-stable wire form.
fn reports_json(outcome: &CampaignOutcome) -> String {
    serde_json::to_string(&outcome.reports).expect("reports serialise")
}

/// The paper's headline Fig. 4/5 experiment: data set 2 (1000 tasks, 30
/// machines), population 100, all five seed kinds, snapshots
/// [1, 3, 30, 300]. One iteration is `Framework::run` then
/// `figures::fig5` on its report.
///
/// Evaluation is serial: the five populations already run in parallel,
/// and on a two-core host per-batch evaluator threads on top bought no
/// speed but doubled the slowdown when one core was contended (identical
/// fronts either way).
pub struct PaperDs2 {
    framework: Framework,
}

impl Workload for PaperDs2 {
    const NAME: &'static str = "paper-ds2";

    fn setup(seed: u64, _scratch: &Path) -> Result<(Self, f64), String> {
        let mut config = ExperimentConfig::scaled(DatasetId::Two, 3e-4);
        config.rng_seed = seed;
        config.parallel = false;
        let (framework, fw_s) = timed_framework(&config)?;
        Ok((PaperDs2 { framework }, fw_s))
    }

    fn iterate(&mut self, _traced: bool) -> Iteration {
        let started = Instant::now();
        let report = call("call.Framework::run", || self.framework.run());
        let fig_started = Instant::now();
        let fig5 = call("call.figures::fig5", || figures::fig5(&report));
        let fig5_s = fig_started.elapsed().as_secs_f64();
        let time_s = started.elapsed().as_secs_f64();
        call("bench.check", || {
            let mut it = Iteration {
                ops: 2,
                phases_s: vec![time_s],
                ..Iteration::default()
            };
            if fig5.is_none() {
                it.failures.push("figures::fig5 found no front".into());
            }
            let report_json = serde_json::to_string(&report).expect("report serialises");
            it.digest = digest(&[report_json.as_bytes(), format!("{fig5:?}").as_bytes()]);
            it.samples.push(("analysis.fig5_us", fig5_s * 1e6));
            it
        })
    }
}

/// An 8-cell NSGA-II campaign with a wide front: data set 1, 50 tasks,
/// population 400, snapshots [10, 100], seeds {MinEnergy, Random} × 4
/// replicates, serial evaluation. The shape where non-dominated sorting
/// is about half the time.
pub struct WideFront {
    spec: CampaignSpec,
}

impl Workload for WideFront {
    const NAME: &'static str = "wide-front";

    fn setup(seed: u64, _scratch: &Path) -> Result<(Self, f64), String> {
        let base = ExperimentConfig::builder(DatasetId::One)
            .tasks(50)
            .population(400)
            .snapshots(vec![10, 100])
            .seeds(vec![SeedKind::MinEnergy, SeedKind::Random])
            .rng_seed(seed)
            .parallel(false)
            .build()
            .map_err(err)?;
        let (_, fw_s) = timed_framework(&base)?;
        let spec = CampaignSpec::builder(base)
            .replicates(4)
            .build()
            .map_err(err)?;
        Ok((WideFront { spec }, fw_s))
    }

    fn iterate(&mut self, _traced: bool) -> Iteration {
        let started = Instant::now();
        let outcome = call("call.Campaign::run", || {
            Campaign::new(self.spec.clone()).run(None)
        });
        let time_s = started.elapsed().as_secs_f64();
        call("bench.check", || {
            let mut it = Iteration {
                ops: 1,
                phases_s: vec![time_s],
                ..Iteration::default()
            };
            match outcome {
                Ok(outcome) => {
                    if !outcome.is_complete() || outcome.executed != 8 {
                        it.failures.push(format!(
                            "campaign incomplete: {} executed, {} failed, {} skipped",
                            outcome.executed,
                            outcome.failed.len(),
                            outcome.skipped.len()
                        ));
                    }
                    it.digest = digest(&[reports_json(&outcome).as_bytes()]);
                }
                Err(e) => it.failures.push(format!("Campaign::run: {e}")),
            }
            it
        })
    }
}

/// A 60-cell grid ({NSGA-II, MOEA/D, SPEA2} × 5 seed kinds × 4
/// replicates, 30 tasks, population 12, snapshots [5, 20]) whose cells
/// take about a millisecond each, so orchestration and the manifest do
/// the work. One iteration runs (a) a fresh `Campaign::run` with a
/// manifest, (b) a resume from a copy of that manifest cut to its header
/// and 30 records, and (c) two `Worker::run`s on two threads racing for
/// a fresh manifest.
pub struct CampaignIo {
    spec: CampaignSpec,
    dir: PathBuf,
}

/// Cells in the campaign-io grid, and how many the resume replays.
const GRID_CELLS: usize = 60;
const RESUME_KEEP: usize = 30;

impl Workload for CampaignIo {
    const NAME: &'static str = "campaign-io";

    fn setup(seed: u64, scratch: &Path) -> Result<(Self, f64), String> {
        let base = ExperimentConfig::builder(DatasetId::One)
            .tasks(30)
            .population(12)
            .snapshots(vec![5, 20])
            .rng_seed(seed)
            .build()
            .map_err(err)?;
        let (_, fw_s) = timed_framework(&base)?;
        let spec = CampaignSpec::builder(base)
            .algorithms(Algorithm::ALL.to_vec())
            .replicates(4)
            .build()
            .map_err(err)?;
        let dir = scratch.to_path_buf();
        Ok((CampaignIo { spec, dir }, fw_s))
    }

    fn iterate(&mut self, traced: bool) -> Iteration {
        let fresh = self.dir.join("fresh.manifest.jsonl");
        let resumed = self.dir.join("resume.manifest.jsonl");
        let shared = self.dir.join("workers.manifest.jsonl");
        let mut it = Iteration {
            ops: 4,
            ..Iteration::default()
        };
        call("bench.prepare", || {
            for path in [&fresh, &resumed, &shared] {
                let _ = std::fs::remove_file(path);
            }
        });

        // (a) A fresh campaign writing its manifest.
        let started = Instant::now();
        let a = call("call.Campaign::run", || {
            Campaign::new(self.spec.clone()).run(Some(&fresh))
        });
        let fresh_s = started.elapsed().as_secs_f64();

        // (b) Resume from the header plus the first RESUME_KEEP records.
        if let Err(e) = call("bench.cut", || cut_manifest(&fresh, &resumed, RESUME_KEEP)) {
            it.failures.push(e);
        }
        let started = Instant::now();
        let b = call("call.Campaign::run", || {
            Campaign::new(self.spec.clone()).run(Some(&resumed))
        });
        let resume_s = started.elapsed().as_secs_f64();

        // (c) Two workers on two threads racing for one fresh manifest.
        let started = Instant::now();
        let workers: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|k| {
                    let (spec, shared) = (self.spec.clone(), &shared);
                    scope.spawn(move || {
                        call("call.Worker::run", || {
                            Worker::new(Campaign::new(spec), format!("w{k}")).run(shared)
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker thread does not panic"))
                .collect()
        });
        let lease_s = started.elapsed().as_secs_f64();
        it.phases_s = vec![fresh_s, resume_s, lease_s];

        call("bench.check", || {
            let mut digests = Vec::new();
            let mut phase = |name: &str,
                             outcome: &Result<CampaignOutcome, hetsched_core::Error>,
                             executed: usize,
                             replayed: usize| match outcome {
                Ok(o) => {
                    if !o.is_complete() || o.executed != executed || o.replayed != replayed {
                        it.failures.push(format!(
                            "{name}: {} executed / {} replayed (expected {executed} / \
                             {replayed}), {} failed, {} skipped",
                            o.executed,
                            o.replayed,
                            o.failed.len(),
                            o.skipped.len()
                        ));
                    }
                    digests.push(digest(&[reports_json(o).as_bytes()]));
                }
                Err(e) => it.failures.push(format!("{name}: {e}")),
            };
            phase("fresh run", &a, GRID_CELLS, 0);
            phase("resume", &b, GRID_CELLS - RESUME_KEEP, RESUME_KEEP);
            let mut executed = 0;
            let (mut stolen, mut fenced) = (0, 0);
            for (k, w) in workers.iter().enumerate() {
                match w {
                    Ok(w) => {
                        executed += w.executed;
                        stolen += w.stolen;
                        fenced += w.fenced;
                        if !w.outcome.is_complete() {
                            it.failures
                                .push(format!("worker w{k}: merged outcome incomplete"));
                        }
                        digests.push(digest(&[reports_json(&w.outcome).as_bytes()]));
                    }
                    Err(e) => it.failures.push(format!("worker w{k}: {e}")),
                }
            }
            if executed != GRID_CELLS {
                it.failures.push(format!(
                    "workers executed {executed} cells, expected {GRID_CELLS}"
                ));
            }
            // A clean run never steals or fences: either is a failed op.
            if stolen + fenced > 0 {
                it.failures.push(format!(
                    "clean worker race stole {stolen} and fenced {fenced} leases"
                ));
            }
            if digests.windows(2).any(|w| w[0] != w[1]) {
                it.failures.push(format!(
                    "fresh, resumed and worker reports differ: {digests:?}"
                ));
            }
            it.digest = digests.first().cloned().unwrap_or_default();
            if traced {
                it.samples.push(("phase.fresh_ms", fresh_s * 1e3));
                it.samples.push(("phase.resume_ms", resume_s * 1e3));
                it.samples.push(("phase.lease_run_ms", lease_s * 1e3));
                it.samples.push(("core.lease.stolen", stolen as f64));
                it.samples.push(("core.lease.fenced", fenced as f64));
                let bytes = [&fresh, &shared]
                    .iter()
                    .filter_map(|p| std::fs::metadata(p).ok())
                    .map(|m| m.len())
                    .sum::<u64>();
                it.samples.push(("core.manifest.bytes", bytes as f64));
            }
        });
        if traced {
            if let Err(e) = self.probe_manifest(&fresh, &shared, &mut it) {
                it.failures.push(e);
            }
        }
        it
    }

    fn layer_metrics(pooled: &BTreeMap<&'static str, Vec<f64>>, out: &mut Outcome) {
        for (&name, values) in pooled {
            if name == "core.manifest.append_us" {
                out.metrics
                    .insert("core.manifest.append_us_p50", median(values).unwrap_or(0.0));
                if let Some(t) = tail(values) {
                    out.metrics.insert("core.manifest.append_us_tail", t.value);
                    out.samples
                        .insert("core.manifest.append_us_tail", t.samples);
                }
                out.samples
                    .insert("core.manifest.append_us_p50", values.len());
            } else {
                out.metrics
                    .insert(name, values.iter().sum::<f64>() / values.len() as f64);
            }
        }
    }
}

impl CampaignIo {
    /// The manifest layer on its own, traced iterations only: the
    /// iteration's cell records re-appended one by one (fsync each) into
    /// a fresh file, and the finished solo and worker manifests read back
    /// and replayed.
    fn probe_manifest(
        &self,
        fresh: &Path,
        shared: &Path,
        it: &mut Iteration,
    ) -> Result<(), String> {
        let Some((fingerprint, records)) = load_manifest_records(fresh).map_err(err)? else {
            return Err("fresh manifest is empty".into());
        };
        let probe = self.dir.join("append-probe.manifest.jsonl");
        let _ = std::fs::remove_file(&probe);
        call("call.LocalManifestStore::append_cell", || {
            let store = LocalManifestStore::open(&probe, &fingerprint, 1).map_err(err)?;
            for record in &records {
                if let ManifestRecord::Cell(cell) = record {
                    let started = Instant::now();
                    store.append_cell(cell).map_err(err)?;
                    it.samples.push((
                        "core.manifest.append_us",
                        started.elapsed().as_secs_f64() * 1e6,
                    ));
                }
            }
            Ok::<(), String>(())
        })?;
        let started = Instant::now();
        call("call.load_manifest_records", || {
            for path in [fresh, shared] {
                let (_, records) = load_manifest_records(path)
                    .map_err(err)?
                    .ok_or_else(|| format!("{} is empty", path.display()))?;
                let view = replay_records(&records);
                if view.cells.len() < GRID_CELLS {
                    return Err(format!(
                        "{}: replay kept {} of {GRID_CELLS} cells",
                        path.display(),
                        view.cells.len()
                    ));
                }
            }
            Ok(())
        })?;
        it.samples.push((
            "core.manifest.tail_ms",
            started.elapsed().as_secs_f64() * 1e3,
        ));
        Ok(())
    }
}

/// Copies the manifest header plus its first `keep` records — a campaign
/// killed after `keep` cells.
fn cut_manifest(from: &Path, to: &Path, keep: usize) -> Result<(), String> {
    let text = std::fs::read_to_string(from).map_err(err)?;
    let lines: Vec<&str> = text.lines().collect();
    if lines.len() < keep + 1 {
        return Err(format!(
            "{} has {} lines, fewer than a header and {keep} records",
            from.display(),
            lines.len()
        ));
    }
    let mut cut = lines[..=keep].join("\n");
    cut.push('\n');
    std::fs::write(to, cut).map_err(err)
}
