//! Post-hoc inspection of run artifacts: reads a campaign manifest or a
//! run journal back and summarises convergence per population/cell —
//! the analysis half of the paper's workflow (`hetsched report`),
//! operating purely on the JSONL files without re-running anything.
//!
//! Two sources, one summary shape:
//!
//! * a **run journal** ([`RunJournal`]) has the full per-generation
//!   trajectory, so its summaries carry exact hypervolume convergence,
//!   evaluation totals, and the phase-time breakdown;
//! * a **campaign manifest** ([`load_manifest`]) has each cell's
//!   snapshot fronts and retry/duration bookkeeping, so its summaries
//!   carry per-cell status plus convergence at snapshot resolution
//!   (hypervolume recomputed against a reference shared by every cell,
//!   exactly like [`AnalysisReport::hypervolume_table`]).
//!
//! [`AnalysisReport::hypervolume_table`]: crate::report::AnalysisReport::hypervolume_table

use crate::campaign::{CellOutcome, CellRecord};
use crate::journal::{JournalRecord, RunJournal};
use crate::jsonl;
use crate::manifest::{load_manifest_records, replay_records, ManifestView};
use crate::{CoreError, Result};
use hetsched_moea::observe::GenerationStats;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::path::Path;

/// Hypervolume fraction of the peak that counts as "converged" for the
/// generations-to-95%-of-peak statistic.
const CONVERGED_FRACTION: f64 = 0.95;

/// Convergence statistics of one population's hypervolume trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceSummary {
    /// Population label (journal) or cell id (manifest).
    pub label: String,
    /// Generations (journal) or final snapshot iteration (manifest)
    /// covered by the trajectory.
    pub generations: usize,
    /// Hypervolume of the last point in the trajectory.
    pub final_hv: Option<f64>,
    /// Best hypervolume anywhere in the trajectory.
    pub peak_hv: Option<f64>,
    /// First generation whose hypervolume reached
    /// [`CONVERGED_FRACTION`] of the peak.
    pub gens_to_95pct_peak: Option<usize>,
    /// Last generation that set a strictly new peak — after this point
    /// the population stagnated.
    pub stagnation_generation: Option<usize>,
    /// Total fitness evaluations (0 when the source doesn't record
    /// them, i.e. manifests).
    pub evaluations: usize,
    /// Wall-clock spent in mating (journal sources only).
    pub mating_s: f64,
    /// Wall-clock spent in evaluation (journal sources only).
    pub evaluation_s: f64,
    /// Wall-clock spent in sorting/selection (journal sources only).
    pub sorting_s: f64,
}

/// Derives the convergence statistics from `(generation, hypervolume)`
/// points, ascending in generation.
fn convergence(label: String, trajectory: &[(usize, Option<f64>)]) -> ConvergenceSummary {
    let generations = trajectory.last().map_or(0, |(g, _)| *g);
    let final_hv = trajectory.last().and_then(|(_, hv)| *hv);
    let mut peak_hv: Option<f64> = None;
    let mut stagnation_generation = None;
    for &(generation, hv) in trajectory {
        if let Some(hv) = hv {
            if peak_hv.is_none_or(|peak| hv > peak) {
                peak_hv = Some(hv);
                stagnation_generation = Some(generation);
            }
        }
    }
    let gens_to_95pct_peak = peak_hv.and_then(|peak| {
        trajectory
            .iter()
            .find(|(_, hv)| hv.is_some_and(|hv| hv >= CONVERGED_FRACTION * peak))
            .map(|(g, _)| *g)
    });
    ConvergenceSummary {
        label,
        generations,
        final_hv,
        peak_hv,
        gens_to_95pct_peak,
        stagnation_generation,
        evaluations: 0,
        mating_s: 0.0,
        evaluation_s: 0.0,
        sorting_s: 0.0,
    }
}

/// What [`summarise_journal`] produces: one convergence row per
/// population stream, in first-appearance order.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalSummary {
    /// Per-population convergence, with exact evaluation and phase-time
    /// totals.
    pub populations: Vec<ConvergenceSummary>,
}

/// Groups journal records by (population, stream) and summarises each
/// trajectory. Records arrive interleaved (populations run in
/// parallel), so grouping keys on the record fields, not on order.
pub fn summarise_journal(records: &[JournalRecord]) -> JournalSummary {
    let mut groups: Vec<((&str, u64), Vec<&GenerationStats>)> = Vec::new();
    for record in records {
        let key = (record.population.as_str(), record.stream);
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, stats)) => stats.push(&record.stats),
            None => groups.push((key, vec![&record.stats])),
        }
    }
    let populations = groups
        .into_iter()
        .map(|((population, stream), mut stats)| {
            stats.sort_by_key(|s| s.generation);
            let trajectory: Vec<(usize, Option<f64>)> = stats
                .iter()
                .map(|s| (s.generation, s.hypervolume))
                .collect();
            let mut summary = convergence(format!("{population}/s{stream}"), &trajectory);
            summary.evaluations = stats.iter().map(|s| s.evaluations).sum();
            summary.mating_s = stats.iter().map(|s| s.timings.mating_s).sum();
            summary.evaluation_s = stats.iter().map(|s| s.timings.evaluation_s).sum();
            summary.sorting_s = stats.iter().map(|s| s.timings.sorting_s).sum();
            summary
        })
        .collect();
    JournalSummary { populations }
}

/// A cell's outcome, read off its manifest record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellStatus {
    /// Succeeded on the first attempt.
    Done,
    /// Succeeded after at least one retry.
    Retried,
    /// An attempt exceeded the campaign's cell timeout (quarantined).
    TimedOut,
    /// Exhausted its attempt budget (quarantined).
    Poisoned,
}

impl CellStatus {
    fn of(record: &CellRecord) -> Self {
        match (record.outcome, record.attempts) {
            (CellOutcome::Ok, 1) => CellStatus::Done,
            (CellOutcome::Ok, _) => CellStatus::Retried,
            (CellOutcome::TimedOut, _) => CellStatus::TimedOut,
            (CellOutcome::Poisoned, _) => CellStatus::Poisoned,
        }
    }

    /// Whether the cell delivered a population.
    fn succeeded(self) -> bool {
        matches!(self, CellStatus::Done | CellStatus::Retried)
    }

    fn label(self) -> &'static str {
        match self {
            CellStatus::Done => "done",
            CellStatus::Retried => "retried",
            CellStatus::TimedOut => "timeout",
            CellStatus::Poisoned => "poisoned",
        }
    }
}

/// One row of the per-cell table.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSummary {
    /// The cell's id, rendered (`dataset/algorithm/seed/replicate`).
    pub cell: String,
    /// Outcome classification.
    pub status: CellStatus,
    /// Attempts the cell took.
    pub attempts: usize,
    /// Wall-clock seconds, all attempts included.
    pub duration_s: f64,
    /// The last error, for failed cells.
    pub error: Option<String>,
    /// Worker that appended the record (distributed campaigns only).
    pub worker: Option<String>,
}

/// One worker's contribution, computed purely from the manifest (cell
/// records it appended plus the replayed lease state machine). Also the
/// wire shape of the serve daemon's per-worker view.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerSummary {
    /// The worker's id.
    pub worker: String,
    /// Surviving cell records this worker appended.
    pub cells: usize,
    /// Leases this worker stole from expired holders.
    pub stolen: usize,
    /// Appends of this worker rejected by epoch fencing.
    pub fenced: usize,
    /// Wall-clock summed over this worker's surviving cells.
    pub wall_clock_s: f64,
}

/// What [`summarise_manifest`] produces.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestSummary {
    /// Fingerprint of the campaign that owns the manifest.
    pub fingerprint: String,
    /// Per-cell status/duration/retry table, in manifest order.
    pub cells: Vec<CellSummary>,
    /// Per-worker rollup (empty for single-process manifests, whose
    /// records carry no worker tag).
    pub workers: Vec<WorkerSummary>,
    /// Per-cell convergence over snapshot fronts, successful cells only.
    pub populations: Vec<ConvergenceSummary>,
}

/// Summarises a merged manifest view: the cell table (with the worker
/// that ran each cell, for distributed campaigns), a per-worker rollup,
/// and snapshot-resolution convergence with hypervolume computed against
/// a reference shared by every front of every cell (the report-wide
/// worst corner), so rows are comparable.
pub fn summarise_manifest(fingerprint: String, view: &ManifestView) -> ManifestSummary {
    let records: &[CellRecord] = &view.cells;
    let cells: Vec<CellSummary> = records
        .iter()
        .map(|r| CellSummary {
            cell: r.cell.to_string(),
            status: CellStatus::of(r),
            attempts: r.attempts,
            duration_s: r.duration_s,
            error: r.error.clone(),
            worker: r.worker.clone(),
        })
        .collect();

    // Per-worker rollup, in first-appearance order (cell records first,
    // then workers known only from lease/fencing traffic).
    let mut workers: Vec<WorkerSummary> = Vec::new();
    fn rollup(workers: &mut Vec<WorkerSummary>, worker: &str) -> usize {
        match workers.iter().position(|w| w.worker == worker) {
            Some(i) => i,
            None => {
                workers.push(WorkerSummary {
                    worker: worker.to_string(),
                    cells: 0,
                    stolen: 0,
                    fenced: 0,
                    wall_clock_s: 0.0,
                });
                workers.len() - 1
            }
        }
    }
    for record in records {
        if let Some(worker) = &record.worker {
            let i = rollup(&mut workers, worker);
            workers[i].cells += 1;
            workers[i].wall_clock_s += record.duration_s;
        }
    }
    let mut stealers: Vec<(&String, &usize)> = view.leases.steals().iter().collect();
    stealers.sort_unstable();
    for (worker, stolen) in stealers {
        let i = rollup(&mut workers, worker);
        workers[i].stolen = *stolen;
    }
    let mut fenced_workers: Vec<(&String, &usize)> = view.fenced.iter().collect();
    fenced_workers.sort_unstable();
    for (worker, fenced) in fenced_workers {
        let i = rollup(&mut workers, worker);
        workers[i].fenced = *fenced;
    }

    // Shared reference: min utility and max energy over all fronts.
    let mut ref_u = f64::INFINITY;
    let mut ref_e = f64::NEG_INFINITY;
    for record in records {
        for (_, front) in record.run.iter().flat_map(|run| &run.fronts) {
            for p in front.points() {
                ref_u = ref_u.min(p.utility);
                ref_e = ref_e.max(p.energy);
            }
        }
    }
    let populations = records
        .iter()
        .filter_map(|record| {
            let run = record.run.as_ref()?;
            let trajectory: Vec<(usize, Option<f64>)> = run
                .fronts
                .iter()
                .map(|(iterations, front)| {
                    (
                        *iterations,
                        Some(hetsched_analysis::hypervolume(front, ref_u, ref_e)),
                    )
                })
                .collect();
            Some(convergence(record.cell.to_string(), &trajectory))
        })
        .collect();
    ManifestSummary {
        fingerprint,
        cells,
        workers,
        populations,
    }
}

/// A summarised artifact, whichever kind the file turned out to be.
#[derive(Debug, Clone, PartialEq)]
pub enum Inspection {
    /// The file was a campaign manifest.
    Manifest(ManifestSummary),
    /// The file was a run journal.
    Journal(JournalSummary),
}

/// Reads and summarises `path`, sniffing whether it is a campaign
/// manifest (first line is a fingerprint header) or a run journal.
///
/// # Errors
///
/// I/O failures, or a file that parses as neither artifact.
pub fn inspect_path(path: &Path) -> Result<Inspection> {
    let first = jsonl::Reader::open(path)
        .and_then(|mut reader| reader.next_line())
        .map_err(|e| CoreError::Io(format!("read {}: {e}", path.display())))?
        .unwrap_or_default();
    if String::from_utf8_lossy(&first).contains("\"fingerprint\"") {
        let (fingerprint, records) = load_manifest_records(path)?.ok_or_else(|| {
            CoreError::Manifest(format!("{} is an empty manifest", path.display()))
        })?;
        let view = replay_records(&records);
        Ok(Inspection::Manifest(summarise_manifest(fingerprint, &view)))
    } else {
        let records = RunJournal::read(path)
            .map_err(|e| CoreError::Io(format!("read journal {}: {e}", path.display())))?;
        if records.is_empty() {
            return Err(CoreError::Manifest(format!(
                "{} is neither a campaign manifest nor a run journal",
                path.display()
            )));
        }
        Ok(Inspection::Journal(summarise_journal(&records)))
    }
}

fn fmt_opt_hv(hv: Option<f64>) -> String {
    hv.map_or_else(|| "-".to_string(), |hv| format!("{hv:.4}"))
}

fn fmt_opt_gen(g: Option<usize>) -> String {
    g.map_or_else(|| "-".to_string(), |g| g.to_string())
}

fn render_convergence_table(out: &mut String, rows: &[ConvergenceSummary], with_phases: bool) {
    let width = rows
        .iter()
        .map(|r| r.label.len())
        .max()
        .unwrap_or(0)
        .max("population".len());
    let _ = write!(
        out,
        "{:width$}  {:>6}  {:>12}  {:>12}  {:>7}  {:>7}",
        "population", "gens", "final HV", "peak HV", "95%@", "stagn@",
    );
    if with_phases {
        let _ = write!(out, "  {:>9}  {:>24}", "evals", "mating/eval/sort (s)");
    }
    out.push('\n');
    for row in rows {
        let _ = write!(
            out,
            "{:width$}  {:>6}  {:>12}  {:>12}  {:>7}  {:>7}",
            row.label,
            row.generations,
            fmt_opt_hv(row.final_hv),
            fmt_opt_hv(row.peak_hv),
            fmt_opt_gen(row.gens_to_95pct_peak),
            fmt_opt_gen(row.stagnation_generation),
        );
        if with_phases {
            let _ = write!(
                out,
                "  {:>9}  {:>8.3}/{:.3}/{:.3}",
                row.evaluations, row.mating_s, row.evaluation_s, row.sorting_s
            );
        }
        out.push('\n');
    }
}

impl JournalSummary {
    /// Renders the summary for the terminal.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "run journal: {} population(s), {} evaluations total\n",
            self.populations.len(),
            self.populations
                .iter()
                .map(|p| p.evaluations)
                .sum::<usize>(),
        );
        render_convergence_table(&mut out, &self.populations, true);
        out
    }
}

impl ManifestSummary {
    /// Renders the summary for the terminal.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let done = self.cells.iter().filter(|c| c.status.succeeded()).count();
        let retried = self
            .cells
            .iter()
            .filter(|c| c.status == CellStatus::Retried)
            .count();
        let timed_out = self
            .cells
            .iter()
            .filter(|c| c.status == CellStatus::TimedOut)
            .count();
        let poisoned = self
            .cells
            .iter()
            .filter(|c| c.status == CellStatus::Poisoned)
            .count();
        let _ = writeln!(
            out,
            "campaign {}: {} cell(s) recorded ({done} done, {retried} retried, \
             {timed_out} timed out, {poisoned} poisoned)\n",
            self.fingerprint,
            self.cells.len(),
        );
        let width = self
            .cells
            .iter()
            .map(|c| c.cell.len())
            .max()
            .unwrap_or(0)
            .max("cell".len());
        // The worker column only appears on distributed manifests — a
        // single-process campaign's table stays exactly as before.
        let distributed = self.cells.iter().any(|c| c.worker.is_some());
        let worker_width = self
            .cells
            .iter()
            .filter_map(|c| c.worker.as_deref())
            .map(str::len)
            .max()
            .unwrap_or(0)
            .max("worker".len());
        let _ = write!(
            out,
            "{:width$}  {:>8}  {:>8}  {:>10}",
            "cell", "status", "attempts", "duration"
        );
        if distributed {
            let _ = write!(out, "  {:>worker_width$}", "worker");
        }
        out.push('\n');
        for cell in &self.cells {
            let _ = write!(
                out,
                "{:width$}  {:>8}  {:>8}  {:>9.3}s",
                cell.cell,
                cell.status.label(),
                cell.attempts,
                cell.duration_s,
            );
            if distributed {
                let _ = write!(
                    out,
                    "  {:>worker_width$}",
                    cell.worker.as_deref().unwrap_or("-")
                );
            }
            if let Some(error) = &cell.error {
                let _ = write!(out, "  ({error})");
            }
            out.push('\n');
        }
        if !self.workers.is_empty() {
            let _ = writeln!(out, "\nworkers:\n");
            let width = self
                .workers
                .iter()
                .map(|w| w.worker.len())
                .max()
                .unwrap_or(0)
                .max("worker".len());
            let _ = writeln!(
                out,
                "{:width$}  {:>6}  {:>6}  {:>6}  {:>11}",
                "worker", "cells", "stolen", "fenced", "wall-clock"
            );
            for w in &self.workers {
                let _ = writeln!(
                    out,
                    "{:width$}  {:>6}  {:>6}  {:>6}  {:>10.3}s",
                    w.worker, w.cells, w.stolen, w.fenced, w.wall_clock_s
                );
            }
        }
        if !self.populations.is_empty() {
            let _ = writeln!(
                out,
                "\nconvergence at snapshot resolution (shared-reference hypervolume):\n"
            );
            render_convergence_table(&mut out, &self.populations, false);
        }
        out
    }
}

impl Inspection {
    /// Renders whichever summary this is.
    pub fn render(&self) -> String {
        match self {
            Inspection::Manifest(m) => m.render(),
            Inspection::Journal(j) => j.render(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsched_moea::observe::PhaseTimings;

    fn record(population: &str, stream: u64, generation: usize, hv: f64) -> JournalRecord {
        JournalRecord {
            population: population.to_string(),
            stream,
            stats: GenerationStats {
                generation,
                front_sizes: vec![4],
                ideal: [-hv, hv],
                hypervolume: Some(hv),
                crowding_spread: 0.1,
                evaluations: 10,
                timings: PhaseTimings {
                    mating_s: 0.1,
                    evaluation_s: 0.2,
                    sorting_s: 0.05,
                },
            },
        }
    }

    #[test]
    fn journal_summary_computes_convergence_per_population() {
        // Interleaved populations, HV trajectory 1 → 10 → 10 (stagnates
        // at generation 2; 95% of peak (9.5) first reached there too).
        let records = vec![
            record("Random", 0, 1, 1.0),
            record("Min Energy", 1, 1, 5.0),
            record("Random", 0, 2, 10.0),
            record("Min Energy", 1, 2, 5.0),
            record("Random", 0, 3, 10.0),
        ];
        let summary = summarise_journal(&records);
        assert_eq!(summary.populations.len(), 2);
        let random = &summary.populations[0];
        assert_eq!(random.label, "Random/s0");
        assert_eq!(random.generations, 3);
        assert_eq!(random.final_hv, Some(10.0));
        assert_eq!(random.peak_hv, Some(10.0));
        assert_eq!(random.gens_to_95pct_peak, Some(2));
        assert_eq!(random.stagnation_generation, Some(2));
        assert_eq!(random.evaluations, 30);
        assert!((random.evaluation_s - 0.6).abs() < 1e-9);
        let seeded = &summary.populations[1];
        assert_eq!(seeded.gens_to_95pct_peak, Some(1));
        assert_eq!(seeded.stagnation_generation, Some(1));
        let rendered = summary.render();
        assert!(rendered.contains("Random/s0"), "{rendered}");
        assert!(rendered.contains("10.0000"), "{rendered}");
    }

    #[test]
    fn convergence_handles_missing_hypervolume() {
        let summary = convergence("x".to_string(), &[(1, None), (2, None)]);
        assert_eq!(summary.final_hv, None);
        assert_eq!(summary.peak_hv, None);
        assert_eq!(summary.gens_to_95pct_peak, None);
        assert_eq!(summary.stagnation_generation, None);
        assert_eq!(summary.generations, 2);
    }

    #[test]
    fn cell_status_classifies_records() {
        use crate::report::PopulationRun;
        use hetsched_analysis::ParetoFront;
        use hetsched_heuristics::SeedKind;

        let run = PopulationRun {
            seed: SeedKind::Random,
            fronts: vec![(5, ParetoFront::from_points([(1.0, 1.0)]))],
        };
        let base = CellRecord {
            cell: sample_cell(),
            run: Some(run),
            error: None,
            outcome: CellOutcome::Ok,
            attempts: 1,
            duration_s: 0.5,
            worker: None,
            epoch: None,
        };
        assert_eq!(CellStatus::of(&base), CellStatus::Done);
        let retried = CellRecord {
            attempts: 2,
            ..base.clone()
        };
        assert_eq!(CellStatus::of(&retried), CellStatus::Retried);
        let poisoned = CellRecord {
            run: None,
            error: Some("boom".to_string()),
            outcome: CellOutcome::Poisoned,
            ..base.clone()
        };
        assert_eq!(CellStatus::of(&poisoned), CellStatus::Poisoned);
        let timed_out = CellRecord {
            run: None,
            error: Some("cell timeout".to_string()),
            outcome: CellOutcome::TimedOut,
            ..base
        };
        assert_eq!(CellStatus::of(&timed_out), CellStatus::TimedOut);
    }

    #[test]
    fn manifest_summary_builds_cell_table_and_convergence() {
        use crate::report::PopulationRun;
        use hetsched_analysis::ParetoFront;
        use hetsched_heuristics::SeedKind;

        let ok = CellRecord {
            cell: sample_cell(),
            run: Some(PopulationRun {
                seed: SeedKind::Random,
                fronts: vec![
                    (5, ParetoFront::from_points([(1.0, 3.0)])),
                    (10, ParetoFront::from_points([(3.0, 2.0)])),
                ],
            }),
            error: None,
            outcome: CellOutcome::Ok,
            attempts: 2,
            duration_s: 1.25,
            worker: None,
            epoch: None,
        };
        let mut bad_cell = sample_cell();
        bad_cell.replicate = 1;
        let bad = CellRecord {
            cell: bad_cell,
            run: None,
            error: Some("panicked".to_string()),
            outcome: CellOutcome::Poisoned,
            attempts: 2,
            duration_s: 0.1,
            worker: None,
            epoch: None,
        };
        let view = ManifestView {
            cells: vec![ok, bad],
            ..ManifestView::default()
        };
        let summary = summarise_manifest("f00d".to_string(), &view);
        assert_eq!(summary.cells.len(), 2);
        assert_eq!(summary.cells[0].status, CellStatus::Retried);
        assert_eq!(summary.cells[1].status, CellStatus::Poisoned);
        assert!(summary.workers.is_empty(), "untagged records: no rollup");
        // Only the successful cell contributes a convergence row, at
        // snapshot resolution.
        assert_eq!(summary.populations.len(), 1);
        let pop = &summary.populations[0];
        assert_eq!(pop.generations, 10);
        assert!(pop.final_hv.unwrap() > 0.0);
        assert!(pop.final_hv.unwrap() >= pop.gens_to_95pct_peak.map_or(0.0, |_| 0.0));
        let rendered = summary.render();
        assert!(
            rendered.contains("1 done, 1 retried, 0 timed out, 1 poisoned"),
            "{rendered}"
        );
        assert!(rendered.contains("(panicked)"), "{rendered}");
        assert!(
            !rendered.contains("worker"),
            "single-process table has no worker column: {rendered}"
        );
    }

    #[test]
    fn distributed_manifests_get_worker_column_and_rollup() {
        use crate::lease::{LeaseAction, LeaseRecord};
        use crate::manifest::{replay_records, ManifestRecord};

        let tagged = |replicate: usize, worker: &str, epoch: u64| {
            let mut cell = sample_cell();
            cell.replicate = replicate;
            CellRecord {
                cell,
                run: None,
                error: Some("x".to_string()),
                outcome: CellOutcome::Poisoned,
                attempts: 1,
                duration_s: 0.5,
                worker: Some(worker.to_string()),
                epoch: Some(epoch),
            }
        };
        let cell0 = sample_cell();
        let records = vec![
            // w1 leases replicate 0 and dies; w2 steals it at epoch 2,
            // records it, and w1's zombie append is fenced.
            ManifestRecord::Lease(LeaseRecord::new(cell0, "w1", 1, LeaseAction::Acquire, 0.0)),
            ManifestRecord::Lease(LeaseRecord::new(cell0, "w2", 2, LeaseAction::Acquire, 1e12)),
            ManifestRecord::Cell(tagged(0, "w1", 1)),
            ManifestRecord::Cell(tagged(0, "w2", 2)),
            ManifestRecord::Cell(tagged(1, "w2", 1)),
        ];
        let view = replay_records(&records);
        let summary = summarise_manifest("f00d".to_string(), &view);
        assert_eq!(summary.cells.len(), 2);
        assert_eq!(summary.cells[0].worker.as_deref(), Some("w2"));
        assert_eq!(summary.workers.len(), 2);
        let w1 = summary.workers.iter().find(|w| w.worker == "w1").unwrap();
        let w2 = summary.workers.iter().find(|w| w.worker == "w2").unwrap();
        assert_eq!((w1.cells, w1.stolen, w1.fenced), (0, 0, 1));
        assert_eq!((w2.cells, w2.stolen, w2.fenced), (2, 1, 0));
        assert!((w2.wall_clock_s - 1.0).abs() < 1e-9);
        let rendered = summary.render();
        assert!(rendered.contains("worker"), "{rendered}");
        assert!(rendered.contains("wall-clock"), "{rendered}");
        assert!(rendered.contains("w2"), "{rendered}");
    }

    fn sample_cell() -> crate::campaign::CellId {
        crate::campaign::CellId {
            dataset: crate::config::DatasetId::One,
            algorithm: hetsched_moea::Algorithm::Nsga2,
            seed: hetsched_heuristics::SeedKind::Random,
            replicate: 0,
        }
    }
}
