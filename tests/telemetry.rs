//! End-to-end telemetry: a campaign that is killed mid-run and resumed
//! keeps appending to the *same* heartbeat file with monotone progress,
//! and `report` on the finished manifest reconstructs per-cell status and
//! per-population convergence without re-running anything.

use hetsched::core::inspect::Inspection;
use hetsched::core::{inspect_path, Heartbeat, HeartbeatLine};
use hetsched::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// 1 dataset × 2 algorithms × 2 replicates × 2 seed kinds = 8 cells.
fn tiny_spec() -> CampaignSpec {
    let base = ExperimentConfig::builder(DatasetId::One)
        .tasks(20)
        .population(8)
        .snapshots(vec![2, 4])
        .seeds(vec![SeedKind::MinEnergy, SeedKind::Random])
        .rng_seed(0xBEA7)
        .parallel(false)
        .build()
        .expect("tiny telemetry config is consistent");
    CampaignSpec::builder(base)
        .algorithms(vec![Algorithm::Nsga2, Algorithm::Spea2])
        .replicates(2)
        .build()
        .expect("tiny telemetry grid is consistent")
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hetsched-telemetry-{}-{tag}", std::process::id()))
}

/// A fresh registry for one campaign invocation, appending to `heartbeat`
/// — exactly what the CLI builds for `--heartbeat-out`. Interval zero so
/// every cell event emits a line.
fn registry(heartbeat: &PathBuf) -> Arc<MetricsRegistry> {
    let hb = Heartbeat::create(heartbeat, Duration::ZERO).unwrap();
    Arc::new(MetricsRegistry::new().with_heartbeat(hb))
}

#[test]
fn killed_and_resumed_campaign_keeps_the_heartbeat_monotone() {
    let manifest = scratch("manifest.jsonl");
    let heartbeat = scratch("heartbeat.jsonl");
    let _ = std::fs::remove_file(&manifest);
    let _ = std::fs::remove_file(&heartbeat);
    let spec = tiny_spec();
    let cells = spec.cells().len() as u64;

    // First invocation: full run with manifest + heartbeat.
    let first = registry(&heartbeat);
    Campaign::new(spec.clone())
        .with_telemetry(Arc::clone(&first))
        .run(Some(&manifest))
        .unwrap();
    let lines_before_kill = std::fs::read_to_string(&heartbeat).unwrap().lines().count();
    assert!(lines_before_kill >= 2, "start + per-cell + end lines");

    // Simulate a kill after 3 completed cells: truncate the manifest to
    // header + 3 records. The heartbeat file is NOT touched — a real kill
    // leaves it as-is and the resume appends to it.
    let text = std::fs::read_to_string(&manifest).unwrap();
    let truncated: String = text.lines().take(1 + 3).flat_map(|l| [l, "\n"]).collect();
    std::fs::write(&manifest, &truncated).unwrap();

    // Resume: fresh registry (replayed cells are accounted through
    // `cells_replayed`), same heartbeat path.
    let second = registry(&heartbeat);
    let resumed = Campaign::new(spec.clone())
        .with_telemetry(Arc::clone(&second))
        .run(Some(&manifest))
        .unwrap();
    assert_eq!(resumed.replayed, 3);
    assert!(resumed.is_complete());
    let lines_after_resume = std::fs::read_to_string(&heartbeat).unwrap().lines().count();

    // The same kill resumed by a single worker instead: it reports
    // through the same registry events, to the same heartbeat file.
    std::fs::write(&manifest, &truncated).unwrap();
    let third = registry(&heartbeat);
    let worker = Worker::new(Campaign::new(spec).with_telemetry(Arc::clone(&third)), "w1")
        .run(&manifest)
        .unwrap();
    assert_eq!(worker.outcome.replayed, 3);
    assert!(worker.outcome.is_complete());
    assert_eq!(third.snapshot().workers, 1);

    // The heartbeat file now holds both invocations' lines. Within each
    // invocation progress is monotone, and the resume starts at the
    // replayed count — so the resumed segment never reports fewer done
    // cells than it replayed, and both segments end at the full grid.
    let text = std::fs::read_to_string(&heartbeat).unwrap();
    let all: Vec<HeartbeatLine> = text
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    assert!(all.len() > lines_before_kill, "resume appended no lines");
    let (first_run, rest) = all.split_at(lines_before_kill);
    let (resumed_run, worker_run) = rest.split_at(lines_after_resume - lines_before_kill);
    for segment in [first_run, resumed_run, worker_run] {
        for pair in segment.windows(2) {
            assert!(
                pair[1].cells_done >= pair[0].cells_done,
                "progress went backwards: {} -> {}",
                pair[0].cells_done,
                pair[1].cells_done
            );
            assert!(pair[1].elapsed_s >= pair[0].elapsed_s);
        }
        assert_eq!(segment.last().unwrap().cells_done, cells);
        assert_eq!(segment.last().unwrap().cells_total, cells);
    }
    // Resume's first line already counts the replayed cells.
    assert!(resumed_run.first().unwrap().cells_done >= 3);
    assert!(worker_run.first().unwrap().cells_done >= 3);

    let _ = std::fs::remove_file(&manifest);
    let _ = std::fs::remove_file(&heartbeat);
}

#[test]
fn report_on_a_finished_manifest_summarises_without_rerunning() {
    let manifest = scratch("report-manifest.jsonl");
    let _ = std::fs::remove_file(&manifest);
    Campaign::new(tiny_spec()).run(Some(&manifest)).unwrap();

    let inspection = inspect_path(&manifest).unwrap();
    let rendered = inspection.render();
    let Inspection::Manifest(summary) = inspection else {
        panic!("a campaign manifest should inspect as a manifest");
    };
    assert_eq!(summary.cells.len(), 8);
    assert!(summary.cells.iter().all(|c| c.duration_s > 0.0));
    // One convergence row per (dataset, algorithm, seed, replicate) cell.
    assert_eq!(summary.populations.len(), 8);
    assert!(summary
        .populations
        .iter()
        .all(|p| p.peak_hv.unwrap_or(0.0) > 0.0));
    // The rendering carries the cell table and the convergence table.
    assert!(
        rendered.contains("8 cell(s) recorded (8 done"),
        "{rendered}"
    );
    assert!(rendered.contains("nsga2"), "{rendered}");
    assert!(rendered.contains("spea2"), "{rendered}");
    assert!(rendered.contains("peak HV"), "{rendered}");

    let _ = std::fs::remove_file(&manifest);
}
