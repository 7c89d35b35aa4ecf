//! Distributed campaign execution: several [`Worker`]s race one shared
//! manifest and the merged result must be byte-identical to a
//! single-process [`Campaign::run`].
//!
//! The coordination substrate is nothing but the manifest — no sockets,
//! no coordinator process. Each worker loops lease → execute → append →
//! release under the store lock; fencing epochs make a stale worker's
//! late append invisible at merge time. These tests pin the user-facing
//! contract (README § Distributed campaigns): *how many* processes ran
//! the grid, and *which* of them stalled or was presumed dead, never
//! changes a byte of the final reports.

use hetsched::core::{load_manifest_records, replay_records, summarise_manifest};
use hetsched::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// 3 algorithms × 2 seed kinds × 2 replicates = 12 cells.
fn tiny_spec(rng_seed: u64) -> CampaignSpec {
    let base = ExperimentConfig::builder(DatasetId::One)
        .tasks(20)
        .population(8)
        .snapshots(vec![2, 4])
        .seeds(vec![SeedKind::MinEnergy, SeedKind::Random])
        .rng_seed(rng_seed)
        .parallel(false)
        .build()
        .expect("tiny config is consistent");
    CampaignSpec::builder(base)
        .algorithms(vec![Algorithm::Nsga2, Algorithm::Spea2, Algorithm::Moead])
        .replicates(2)
        .build()
        .expect("tiny grid is consistent")
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "hetsched-distributed-{}-{tag}.jsonl",
        std::process::id()
    ))
}

fn report_json(outcome: &CampaignOutcome) -> String {
    serde_json::to_string(&outcome.reports).expect("reports serialise")
}

fn now_s() -> f64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs_f64())
        .unwrap_or(0.0)
}

#[test]
fn racing_workers_merge_byte_identically_to_a_solo_run() {
    let spec = tiny_spec(0xD157);
    let solo = Campaign::new(spec.clone()).run(None).unwrap();
    assert!(solo.is_complete());
    let solo_json = report_json(&solo);

    let manifest = Arc::new(scratch("race"));
    let _ = std::fs::remove_file(&*manifest);

    // Three workers race the same 12-cell grid through one manifest.
    let handles: Vec<_> = (0..3)
        .map(|i| {
            let spec = spec.clone();
            let manifest = Arc::clone(&manifest);
            std::thread::spawn(move || {
                Worker::new(Campaign::new(spec), format!("w{i}"))
                    .lease_ttl(Duration::from_secs(30))
                    .run(&manifest)
                    .unwrap()
            })
        })
        .collect();
    let outcomes: Vec<WorkerOutcome> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Work is partitioned: every cell ran exactly once, nothing was
    // stolen or fenced (all workers stayed healthy), and every worker
    // drained to the same complete, byte-identical merged outcome.
    assert_eq!(outcomes.iter().map(|o| o.executed).sum::<usize>(), 12);
    for o in &outcomes {
        assert_eq!(o.stolen, 0);
        assert_eq!(o.fenced, 0);
        assert!(o.outcome.is_complete());
        assert_eq!(report_json(&o.outcome), solo_json);
    }

    // A fourth, late worker replays everything and executes nothing.
    let late = Worker::new(Campaign::new(spec), "late")
        .run(&manifest)
        .unwrap();
    assert_eq!(late.executed, 0);
    assert_eq!(report_json(&late.outcome), solo_json);

    // The per-worker summary accounts for every cell exactly once.
    let (fingerprint, records) = load_manifest_records(&manifest).unwrap().unwrap();
    let view = replay_records(&records);
    let summary = summarise_manifest(fingerprint, &view);
    let _ = std::fs::remove_file(&*manifest);
    assert_eq!(summary.workers.iter().map(|w| w.cells).sum::<usize>(), 12);
    for w in &summary.workers {
        assert!(
            ["w0", "w1", "w2"].contains(&w.worker.as_str()),
            "{}",
            w.worker
        );
        assert_eq!(w.stolen, 0);
        assert_eq!(w.fenced, 0);
    }
}

#[test]
fn a_worker_takes_over_expired_leases_and_reports_do_not_drift() {
    let spec = tiny_spec(0xDEAD);
    let solo = Campaign::new(spec.clone()).run(None).unwrap();
    let solo_json = report_json(&solo);

    let manifest = scratch("steal");
    let _ = std::fs::remove_file(&manifest);

    // A worker acquired two cells and then died without releasing: its
    // leases sit in the manifest with deadlines already in the past.
    let cells = spec.cells();
    {
        let store = LocalManifestStore::open(&manifest, &spec.fingerprint(), 1).unwrap();
        let _lock = store.lock().unwrap();
        for &cell in &cells[..2] {
            store
                .append_lease(&LeaseRecord::new(
                    cell,
                    "zombie",
                    1,
                    LeaseAction::Acquire,
                    now_s() - 10.0,
                ))
                .unwrap();
        }
        store.sync().unwrap();
    }

    let survivor = Worker::new(Campaign::new(spec), "survivor")
        .lease_ttl(Duration::from_secs(30))
        .run(&manifest)
        .unwrap();

    assert_eq!(survivor.executed, 12, "the survivor ran the whole grid");
    assert_eq!(survivor.stolen, 2, "both zombie leases were taken over");
    assert!(survivor.outcome.is_complete());
    assert_eq!(report_json(&survivor.outcome), solo_json);

    // The takeover is visible in the per-worker summary.
    let (fingerprint, records) = load_manifest_records(&manifest).unwrap().unwrap();
    let view = replay_records(&records);
    let summary = summarise_manifest(fingerprint, &view);
    let _ = std::fs::remove_file(&manifest);
    let survivor_row = summary
        .workers
        .iter()
        .find(|w| w.worker == "survivor")
        .expect("survivor is summarised");
    assert_eq!(survivor_row.cells, 12);
    assert_eq!(survivor_row.stolen, 2);
}

#[test]
fn a_fenced_result_is_dropped_at_merge_and_the_cell_reruns() {
    let spec = tiny_spec(0xFE2CE);
    let solo = Campaign::new(spec.clone()).run(None).unwrap();
    let solo_json = report_json(&solo);

    let manifest = scratch("fence");
    let _ = std::fs::remove_file(&manifest);
    let cells = spec.cells();
    let contested = cells[0];

    // A zombie held epoch 1, was presumed dead, and the cell was
    // re-leased at epoch 2 (that lease has lapsed too by now). The
    // zombie then wakes up and appends a poisoned result under its
    // superseded epoch — it must never merge.
    {
        let store = LocalManifestStore::open(&manifest, &spec.fingerprint(), 1).unwrap();
        let _lock = store.lock().unwrap();
        store
            .append_lease(&LeaseRecord::new(
                contested,
                "zombie",
                1,
                LeaseAction::Acquire,
                now_s() - 20.0,
            ))
            .unwrap();
        store
            .append_lease(&LeaseRecord::new(
                contested,
                "survivor",
                2,
                LeaseAction::Acquire,
                now_s() - 10.0,
            ))
            .unwrap();
        store
            .append_cell(&CellRecord {
                cell: contested,
                run: None,
                error: Some("zombie artifact".to_string()),
                outcome: CellOutcome::Poisoned,
                attempts: 1,
                duration_s: 0.0,
                worker: Some("zombie".to_string()),
                epoch: Some(1),
            })
            .unwrap();
        store.sync().unwrap();
    }

    // Replay alone already fences the stale append.
    let (_, records) = load_manifest_records(&manifest).unwrap().unwrap();
    let view = replay_records(&records);
    assert!(view.cells.is_empty(), "the stale append must not merge");
    assert_eq!(view.fenced.get("zombie"), Some(&1));

    // A healthy worker finishes the campaign: the contested cell is
    // re-leased at epoch 3 (a steal — epoch 2 was never released) and
    // re-run, and the final reports never see the zombie artifact.
    let survivor = Worker::new(Campaign::new(spec), "survivor")
        .lease_ttl(Duration::from_secs(30))
        .run(&manifest)
        .unwrap();
    let _ = std::fs::remove_file(&manifest);
    assert!(survivor.outcome.is_complete());
    assert_eq!(survivor.executed, 12);
    assert_eq!(survivor.stolen, 1);
    assert_eq!(report_json(&survivor.outcome), solo_json);
}
