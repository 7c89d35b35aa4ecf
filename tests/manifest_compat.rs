//! Manifest version compatibility, pinned against a committed fixture.
//!
//! `tests/golden/manifest_v3.jsonl` is a real version-3 manifest written
//! by the pre-distributed executor (no lease records, no `worker`/`epoch`
//! keys on cell lines). The contract from README § Distributed campaigns:
//!
//! * a v4 build still **reads** v3 — the new fields default to `None`;
//! * untagged records still **write** v3 bytes — re-serialising a loaded
//!   v3 record reproduces the fixture line exactly, so a resumed
//!   single-process campaign never silently rewrites history;
//! * anything older than v3 or newer than v4 is refused up front with an
//!   error naming both the build's write version and its floor.
//!
//! `tests/golden/manifest_v4_records.jsonl` pins the v4-only line shapes
//! built from fixed values: a lease acquire, a cell record tagged with
//! `worker`/`epoch`, an untagged (failed) cell record, and a release.

use hetsched::core::{
    load_manifest, load_manifest_records, ManifestRecord, COMPAT_MANIFEST_VERSION, MANIFEST_VERSION,
};
use hetsched::prelude::*;
use std::path::{Path, PathBuf};

fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/manifest_v3.jsonl")
}

fn v4_fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/manifest_v4_records.jsonl")
}

/// The records `manifest_v4_records.jsonl` holds, in file order.
fn v4_records() -> Vec<ManifestRecord> {
    let cell = |seed, replicate| CellId {
        dataset: DatasetId::One,
        algorithm: Algorithm::Nsga2,
        seed,
        replicate,
    };
    let tagged = cell(SeedKind::MinEnergy, 0);
    vec![
        ManifestRecord::Lease(LeaseRecord::new(
            tagged,
            "alpha:100",
            2,
            LeaseAction::Acquire,
            1_700_000_030.5,
        )),
        ManifestRecord::Cell(CellRecord {
            cell: tagged,
            run: Some(PopulationRun {
                seed: SeedKind::MinEnergy,
                fronts: vec![
                    (1, ParetoFront::from_points([(31.5, 290950.0)])),
                    (
                        2,
                        ParetoFront::from_points([(31.5, 290950.0), (38.75, 306375.0)]),
                    ),
                ],
            }),
            error: None,
            outcome: CellOutcome::Ok,
            attempts: 1,
            duration_s: 0.25,
            worker: Some("alpha:100".to_string()),
            epoch: Some(2),
        }),
        ManifestRecord::Cell(CellRecord {
            cell: cell(SeedKind::Random, 1),
            run: None,
            error: Some("chaos: injected panic at campaign.cell.run".to_string()),
            outcome: CellOutcome::Poisoned,
            attempts: 3,
            duration_s: 1.5,
            worker: None,
            epoch: None,
        }),
        ManifestRecord::Lease(LeaseRecord::new(
            tagged,
            "alpha:100",
            2,
            LeaseAction::Release,
            1_700_000_030.5,
        )),
    ]
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "hetsched-compat-{}-{tag}.jsonl",
        std::process::id()
    ))
}

#[test]
fn v3_fixture_loads_with_defaulted_worker_fields() {
    let (fingerprint, cells) = load_manifest(&fixture())
        .expect("committed v3 manifest loads")
        .expect("fixture is not empty");
    assert_eq!(fingerprint, "bf3141e279ef39e7");
    assert_eq!(cells.len(), 5);
    for record in &cells {
        assert_eq!(record.outcome, CellOutcome::Ok);
        assert!(record.worker.is_none(), "v3 records carry no worker");
        assert!(record.epoch.is_none(), "v3 records carry no epoch");
        assert!(record.run.is_some());
    }
}

#[test]
fn v3_records_reserialise_byte_for_byte() {
    // Loading a v3 line and writing it back must reproduce the committed
    // bytes: `worker`/`epoch` are omitted when `None`, so the on-disk
    // shape of an untagged record is identical across v3 and v4 builds.
    let text = std::fs::read_to_string(fixture()).unwrap();
    let (_, records) = load_manifest_records(&fixture()).unwrap().unwrap();
    let lines: Vec<&str> = text.lines().skip(1).collect();
    assert_eq!(records.len(), lines.len());
    for (record, line) in records.iter().zip(&lines) {
        let ManifestRecord::Cell(cell) = record else {
            panic!("v3 manifests hold only cell records, got {record:?}");
        };
        assert_eq!(&serde_json::to_string(cell).unwrap(), line);
        assert_eq!(&serde_json::to_string(record).unwrap(), line);
    }
}

#[test]
fn v4_records_read_back_equal_and_reserialise_byte_for_byte() {
    let (fingerprint, records) = load_manifest_records(&v4_fixture())
        .expect("committed v4 manifest loads")
        .expect("fixture is not empty");
    assert_eq!(fingerprint, "00c0ffee00c0ffee");
    assert_eq!(records, v4_records());
    let text = std::fs::read_to_string(v4_fixture()).unwrap();
    let lines: Vec<&str> = text.lines().skip(1).collect();
    assert_eq!(lines.len(), records.len());
    for (record, line) in records.iter().zip(&lines) {
        assert_eq!(&serde_json::to_string(record).unwrap(), line);
    }
}

#[test]
fn v3_fixture_resumes_as_a_fully_replayed_campaign() {
    // The fixture was generated by `hetsched run --set 1 --tasks 15
    // --pop 8 --scale 0.00002 --replicates 1`; rebuilding that campaign
    // and resuming from the fixture must replay all five cells and
    // execute none.
    let mut base = ExperimentConfig::scaled(DatasetId::One, 2e-5);
    base.tasks = 15;
    base.population = 8;
    base.rng_seed = 0x5EED;
    let spec = CampaignSpec::single(&base);

    let path = scratch("resume");
    std::fs::copy(fixture(), &path).unwrap();
    let outcome = Campaign::new(spec).run(Some(&path)).unwrap();
    let _ = std::fs::remove_file(&path);
    assert!(outcome.is_complete());
    assert_eq!(outcome.replayed, 5);
    assert_eq!(outcome.executed, 0);
}

#[test]
fn versions_outside_the_compat_window_are_refused() {
    let text = std::fs::read_to_string(fixture()).unwrap();
    assert_eq!(MANIFEST_VERSION, 4);
    assert_eq!(COMPAT_MANIFEST_VERSION, 3);

    for bad in [1usize, 2, 5] {
        let path = scratch(&format!("v{bad}"));
        std::fs::write(
            &path,
            text.replacen("\"version\":3", &format!("\"version\":{bad}"), 1),
        )
        .unwrap();
        let err = load_manifest_records(&path).unwrap_err();
        let _ = std::fs::remove_file(&path);
        let message = err.to_string();
        assert!(
            message.contains(&format!("version {bad} unsupported")),
            "{message}"
        );
        assert!(message.contains("writes v4"), "{message}");
        assert!(message.contains("still reads v3"), "{message}");
    }
}
