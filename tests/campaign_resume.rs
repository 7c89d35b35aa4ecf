//! Property test for campaign crash recovery: a campaign whose manifest is
//! truncated at an arbitrary cell boundary (simulating a kill mid-run) and
//! then resumed produces a report byte-identical to an uninterrupted run,
//! re-executing exactly the missing cells. The grid sweeps all three
//! engines so every engine `EngineConfig` dispatches to is exercised
//! through the resume path.

use hetsched::prelude::*;
use proptest::prelude::*;
use std::path::PathBuf;

/// A laptop-instant grid: 1 dataset × 3 algorithms × 2 replicates ×
/// 2 seed kinds = 12 cells.
fn tiny_spec(rng_seed: u64) -> CampaignSpec {
    let base = ExperimentConfig::builder(DatasetId::One)
        .tasks(20)
        .population(8)
        .snapshots(vec![2, 4])
        .seeds(vec![SeedKind::MinEnergy, SeedKind::Random])
        .rng_seed(rng_seed)
        .parallel(false)
        .build()
        .expect("tiny resume config is consistent");
    CampaignSpec::builder(base)
        .algorithms(vec![Algorithm::Nsga2, Algorithm::Moead, Algorithm::Spea2])
        .replicates(2)
        .build()
        .expect("tiny resume grid is consistent")
}

/// A unique scratch path per proptest case (cases run sequentially within
/// the test, but other test binaries share the temp dir).
fn scratch_manifest(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "hetsched-campaign-resume-{}-{tag}.jsonl",
        std::process::id()
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Kill-and-resume is invisible in the output: for any truncation
    /// point and master seed, the resumed campaign's reports serialise to
    /// the same bytes as an uninterrupted run's, and only the missing
    /// cells are re-executed.
    #[test]
    fn resume_after_kill_is_bit_identical(keep in 0usize..13, rng_seed in 0u64..1_000) {
        let spec = tiny_spec(rng_seed);
        let cells = spec.cells().len();
        prop_assert_eq!(cells, 12);
        let keep = keep.min(cells);

        // Ground truth: the same campaign run start-to-finish, no manifest.
        let uninterrupted = Campaign::new(spec.clone()).run(None).unwrap();
        prop_assert!(uninterrupted.is_complete());
        prop_assert_eq!(uninterrupted.reports.len(), 6); // 3 engines × 2 replicates

        // Full run with a manifest, then truncate it to the header plus
        // `keep` record lines — exactly what a kill after `keep` completed
        // cells leaves behind (records land in completion order, which is
        // why any prefix is a valid crash state).
        let manifest = scratch_manifest(&format!("{keep}-{rng_seed}"));
        let _ = std::fs::remove_file(&manifest);
        Campaign::new(spec.clone()).run(Some(&manifest)).unwrap();
        let text = std::fs::read_to_string(&manifest).unwrap();
        let truncated: String = text
            .lines()
            .take(1 + keep)
            .flat_map(|l| [l, "\n"])
            .collect();
        std::fs::write(&manifest, truncated).unwrap();

        let resumed = Campaign::new(spec).run(Some(&manifest)).unwrap();
        let _ = std::fs::remove_file(&manifest);

        prop_assert_eq!(resumed.replayed, keep);
        prop_assert_eq!(resumed.executed, cells - keep);
        prop_assert!(resumed.is_complete());
        prop_assert_eq!(&resumed.reports, &uninterrupted.reports);
        // Byte-identical, not merely equal: serialise both report lists.
        for (a, b) in resumed.reports.iter().zip(&uninterrupted.reports) {
            prop_assert_eq!(
                serde_json::to_string(&a.report).unwrap(),
                serde_json::to_string(&b.report).unwrap()
            );
        }
    }
}
