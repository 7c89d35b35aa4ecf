//! End-to-end integration: the full pipeline from raw benchmark data to
//! Pareto-front analysis, spanning every crate in the workspace.

use hetsched::analysis::{ParetoFront, UpeAnalysis};
use hetsched::core::{DatasetId, ExperimentConfig, Framework};
use hetsched::heuristics::SeedKind;
use hetsched::sim::Evaluator;

fn mini_config(dataset: DatasetId, tasks: usize) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::scaled(dataset, 1.0);
    cfg.tasks = tasks;
    cfg.population = 24;
    cfg.snapshots = vec![5, 25, 80];
    cfg.rng_seed = 2024;
    cfg
}

#[test]
fn dataset1_pipeline_produces_meaningful_tradeoff() {
    let cfg = mini_config(DatasetId::One, 60);
    let fw = Framework::new(&cfg).unwrap();
    let report = fw.run();

    // Five populations, three snapshots each.
    assert_eq!(report.runs.len(), 5);
    for run in &report.runs {
        assert_eq!(run.fronts.len(), 3);
    }

    // The combined front spans a real trade-off: its energy range is wide
    // (the min-energy end comes from the Min Energy seed) and utility rises
    // with energy along it.
    let front = report.combined_front();
    assert!(front.len() >= 5, "front too small: {}", front.len());
    let lo = front.min_energy().unwrap();
    let hi = front.max_utility().unwrap();
    assert!(hi.energy > lo.energy * 1.05, "no energy spread");
    assert!(hi.utility > lo.utility, "no utility spread");

    // Energy lower bound is respected and achieved.
    let bound = Evaluator::new(fw.system(), fw.trace()).min_possible_energy();
    assert!(lo.energy >= bound - 1e-6);
    assert!(
        (lo.energy - bound) / bound < 0.01,
        "min-energy seed should pin the left end"
    );

    // UPE analysis finds a peak on the front.
    let upe = UpeAnalysis::of(&front).unwrap();
    assert!(upe.peak_upe > 0.0);
    assert!(!upe.peak_region(0.05).is_empty());
    assert_peak_is_interior(&upe, &front);
}

/// The paper's Fig. 5 shape claim: utility per energy peaks strictly inside
/// the front, at neither the min-energy nor the max-utility extreme.
fn assert_peak_is_interior(upe: &UpeAnalysis, front: &ParetoFront) {
    assert!(
        upe.peak_index > 0 && upe.peak_index + 1 < front.len(),
        "UPE peaks at point {} of {}, an extreme of the front",
        upe.peak_index,
        front.len()
    );
}

#[test]
fn seeded_populations_beat_random_early_on() {
    // The paper's central seeding observation (Figs. 3/4/6, early
    // subplots): at a small iteration budget, seeded fronts contain points
    // the random front does not dominate, and the min-energy population
    // owns the low-energy region.
    let cfg = mini_config(DatasetId::One, 80);
    let fw = Framework::new(&cfg).unwrap();
    let report = fw.run();

    let early = |kind: SeedKind| report.run(kind).unwrap().fronts[0].1.clone();
    let random = early(SeedKind::Random);
    let min_energy = early(SeedKind::MinEnergy);
    let min_min = early(SeedKind::MinMinCompletionTime);

    // Min-energy population reaches far lower energy than random early.
    let me_lo = min_energy.min_energy().unwrap().energy;
    let rnd_lo = random.min_energy().unwrap().energy;
    assert!(
        me_lo < rnd_lo,
        "min-energy seed should own the low-energy end: {me_lo} vs {rnd_lo}"
    );

    // Min-min population earns more utility than random early.
    let mm_hi = min_min.max_utility().unwrap().utility;
    let rnd_hi = random.max_utility().unwrap().utility;
    assert!(
        mm_hi > rnd_hi,
        "min-min seed should own the high-utility end: {mm_hi} vs {rnd_hi}"
    );
}

#[test]
fn fronts_improve_with_iterations() {
    let cfg = mini_config(DatasetId::One, 50);
    let fw = Framework::new(&cfg).unwrap();
    let report = fw.run();
    let table = report.hypervolume_table();
    for (seed, hvs) in table {
        // Hypervolume never decreases under elitist survival.
        for w in hvs.windows(2) {
            assert!(
                w[1] >= w[0] - 1e-9,
                "{seed:?}: hypervolume regressed {} -> {}",
                w[0],
                w[1]
            );
        }
    }
}

#[test]
fn dataset2_pipeline_runs_on_synthetic_system() {
    let cfg = mini_config(DatasetId::Two, 60);
    let fw = Framework::new(&cfg).unwrap();
    assert_eq!(fw.system().machine_count(), 30);
    assert_eq!(fw.system().task_type_count(), 30);
    let report = fw.run();
    let front = report.combined_front();
    assert!(!front.is_empty());
    // Special-purpose machines make some tasks ~10x faster; the front's
    // high-utility end should earn a sizeable share of the maximum.
    let max_possible = fw.trace().max_possible_utility();
    let earned = front.max_utility().unwrap().utility;
    assert!(
        earned > 0.3 * max_possible,
        "earned {earned} of possible {max_possible}"
    );
    assert_peak_is_interior(&UpeAnalysis::of(&front).unwrap(), &front);
}

#[test]
fn figure_functions_produce_all_series() {
    let (report, series) = hetsched::core::figures::fig3(0.0002).unwrap();
    // 5 populations × ≥1 snapshot.
    assert!(series.len() >= 5);
    assert!(series.iter().any(|s| s.label == "random"));
    assert!(series.iter().any(|s| s.label == "min-energy"));
    let fig5 = hetsched::core::figures::fig5(&report).unwrap();
    assert_eq!(fig5.front.len(), fig5.upe_vs_utility.len());
    assert_eq!(fig5.front.len(), fig5.upe_vs_energy.len());

    let csv = hetsched::analysis::export::series_to_csv(&series);
    let parsed = hetsched::analysis::export::series_from_csv(&csv).unwrap();
    assert_eq!(parsed.len(), series.len());
}
