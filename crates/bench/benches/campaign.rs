//! Campaign orchestration overhead: the same 8-cell workload (4 replicates
//! × 2 seed kinds on data set 1) run bare through
//! `Framework::run_replicated` and through the `Campaign` orchestrator
//! (grid expansion, per-cell isolation via `catch_unwind`, rayon
//! dispatch, outcome assembly; no manifest). The orchestrator's target is
//! <2% overhead at this size — the evolution itself should dwarf the
//! bookkeeping. A once-per-process report prints the measured ratio.
//!
//! A third case runs the campaign with a `MetricsRegistry` attached (no
//! heartbeat sink): a campaign without one must stay within noise of the
//! bare campaign, and the instrumented run shows what the per-event
//! registry updates and per-generation stats cost.
//!
//! A `tracing_disabled` case pins the span-instrumentation contract:
//! every span site (campaign, cell, attempt, generation, engine phases,
//! evaluator batches) is compiled in, but with no span sink installed
//! each site must collapse to one relaxed atomic load — the case
//! asserts the sink really is absent and must stay within the same <2%
//! envelope of `campaign_8_cells` (gated against `BENCH_<date>.json`
//! by CI's bench-smoke job).
//!
//! Every build carries the deterministic fault points, so every case
//! here also pays for them disarmed: one relaxed atomic load per hit.
//! The `campaign_overhead` gate against the committed baseline therefore
//! covers their cost too.

use criterion::{criterion_group, criterion_main, Criterion};
use hetsched_core::{Campaign, CampaignSpec, ExperimentConfig, Framework, MetricsRegistry};
use hetsched_heuristics::SeedKind;
use std::hint::black_box;
use std::sync::{Arc, Once};
use std::time::Instant;

const REPLICATES: usize = 4;

fn eight_cell_config() -> ExperimentConfig {
    ExperimentConfig {
        tasks: 30,
        population: 12,
        snapshots: vec![5, 10],
        seeds: vec![SeedKind::MinEnergy, SeedKind::Random],
        parallel: false,
        ..ExperimentConfig::dataset1()
    }
}

fn eight_cell_spec() -> CampaignSpec {
    let mut spec = CampaignSpec::single(&eight_cell_config());
    spec.replicates = REPLICATES;
    spec
}

fn campaign_overhead(c: &mut Criterion) {
    static REPORT: Once = Once::new();
    let config = eight_cell_config();
    let framework = Framework::new(&config).expect("dataset 1 builds");
    let spec = eight_cell_spec();

    REPORT.call_once(|| {
        // Warm both paths once, then take the median of a few timed runs
        // so the printed ratio is not dominated by a single outlier.
        let median = |f: &dyn Fn()| -> f64 {
            f();
            let mut samples: Vec<f64> = (0..5)
                .map(|_| {
                    let t = Instant::now();
                    f();
                    t.elapsed().as_secs_f64()
                })
                .collect();
            samples.sort_by(f64::total_cmp);
            samples[samples.len() / 2]
        };
        let bare = median(&|| {
            black_box(framework.run_replicated(REPLICATES).unwrap());
        });
        let campaign = median(&|| {
            black_box(Campaign::new(spec.clone()).run(None).unwrap());
        });
        let instrumented = median(&|| {
            black_box(
                Campaign::new(spec.clone())
                    .with_telemetry(Arc::new(MetricsRegistry::new()))
                    .run(None)
                    .unwrap(),
            );
        });
        eprintln!(
            "\n[campaign] 8-cell workload: bare {:.1} ms, campaign {:.1} ms — overhead {:+.2}% (target < 2%); \
             instrumented {:.1} ms — telemetry cost {:+.2}%",
            bare * 1e3,
            campaign * 1e3,
            (campaign / bare - 1.0) * 100.0,
            instrumented * 1e3,
            (instrumented / campaign - 1.0) * 100.0
        );
    });

    let mut group = c.benchmark_group("campaign_overhead");
    group.sample_size(10);
    group.bench_function("bare_run_replicated_8_cells", |b| {
        b.iter(|| black_box(framework.run_replicated(REPLICATES).unwrap()))
    });
    group.bench_function("campaign_8_cells", |b| {
        b.iter(|| black_box(Campaign::new(spec.clone()).run(None).unwrap()))
    });
    group.bench_function("campaign_8_cells_with_telemetry", |b| {
        b.iter(|| {
            black_box(
                Campaign::new(spec.clone())
                    .with_telemetry(Arc::new(MetricsRegistry::new()))
                    .run(None)
                    .unwrap(),
            )
        })
    });
    // Identical work to `campaign_8_cells`, named separately so the
    // bench trajectory records the cost of the compiled-in span sites
    // while no sink is installed. The assertion keeps the case honest:
    // if some other bench ever installs a process-global sink, this
    // measurement would silently become "tracing enabled".
    group.bench_function("campaign_8_cells_tracing_disabled", |b| {
        assert!(
            !tracing::span_enabled(tracing::Level::ERROR),
            "disabled-tracing bench must run without a span sink installed"
        );
        b.iter(|| black_box(Campaign::new(spec.clone()).run(None).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, campaign_overhead);
criterion_main!(benches);
