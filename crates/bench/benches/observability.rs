//! Observability overhead: the engine run with the disabled
//! [`NullObserver`] (what `EngineConfig::run` passes) and with a full
//! metrics-collecting observer.
//!
//! Observation is opt-in per generation: a disabled observer skips both
//! the metric computation and the clock reads. The second run quantifies
//! what enabling metrics actually costs (one extra nondominated sort of N
//! survivors plus the hypervolume staircase per generation).

use criterion::{criterion_group, criterion_main, Criterion};
use hetsched_alloc::AllocationProblem;
use hetsched_bench::ds1_fixture;
use hetsched_moea::observe::{NullObserver, StatsLog};
use hetsched_moea::{EngineConfig, Nsga2Config};
use std::hint::black_box;

fn config() -> Nsga2Config {
    Nsga2Config {
        population: 40,
        mutation_rate: 0.5,
        generations: 10,
        parallel: false,
        hv_reference: Some([1e-9, 1e9]),
        ..Default::default()
    }
}

fn bench_observability(c: &mut Criterion) {
    let (system, trace) = ds1_fixture(100);
    let problem = AllocationProblem::new(&system, &trace);
    let engine = EngineConfig::Nsga2(config());

    let mut group = c.benchmark_group("nsga2_observability_100tasks");
    group.sample_size(20);
    group.bench_function("null_observer", |b| {
        b.iter(|| {
            black_box(engine.evolve(&problem, vec![], 1, &[], &mut |_, _| {}, &mut NullObserver))
        })
    });
    group.bench_function("collecting_observer", |b| {
        b.iter(|| {
            let mut log = StatsLog::default();
            black_box(engine.evolve(&problem, vec![], 1, &[], &mut |_, _| {}, &mut log));
            black_box(log.records.len())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_observability);
criterion_main!(benches);
