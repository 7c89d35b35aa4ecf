//! Micro-benchmarks of the hot paths: fitness evaluation at the paper's
//! three trace sizes, nondominated sorting, crowding distance, one full
//! NSGA-II generation, the seeding heuristics, and the Gram-Charlier
//! sampler.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hetsched_alloc::AllocationProblem;
use hetsched_bench::{ds1_fixture, ds2_fixture};
use hetsched_heuristics::{
    max_utility, min_energy, min_min_completion_time, min_min_completion_time_naive,
};
use hetsched_moea::problem::Schaffer;
use hetsched_moea::{
    crowding_distance, fast_nondominated_sort, EngineConfig, Nsga2Config, Objectives, Problem,
};
use hetsched_sim::Evaluator;
use hetsched_stats::{GramCharlier, Moments};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// Fitness evaluation at the paper's trace sizes (250 / 1000 / 4000 tasks).
fn bench_evaluation(c: &mut Criterion) {
    let mut group = c.benchmark_group("evaluate_allocation");
    for &tasks in &[250usize, 1000, 4000] {
        let (system, trace) = if tasks == 250 {
            ds1_fixture(tasks)
        } else {
            ds2_fixture(tasks, if tasks == 4000 { 3600.0 } else { 900.0 })
        };
        let problem = AllocationProblem::new(&system, &trace);
        let mut rng = StdRng::seed_from_u64(1);
        let genome = problem.random_genome(&mut rng);
        let mut ev = Evaluator::new(&system, &trace);
        group.bench_with_input(BenchmarkId::from_parameter(tasks), &tasks, |b, _| {
            b.iter(|| black_box(ev.evaluate(black_box(&genome))))
        });
    }
    group.finish();
}

fn random_points(n: usize) -> Vec<Objectives> {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(7);
    (0..n)
        .map(|_| [rng.gen::<f64>() * 100.0, rng.gen::<f64>() * 100.0])
        .collect()
}

fn bench_sorting(c: &mut Criterion) {
    let mut group = c.benchmark_group("fast_nondominated_sort");
    for &n in &[200usize, 1000] {
        let points = random_points(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(fast_nondominated_sort(black_box(&points))))
        });
    }
    group.finish();

    let points = random_points(200);
    let fronts = fast_nondominated_sort(&points);
    let first = fronts[0].clone();
    c.bench_function("crowding_distance_front", |b| {
        b.iter(|| black_box(crowding_distance(black_box(&first), black_box(&points))))
    });
}

/// One NSGA-II generation on the scheduling problem (population 100,
/// 250 tasks) — the unit the paper's iteration counts multiply.
fn bench_generation(c: &mut Criterion) {
    let (system, trace) = ds1_fixture(250);
    let problem = AllocationProblem::new(&system, &trace);
    let mut group = c.benchmark_group("nsga2_generation_250tasks");
    group.sample_size(20);
    for &parallel in &[false, true] {
        let cfg = Nsga2Config {
            population: 100,
            mutation_rate: 0.5,
            generations: 1,
            parallel,
            ..Default::default()
        };
        let engine = EngineConfig::Nsga2(cfg);
        let label = if parallel { "parallel" } else { "serial" };
        group.bench_function(label, |b| {
            b.iter(|| black_box(engine.run(&problem, vec![], 3)))
        });
    }
    group.finish();
}

fn bench_heuristics(c: &mut Criterion) {
    let (system, trace) = ds2_fixture(1000, 900.0);
    let mut group = c.benchmark_group("seeding_heuristics_1000tasks");
    group.sample_size(20);
    group.bench_function("min_energy", |b| {
        b.iter(|| black_box(min_energy(&system, &trace)))
    });
    group.bench_function("max_utility", |b| {
        b.iter(|| black_box(max_utility(&system, &trace)))
    });
    group.bench_function("min_min", |b| {
        b.iter(|| black_box(min_min_completion_time(&system, &trace)))
    });
    group.finish();

    // Implementation ablation: the cached-best Min-Min vs the naive
    // O(T²·M) reference it was validated against.
    let mut group = c.benchmark_group("minmin_implementation");
    group.sample_size(10);
    group.bench_function("cached_best", |b| {
        b.iter(|| black_box(min_min_completion_time(&system, &trace)))
    });
    group.bench_function("naive", |b| {
        b.iter(|| black_box(min_min_completion_time_naive(&system, &trace)))
    });
    group.finish();
}

fn bench_sampler(c: &mut Criterion) {
    let target = Moments::from_measures(100.0, 400.0, 0.5, 0.4).expect("valid moments");
    let gc = GramCharlier::new(&target).expect("valid expansion");
    c.bench_function("gram_charlier_build_sampler", |b| {
        b.iter(|| black_box(gc.positive_sampler().expect("samplable")))
    });
    let sampler = gc.positive_sampler().expect("samplable");
    let mut rng = StdRng::seed_from_u64(5);
    c.bench_function("gram_charlier_sample_1k", |b| {
        b.iter(|| black_box(sampler.sample_n(&mut rng, 1000)))
    });
}

/// Reference point: the engine on a trivial problem, isolating engine
/// overhead from evaluation cost.
fn bench_engine_overhead(c: &mut Criterion) {
    let problem = Schaffer::default();
    let cfg = Nsga2Config {
        population: 100,
        mutation_rate: 0.5,
        generations: 10,
        parallel: false,
        ..Default::default()
    };
    let engine = EngineConfig::Nsga2(cfg);
    let mut group = c.benchmark_group("engine_overhead_schaffer");
    group.sample_size(30);
    group.bench_function("10_generations", |b| {
        b.iter(|| black_box(engine.run(&problem, vec![], 9)))
    });
    group.finish();
}

criterion_group!(
    engine_benches,
    bench_evaluation,
    bench_sorting,
    bench_generation,
    bench_heuristics,
    bench_sampler,
    bench_engine_overhead
);
criterion_main!(engine_benches);
