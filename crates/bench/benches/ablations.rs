//! Ablation benches for the design choices called out in DESIGN.md. Each
//! group times the variants and, once per process, prints a quality
//! comparison (hypervolume / spread / heterogeneity error) so a bench run
//! documents *why* the chosen design wins, not just how fast it is.

use criterion::{criterion_group, criterion_main, Criterion};
use hetsched_alloc::AllocationProblem;
use hetsched_analysis::{hypervolume, spread, ParetoFront};
use hetsched_bench::ds1_fixture;
use hetsched_heuristics::SeedKind;
use hetsched_moea::nsga2::Survival;
use hetsched_moea::{EngineConfig, Individual, MoeadConfig, Nsga2Config, Spea2Config};
use hetsched_sim::Allocation;
use hetsched_stats::{CornishFisher, GramCharlier, Moments, TabulatedSampler};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Once;

fn front_of(pop: &[Individual<Allocation>]) -> ParetoFront {
    ParetoFront::from_objectives(pop.iter().map(|i| &i.objectives))
}

/// Seeding ablation: each seed kind vs the all-random population at a fixed
/// small budget (the Figs. 3/4/6 mechanism).
fn ablation_seeding(c: &mut Criterion) {
    static REPORT: Once = Once::new();
    let (system, trace) = ds1_fixture(150);
    let problem = AllocationProblem::new(&system, &trace);
    let cfg = Nsga2Config {
        population: 50,
        mutation_rate: 0.5,
        generations: 30,
        parallel: false,
        ..Default::default()
    };
    let engine = EngineConfig::Nsga2(cfg);

    REPORT.call_once(|| {
        // Shared reference corner for hypervolume.
        let mut fronts = Vec::new();
        for kind in SeedKind::ALL {
            let pop = engine.run(&problem, kind.seeds(&system, &trace), 42);
            fronts.push((kind, front_of(&pop)));
        }
        let ref_e = fronts
            .iter()
            .flat_map(|(_, f)| f.points())
            .map(|p| p.energy)
            .fold(0.0f64, f64::max);
        eprintln!("\n[ablation] seeding quality at 30 generations (hypervolume, bigger=better):");
        for (kind, front) in &fronts {
            eprintln!(
                "[ablation]   {:<24} hv {:.4e}  ({} points)",
                kind.label(),
                hypervolume(front, 0.0, ref_e),
                front.len()
            );
        }
    });

    let mut group = c.benchmark_group("ablation_seeding");
    group.sample_size(10);
    for kind in [SeedKind::MinEnergy, SeedKind::Random] {
        group.bench_function(kind.label(), |b| {
            b.iter(|| black_box(engine.run(&problem, kind.seeds(&system, &trace), 42)))
        });
    }
    group.finish();
}

/// Survival-rule ablation: crowding-distance truncation vs naive
/// truncation (quality: front spread — crowding should distribute points
/// more evenly; Deb's Δ closer to 0).
fn ablation_survival(c: &mut Criterion) {
    static REPORT: Once = Once::new();
    let (system, trace) = ds1_fixture(100);
    let problem = AllocationProblem::new(&system, &trace);
    let mk = |survival| Nsga2Config {
        population: 40,
        mutation_rate: 0.5,
        generations: 40,
        parallel: false,
        survival,
        ..Default::default()
    };

    REPORT.call_once(|| {
        let crowd = front_of(&EngineConfig::Nsga2(mk(Survival::Crowding)).run(&problem, vec![], 7));
        let trunc = front_of(&EngineConfig::Nsga2(mk(Survival::Truncate)).run(&problem, vec![], 7));
        eprintln!(
            "\n[ablation] survival rule: crowding spread Δ = {:.3} ({} pts) vs naive {:.3} ({} pts)",
            spread(&crowd),
            crowd.len(),
            spread(&trunc),
            trunc.len()
        );
    });

    let mut group = c.benchmark_group("ablation_survival");
    group.sample_size(10);
    group.bench_function("crowding", |b| {
        b.iter(|| black_box(EngineConfig::Nsga2(mk(Survival::Crowding)).run(&problem, vec![], 7)))
    });
    group.bench_function("naive_truncate", |b| {
        b.iter(|| black_box(EngineConfig::Nsga2(mk(Survival::Truncate)).run(&problem, vec![], 7)))
    });
    group.finish();
}

/// Mutation-rate sweep ("selected by experimentation" in the paper).
fn ablation_mutation_rate(c: &mut Criterion) {
    static REPORT: Once = Once::new();
    let (system, trace) = ds1_fixture(100);
    let problem = AllocationProblem::new(&system, &trace);
    let mk = |rate| Nsga2Config {
        population: 40,
        mutation_rate: rate,
        generations: 40,
        parallel: false,
        ..Default::default()
    };

    REPORT.call_once(|| {
        eprintln!("\n[ablation] mutation rate sweep (hypervolume at 40 generations):");
        let mut fronts = Vec::new();
        for &rate in &[0.0, 0.25, 0.5, 0.75, 1.0] {
            fronts.push((
                rate,
                front_of(&EngineConfig::Nsga2(mk(rate)).run(&problem, vec![], 13)),
            ));
        }
        let ref_e = fronts
            .iter()
            .flat_map(|(_, f)| f.points())
            .map(|p| p.energy)
            .fold(0.0f64, f64::max);
        for (rate, front) in &fronts {
            eprintln!(
                "[ablation]   rate {:.2}: hv {:.4e}",
                rate,
                hypervolume(front, 0.0, ref_e)
            );
        }
    });

    let mut group = c.benchmark_group("ablation_mutation_rate");
    group.sample_size(10);
    for &rate in &[0.0, 0.5, 1.0] {
        group.bench_function(format!("rate_{rate}"), |b| {
            b.iter(|| black_box(EngineConfig::Nsga2(mk(rate)).run(&problem, vec![], 13)))
        });
    }
    group.finish();
}

/// Sampler ablation: Gram-Charlier vs plain normal with the same mean and
/// variance — the GC expansion also matches skewness/kurtosis, a plain
/// normal cannot.
fn ablation_sampler(c: &mut Criterion) {
    static REPORT: Once = Once::new();
    // Target with strong shape (realistic for execution-time data).
    let target = Moments::from_measures(100.0, 900.0, 0.8, 0.9).expect("valid");
    let gc = GramCharlier::new(&target).expect("valid");
    let gc_sampler = gc.positive_sampler().expect("samplable");
    // Plain normal with matching mean/variance only.
    let (mu, sd) = (target.mean, target.std_dev());
    let normal_sampler = TabulatedSampler::from_density(
        |x| (-0.5 * ((x - mu) / sd).powi(2)).exp(),
        mu - 6.0 * sd,
        mu + 6.0 * sd,
        4096,
    )
    .expect("valid density");

    let cf = CornishFisher::new(&target).expect("valid");

    REPORT.call_once(|| {
        let mut rng = StdRng::seed_from_u64(3);
        let a = Moments::from_sample(&gc_sampler.sample_n(&mut rng, 100_000)).expect("ok");
        let b = Moments::from_sample(&normal_sampler.sample_n(&mut rng, 100_000)).expect("ok");
        let cf_sample: Vec<f64> = (0..100_000).map(|_| cf.sample(&mut rng)).collect();
        let c = Moments::from_sample(&cf_sample).expect("ok");
        eprintln!(
            "\n[ablation] sampler shape error vs target (skew {:.2}, kurt {:.2}):",
            target.skewness, target.kurtosis
        );
        eprintln!(
            "[ablation]   gram-charlier : skew {:+.3} kurt {:+.3}",
            a.skewness, a.kurtosis
        );
        eprintln!(
            "[ablation]   cornish-fisher: skew {:+.3} kurt {:+.3}",
            c.skewness, c.kurtosis
        );
        eprintln!(
            "[ablation]   plain normal  : skew {:+.3} kurt {:+.3}",
            b.skewness, b.kurtosis
        );
    });

    let mut rng = StdRng::seed_from_u64(4);
    let mut group = c.benchmark_group("ablation_sampler");
    group.bench_function("gram_charlier_1k", |b| {
        b.iter(|| black_box(gc_sampler.sample_n(&mut rng, 1000)))
    });
    group.bench_function("cornish_fisher_1k", |b| {
        b.iter(|| black_box((0..1000).map(|_| cf.sample(&mut rng)).collect::<Vec<f64>>()))
    });
    group.bench_function("plain_normal_1k", |b| {
        b.iter(|| black_box(normal_sampler.sample_n(&mut rng, 1000)))
    });
    group.finish();
}

/// Engine ablation: NSGA-II vs SPEA2 on the scheduling problem at the same
/// evaluation budget.
fn ablation_engine(c: &mut Criterion) {
    static REPORT: Once = Once::new();
    let (system, trace) = ds1_fixture(120);
    let problem = AllocationProblem::new(&system, &trace);
    let generations = 40;
    let nsga_cfg = Nsga2Config {
        population: 40,
        mutation_rate: 0.5,
        generations,
        parallel: false,
        ..Default::default()
    };
    let spea_cfg = EngineConfig::Spea2(Spea2Config {
        population: 40,
        archive: 40,
        mutation_rate: 0.5,
        generations,
        ..Default::default()
    });

    let moead_cfg = EngineConfig::Moead(MoeadConfig {
        subproblems: 40,
        neighbours: 8,
        mutation_rate: 0.5,
        generations,
        hv_reference: None,
    });

    REPORT.call_once(|| {
        let nsga = front_of(&EngineConfig::Nsga2(nsga_cfg).run(&problem, vec![], 21));
        let spea = front_of(&spea_cfg.run(&problem, vec![], 21));
        let md = front_of(&moead_cfg.run(&problem, vec![], 21));
        let ref_e = nsga
            .points()
            .iter()
            .chain(spea.points())
            .chain(md.points())
            .map(|p| p.energy)
            .fold(0.0f64, f64::max);
        eprintln!(
            "\n[ablation] engines at {generations} generations:\n[ablation]   NSGA-II hv {:.4e} ({} pts, Δ {:.3})\n[ablation]   SPEA2   hv {:.4e} ({} pts, Δ {:.3})\n[ablation]   MOEA/D  hv {:.4e} ({} pts, Δ {:.3})",
            hypervolume(&nsga, 0.0, ref_e),
            nsga.len(),
            spread(&nsga),
            hypervolume(&spea, 0.0, ref_e),
            spea.len(),
            spread(&spea),
            hypervolume(&md, 0.0, ref_e),
            md.len(),
            spread(&md),
        );
    });

    let mut group = c.benchmark_group("ablation_engine");
    group.sample_size(10);
    group.bench_function("nsga2", |b| {
        b.iter(|| black_box(EngineConfig::Nsga2(nsga_cfg).run(&problem, vec![], 21)))
    });
    group.bench_function("spea2", |b| {
        b.iter(|| black_box(spea_cfg.run(&problem, vec![], 21)))
    });
    group.bench_function("moead", |b| {
        b.iter(|| black_box(moead_cfg.run(&problem, vec![], 21)))
    });
    group.finish();
}

/// Evaluation-path ablation: the sorted-sweep hot path vs the event-driven
/// reference simulator on identical inputs.
fn ablation_eval_path(c: &mut Criterion) {
    let (system, trace) = ds1_fixture(250);
    let problem = AllocationProblem::new(&system, &trace);
    let mut rng = StdRng::seed_from_u64(6);
    let genome = {
        use hetsched_moea::Problem;
        problem.random_genome(&mut rng)
    };
    let mut ev = hetsched_sim::Evaluator::new(&system, &trace);
    let mut group = c.benchmark_group("ablation_eval_path");
    group.bench_function("sweep", |b| b.iter(|| black_box(ev.evaluate(&genome))));
    group.bench_function("event_driven", |b| {
        b.iter(|| {
            black_box(
                hetsched_sim::evaluate_event_driven(&system, &trace, &genome)
                    .expect("valid allocation"),
            )
        })
    });
    group.finish();
}

criterion_group!(
    ablation_benches,
    ablation_seeding,
    ablation_survival,
    ablation_mutation_rate,
    ablation_sampler,
    ablation_engine,
    ablation_eval_path
);
criterion_main!(ablation_benches);
