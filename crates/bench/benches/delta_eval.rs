//! Evaluation cost on mutation-heavy workloads — the benchmark behind
//! README § Performance.
//!
//! Models the engines' hot loop at population 100: each step picks one
//! individual, applies a two-gene mutation (the allocation problem's
//! mutation operator touches at most two tasks), and needs the mutant's
//! objectives. The `full` arm runs the evaluator on the mutated genome
//! (radix execution order + full schedule walk).
//!
//! The `batched` arm evaluates one whole generation per iteration — 100
//! two-move mutant offspring in a single
//! [`BatchEvaluator::evaluate_jobs`] call, exactly how the engines feed
//! the evaluator — so its per-iter time covers 100 evaluations (divide by
//! 100 to compare per-evaluation cost with the `full` arm). Both arms
//! consume the *same* pre-generated move stream.
//!
//! Run: `cargo bench -p hetsched-bench --bench delta_eval`
//! Smoke: `cargo bench -p hetsched-bench -- --test`

use criterion::{criterion_group, criterion_main, Criterion};
use hetsched_data::{real_system, HcSystem, MachineId, MachineInventory};
use hetsched_sim::{Allocation, BatchEvaluator, BatchJob, Evaluator};
use hetsched_workload::{Trace, TraceGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const POPULATION: usize = 100;
const TASKS: usize = 400;

fn random_genome(rng: &mut StdRng, system: &HcSystem, tasks: usize) -> Allocation {
    Allocation {
        machine: (0..tasks)
            .map(|_| MachineId(rng.gen_range(0..system.machine_count() as u32)))
            .collect(),
        order: (0..tasks).map(|_| rng.gen_range(0..10_000u32)).collect(),
    }
}

/// One gene rewrite: the task gets a new machine and order key.
#[derive(Clone, Copy)]
struct Move {
    task: usize,
    machine: MachineId,
    order: u32,
}

/// Pre-generated mutation stream: (individual, two gene rewrites),
/// mirroring the allocation problem's mutation operator (reassign one
/// task, swap order keys with another).
fn move_stream(
    rng: &mut StdRng,
    system: &HcSystem,
    tasks: usize,
    len: usize,
) -> Vec<(usize, [Move; 2])> {
    let rewrite = |rng: &mut StdRng| Move {
        task: rng.gen_range(0..tasks),
        machine: MachineId(rng.gen_range(0..system.machine_count() as u32)),
        order: rng.gen_range(0..10_000u32),
    };
    (0..len)
        .map(|_| {
            let individual = rng.gen_range(0..POPULATION);
            (individual, [rewrite(rng), rewrite(rng)])
        })
        .collect()
}

fn apply(genome: &mut Allocation, moves: &[Move]) {
    for mv in moves {
        genome.machine[mv.task] = mv.machine;
        genome.order[mv.task] = mv.order;
    }
}

fn bench_system(c: &mut Criterion, label: &str, sys: &HcSystem, trace: &Trace) {
    let mut rng = StdRng::seed_from_u64(33);
    let genomes: Vec<Allocation> = (0..POPULATION)
        .map(|_| random_genome(&mut rng, sys, trace.len()))
        .collect();
    let stream = move_stream(&mut rng, sys, trace.len(), 4096);

    let mut group = c.benchmark_group(format!("delta_eval/{label}"));
    group.bench_function("full", |b| {
        let mut population = genomes.clone();
        let mut ev = Evaluator::new(sys, trace);
        let mut k = 0usize;
        b.iter(|| {
            let (i, moves) = &stream[k % stream.len()];
            k += 1;
            apply(&mut population[*i], moves);
            ev.evaluate(&population[*i])
        });
    });
    group.bench_function("batched", |b| {
        // One generation per iteration: POPULATION two-move offspring
        // evaluated in a single call, then committed as the next
        // generation's parents, as in a real engine run.
        let mut population = genomes.clone();
        let mut batch = BatchEvaluator::new(sys, trace);
        let mut k = 0usize;
        b.iter(|| {
            let start = k;
            k += POPULATION;
            let children: Vec<(usize, Allocation)> = (0..POPULATION)
                .map(|j| {
                    let (i, moves) = &stream[(start + j) % stream.len()];
                    let mut child = population[*i].clone();
                    apply(&mut child, moves);
                    (*i, child)
                })
                .collect();
            let jobs: Vec<BatchJob<'_>> = children
                .iter()
                .map(|(_, child)| BatchJob::Full(child))
                .collect();
            let outcomes = batch.evaluate_jobs(&jobs, true);
            drop(jobs);
            for (i, child) in children {
                population[i] = child;
            }
            outcomes
        });
    });
    group.finish();
}

fn bench_delta_eval(c: &mut Criterion) {
    let real = real_system();
    let synthetic = real
        .with_inventory(MachineInventory::from_counts(vec![6, 6, 6, 6, 6, 5, 5, 5, 5]).unwrap())
        .unwrap();
    for (label, sys) in [("real-9x5", &real), ("synthetic-50", &synthetic)] {
        let trace = TraceGenerator::new(TASKS, 600.0, sys.task_type_count())
            .generate(&mut StdRng::seed_from_u64(9))
            .unwrap();
        bench_system(c, label, sys, &trace);
    }
}

criterion_group!(benches, bench_delta_eval);
criterion_main!(benches);
