//! Property suite: the incremental delta evaluator is **bit-identical** to
//! the reference evaluator.
//!
//! Every comparison here uses `f64::total_cmp`, not a tolerance — the delta
//! path's contract (see `hetsched_sim::delta`) is that it performs exactly
//! the same float operations as `Evaluator::evaluate`, so the results must
//! match to the last bit on arbitrary genomes, arbitrary move sequences,
//! and degenerate inputs (idle machines, everything on one machine, no-op
//! moves). The suite runs against the real 9-machine dataset and against
//! inventory-derived variants (a 3-machine subset and a 50-machine
//! synthetic expansion).

use hetsched_data::{real_system, HcSystem, MachineId, MachineInventory};
use hetsched_sim::{genome_fingerprint, Allocation, Evaluator, Outcome, ScheduleCache, TaskMove};
use hetsched_workload::{Trace, TraceGenerator};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The three systems the suite exercises: the paper's real 9×5 dataset, a
/// 3-machine subset (one of each of the first three types), and a
/// 50-machine synthetic expansion.
fn system(kind: u8) -> HcSystem {
    let base = real_system();
    match kind % 3 {
        0 => base,
        1 => base
            .with_inventory(MachineInventory::from_counts(vec![1, 1, 1, 0, 0, 0, 0, 0, 0]).unwrap())
            .unwrap(),
        _ => base
            .with_inventory(MachineInventory::from_counts(vec![6, 6, 6, 6, 6, 5, 5, 5, 5]).unwrap())
            .unwrap(),
    }
}

fn trace_for(system: &HcSystem, tasks: usize, seed: u64) -> Trace {
    TraceGenerator::new(tasks, 600.0, system.task_type_count())
        .generate(&mut StdRng::seed_from_u64(seed))
        .unwrap()
}

/// Uniform random genome. All machines in the systems above are feasible
/// for every task type (the real ETC matrix is fully finite), so a uniform
/// machine draw is always valid.
fn random_genome(rng: &mut StdRng, system: &HcSystem, tasks: usize) -> Allocation {
    Allocation {
        machine: (0..tasks)
            .map(|_| MachineId(rng.gen_range(0..system.machine_count() as u32)))
            .collect(),
        order: (0..tasks).map(|_| rng.gen_range(0..1_000u32)).collect(),
    }
}

fn random_move(rng: &mut StdRng, system: &HcSystem, tasks: usize) -> TaskMove {
    TaskMove {
        task: rng.gen_range(0..tasks as u32),
        machine: MachineId(rng.gen_range(0..system.machine_count() as u32)),
        order: rng.gen_range(0..1_000u32),
    }
}

fn apply_to_genome(genome: &mut Allocation, moves: &[TaskMove]) {
    for mv in moves {
        genome.machine[mv.task as usize] = mv.machine;
        genome.order[mv.task as usize] = mv.order;
    }
}

#[track_caller]
fn assert_bit_identical(delta: Outcome, reference: Outcome) {
    assert!(
        delta.utility.total_cmp(&reference.utility).is_eq()
            && delta.energy.total_cmp(&reference.energy).is_eq()
            && delta.makespan.total_cmp(&reference.makespan).is_eq(),
        "delta {delta:?} != reference {reference:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One move at a time, chained: after every single move the cache's
    /// outcome equals a from-scratch reference evaluation of the mutated
    /// genome, bit for bit.
    #[test]
    fn chained_single_moves_match_reference(
        kind in 0u8..3,
        tasks in 1usize..40,
        steps in 1usize..50,
        seed in 0u64..1_000_000,
    ) {
        let sys = system(kind);
        let trace = trace_for(&sys, tasks, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD1FF);
        let mut genome = random_genome(&mut rng, &sys, tasks);
        let mut delta = ScheduleCache::build(&sys, &trace, &genome);
        let mut reference = Evaluator::new(&sys, &trace);
        assert_bit_identical(delta.outcome(), reference.evaluate(&genome));
        for _ in 0..steps {
            let mv = random_move(&mut rng, &sys, tasks);
            let got = delta.apply(&sys, &trace, &[mv]);
            apply_to_genome(&mut genome, &[mv]);
            prop_assert!(delta.baseline() == &genome);
            assert_bit_identical(got, reference.evaluate(&genome));
        }
    }

    /// Whole batches of moves (including repeated edits to the same task,
    /// where the last move wins) applied in one `apply` call.
    #[test]
    fn batched_moves_match_reference(
        kind in 0u8..3,
        tasks in 1usize..40,
        batches in prop::collection::vec(1usize..12, 1..8),
        seed in 0u64..1_000_000,
    ) {
        let sys = system(kind);
        let trace = trace_for(&sys, tasks, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBA7C);
        let mut genome = random_genome(&mut rng, &sys, tasks);
        let mut delta = ScheduleCache::build(&sys, &trace, &genome);
        let mut reference = Evaluator::new(&sys, &trace);
        for batch in batches {
            let moves: Vec<TaskMove> =
                (0..batch).map(|_| random_move(&mut rng, &sys, tasks)).collect();
            apply_to_genome(&mut genome, &moves);
            let got = delta.apply(&sys, &trace, &moves);
            prop_assert!(delta.baseline() == &genome);
            assert_bit_identical(got, reference.evaluate(&genome));
        }
    }

    /// Moves that restate a task's current placement change nothing: the
    /// outcome stays bitwise equal to the reference on the same genome.
    #[test]
    fn noop_moves_are_identity(
        kind in 0u8..3,
        tasks in 1usize..30,
        picks in prop::collection::vec(0usize..30, 1..10),
        seed in 0u64..1_000_000,
    ) {
        let sys = system(kind);
        let trace = trace_for(&sys, tasks, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0A11);
        let genome = random_genome(&mut rng, &sys, tasks);
        let mut delta = ScheduleCache::build(&sys, &trace, &genome);
        let before = delta.outcome();
        let moves: Vec<TaskMove> = picks
            .iter()
            .map(|&p| {
                let t = p % tasks;
                TaskMove {
                    task: t as u32,
                    machine: genome.machine[t],
                    order: genome.order[t],
                }
            })
            .collect();
        let after = delta.apply(&sys, &trace, &moves);
        prop_assert!(delta.baseline() == &genome);
        assert_bit_identical(after, before);
        assert_bit_identical(after, Evaluator::new(&sys, &trace).evaluate(&genome));
    }

    /// Degenerate pile-up: every task on one machine (all other queues
    /// empty), then moves that only reshuffle the order keys.
    #[test]
    fn single_machine_pileup_matches_reference(
        kind in 0u8..3,
        tasks in 1usize..25,
        target in 0u32..50,
        steps in 1usize..20,
        seed in 0u64..1_000_000,
    ) {
        let sys = system(kind);
        let machine = MachineId(target % sys.machine_count() as u32);
        let trace = trace_for(&sys, tasks, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EAF);
        let mut genome = Allocation {
            machine: vec![machine; tasks],
            order: (0..tasks).map(|_| rng.gen_range(0..100u32)).collect(),
        };
        let mut delta = ScheduleCache::build(&sys, &trace, &genome);
        let mut reference = Evaluator::new(&sys, &trace);
        assert_bit_identical(delta.outcome(), reference.evaluate(&genome));
        for _ in 0..steps {
            let mv = TaskMove {
                task: rng.gen_range(0..tasks as u32),
                machine,
                order: rng.gen_range(0..100u32),
            };
            let got = delta.apply(&sys, &trace, &[mv]);
            apply_to_genome(&mut genome, &[mv]);
            assert_bit_identical(got, reference.evaluate(&genome));
        }
    }

    /// The incremental fingerprint always agrees with a from-scratch
    /// fingerprint of the tracked genome.
    #[test]
    fn fingerprint_is_path_independent(
        kind in 0u8..3,
        tasks in 1usize..30,
        steps in 1usize..40,
        seed in 0u64..1_000_000,
    ) {
        let sys = system(kind);
        let trace = trace_for(&sys, tasks, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF1F0);
        let mut genome = random_genome(&mut rng, &sys, tasks);
        let mut delta = ScheduleCache::build(&sys, &trace, &genome);
        for _ in 0..steps {
            let mv = random_move(&mut rng, &sys, tasks);
            delta.apply(&sys, &trace, &[mv]);
            apply_to_genome(&mut genome, &[mv]);
            prop_assert_eq!(delta.fingerprint(), genome_fingerprint(&genome));
        }
    }
}

/// `Evaluator::evaluate_delta` — the pooled fast path the engines call —
/// agrees bit-for-bit with full re-evaluation, across cache hits, misses,
/// and interleaved base genomes.
mod fast_path {
    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn evaluate_delta_matches_evaluate(
            kind in 0u8..3,
            tasks in 1usize..40,
            children in 1usize..30,
            seed in 0u64..1_000_000,
        ) {
            let sys = system(kind);
            let trace = trace_for(&sys, tasks, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xFA57);
            let mut ev = Evaluator::new(&sys, &trace);
            let mut reference = Evaluator::new(&sys, &trace);
            // A small pool of live "parents", as a population would hold.
            let mut bases: Vec<Allocation> =
                (0..4).map(|_| random_genome(&mut rng, &sys, tasks)).collect();
            for i in 0..children {
                let slot = i % bases.len();
                let base = bases[slot].clone();
                let moves: Vec<TaskMove> = (0..rng.gen_range(1..4))
                    .map(|_| random_move(&mut rng, &sys, tasks))
                    .collect();
                let mut child = base.clone();
                apply_to_genome(&mut child, &moves);
                let got = ev.evaluate_delta(&base, &child);
                assert_bit_identical(got, reference.evaluate(&child));
                bases[slot] = child;
            }
        }
    }
}

/// Fixed-shape degenerate cases that random generation could miss.
mod degenerate {
    use super::*;

    /// A one-task trace: moving the only task around machines and order
    /// keys stays bit-identical to the reference.
    #[test]
    fn single_task_trace() {
        for kind in 0u8..3 {
            let sys = system(kind);
            let trace = trace_for(&sys, 1, 7);
            let mut genome = Allocation {
                machine: vec![MachineId(0)],
                order: vec![0],
            };
            let mut delta = ScheduleCache::build(&sys, &trace, &genome);
            let mut reference = Evaluator::new(&sys, &trace);
            for m in 0..sys.machine_count() as u32 {
                let mv = TaskMove {
                    task: 0,
                    machine: MachineId(m),
                    order: m,
                };
                let got = delta.apply(&sys, &trace, &[mv]);
                apply_to_genome(&mut genome, &[mv]);
                assert_bit_identical(got, reference.evaluate(&genome));
            }
        }
    }

    /// Emptying a machine's queue entirely (and refilling it) round-trips.
    #[test]
    fn drain_and_refill_queue() {
        let sys = system(0);
        let tasks = 6;
        let trace = trace_for(&sys, tasks, 11);
        let mut genome = Allocation {
            machine: vec![MachineId(2); tasks],
            order: (0..tasks as u32).collect(),
        };
        let mut delta = ScheduleCache::build(&sys, &trace, &genome);
        let mut reference = Evaluator::new(&sys, &trace);
        // Drain machine 2 one task at a time onto machine 5.
        for t in 0..tasks as u32 {
            let mv = TaskMove {
                task: t,
                machine: MachineId(5),
                order: t,
            };
            let got = delta.apply(&sys, &trace, &[mv]);
            apply_to_genome(&mut genome, &[mv]);
            assert_bit_identical(got, reference.evaluate(&genome));
        }
        // Refill in reverse order.
        for t in (0..tasks as u32).rev() {
            let mv = TaskMove {
                task: t,
                machine: MachineId(2),
                order: tasks as u32 - t,
            };
            let got = delta.apply(&sys, &trace, &[mv]);
            apply_to_genome(&mut genome, &[mv]);
            assert_bit_identical(got, reference.evaluate(&genome));
        }
    }

    /// Order-key ties break by task id identically on both paths.
    #[test]
    fn tied_order_keys() {
        let sys = system(1);
        let tasks = 8;
        let trace = trace_for(&sys, tasks, 13);
        let genome = Allocation {
            machine: (0..tasks)
                .map(|i| MachineId((i % sys.machine_count()) as u32))
                .collect(),
            order: vec![42; tasks],
        };
        let mut delta = ScheduleCache::build(&sys, &trace, &genome);
        let mut reference = Evaluator::new(&sys, &trace);
        assert_bit_identical(delta.outcome(), reference.evaluate(&genome));
        // Move everything onto one machine, still all tied.
        let moves: Vec<TaskMove> = (0..tasks as u32)
            .map(|t| TaskMove {
                task: t,
                machine: MachineId(0),
                order: 42,
            })
            .collect();
        let got = delta.apply(&sys, &trace, &moves);
        let piled = Allocation {
            machine: vec![MachineId(0); tasks],
            order: vec![42; tasks],
        };
        assert_bit_identical(got, reference.evaluate(&piled));
    }
}
