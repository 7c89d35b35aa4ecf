//! Incremental (delta) evaluation: recompute only the machines touched by
//! a variation instead of re-simulating the whole allocation.
//!
//! Machine queues are independent under the paper's semantics — a task's
//! start time depends only on its arrival and the previous finish time on
//! *its own* machine — so the two objectives decompose into per-machine
//! subtotals:
//!
//! ```text
//! U = Σ_m U_m     E = Σ_m E_m     makespan = max_m last_finish_m
//! ```
//!
//! [`ScheduleCache`] materialises that decomposition for one genome:
//! per-machine task queues (in execution order), per-task finish times, and
//! per-machine *prefix sums* of utility and energy. A [`TaskMove`] — one
//! gene rewrite — invalidates only a suffix of at most two queues, so
//! applying a typical mutation costs O(touched-queue tails) instead of
//! O(tasks · log tasks).
//!
//! # Bit-identity contract
//!
//! The cache reproduces [`crate::Evaluator::evaluate`] **bit for bit**, not
//! approximately, because both sides perform the exact same floating-point
//! operations in the exact same order:
//!
//! * per machine, utility/energy are accumulated as a left fold in queue
//!   order (the reference evaluator's global walk visits each machine's
//!   queue members in that same order and folds into per-machine
//!   accumulators);
//! * the cross-machine totals are summed in ascending machine index, the
//!   same loop the reference evaluator runs.
//!
//! The property suite in `tests/` asserts this equality with `total_cmp`
//! on arbitrary genomes and move sequences.

use crate::allocation::Allocation;
use crate::evaluator::Outcome;
use hetsched_data::{HcSystem, MachineId};
use hetsched_workload::Trace;

/// One gene rewrite: task `task` now runs on `machine` with global
/// scheduling-order key `order` (absolute new values, not deltas).
///
/// A sequence of moves is applied left to right; a later move for the same
/// task overrides an earlier one. [`crate::Evaluator::evaluate_delta`]
/// diffs a child against its parent into such a list to take the
/// incremental path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskMove {
    /// Index of the rewritten task (gene) in the trace.
    pub task: u32,
    /// The task's new machine assignment.
    pub machine: MachineId,
    /// The task's new global scheduling-order key.
    pub order: u32,
}

#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[inline]
fn gene_hash(task: usize, machine: MachineId, order: u32) -> u64 {
    splitmix64(splitmix64((task as u64) << 32 | machine.index() as u64) ^ order as u64)
}

/// Order-independent fingerprint of a genome (XOR of per-gene hashes), used
/// as a cheap prefilter before full equality when looking up cached
/// schedules. Collisions are harmless — lookups always confirm with `==`.
pub fn genome_fingerprint(genome: &Allocation) -> u64 {
    genome
        .machine
        .iter()
        .zip(&genome.order)
        .enumerate()
        .fold(0u64, |acc, (i, (&m, &o))| acc ^ gene_hash(i, m, o))
}

/// A decomposed schedule for one genome: per-machine queues, finish times,
/// and utility/energy prefix sums, kept consistent under [`TaskMove`]
/// application.
///
/// # Data layout (SoA arena)
///
/// All per-machine data lives in a handful of flat arenas instead of nested
/// vecs. Machine `m` owns the half-open slice `[seg_start[m], seg_start[m] +
/// seg_cap[m])` of the per-slot arenas (`queue`, `finish`, …) (of which the first
/// `seg_len[m]` entries are live), and — because each prefix segment is one
/// slot longer than its queue — the slice starting at `seg_start[m] + m` of
/// the `util_prefix`/`energy_prefix` arenas. Segments are laid out in
/// ascending machine order with a little slack capacity so inserts rarely
/// reallocate; a full insert triggers [`ScheduleCache::grow`], which shifts
/// the arena tail (rare, amortised). The whole cache is a handful of flat
/// allocations, and steady-state `apply` allocates nothing.
///
/// # Memoised slot values
///
/// Each queue slot also carries the task's execution time and energy —
/// pure functions of (task type, machine), so they stay valid under any
/// reordering of the segment. `recompute` therefore walks flat `f64`
/// arenas instead of chasing the ETC matrices through the task structs.
#[derive(Debug, Clone)]
pub struct ScheduleCache {
    /// The genome this cache currently describes.
    baseline: Allocation,
    /// [`genome_fingerprint`] of `baseline`, updated incrementally.
    fingerprint: u64,
    /// Arena offset of machine m's queue segment.
    seg_start: Vec<u32>,
    /// Capacity of machine m's queue segment.
    seg_cap: Vec<u32>,
    /// Live entries in machine m's queue segment.
    seg_len: Vec<u32>,
    /// Task ids per machine, ascending (order key, task id).
    queue: Vec<u32>,
    /// Completion time of the k-th task on machine m at `seg_start[m] + k`.
    finish: Vec<f64>,
    /// Execution time of the task in each slot on its segment's machine
    /// (reorder-invariant, filled on insert/rebuild).
    exec_t: Vec<f64>,
    /// Energy analogue of `exec_t`.
    energy_t: Vec<f64>,
    /// Utility earned by the first k tasks on m at `seg_start[m] + m + k`
    /// (segment length `seg_cap[m] + 1`; slot k = 0 is always 0.0).
    util_prefix: Vec<f64>,
    /// Energy analogue of `util_prefix`.
    energy_prefix: Vec<f64>,
    /// Per-machine objective totals, maintained by `recompute` so
    /// [`ScheduleCache::outcome`] reduces three flat arrays.
    total_util: Vec<f64>,
    /// Energy analogue of `total_util`.
    total_energy: Vec<f64>,
    /// Finish time of machine m's last task (0.0 for an empty queue).
    last_finish: Vec<f64>,
    /// First invalid queue position per machine; `usize::MAX` = clean.
    dirty_from: Vec<usize>,
    /// Machines with a pending recompute (scratch for `apply`).
    dirty: Vec<u32>,
}

impl ScheduleCache {
    /// Builds the cache for `genome` (one full evaluation's worth of work).
    pub fn build(system: &HcSystem, trace: &Trace, genome: &Allocation) -> Self {
        let mc = system.machine_count();
        let mut cache = ScheduleCache {
            baseline: Allocation {
                machine: Vec::new(),
                order: Vec::new(),
            },
            fingerprint: 0,
            seg_start: Vec::with_capacity(mc),
            seg_cap: Vec::with_capacity(mc),
            seg_len: Vec::with_capacity(mc),
            queue: Vec::new(),
            finish: Vec::new(),
            exec_t: Vec::new(),
            energy_t: Vec::new(),
            util_prefix: Vec::new(),
            energy_prefix: Vec::new(),
            total_util: Vec::with_capacity(mc),
            total_energy: Vec::with_capacity(mc),
            last_finish: Vec::with_capacity(mc),
            dirty_from: vec![usize::MAX; mc],
            dirty: Vec::new(),
        };
        cache.rebuild(system, trace, genome);
        cache
    }

    #[inline]
    fn machine_count(&self) -> usize {
        self.seg_start.len()
    }

    /// Start of machine m's prefix segment (queue offset plus one extra
    /// leading slot per preceding machine).
    #[inline]
    fn prefix_start(&self, m: usize) -> usize {
        self.seg_start[m] as usize + m
    }

    /// Re-targets the cache at a different genome, reusing its buffers.
    /// Costs one full evaluation; `apply` afterwards is incremental.
    pub fn rebuild(&mut self, system: &HcSystem, trace: &Trace, genome: &Allocation) {
        debug_assert!(genome.validate(system, trace).is_ok());
        let mc = system.machine_count();
        self.baseline.clone_from(genome);
        self.fingerprint = genome_fingerprint(genome);
        // Pass 1: queue lengths per machine, then lay out the arena with
        // slack so a burst of inserts doesn't immediately force a grow.
        self.seg_len.clear();
        self.seg_len.resize(mc, 0);
        for &m in &genome.machine {
            self.seg_len[m.index()] += 1;
        }
        self.seg_start.clear();
        self.seg_cap.clear();
        let mut off: u32 = 0;
        for m in 0..mc {
            let len = self.seg_len[m];
            let cap = len + (len / 4).max(4);
            self.seg_start.push(off);
            self.seg_cap.push(cap);
            off += cap;
        }
        let qtotal = off as usize;
        self.queue.clear();
        self.queue.resize(qtotal, 0);
        self.finish.clear();
        self.finish.resize(qtotal, 0.0);
        self.exec_t.clear();
        self.exec_t.resize(qtotal, 0.0);
        self.energy_t.clear();
        self.energy_t.resize(qtotal, 0.0);
        self.util_prefix.clear();
        self.util_prefix.resize(qtotal + mc, 0.0);
        self.energy_prefix.clear();
        self.energy_prefix.resize(qtotal + mc, 0.0);
        self.total_util.clear();
        self.total_util.resize(mc, 0.0);
        self.total_energy.clear();
        self.total_energy.resize(mc, 0.0);
        self.last_finish.clear();
        self.last_finish.resize(mc, 0.0);
        self.dirty_from.clear();
        self.dirty_from.resize(mc, usize::MAX);
        self.dirty.clear();
        // Pass 2: scatter tasks into their segments (seg_len doubles as the
        // write cursor), then sort each segment into execution order =
        // ascending (order key, task id), the machine's slice of the global
        // sequence.
        self.seg_len.clear();
        self.seg_len.resize(mc, 0);
        for (i, &m) in genome.machine.iter().enumerate() {
            let mi = m.index();
            self.queue[(self.seg_start[mi] + self.seg_len[mi]) as usize] = i as u32;
            self.seg_len[mi] += 1;
        }
        let tasks = trace.tasks();
        for m in 0..mc {
            let s = self.seg_start[m] as usize;
            let len = self.seg_len[m] as usize;
            self.queue[s..s + len].sort_unstable_by_key(|&i| (genome.order[i as usize], i));
            let machine = MachineId(m as u32);
            for k in s..s + len {
                let task = &tasks[self.queue[k] as usize];
                self.exec_t[k] = system.exec_time(task.task_type, machine);
                self.energy_t[k] = system.energy(task.task_type, machine);
            }
        }
        for m in 0..mc {
            self.recompute(trace, m, 0);
        }
    }

    /// Applies `moves` to the cached genome and returns the updated
    /// objectives. Only queues touched by the moves are recomputed, from
    /// the earliest edited position onward.
    ///
    /// Each move must name a task present in the cached baseline (any task
    /// is, when the baseline covers the trace); debug builds assert the
    /// queue bookkeeping stays consistent.
    pub fn apply(&mut self, system: &HcSystem, trace: &Trace, moves: &[TaskMove]) -> Outcome {
        debug_assert_eq!(self.machine_count(), system.machine_count());
        for mv in moves {
            let t = mv.task as usize;
            let old_m = self.baseline.machine[t];
            let old_o = self.baseline.order[t];
            {
                // Remove from the old queue: binary search on the (key, id)
                // pair — unique per task, and every other queue member still
                // carries its current key in `baseline.order`.
                let mi = old_m.index();
                let s = self.seg_start[mi] as usize;
                let len = self.seg_len[mi] as usize;
                let order = &self.baseline.order;
                let pos = self.queue[s..s + len]
                    .partition_point(|&u| (order[u as usize], u) < (old_o, mv.task));
                debug_assert!(
                    pos < len && self.queue[s + pos] == mv.task,
                    "TaskMove does not match the cached baseline"
                );
                self.shift_slots_left(s + pos, s + len);
                self.seg_len[mi] -= 1;
                mark_dirty(&mut self.dirty_from, &mut self.dirty, mi, pos);
            }
            self.fingerprint ^= gene_hash(t, old_m, old_o);
            self.baseline.machine[t] = mv.machine;
            self.baseline.order[t] = mv.order;
            self.fingerprint ^= gene_hash(t, mv.machine, mv.order);
            {
                let mi = mv.machine.index();
                if self.seg_len[mi] == self.seg_cap[mi] {
                    self.grow(mi);
                }
                let s = self.seg_start[mi] as usize;
                let len = self.seg_len[mi] as usize;
                let order = &self.baseline.order;
                let pos = self.queue[s..s + len]
                    .partition_point(|&u| (order[u as usize], u) < (mv.order, mv.task));
                self.shift_slots_right(s + pos, s + len);
                let task = &trace.tasks()[t];
                self.queue[s + pos] = mv.task;
                self.exec_t[s + pos] = system.exec_time(task.task_type, mv.machine);
                self.energy_t[s + pos] = system.energy(task.task_type, mv.machine);
                self.seg_len[mi] += 1;
                mark_dirty(&mut self.dirty_from, &mut self.dirty, mi, pos);
            }
        }
        let dirty = std::mem::take(&mut self.dirty);
        for &m in &dirty {
            let from = self.dirty_from[m as usize];
            self.dirty_from[m as usize] = usize::MAX;
            self.recompute(trace, m as usize, from);
        }
        self.dirty = dirty;
        self.dirty.clear();
        self.outcome()
    }

    /// Widens machine `m`'s segment by shifting every later segment towards
    /// the arena tail. Rare: segments are laid out with slack, and removals
    /// never grow. One `memmove` per arena, no recomputation — the shifted
    /// bits are preserved exactly.
    /// Shifts the per-slot arenas left by one over `[from + 1, end)`
    /// (removal at `from`); the memoised values travel with their tasks.
    #[inline]
    fn shift_slots_left(&mut self, from: usize, end: usize) {
        self.queue.copy_within(from + 1..end, from);
        self.finish.copy_within(from + 1..end, from);
        self.exec_t.copy_within(from + 1..end, from);
        self.energy_t.copy_within(from + 1..end, from);
    }

    /// Shifts the per-slot arenas right by one over `[from, end)` (insert
    /// at `from`); the caller fills slot `from` afterwards.
    #[inline]
    fn shift_slots_right(&mut self, from: usize, end: usize) {
        self.queue.copy_within(from..end, from + 1);
        self.finish.copy_within(from..end, from + 1);
        self.exec_t.copy_within(from..end, from + 1);
        self.energy_t.copy_within(from..end, from + 1);
    }

    #[cold]
    fn grow(&mut self, m: usize) {
        let extra = (self.seg_cap[m] / 2).max(4);
        let mc = self.machine_count();
        let old_q = self.queue.len();
        let old_p = self.util_prefix.len();
        self.queue.resize(old_q + extra as usize, 0);
        self.finish.resize(old_q + extra as usize, 0.0);
        self.exec_t.resize(old_q + extra as usize, 0.0);
        self.energy_t.resize(old_q + extra as usize, 0.0);
        self.util_prefix.resize(old_p + extra as usize, 0.0);
        self.energy_prefix.resize(old_p + extra as usize, 0.0);
        if m + 1 < mc {
            let s = self.seg_start[m + 1] as usize;
            self.queue.copy_within(s..old_q, s + extra as usize);
            self.finish.copy_within(s..old_q, s + extra as usize);
            self.exec_t.copy_within(s..old_q, s + extra as usize);
            self.energy_t.copy_within(s..old_q, s + extra as usize);
            let ps = s + (m + 1);
            self.util_prefix.copy_within(ps..old_p, ps + extra as usize);
            self.energy_prefix
                .copy_within(ps..old_p, ps + extra as usize);
            for j in m + 1..mc {
                self.seg_start[j] += extra;
            }
        }
        self.seg_cap[m] += extra;
    }

    /// The objectives of the cached genome, summed across machines in
    /// ascending machine index — the same loop the reference evaluator
    /// runs, so the result is bit-identical to a full evaluation.
    pub fn outcome(&self) -> Outcome {
        let mut utility = 0.0;
        let mut energy = 0.0;
        let mut makespan = 0.0f64;
        for m in 0..self.machine_count() {
            utility += self.total_util[m];
            energy += self.total_energy[m];
            makespan = makespan.max(self.last_finish[m]);
        }
        Outcome {
            utility,
            energy,
            makespan,
        }
    }

    /// The genome this cache currently describes.
    pub fn baseline(&self) -> &Allocation {
        &self.baseline
    }

    /// The incrementally-maintained [`genome_fingerprint`] of the baseline.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Recomputes machine `m`'s finish times and prefix sums from queue
    /// position `from`, resuming the left fold from the stored prefixes.
    /// Prefix reuse is exact: prefix slot `from` *is* the fold of the
    /// first `from` terms, so continuing from it performs the identical
    /// addition sequence a from-scratch fold would. The per-machine totals
    /// are refreshed at the end, keeping `outcome` a flat reduction.
    fn recompute(&mut self, trace: &Trace, m: usize, from: usize) {
        let tasks = trace.tasks();
        let s = self.seg_start[m] as usize;
        let len = self.seg_len[m] as usize;
        let ps = self.prefix_start(m);
        let from = from.min(len);
        let mut free = if from == 0 {
            0.0
        } else {
            self.finish[s + from - 1]
        };
        let mut utility = self.util_prefix[ps + from];
        let mut energy = self.energy_prefix[ps + from];
        for k in from..len {
            let i = s + k;
            let task = &tasks[self.queue[i] as usize];
            let start = free.max(task.arrival);
            let finish = start + self.exec_t[i];
            self.finish[i] = finish;
            free = finish;
            utility += task.tuf.utility(finish - task.arrival);
            energy += self.energy_t[i];
            self.util_prefix[ps + k + 1] = utility;
            self.energy_prefix[ps + k + 1] = energy;
        }
        self.total_util[m] = utility;
        self.total_energy[m] = energy;
        self.last_finish[m] = if len == 0 {
            0.0
        } else {
            self.finish[s + len - 1]
        };
    }
}

fn mark_dirty(dirty_from: &mut [usize], dirty: &mut Vec<u32>, m: usize, pos: usize) {
    if dirty_from[m] == usize::MAX {
        dirty.push(m as u32);
        dirty_from[m] = pos;
    } else if pos < dirty_from[m] {
        dirty_from[m] = pos;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Evaluator;
    use hetsched_data::real_system;
    use hetsched_workload::TraceGenerator;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup(n: usize) -> (HcSystem, Trace) {
        let sys = real_system();
        let trace = TraceGenerator::new(n, 900.0, sys.task_type_count())
            .generate(&mut StdRng::seed_from_u64(9))
            .unwrap();
        (sys, trace)
    }

    fn assert_bit_identical(a: Outcome, b: Outcome) {
        assert!(a.utility.total_cmp(&b.utility).is_eq(), "{a:?} vs {b:?}");
        assert!(a.energy.total_cmp(&b.energy).is_eq(), "{a:?} vs {b:?}");
        assert!(a.makespan.total_cmp(&b.makespan).is_eq(), "{a:?} vs {b:?}");
    }

    fn random_alloc(sys: &HcSystem, n: usize, rng: &mut StdRng) -> Allocation {
        let machine = (0..n)
            .map(|_| MachineId(rng.gen_range(0..sys.machine_count()) as u32))
            .collect();
        let order = (0..n).map(|_| rng.gen_range(0..n as u32 * 2)).collect();
        Allocation { machine, order }
    }

    #[test]
    fn build_matches_reference_evaluator() {
        let (sys, trace) = setup(60);
        let mut ev = Evaluator::new(&sys, &trace);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let alloc = random_alloc(&sys, 60, &mut rng);
            let cache = ScheduleCache::build(&sys, &trace, &alloc);
            assert_bit_identical(cache.outcome(), ev.evaluate(&alloc));
        }
    }

    #[test]
    fn single_move_matches_full_reevaluation() {
        let (sys, trace) = setup(40);
        let mut ev = Evaluator::new(&sys, &trace);
        let mut rng = StdRng::seed_from_u64(2);
        let base = random_alloc(&sys, 40, &mut rng);
        let mut delta = ScheduleCache::build(&sys, &trace, &base);
        let mut current = base;
        for _ in 0..200 {
            let mv = TaskMove {
                task: rng.gen_range(0..40u32),
                machine: MachineId(rng.gen_range(0..sys.machine_count()) as u32),
                order: rng.gen_range(0..100u32),
            };
            current.machine[mv.task as usize] = mv.machine;
            current.order[mv.task as usize] = mv.order;
            let fast = delta.apply(&sys, &trace, &[mv]);
            assert_bit_identical(fast, ev.evaluate(&current));
            assert_eq!(delta.baseline(), &current);
        }
    }

    #[test]
    fn batched_moves_match_full_reevaluation() {
        let (sys, trace) = setup(50);
        let mut ev = Evaluator::new(&sys, &trace);
        let mut rng = StdRng::seed_from_u64(3);
        let base = random_alloc(&sys, 50, &mut rng);
        let mut delta = ScheduleCache::build(&sys, &trace, &base);
        let mut current = base;
        for _ in 0..50 {
            let batch: Vec<TaskMove> = (0..rng.gen_range(1..6))
                .map(|_| TaskMove {
                    task: rng.gen_range(0..50u32),
                    machine: MachineId(rng.gen_range(0..sys.machine_count()) as u32),
                    order: rng.gen_range(0..200u32),
                })
                .collect();
            for mv in &batch {
                current.machine[mv.task as usize] = mv.machine;
                current.order[mv.task as usize] = mv.order;
            }
            let fast = delta.apply(&sys, &trace, &batch);
            assert_bit_identical(fast, ev.evaluate(&current));
        }
    }

    #[test]
    fn noop_move_changes_nothing() {
        let (sys, trace) = setup(20);
        let mut rng = StdRng::seed_from_u64(4);
        let base = random_alloc(&sys, 20, &mut rng);
        let mut delta = ScheduleCache::build(&sys, &trace, &base);
        let before = delta.outcome();
        let mv = TaskMove {
            task: 7,
            machine: base.machine[7],
            order: base.order[7],
        };
        let after = delta.apply(&sys, &trace, &[mv]);
        assert_bit_identical(before, after);
        assert_eq!(delta.baseline(), &base);
    }

    #[test]
    fn fingerprint_tracks_incremental_edits() {
        let (sys, trace) = setup(30);
        let mut rng = StdRng::seed_from_u64(5);
        let base = random_alloc(&sys, 30, &mut rng);
        let mut delta = ScheduleCache::build(&sys, &trace, &base);
        let mut current = base;
        for _ in 0..50 {
            let mv = TaskMove {
                task: rng.gen_range(0..30u32),
                machine: MachineId(rng.gen_range(0..sys.machine_count()) as u32),
                order: rng.gen_range(0..60u32),
            };
            current.machine[mv.task as usize] = mv.machine;
            current.order[mv.task as usize] = mv.order;
            delta.apply(&sys, &trace, &[mv]);
        }
        assert_eq!(delta.fingerprint(), genome_fingerprint(&current));
    }

    #[test]
    fn all_tasks_on_one_machine_round_trip() {
        let (sys, trace) = setup(15);
        let mut ev = Evaluator::new(&sys, &trace);
        let base = Allocation::with_arrival_order(vec![MachineId(4); 15]);
        let mut delta = ScheduleCache::build(&sys, &trace, &base);
        assert_bit_identical(delta.outcome(), ev.evaluate(&base));
        // Move a task away and back: empties and refills queue positions.
        let away = TaskMove {
            task: 7,
            machine: MachineId(0),
            order: 7,
        };
        let back = TaskMove {
            task: 7,
            machine: MachineId(4),
            order: 7,
        };
        delta.apply(&sys, &trace, &[away]);
        assert_bit_identical(delta.apply(&sys, &trace, &[back]), ev.evaluate(&base));
    }
}
