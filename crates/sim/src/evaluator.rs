//! The fitness hot path: evaluates an [`Allocation`] into the paper's two
//! objectives. This function runs once per chromosome per generation — for
//! the paper's largest experiment (population 100, 4000 tasks, 10⁶
//! iterations) that is 10⁸ evaluations — so it reuses workspace buffers and
//! performs no per-call allocation after warm-up.

use crate::allocation::Allocation;
use crate::delta::{genome_fingerprint, ScheduleCache, TaskMove};
use crate::Result;
use hetsched_data::HcSystem;
use hetsched_workload::Trace;

/// Process-wide evaluation accounting, compiled only under the
/// `eval-counters` feature. Unlike the per-instance counter below (which
/// an observer cannot reach once the evaluator is buried inside an
/// engine), this total is readable from anywhere — the telemetry
/// registry routes it into its snapshots.
#[cfg(feature = "eval-counters")]
pub mod counters {
    use std::sync::atomic::{AtomicU64, Ordering};

    static TOTAL: AtomicU64 = AtomicU64::new(0);
    static DELTA_HITS: AtomicU64 = AtomicU64::new(0);

    /// Adds `n` evaluations to the process-wide total.
    pub fn add(n: u64) {
        TOTAL.fetch_add(n, Ordering::Relaxed);
    }

    /// The process-wide total of objective evaluations requested through
    /// an `Evaluator` — full recomputations and incremental (delta)
    /// updates alike. Evaluations *skipped* outright (an engine reusing a
    /// parent's objectives for a bit-identical child) never reach the
    /// evaluator and are therefore not counted; the drop is observable
    /// here.
    pub fn total() -> u64 {
        TOTAL.load(Ordering::Relaxed)
    }

    /// Adds `n` delta-path cache hits to the process-wide total.
    pub fn add_delta_hits(n: u64) {
        DELTA_HITS.fetch_add(n, Ordering::Relaxed);
    }

    /// The process-wide subset of [`total`] served by the incremental
    /// path (`Evaluator::evaluate_delta` schedule-cache hits).
    pub fn delta_hits() -> u64 {
        DELTA_HITS.load(Ordering::Relaxed)
    }

    /// Resets the totals (tests only — the counters are process-global,
    /// so concurrent tests should assert on deltas instead).
    pub fn reset() {
        TOTAL.store(0, Ordering::Relaxed);
        DELTA_HITS.store(0, Ordering::Relaxed);
    }
}

/// Number of parent schedules the delta pool retains (LRU). Sized for a
/// couple of generations of a population-100 run: large enough that every
/// surviving parent's schedule is still cached when its offspring arrive,
/// small enough that the linear fingerprint scan stays negligible next to
/// one evaluation.
const DELTA_POOL_CAP: usize = 256;

/// The objective values of one allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// Total utility earned, `U` (Eq. 1). Higher is better.
    pub utility: f64,
    /// Total energy consumed in joules, `E` (Eq. 3). Lower is better.
    pub energy: f64,
    /// Completion time of the last task (seconds from window start).
    pub makespan: f64,
}

/// Reusable evaluator bound to one system + trace.
///
/// Cloning is cheap (buffers are rebuilt lazily), so parallel evaluation can
/// give each worker thread its own `Evaluator`.
///
/// ```
/// use hetsched_data::{real_system, MachineId};
/// use hetsched_sim::{Allocation, Evaluator};
/// use hetsched_workload::TraceGenerator;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let system = real_system();
/// let trace = TraceGenerator::new(10, 900.0, system.task_type_count())
///     .generate(&mut StdRng::seed_from_u64(1))
///     .unwrap();
/// let mut evaluator = Evaluator::new(&system, &trace);
/// // Everything on machine 0, in arrival order.
/// let alloc = Allocation::with_arrival_order(vec![MachineId(0); 10]);
/// let outcome = evaluator.evaluate(&alloc);
/// assert!(outcome.energy >= evaluator.min_possible_energy());
/// assert!(outcome.utility <= evaluator.max_possible_utility());
/// ```
#[derive(Debug)]
pub struct Evaluator<'a> {
    system: &'a HcSystem,
    trace: &'a Trace,
    /// Scratch: task indices sorted by (order key, task id).
    sequence: Vec<u32>,
    /// Scratch: next-free time per machine.
    machine_free: Vec<f64>,
    /// Scratch: per-machine utility subtotals (see `evaluate` for why the
    /// accumulation is decomposed per machine).
    machine_util: Vec<f64>,
    /// Scratch: per-machine energy subtotals.
    machine_energy: Vec<f64>,
    /// Cached objective bounds — both are O(tasks) sums over the trace,
    /// and callers consult them once per evaluation in hot loops.
    min_energy: f64,
    max_utility: f64,
    /// LRU pool of parent schedules for [`Evaluator::evaluate_delta`]:
    /// most-recently-used last. Clones start with an empty pool — the pool
    /// is a cache, and caches warm per instance.
    pool: Vec<ScheduleCache>,
    /// Scratch: the base→child diff of the current `evaluate_delta` call.
    moves: Vec<TaskMove>,
    /// Calls to [`Evaluator::evaluate`] on this instance (clones inherit
    /// the count at the moment of cloning).
    #[cfg(feature = "eval-counters")]
    evaluations: u64,
    /// Subset of `evaluations` served by the incremental path.
    #[cfg(feature = "eval-counters")]
    delta_hits: u64,
}

// Hand-written: deriving `Clone` would deep-copy the warm delta pool — up
// to [`DELTA_POOL_CAP`] `ScheduleCache`s, each O(tasks + machines) — which
// broke the "cloning is cheap" contract per-thread evaluators rely on. A
// clone is a fresh worker bound to the same system/trace: empty scratch,
// empty pool, but it inherits the instance counters (they describe work
// already attributed to this lineage).
impl Clone for Evaluator<'_> {
    fn clone(&self) -> Self {
        Evaluator {
            system: self.system,
            trace: self.trace,
            sequence: Vec::with_capacity(self.trace.len()),
            machine_free: vec![0.0; self.system.machine_count()],
            machine_util: vec![0.0; self.system.machine_count()],
            machine_energy: vec![0.0; self.system.machine_count()],
            min_energy: self.min_energy,
            max_utility: self.max_utility,
            pool: Vec::new(),
            moves: Vec::new(),
            #[cfg(feature = "eval-counters")]
            evaluations: self.evaluations,
            #[cfg(feature = "eval-counters")]
            delta_hits: self.delta_hits,
        }
    }
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator for the given system and trace.
    pub fn new(system: &'a HcSystem, trace: &'a Trace) -> Self {
        let min_energy = trace
            .tasks()
            .iter()
            .map(|t| system.min_energy_per_type(t.task_type))
            .sum();
        Evaluator {
            system,
            trace,
            sequence: Vec::with_capacity(trace.len()),
            machine_free: vec![0.0; system.machine_count()],
            machine_util: vec![0.0; system.machine_count()],
            machine_energy: vec![0.0; system.machine_count()],
            min_energy,
            max_utility: trace.max_possible_utility(),
            pool: Vec::new(),
            moves: Vec::new(),
            #[cfg(feature = "eval-counters")]
            evaluations: 0,
            #[cfg(feature = "eval-counters")]
            delta_hits: 0,
        }
    }

    /// Number of objective evaluations performed by this instance —
    /// [`Evaluator::evaluate`] calls plus `evaluate_delta` requests (both
    /// hits and rebuilds). Always 0 unless the crate is built with the
    /// `eval-counters` feature (off by default, keeping the hot path free
    /// of bookkeeping).
    pub fn evaluations(&self) -> u64 {
        #[cfg(feature = "eval-counters")]
        {
            self.evaluations
        }
        #[cfg(not(feature = "eval-counters"))]
        {
            0
        }
    }

    /// Resets the evaluation counters (a no-op without `eval-counters`).
    pub fn reset_evaluations(&mut self) {
        #[cfg(feature = "eval-counters")]
        {
            self.evaluations = 0;
            self.delta_hits = 0;
        }
    }

    /// The bound system.
    #[inline]
    pub fn system(&self) -> &'a HcSystem {
        self.system
    }

    /// The bound trace.
    #[inline]
    pub fn trace(&self) -> &'a Trace {
        self.trace
    }

    /// Evaluates without validating; the caller must guarantee feasibility
    /// (the genetic operators and seeding heuristics only construct feasible
    /// allocations). Debug builds assert feasibility.
    pub fn evaluate(&mut self, alloc: &Allocation) -> Outcome {
        debug_assert!(alloc.validate(self.system, self.trace).is_ok());
        #[cfg(feature = "chaos")]
        hetsched_chaos::raise("evaluator.evaluate", &"");
        #[cfg(feature = "eval-counters")]
        {
            self.evaluations += 1;
            counters::add(1);
        }
        let tasks = self.trace.tasks();

        // Rebuild the execution sequence: ascending (order key, task id).
        self.sequence.clear();
        self.sequence.extend(0..tasks.len() as u32);
        let order = &alloc.order;
        self.sequence
            .sort_unstable_by_key(|&i| (order[i as usize], i));

        let mc = self.system.machine_count();
        self.machine_free.clear();
        self.machine_free.resize(mc, 0.0);
        self.machine_util.clear();
        self.machine_util.resize(mc, 0.0);
        self.machine_energy.clear();
        self.machine_energy.resize(mc, 0.0);

        // Accumulate per machine, then sum across machines in machine-index
        // order. This is the contract the incremental path (`ScheduleCache`)
        // reproduces: each machine subtotal is a left fold in queue order and
        // the cross-machine sum is one fixed-order loop, so delta results are
        // bit-identical to full evaluations — not merely close.
        for &i in &self.sequence {
            let task = &tasks[i as usize];
            let machine = alloc.machine[i as usize];
            let mi = machine.index();
            let exec = self.system.exec_time(task.task_type, machine);
            // Machine idles until the task has arrived.
            let start = self.machine_free[mi].max(task.arrival);
            let finish = start + exec;
            self.machine_free[mi] = finish;
            self.machine_util[mi] += task.tuf.utility(finish - task.arrival);
            self.machine_energy[mi] += self.system.energy(task.task_type, machine);
        }
        let mut utility = 0.0;
        let mut energy = 0.0;
        let mut makespan = 0.0f64;
        for m in 0..mc {
            utility += self.machine_util[m];
            energy += self.machine_energy[m];
            makespan = makespan.max(self.machine_free[m]);
        }
        Outcome {
            utility,
            energy,
            makespan,
        }
    }

    /// Evaluates `child` incrementally from `base`, the parent it was bred
    /// from. When `base`'s schedule is in the pool and the two differ in
    /// at most a quarter of their genes, the diff is applied to that
    /// schedule at a cost proportional to the touched queue tails;
    /// otherwise the child's schedule is built from scratch — one full
    /// evaluation's worth of work — and cached for future hits either way.
    ///
    /// The result is bit-identical to `evaluate(child)`; see
    /// [`crate::delta`] for why.
    pub fn evaluate_delta(&mut self, base: &Allocation, child: &Allocation) -> Outcome {
        debug_assert!(child.validate(self.system, self.trace).is_ok());
        #[cfg(feature = "eval-counters")]
        {
            self.evaluations += 1;
            counters::add(1);
        }
        // A wide delta touches most queues anyway; rebuilding is cheaper
        // than replaying the moves one by one.
        if self.diff(base, child) {
            let fp = genome_fingerprint(base);
            if let Some(idx) = self
                .pool
                .iter()
                .position(|c| c.fingerprint() == fp && c.baseline() == base)
            {
                let mut cache = self.pool.remove(idx);
                let out = cache.apply(self.system, self.trace, &self.moves);
                debug_assert_eq!(cache.baseline(), child);
                #[cfg(feature = "eval-counters")]
                {
                    self.delta_hits += 1;
                    counters::add_delta_hits(1);
                }
                self.pool.push(cache);
                return out;
            }
        }
        // Miss: build the child's schedule directly (never base + replay,
        // which would cost a rebuild *and* the move application).
        let cache = if self.pool.len() >= DELTA_POOL_CAP {
            let mut evicted = self.pool.remove(0);
            evicted.rebuild(self.system, self.trace, child);
            evicted
        } else {
            ScheduleCache::build(self.system, self.trace, child)
        };
        let out = cache.outcome();
        self.pool.push(cache);
        out
    }

    /// Collects the genes where `child` differs from `base` into the
    /// `moves` scratch, giving up (`false`) once they exceed a quarter of
    /// the trace.
    fn diff(&mut self, base: &Allocation, child: &Allocation) -> bool {
        let limit = self.trace.len() / 4;
        self.moves.clear();
        for (task, (&machine, &order)) in child.machine.iter().zip(&child.order).enumerate() {
            if base.machine[task] != machine || base.order[task] != order {
                if self.moves.len() == limit {
                    return false;
                }
                self.moves.push(TaskMove {
                    task: task as u32,
                    machine,
                    order,
                });
            }
        }
        true
    }

    /// Number of parent schedules currently held in the delta pool.
    /// A freshly constructed or freshly cloned evaluator reports 0.
    pub fn delta_pool_len(&self) -> usize {
        self.pool.len()
    }

    /// Number of [`Evaluator::evaluate_delta`] calls on this instance that
    /// were served incrementally from the schedule pool. Always 0 unless
    /// built with the `eval-counters` feature.
    pub fn delta_hits(&self) -> u64 {
        #[cfg(feature = "eval-counters")]
        {
            self.delta_hits
        }
        #[cfg(not(feature = "eval-counters"))]
        {
            0
        }
    }

    /// Validating wrapper around [`Evaluator::evaluate`].
    ///
    /// # Errors
    ///
    /// See [`Allocation::validate`].
    pub fn try_evaluate(&mut self, alloc: &Allocation) -> Result<Outcome> {
        alloc.validate(self.system, self.trace)?;
        Ok(self.evaluate(alloc))
    }

    /// Lower bound on the energy objective: every task on its cheapest
    /// feasible machine. The Min Energy seeding heuristic achieves exactly
    /// this value, and no allocation can consume less. Computed once at
    /// construction.
    pub fn min_possible_energy(&self) -> f64 {
        self.min_energy
    }

    /// Upper bound on the utility objective: every task earns its
    /// priority. Computed once at construction.
    pub fn max_possible_utility(&self) -> f64 {
        self.max_utility
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsched_data::{real_system, MachineId};
    use hetsched_workload::TraceGenerator;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup(n: usize) -> (hetsched_data::HcSystem, Trace) {
        let sys = real_system();
        let trace = TraceGenerator::new(n, 900.0, sys.task_type_count())
            .generate(&mut StdRng::seed_from_u64(42))
            .unwrap();
        (sys, trace)
    }

    #[test]
    fn energy_is_order_independent() {
        let (sys, trace) = setup(50);
        let mut ev = Evaluator::new(&sys, &trace);
        let machines: Vec<MachineId> = (0..50)
            .map(|i| MachineId((i % sys.machine_count()) as u32))
            .collect();
        let a = Allocation::with_arrival_order(machines.clone());
        let mut b = a.clone();
        b.order.reverse();
        let oa = ev.evaluate(&a);
        let ob = ev.evaluate(&b);
        assert!(
            (oa.energy - ob.energy).abs() < 1e-9,
            "energy depends only on assignment"
        );
        // Utility generally differs when execution order changes.
        assert_ne!(oa.utility, ob.utility);
    }

    #[test]
    fn single_machine_serialises_tasks() {
        let (sys, trace) = setup(10);
        let mut ev = Evaluator::new(&sys, &trace);
        let alloc = Allocation::with_arrival_order(vec![MachineId(0); 10]);
        let out = ev.evaluate(&alloc);
        // Makespan is at least the sum of exec times (no overlap possible).
        let total: f64 = trace
            .tasks()
            .iter()
            .map(|t| sys.exec_time(t.task_type, MachineId(0)))
            .sum();
        assert!(out.makespan >= total);
        // Energy equals the exact sum of EECs on machine 0.
        let energy: f64 = trace
            .tasks()
            .iter()
            .map(|t| sys.energy(t.task_type, MachineId(0)))
            .sum();
        assert!((out.energy - energy).abs() < 1e-9);
    }

    #[test]
    fn start_times_respect_arrivals() {
        // A task arriving late on an idle machine must not start early:
        // makespan >= arrival + exec of the last task.
        let (sys, trace) = setup(5);
        let mut ev = Evaluator::new(&sys, &trace);
        let alloc = Allocation::with_arrival_order(vec![MachineId(6); 5]);
        let out = ev.evaluate(&alloc);
        let last = trace.tasks().last().unwrap();
        assert!(out.makespan >= last.arrival + sys.exec_time(last.task_type, MachineId(6)));
    }

    #[test]
    fn utility_bounded_by_max_possible() {
        let (sys, trace) = setup(100);
        let mut ev = Evaluator::new(&sys, &trace);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let machines: Vec<MachineId> = (0..100)
                .map(|_| MachineId(rng.gen_range(0..sys.machine_count()) as u32))
                .collect();
            let alloc = Allocation::with_arrival_order(machines);
            let out = ev.evaluate(&alloc);
            assert!(out.utility <= ev.max_possible_utility() + 1e-9);
            assert!(out.utility >= 0.0);
            assert!(out.energy >= ev.min_possible_energy() - 1e-9);
        }
    }

    #[test]
    fn cheapest_assignment_hits_min_energy_bound() {
        let (sys, trace) = setup(30);
        let mut ev = Evaluator::new(&sys, &trace);
        let machines: Vec<MachineId> = trace
            .tasks()
            .iter()
            .map(|t| {
                *sys.feasible_machines(t.task_type)
                    .iter()
                    .min_by(|&&a, &&b| {
                        sys.energy(t.task_type, a)
                            .total_cmp(&sys.energy(t.task_type, b))
                    })
                    .unwrap()
            })
            .collect();
        let alloc = Allocation::with_arrival_order(machines);
        let out = ev.evaluate(&alloc);
        assert!((out.energy - ev.min_possible_energy()).abs() < 1e-9);
    }

    #[test]
    fn try_evaluate_rejects_bad_allocation() {
        let (sys, trace) = setup(5);
        let mut ev = Evaluator::new(&sys, &trace);
        let alloc = Allocation::with_arrival_order(vec![MachineId(0); 4]);
        assert!(ev.try_evaluate(&alloc).is_err());
    }

    #[test]
    fn evaluation_is_deterministic_and_reusable() {
        let (sys, trace) = setup(40);
        let mut ev = Evaluator::new(&sys, &trace);
        let alloc =
            Allocation::with_arrival_order((0..40).map(|i| MachineId((i % 9) as u32)).collect());
        let a = ev.evaluate(&alloc);
        // Interleave another evaluation to dirty the buffers.
        let other = Allocation::with_arrival_order(vec![MachineId(2); 40]);
        let _ = ev.evaluate(&other);
        let b = ev.evaluate(&alloc);
        assert_eq!(a, b);
    }

    #[test]
    fn earlier_completion_earns_no_less_utility() {
        // Schedule everything on the fastest machine vs the slowest: the
        // faster schedule must earn at least as much utility (TUFs are
        // monotone non-increasing).
        let (sys, trace) = setup(15);
        let mut ev = Evaluator::new(&sys, &trace);
        let fast = Allocation::with_arrival_order(vec![MachineId(6); 15]);
        let slow = Allocation::with_arrival_order(vec![MachineId(0); 15]);
        let fo = ev.evaluate(&fast);
        let so = ev.evaluate(&slow);
        assert!(fo.utility >= so.utility);
        assert!(fo.makespan <= so.makespan);
    }

    #[test]
    fn bounds_match_directly_computed_sums() {
        // The cached bounds must equal what a fresh traversal computes.
        let (sys, trace) = setup(25);
        let ev = Evaluator::new(&sys, &trace);
        let min_e: f64 = trace
            .tasks()
            .iter()
            .map(|t| sys.min_energy_per_type(t.task_type))
            .sum();
        assert_eq!(ev.min_possible_energy(), min_e);
        assert_eq!(ev.max_possible_utility(), trace.max_possible_utility());
    }

    #[cfg(feature = "eval-counters")]
    #[test]
    fn counter_tracks_evaluate_calls() {
        let (sys, trace) = setup(10);
        let mut ev = Evaluator::new(&sys, &trace);
        assert_eq!(ev.evaluations(), 0);
        let global_before = counters::total();
        let alloc = Allocation::with_arrival_order(vec![MachineId(0); 10]);
        for _ in 0..7 {
            ev.evaluate(&alloc);
        }
        assert_eq!(ev.evaluations(), 7);
        // The process-wide total advanced by at least this instance's
        // calls (other tests may run concurrently).
        assert!(counters::total() >= global_before + 7);
        let clone = ev.clone();
        assert_eq!(clone.evaluations(), 7);
        ev.reset_evaluations();
        assert_eq!(ev.evaluations(), 0);
    }

    #[test]
    fn clone_has_empty_pool_but_identical_outcomes() {
        let (sys, trace) = setup(60);
        let mut ev = Evaluator::new(&sys, &trace);
        let mut rng = StdRng::seed_from_u64(77);
        // Warm the pool with a handful of delta evaluations.
        let mut base = Allocation::with_arrival_order(
            (0..60)
                .map(|_| MachineId(rng.gen_range(0..sys.machine_count()) as u32))
                .collect(),
        );
        ev.evaluate_delta(&base, &base);
        let mut allocs = vec![base.clone()];
        for _ in 0..8 {
            let mut child = base.clone();
            let g = rng.gen_range(0..60);
            child.machine[g] = MachineId(rng.gen_range(0..sys.machine_count()) as u32);
            ev.evaluate_delta(&base, &child);
            allocs.push(child.clone());
            base = child;
        }
        assert!(ev.delta_pool_len() > 0, "pool should be warm");

        // The clone must NOT have deep-copied the warm pool...
        let mut clone = ev.clone();
        assert_eq!(clone.delta_pool_len(), 0, "clone must start cold");
        // ...yet every outcome must match the warm original bit for bit.
        for a in &allocs {
            let warm = ev.evaluate(a);
            let cold = clone.evaluate(a);
            assert_eq!(warm.utility.to_bits(), cold.utility.to_bits());
            assert_eq!(warm.energy.to_bits(), cold.energy.to_bits());
            assert_eq!(warm.makespan.to_bits(), cold.makespan.to_bits());
        }
    }

    #[test]
    fn order_ties_break_by_task_id() {
        let (sys, trace) = setup(4);
        let mut ev = Evaluator::new(&sys, &trace);
        // All order keys equal: tasks run in id (arrival) order — identical
        // to arrival-order keys.
        let machines = vec![MachineId(1); 4];
        let tied = Allocation {
            machine: machines.clone(),
            order: vec![7; 4],
        };
        let arrival = Allocation::with_arrival_order(machines);
        assert_eq!(ev.evaluate(&tied), ev.evaluate(&arrival));
    }
}
