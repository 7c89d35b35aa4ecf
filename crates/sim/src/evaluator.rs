//! The fitness hot path: evaluates an [`Allocation`] into the paper's two
//! objectives. This function runs once per chromosome per generation — for
//! the paper's largest experiment (population 100, 4000 tasks, 10⁶
//! iterations) that is 10⁸ evaluations — so it reuses workspace buffers and
//! performs no per-call allocation after warm-up.

use crate::allocation::{execution_order, Allocation};
use crate::Result;
use hetsched_data::HcSystem;
use hetsched_workload::Trace;

/// Process-wide evaluation accounting: the total of [`Evaluator::evaluate`]
/// calls, readable from anywhere (an evaluator is buried inside an engine
/// while it runs), which the telemetry registry routes into its snapshots.
pub mod counters {
    use std::sync::atomic::{AtomicU64, Ordering};

    static TOTAL: AtomicU64 = AtomicU64::new(0);

    /// Adds `n` evaluations to the process-wide total.
    pub(crate) fn add(n: u64) {
        TOTAL.fetch_add(n, Ordering::Relaxed);
    }

    /// The process-wide total of objective evaluations performed by an
    /// `Evaluator`. A child that reuses its parent's objectives never
    /// reaches an evaluator and is not counted, so the skip shows here.
    /// The counter is process-global: tests sharing a process with other
    /// evaluating tests assert on deltas.
    pub fn total() -> u64 {
        TOTAL.load(Ordering::Relaxed)
    }
}

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
/// Cloning is cheap (a few O(tasks + machines) scratch buffers), so
/// parallel evaluation can give each worker thread its own `Evaluator`.
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
#[derive(Debug, Clone)]
pub struct Evaluator<'a> {
    system: &'a HcSystem,
    trace: &'a Trace,
    /// Scratch: task indices sorted by (order key, task id).
    sequence: Vec<u32>,
    /// Scratch: the second buffer of the radix sort behind `sequence`.
    order_scratch: Vec<u32>,
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
            order_scratch: Vec::with_capacity(trace.len()),
            machine_free: vec![0.0; system.machine_count()],
            machine_util: vec![0.0; system.machine_count()],
            machine_energy: vec![0.0; system.machine_count()],
            min_energy,
            max_utility: trace.max_possible_utility(),
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
        counters::add(1);
        let tasks = self.trace.tasks();

        execution_order(&alloc.order, &mut self.sequence, &mut self.order_scratch);

        let mc = self.system.machine_count();
        self.machine_free.clear();
        self.machine_free.resize(mc, 0.0);
        self.machine_util.clear();
        self.machine_util.resize(mc, 0.0);
        self.machine_energy.clear();
        self.machine_energy.resize(mc, 0.0);

        // Accumulate per machine, then sum across machines in machine-index
        // order. The fold order fixes the floating-point result bit for bit,
        // and recorded fronts and golden fixtures pin those bits, so each
        // machine subtotal stays a left fold in queue order and the
        // cross-machine sum one fixed-order loop.
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

    #[test]
    fn counter_tracks_evaluate_calls() {
        let (sys, trace) = setup(10);
        let mut ev = Evaluator::new(&sys, &trace);
        let global_before = counters::total();
        let alloc = Allocation::with_arrival_order(vec![MachineId(0); 10]);
        for _ in 0..7 {
            ev.evaluate(&alloc);
        }
        // The process-wide total advanced by at least these calls (other
        // tests may evaluate concurrently).
        assert!(counters::total() >= global_before + 7);
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
