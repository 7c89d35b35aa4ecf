//! Detailed (per-task) evaluation for analysis, examples, and the CLI —
//! everything the hot path deliberately does not record.

use crate::allocation::{execution_order, Allocation};
use crate::Result;
use hetsched_data::{HcSystem, MachineId};
use hetsched_workload::{TaskId, Trace};
use serde::{Deserialize, Serialize};

/// Per-task schedule record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskRecord {
    /// The task.
    pub task: TaskId,
    /// Machine it executed on.
    pub machine: MachineId,
    /// Arrival time (seconds).
    pub arrival: f64,
    /// Execution start time (≥ arrival).
    pub start: f64,
    /// Completion time.
    pub finish: f64,
    /// Utility earned at completion.
    pub utility: f64,
    /// Energy consumed (joules).
    pub energy: f64,
}

/// A full schedule: totals plus one record per task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetailedOutcome {
    /// Total utility earned.
    pub utility: f64,
    /// Total energy consumed (joules).
    pub energy: f64,
    /// Completion time of the last task.
    pub makespan: f64,
    /// Per-task records, in task-id order.
    pub tasks: Vec<TaskRecord>,
}

impl DetailedOutcome {
    /// Evaluates `alloc` with full per-task detail (validating first).
    ///
    /// # Errors
    ///
    /// See [`Allocation::validate`].
    pub fn evaluate(system: &HcSystem, trace: &Trace, alloc: &Allocation) -> Result<Self> {
        alloc.validate(system, trace)?;
        let tasks = trace.tasks();
        let mut sequence = Vec::new();
        execution_order(&alloc.order, &mut sequence, &mut Vec::new());
        let mut machine_free = vec![0.0f64; system.machine_count()];
        let mut records = vec![
            TaskRecord {
                task: TaskId(0),
                machine: MachineId(0),
                arrival: 0.0,
                start: 0.0,
                finish: 0.0,
                utility: 0.0,
                energy: 0.0,
            };
            tasks.len()
        ];
        let (mut utility, mut energy, mut makespan) = (0.0, 0.0, 0.0f64);
        for &i in &sequence {
            let task = &tasks[i as usize];
            let machine = alloc.machine[i as usize];
            let exec = system.exec_time(task.task_type, machine);
            let start = machine_free[machine.index()].max(task.arrival);
            let finish = start + exec;
            machine_free[machine.index()] = finish;
            let u = task.tuf.utility(finish - task.arrival);
            let e = system.energy(task.task_type, machine);
            utility += u;
            energy += e;
            makespan = makespan.max(finish);
            records[i as usize] = TaskRecord {
                task: TaskId(i),
                machine,
                arrival: task.arrival,
                start,
                finish,
                utility: u,
                energy: e,
            };
        }
        Ok(DetailedOutcome {
            utility,
            energy,
            makespan,
            tasks: records,
        })
    }

    /// Per-machine busy time (seconds), indexed by machine id.
    pub fn machine_busy_time(&self, machine_count: usize) -> Vec<f64> {
        let mut busy = vec![0.0; machine_count];
        for r in &self.tasks {
            busy[r.machine.index()] += r.finish - r.start;
        }
        busy
    }

    /// Mean flow time (completion − arrival) over all tasks.
    pub fn mean_flow_time(&self) -> f64 {
        if self.tasks.is_empty() {
            return 0.0;
        }
        self.tasks.iter().map(|r| r.finish - r.arrival).sum::<f64>() / self.tasks.len() as f64
    }

    /// Total energy including idle draw: the paper's Eq. 3 counts only
    /// task-attributed energy; real machines also burn `idle_watts` while
    /// switched on but idle. This charges every machine for its idle time
    /// over `[0, makespan]` — the correction a deployment would apply when
    /// machines cannot be powered off mid-trace.
    pub fn energy_with_idle(&self, machine_count: usize, idle_watts: f64) -> f64 {
        debug_assert!(idle_watts >= 0.0);
        let busy = self.machine_busy_time(machine_count);
        let idle_time: f64 = busy.iter().map(|b| (self.makespan - b).max(0.0)).sum();
        self.energy + idle_time * idle_watts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::Evaluator;
    use hetsched_data::real_system;
    use hetsched_workload::TraceGenerator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (HcSystem, Trace, Allocation) {
        let sys = real_system();
        let trace = TraceGenerator::new(30, 900.0, sys.task_type_count())
            .generate(&mut StdRng::seed_from_u64(8))
            .unwrap();
        let machines = (0..30)
            .map(|i| MachineId((i % sys.machine_count()) as u32))
            .collect();
        let alloc = Allocation::with_arrival_order(machines);
        (sys, trace, alloc)
    }

    #[test]
    fn totals_match_fast_evaluator() {
        let (sys, trace, alloc) = setup();
        let detailed = DetailedOutcome::evaluate(&sys, &trace, &alloc).unwrap();
        let fast = Evaluator::new(&sys, &trace).evaluate(&alloc);
        assert!((detailed.utility - fast.utility).abs() < 1e-9);
        assert!((detailed.energy - fast.energy).abs() < 1e-9);
        assert!((detailed.makespan - fast.makespan).abs() < 1e-9);
    }

    #[test]
    fn per_task_invariants_hold() {
        let (sys, trace, alloc) = setup();
        let d = DetailedOutcome::evaluate(&sys, &trace, &alloc).unwrap();
        assert_eq!(d.tasks.len(), 30);
        for (i, r) in d.tasks.iter().enumerate() {
            assert_eq!(r.task, TaskId(i as u32));
            assert!(r.start >= r.arrival, "task {i} started before arrival");
            assert!(r.finish > r.start);
            assert!(r.energy > 0.0);
            assert!(r.utility >= 0.0);
        }
        // No two tasks overlap on the same machine.
        for a in &d.tasks {
            for b in &d.tasks {
                if a.task != b.task && a.machine == b.machine {
                    assert!(
                        a.finish <= b.start + 1e-9 || b.finish <= a.start + 1e-9,
                        "overlap on {:?}: [{}, {}] vs [{}, {}]",
                        a.machine,
                        a.start,
                        a.finish,
                        b.start,
                        b.finish
                    );
                }
            }
        }
    }

    #[test]
    fn busy_time_sums_exec_times() {
        let (sys, trace, alloc) = setup();
        let d = DetailedOutcome::evaluate(&sys, &trace, &alloc).unwrap();
        let busy = d.machine_busy_time(sys.machine_count());
        let total_busy: f64 = busy.iter().sum();
        let total_exec: f64 = trace
            .tasks()
            .iter()
            .zip(&alloc.machine)
            .map(|(t, &m)| sys.exec_time(t.task_type, m))
            .sum();
        assert!((total_busy - total_exec).abs() < 1e-9);
    }

    #[test]
    fn mean_flow_time_positive() {
        let (sys, trace, alloc) = setup();
        let d = DetailedOutcome::evaluate(&sys, &trace, &alloc).unwrap();
        assert!(d.mean_flow_time() > 0.0);
    }

    #[test]
    fn idle_energy_accounting() {
        let (sys, trace, alloc) = setup();
        let d = DetailedOutcome::evaluate(&sys, &trace, &alloc).unwrap();
        // Zero idle power changes nothing.
        assert_eq!(d.energy_with_idle(sys.machine_count(), 0.0), d.energy);
        // Positive idle power adds exactly idle_time × watts.
        let busy: f64 = d.machine_busy_time(sys.machine_count()).iter().sum();
        let idle_time = sys.machine_count() as f64 * d.makespan - busy;
        let with_idle = d.energy_with_idle(sys.machine_count(), 50.0);
        assert!((with_idle - d.energy - idle_time * 50.0).abs() < 1e-6);
        assert!(with_idle > d.energy);
    }

    #[test]
    fn rejects_invalid_allocation() {
        let (sys, trace, _) = setup();
        let alloc = Allocation::with_arrival_order(vec![MachineId(0); 3]);
        assert!(DetailedOutcome::evaluate(&sys, &trace, &alloc).is_err());
    }
}
