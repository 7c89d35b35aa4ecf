//! Resource allocations: a complete mapping of tasks to machines plus the
//! global scheduling order (§IV-D's chromosome contents, kept here so the
//! simulator, the seeding heuristics, and the genetic encoding all share
//! one representation).

use crate::{Result, SimError};
use hetsched_data::{HcSystem, MachineId};
use hetsched_workload::{TaskId, Trace};
use serde::{Deserialize, Serialize};

/// A complete resource allocation for a trace of `T` tasks.
///
/// Index `i` of both vectors refers to `TaskId(i)` — the i-th task in
/// arrival order. `order` holds the *global scheduling order* keys: tasks
/// execute on their machines by ascending key (ties broken by task id), so
/// any `u32` values work; they need not form a permutation (the genetic
/// crossover freely mixes keys from two parents).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Allocation {
    /// Machine assignment per task.
    pub machine: Vec<MachineId>,
    /// Global scheduling order key per task.
    pub order: Vec<u32>,
}

impl Allocation {
    /// Creates an allocation with the given assignment and arrival-order
    /// scheduling (task i has key i).
    pub fn with_arrival_order(machine: Vec<MachineId>) -> Self {
        let order = (0..machine.len() as u32).collect();
        Allocation { machine, order }
    }

    /// Number of tasks covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.machine.len()
    }

    /// Whether the allocation covers zero tasks.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.machine.is_empty()
    }

    /// Validates the allocation against a system and trace.
    ///
    /// # Errors
    ///
    /// * [`SimError::LengthMismatch`] — vectors shorter/longer than the
    ///   trace, or disagreeing with each other.
    /// * [`SimError::UnknownMachine`] — machine id out of range.
    /// * [`SimError::InfeasibleAssignment`] — task mapped to a machine that
    ///   cannot execute its type (special-purpose mismatch).
    pub fn validate(&self, system: &HcSystem, trace: &Trace) -> Result<()> {
        if self.machine.len() != trace.len() || self.order.len() != trace.len() {
            return Err(SimError::LengthMismatch {
                expected: trace.len(),
                got: self.machine.len().min(self.order.len()),
            });
        }
        for (i, (&m, task)) in self.machine.iter().zip(trace.tasks()).enumerate() {
            if m.index() >= system.machine_count() {
                return Err(SimError::UnknownMachine(m));
            }
            if !system.is_feasible(task.task_type, m) {
                return Err(SimError::InfeasibleAssignment {
                    task: TaskId(i as u32),
                    machine: m,
                });
            }
        }
        Ok(())
    }
}

/// Fills `sequence` with the task ids in execution order: ascending
/// `(order[i], i)`, as defined on [`Allocation`].
///
/// A stable LSD radix sort on the key with 8-bit digits, starting from the
/// ids in ascending order, so equal keys keep id order. It runs one pass
/// per byte up to the largest key's top byte (two passes for keys below
/// 2¹⁶, none when every key is 0), in O(tasks) per pass where a comparison
/// sort costs O(tasks · log tasks). `scratch` is the second buffer each
/// pass scatters into.
pub(crate) fn execution_order(order: &[u32], sequence: &mut Vec<u32>, scratch: &mut Vec<u32>) {
    let n = order.len();
    sequence.clear();
    sequence.extend(0..n as u32);
    scratch.clear();
    scratch.resize(n, 0);
    let max = order.iter().copied().max().unwrap_or(0);
    let passes = (u32::BITS - max.leading_zeros()).div_ceil(8);
    for shift in (0..passes).map(|pass| 8 * pass) {
        let digit = |key: u32| ((key >> shift) & 0xFF) as usize;
        // `next[d]`: where the next id with digit `d` goes.
        let mut next = [0u32; 256];
        for &key in order {
            next[digit(key)] += 1;
        }
        let mut start = 0;
        for slot in &mut next {
            let count = *slot;
            *slot = start;
            start += count;
        }
        for &i in sequence.iter() {
            let d = digit(order[i as usize]);
            scratch[next[d] as usize] = i;
            next[d] += 1;
        }
        std::mem::swap(sequence, scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsched_data::real_system;
    use hetsched_workload::TraceGenerator;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup() -> (hetsched_data::HcSystem, Trace) {
        let sys = real_system();
        let trace = TraceGenerator::new(20, 900.0, sys.task_type_count())
            .generate(&mut StdRng::seed_from_u64(1))
            .unwrap();
        (sys, trace)
    }

    #[test]
    fn arrival_order_constructor() {
        let alloc = Allocation::with_arrival_order(vec![MachineId(0); 5]);
        assert_eq!(alloc.order, vec![0, 1, 2, 3, 4]);
        assert_eq!(alloc.len(), 5);
        assert!(!alloc.is_empty());
    }

    #[test]
    fn validate_accepts_feasible() {
        let (sys, trace) = setup();
        let alloc = Allocation::with_arrival_order(vec![MachineId(3); trace.len()]);
        assert!(alloc.validate(&sys, &trace).is_ok());
    }

    #[test]
    fn validate_rejects_length_mismatch() {
        let (sys, trace) = setup();
        let alloc = Allocation::with_arrival_order(vec![MachineId(0); 3]);
        assert!(matches!(
            alloc.validate(&sys, &trace),
            Err(SimError::LengthMismatch {
                expected: 20,
                got: 3
            })
        ));
    }

    #[test]
    fn execution_order_matches_the_comparison_sort() {
        let mut rng = StdRng::seed_from_u64(3);
        let (mut sequence, mut scratch) = (Vec::new(), Vec::new());
        for n in [0usize, 1, 2, 7, 64, 255, 256, 300] {
            for max in [1, n.saturating_sub(1) as u32, 70_000, u32::MAX] {
                for _ in 0..4 {
                    let order: Vec<u32> = (0..n).map(|_| rng.gen_range(0..=max)).collect();
                    let mut expected: Vec<u32> = (0..n as u32).collect();
                    expected.sort_unstable_by_key(|&i| (order[i as usize], i));
                    execution_order(&order, &mut sequence, &mut scratch);
                    assert_eq!(sequence, expected, "n = {n}, keys in 0..={max}");
                }
            }
        }
    }

    #[test]
    fn validate_rejects_unknown_machine() {
        let (sys, trace) = setup();
        let alloc = Allocation::with_arrival_order(vec![MachineId(99); trace.len()]);
        assert!(matches!(
            alloc.validate(&sys, &trace),
            Err(SimError::UnknownMachine(_))
        ));
    }
}
