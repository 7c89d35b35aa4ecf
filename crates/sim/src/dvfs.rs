//! Dynamic voltage and frequency scaling — the paper's first named piece of
//! future work ("incorporating dynamic voltage and frequency scaling
//! capabilities of processors").
//!
//! Each machine exposes a table of discrete P-states. Running a task at
//! frequency scale `f ∈ (0, 1]` stretches its execution time by `1/f` and
//! scales its power by the classic CMOS cubic model `P ∝ f³` (dynamic power
//! ∝ f·V² with V ∝ f). Energy per task therefore scales by `f²` — slowing
//! down saves energy but delays completion and so loses utility: exactly
//! the bi-objective tension the framework analyses.

use crate::allocation::{execution_order, Allocation};
use crate::evaluator::Outcome;
use crate::{Result, SimError};
use hetsched_data::HcSystem;
use hetsched_workload::Trace;
use serde::{Deserialize, Serialize};

/// One processor performance state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PState {
    /// Frequency relative to nominal, in (0, 1].
    pub freq_scale: f64,
    /// Power relative to nominal at this frequency.
    pub power_scale: f64,
}

/// A table of P-states shared by all machines (index 0 = nominal).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DvfsTable {
    states: Vec<PState>,
}

impl DvfsTable {
    /// Builds a table; index 0 must be the nominal state (scale 1.0).
    ///
    /// # Errors
    ///
    /// [`SimError::UnknownPState`] is *not* used here; invalid tables are
    /// rejected with [`SimError::LengthMismatch`]-free validation via
    /// `Option`: returns `None` on an empty table, non-positive scales, or a
    /// non-nominal first entry.
    pub fn new(states: Vec<PState>) -> Option<Self> {
        if states.is_empty() {
            return None;
        }
        if (states[0].freq_scale - 1.0).abs() > 1e-12 || (states[0].power_scale - 1.0).abs() > 1e-12
        {
            return None;
        }
        for s in &states {
            if !(s.freq_scale > 0.0 && s.freq_scale <= 1.0 && s.power_scale > 0.0) {
                return None;
            }
        }
        Some(DvfsTable { states })
    }

    /// The classic four-state cubic-power table:
    /// f ∈ {1.0, 0.85, 0.7, 0.55}, P = f³.
    pub fn cubic_default() -> Self {
        let states = [1.0, 0.85, 0.7, 0.55]
            .iter()
            .map(|&f| PState {
                freq_scale: f,
                power_scale: f * f * f,
            })
            .collect();
        DvfsTable::new(states).expect("default table is valid")
    }

    /// Number of states.
    #[inline]
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the table is empty (never true for a constructed table).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// State by index.
    #[inline]
    pub fn state(&self, idx: u8) -> Option<PState> {
        self.states.get(idx as usize).copied()
    }
}

/// An allocation extended with a per-task P-state choice and an optional
/// per-task *drop* flag (the paper's second piece of future work: "dropping
/// tasks that will generate negligible utility when they complete").
/// Dropped tasks consume no energy and earn no utility.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DvfsAllocation {
    /// The machine assignment and scheduling order.
    pub base: Allocation,
    /// P-state index per task (into a [`DvfsTable`]).
    pub pstate: Vec<u8>,
    /// Whether each task is dropped.
    pub dropped: Vec<bool>,
}

impl DvfsAllocation {
    /// Wraps a plain allocation at nominal frequency with nothing dropped.
    pub fn nominal(base: Allocation) -> Self {
        let n = base.len();
        DvfsAllocation {
            base,
            pstate: vec![0; n],
            dropped: vec![false; n],
        }
    }

    /// Evaluates the extended allocation.
    ///
    /// # Errors
    ///
    /// Base-allocation validation failures plus
    /// [`SimError::UnknownPState`] / [`SimError::LengthMismatch`] for the
    /// extension vectors.
    pub fn evaluate(&self, system: &HcSystem, trace: &Trace, table: &DvfsTable) -> Result<Outcome> {
        self.base.validate(system, trace)?;
        if self.pstate.len() != trace.len() || self.dropped.len() != trace.len() {
            return Err(SimError::LengthMismatch {
                expected: trace.len(),
                got: self.pstate.len().min(self.dropped.len()),
            });
        }
        for &p in &self.pstate {
            if p as usize >= table.len() {
                return Err(SimError::UnknownPState(p));
            }
        }

        let tasks = trace.tasks();
        let mut sequence = Vec::new();
        execution_order(&self.base.order, &mut sequence, &mut Vec::new());
        let mut machine_free = vec![0.0f64; system.machine_count()];
        let (mut utility, mut energy, mut makespan) = (0.0, 0.0, 0.0f64);
        for &i in &sequence {
            let idx = i as usize;
            if self.dropped[idx] {
                continue;
            }
            let task = &tasks[idx];
            let machine = self.base.machine[idx];
            let ps = table.state(self.pstate[idx]).expect("checked above");
            let exec = system.exec_time(task.task_type, machine) / ps.freq_scale;
            let power = system
                .epc()
                .power(task.task_type, system.machine_type(machine))
                * ps.power_scale;
            let start = machine_free[machine.index()].max(task.arrival);
            let finish = start + exec;
            machine_free[machine.index()] = finish;
            utility += task.tuf.utility(finish - task.arrival);
            energy += exec * power;
            makespan = makespan.max(finish);
        }
        Ok(Outcome {
            utility,
            energy,
            makespan,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::Evaluator;
    use hetsched_data::{real_system, MachineId};
    use hetsched_workload::TraceGenerator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (HcSystem, Trace, Allocation) {
        let sys = real_system();
        let trace = TraceGenerator::new(20, 900.0, sys.task_type_count())
            .generate(&mut StdRng::seed_from_u64(17))
            .unwrap();
        let machines = (0..20).map(|i| MachineId((i % 9) as u32)).collect();
        (sys, trace, Allocation::with_arrival_order(machines))
    }

    #[test]
    fn nominal_matches_plain_evaluation() {
        let (sys, trace, alloc) = setup();
        let table = DvfsTable::cubic_default();
        let ext = DvfsAllocation::nominal(alloc.clone());
        let out = ext.evaluate(&sys, &trace, &table).unwrap();
        let plain = Evaluator::new(&sys, &trace).evaluate(&alloc);
        assert!((out.utility - plain.utility).abs() < 1e-9);
        assert!((out.energy - plain.energy).abs() < 1e-9);
        assert!((out.makespan - plain.makespan).abs() < 1e-9);
    }

    #[test]
    fn slower_pstate_saves_energy_loses_utility() {
        let (sys, trace, alloc) = setup();
        let table = DvfsTable::cubic_default();
        let nominal = DvfsAllocation::nominal(alloc.clone());
        let mut slow = DvfsAllocation::nominal(alloc);
        slow.pstate = vec![3; 20]; // deepest state
        let on = nominal.evaluate(&sys, &trace, &table).unwrap();
        let os = slow.evaluate(&sys, &trace, &table).unwrap();
        assert!(os.energy < on.energy, "cubic power: energy must drop");
        assert!(
            os.utility <= on.utility,
            "longer runtimes cannot earn more utility"
        );
        assert!(os.makespan > on.makespan);
        // Energy scales as f² per task: check the exact global factor since
        // every task uses the same state.
        let f: f64 = 0.55;
        assert!((os.energy / on.energy - f * f).abs() < 1e-9);
    }

    #[test]
    fn dropping_everything_zeroes_both_objectives() {
        let (sys, trace, alloc) = setup();
        let table = DvfsTable::cubic_default();
        let mut ext = DvfsAllocation::nominal(alloc);
        ext.dropped = vec![true; 20];
        let out = ext.evaluate(&sys, &trace, &table).unwrap();
        assert_eq!(out.utility, 0.0);
        assert_eq!(out.energy, 0.0);
        assert_eq!(out.makespan, 0.0);
    }

    #[test]
    fn dropping_one_task_frees_its_machine() {
        let (sys, trace, alloc) = setup();
        let table = DvfsTable::cubic_default();
        let full = DvfsAllocation::nominal(alloc.clone());
        let mut one_less = DvfsAllocation::nominal(alloc);
        one_less.dropped[0] = true;
        let of = full.evaluate(&sys, &trace, &table).unwrap();
        let ol = one_less.evaluate(&sys, &trace, &table).unwrap();
        assert!(ol.energy < of.energy);
        // Remaining tasks finish no later, so their utility cannot drop.
        let t0 = &trace.tasks()[0];
        let u0_max = t0.tuf.priority();
        assert!(ol.utility >= of.utility - u0_max - 1e-9);
    }

    #[test]
    fn table_validation() {
        assert!(DvfsTable::new(vec![]).is_none());
        // First state must be nominal.
        assert!(DvfsTable::new(vec![PState {
            freq_scale: 0.8,
            power_scale: 0.5
        }])
        .is_none());
        // Scales must be positive and frequency ≤ 1.
        assert!(DvfsTable::new(vec![
            PState {
                freq_scale: 1.0,
                power_scale: 1.0
            },
            PState {
                freq_scale: 1.5,
                power_scale: 2.0
            },
        ])
        .is_none());
        let ok = DvfsTable::cubic_default();
        assert_eq!(ok.len(), 4);
        assert!(ok.state(3).is_some());
        assert!(ok.state(4).is_none());
    }

    #[test]
    fn out_of_range_pstate_rejected() {
        let (sys, trace, alloc) = setup();
        let table = DvfsTable::cubic_default();
        let mut ext = DvfsAllocation::nominal(alloc);
        ext.pstate[5] = 9;
        assert!(matches!(
            ext.evaluate(&sys, &trace, &table),
            Err(SimError::UnknownPState(9))
        ));
    }

    #[test]
    fn extension_vector_length_checked() {
        let (sys, trace, alloc) = setup();
        let table = DvfsTable::cubic_default();
        let mut ext = DvfsAllocation::nominal(alloc);
        ext.pstate.pop();
        assert!(ext.evaluate(&sys, &trace, &table).is_err());
    }
}
