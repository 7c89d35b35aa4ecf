#![warn(missing_docs)]

//! Static scheduling simulator: evaluates a resource allocation against a
//! system and a trace, producing the two paper objectives — total utility
//! earned `U = Σ Υ(t)` (Eq. 1) and total energy consumed
//! `E = Σ Σ EEC(Φ(t), Ω(m))` (Eq. 3) — plus auxiliary metrics.
//!
//! Semantics (§IV-D): every task carries a *global scheduling order*; tasks
//! execute on their assigned machines in that order, and "any task's start
//! time is greater than or equal to its arrival time. If this is not the
//! case, the machine sits idle until this condition is met."

pub mod allocation;
pub mod detail;
pub mod dvfs;
pub mod evaluator;
pub mod events;
pub mod gantt;
pub mod horizon;
pub mod online;

pub use allocation::Allocation;
pub use detail::{DetailedOutcome, TaskRecord};
pub use dvfs::{DvfsAllocation, DvfsTable, PState};
pub use evaluator::counters as eval_counters;
pub use evaluator::{Evaluator, Outcome};
pub use events::evaluate_event_driven;
pub use gantt::render_gantt;
pub use horizon::{
    FrozenTask, HorizonConfig, HorizonContext, HorizonRecord, HorizonScheduler, PolicyReoptimizer,
    Reoptimize,
};
pub use online::{
    online_as_detailed, schedule_online, schedule_online_policy, OnlineConfig, OnlineOutcome,
    OnlinePolicy,
};

use hetsched_data::MachineId;
use hetsched_workload::TaskId;
use std::fmt;

/// Errors produced by the simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// Allocation vectors have the wrong length for the trace.
    LengthMismatch {
        /// Expected number of tasks.
        expected: usize,
        /// Provided number of entries.
        got: usize,
    },
    /// A task is mapped to a machine that cannot execute its type.
    InfeasibleAssignment {
        /// The offending task.
        task: TaskId,
        /// The infeasible machine.
        machine: MachineId,
    },
    /// A machine id is out of range for the system.
    UnknownMachine(MachineId),
    /// A P-state index is out of range for the DVFS table.
    UnknownPState(u8),
    /// A rolling-horizon configuration or feed is invalid.
    InvalidHorizon(&'static str),
    /// A committed plan failed to replay a frozen task's pinned start.
    FrozenTaskMoved {
        /// The task whose start drifted.
        task: TaskId,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::LengthMismatch { expected, got } => {
                write!(
                    f,
                    "allocation length {got} does not match trace length {expected}"
                )
            }
            SimError::InfeasibleAssignment { task, machine } => {
                write!(f, "task {task} cannot execute on machine {machine}")
            }
            SimError::UnknownMachine(m) => write!(f, "machine {m} is not in the system"),
            SimError::UnknownPState(p) => write!(f, "P-state index {p} is out of range"),
            SimError::InvalidHorizon(what) => write!(f, "invalid horizon stream: {what}"),
            SimError::FrozenTaskMoved { task } => {
                write!(f, "frozen task {task} moved in a re-optimized plan")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, SimError>;
