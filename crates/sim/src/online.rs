//! An online, energy-budgeted utility-maximisation scheduler — the
//! downstream consumer the paper's conclusion sketches: *"These energy
//! constraints could then be used in conjunction with a separate online
//! dynamic utility maximization heuristic."*
//!
//! The scheduler replays the trace in arrival order *without* lookahead:
//! at each arrival it greedily maps the task to the feasible machine that
//! maximises the utility it would earn given current queue states, subject
//! to the remaining energy budget. Tasks that cannot fit in the budget (or
//! whose best achievable utility is below `drop_threshold`) are rejected.
//!
//! Comparing the online result to the offline Pareto front at the same
//! energy quantifies the price of not knowing the future — the analysis
//! the `admin_analysis` example performs.

use hetsched_data::{HcSystem, MachineId};
use hetsched_workload::Trace;
use serde::{Deserialize, Serialize};

/// Online scheduler configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OnlineConfig {
    /// Total energy budget in joules (`f64::INFINITY` = unconstrained).
    pub energy_budget: f64,
    /// Reject a task when even its best placement earns less utility than
    /// this (0.0 keeps everything the budget allows).
    pub drop_threshold: f64,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            energy_budget: f64::INFINITY,
            drop_threshold: 0.0,
        }
    }
}

/// The per-arrival placement rule an online run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum OnlinePolicy {
    /// Greedy utility maximisation: place each task on the feasible
    /// machine that earns the most utility given current queue states,
    /// ties broken toward cheaper energy (the paper's sketched heuristic).
    #[default]
    MaxUtility,
    /// The Gupta–Krishnaswamy–Pruhs natural online rule, adapted to the
    /// discrete machine model: place each task where it least increases
    /// *energy + priority-weighted flow time* — their scalably-competitive
    /// objective for power-heterogeneous processors. Ties break toward
    /// cheaper energy, then lower machine index.
    GuptaGreedy,
}

impl OnlinePolicy {
    /// Stable lowercase label for CLI flags and reports.
    pub fn label(self) -> &'static str {
        match self {
            OnlinePolicy::MaxUtility => "max-utility",
            OnlinePolicy::GuptaGreedy => "gupta",
        }
    }
}

impl std::str::FromStr for OnlinePolicy {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "max-utility" | "maxutility" | "greedy" => Ok(OnlinePolicy::MaxUtility),
            "gupta" | "gupta-greedy" => Ok(OnlinePolicy::GuptaGreedy),
            _ => Err(format!(
                "unknown online policy {s:?} (expected max-utility or gupta)"
            )),
        }
    }
}

/// The outcome of an online run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineOutcome {
    /// Total utility earned by accepted tasks.
    pub utility: f64,
    /// Total energy consumed (≤ the budget).
    pub energy: f64,
    /// Completion time of the last accepted task.
    pub makespan: f64,
    /// Number of tasks accepted.
    pub accepted: usize,
    /// Indices of rejected tasks (budget exhausted or below threshold).
    pub rejected: Vec<u32>,
}

/// One policy decision: the best placement for `task` given current queue
/// states and the remaining budget, or `None` when no feasible machine
/// fits the budget.
///
/// Budget-boundary semantics (pinned by the regression tests): an
/// exhausted budget (`remaining <= 0.0`) admits *nothing*, including
/// zero-energy placements — a spent budget means the admission gate is
/// closed, not that free work sneaks through with `-0.0` accounting.
pub(crate) fn place(
    policy: OnlinePolicy,
    system: &HcSystem,
    task: &hetsched_workload::Task,
    machine_free: &[f64],
    remaining: f64,
) -> Option<(f64, MachineId, f64, f64)> {
    if remaining <= 0.0 {
        return None;
    }
    let mut best: Option<(f64, MachineId, f64, f64, f64)> = None; // (u, m, e, finish, cost)
    for &m in system.feasible_machines(task.task_type) {
        let e = system.energy(task.task_type, m);
        if e > remaining {
            continue;
        }
        let start = machine_free[m.index()].max(task.arrival);
        let finish = start + system.exec_time(task.task_type, m);
        let u = task.tuf.utility(finish - task.arrival);
        // GuptaGreedy minimises marginal energy + priority-weighted flow;
        // MaxUtility maximises utility. Both are expressed as a
        // minimisation so one comparator serves.
        let cost = match policy {
            OnlinePolicy::MaxUtility => -u,
            OnlinePolicy::GuptaGreedy => e + task.tuf.priority() * (finish - task.arrival),
        };
        let better = match best {
            None => true,
            Some((_, _, be, _, bc)) => cost < bc || (cost == bc && e < be),
        };
        if better {
            best = Some((u, m, e, finish, cost));
        }
    }
    best.map(|(u, m, e, finish, _)| (u, m, e, finish))
}

/// Runs the online scheduler over a trace with an explicit placement
/// [`OnlinePolicy`].
pub fn schedule_online_policy(
    system: &HcSystem,
    trace: &Trace,
    config: &OnlineConfig,
    policy: OnlinePolicy,
) -> OnlineOutcome {
    let mut machine_free = vec![0.0f64; system.machine_count()];
    let mut remaining = config.energy_budget;
    let (mut utility, mut energy, mut makespan) = (0.0, 0.0, 0.0f64);
    let mut accepted = 0usize;
    let mut rejected = Vec::new();

    // Tasks are visited strictly in arrival order: no future knowledge.
    for task in trace.tasks() {
        match place(policy, system, task, &machine_free, remaining) {
            Some((u, m, e, finish)) if u >= config.drop_threshold => {
                machine_free[m.index()] = finish;
                remaining = (remaining - e).max(0.0);
                utility += u;
                energy += e;
                makespan = makespan.max(finish);
                accepted += 1;
            }
            _ => rejected.push(task.id.0),
        }
    }
    OnlineOutcome {
        utility,
        energy,
        makespan,
        accepted,
        rejected,
    }
}

/// Runs the online greedy scheduler over a trace
/// ([`OnlinePolicy::MaxUtility`]).
pub fn schedule_online(system: &HcSystem, trace: &Trace, config: &OnlineConfig) -> OnlineOutcome {
    schedule_online_policy(system, trace, config, OnlinePolicy::MaxUtility)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsched_data::real_system;
    use hetsched_workload::TraceGenerator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(n: usize) -> (HcSystem, Trace) {
        let sys = real_system();
        let trace = TraceGenerator::new(n, 900.0, sys.task_type_count())
            .generate(&mut StdRng::seed_from_u64(61))
            .unwrap();
        (sys, trace)
    }

    #[test]
    fn unconstrained_run_accepts_everything() {
        let (sys, trace) = setup(50);
        let out = schedule_online(&sys, &trace, &OnlineConfig::default());
        assert_eq!(out.accepted, 50);
        assert!(out.rejected.is_empty());
        assert!(out.utility > 0.0);
    }

    #[test]
    fn budget_is_respected_exactly() {
        let (sys, trace) = setup(80);
        let unconstrained = schedule_online(&sys, &trace, &OnlineConfig::default());
        let budget = unconstrained.energy * 0.5;
        let out = schedule_online(
            &sys,
            &trace,
            &OnlineConfig {
                energy_budget: budget,
                drop_threshold: 0.0,
            },
        );
        assert!(out.energy <= budget + 1e-9);
        assert!(out.accepted < 80, "half the budget cannot fit everything");
        assert_eq!(out.accepted + out.rejected.len(), 80);
    }

    #[test]
    fn tighter_budgets_earn_monotonically_less() {
        let (sys, trace) = setup(60);
        let full = schedule_online(&sys, &trace, &OnlineConfig::default());
        let mut prev_utility = full.utility + 1.0;
        for frac in [1.0, 0.6, 0.3, 0.1] {
            let out = schedule_online(
                &sys,
                &trace,
                &OnlineConfig {
                    energy_budget: full.energy * frac,
                    drop_threshold: 0.0,
                },
            );
            assert!(out.utility <= prev_utility + 1e-9, "frac {frac}");
            prev_utility = out.utility;
        }
    }

    #[test]
    fn zero_budget_rejects_everything() {
        let (sys, trace) = setup(10);
        let out = schedule_online(
            &sys,
            &trace,
            &OnlineConfig {
                energy_budget: 0.0,
                drop_threshold: 0.0,
            },
        );
        assert_eq!(out.accepted, 0);
        assert_eq!(out.rejected.len(), 10);
        assert_eq!(out.energy, 0.0);
        assert_eq!(out.utility, 0.0);
    }

    #[test]
    fn drop_threshold_rejects_low_value_placements() {
        let (sys, trace) = setup(40);
        let all = schedule_online(&sys, &trace, &OnlineConfig::default());
        let picky = schedule_online(
            &sys,
            &trace,
            &OnlineConfig {
                energy_budget: f64::INFINITY,
                drop_threshold: 2.0,
            },
        );
        assert!(picky.accepted <= all.accepted);
        // Every accepted task contributed at least the threshold.
        assert!(picky.utility >= picky.accepted as f64 * 2.0 - 1e-9);
    }

    #[test]
    fn online_never_beats_offline_upper_bound() {
        let (sys, trace) = setup(50);
        let out = schedule_online(&sys, &trace, &OnlineConfig::default());
        assert!(out.utility <= trace.max_possible_utility() + 1e-9);
    }

    /// Regression: an exactly-exhausted budget must reject every further
    /// task — before the fix, a zero-energy placement at
    /// `remaining == 0.0` slipped through the `e > remaining` check and
    /// drove the accounting negative.
    #[test]
    fn exhausted_budget_closes_the_admission_gate() {
        let (sys, trace) = setup(20);
        // The admission gate itself: a spent budget admits nothing, even
        // hypothetical zero-energy work.
        for task in trace.tasks() {
            let free = vec![0.0f64; sys.machine_count()];
            assert_eq!(
                place(OnlinePolicy::MaxUtility, &sys, task, &free, 0.0),
                None
            );
            assert_eq!(
                place(OnlinePolicy::GuptaGreedy, &sys, task, &free, -0.0),
                None
            );
        }

        // End-to-end: set the budget to exactly the energy the first
        // greedy placement consumes; the run must accept exactly that
        // task, land on bit-exact +0.0 remaining (never -0.0), and reject
        // the rest.
        let first = schedule_online(
            &sys,
            &trace,
            &OnlineConfig {
                energy_budget: f64::INFINITY,
                drop_threshold: 0.0,
            },
        );
        assert!(first.accepted > 0);
        let free = vec![0.0f64; sys.machine_count()];
        let (_, _, first_energy, _) = place(
            OnlinePolicy::MaxUtility,
            &sys,
            &trace.tasks()[0],
            &free,
            f64::INFINITY,
        )
        .unwrap();
        let out = schedule_online(
            &sys,
            &trace,
            &OnlineConfig {
                energy_budget: first_energy,
                drop_threshold: 0.0,
            },
        );
        assert_eq!(out.accepted, 1, "budget fits exactly one task");
        assert_eq!(out.rejected.len(), 19);
        assert_eq!(out.energy.to_bits(), first_energy.to_bits());
        assert_eq!(
            (first_energy - out.energy).max(0.0).to_bits(),
            0.0f64.to_bits(),
            "remaining budget must be +0.0, not -0.0"
        );
    }

    #[test]
    fn policy_labels_roundtrip() {
        for p in [OnlinePolicy::MaxUtility, OnlinePolicy::GuptaGreedy] {
            assert_eq!(p.label().parse::<OnlinePolicy>().unwrap(), p);
        }
        assert!("random".parse::<OnlinePolicy>().is_err());
    }

    #[test]
    fn gupta_greedy_trades_utility_for_energy_and_flow() {
        let (sys, trace) = setup(60);
        let cfg = OnlineConfig::default();
        let mu = schedule_online_policy(&sys, &trace, &cfg, OnlinePolicy::MaxUtility);
        let gupta = schedule_online_policy(&sys, &trace, &cfg, OnlinePolicy::GuptaGreedy);
        // Unconstrained, both accept everything; they differ in placement.
        assert_eq!(mu.accepted, 60);
        assert_eq!(gupta.accepted, 60);
        // MaxUtility is by construction the per-arrival utility optimum.
        assert!(mu.utility >= gupta.utility - 1e-9);
        // Gupta's cost folds energy in, so it never spends more energy
        // *and* more priority-weighted flow than the utility chaser; on
        // this workload it lands strictly cheaper in energy.
        assert!(gupta.energy <= mu.energy + 1e-9);
        assert!(gupta.utility > 0.0);
    }

    #[test]
    fn gupta_greedy_respects_budget() {
        let (sys, trace) = setup(80);
        let unconstrained = schedule_online_policy(
            &sys,
            &trace,
            &OnlineConfig::default(),
            OnlinePolicy::GuptaGreedy,
        );
        let budget = unconstrained.energy * 0.4;
        let out = schedule_online_policy(
            &sys,
            &trace,
            &OnlineConfig {
                energy_budget: budget,
                drop_threshold: 0.0,
            },
            OnlinePolicy::GuptaGreedy,
        );
        assert!(out.energy <= budget + 1e-9);
        assert_eq!(out.accepted + out.rejected.len(), 80);
        assert!(out.accepted < 80);
    }
}
