//! Rolling-horizon streaming scheduling: the mechanics that turn the
//! single-shot online greedy into a re-optimising pipeline.
//!
//! A [`HorizonScheduler`] owns the stream state — every task fed so far,
//! which of them are *frozen* (already started executing), which were
//! rejected to keep the committed schedule inside the energy budget, and
//! the currently committed schedule. Each [`tick`](HorizonScheduler::tick)
//! hands the pending window to a [`Reoptimize`] implementation (an
//! evolutionary engine warm-started from the previous front lives in
//! `hetsched-core`; the non-evolutionary [`PolicyReoptimizer`] lives here)
//! and commits the returned plan.
//!
//! # Contract
//!
//! * **Determinism** — the scheduler itself draws no random numbers:
//!   `feed` + `tick` sequences are pure functions of the fed tasks and the
//!   reoptimizer's output, so a stream replayed from a persisted
//!   checkpoint re-commits bit-identical schedules. Engine-backed
//!   reoptimizers derive their RNG streams from their *own* seeds; the
//!   scheduler never perturbs them (RNG-stream isolation).
//! * **Freeze rule** — after committing at tick *k* (wall time
//!   `k × horizon`), every task whose committed start lies before
//!   `(k+1) × horizon` is frozen: its machine and start time are pinned in
//!   every later horizon. The scheduler *enforces* this by construction —
//!   frozen tasks are re-assigned their pinned machine and scheduled ahead
//!   of all pending work in their original start order, which replays
//!   their start times exactly — and then *verifies* it, failing the tick
//!   with [`SimError::FrozenTaskMoved`] if a committed start ever drifts.
//! * **Budget invariant** — the committed schedule's total energy is kept
//!   `≤ energy_budget` at *every* tick, not just the last: when a
//!   reoptimized plan overruns, pending (never frozen) tasks are rejected
//!   lowest-value-first (priority per joule) until the plan fits. Frozen
//!   energy can only shrink the head-room monotonically, so an admitted
//!   prefix never has to be clawed back.

use crate::allocation::Allocation;
use crate::chaos;
use crate::detail::{DetailedOutcome, TaskRecord};
use crate::online::OnlinePolicy;
use crate::{Result, SimError};
use hetsched_data::{HcSystem, MachineId};
use hetsched_workload::{Task, TaskId, Trace};
use serde::{Deserialize, Serialize};

/// Rolling-horizon configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HorizonConfig {
    /// Tick length in seconds (> 0): wall time advances by this much per
    /// [`HorizonScheduler::tick`], and tasks starting within the upcoming
    /// window freeze.
    pub horizon: f64,
    /// Stream-wide committed-energy cap in joules
    /// (`f64::INFINITY` = unconstrained). JSON has no infinity, so an
    /// unconstrained budget is written as an absent key.
    #[serde(default = "unbounded", skip_serializing_if = "is_unbounded")]
    pub energy_budget: f64,
}

fn unbounded() -> f64 {
    f64::INFINITY
}

fn is_unbounded(budget: &f64) -> bool {
    !budget.is_finite()
}

impl Default for HorizonConfig {
    fn default() -> Self {
        HorizonConfig {
            horizon: 60.0,
            energy_budget: f64::INFINITY,
        }
    }
}

/// A task whose execution has begun: machine and start time are pinned.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FrozenTask {
    /// The task. Global (stream) id in [`HorizonScheduler`] state; the id
    /// within the tick's working trace inside [`HorizonContext`].
    pub task: TaskId,
    /// The machine it started on.
    pub machine: MachineId,
    /// Its committed start time (bit-stable across horizons).
    pub start: f64,
}

/// Everything a [`Reoptimize`] implementation sees at one tick.
///
/// `trace` covers the tick's *working set* — every non-rejected task fed
/// so far, ids re-ranked `0..trace.len()`. `frozen` and `carried` are
/// expressed in those working ids.
pub struct HorizonContext<'a> {
    /// The heterogeneous system.
    pub system: &'a HcSystem,
    /// The working trace for this tick.
    pub trace: &'a Trace,
    /// Already-started tasks (working ids): the plan must keep machine and
    /// start; the scheduler re-pins them regardless of what the
    /// reoptimizer returns.
    pub frozen: &'a [FrozenTask],
    /// For each working id, the task's index in the trace the reoptimizer
    /// saw at the *previous* tick (`None` for tasks that arrived since) —
    /// the projection map a warm-started reoptimizer uses to carry its
    /// previous genomes forward. Indices refer to the previous tick's
    /// *pre-repair* working set, i.e. exactly the genome length the
    /// reoptimizer produced then.
    pub carried: &'a [Option<u32>],
    /// Wall time of this tick (`tick × horizon`).
    pub now: f64,
    /// Tick index (0-based).
    pub tick: usize,
    /// The stream-wide energy budget the committed plan must respect.
    pub energy_budget: f64,
}

/// A per-tick re-optimizer: returns a full [`Allocation`] over
/// `ctx.trace`. Frozen tasks' entries are advisory — the scheduler
/// overrides them with the pinned machine/start order — but pending
/// machines and the pending tasks' *relative* order are honoured verbatim.
pub trait Reoptimize {
    /// Produces the plan for one tick.
    fn reoptimize(&mut self, ctx: &HorizonContext<'_>) -> Allocation;
}

/// What one tick committed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HorizonRecord {
    /// Tick index.
    pub tick: usize,
    /// Wall time the tick planned at.
    pub now: f64,
    /// Tasks covered by the committed schedule.
    pub tasks: usize,
    /// Frozen tasks after this tick.
    pub frozen: usize,
    /// Global ids rejected *at this tick* to fit the budget.
    pub rejected: Vec<u32>,
    /// Committed total utility.
    pub utility: f64,
    /// Committed total energy (≤ the budget).
    pub energy: f64,
    /// Committed makespan.
    pub makespan: f64,
}

/// The rolling-horizon stream scheduler. Serializable in full: persisting
/// a scheduler and deserializing it resumes the stream bit-identically
/// (see the module contract).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HorizonScheduler {
    config: HorizonConfig,
    /// Every task fed, in (non-decreasing) arrival order; index = global id.
    tasks: Vec<Task>,
    /// Sorted global ids rejected to keep the plan inside the budget.
    rejected: Vec<u32>,
    /// Frozen tasks (global ids), sorted by (start, id).
    frozen: Vec<FrozenTask>,
    /// Committed allocation over the previous tick's working set.
    committed: Option<Allocation>,
    /// Global ids of the trace the reoptimizer saw at the previous tick
    /// (pre-budget-repair) — the reference frame of `carried`.
    prev_active: Vec<u32>,
    /// Per-task committed schedule, task field = global id.
    timeline: Vec<TaskRecord>,
    records: Vec<HorizonRecord>,
    tick: usize,
}

impl HorizonScheduler {
    /// Creates a scheduler at tick 0 with no tasks.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidHorizon`] for a non-positive/non-finite horizon
    /// or a negative/NaN budget.
    pub fn new(config: HorizonConfig) -> Result<Self> {
        if !(config.horizon.is_finite() && config.horizon > 0.0) {
            return Err(SimError::InvalidHorizon("horizon must be finite and > 0"));
        }
        if config.energy_budget.is_nan() || config.energy_budget < 0.0 {
            return Err(SimError::InvalidHorizon("energy budget must be >= 0"));
        }
        Ok(HorizonScheduler {
            config,
            tasks: Vec::new(),
            rejected: Vec::new(),
            frozen: Vec::new(),
            committed: None,
            prev_active: Vec::new(),
            timeline: Vec::new(),
            records: Vec::new(),
            tick: 0,
        })
    }

    /// The configuration.
    pub fn config(&self) -> HorizonConfig {
        self.config
    }

    /// Wall time of the *next* tick.
    pub fn now(&self) -> f64 {
        self.tick as f64 * self.config.horizon
    }

    /// Completed tick count.
    pub fn ticks(&self) -> usize {
        self.tick
    }

    /// Total tasks fed so far.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Global ids rejected so far (sorted).
    pub fn rejected(&self) -> &[u32] {
        &self.rejected
    }

    /// Frozen tasks (global ids, sorted by start).
    pub fn frozen(&self) -> &[FrozenTask] {
        &self.frozen
    }

    /// One record per completed tick.
    pub fn records(&self) -> &[HorizonRecord] {
        &self.records
    }

    /// The committed schedule, one record per scheduled task with `task`
    /// holding the *global* id. Rejected tasks do not appear.
    pub fn timeline(&self) -> &[TaskRecord] {
        &self.timeline
    }

    /// The committed allocation over the current working set (None before
    /// the first tick).
    pub fn committed(&self) -> Option<&Allocation> {
        self.committed.as_ref()
    }

    /// Appends newly arrived tasks. Arrivals must be finite, non-negative,
    /// and non-decreasing across the whole stream — that is what keeps
    /// global ids (arrival ranks) stable as the stream grows. Task ids on
    /// the way in are ignored and re-assigned. Returns the number of tasks
    /// now known.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidHorizon`] on an out-of-order or invalid arrival.
    pub fn feed(&mut self, new_tasks: Vec<Task>) -> Result<usize> {
        chaos::raise("arrivals.feed", &self.tasks.len());
        let mut frontier = self.tasks.last().map_or(0.0, |t| t.arrival);
        for mut t in new_tasks {
            if !t.arrival.is_finite() || t.arrival < 0.0 {
                return Err(SimError::InvalidHorizon(
                    "arrival must be finite and non-negative",
                ));
            }
            if t.arrival < frontier {
                return Err(SimError::InvalidHorizon(
                    "arrivals must be fed in non-decreasing order",
                ));
            }
            frontier = t.arrival;
            t.id = TaskId(self.tasks.len() as u32);
            self.tasks.push(t);
        }
        Ok(self.tasks.len())
    }

    /// Global ids of the current working set (fed minus rejected).
    fn active(&self) -> Vec<u32> {
        let mut rejected = self.rejected.iter().copied().peekable();
        let mut active = Vec::with_capacity(self.tasks.len() - self.rejected.len());
        for g in 0..self.tasks.len() as u32 {
            if rejected.peek() == Some(&g) {
                rejected.next();
            } else {
                active.push(g);
            }
        }
        active
    }

    /// Builds the working trace over `active` (ids become working ranks).
    fn working_trace(&self, active: &[u32]) -> Result<Trace> {
        let tasks: Vec<Task> = active
            .iter()
            .map(|&g| self.tasks[g as usize].clone())
            .collect();
        let max_arrival = tasks.last().map_or(0.0, |t| t.arrival);
        let duration = max_arrival
            .max((self.tick + 1) as f64 * self.config.horizon)
            .max(self.config.horizon);
        Trace::new(tasks, duration).map_err(|_| SimError::InvalidHorizon("invalid working trace"))
    }

    /// Runs one horizon tick: re-optimizes the working set, enforces the
    /// freeze rule and the budget invariant, and commits the plan. Wall
    /// time then advances by one horizon.
    ///
    /// # Errors
    ///
    /// * [`SimError::FrozenTaskMoved`] — the committed plan failed to
    ///   replay a frozen task's start (a reoptimizer/scheduler bug; the
    ///   normalisation makes this unreachable in practice).
    /// * Validation errors from a malformed reoptimizer allocation.
    pub fn tick(&mut self, system: &HcSystem, reopt: &mut dyn Reoptimize) -> Result<HorizonRecord> {
        let now = self.now();
        let freeze_before = (self.tick + 1) as f64 * self.config.horizon;
        let mut active = self.active();

        if active.is_empty() {
            let record = HorizonRecord {
                tick: self.tick,
                now,
                tasks: 0,
                frozen: self.frozen.len(),
                rejected: Vec::new(),
                utility: 0.0,
                energy: 0.0,
                makespan: 0.0,
            };
            self.records.push(record.clone());
            self.prev_active = active;
            self.tick += 1;
            return Ok(record);
        }

        let trace = self.working_trace(&active)?;
        // The working set as the reoptimizer sees it — budget repair below
        // mutates `active`, but `carried` at the *next* tick must index
        // into the genome produced against this view.
        let seen = active.clone();

        // Working-id views of the frozen set and the carry-forward map.
        let frozen_local: Vec<FrozenTask> = self
            .frozen
            .iter()
            .map(|f| FrozenTask {
                task: TaskId(index_of(&active, f.task.0)),
                machine: f.machine,
                start: f.start,
            })
            .collect();
        let carried: Vec<Option<u32>> = active
            .iter()
            .map(|&g| self.prev_active.binary_search(&g).ok().map(|i| i as u32))
            .collect();

        let ctx = HorizonContext {
            system,
            trace: &trace,
            frozen: &frozen_local,
            carried: &carried,
            now,
            tick: self.tick,
            energy_budget: self.config.energy_budget,
        };
        let plan = reopt.reoptimize(&ctx);
        plan.validate(system, &trace)?;

        // Normalise: frozen tasks get their pinned machine and the lowest
        // order keys (in start order), which replays their starts exactly;
        // pending tasks keep the reoptimizer's machines and relative order.
        let mut alloc = normalize(&plan, &frozen_local);
        let mut trace = trace;
        let mut detail = DetailedOutcome::evaluate(system, &trace, &alloc)?;

        // Budget repair: reject pending tasks, lowest priority-per-joule
        // first, until the committed energy fits.
        let mut rejected_now: Vec<u32> = Vec::new();
        while detail.energy > self.config.energy_budget {
            // Working ids shift as victims are removed, so the frozen set
            // must be re-indexed against the *current* working set each
            // iteration — indexing via the stale pre-repair view could
            // leave a frozen task unprotected and reject it.
            let frozen_ids: Vec<u32> = self
                .frozen
                .iter()
                .map(|f| index_of(&active, f.task.0))
                .collect();
            let victim = detail
                .tasks
                .iter()
                .enumerate()
                .filter(|(i, _)| !frozen_ids.contains(&(*i as u32)))
                .min_by(|(ia, a), (ib, b)| {
                    let score_a = trace.tasks()[*ia].tuf.priority() / a.energy;
                    let score_b = trace.tasks()[*ib].tuf.priority() / b.energy;
                    // Lowest value-per-joule goes first; ties drop the
                    // later arrival.
                    score_a.total_cmp(&score_b).then(ib.cmp(ia))
                })
                .map(|(i, _)| i);
            let Some(victim) = victim else {
                // Only frozen tasks remain; their energy was admitted
                // under the budget at freeze time.
                break;
            };
            rejected_now.push(active[victim]);
            active.remove(victim);
            let mut machines = alloc.machine;
            let mut order = alloc.order;
            machines.remove(victim);
            order.remove(victim);
            alloc = Allocation {
                machine: machines,
                order,
            };
            trace = self.working_trace(&active)?;
            detail = DetailedOutcome::evaluate(system, &trace, &alloc)?;
        }
        rejected_now.sort_unstable();

        // Verify the freeze rule held (bit-exact starts).
        for f in &self.frozen {
            let w = index_of(&active, f.task.0) as usize;
            let r = &detail.tasks[w];
            if r.machine != f.machine || r.start.to_bits() != f.start.to_bits() {
                return Err(SimError::FrozenTaskMoved { task: f.task });
            }
        }

        chaos::raise("scheduler.horizon.commit", &self.tick);

        // Commit: freeze newly started tasks and record the schedule with
        // global ids.
        let mut timeline = Vec::with_capacity(detail.tasks.len());
        for (w, r) in detail.tasks.iter().enumerate() {
            let mut r = *r;
            r.task = TaskId(active[w]);
            timeline.push(r);
            if r.start < freeze_before && !self.frozen.iter().any(|f| f.task == r.task) {
                self.frozen.push(FrozenTask {
                    task: r.task,
                    machine: r.machine,
                    start: r.start,
                });
            }
        }
        self.frozen
            .sort_by(|a, b| a.start.total_cmp(&b.start).then(a.task.cmp(&b.task)));
        for g in &rejected_now {
            let pos = self.rejected.binary_search(g).unwrap_err();
            self.rejected.insert(pos, *g);
        }

        let record = HorizonRecord {
            tick: self.tick,
            now,
            tasks: detail.tasks.len(),
            frozen: self.frozen.len(),
            rejected: rejected_now,
            utility: detail.utility,
            energy: detail.energy,
            makespan: detail.makespan,
        };
        self.records.push(record.clone());
        self.timeline = timeline;
        self.committed = Some(alloc);
        self.prev_active = seen;
        self.tick += 1;
        Ok(record)
    }
}

/// Position of global id `g` in the sorted working set.
fn index_of(active: &[u32], g: u32) -> u32 {
    active
        .binary_search(&g)
        .expect("frozen tasks are never rejected") as u32
}

/// Applies the freeze rule to a reoptimizer plan: frozen tasks are pinned
/// to their machine and scheduled first in start order; pending tasks keep
/// their machines and relative order after them.
fn normalize(plan: &Allocation, frozen: &[FrozenTask]) -> Allocation {
    let n = plan.len();
    let mut machine = plan.machine.clone();
    let mut order = vec![0u32; n];
    let mut is_frozen = vec![false; n];
    // Frozen prefix: keys 0..f in (start, id) order — per machine this is
    // exactly the original queue order, so starts replay bit-identically.
    let mut by_start: Vec<&FrozenTask> = frozen.iter().collect();
    by_start.sort_by(|a, b| a.start.total_cmp(&b.start).then(a.task.cmp(&b.task)));
    for (key, f) in by_start.iter().enumerate() {
        let i = f.task.0 as usize;
        machine[i] = f.machine;
        order[i] = key as u32;
        is_frozen[i] = true;
    }
    // Pending: keys f.. in the plan's own (order, id) sequence.
    let mut pending: Vec<u32> = (0..n as u32).filter(|&i| !is_frozen[i as usize]).collect();
    pending.sort_by_key(|&i| (plan.order[i as usize], i));
    for (rank, &i) in pending.iter().enumerate() {
        order[i as usize] = (frozen.len() + rank) as u32;
    }
    Allocation { machine, order }
}

/// A non-evolutionary [`Reoptimize`]r: replays an [`OnlinePolicy`] over
/// the pending window given the frozen machine states — the principled
/// streaming baseline (Gupta et al.'s natural online rule via
/// [`OnlinePolicy::GuptaGreedy`]).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PolicyReoptimizer {
    /// The per-arrival placement rule.
    pub policy: OnlinePolicy,
}

impl PolicyReoptimizer {
    /// A reoptimizer applying `policy` each tick.
    pub fn new(policy: OnlinePolicy) -> Self {
        PolicyReoptimizer { policy }
    }
}

impl Reoptimize for PolicyReoptimizer {
    fn reoptimize(&mut self, ctx: &HorizonContext<'_>) -> Allocation {
        let system = ctx.system;
        let tasks = ctx.trace.tasks();
        let mut machine_free = vec![0.0f64; system.machine_count()];
        let mut remaining = ctx.energy_budget;
        let mut is_frozen = vec![false; tasks.len()];
        for f in ctx.frozen {
            let i = f.task.0 as usize;
            let exec = system.exec_time(tasks[i].task_type, f.machine);
            machine_free[f.machine.index()] = machine_free[f.machine.index()].max(f.start + exec);
            remaining -= system.energy(tasks[i].task_type, f.machine);
            is_frozen[i] = true;
        }
        let mut machines: Vec<MachineId> = vec![MachineId(0); tasks.len()];
        for (i, task) in tasks.iter().enumerate() {
            if is_frozen[i] {
                machines[i] = ctx
                    .frozen
                    .iter()
                    .find(|f| f.task.0 as usize == i)
                    .expect("frozen flag set from this list")
                    .machine;
                continue;
            }
            let placed = crate::online::place(self.policy, system, task, &machine_free, remaining);
            let m = match placed {
                Some((_, m, e, finish)) => {
                    machine_free[m.index()] = finish;
                    remaining = (remaining - e).max(0.0);
                    m
                }
                // Budget-infeasible: park on the cheapest machine and let
                // the scheduler's budget repair reject it.
                None => *system
                    .feasible_machines(task.task_type)
                    .iter()
                    .min_by(|&&a, &&b| {
                        system
                            .energy(task.task_type, a)
                            .total_cmp(&system.energy(task.task_type, b))
                    })
                    .expect("validated system"),
            };
            machines[i] = m;
        }
        Allocation::with_arrival_order(machines)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsched_data::real_system;
    use hetsched_workload::{ArrivalSpec, TufPolicy};

    fn stream_tasks(rate: f64, until: f64) -> Vec<Task> {
        ArrivalSpec::poisson(rate)
            .unwrap()
            .generate(
                17,
                0.0..until,
                real_system().task_type_count(),
                &TufPolicy::essc_default(),
            )
            .unwrap()
    }

    fn run_stream(
        config: HorizonConfig,
        policy: OnlinePolicy,
        windows: &[f64],
        rate: f64,
    ) -> HorizonScheduler {
        let sys = real_system();
        let mut sched = HorizonScheduler::new(config).unwrap();
        let mut reopt = PolicyReoptimizer::new(policy);
        let mut from = 0.0;
        for &until in windows {
            let tasks: Vec<Task> = stream_tasks(rate, *windows.last().unwrap())
                .into_iter()
                .filter(|t| t.arrival >= from && t.arrival < until)
                .collect();
            from = until;
            sched.feed(tasks).unwrap();
            sched.tick(&sys, &mut reopt).unwrap();
        }
        sched
    }

    #[test]
    fn config_and_feed_validation() {
        assert!(HorizonScheduler::new(HorizonConfig {
            horizon: 0.0,
            ..Default::default()
        })
        .is_err());
        assert!(HorizonScheduler::new(HorizonConfig {
            horizon: 60.0,
            energy_budget: -1.0,
        })
        .is_err());
        let mut s = HorizonScheduler::new(HorizonConfig::default()).unwrap();
        let mut tasks = stream_tasks(2.0, 30.0);
        assert!(s.feed(tasks.clone()).is_ok());
        // Feeding an earlier arrival than the frontier is rejected.
        tasks.truncate(1);
        assert!(s.feed(tasks).is_err());
    }

    #[test]
    fn frozen_tasks_keep_machine_and_start_across_ticks() {
        let config = HorizonConfig {
            horizon: 20.0,
            energy_budget: f64::INFINITY,
        };
        let sys = real_system();
        let mut sched = HorizonScheduler::new(config).unwrap();
        let mut reopt = PolicyReoptimizer::new(OnlinePolicy::MaxUtility);
        let all = stream_tasks(2.0, 80.0);
        let mut pinned: Vec<FrozenTask> = Vec::new();
        for k in 0..4 {
            let (from, until) = (k as f64 * 20.0, (k + 1) as f64 * 20.0);
            let batch: Vec<Task> = all
                .iter()
                .filter(|t| t.arrival >= from && t.arrival < until)
                .cloned()
                .collect();
            sched.feed(batch).unwrap();
            sched.tick(&sys, &mut reopt).unwrap();
            // Every previously pinned task must be unchanged in the new
            // frozen set, bit for bit.
            for p in &pinned {
                let f = sched
                    .frozen()
                    .iter()
                    .find(|f| f.task == p.task)
                    .expect("frozen tasks never thaw");
                assert_eq!(f.machine, p.machine);
                assert_eq!(f.start.to_bits(), p.start.to_bits());
            }
            pinned = sched.frozen().to_vec();
            assert!(!pinned.is_empty(), "tick {k} froze nothing");
        }
    }

    #[test]
    fn budget_invariant_holds_at_every_tick() {
        let unconstrained = run_stream(
            HorizonConfig {
                horizon: 15.0,
                energy_budget: f64::INFINITY,
            },
            OnlinePolicy::MaxUtility,
            &[15.0, 30.0, 45.0, 60.0],
            3.0,
        );
        let total = unconstrained.records().last().unwrap().energy;
        let budget = total * 0.5;
        let capped = run_stream(
            HorizonConfig {
                horizon: 15.0,
                energy_budget: budget,
            },
            OnlinePolicy::MaxUtility,
            &[15.0, 30.0, 45.0, 60.0],
            3.0,
        );
        for r in capped.records() {
            assert!(
                r.energy <= budget,
                "tick {} committed {} over budget {budget}",
                r.tick,
                r.energy
            );
        }
        assert!(
            !capped.rejected().is_empty(),
            "half the budget must force rejections"
        );
        // Rejected tasks are not in the timeline; accepted + rejected
        // account for everything fed.
        let last = capped.records().last().unwrap();
        assert_eq!(last.tasks + capped.rejected().len(), capped.task_count());
    }

    #[test]
    fn timeline_uses_global_ids_and_covers_active_tasks() {
        let sched = run_stream(
            HorizonConfig {
                horizon: 10.0,
                energy_budget: f64::INFINITY,
            },
            OnlinePolicy::GuptaGreedy,
            &[10.0, 20.0, 30.0],
            2.0,
        );
        let ids: Vec<u32> = sched.timeline().iter().map(|r| r.task.0).collect();
        let expected: Vec<u32> = (0..sched.task_count() as u32).collect();
        assert_eq!(ids, expected);
        for r in sched.timeline() {
            assert!(r.start >= r.arrival);
            assert!(r.finish > r.start);
        }
    }

    #[test]
    fn serialized_scheduler_resumes_bit_identically() {
        let config = HorizonConfig {
            horizon: 12.0,
            energy_budget: f64::INFINITY,
        };
        let sys = real_system();
        let all = stream_tasks(2.5, 48.0);
        let batch = |from: f64, until: f64| -> Vec<Task> {
            all.iter()
                .filter(|t| t.arrival >= from && t.arrival < until)
                .cloned()
                .collect()
        };

        // Uninterrupted run: four ticks.
        let mut a = HorizonScheduler::new(config).unwrap();
        let mut reopt = PolicyReoptimizer::new(OnlinePolicy::MaxUtility);
        for k in 0..4 {
            a.feed(batch(k as f64 * 12.0, (k + 1) as f64 * 12.0))
                .unwrap();
            a.tick(&sys, &mut reopt).unwrap();
        }

        // Interrupted run: snapshot after two ticks, resume from JSON.
        let mut b = HorizonScheduler::new(config).unwrap();
        for k in 0..2 {
            b.feed(batch(k as f64 * 12.0, (k + 1) as f64 * 12.0))
                .unwrap();
            b.tick(&sys, &mut reopt).unwrap();
        }
        let snapshot = serde_json::to_string(&b).unwrap();
        let mut resumed: HorizonScheduler = serde_json::from_str(&snapshot).unwrap();
        for k in 2..4 {
            resumed
                .feed(batch(k as f64 * 12.0, (k + 1) as f64 * 12.0))
                .unwrap();
            resumed.tick(&sys, &mut reopt).unwrap();
        }

        assert_eq!(
            serde_json::to_string(a.timeline()).unwrap(),
            serde_json::to_string(resumed.timeline()).unwrap(),
            "resumed stream must re-commit a byte-identical schedule"
        );
        assert_eq!(a.records(), resumed.records());
    }

    #[test]
    fn an_unbounded_budget_is_an_absent_key() {
        let json = serde_json::to_string(&HorizonConfig::default()).unwrap();
        assert_eq!(json, r#"{"horizon":60.0}"#);
        let back: HorizonConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.energy_budget, f64::INFINITY);
        assert_eq!(back, HorizonConfig::default());

        let capped = HorizonConfig {
            horizon: 20.0,
            energy_budget: 5000.0,
        };
        let json = serde_json::to_string(&capped).unwrap();
        assert_eq!(json, r#"{"horizon":20.0,"energy_budget":5000.0}"#);
        assert_eq!(
            serde_json::from_str::<HorizonConfig>(&json).unwrap(),
            capped
        );
    }

    #[test]
    fn empty_tick_advances_time_without_work() {
        let sys = real_system();
        let mut sched = HorizonScheduler::new(HorizonConfig::default()).unwrap();
        let mut reopt = PolicyReoptimizer::new(OnlinePolicy::MaxUtility);
        let r = sched.tick(&sys, &mut reopt).unwrap();
        assert_eq!(r.tasks, 0);
        assert_eq!(sched.now(), 60.0);
    }
}
