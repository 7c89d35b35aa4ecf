//! The predecessor problem the paper's NSGA-II adaptation grew out of
//! (Friese et al., INFOCOMP 2012, reference \[3\]): a **bag-of-tasks**
//! bi-objective optimisation minimising *makespan* and *energy*. The paper
//! explicitly contrasts its utility-based formulation with this one ("they
//! model an environment where the workload is a bag of tasks, not a trace
//! from a dynamic system"), so having both lets the benches compare the two
//! formulations on identical systems.
//!
//! A bag of tasks has no arrival times (everything is available at t = 0)
//! and no TUFs; the genome is the same machine-assignment/order encoding.

use hetsched_data::{HcSystem, MachineId, TaskTypeId};
use hetsched_moea::{Objectives, Problem};
use rand::{Rng, RngCore};

/// A bag-of-tasks instance: `counts[τ]` tasks of each task type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskBag {
    /// One entry per task: its task type.
    pub tasks: Vec<TaskTypeId>,
}

impl TaskBag {
    /// A bag with `count` tasks of every task type of `system`.
    pub fn uniform(system: &HcSystem, count: usize) -> Self {
        let mut tasks = Vec::with_capacity(system.task_type_count() * count);
        for t in 0..system.task_type_count() {
            tasks.extend(std::iter::repeat_n(TaskTypeId(t as u16), count));
        }
        TaskBag { tasks }
    }

    /// A bag sampled uniformly over the task types.
    pub fn random<R: Rng + ?Sized>(system: &HcSystem, size: usize, rng: &mut R) -> Self {
        let tasks = (0..size)
            .map(|_| TaskTypeId(rng.gen_range(0..system.task_type_count()) as u16))
            .collect();
        TaskBag { tasks }
    }

    /// Number of tasks in the bag.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the bag is empty.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }
}

/// A bag-of-tasks assignment: machine per task (order inside a machine is
/// irrelevant for makespan — completion of the machine is the sum of its
/// tasks' execution times).
pub type BagAssignment = Vec<MachineId>;

/// The makespan/energy bi-objective problem of reference \[3\].
pub struct MakespanProblem<'a> {
    system: &'a HcSystem,
    bag: &'a TaskBag,
    feasible: Vec<&'a [MachineId]>,
}

/// Per-thread scratch for makespan evaluation.
pub struct MakespanEvaluator {
    machine_load: Vec<f64>,
}

impl<'a> MakespanProblem<'a> {
    /// Binds the problem.
    pub fn new(system: &'a HcSystem, bag: &'a TaskBag) -> Self {
        let feasible = bag
            .tasks
            .iter()
            .map(|&t| system.feasible_machines(t))
            .collect();
        MakespanProblem {
            system,
            bag,
            feasible,
        }
    }

    /// The bag being scheduled.
    pub fn bag(&self) -> &TaskBag {
        self.bag
    }

    /// Computes `(makespan, energy)` for an assignment.
    pub fn outcome(&self, ev: &mut MakespanEvaluator, assignment: &BagAssignment) -> (f64, f64) {
        ev.machine_load.clear();
        ev.machine_load.resize(self.system.machine_count(), 0.0);
        let mut energy = 0.0;
        for (&t, &m) in self.bag.tasks.iter().zip(assignment) {
            ev.machine_load[m.index()] += self.system.exec_time(t, m);
            energy += self.system.energy(t, m);
        }
        let makespan = ev.machine_load.iter().cloned().fold(0.0f64, f64::max);
        (makespan, energy)
    }
}

impl<'a> Problem for MakespanProblem<'a> {
    type Genome = BagAssignment;
    type Evaluator = MakespanEvaluator;

    fn evaluator(&self) -> MakespanEvaluator {
        MakespanEvaluator {
            machine_load: Vec::new(),
        }
    }

    fn evaluate(&self, ev: &mut MakespanEvaluator, genome: &BagAssignment) -> Objectives {
        let (makespan, energy) = self.outcome(ev, genome);
        [makespan, energy]
    }

    fn random_genome(&self, rng: &mut dyn RngCore) -> BagAssignment {
        self.feasible
            .iter()
            .map(|ms| ms[rng.gen_range(0..ms.len())])
            .collect()
    }

    fn crossover(
        &self,
        rng: &mut dyn RngCore,
        a: &BagAssignment,
        b: &BagAssignment,
    ) -> (BagAssignment, BagAssignment) {
        let n = a.len();
        let (mut c, mut d) = (a.clone(), b.clone());
        let i = rng.gen_range(0..n);
        let j = rng.gen_range(0..n);
        let (lo, hi) = if i <= j { (i, j) } else { (j, i) };
        c[lo..=hi].swap_with_slice(&mut d[lo..=hi]);
        (c, d)
    }

    fn mutate(&self, rng: &mut dyn RngCore, genome: &mut BagAssignment) {
        let g = rng.gen_range(0..genome.len());
        let options = self.feasible[g];
        genome[g] = options[rng.gen_range(0..options.len())];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsched_data::real_system;
    use hetsched_moea::{EngineConfig, Nsga2Config};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_bag_shape() {
        let sys = real_system();
        let bag = TaskBag::uniform(&sys, 4);
        assert_eq!(bag.len(), 20);
        assert!(!bag.is_empty());
    }

    #[test]
    fn outcome_matches_hand_computation() {
        let sys = real_system();
        let bag = TaskBag {
            tasks: vec![TaskTypeId(0), TaskTypeId(0), TaskTypeId(4)],
        };
        let problem = MakespanProblem::new(&sys, &bag);
        let mut ev = problem.evaluator();
        // Two C-Ray tasks on machine 0 (95 s each), one kernel build on
        // machine 6 (68 s): makespan = 190, energy = 2·95·128 + 68·233.
        let assignment = vec![MachineId(0), MachineId(0), MachineId(6)];
        let (makespan, energy) = problem.outcome(&mut ev, &assignment);
        assert!((makespan - 190.0).abs() < 1e-9);
        assert!((energy - (2.0 * 95.0 * 128.0 + 68.0 * 233.0)).abs() < 1e-9);
    }

    #[test]
    fn nsga2_finds_makespan_energy_tradeoff() {
        let sys = real_system();
        let mut rng = StdRng::seed_from_u64(17);
        let bag = TaskBag::random(&sys, 60, &mut rng);
        let problem = MakespanProblem::new(&sys, &bag);
        let cfg = Nsga2Config {
            population: 40,
            mutation_rate: 0.7,
            generations: 80,
            parallel: false,
            ..Default::default()
        };
        // Seed with the energy-greedy assignment (the paper's seeding idea
        // applied to the predecessor problem): the floor is then pinned.
        let energy_seed: BagAssignment = bag
            .tasks
            .iter()
            .map(|&t| {
                *sys.feasible_machines(t)
                    .iter()
                    .min_by(|&&a, &&b| sys.energy(t, a).total_cmp(&sys.energy(t, b)))
                    .unwrap()
            })
            .collect();
        let pop = EngineConfig::Nsga2(cfg).run(&problem, vec![energy_seed], 23);
        let min_makespan = pop
            .iter()
            .map(|i| i.objectives[0])
            .fold(f64::INFINITY, f64::min);
        let min_energy = pop
            .iter()
            .map(|i| i.objectives[1])
            .fold(f64::INFINITY, f64::min);
        // The energy floor: every task on its cheapest machine.
        let floor: f64 = bag.tasks.iter().map(|&t| sys.min_energy_per_type(t)).sum();
        assert!(min_energy >= floor - 1e-9);
        assert!(
            (min_energy - floor) / floor < 1e-9,
            "elitism must keep the seeded floor"
        );
        // And a genuine trade-off: the fastest solution spends more energy
        // than the cheapest one.
        let fastest = pop
            .iter()
            .min_by(|a, b| a.objectives[0].total_cmp(&b.objectives[0]))
            .unwrap();
        assert!(fastest.objectives[1] > min_energy);
        assert!(min_makespan > 0.0);
    }

    #[test]
    fn operators_stay_feasible() {
        let sys = real_system();
        let mut rng = StdRng::seed_from_u64(5);
        let bag = TaskBag::random(&sys, 30, &mut rng);
        let problem = MakespanProblem::new(&sys, &bag);
        let mut g = problem.random_genome(&mut rng);
        let h = problem.random_genome(&mut rng);
        for _ in 0..100 {
            problem.mutate(&mut rng, &mut g);
            let (c, d) = problem.crossover(&mut rng, &g, &h);
            for genome in [&g, &c, &d] {
                for (&t, &m) in bag.tasks.iter().zip(genome.iter()) {
                    assert!(sys.is_feasible(t, m));
                }
            }
        }
    }
}
