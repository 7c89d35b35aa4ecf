//! [`AllocationProblem`]: the paper's chromosome/operator definitions bound
//! to the [`hetsched_moea::Problem`] interface.

use hetsched_data::{HcSystem, MachineId};
use hetsched_moea::{Objectives, Problem};
use hetsched_sim::{Allocation, Evaluator};
use hetsched_workload::Trace;
use rand::{Rng, RngCore};

/// The bi-objective utility/energy scheduling problem over one system and
/// trace.
pub struct AllocationProblem<'a> {
    system: &'a HcSystem,
    trace: &'a Trace,
    /// `feasible[i]` = machines able to run task *i*'s type (precomputed so
    /// mutation never proposes an infeasible machine).
    feasible: Vec<&'a [MachineId]>,
}

impl<'a> AllocationProblem<'a> {
    /// Binds the problem to a system and trace.
    pub fn new(system: &'a HcSystem, trace: &'a Trace) -> Self {
        let feasible = trace
            .tasks()
            .iter()
            .map(|t| system.feasible_machines(t.task_type))
            .collect();
        AllocationProblem {
            system,
            trace,
            feasible,
        }
    }

    /// The bound system.
    pub fn system(&self) -> &'a HcSystem {
        self.system
    }

    /// The bound trace.
    pub fn trace(&self) -> &'a Trace {
        self.trace
    }

    /// Number of genes per chromosome.
    pub fn genome_len(&self) -> usize {
        self.trace.len()
    }

    /// Converts an engine objective vector back to (utility, energy).
    #[inline]
    pub fn to_utility_energy(objectives: Objectives) -> (f64, f64) {
        (-objectives[0], objectives[1])
    }
}

impl<'a> Problem for AllocationProblem<'a> {
    type Genome = Allocation;
    type Evaluator = Evaluator<'a>;

    fn evaluator(&self) -> Evaluator<'a> {
        Evaluator::new(self.system, self.trace)
    }

    fn evaluate(&self, ev: &mut Evaluator<'a>, genome: &Allocation) -> Objectives {
        let outcome = ev.evaluate(genome);
        [-outcome.utility, outcome.energy]
    }

    fn random_genome(&self, rng: &mut dyn RngCore) -> Allocation {
        let n = self.trace.len();
        let machine = self
            .feasible
            .iter()
            .map(|ms| ms[rng.gen_range(0..ms.len())])
            .collect();
        // Random permutation of 0..n as the global scheduling order
        // (Fisher-Yates so every ordering is equally likely).
        let mut order: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        Allocation { machine, order }
    }

    fn crossover(
        &self,
        rng: &mut dyn RngCore,
        a: &Allocation,
        b: &Allocation,
    ) -> (Allocation, Allocation) {
        let n = self.trace.len();
        let (mut c, mut d) = (a.clone(), b.clone());
        // Two gene indices chosen uniformly at random; swap the whole range
        // between them. Because gene i always encodes task i, positional
        // swapping keeps both children feasible by construction.
        let i = rng.gen_range(0..n);
        let j = rng.gen_range(0..n);
        let (lo, hi) = if i <= j { (i, j) } else { (j, i) };
        c.machine[lo..=hi].swap_with_slice(&mut d.machine[lo..=hi]);
        c.order[lo..=hi].swap_with_slice(&mut d.order[lo..=hi]);
        (c, d)
    }

    fn mutate(&self, rng: &mut dyn RngCore, genome: &mut Allocation) {
        let n = self.trace.len();
        // Re-map one random gene to a random machine that task can run on.
        let g = rng.gen_range(0..n);
        let options = self.feasible[g];
        genome.machine[g] = options[rng.gen_range(0..options.len())];
        // Swap the global scheduling order of two random genes.
        let other = rng.gen_range(0..n);
        genome.order.swap(g, other);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsched_data::real_system;
    use hetsched_moea::{Nsga2, Nsga2Config};
    use hetsched_workload::TraceGenerator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(n: usize) -> (HcSystem, Trace) {
        let sys = real_system();
        let trace = TraceGenerator::new(n, 900.0, sys.task_type_count())
            .generate(&mut StdRng::seed_from_u64(30))
            .unwrap();
        (sys, trace)
    }

    #[test]
    fn random_genomes_are_feasible_permuted() {
        let (sys, trace) = setup(40);
        let problem = AllocationProblem::new(&sys, &trace);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let g = problem.random_genome(&mut rng);
            assert!(g.validate(&sys, &trace).is_ok());
            let mut order = g.order.clone();
            order.sort_unstable();
            assert_eq!(
                order,
                (0..40u32).collect::<Vec<_>>(),
                "order is a permutation"
            );
        }
    }

    #[test]
    fn crossover_preserves_feasibility_and_swaps_ranges() {
        let (sys, trace) = setup(30);
        let problem = AllocationProblem::new(&sys, &trace);
        let mut rng = StdRng::seed_from_u64(2);
        let a = problem.random_genome(&mut rng);
        let b = problem.random_genome(&mut rng);
        for _ in 0..50 {
            let (c, d) = problem.crossover(&mut rng, &a, &b);
            assert!(c.validate(&sys, &trace).is_ok());
            assert!(d.validate(&sys, &trace).is_ok());
            // Each position of c comes from a or b (same index).
            for i in 0..30 {
                assert!(c.machine[i] == a.machine[i] || c.machine[i] == b.machine[i]);
                assert!(d.machine[i] == a.machine[i] || d.machine[i] == b.machine[i]);
                // The two children complement each other positionally.
                let from_a = c.machine[i] == a.machine[i] && c.order[i] == a.order[i];
                if from_a {
                    assert!(d.machine[i] == b.machine[i] && d.order[i] == b.order[i]);
                }
            }
        }
    }

    #[test]
    fn mutation_keeps_feasibility() {
        let (sys, trace) = setup(25);
        let problem = AllocationProblem::new(&sys, &trace);
        let mut rng = StdRng::seed_from_u64(3);
        let mut g = problem.random_genome(&mut rng);
        for _ in 0..200 {
            problem.mutate(&mut rng, &mut g);
            assert!(g.validate(&sys, &trace).is_ok());
        }
        // Order keys remain a permutation (mutation only swaps keys).
        let mut order = g.order.clone();
        order.sort_unstable();
        assert_eq!(order, (0..25u32).collect::<Vec<_>>());
    }

    #[test]
    fn objectives_are_negated_utility_and_energy() {
        let (sys, trace) = setup(15);
        let problem = AllocationProblem::new(&sys, &trace);
        let mut rng = StdRng::seed_from_u64(4);
        let g = problem.random_genome(&mut rng);
        let mut ev = problem.evaluator();
        let objs = problem.evaluate(&mut ev, &g);
        let outcome = Evaluator::new(&sys, &trace).evaluate(&g);
        assert_eq!(objs[0], -outcome.utility);
        assert_eq!(objs[1], outcome.energy);
        let (u, e) = AllocationProblem::to_utility_energy(objs);
        assert_eq!(u, outcome.utility);
        assert_eq!(e, outcome.energy);
    }

    #[test]
    fn nsga2_improves_scheduling_front() {
        // End-to-end: a short NSGA-II run on 60 tasks must push the front
        // beyond the random initial population.
        let (sys, trace) = setup(60);
        let problem = AllocationProblem::new(&sys, &trace);
        let cfg = Nsga2Config {
            population: 40,
            mutation_rate: 0.6,
            generations: 60,
            parallel: false,
            ..Default::default()
        };
        let runner = Nsga2::new(&problem, cfg);
        let mut initial_best_energy = f64::INFINITY;
        let mut initial_best_utility = f64::NEG_INFINITY;
        let pop = runner.run_with_snapshots(vec![], 8, &[1], |_, p| {
            for ind in p {
                initial_best_energy = initial_best_energy.min(ind.objectives[1]);
                initial_best_utility = initial_best_utility.max(-ind.objectives[0]);
            }
        });
        let final_best_energy = pop
            .iter()
            .map(|i| i.objectives[1])
            .fold(f64::INFINITY, f64::min);
        let final_best_utility = pop
            .iter()
            .map(|i| -i.objectives[0])
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            final_best_energy < initial_best_energy,
            "energy end {final_best_energy} vs start {initial_best_energy}"
        );
        assert!(
            final_best_utility >= initial_best_utility,
            "utility end {final_best_utility} vs start {initial_best_utility}"
        );
        // Sanity: the front respects the theoretical energy lower bound.
        let bound = Evaluator::new(&sys, &trace).min_possible_energy();
        assert!(final_best_energy >= bound - 1e-9);
    }
}
