//! Extended encoding implementing both of the paper's future-work items:
//! per-task P-state selection (DVFS) and dropping of negligible-utility
//! tasks. The genome is a [`DvfsAllocation`]; operators extend the base
//! problem's range-swap crossover and machine/order mutation with P-state
//! and drop-flag perturbations.

use crate::problem::AllocationProblem;
use hetsched_data::HcSystem;
use hetsched_moea::{Objectives, Problem};
use hetsched_sim::{Allocation, DvfsAllocation, DvfsTable};
use hetsched_workload::Trace;
use rand::{Rng, RngCore};

/// The DVFS + task-dropping variant of the allocation problem.
pub struct DvfsAllocationProblem<'a> {
    base: AllocationProblem<'a>,
    table: DvfsTable,
    system: &'a HcSystem,
    trace: &'a Trace,
}

/// Evaluation context: the extended evaluation path allocates its own
/// buffers per call (it is not the figure-reproduction hot path), so the
/// context only carries the clones it needs.
pub struct DvfsEvaluator<'a> {
    system: &'a HcSystem,
    trace: &'a Trace,
    table: DvfsTable,
}

impl<'a> DvfsAllocationProblem<'a> {
    /// Binds the extended problem.
    pub fn new(system: &'a HcSystem, trace: &'a Trace, table: DvfsTable) -> Self {
        DvfsAllocationProblem {
            base: AllocationProblem::new(system, trace),
            table,
            system,
            trace,
        }
    }

    /// The P-state table in use.
    pub fn table(&self) -> &DvfsTable {
        &self.table
    }

    /// Converts engine objectives back to (utility, energy).
    #[inline]
    pub fn to_utility_energy(objectives: Objectives) -> (f64, f64) {
        (-objectives[0], objectives[1])
    }
}

impl<'a> Problem for DvfsAllocationProblem<'a> {
    type Genome = DvfsAllocation;
    type Evaluator = DvfsEvaluator<'a>;

    fn evaluator(&self) -> DvfsEvaluator<'a> {
        DvfsEvaluator {
            system: self.system,
            trace: self.trace,
            table: self.table.clone(),
        }
    }

    fn evaluate(&self, ev: &mut DvfsEvaluator<'a>, genome: &DvfsAllocation) -> Objectives {
        let outcome = genome
            .evaluate(ev.system, ev.trace, &ev.table)
            .expect("operators only construct valid extended allocations");
        [-outcome.utility, outcome.energy]
    }

    fn random_genome(&self, rng: &mut dyn RngCore) -> DvfsAllocation {
        let base: Allocation = self.base.random_genome(rng);
        let n = base.len();
        let pstate = (0..n)
            .map(|_| rng.gen_range(0..self.table.len()) as u8)
            .collect();
        // Start with nothing dropped: dropping is an *optimisation* the GA
        // may discover, not a random prior.
        DvfsAllocation {
            base,
            pstate,
            dropped: vec![false; n],
        }
    }

    fn crossover(
        &self,
        rng: &mut dyn RngCore,
        a: &DvfsAllocation,
        b: &DvfsAllocation,
    ) -> (DvfsAllocation, DvfsAllocation) {
        let n = a.base.len();
        let (mut c, mut d) = (a.clone(), b.clone());
        let i = rng.gen_range(0..n);
        let j = rng.gen_range(0..n);
        let (lo, hi) = if i <= j { (i, j) } else { (j, i) };
        c.base.machine[lo..=hi].swap_with_slice(&mut d.base.machine[lo..=hi]);
        c.base.order[lo..=hi].swap_with_slice(&mut d.base.order[lo..=hi]);
        c.pstate[lo..=hi].swap_with_slice(&mut d.pstate[lo..=hi]);
        c.dropped[lo..=hi].swap_with_slice(&mut d.dropped[lo..=hi]);
        (c, d)
    }

    fn mutate(&self, rng: &mut dyn RngCore, genome: &mut DvfsAllocation) {
        match rng.gen_range(0..3u8) {
            // Base mutation: machine re-map + order swap.
            0 => self.base.mutate(rng, &mut genome.base),
            // P-state perturbation on one gene.
            1 => {
                let g = rng.gen_range(0..genome.pstate.len());
                genome.pstate[g] = rng.gen_range(0..self.table.len()) as u8;
            }
            // Toggle the drop flag of one gene.
            _ => {
                let g = rng.gen_range(0..genome.dropped.len());
                genome.dropped[g] = !genome.dropped[g];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsched_data::real_system;
    use hetsched_moea::{EngineConfig, Nsga2Config};
    use hetsched_workload::TraceGenerator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(n: usize) -> (HcSystem, Trace) {
        let sys = real_system();
        let trace = TraceGenerator::new(n, 900.0, sys.task_type_count())
            .generate(&mut StdRng::seed_from_u64(44))
            .unwrap();
        (sys, trace)
    }

    #[test]
    fn random_genomes_evaluate_cleanly() {
        let (sys, trace) = setup(20);
        let problem = DvfsAllocationProblem::new(&sys, &trace, DvfsTable::cubic_default());
        let mut rng = StdRng::seed_from_u64(1);
        let mut ev = problem.evaluator();
        for _ in 0..10 {
            let g = problem.random_genome(&mut rng);
            let objs = problem.evaluate(&mut ev, &g);
            assert!(objs[0] <= 0.0, "negated utility must be <= 0");
            assert!(objs[1] > 0.0);
        }
    }

    #[test]
    fn operators_keep_genomes_valid() {
        let (sys, trace) = setup(15);
        let problem = DvfsAllocationProblem::new(&sys, &trace, DvfsTable::cubic_default());
        let mut rng = StdRng::seed_from_u64(2);
        let mut a = problem.random_genome(&mut rng);
        let b = problem.random_genome(&mut rng);
        for _ in 0..100 {
            let (c, d) = problem.crossover(&mut rng, &a, &b);
            assert!(c.evaluate(&sys, &trace, problem.table()).is_ok());
            assert!(d.evaluate(&sys, &trace, problem.table()).is_ok());
            problem.mutate(&mut rng, &mut a);
            assert!(a.evaluate(&sys, &trace, problem.table()).is_ok());
        }
    }

    #[test]
    fn dvfs_front_reaches_below_plain_minimum_energy() {
        // With P-states the GA can spend less energy than *any* plain
        // allocation (energy scales with f² < 1), which is the point of the
        // extension: the front extends further left.
        let (sys, trace) = setup(25);
        let problem = DvfsAllocationProblem::new(&sys, &trace, DvfsTable::cubic_default());
        let cfg = Nsga2Config {
            population: 30,
            mutation_rate: 0.8,
            generations: 80,
            parallel: false,
            ..Default::default()
        };
        let pop = EngineConfig::Nsga2(cfg).run(&problem, vec![], 5);
        let plain_bound = hetsched_sim::Evaluator::new(&sys, &trace).min_possible_energy();
        let min_energy = pop
            .iter()
            .filter(|i| -i.objectives[0] > 0.0) // ignore drop-everything corner
            .map(|i| i.objectives[1])
            .fold(f64::INFINITY, f64::min);
        assert!(
            min_energy < plain_bound,
            "DVFS front min energy {min_energy} should undercut plain bound {plain_bound}"
        );
    }
}
