//! Pareto local search — a memetic post-processing pass over GA solutions.
//!
//! NSGA-II's operators move genes at random; once a front has converged, a
//! cheap deterministic polish often still finds strict improvements: for
//! each task, try every feasible machine and keep a move if it *weakly
//! dominates* the current objectives (no worse in both, better in one).
//! Repeating until no move helps yields a locally Pareto-optimal
//! allocation. This is the classic GA+local-search hybrid the
//! metaheuristics literature recommends, offered here as an opt-in
//! refinement for front solutions a system administrator actually intends
//! to deploy.

use crate::problem::AllocationProblem;
use hetsched_moea::{Objectives, Problem};
use hetsched_sim::Allocation;

/// Result of one refinement.
#[derive(Debug, Clone, PartialEq)]
pub struct Refined {
    /// The polished allocation.
    pub allocation: Allocation,
    /// Its objectives (`[-utility, energy]`).
    pub objectives: Objectives,
    /// Number of improving moves applied.
    pub moves: usize,
}

/// Weak dominance for minimisation: no worse in both, strictly better in
/// at least one.
#[inline]
fn improves(new: &Objectives, old: &Objectives) -> bool {
    new[0] <= old[0] && new[1] <= old[1] && (new[0] < old[0] || new[1] < old[1])
}

/// Polishes `alloc` by single-task machine reassignment until a local
/// Pareto optimum is reached or `max_passes` full sweeps complete.
pub fn pareto_local_search(
    problem: &AllocationProblem<'_>,
    alloc: &Allocation,
    max_passes: usize,
) -> Refined {
    let mut ev = problem.evaluator();
    let mut current = alloc.clone();
    let mut objectives = problem.evaluate(&mut ev, &current);
    let mut moves = 0usize;
    let trace = problem.trace();
    let system = problem.system();

    for _ in 0..max_passes {
        let mut improved_this_pass = false;
        for (i, task) in trace.tasks().iter().enumerate() {
            let original = current.machine[i];
            let mut best_machine = original;
            let mut best_obj = objectives;
            for &m in system.feasible_machines(task.task_type) {
                if m == original {
                    continue;
                }
                current.machine[i] = m;
                let candidate = problem.evaluate(&mut ev, &current);
                if improves(&candidate, &best_obj) {
                    best_obj = candidate;
                    best_machine = m;
                }
            }
            current.machine[i] = best_machine;
            if best_machine != original {
                objectives = best_obj;
                moves += 1;
                improved_this_pass = true;
            }
        }
        if !improved_this_pass {
            break;
        }
    }
    Refined {
        allocation: current,
        objectives,
        moves,
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

    fn setup(n: usize) -> (hetsched_data::HcSystem, hetsched_workload::Trace) {
        let sys = real_system();
        let trace = TraceGenerator::new(n, 900.0, sys.task_type_count())
            .generate(&mut StdRng::seed_from_u64(88))
            .unwrap();
        (sys, trace)
    }

    #[test]
    fn refinement_never_worsens_either_objective() {
        let (sys, trace) = setup(40);
        let problem = AllocationProblem::new(&sys, &trace);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            let alloc = problem.random_genome(&mut rng);
            let mut ev = problem.evaluator();
            let before = problem.evaluate(&mut ev, &alloc);
            let refined = pareto_local_search(&problem, &alloc, 5);
            assert!(refined.objectives[0] <= before[0] + 1e-9);
            assert!(refined.objectives[1] <= before[1] + 1e-9);
            assert!(refined.allocation.validate(&sys, &trace).is_ok());
        }
    }

    #[test]
    fn random_allocations_are_strictly_improvable() {
        // A random assignment is nowhere near locally optimal: the polish
        // must find many improving moves.
        let (sys, trace) = setup(50);
        let problem = AllocationProblem::new(&sys, &trace);
        let mut rng = StdRng::seed_from_u64(2);
        let alloc = problem.random_genome(&mut rng);
        let refined = pareto_local_search(&problem, &alloc, 10);
        assert!(
            refined.moves > 10,
            "only {} moves on a random allocation",
            refined.moves
        );
    }

    #[test]
    fn reaches_a_fixed_point() {
        // Refining the refined result must find nothing further.
        let (sys, trace) = setup(30);
        let problem = AllocationProblem::new(&sys, &trace);
        let mut rng = StdRng::seed_from_u64(3);
        let alloc = problem.random_genome(&mut rng);
        let first = pareto_local_search(&problem, &alloc, 20);
        let second = pareto_local_search(&problem, &first.allocation, 20);
        assert_eq!(second.moves, 0, "not a fixed point");
        assert_eq!(second.objectives, first.objectives);
    }

    #[test]
    fn ga_fronts_are_nearly_locally_optimal() {
        // After a converged GA run, local search should find relatively few
        // improving moves per solution — evidence the GA front is tight.
        let (sys, trace) = setup(30);
        let problem = AllocationProblem::new(&sys, &trace);
        let cfg = Nsga2Config {
            population: 24,
            mutation_rate: 0.7,
            generations: 120,
            parallel: false,
            ..Default::default()
        };
        let pop = EngineConfig::Nsga2(cfg).run(&problem, vec![], 7);
        let mut rng = StdRng::seed_from_u64(4);
        let random = problem.random_genome(&mut rng);
        let random_moves = pareto_local_search(&problem, &random, 10).moves;
        let best = pop
            .iter()
            .min_by(|a, b| a.objectives[1].total_cmp(&b.objectives[1]))
            .unwrap();
        let ga_moves = pareto_local_search(&problem, &best.genome, 10).moves;
        assert!(
            ga_moves < random_moves,
            "GA solution ({ga_moves} moves) should be closer to local optimality than random ({random_moves})"
        );
    }
}
