//! Comparator algorithms for the ablation benches: pure random search and a
//! weighted-sum single-objective GA (the approach of the related work in
//! §II that "produces a single solution" per run, unlike NSGA-II which
//! yields a whole front in one run).

use crate::nsga2::{pareto_front, Individual};
use crate::problem::Problem;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Samples `evaluations` random genomes and returns the nondominated subset.
/// Uses the same evaluation budget currency as NSGA-II (one evaluation per
/// genome) so budgets are directly comparable.
pub fn random_search<P: Problem>(
    problem: &P,
    evaluations: usize,
    seed: u64,
) -> Vec<Individual<P::Genome>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ev = problem.evaluator();
    let population: Vec<Individual<P::Genome>> = (0..evaluations)
        .map(|_| {
            let genome = problem.random_genome(&mut rng);
            let objectives = problem.evaluate(&mut ev, &genome);
            Individual { genome, objectives }
        })
        .collect();
    pareto_front(&population)
}

/// A single-objective GA minimising the weighted sum `w·f₀ + (1−w)·f₁`
/// (objectives are min-max normalised against the running population so the
/// weight is scale-free). One run yields one solution; sweeping `w`
/// produces a front the way the §II related-work heuristics do.
pub fn weighted_sum_ga<P: Problem>(
    problem: &P,
    weight: f64,
    population: usize,
    generations: usize,
    seed: u64,
) -> Individual<P::Genome> {
    assert!((0.0..=1.0).contains(&weight), "weight must be in [0, 1]");
    assert!(population >= 2);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ev = problem.evaluator();
    let mut pop: Vec<Individual<P::Genome>> = (0..population)
        .map(|_| {
            let genome = problem.random_genome(&mut rng);
            let objectives = problem.evaluate(&mut ev, &genome);
            Individual { genome, objectives }
        })
        .collect();

    let fitness = |pop: &[Individual<P::Genome>]| -> Vec<f64> {
        let (mut lo0, mut hi0) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut lo1, mut hi1) = (f64::INFINITY, f64::NEG_INFINITY);
        for i in pop {
            lo0 = lo0.min(i.objectives[0]);
            hi0 = hi0.max(i.objectives[0]);
            lo1 = lo1.min(i.objectives[1]);
            hi1 = hi1.max(i.objectives[1]);
        }
        let norm = |v: f64, lo: f64, hi: f64| if hi > lo { (v - lo) / (hi - lo) } else { 0.0 };
        pop.iter()
            .map(|i| {
                weight * norm(i.objectives[0], lo0, hi0)
                    + (1.0 - weight) * norm(i.objectives[1], lo1, hi1)
            })
            .collect()
    };

    for _ in 0..generations {
        let fit = fitness(&pop);
        // Binary-tournament parent selection, generational replacement with
        // one elite.
        let elite = fit
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("population non-empty");
        let mut next: Vec<Individual<P::Genome>> = vec![pop[elite].clone()];
        while next.len() < population {
            let pick = |rng: &mut StdRng| {
                let a = rng.gen_range(0..pop.len());
                let b = rng.gen_range(0..pop.len());
                if fit[a] <= fit[b] {
                    a
                } else {
                    b
                }
            };
            let (i, j) = (pick(&mut rng), pick(&mut rng));
            let (mut a, mut b) = problem.crossover(&mut rng, &pop[i].genome, &pop[j].genome);
            if rng.gen::<f64>() < 0.5 {
                problem.mutate(&mut rng, &mut a);
            }
            if rng.gen::<f64>() < 0.5 {
                problem.mutate(&mut rng, &mut b);
            }
            for genome in [a, b] {
                if next.len() < population {
                    let objectives = problem.evaluate(&mut ev, &genome);
                    next.push(Individual { genome, objectives });
                }
            }
        }
        pop = next;
    }
    let fit = fitness(&pop);
    let best = fit
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .expect("population non-empty");
    pop.swap_remove(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Schaffer;

    #[test]
    fn random_search_returns_nondominated_points() {
        let problem = Schaffer::default();
        let front = random_search(&problem, 500, 3);
        assert!(!front.is_empty());
        for a in &front {
            for b in &front {
                assert!(!crate::dominance::dominates(&a.objectives, &b.objectives));
            }
        }
    }

    #[test]
    fn weighted_sum_extremes_favor_their_objective() {
        let problem = Schaffer::default();
        // w = 1 minimises f0 = x² → x near 0; w = 0 minimises f1 → x near 2.
        let f0_biased = weighted_sum_ga(&problem, 1.0, 40, 60, 4);
        let f1_biased = weighted_sum_ga(&problem, 0.0, 40, 60, 4);
        assert!(f0_biased.objectives[0] < f1_biased.objectives[0]);
        assert!(f1_biased.objectives[1] < f0_biased.objectives[1]);
    }

    #[test]
    fn weighted_sum_is_deterministic() {
        let problem = Schaffer::default();
        let a = weighted_sum_ga(&problem, 0.5, 20, 10, 9);
        let b = weighted_sum_ga(&problem, 0.5, 20, 10, 9);
        assert_eq!(a.objectives, b.objectives);
    }

    #[test]
    #[should_panic(expected = "weight must be in")]
    fn weighted_sum_rejects_bad_weight() {
        let problem = Schaffer::default();
        let _ = weighted_sum_ga(&problem, 1.5, 10, 5, 1);
    }
}
