//! MOEA/D (Zhang & Li, IEEE TEC 2007) — decomposition-based multi-objective
//! optimisation, the third major MOEA family next to NSGA-II (dominance)
//! and SPEA2 (indicator/archive). The bi-objective problem is decomposed
//! into `N` scalar subproblems by weight vectors `λᵢ = (i/(N−1), 1−i/(N−1))`
//! under the Tchebycheff scalarisation
//!
//! ```text
//! g(x | λ, z*) = max( λ₀·|f₀(x) − z₀*|, λ₁·|f₁(x) − z₁*| )
//! ```
//!
//! where `z*` is the running ideal point. Each subproblem mates within a
//! `neighbours`-wide neighbourhood of adjacent weight vectors and improved
//! offspring replace neighbouring incumbents.
//!
//! Included so the engine ablation can ask: does the paper's
//! dominance-based choice matter, or would any modern MOEA produce the same
//! analysis?

use crate::dominance::Objectives;
use crate::engine::SnapshotFn;
use crate::nsga2::Individual;
use crate::observe::{lap, GenerationStats, Observer, PhaseTimings};
use crate::problem::{evaluate_all, evaluate_initial, Candidate, Problem};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// MOEA/D parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MoeadConfig {
    /// Number of subproblems (= population size).
    pub subproblems: usize,
    /// Mating/replacement neighbourhood size.
    pub neighbours: usize,
    /// Per-offspring mutation probability.
    pub mutation_rate: f64,
    /// Number of generations.
    pub generations: usize,
    /// Reference point for the hypervolume reported in
    /// [`GenerationStats`]; `None` skips the hypervolume computation.
    /// Only read when an enabled [`Observer`] is attached.
    pub hv_reference: Option<[f64; 2]>,
}

impl Default for MoeadConfig {
    fn default() -> Self {
        MoeadConfig {
            subproblems: 100,
            neighbours: 10,
            mutation_rate: 0.5,
            generations: 100,
            hv_reference: None,
        }
    }
}

/// Tchebycheff scalarisation of `objectives` under weight `lambda` with
/// ideal point `ideal`. Zero weights are nudged so every objective always
/// counts a little (the standard 1e-4 floor).
#[inline]
fn tchebycheff(objectives: &Objectives, lambda: (f64, f64), ideal: &Objectives) -> f64 {
    let w0 = lambda.0.max(1e-4);
    let w1 = lambda.1.max(1e-4);
    (w0 * (objectives[0] - ideal[0])).max(w1 * (objectives[1] - ideal[1]))
}

/// Runs MOEA/D to completion (see [`crate::EngineConfig::evolve`] for the
/// contract) and returns the full final population: one incumbent per
/// subproblem, dominated members included.
pub(crate) fn evolve<P: Problem>(
    problem: &P,
    config: &MoeadConfig,
    seeds: Vec<P::Genome>,
    seed: u64,
    snapshots: &[usize],
    on_snapshot: &mut SnapshotFn<'_, P::Genome>,
    observer: &mut dyn Observer<P::Genome>,
) -> Vec<Individual<P::Genome>> {
    assert!(config.subproblems >= 2, "need at least two subproblems");
    let n = config.subproblems;
    let t = config.neighbours.clamp(2, n);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ev = problem.evaluator();

    // Uniform weight vectors and their index neighbourhoods (weights are
    // sorted, so index distance = weight distance).
    let lambda: Vec<(f64, f64)> = (0..n)
        .map(|i| {
            let w = i as f64 / (n - 1) as f64;
            (w, 1.0 - w)
        })
        .collect();
    let neighbourhood = |i: usize| -> std::ops::Range<usize> {
        let half = t / 2;
        let lo = i.saturating_sub(half).min(n - t);
        lo..lo + t
    };

    // Initial population: one random incumbent per subproblem, all drawn
    // before one batch evaluates them (evaluation never touches the RNG).
    let incumbents = (0..n).map(|_| problem.random_genome(&mut rng)).collect();
    let mut population = evaluate_initial(problem, &mut ev, false, incumbents);
    let mut ideal = [f64::INFINITY; 2];
    for ind in &population {
        ideal[0] = ideal[0].min(ind.objectives[0]);
        ideal[1] = ideal[1].min(ind.objectives[1]);
    }
    // Seeds replace the incumbent of the subproblem whose scalarisation
    // they minimise. Placing them by index instead (seed k at subproblem k)
    // pins a corner optimum to the weight vector it scores *worst* on, so
    // it is replaced within a generation and the corner is lost. The ideal
    // point must absorb ALL seeds before any placement: under a partially
    // updated ideal a seed's own objectives sit below z* in one coordinate,
    // its scalarisation degenerates to 0 for every weight, and argmin ties
    // collapse to subproblem 0.
    let seeded = evaluate_initial(problem, &mut ev, false, seeds.into_iter().take(n).collect());
    for ind in &seeded {
        ideal[0] = ideal[0].min(ind.objectives[0]);
        ideal[1] = ideal[1].min(ind.objectives[1]);
    }
    for ind in seeded {
        let best = (0..n)
            .min_by(|&a, &b| {
                let ga = tchebycheff(&ind.objectives, lambda[a], &ideal);
                let gb = tchebycheff(&ind.objectives, lambda[b], &ideal);
                ga.total_cmp(&gb)
            })
            .expect("at least two subproblems");
        population[best] = ind;
    }

    debug_assert!(
        snapshots.windows(2).all(|w| w[0] < w[1]),
        "snapshots must ascend"
    );
    let mut next_snapshot = 0usize;
    for generation in 1..=config.generations {
        let observing = observer.enabled();
        let gen_span = tracing::span!(
            tracing::Level::DEBUG,
            "generation",
            generation = generation as u64
        );
        let _in_generation = gen_span.enter();
        // MOEA/D interleaves its phases per subproblem, so the timings
        // are accumulated across the inner loop: mating = neighbour pick
        // + variation, evaluation = the fitness call, sorting = ideal
        // update + neighbourhood replacement (its selection analogue).
        let mut timings = PhaseTimings::default();
        for i in 0..n {
            let mark = observing.then(Instant::now);
            // Mate within the neighbourhood.
            let hood = neighbourhood(i);
            let a = rng.gen_range(hood.clone());
            let b = rng.gen_range(hood.clone());
            // The first child was bred from the first parent,
            // `population[a]`.
            let (mut genome, _) =
                problem.crossover(&mut rng, &population[a].genome, &population[b].genome);
            if rng.gen::<f64>() < config.mutation_rate {
                problem.mutate(&mut rng, &mut genome);
            }
            let mark = lap(&mut timings.mating_s, mark);
            // Steady-state: the child must be evaluated before the next
            // subproblem mates, so this is a batch of one, not a fan-out.
            let batch = vec![Candidate {
                genome,
                parent: Some(&population[a]),
            }];
            let child = evaluate_all(problem, &mut ev, false, batch)
                .pop()
                .expect("a batch of one");
            let mark = lap(&mut timings.evaluation_s, mark);
            ideal[0] = ideal[0].min(child.objectives[0]);
            ideal[1] = ideal[1].min(child.objectives[1]);
            // Replace any neighbour the child improves on (bounded to the
            // neighbourhood, per the original algorithm).
            for j in hood {
                if tchebycheff(&child.objectives, lambda[j], &ideal)
                    < tchebycheff(&population[j].objectives, lambda[j], &ideal)
                {
                    population[j] = child.clone();
                }
            }
            lap(&mut timings.sorting_s, mark);
        }
        if observing {
            let stats =
                GenerationStats::compute(generation, &population, n, timings, config.hv_reference);
            observer.on_generation(&stats, &population);
        }
        if next_snapshot < snapshots.len() && snapshots[next_snapshot] == generation {
            on_snapshot(generation, &population);
            next_snapshot += 1;
        }
    }

    population
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dominance::dominates;
    use crate::nsga2::pareto_front;
    use crate::observe::NullObserver;
    use crate::problem::Schaffer;
    use crate::EngineConfig;

    /// The nondominated subset of a MOEA/D run's final population.
    fn moead_front(
        problem: &Schaffer,
        cfg: MoeadConfig,
        seeds: Vec<f64>,
        seed: u64,
    ) -> Vec<Individual<f64>> {
        pareto_front(&EngineConfig::Moead(cfg).run(problem, seeds, seed))
    }

    #[test]
    fn tchebycheff_properties() {
        let ideal = [0.0, 0.0];
        // Pure weight on objective 0 scores only that objective.
        let g = tchebycheff(&[2.0, 100.0], (1.0, 0.0), &ideal);
        assert!((g - 2.0).abs() < 0.011, "g = {g}"); // 1e-4 floor leaks 0.01
                                                     // Balanced weight takes the max.
        let g = tchebycheff(&[2.0, 6.0], (0.5, 0.5), &ideal);
        assert_eq!(g, 3.0);
    }

    #[test]
    fn converges_on_schaffer() {
        let problem = Schaffer::default();
        let cfg = MoeadConfig {
            subproblems: 50,
            neighbours: 8,
            mutation_rate: 0.8,
            generations: 120,
            hv_reference: None,
        };
        let front = moead_front(&problem, cfg, vec![], 5);
        assert!(front.len() > 10, "front collapsed to {}", front.len());
        let mut on_front = 0;
        for ind in &front {
            let s = ind.objectives[0].max(0.0).sqrt() + ind.objectives[1].max(0.0).sqrt();
            if (s - 2.0).abs() < 0.25 {
                on_front += 1;
            }
        }
        assert!(
            on_front * 2 >= front.len(),
            "only {on_front}/{} near the true front",
            front.len()
        );
    }

    #[test]
    fn returns_mutually_nondominated_set() {
        let problem = Schaffer::default();
        let cfg = MoeadConfig {
            subproblems: 30,
            neighbours: 6,
            mutation_rate: 0.5,
            generations: 40,
            hv_reference: None,
        };
        let front = moead_front(&problem, cfg, vec![], 9);
        for a in &front {
            for b in &front {
                assert!(!dominates(&a.objectives, &b.objectives) || a.objectives == b.objectives);
            }
        }
    }

    #[test]
    fn is_deterministic_per_seed() {
        let problem = Schaffer::default();
        let cfg = MoeadConfig {
            subproblems: 20,
            neighbours: 4,
            mutation_rate: 0.5,
            generations: 20,
            hv_reference: None,
        };
        let a = moead_front(&problem, cfg, vec![], 3);
        let b = moead_front(&problem, cfg, vec![], 3);
        let pa: Vec<Objectives> = a.iter().map(|i| i.objectives).collect();
        let pb: Vec<Objectives> = b.iter().map(|i| i.objectives).collect();
        assert_eq!(pa, pb);
    }

    #[test]
    fn observed_run_reports_all_three_phases() {
        use crate::observe::StatsLog;

        let problem = Schaffer::default();
        let cfg = MoeadConfig {
            subproblems: 30,
            neighbours: 6,
            mutation_rate: 0.5,
            generations: 25,
            hv_reference: Some([1e7, 1e7]),
        };
        let mut log = StatsLog::default();
        let engine = EngineConfig::Moead(cfg);
        let observed = engine.evolve(&problem, vec![], 13, &[], &mut |_, _| {}, &mut log);
        assert_eq!(log.records.len(), 25);
        // Per-generation clock reads can land on 0 for trivial problems;
        // the sums across the run must not (NSGA-II-parity contract).
        let mating: f64 = log.records.iter().map(|r| r.timings.mating_s).sum();
        let evaluation: f64 = log.records.iter().map(|r| r.timings.evaluation_s).sum();
        let sorting: f64 = log.records.iter().map(|r| r.timings.sorting_s).sum();
        assert!(mating > 0.0, "mating untimed");
        assert!(evaluation > 0.0, "evaluation untimed");
        assert!(sorting > 0.0, "sorting untimed");
        assert!(log.records.iter().all(|r| r.hypervolume.is_some()));

        // And observation must not perturb the trajectory.
        let bare = engine.evolve(&problem, vec![], 13, &[], &mut |_, _| {}, &mut NullObserver);
        let pa: Vec<Objectives> = bare.iter().map(|i| i.objectives).collect();
        let pb: Vec<Objectives> = observed.iter().map(|i| i.objectives).collect();
        assert_eq!(pa, pb);
        assert_eq!(observed.len(), cfg.subproblems);
    }

    #[test]
    fn seeds_pull_the_front_to_the_extremes() {
        // Basic MOEA/D keeps no elitist archive, so the exact seeds may be
        // replaced by blended children — but seeding both extreme optima
        // must leave the final front close to both corners, far closer
        // than a 5-generation unseeded run could reach from x ∈ ±1000.
        let problem = Schaffer::default();
        let cfg = MoeadConfig {
            subproblems: 10,
            neighbours: 3,
            mutation_rate: 0.0,
            generations: 5,
            hv_reference: None,
        };
        let front = moead_front(&problem, cfg, vec![0.0, 2.0], 1);
        let min_f0 = front
            .iter()
            .map(|i| i.objectives[0])
            .fold(f64::INFINITY, f64::min);
        let min_f1 = front
            .iter()
            .map(|i| i.objectives[1])
            .fold(f64::INFINITY, f64::min);
        assert!(min_f0 < 0.1, "f0 corner lost: {min_f0}");
        assert!(min_f1 < 0.1, "f1 corner lost: {min_f1}");
    }
}
