//! The NSGA-II generational loop (§IV-D, Algorithm 1).

use crate::dominance::Objectives;
use crate::observe::{lap, GenerationStats, NullObserver, Observer, PhaseTimings};
use crate::problem::{evaluate_all, Candidate, Problem};
use crate::sort::{crowding_distance, fast_nondominated_sort};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// An evaluated member of the population.
#[derive(Debug, Clone)]
pub struct Individual<G> {
    /// The chromosome.
    pub genome: G,
    /// Minimisation objectives.
    pub objectives: Objectives,
}

/// How the last partially-admitted front is truncated to fill the next
/// parent population.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Survival {
    /// Crowding-distance truncation (Deb et al. 2002; the paper's choice —
    /// "creates a more equally spaced Pareto front").
    #[default]
    Crowding,
    /// Naive truncation: keep the front members in index order. Exists as
    /// the ablation baseline showing why crowding matters.
    Truncate,
}

/// Early-termination criterion: stop when the population's best objective
/// corner has improved by less than `epsilon` (relative) in *both*
/// objectives over the last `window` generations. Implements the paper's
/// abstract "while termination criterion is not met" loop guard for users
/// who prefer convergence detection over a fixed generation budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stagnation {
    /// Number of consecutive non-improving generations required to stop.
    pub window: usize,
    /// Minimum per-objective improvement that counts as progress, applied
    /// on a relative-plus-absolute scale: a generation improves objective
    /// `o` only if it gains more than `epsilon * (1 + |best[o]|)`. The
    /// absolute term keeps the threshold meaningful when the best value
    /// sits at exactly 0.0 (where a purely relative threshold vanishes).
    pub epsilon: f64,
}

/// Mating (parent) selection rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mating {
    /// Parents chosen uniformly at random — the paper's §IV-D choice ("we
    /// first select two chromosomes uniformly at random from the
    /// population").
    #[default]
    Uniform,
    /// Deb's crowded binary tournament (canonical NSGA-II): lower front
    /// rank wins; ties go to the larger crowding distance. Exposed so the
    /// ablation benches can quantify what the paper's simplification costs.
    CrowdedTournament,
}

/// Engine parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Nsga2Config {
    /// Population size N (paper example: 100).
    pub population: usize,
    /// Per-offspring mutation probability ("selected by experimentation").
    pub mutation_rate: f64,
    /// Number of generations to run (an upper bound when `stagnation` is
    /// set).
    pub generations: usize,
    /// Evaluate offspring in parallel with rayon. Results are identical
    /// either way; parallel pays off once genome evaluation is non-trivial
    /// (the scheduling problem), serial avoids overhead for micro-problems.
    pub parallel: bool,
    /// Truncation rule for the last admitted front.
    pub survival: Survival,
    /// Optional convergence-based early stop.
    pub stagnation: Option<Stagnation>,
    /// Mating-selection rule.
    pub mating: Mating,
    /// Reference point for the hypervolume reported in
    /// [`GenerationStats`]; `None` skips the hypervolume computation.
    /// Only read when an enabled [`Observer`] is attached.
    pub hv_reference: Option<[f64; 2]>,
}

impl Default for Nsga2Config {
    fn default() -> Self {
        Nsga2Config {
            population: 100,
            mutation_rate: 0.5,
            generations: 100,
            parallel: true,
            survival: Survival::Crowding,
            stagnation: None,
            mating: Mating::Uniform,
            hv_reference: None,
        }
    }
}

/// The NSGA-II runner bound to one problem instance.
pub struct Nsga2<'a, P: Problem> {
    problem: &'a P,
    config: Nsga2Config,
}

impl<'a, P: Problem> Nsga2<'a, P> {
    /// Creates a runner.
    pub fn new(problem: &'a P, config: Nsga2Config) -> Self {
        debug_assert!(config.population >= 2, "population must be at least 2");
        Nsga2 { problem, config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &Nsga2Config {
        &self.config
    }

    /// Builds the initial population: the provided `seeds` (truncated to the
    /// population size) padded with random genomes (§V-B: "We place this
    /// chromosome into the population and create the rest of the
    /// chromosomes for that population randomly").
    fn initial_population(
        &self,
        seeds: Vec<P::Genome>,
        rng: &mut StdRng,
        ev: &mut P::Evaluator,
    ) -> Vec<Individual<P::Genome>> {
        let n = self.config.population;
        let mut genomes: Vec<P::Genome> = seeds.into_iter().take(n).collect();
        while genomes.len() < n {
            genomes.push(self.problem.random_genome(rng));
        }
        let batch = genomes
            .into_iter()
            .map(|genome| Candidate {
                genome,
                parent: None,
            })
            .collect();
        evaluate_all(self.problem, ev, self.config.parallel, batch)
    }

    /// One generation: create N offspring by N/2 uniform-random crossovers,
    /// mutate each with probability `mutation_rate`, evaluate, merge with
    /// the parents, and select the next N by nondominated sorting with
    /// crowding-distance truncation.
    ///
    /// Phase wall-clocks from `mark` on are added to `timings`; with no
    /// mark no clock is read.
    fn step(
        &self,
        parents: Vec<Individual<P::Genome>>,
        rng: &mut StdRng,
        mark: Option<Instant>,
        timings: &mut PhaseTimings,
        ev: &mut P::Evaluator,
    ) -> Vec<Individual<P::Genome>> {
        let n = self.config.population;
        // Phase spans mirror the lap boundaries; they read clocks only
        // (never the RNG), so traced and untraced steps are bit-identical.
        let mating_span = tracing::span!(tracing::Level::TRACE, "mating");
        let in_mating = mating_span.enter();
        // Crowded-tournament mating needs rank + crowding of the parents.
        let tournament_keys: Option<Vec<(usize, f64)>> = match self.config.mating {
            Mating::Uniform => None,
            Mating::CrowdedTournament => {
                let points: Vec<Objectives> = parents.iter().map(|ind| ind.objectives).collect();
                let fronts = fast_nondominated_sort(&points);
                let mut keys = vec![(0usize, 0.0f64); parents.len()];
                for (rank, front) in fronts.iter().enumerate() {
                    let dist = crowding_distance(front, &points);
                    for (w, &p) in front.iter().enumerate() {
                        keys[p] = (rank, dist[w]);
                    }
                }
                Some(keys)
            }
        };
        let pick = |rng: &mut StdRng| -> usize {
            let a = rng.gen_range(0..parents.len());
            match &tournament_keys {
                None => a,
                Some(keys) => {
                    let b = rng.gen_range(0..parents.len());
                    let (ra, da) = keys[a];
                    let (rb, db) = keys[b];
                    if ra < rb || (ra == rb && da >= db) {
                        a
                    } else {
                        b
                    }
                }
            }
        };
        // Each child remembers the parent it was bred from, so the problem
        // can evaluate it against that parent.
        let mut offspring: Vec<Candidate<'_, P::Genome>> = Vec::with_capacity(n + 1);
        while offspring.len() < n {
            let i = pick(rng);
            let j = pick(rng);
            let (a, b) = self
                .problem
                .crossover(rng, &parents[i].genome, &parents[j].genome);
            offspring.push(Candidate {
                genome: a,
                parent: Some(&parents[i]),
            });
            offspring.push(Candidate {
                genome: b,
                parent: Some(&parents[j]),
            });
        }
        offspring.truncate(n);
        for child in &mut offspring {
            if rng.gen::<f64>() < self.config.mutation_rate {
                self.problem.mutate(rng, &mut child.genome);
            }
        }
        let mark = lap(&mut timings.mating_s, mark);
        drop(in_mating);
        drop(mating_span);
        let evaluation_span = tracing::span!(tracing::Level::TRACE, "evaluation");
        let in_evaluation = evaluation_span.enter();
        let offspring = evaluate_all(self.problem, ev, self.config.parallel, offspring);
        let mut meta = parents;
        meta.extend(offspring);
        let mark = lap(&mut timings.evaluation_s, mark);
        drop(in_evaluation);
        drop(evaluation_span);
        let sorting_span = tracing::span!(tracing::Level::TRACE, "sorting");
        let in_sorting = sorting_span.enter();

        // Survival: fronts in order, crowding truncation on the last one.
        let points: Vec<Objectives> = meta.iter().map(|ind| ind.objectives).collect();
        let fronts = fast_nondominated_sort(&points);
        let mut survivors: Vec<Individual<P::Genome>> = Vec::with_capacity(n);
        let mut keep = vec![false; meta.len()];
        let mut taken = 0usize;
        for front in &fronts {
            if taken + front.len() <= n {
                for &p in front {
                    keep[p] = true;
                }
                taken += front.len();
                if taken == n {
                    break;
                }
            } else {
                match self.config.survival {
                    Survival::Crowding => {
                        // Partial front: keep the least crowded members.
                        let dist = crowding_distance(front, &points);
                        let mut by_dist: Vec<usize> = (0..front.len()).collect();
                        by_dist.sort_unstable_by(|&a, &b| dist[b].total_cmp(&dist[a]));
                        for &w in by_dist.iter().take(n - taken) {
                            keep[front[w]] = true;
                        }
                    }
                    Survival::Truncate => {
                        for &p in front.iter().take(n - taken) {
                            keep[p] = true;
                        }
                    }
                }
                break;
            }
        }
        for (ind, keep) in meta.into_iter().zip(keep) {
            if keep {
                survivors.push(ind);
            }
        }
        debug_assert_eq!(survivors.len(), n);
        lap(&mut timings.sorting_s, mark);
        drop(in_sorting);
        drop(sorting_span);
        survivors
    }

    /// Runs the full loop from a seeded initial population.
    ///
    /// `snapshots` is an ascending list of generation numbers at which
    /// `on_snapshot(generation, population)` fires — the mechanism the
    /// figure harness uses to capture the front after 100 / 1 000 / 10 000
    /// iterations within one run. A snapshot at the final generation is
    /// implied by the return value, not the callback.
    pub fn run_with_snapshots(
        &self,
        seeds: Vec<P::Genome>,
        seed: u64,
        snapshots: &[usize],
        on_snapshot: impl FnMut(usize, &[Individual<P::Genome>]),
    ) -> Vec<Individual<P::Genome>> {
        self.run_observed(seeds, seed, snapshots, on_snapshot, &mut NullObserver)
    }

    /// As [`Nsga2::run_with_snapshots`], additionally delivering one
    /// [`GenerationStats`] record per generation to `observer`. With the
    /// default [`NullObserver`] (whose `enabled()` is `false`) no metrics
    /// are computed and no clock is read, so the instrumented loop costs
    /// nothing over the plain one.
    pub fn run_observed<O: Observer<P::Genome>>(
        &self,
        seeds: Vec<P::Genome>,
        seed: u64,
        snapshots: &[usize],
        mut on_snapshot: impl FnMut(usize, &[Individual<P::Genome>]),
        observer: &mut O,
    ) -> Vec<Individual<P::Genome>> {
        debug_assert!(
            snapshots.windows(2).all(|w| w[0] < w[1]),
            "snapshots must ascend"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        // One evaluator lives for the whole run, so serial batches keep its
        // scratch buffers warm across generations; a parallel batch gives
        // each worker thread a fresh one (`Problem::evaluate_batch`).
        let mut ev = self.problem.evaluator();
        let mut population = self.initial_population(seeds, &mut rng, &mut ev);
        let mut next_snapshot = 0usize;
        let mut stagnant = 0usize;
        let mut best = best_corner(&population);
        for generation in 1..=self.config.generations {
            let observing = observer.enabled();
            let mut timings = PhaseTimings::default();
            let gen_span = tracing::span!(
                tracing::Level::DEBUG,
                "generation",
                generation = generation as u64
            );
            let in_generation = gen_span.enter();
            let mark = observing.then(Instant::now);
            population = self.step(population, &mut rng, mark, &mut timings, &mut ev);
            drop(in_generation);
            drop(gen_span);
            if observing {
                let stats = GenerationStats::compute(
                    generation,
                    &population,
                    self.config.population,
                    timings,
                    self.config.hv_reference,
                );
                tracing::debug!(
                    "generation {generation}: {} ranks, front {}, ideal [{:.4}, {:.4}], {} evaluations",
                    stats.front_sizes.len(),
                    stats.front_sizes.first().copied().unwrap_or(0),
                    stats.ideal[0],
                    stats.ideal[1],
                    stats.evaluations,
                );
                observer.on_generation(&stats, &population);
            }
            if next_snapshot < snapshots.len() && snapshots[next_snapshot] == generation {
                on_snapshot(generation, &population);
                next_snapshot += 1;
            }
            if let Some(stop) = self.config.stagnation {
                let corner = best_corner(&population);
                // Relative-plus-absolute threshold: the pure relative form
                // `epsilon * |best|` collapses to ~0 when the best objective
                // sits at 0.0 (e.g. zero utility), letting arbitrarily tiny
                // drifts count as progress forever.
                let improved =
                    (0..2).any(|o| best[o] - corner[o] > stop.epsilon * (1.0 + best[o].abs()));
                best = [best[0].min(corner[0]), best[1].min(corner[1])];
                stagnant = if improved { 0 } else { stagnant + 1 };
                if stagnant >= stop.window {
                    tracing::info!(
                        "stagnation stop at generation {generation} ({} stagnant of window {})",
                        stagnant,
                        stop.window,
                    );
                    break;
                }
            }
        }
        population
    }

    /// Runs without snapshots.
    pub fn run(&self, seeds: Vec<P::Genome>, seed: u64) -> Vec<Individual<P::Genome>> {
        self.run_with_snapshots(seeds, seed, &[], |_, _| {})
    }
}

/// Per-objective minima of a population (the ideal corner).
fn best_corner<G>(population: &[Individual<G>]) -> [f64; 2] {
    let mut corner = [f64::INFINITY; 2];
    for ind in population {
        corner[0] = corner[0].min(ind.objectives[0]);
        corner[1] = corner[1].min(ind.objectives[1]);
    }
    corner
}

/// Extracts the rank-1 (nondominated) members of a population.
pub fn pareto_front<G: Clone>(population: &[Individual<G>]) -> Vec<Individual<G>> {
    let points: Vec<Objectives> = population.iter().map(|i| i.objectives).collect();
    let fronts = fast_nondominated_sort(&points);
    match fronts.first() {
        Some(first) => first.iter().map(|&p| population[p].clone()).collect(),
        None => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Schaffer, Zdt1};

    fn front_points<G: Clone>(pop: &[Individual<G>]) -> Vec<Objectives> {
        pareto_front(pop).iter().map(|i| i.objectives).collect()
    }

    #[test]
    fn schaffer_converges_to_known_front() {
        let problem = Schaffer::default();
        let cfg = Nsga2Config {
            population: 60,
            mutation_rate: 0.7,
            generations: 150,
            parallel: false,
            ..Default::default()
        };
        let pop = Nsga2::new(&problem, cfg).run(vec![], 7);
        let front = pareto_front(&pop);
        assert!(front.len() > 10, "front collapsed to {}", front.len());
        // Pareto set is x in [0, 2]: f1 + f2 with f1 = x², f2 = (x−2)²,
        // and on the true front √f1 + √f2 = 2.
        for ind in &front {
            let s = ind.objectives[0].max(0.0).sqrt() + ind.objectives[1].max(0.0).sqrt();
            assert!(
                (s - 2.0).abs() < 0.15,
                "off-front point: {:?}",
                ind.objectives
            );
        }
    }

    #[test]
    fn zdt1_improves_with_generations() {
        let problem = Zdt1 { vars: 10 };
        let cfg = Nsga2Config {
            population: 60,
            mutation_rate: 0.9,
            generations: 30,
            parallel: false,
            ..Default::default()
        };
        let runner = Nsga2::new(&problem, cfg);
        let mut early: Vec<Objectives> = Vec::new();
        let pop = runner.run_with_snapshots(vec![], 3, &[5], |_, p| {
            early = front_points(p);
        });
        let late = front_points(&pop);
        // Mean g-proxy (sum of both objectives) must shrink.
        let mean =
            |pts: &[Objectives]| pts.iter().map(|p| p[0] + p[1]).sum::<f64>() / pts.len() as f64;
        assert!(
            mean(&late) < mean(&early),
            "no convergence: early {} late {}",
            mean(&early),
            mean(&late)
        );
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let problem = Schaffer::default();
        let cfg = Nsga2Config {
            population: 20,
            mutation_rate: 0.5,
            generations: 20,
            parallel: false,
            ..Default::default()
        };
        let runner = Nsga2::new(&problem, cfg);
        let a = runner.run(vec![], 11);
        let b = runner.run(vec![], 11);
        let pa: Vec<Objectives> = a.iter().map(|i| i.objectives).collect();
        let pb: Vec<Objectives> = b.iter().map(|i| i.objectives).collect();
        assert_eq!(pa, pb);
    }

    #[test]
    fn parallel_and_serial_agree() {
        // Genetic operators draw from the same single-threaded RNG stream;
        // only evaluation is parallelised, so results must be identical.
        let problem = Zdt1 { vars: 8 };
        let mk = |parallel| Nsga2Config {
            population: 24,
            mutation_rate: 0.5,
            generations: 10,
            parallel,
            ..Default::default()
        };
        let serial = Nsga2::new(&problem, mk(false)).run(vec![], 5);
        let parallel = Nsga2::new(&problem, mk(true)).run(vec![], 5);
        let ps: Vec<Objectives> = serial.iter().map(|i| i.objectives).collect();
        let pp: Vec<Objectives> = parallel.iter().map(|i| i.objectives).collect();
        assert_eq!(ps, pp);
    }

    #[test]
    fn population_size_is_invariant() {
        let problem = Schaffer::default();
        let cfg = Nsga2Config {
            population: 30,
            mutation_rate: 0.5,
            generations: 5,
            parallel: false,
            ..Default::default()
        };
        let runner = Nsga2::new(&problem, cfg);
        let pop = runner.run_with_snapshots(vec![], 1, &[1, 3], |_, p| {
            assert_eq!(p.len(), 30);
        });
        assert_eq!(pop.len(), 30);
    }

    #[test]
    fn seeds_enter_the_initial_population() {
        // Seed an optimal genome into a tiny run with zero mutation; the
        // seed (or a descendant at least as good) must survive: the final
        // front must contain a point dominating-or-equal to the seed's.
        let problem = Schaffer::default();
        let cfg = Nsga2Config {
            population: 10,
            mutation_rate: 0.0,
            generations: 3,
            parallel: false,
            ..Default::default()
        };
        let runner = Nsga2::new(&problem, cfg);
        let pop = runner.run(vec![1.0], 2); // x = 1 is on the true front
        let best = pop
            .iter()
            .map(|i| i.objectives[0] + i.objectives[1])
            .fold(f64::INFINITY, f64::min);
        // On the true front f1 + f2 = x² + (x−2)² is minimised at x=1 → 2.
        assert!(best <= 2.0 + 1e-9, "seed lost: best sum {best}");
    }

    #[test]
    fn elitism_never_regresses_the_best_point() {
        let problem = Schaffer::default();
        let cfg = Nsga2Config {
            population: 16,
            mutation_rate: 0.8,
            generations: 40,
            parallel: false,
            ..Default::default()
        };
        let runner = Nsga2::new(&problem, cfg);
        let mut best_f0 = f64::INFINITY;
        runner.run_with_snapshots(vec![], 9, &(1..=40).collect::<Vec<_>>(), |_, pop| {
            let min_f0 = pop
                .iter()
                .map(|i| i.objectives[0])
                .fold(f64::INFINITY, f64::min);
            assert!(
                min_f0 <= best_f0 + 1e-12,
                "best f0 regressed: {min_f0} > {best_f0}"
            );
            best_f0 = best_f0.min(min_f0);
        });
    }

    #[test]
    fn crowded_tournament_mating_converges_too() {
        let problem = Schaffer::default();
        let mk = |mating| Nsga2Config {
            population: 40,
            mutation_rate: 0.7,
            generations: 80,
            parallel: false,
            mating,
            ..Default::default()
        };
        for mating in [Mating::Uniform, Mating::CrowdedTournament] {
            let pop = Nsga2::new(&problem, mk(mating)).run(vec![], 6);
            let front = pareto_front(&pop);
            assert!(front.len() > 5, "{mating:?} front collapsed");
            for ind in &front {
                let sum = ind.objectives[0].max(0.0).sqrt() + ind.objectives[1].max(0.0).sqrt();
                assert!(
                    (sum - 2.0).abs() < 0.3,
                    "{mating:?} off front: {:?}",
                    ind.objectives
                );
            }
        }
    }

    #[test]
    fn mating_rules_differ_in_trajectory() {
        // Same seed, different mating rule: the populations should diverge
        // (sanity check that the flag actually changes behaviour).
        let problem = Schaffer::default();
        let mk = |mating| Nsga2Config {
            population: 20,
            mutation_rate: 0.5,
            generations: 10,
            parallel: false,
            mating,
            ..Default::default()
        };
        let a = Nsga2::new(&problem, mk(Mating::Uniform)).run(vec![], 5);
        let b = Nsga2::new(&problem, mk(Mating::CrowdedTournament)).run(vec![], 5);
        let pa: Vec<Objectives> = a.iter().map(|i| i.objectives).collect();
        let pb: Vec<Objectives> = b.iter().map(|i| i.objectives).collect();
        assert_ne!(pa, pb);
    }

    #[test]
    fn stagnation_stops_early_on_converged_problem() {
        // Zero mutation + a converged seed population: the ideal corner
        // cannot improve, so the run must stop after `window` generations.
        let problem = Schaffer::default();
        let cfg = Nsga2Config {
            population: 8,
            mutation_rate: 0.0,
            generations: 10_000,
            parallel: false,
            stagnation: Some(Stagnation {
                window: 5,
                epsilon: 1e-12,
            }),
            ..Default::default()
        };
        let runner = Nsga2::new(&problem, cfg);
        let mut generations_seen = 0usize;
        let all: Vec<usize> = (1..=10_000).collect();
        runner.run_with_snapshots(vec![0.0, 2.0], 3, &all, |_, _| {
            generations_seen += 1;
        });
        assert!(
            generations_seen < 200,
            "stagnation did not trigger: ran {generations_seen} generations"
        );
        assert!(generations_seen >= 5);
    }

    #[test]
    fn without_stagnation_runs_full_budget() {
        let problem = Schaffer::default();
        let cfg = Nsga2Config {
            population: 8,
            mutation_rate: 0.0,
            generations: 25,
            parallel: false,
            ..Default::default()
        };
        let mut generations_seen = 0usize;
        let all: Vec<usize> = (1..=25).collect();
        Nsga2::new(&problem, cfg).run_with_snapshots(vec![], 3, &all, |_, _| {
            generations_seen += 1;
        });
        assert_eq!(generations_seen, 25);
    }

    #[test]
    fn pareto_front_of_empty_population() {
        let empty: Vec<Individual<f64>> = Vec::new();
        assert!(pareto_front(&empty).is_empty());
    }

    /// A problem whose best objective starts at 0.0 and creeps downward by
    /// ~1e-19 per mutation — the regression case for the stagnation
    /// threshold: `epsilon * |best|` is ~0 near best = 0, so every creep
    /// counted as progress and stagnation never fired.
    struct Creep;

    impl Problem for Creep {
        type Genome = f64;
        type Evaluator = ();

        fn evaluator(&self) {}

        fn evaluate(&self, _ev: &mut (), genome: &f64) -> Objectives {
            [-genome, -genome]
        }

        fn random_genome(&self, _rng: &mut dyn rand::RngCore) -> f64 {
            0.0
        }

        fn crossover(&self, _rng: &mut dyn rand::RngCore, a: &f64, b: &f64) -> (f64, f64) {
            (a.max(*b), a.max(*b))
        }

        fn mutate(&self, rng: &mut dyn rand::RngCore, genome: &mut f64) {
            *genome += rng.gen::<f64>() * 1e-19;
        }
    }

    #[test]
    fn stagnation_ignores_sub_epsilon_creep_at_zero() {
        let cfg = Nsga2Config {
            population: 8,
            mutation_rate: 1.0,
            generations: 10_000,
            parallel: false,
            stagnation: Some(Stagnation {
                window: 5,
                epsilon: 1e-9,
            }),
            ..Default::default()
        };
        let mut generations_seen = 0usize;
        let all: Vec<usize> = (1..=10_000).collect();
        Nsga2::new(&Creep, cfg).run_with_snapshots(vec![], 1, &all, |_, _| {
            generations_seen += 1;
        });
        assert_eq!(
            generations_seen, 5,
            "1e-19 creep below best = 0 must not count as progress"
        );
    }

    #[test]
    fn observer_receives_one_record_per_generation() {
        use crate::observe::StatsLog;
        let problem = Schaffer::default();
        let cfg = Nsga2Config {
            population: 16,
            mutation_rate: 0.5,
            generations: 12,
            parallel: false,
            hv_reference: Some([1e7, 1e7]),
            ..Default::default()
        };
        let mut log = StatsLog::default();
        Nsga2::new(&problem, cfg).run_observed(vec![], 4, &[], |_, _| {}, &mut log);
        assert_eq!(log.records.len(), 12);
        for (i, rec) in log.records.iter().enumerate() {
            assert_eq!(rec.generation, i + 1);
            assert_eq!(rec.front_sizes.iter().sum::<usize>(), 16);
            assert_eq!(rec.evaluations, 16);
            assert!(rec.ideal[0].is_finite() && rec.ideal[1].is_finite());
            assert!(rec.hypervolume.unwrap() > 0.0);
            assert!(rec.timings.mating_s >= 0.0 && rec.timings.evaluation_s >= 0.0);
        }
        // Convergence pressure: the final hypervolume beats the first (it
        // is not strictly monotone — crowding truncation may drop front
        // members — but over a run it must grow).
        let first = log.records.first().unwrap().hypervolume.unwrap();
        let last = log.records.last().unwrap().hypervolume.unwrap();
        assert!(
            last >= first,
            "hypervolume regressed over the run: {first} -> {last}"
        );
    }

    #[test]
    fn observation_does_not_perturb_the_run() {
        use crate::observe::StatsLog;
        let problem = Zdt1 { vars: 6 };
        let cfg = Nsga2Config {
            population: 20,
            mutation_rate: 0.6,
            generations: 15,
            parallel: false,
            ..Default::default()
        };
        let runner = Nsga2::new(&problem, cfg);
        let plain = runner.run(vec![], 8);
        let mut log = StatsLog::default();
        let observed = runner.run_observed(vec![], 8, &[], |_, _| {}, &mut log);
        let pa: Vec<Objectives> = plain.iter().map(|i| i.objectives).collect();
        let pb: Vec<Objectives> = observed.iter().map(|i| i.objectives).collect();
        assert_eq!(pa, pb, "metrics collection must not change the trajectory");
    }
}
