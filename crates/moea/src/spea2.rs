//! SPEA2 (Zitzler, Laumanns & Thiele, 2001) — the other canonical Pareto
//! MOEA of NSGA-II's generation, implemented over the same [`Problem`]
//! interface so the benches can compare engine designs on the scheduling
//! problem. Differences from NSGA-II:
//!
//! * fitness = *raw strength* (sum of strengths of dominators) + a k-th
//!   nearest-neighbour density term, instead of front rank + crowding;
//! * a fixed-size external **archive** of nondominated solutions survives
//!   between generations and is truncated by repeated nearest-neighbour
//!   removal;
//! * mating selection is binary tournament on the archive.

use crate::dominance::{dominates, Objectives};
use crate::engine::SnapshotFn;
use crate::nsga2::Individual;
use crate::observe::{lap, GenerationStats, Observer, PhaseTimings};
use crate::problem::{evaluate_all, evaluate_initial, Candidate, Problem};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// SPEA2 parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spea2Config {
    /// Working population size.
    pub population: usize,
    /// Archive size (commonly equal to the population size).
    pub archive: usize,
    /// Per-offspring mutation probability.
    pub mutation_rate: f64,
    /// Number of generations.
    pub generations: usize,
    /// Evaluate each generation's batch in parallel with rayon. Results
    /// are identical either way.
    pub parallel: bool,
    /// Reference point for the hypervolume reported in
    /// [`GenerationStats`]; `None` skips the hypervolume computation.
    /// Only read when an enabled [`Observer`] is attached.
    pub hv_reference: Option<[f64; 2]>,
}

impl Default for Spea2Config {
    fn default() -> Self {
        Spea2Config {
            population: 100,
            archive: 100,
            mutation_rate: 0.5,
            generations: 100,
            parallel: true,
            hv_reference: None,
        }
    }
}

/// Runs SPEA2 to completion (see [`crate::EngineConfig::evolve`] for the
/// contract) and returns the final archive, the nondominated memory.
/// Snapshots and observer records are taken of the post-selection archive.
pub(crate) fn evolve<P: Problem>(
    problem: &P,
    config: &Spea2Config,
    seeds: Vec<P::Genome>,
    seed: u64,
    snapshots: &[usize],
    on_snapshot: &mut SnapshotFn<'_, P::Genome>,
    observer: &mut dyn Observer<P::Genome>,
) -> Vec<Individual<P::Genome>> {
    assert!(config.population >= 2 && config.archive >= 2);
    debug_assert!(
        snapshots.windows(2).all(|w| w[0] < w[1]),
        "snapshots must ascend"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ev = problem.evaluator();
    // Generate every initial genome first, then evaluate them as one
    // batch. Evaluation never touches the RNG, so hoisting the draws out
    // of the evaluation loop leaves the stream — and thus the whole
    // trajectory — unchanged.
    let mut genomes: Vec<P::Genome> = seeds.into_iter().take(config.population).collect();
    while genomes.len() < config.population {
        genomes.push(problem.random_genome(&mut rng));
    }
    let mut population = evaluate_initial(problem, &mut ev, config.parallel, genomes);
    let mut archive: Vec<Individual<P::Genome>> = Vec::new();
    let mut next_snapshot = 0usize;

    for generation in 1..=config.generations {
        let observing = observer.enabled();
        let gen_span = tracing::span!(
            tracing::Level::DEBUG,
            "generation",
            generation = generation as u64
        );
        let _in_generation = gen_span.enter();
        let mut timings = PhaseTimings::default();
        let mark = observing.then(Instant::now);
        // Union of population and archive; compute SPEA2 fitness.
        let mut union: Vec<Individual<P::Genome>> = archive.clone();
        union.extend(population.iter().cloned());
        let points: Vec<Objectives> = union.iter().map(|i| i.objectives).collect();
        let fitness = spea2_fitness(&points);

        // Environmental selection: nondominated members (fitness < 1).
        let mut selected: Vec<usize> = (0..union.len()).filter(|&i| fitness[i] < 1.0).collect();
        if selected.len() > config.archive {
            truncate_by_nearest_neighbour(&mut selected, &points, config.archive);
        } else {
            // Fill with the best dominated members.
            let mut rest: Vec<usize> = (0..union.len()).filter(|&i| fitness[i] >= 1.0).collect();
            rest.sort_by(|&a, &b| fitness[a].total_cmp(&fitness[b]));
            for i in rest {
                if selected.len() == config.archive {
                    break;
                }
                selected.push(i);
            }
        }
        archive = selected.iter().map(|&i| union[i].clone()).collect();
        lap(&mut timings.sorting_s, mark);
        if next_snapshot < snapshots.len() && snapshots[next_snapshot] == generation {
            on_snapshot(generation, &archive);
            next_snapshot += 1;
        }

        // SPEA2 stops after environmental selection (Zitzler et al. 2001,
        // step 4): the last generation breeds no offspring, since nothing
        // would read them.
        let mut evaluations = 0;
        if generation < config.generations {
            // Re-mark after the snapshot callback so its cost is not
            // billed to the mating phase.
            let mark = observing.then(Instant::now);
            // Mating: binary tournament on the archive by fitness.
            let arch_points: Vec<Objectives> = archive.iter().map(|i| i.objectives).collect();
            let arch_fit = spea2_fitness(&arch_points);
            let mut offspring = Vec::with_capacity(config.population + 1);
            while offspring.len() < config.population {
                let pick = |rng: &mut StdRng| {
                    let a = rng.gen_range(0..archive.len());
                    let b = rng.gen_range(0..archive.len());
                    if arch_fit[a] <= arch_fit[b] {
                        a
                    } else {
                        b
                    }
                };
                let (i, j) = (pick(&mut rng), pick(&mut rng));
                let (mut a, mut b) =
                    problem.crossover(&mut rng, &archive[i].genome, &archive[j].genome);
                if rng.gen::<f64>() < config.mutation_rate {
                    problem.mutate(&mut rng, &mut a);
                }
                if rng.gen::<f64>() < config.mutation_rate {
                    problem.mutate(&mut rng, &mut b);
                }
                offspring.push(Candidate {
                    genome: a,
                    parent: Some(&archive[i]),
                });
                offspring.push(Candidate {
                    genome: b,
                    parent: Some(&archive[j]),
                });
            }
            offspring.truncate(config.population);
            let mark = lap(&mut timings.mating_s, mark);
            // Whole-generation batch, each child against the archive member
            // it was bred from.
            population = evaluate_all(problem, &mut ev, config.parallel, offspring);
            lap(&mut timings.evaluation_s, mark);
            evaluations = config.population;
        }
        if observing {
            // Stats are computed over the post-selection archive; the
            // record is delivered after the generation's mating and
            // offspring evaluation so all three phases carry real time
            // (only selection in the last generation). Observer hooks
            // never touch the RNG stream, so delivery order cannot
            // perturb the trajectory.
            let stats = GenerationStats::compute(
                generation,
                &archive,
                evaluations,
                timings,
                config.hv_reference,
            );
            observer.on_generation(&stats, &archive);
        }
    }
    archive
}

/// SPEA2 fitness: `R(i) + 1/(σᵏᵢ + 2)` where `R` is the raw dominated
/// strength sum and `σᵏ` the distance to the k-th nearest neighbour
/// (k = √N). Nondominated solutions have fitness < 1.
fn spea2_fitness(points: &[Objectives]) -> Vec<f64> {
    let n = points.len();
    if n == 0 {
        return Vec::new();
    }
    // Strength: how many points each one dominates.
    let mut strength = vec![0usize; n];
    for i in 0..n {
        for j in 0..n {
            if i != j && dominates(&points[i], &points[j]) {
                strength[i] += 1;
            }
        }
    }
    // Raw fitness: sum of strengths of dominators.
    let mut raw = vec![0.0f64; n];
    for i in 0..n {
        for j in 0..n {
            if i != j && dominates(&points[j], &points[i]) {
                raw[i] += strength[j] as f64;
            }
        }
    }
    // Density: 1 / (distance to k-th nearest neighbour + 2).
    let k = (n as f64).sqrt() as usize;
    let mut fitness = Vec::with_capacity(n);
    let mut dists = Vec::with_capacity(n);
    for i in 0..n {
        dists.clear();
        for (j, q) in points.iter().enumerate() {
            if i != j {
                let dx = points[i][0] - q[0];
                let dy = points[i][1] - q[1];
                dists.push(dx * dx + dy * dy);
            }
        }
        dists.sort_by(f64::total_cmp);
        let sigma = dists
            .get(k.min(dists.len().saturating_sub(1)))
            .copied()
            .unwrap_or(0.0);
        fitness.push(raw[i] + 1.0 / (sigma.sqrt() + 2.0));
    }
    fitness
}

/// Archive truncation: repeatedly remove the member with the smallest
/// nearest-neighbour distance until `target` members remain.
fn truncate_by_nearest_neighbour(selected: &mut Vec<usize>, points: &[Objectives], target: usize) {
    while selected.len() > target {
        let mut worst = 0usize;
        let mut worst_d = f64::INFINITY;
        for (si, &i) in selected.iter().enumerate() {
            let mut nn = f64::INFINITY;
            for &j in selected.iter() {
                if i != j {
                    let dx = points[i][0] - points[j][0];
                    let dy = points[i][1] - points[j][1];
                    nn = nn.min(dx * dx + dy * dy);
                }
            }
            if nn < worst_d {
                worst_d = nn;
                worst = si;
            }
        }
        selected.swap_remove(worst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Schaffer;
    use crate::EngineConfig;

    #[test]
    fn archive_members_are_nondominated() {
        let problem = Schaffer::default();
        let cfg = Spea2Config {
            population: 40,
            archive: 40,
            mutation_rate: 0.7,
            generations: 60,
            ..Default::default()
        };
        let archive = EngineConfig::Spea2(cfg).run(&problem, vec![], 3);
        assert!(!archive.is_empty());
        assert!(archive.len() <= 40);
        for a in &archive {
            for b in &archive {
                assert!(!dominates(&a.objectives, &b.objectives) || a.objectives == b.objectives);
            }
        }
    }

    #[test]
    fn converges_on_schaffer() {
        let problem = Schaffer::default();
        let cfg = Spea2Config {
            population: 50,
            archive: 50,
            mutation_rate: 0.8,
            generations: 120,
            ..Default::default()
        };
        let archive = EngineConfig::Spea2(cfg).run(&problem, vec![], 7);
        // On the true front √f1 + √f2 = 2.
        let mut on_front = 0;
        for ind in &archive {
            let s = ind.objectives[0].max(0.0).sqrt() + ind.objectives[1].max(0.0).sqrt();
            if (s - 2.0).abs() < 0.2 {
                on_front += 1;
            }
        }
        assert!(
            on_front * 2 >= archive.len(),
            "only {on_front} of {} near the true front",
            archive.len()
        );
    }

    #[test]
    fn is_deterministic_per_seed() {
        let problem = Schaffer::default();
        let cfg = Spea2Config {
            population: 20,
            archive: 20,
            mutation_rate: 0.5,
            generations: 15,
            ..Default::default()
        };
        let a = EngineConfig::Spea2(cfg).run(&problem, vec![], 11);
        let b = EngineConfig::Spea2(cfg).run(&problem, vec![], 11);
        let pa: Vec<Objectives> = a.iter().map(|i| i.objectives).collect();
        let pb: Vec<Objectives> = b.iter().map(|i| i.objectives).collect();
        assert_eq!(pa, pb);
    }

    #[test]
    fn observed_run_reports_all_three_phases() {
        use crate::observe::{NullObserver, StatsLog};

        let problem = Schaffer::default();
        let cfg = Spea2Config {
            population: 30,
            archive: 30,
            mutation_rate: 0.5,
            generations: 25,
            hv_reference: Some([1e7, 1e7]),
            ..Default::default()
        };
        let mut log = StatsLog::default();
        let engine = EngineConfig::Spea2(cfg);
        let observed = engine.evolve(&problem, vec![], 13, &[], &mut |_, _| {}, &mut log);
        assert_eq!(log.records.len(), 25);
        // The last generation stops after selection: nothing is bred.
        let last = &log.records[24];
        assert_eq!(last.evaluations, 0);
        assert_eq!(last.timings.mating_s, 0.0);
        assert_eq!(last.timings.evaluation_s, 0.0);
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
    }

    #[test]
    fn fitness_identifies_nondominated() {
        let points = [[0.0, 2.0], [2.0, 0.0], [3.0, 3.0]];
        let f = spea2_fitness(&points);
        assert!(f[0] < 1.0);
        assert!(f[1] < 1.0);
        assert!(
            f[2] >= 1.0,
            "dominated point must have fitness >= 1, got {}",
            f[2]
        );
    }

    #[test]
    fn truncation_keeps_target_count_and_extremes_spread() {
        let points: Vec<Objectives> = (0..20).map(|i| [i as f64, 20.0 - i as f64]).collect();
        let mut selected: Vec<usize> = (0..20).collect();
        truncate_by_nearest_neighbour(&mut selected, &points, 8);
        assert_eq!(selected.len(), 8);
    }

    #[test]
    fn empty_fitness() {
        assert!(spea2_fitness(&[]).is_empty());
    }
}
