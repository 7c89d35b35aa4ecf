//! The problem abstraction the NSGA-II engine evolves over.

use crate::dominance::Objectives;
use crate::nsga2::Individual;
use rand::RngCore;

/// One genome handed to [`Problem::evaluate_batch`], with the individual
/// it was bred from (`None` for initial genomes). Engines pair the first
/// child of [`Problem::crossover`] with its first parent and the second
/// child with the second; mutation keeps the pairing.
#[derive(Debug)]
pub struct Candidate<'p, G> {
    /// The genome to evaluate.
    pub genome: G,
    /// The already-evaluated individual `genome` was bred from.
    pub parent: Option<&'p Individual<G>>,
}

/// Evaluates `batch` in one [`Problem::evaluate_batch`] call and pairs
/// each genome with its objectives, in batch order.
pub(crate) fn evaluate_all<P: Problem>(
    problem: &P,
    ev: &mut P::Evaluator,
    parallel: bool,
    batch: Vec<Candidate<'_, P::Genome>>,
) -> Vec<Individual<P::Genome>> {
    let objectives = problem.evaluate_batch(ev, parallel, &batch);
    batch
        .into_iter()
        .zip(objectives)
        .map(|(candidate, objectives)| Individual {
            genome: candidate.genome,
            objectives,
        })
        .collect()
}

/// Evaluates parentless `genomes`, an initial population, in one batch.
pub(crate) fn evaluate_initial<P: Problem>(
    problem: &P,
    ev: &mut P::Evaluator,
    parallel: bool,
    genomes: Vec<P::Genome>,
) -> Vec<Individual<P::Genome>> {
    let batch = genomes
        .into_iter()
        .map(|genome| Candidate {
            genome,
            parent: None,
        })
        .collect();
    evaluate_all(problem, ev, parallel, batch)
}

/// A bi-objective optimisation problem with genetic operators.
///
/// Evaluation is split into a per-thread [`Problem::Evaluator`] so the
/// engine can evaluate populations in parallel while each worker reuses its
/// own scratch buffers (the scheduling evaluator sorts a sequence buffer
/// and tracks machine-free times; sharing those across threads would race).
///
/// # Evaluating children against their parents
///
/// Engines vary genomes with the plain [`Problem::crossover`] and
/// [`Problem::mutate`], then hand each generation to
/// [`Problem::evaluate_batch`] as [`Candidate`]s that carry the individual
/// each child was bred from. A child equal to that parent reuses the
/// parent's objectives; every other genome is evaluated in full with
/// [`Problem::evaluate`]. The reuse is exact as long as `evaluate` is a
/// pure function of the genome and genomes that compare equal evaluate
/// to the same bits.
pub trait Problem: Sync {
    /// A candidate solution (the chromosome).
    type Genome: Clone + PartialEq + Send + Sync;
    /// Per-thread evaluation context.
    type Evaluator: Send;

    /// Creates a fresh evaluation context.
    fn evaluator(&self) -> Self::Evaluator;

    /// Evaluates a genome into minimisation objectives.
    fn evaluate(&self, ev: &mut Self::Evaluator, genome: &Self::Genome) -> Objectives;

    /// Samples a uniformly random genome.
    fn random_genome(&self, rng: &mut dyn RngCore) -> Self::Genome;

    /// Produces two offspring from two parents.
    fn crossover(
        &self,
        rng: &mut dyn RngCore,
        a: &Self::Genome,
        b: &Self::Genome,
    ) -> (Self::Genome, Self::Genome);

    /// Mutates a genome in place.
    fn mutate(&self, rng: &mut dyn RngCore, genome: &mut Self::Genome);

    /// Evaluates a whole batch of candidates, returning objectives in
    /// batch order. Engines route every population loop through this
    /// single entry point.
    ///
    /// A child equal to its parent reuses the parent's objectives, and
    /// every other candidate is evaluated with [`Problem::evaluate`]: on
    /// the caller's evaluator when serial, or, when `parallel` is set and
    /// the batch spans more than one thread, in contiguous,
    /// order-preserving chunks on the process-wide rayon pool, with a
    /// fresh evaluator per chunk and the calling thread running chunks
    /// itself. Either way each result is the one a serial call returns.
    /// The batch runs under a `batch` span whose `jobs` and `threads`
    /// fields record its size and fan-out.
    fn evaluate_batch(
        &self,
        ev: &mut Self::Evaluator,
        parallel: bool,
        batch: &[Candidate<'_, Self::Genome>],
    ) -> Vec<Objectives> {
        let threads = if parallel {
            rayon::current_num_threads().min(batch.len()).max(1)
        } else {
            1
        };
        let batch_span = tracing::span!(
            tracing::Level::TRACE,
            "batch",
            jobs = batch.len() as u64,
            threads = threads as u64
        );
        let _in_batch = batch_span.enter();
        let evaluate =
            |ev: &mut Self::Evaluator, child: &Candidate<'_, Self::Genome>| match child.parent {
                Some(parent) if parent.genome == child.genome => parent.objectives,
                _ => self.evaluate(ev, &child.genome),
            };
        if threads > 1 {
            use rayon::prelude::*;
            batch
                .par_iter()
                .map_init(|| self.evaluator(), evaluate)
                .collect()
        } else {
            batch
                .iter()
                .map(|candidate| evaluate(ev, candidate))
                .collect()
        }
    }
}

/// Schaffer's single-variable problem (SCH): minimise `(x², (x−2)²)`.
/// Its exact Pareto-optimal set is `x ∈ [0, 2]`; the classic smoke test
/// for NSGA-II implementations (used by Deb et al. 2002 itself).
#[derive(Debug, Clone, Copy)]
pub struct Schaffer {
    /// Genome search range `[-range, range]`.
    pub range: f64,
    /// Gaussian-ish mutation step.
    pub step: f64,
}

impl Default for Schaffer {
    fn default() -> Self {
        Schaffer {
            range: 1000.0,
            step: 0.5,
        }
    }
}

impl Problem for Schaffer {
    type Genome = f64;
    type Evaluator = ();

    fn evaluator(&self) {}

    fn evaluate(&self, _ev: &mut (), genome: &f64) -> Objectives {
        [genome * genome, (genome - 2.0) * (genome - 2.0)]
    }

    fn random_genome(&self, rng: &mut dyn RngCore) -> f64 {
        use rand::Rng;
        rng.gen_range(-self.range..=self.range)
    }

    fn crossover(&self, rng: &mut dyn RngCore, a: &f64, b: &f64) -> (f64, f64) {
        use rand::Rng;
        // Blend crossover.
        let w = rng.gen::<f64>();
        (w * a + (1.0 - w) * b, (1.0 - w) * a + w * b)
    }

    fn mutate(&self, rng: &mut dyn RngCore, genome: &mut f64) {
        use rand::Rng;
        *genome += rng.gen_range(-self.step..=self.step);
        *genome = genome.clamp(-self.range, self.range);
    }
}

/// ZDT1: a 30-variable benchmark with Pareto front `f₂ = 1 − √f₁` at
/// `g = 1` (all tail variables zero). Exercises convergence pressure on a
/// high-dimensional genome.
#[derive(Debug, Clone, Copy)]
pub struct Zdt1 {
    /// Number of decision variables (≥ 2).
    pub vars: usize,
}

impl Default for Zdt1 {
    fn default() -> Self {
        Zdt1 { vars: 30 }
    }
}

impl Problem for Zdt1 {
    type Genome = Vec<f64>;
    type Evaluator = ();

    fn evaluator(&self) {}

    fn evaluate(&self, _ev: &mut (), x: &Vec<f64>) -> Objectives {
        let f1 = x[0];
        let g = 1.0 + 9.0 * x[1..].iter().sum::<f64>() / (x.len() - 1) as f64;
        let f2 = g * (1.0 - (f1 / g).sqrt());
        [f1, f2]
    }

    fn random_genome(&self, rng: &mut dyn RngCore) -> Vec<f64> {
        use rand::Rng;
        (0..self.vars).map(|_| rng.gen::<f64>()).collect()
    }

    fn crossover(&self, rng: &mut dyn RngCore, a: &Vec<f64>, b: &Vec<f64>) -> (Vec<f64>, Vec<f64>) {
        use rand::Rng;
        // Single-point crossover.
        let cut = rng.gen_range(1..self.vars);
        let mut c = a.clone();
        let mut d = b.clone();
        c[cut..].copy_from_slice(&b[cut..]);
        d[cut..].copy_from_slice(&a[cut..]);
        (c, d)
    }

    fn mutate(&self, rng: &mut dyn RngCore, x: &mut Vec<f64>) {
        use rand::Rng;
        let i = rng.gen_range(0..x.len());
        x[i] = (x[i] + rng.gen_range(-0.1..=0.1)).clamp(0.0, 1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A problem that counts its `evaluate` calls across every evaluator.
    struct Counting {
        calls: AtomicUsize,
    }

    fn counted_objectives(genome: u32) -> Objectives {
        [f64::from(genome), -f64::from(genome)]
    }

    impl Problem for Counting {
        type Genome = u32;
        type Evaluator = ();

        fn evaluator(&self) {}

        fn evaluate(&self, _ev: &mut (), genome: &u32) -> Objectives {
            self.calls.fetch_add(1, Ordering::Relaxed);
            counted_objectives(*genome)
        }

        fn random_genome(&self, rng: &mut dyn RngCore) -> u32 {
            rng.next_u32()
        }

        fn crossover(&self, _rng: &mut dyn RngCore, a: &u32, b: &u32) -> (u32, u32) {
            (*a, *b)
        }

        fn mutate(&self, _rng: &mut dyn RngCore, _genome: &mut u32) {}
    }

    #[test]
    fn default_batch_reuses_an_equal_parent_and_evaluates_the_rest() {
        let problem = Counting {
            calls: AtomicUsize::new(0),
        };
        // Parents carry objectives `evaluate` never returns, so a reuse
        // cannot pass for an evaluation.
        let parents: Vec<Individual<u32>> = (0..4)
            .map(|genome| Individual {
                genome,
                objectives: [-1.0, 1.0],
            })
            .collect();
        // In turn: parentless, equal to its parent, different from it.
        let batch: Vec<Candidate<'_, u32>> = (0..30u32)
            .map(|i| {
                let parent = &parents[i as usize % parents.len()];
                match i % 3 {
                    0 => Candidate {
                        genome: 100 + i,
                        parent: None,
                    },
                    1 => Candidate {
                        genome: parent.genome,
                        parent: Some(parent),
                    },
                    _ => Candidate {
                        genome: 100 + i,
                        parent: Some(parent),
                    },
                }
            })
            .collect();
        for parallel in [false, true] {
            let got = problem.evaluate_batch(&mut (), parallel, &batch);
            assert_eq!(
                problem.calls.swap(0, Ordering::Relaxed),
                20,
                "parallel={parallel}"
            );
            assert_eq!(got.len(), batch.len());
            for (candidate, objectives) in batch.iter().zip(&got) {
                let expected = match candidate.parent {
                    Some(parent) if parent.genome == candidate.genome => parent.objectives,
                    _ => counted_objectives(candidate.genome),
                };
                assert_eq!(*objectives, expected, "parallel={parallel}");
            }
        }
    }

    #[test]
    fn schaffer_objectives() {
        let p = Schaffer::default();
        assert_eq!(p.evaluate(&mut (), &0.0), [0.0, 4.0]);
        assert_eq!(p.evaluate(&mut (), &2.0), [4.0, 0.0]);
        assert_eq!(p.evaluate(&mut (), &1.0), [1.0, 1.0]);
    }

    #[test]
    fn schaffer_operators_stay_in_range() {
        let p = Schaffer::default();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let mut g = p.random_genome(&mut rng);
            assert!(g.abs() <= p.range);
            p.mutate(&mut rng, &mut g);
            assert!(g.abs() <= p.range);
        }
    }

    #[test]
    fn zdt1_front_at_g_equals_one() {
        let p = Zdt1 { vars: 5 };
        let mut x = vec![0.0; 5];
        x[0] = 0.25;
        let [f1, f2] = p.evaluate(&mut (), &x);
        assert_eq!(f1, 0.25);
        assert!((f2 - (1.0 - 0.25f64.sqrt())).abs() < 1e-12);
    }

    #[test]
    fn zdt1_crossover_preserves_length_and_genes() {
        let p = Zdt1 { vars: 6 };
        let mut rng = StdRng::seed_from_u64(2);
        let a = vec![0.0; 6];
        let b = vec![1.0; 6];
        let (c, d) = p.crossover(&mut rng, &a, &b);
        assert_eq!(c.len(), 6);
        assert_eq!(d.len(), 6);
        // Each position holds a gene from one of the parents, and the two
        // children complement each other.
        for i in 0..6 {
            assert!((c[i] == 0.0 || c[i] == 1.0) && (c[i] + d[i] == 1.0));
        }
    }
}
