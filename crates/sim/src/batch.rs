//! Population-level batch evaluation.
//!
//! The engines' offspring loops used to drive parallelism per cell
//! (rayon `map_init` with a fresh [`Evaluator`] per worker, rebuilt every
//! generation). [`BatchEvaluator`] moves that split up to the evaluator
//! layer: one call evaluates a whole offspring population against a pool
//! of *persistent* worker evaluators whose scratch buffers stay allocated
//! across generations. Results are returned in job order, and each job
//! runs exactly the same float operations as the corresponding
//! single-shot [`Evaluator`] call, so batching never changes a bit.
//!
//! Worker `k` always receives the same contiguous slice position of the
//! batch, and the split is deterministic in the batch length, so runs are
//! reproducible whether or not threads are actually spawned.

use crate::allocation::Allocation;
use crate::evaluator::{Evaluator, Outcome};
use hetsched_data::HcSystem;
use hetsched_workload::Trace;

/// One evaluation request in a batch.
///
/// `Skip` marks a job whose outcome the caller already knows (a child
/// equal to its parent reuses the parent's objectives); it keeps indices
/// aligned without costing an evaluation.
#[derive(Debug, Clone, Copy)]
pub enum BatchJob<'g> {
    /// Full evaluation of one allocation.
    Full(&'g Allocation),
    /// No evaluation needed; [`BatchEvaluator::evaluate_jobs`] returns
    /// `None` in this slot.
    Skip,
}

/// Evaluates batches of jobs across a pool of persistent [`Evaluator`]
/// workers.
///
/// Worker 0 is the *primary*: serial batches and all single-shot calls
/// (via [`BatchEvaluator::primary`]) run on it. Extra workers are cloned
/// lazily from the primary (clones are cheap — scratch buffers plus a
/// shared system/trace) the first time a parallel batch needs them, and
/// then kept.
#[derive(Debug, Clone)]
pub struct BatchEvaluator<'a> {
    workers: Vec<Evaluator<'a>>,
    threads: usize,
}

impl<'a> BatchEvaluator<'a> {
    /// Creates a batch evaluator bound to one system + trace, with a
    /// single (primary) worker. The worker pool grows on demand up to the
    /// machine's available parallelism.
    pub fn new(system: &'a HcSystem, trace: &'a Trace) -> Self {
        BatchEvaluator {
            workers: vec![Evaluator::new(system, trace)],
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }

    /// The primary worker, for single-shot evaluation between batches.
    pub fn primary(&mut self) -> &mut Evaluator<'a> {
        &mut self.workers[0]
    }

    /// Evaluates every job, returning outcomes in job order (`None` for
    /// [`BatchJob::Skip`] slots).
    ///
    /// With `parallel == false`, or when the batch is too small to split,
    /// everything runs on the primary worker — exactly the sequence of
    /// calls an unbatched loop would have made. With `parallel == true`
    /// the batch is split into contiguous chunks, one per worker, executed
    /// under `std::thread::scope`; within a chunk jobs still run in order
    /// on one worker, so every individual result is bit-identical to the
    /// serial path (evaluation is pure per job).
    pub fn evaluate_jobs(&mut self, jobs: &[BatchJob<'_>], parallel: bool) -> Vec<Option<Outcome>> {
        let threads = if parallel {
            self.threads.min(jobs.len()).max(1)
        } else {
            1
        };
        // The batch span nests under the engine's evaluation phase via the
        // caller's thread; worker chunks stay untraced (clock reads only —
        // evaluation itself is RNG-free and bit-identical either way).
        let batch_span = tracing::span!(
            tracing::Level::TRACE,
            "batch",
            jobs = jobs.len() as u64,
            threads = threads as u64
        );
        let _in_batch = batch_span.enter();
        if threads <= 1 || jobs.len() < 2 {
            let primary = &mut self.workers[0];
            return jobs.iter().map(|job| Self::run(primary, job)).collect();
        }
        while self.workers.len() < threads {
            let clone = self.workers[0].clone();
            self.workers.push(clone);
        }
        let mut out: Vec<Option<Outcome>> = vec![None; jobs.len()];
        let chunk = jobs.len().div_ceil(threads);
        std::thread::scope(|scope| {
            let mut workers: &mut [Evaluator<'a>] = &mut self.workers[..threads];
            let mut jobs_rest = jobs;
            let mut out_rest: &mut [Option<Outcome>] = &mut out;
            while !jobs_rest.is_empty() {
                let take = chunk.min(jobs_rest.len());
                let (job_chunk, jr) = jobs_rest.split_at(take);
                let (out_chunk, or) = out_rest.split_at_mut(take);
                let (worker, wr) = workers.split_first_mut().expect("worker per chunk");
                jobs_rest = jr;
                out_rest = or;
                workers = wr;
                scope.spawn(move || {
                    for (slot, job) in out_chunk.iter_mut().zip(job_chunk) {
                        *slot = Self::run(worker, job);
                    }
                });
            }
        });
        out
    }

    fn run(ev: &mut Evaluator<'a>, job: &BatchJob<'_>) -> Option<Outcome> {
        match job {
            BatchJob::Full(alloc) => Some(ev.evaluate(alloc)),
            BatchJob::Skip => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsched_data::{real_system, MachineId};
    use hetsched_workload::TraceGenerator;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_alloc(rng: &mut StdRng, tasks: usize, machines: usize) -> Allocation {
        Allocation {
            machine: (0..tasks)
                .map(|_| MachineId(rng.gen_range(0..machines as u32)))
                .collect(),
            order: (0..tasks).map(|_| rng.gen_range(0..1000)).collect(),
        }
    }

    #[test]
    fn batched_full_jobs_match_single_shot_bitwise() {
        let sys = real_system();
        let trace = TraceGenerator::new(40, 600.0, sys.task_type_count())
            .generate(&mut StdRng::seed_from_u64(7))
            .unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let allocs: Vec<Allocation> = (0..17)
            .map(|_| random_alloc(&mut rng, 40, sys.machine_count()))
            .collect();
        let mut reference = Evaluator::new(&sys, &trace);
        let expected: Vec<Outcome> = allocs.iter().map(|a| reference.evaluate(a)).collect();
        for parallel in [false, true] {
            let mut batch = BatchEvaluator::new(&sys, &trace);
            let jobs: Vec<BatchJob<'_>> = allocs.iter().map(BatchJob::Full).collect();
            let got = batch.evaluate_jobs(&jobs, parallel);
            assert_eq!(got.len(), expected.len());
            for (g, e) in got.iter().zip(&expected) {
                let g = g.expect("full job yields an outcome");
                assert_eq!(g.utility.to_bits(), e.utility.to_bits());
                assert_eq!(g.energy.to_bits(), e.energy.to_bits());
                assert_eq!(g.makespan.to_bits(), e.makespan.to_bits());
            }
        }
    }

    #[test]
    fn skip_jobs_yield_none_and_cost_nothing() {
        let sys = real_system();
        let trace = TraceGenerator::new(10, 600.0, sys.task_type_count())
            .generate(&mut StdRng::seed_from_u64(7))
            .unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let a = random_alloc(&mut rng, 10, sys.machine_count());
        let mut batch = BatchEvaluator::new(&sys, &trace);
        let jobs = [BatchJob::Skip, BatchJob::Full(&a), BatchJob::Skip];
        let got = batch.evaluate_jobs(&jobs, false);
        assert!(got[0].is_none());
        assert!(got[1].is_some());
        assert!(got[2].is_none());
    }
}
