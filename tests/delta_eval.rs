//! Differential tests for the allocation problem's evaluation path.
//!
//! Strategy: a problem small enough to brute-force — 5 tasks on a
//! 3-machine subset of the real dataset, 3^5 assignments x 5! global
//! orders — gives the *true* Pareto front by enumeration. Each engine
//! (NSGA-II, MOEA/D, SPEA2) is then run twice from the same seed: once on
//! [`AllocationProblem`] (each child checked against its parent: a child
//! equal to it skips evaluation) and once on a `FullEval` wrapper that
//! delegates the same genetic operators but evaluates every genome with a
//! serial loop that ignores its parent, forcing every child through the
//! reference evaluator. The two runs must produce bit-identical populations and
//! identical per-generation observer traces (hypervolume, ideal corner,
//! evaluation counts), and every front point must be on the enumerated
//! true front.

use hetsched::alloc::AllocationProblem;
use hetsched::core::{JournalObserver, RunJournal};
use hetsched::data::{real_system, HcSystem, MachineId, MachineInventory};
use hetsched::heuristics::SeedKind;
use hetsched::moea::{
    moead_observed, pareto_front, spea2_observed, Candidate, GenerationStats, Individual,
    MoeadConfig, Nsga2, Nsga2Config, Objectives, Problem, Spea2Config, StatsLog,
};
use hetsched::sim::{Allocation, Evaluator};
use hetsched::workload::{Trace, TraceGenerator};
use rand::RngCore;

const TASKS: usize = 5;

fn tiny_system() -> HcSystem {
    // One machine each of the first three types; every task type is
    // feasible everywhere (the real ETC matrix is fully finite).
    real_system()
        .with_inventory(MachineInventory::from_counts(vec![1, 1, 1, 0, 0, 0, 0, 0, 0]).unwrap())
        .unwrap()
}

fn tiny_trace(system: &HcSystem) -> Trace {
    use rand::SeedableRng;
    TraceGenerator::new(TASKS, 400.0, system.task_type_count())
        .generate(&mut rand::rngs::StdRng::seed_from_u64(42))
        .unwrap()
}

/// Forces the reference path: delegates the allocation problem's genetic
/// operators verbatim but evaluates each batch serially, one genome at a
/// time, ignoring each child's parent, so a run against it is both
/// unbatched *and* fully evaluated.
struct FullEval<'a>(AllocationProblem<'a>);

impl<'a> Problem for FullEval<'a> {
    type Genome = Allocation;
    type Evaluator = Evaluator<'a>;

    fn evaluator(&self) -> Self::Evaluator {
        self.0.evaluator()
    }

    fn evaluate(&self, ev: &mut Self::Evaluator, genome: &Allocation) -> Objectives {
        self.0.evaluate(ev, genome)
    }

    fn random_genome(&self, rng: &mut dyn RngCore) -> Allocation {
        self.0.random_genome(rng)
    }

    fn crossover(
        &self,
        rng: &mut dyn RngCore,
        a: &Allocation,
        b: &Allocation,
    ) -> (Allocation, Allocation) {
        self.0.crossover(rng, a, b)
    }

    fn mutate(&self, rng: &mut dyn RngCore, genome: &mut Allocation) {
        self.0.mutate(rng, genome)
    }

    fn evaluate_batch(
        &self,
        ev: &mut Self::Evaluator,
        _parallel: bool,
        batch: &[Candidate<'_, Allocation>],
    ) -> Vec<Objectives> {
        batch
            .iter()
            .map(|candidate| self.evaluate(ev, &candidate.genome))
            .collect()
    }
}

/// The real problem's operators and skip/full decisions, but
/// `evaluate_batch` runs one candidate per call — the control that
/// isolates population-level batching. A run against this wrapper takes
/// the same skip/full decisions as one against
/// [`AllocationProblem`]; only the batching differs, so any divergence is
/// the batch path's fault.
struct UnbatchedAlloc<'a>(AllocationProblem<'a>);

impl<'a> Problem for UnbatchedAlloc<'a> {
    type Genome = Allocation;
    type Evaluator = Evaluator<'a>;

    fn evaluator(&self) -> Self::Evaluator {
        self.0.evaluator()
    }

    fn evaluate(&self, ev: &mut Self::Evaluator, genome: &Allocation) -> Objectives {
        self.0.evaluate(ev, genome)
    }

    fn random_genome(&self, rng: &mut dyn RngCore) -> Allocation {
        self.0.random_genome(rng)
    }

    fn crossover(
        &self,
        rng: &mut dyn RngCore,
        a: &Allocation,
        b: &Allocation,
    ) -> (Allocation, Allocation) {
        self.0.crossover(rng, a, b)
    }

    fn mutate(&self, rng: &mut dyn RngCore, genome: &mut Allocation) {
        self.0.mutate(rng, genome)
    }

    fn evaluate_batch(
        &self,
        ev: &mut Self::Evaluator,
        _parallel: bool,
        batch: &[Candidate<'_, Allocation>],
    ) -> Vec<Objectives> {
        batch
            .iter()
            .flat_map(|candidate| {
                self.0
                    .evaluate_batch(ev, false, std::slice::from_ref(candidate))
            })
            .collect()
    }
}

/// Enumerates every (assignment, global order) pair and returns all
/// distinct objective vectors plus the true Pareto front among them.
fn brute_force(sys: &HcSystem, trace: &Trace) -> (Vec<Objectives>, Vec<Objectives>) {
    let machines = sys.machine_count();
    let mut ev = Evaluator::new(sys, trace);
    let mut all: Vec<Objectives> = Vec::new();
    let mut perm: Vec<u32> = (0..TASKS as u32).collect();
    let mut perms: Vec<Vec<u32>> = Vec::new();
    heap_permutations(&mut perm, TASKS, &mut perms);
    for code in 0..machines.pow(TASKS as u32) {
        let mut c = code;
        let machine: Vec<MachineId> = (0..TASKS)
            .map(|_| {
                let m = MachineId((c % machines) as u32);
                c /= machines;
                m
            })
            .collect();
        for perm in &perms {
            // order[task] = rank of the task in this execution sequence.
            let mut order = vec![0u32; TASKS];
            for (rank, &task) in perm.iter().enumerate() {
                order[task as usize] = rank as u32;
            }
            let outcome = ev.evaluate(&Allocation {
                machine: machine.clone(),
                order,
            });
            all.push([-outcome.utility, outcome.energy]);
        }
    }
    let front = true_front(&all);
    (all, front)
}

fn heap_permutations(items: &mut Vec<u32>, k: usize, out: &mut Vec<Vec<u32>>) {
    if k <= 1 {
        out.push(items.clone());
        return;
    }
    for i in 0..k {
        heap_permutations(items, k - 1, out);
        if k.is_multiple_of(2) {
            items.swap(i, k - 1);
        } else {
            items.swap(0, k - 1);
        }
    }
}

/// Nondominated subset (minimisation, both objectives), deduplicated
/// bitwise and sorted for comparison.
fn true_front(points: &[Objectives]) -> Vec<Objectives> {
    let dominated = |p: &Objectives, q: &Objectives| {
        // q dominates p
        q[0] <= p[0] && q[1] <= p[1] && (q[0] < p[0] || q[1] < p[1])
    };
    let mut front: Vec<Objectives> = points
        .iter()
        .filter(|p| !points.iter().any(|q| dominated(p, q)))
        .copied()
        .collect();
    front.sort_by(|a, b| a[0].total_cmp(&b[0]).then(a[1].total_cmp(&b[1])));
    front.dedup_by(|a, b| bits(*a) == bits(*b));
    front
}

fn bits(p: Objectives) -> [u64; 2] {
    [p[0].to_bits(), p[1].to_bits()]
}

fn sorted_front_bits(population: &[Individual<Allocation>]) -> Vec<[u64; 2]> {
    let mut front: Vec<[u64; 2]> = pareto_front(population)
        .iter()
        .map(|ind| bits(ind.objectives))
        .collect();
    front.sort_unstable();
    front.dedup();
    front
}

fn assert_identical_populations(
    tracked: &[Individual<Allocation>],
    full: &[Individual<Allocation>],
    engine: &str,
) {
    assert_eq!(tracked.len(), full.len(), "{engine}: population size");
    for (i, (t, f)) in tracked.iter().zip(full).enumerate() {
        assert_eq!(t.genome, f.genome, "{engine}: genome {i} diverged");
        assert_eq!(
            bits(t.objectives),
            bits(f.objectives),
            "{engine}: objectives of genome {i} diverged: {:?} vs {:?}",
            t.objectives,
            f.objectives
        );
    }
}

/// Compares everything in the per-generation traces except wall-clock
/// timings (which legitimately differ between runs).
fn assert_identical_traces(tracked: &[GenerationStats], full: &[GenerationStats], engine: &str) {
    assert_eq!(tracked.len(), full.len(), "{engine}: trace length");
    for (t, f) in tracked.iter().zip(full) {
        assert_eq!(t.generation, f.generation, "{engine}: generation index");
        assert_eq!(
            t.front_sizes, f.front_sizes,
            "{engine}: front sizes at generation {}",
            t.generation
        );
        assert_eq!(
            [t.ideal[0].to_bits(), t.ideal[1].to_bits()],
            [f.ideal[0].to_bits(), f.ideal[1].to_bits()],
            "{engine}: ideal corner at generation {}",
            t.generation
        );
        assert_eq!(
            t.hypervolume.map(f64::to_bits),
            f.hypervolume.map(f64::to_bits),
            "{engine}: hypervolume at generation {}",
            t.generation
        );
        assert_eq!(
            t.evaluations, f.evaluations,
            "{engine}: evaluation count at generation {}",
            t.generation
        );
    }
}

/// Hypervolume reference dominated by every enumerated point: utility is
/// negated (so objective 0 is negative), energy bounded by the worst
/// enumerated assignment.
fn hv_reference(all: &[Objectives]) -> [f64; 2] {
    let max_energy = all.iter().map(|p| p[1]).fold(0.0f64, f64::max);
    [1.0, max_energy + 1.0]
}

#[test]
fn nsga2_delta_and_full_runs_are_bit_identical() {
    let sys = tiny_system();
    let trace = tiny_trace(&sys);
    let (all, front) = brute_force(&sys, &trace);
    let tracked = AllocationProblem::new(&sys, &trace);
    let full = FullEval(AllocationProblem::new(&sys, &trace));
    let config = Nsga2Config {
        population: 24,
        generations: 60,
        mutation_rate: 0.5,
        parallel: false,
        hv_reference: Some(hv_reference(&all)),
        ..Default::default()
    };
    let mut log_t = StatsLog::default();
    let mut log_f = StatsLog::default();
    let pop_t =
        Nsga2::new(&tracked, config).run_observed(Vec::new(), 11, &[], |_, _| {}, &mut log_t);
    let pop_f = Nsga2::new(&full, config).run_observed(Vec::new(), 11, &[], |_, _| {}, &mut log_f);
    assert_identical_populations(&pop_t, &pop_f, "nsga2");
    assert_identical_traces(&log_t.records, &log_f.records, "nsga2");

    // Every front point the engine reports exists in the enumerated space
    // and is on the true Pareto front; on a problem this small NSGA-II
    // recovers the complete front.
    let engine_front = sorted_front_bits(&pop_t);
    let mut true_bits: Vec<[u64; 2]> = front.iter().map(|&p| bits(p)).collect();
    true_bits.sort_unstable();
    assert_eq!(
        engine_front, true_bits,
        "engine front must equal the brute-forced true front"
    );
}

#[test]
fn nsga2_parallel_delta_and_full_runs_are_bit_identical() {
    let sys = tiny_system();
    let trace = tiny_trace(&sys);
    let tracked = AllocationProblem::new(&sys, &trace);
    let full = FullEval(AllocationProblem::new(&sys, &trace));
    let config = Nsga2Config {
        population: 16,
        generations: 25,
        mutation_rate: 0.5,
        parallel: true,
        hv_reference: None,
        ..Default::default()
    };
    let pop_t = Nsga2::new(&tracked, config).run(Vec::new(), 23);
    let pop_f = Nsga2::new(&full, config).run(Vec::new(), 23);
    assert_identical_populations(&pop_t, &pop_f, "nsga2-parallel");
}

#[test]
fn traced_delta_run_is_bit_identical_to_untraced() {
    // Arming the span sink at full verbosity must not move the
    // trajectory: spans read clocks, never the RNG streams the skip
    // decisions and genetic operators draw from.
    let sys = tiny_system();
    let trace = tiny_trace(&sys);
    let tracked = AllocationProblem::new(&sys, &trace);
    let config = Nsga2Config {
        population: 16,
        generations: 25,
        mutation_rate: 0.5,
        parallel: true,
        hv_reference: None,
        ..Default::default()
    };
    let untraced = Nsga2::new(&tracked, config).run(Vec::new(), 29);

    let path =
        std::env::temp_dir().join(format!("hetsched-delta-trace-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let writer = std::sync::Arc::new(hetsched::core::TraceWriter::create(&path).unwrap());
    hetsched::core::install_tracing(tracing::Level::TRACE, Some(writer)).unwrap();
    let traced = Nsga2::new(&tracked, config).run(Vec::new(), 29);
    tracing::flush_span_sink();
    let spans = hetsched::core::read_trace(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_identical_populations(&untraced, &traced, "nsga2-traced");
    assert!(
        spans.iter().any(|s| s.name == "generation"),
        "the sink was armed but recorded no generation spans"
    );
}

#[test]
fn moead_delta_and_full_runs_are_bit_identical() {
    let sys = tiny_system();
    let trace = tiny_trace(&sys);
    let (all, front) = brute_force(&sys, &trace);
    let tracked = AllocationProblem::new(&sys, &trace);
    let full = FullEval(AllocationProblem::new(&sys, &trace));
    let config = MoeadConfig {
        subproblems: 24,
        neighbours: 6,
        mutation_rate: 0.5,
        generations: 60,
        hv_reference: Some(hv_reference(&all)),
    };
    let mut log_t = StatsLog::default();
    let mut log_f = StatsLog::default();
    let pop_t = moead_observed(&tracked, config, Vec::new(), 11, &[], |_, _| {}, &mut log_t);
    let pop_f = moead_observed(&full, config, Vec::new(), 11, &[], |_, _| {}, &mut log_f);
    assert_identical_populations(&pop_t, &pop_f, "moead");
    assert_identical_traces(&log_t.records, &log_f.records, "moead");

    // MOEA/D's weighted decomposition need not recover the full front on
    // every instance, but whatever it reports must be truly optimal.
    let true_bits: Vec<[u64; 2]> = front.iter().map(|&p| bits(p)).collect();
    for point in sorted_front_bits(&pop_t) {
        assert!(
            true_bits.contains(&point),
            "moead front point {point:?} is not on the true Pareto front"
        );
    }
}

#[test]
fn spea2_delta_and_full_runs_are_bit_identical() {
    let sys = tiny_system();
    let trace = tiny_trace(&sys);
    let (all, front) = brute_force(&sys, &trace);
    let tracked = AllocationProblem::new(&sys, &trace);
    let full = FullEval(AllocationProblem::new(&sys, &trace));
    let config = Spea2Config {
        population: 24,
        archive: 24,
        mutation_rate: 0.5,
        generations: 60,
        hv_reference: Some(hv_reference(&all)),
    };
    let mut log_t = StatsLog::default();
    let mut log_f = StatsLog::default();
    let pop_t = spea2_observed(&tracked, config, Vec::new(), 11, &[], |_, _| {}, &mut log_t);
    let pop_f = spea2_observed(&full, config, Vec::new(), 11, &[], |_, _| {}, &mut log_f);
    assert_identical_populations(&pop_t, &pop_f, "spea2");
    assert_identical_traces(&log_t.records, &log_f.records, "spea2");

    let true_bits: Vec<[u64; 2]> = front.iter().map(|&p| bits(p)).collect();
    for point in sorted_front_bits(&pop_t) {
        assert!(
            true_bits.contains(&point),
            "spea2 front point {point:?} is not on the true Pareto front"
        );
    }
}

/// Property test for `AllocationProblem::evaluate_batch`: a random
/// offspring population of parentless random genomes, children one to
/// three genes off one base parent, and children equal to that parent,
/// evaluated batched (serial and parallel), must be `total_cmp`-exact
/// against one-at-a-time calls on a plain [`Evaluator`] — on the real
/// 9×5 system and the synthetic-50 scale-up. A child equal to its parent
/// must come back with the parent's objectives without an evaluation.
#[test]
fn batch_evaluator_matches_single_shot_on_real_and_synthetic_systems() {
    use rand::Rng;
    use rand::SeedableRng;
    let real = real_system();
    let synthetic = real_system()
        .with_inventory(MachineInventory::from_counts(vec![6, 6, 6, 6, 6, 5, 5, 5, 5]).unwrap())
        .unwrap();
    for (label, sys, tasks) in [
        ("real-9x5", &real, 60usize),
        ("synthetic-50", &synthetic, 120),
    ] {
        let trace = TraceGenerator::new(tasks, 600.0, sys.task_type_count())
            .generate(&mut rand::rngs::StdRng::seed_from_u64(17))
            .unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let random_alloc = |rng: &mut rand::rngs::StdRng| Allocation {
            machine: (0..tasks)
                .map(|_| hetsched::data::MachineId(rng.gen_range(0..sys.machine_count() as u32)))
                .collect(),
            order: (0..tasks).map(|_| rng.gen_range(0..10_000u32)).collect(),
        };
        // The base parent carries objectives no evaluation can produce
        // (utility and energy are never negative), so a child equal to it
        // that were evaluated instead of reusing them would show.
        let parent = Individual {
            genome: random_alloc(&mut rng),
            objectives: [1.0, -1.0],
        };
        // An offspring population: parentless genomes, children one to
        // three genes off the base parent, and children equal to it. The
        // reference evaluates each on a single warm evaluator, one at a
        // time; `None` marks a child equal to its parent.
        let mut reference = Evaluator::new(sys, &trace);
        let mut expected: Vec<Option<[u64; 2]>> = Vec::new();
        let mut candidates: Vec<Candidate<'_, Allocation>> = Vec::new();
        for i in 0..40 {
            let candidate = if i % 3 == 0 {
                Candidate {
                    genome: random_alloc(&mut rng),
                    parent: None,
                }
            } else {
                let mut child = parent.genome.clone();
                for _ in 0..rng.gen_range(1..=3) {
                    let t = rng.gen_range(0..tasks);
                    child.machine[t] =
                        hetsched::data::MachineId(rng.gen_range(0..sys.machine_count() as u32));
                    child.order[t] = rng.gen_range(0..10_000);
                }
                Candidate {
                    genome: child,
                    parent: Some(&parent),
                }
            };
            let o = reference.evaluate(&candidate.genome);
            expected.push(Some(bits([-o.utility, o.energy])));
            candidates.push(candidate);
            if i % 7 == 0 {
                expected.push(None);
                candidates.push(Candidate {
                    genome: parent.genome.clone(),
                    parent: Some(&parent),
                });
            }
        }
        // Batched, serial and parallel.
        let problem = AllocationProblem::new(sys, &trace);
        for parallel in [false, true] {
            let mut ev = problem.evaluator();
            let got = problem.evaluate_batch(&mut ev, parallel, &candidates);
            assert_eq!(got.len(), expected.len());
            for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
                match e {
                    Some(e) => assert_eq!(
                        bits(*g),
                        *e,
                        "{label} parallel={parallel}: job {i} diverged"
                    ),
                    None => assert_eq!(
                        bits(*g),
                        bits(parent.objectives),
                        "{label} parallel={parallel}: job {i} skip mismatch"
                    ),
                }
            }
        }
    }
}

/// Each engine must walk a bit-identical trajectory whether a generation
/// reaches [`AllocationProblem`]'s `evaluate_batch` in one call or one
/// candidate per call (`UnbatchedAlloc`) — populations and per-generation
/// observer traces alike.
#[test]
fn engines_batched_and_unbatched_runs_are_bit_identical() {
    let sys = tiny_system();
    let trace = tiny_trace(&sys);
    let (all, _) = brute_force(&sys, &trace);
    let batched = AllocationProblem::new(&sys, &trace);
    let unbatched = UnbatchedAlloc(AllocationProblem::new(&sys, &trace));

    // NSGA-II, serial and parallel batches.
    for parallel in [false, true] {
        let config = Nsga2Config {
            population: 24,
            generations: 40,
            mutation_rate: 0.5,
            parallel,
            hv_reference: Some(hv_reference(&all)),
            ..Default::default()
        };
        let mut log_b = StatsLog::default();
        let mut log_u = StatsLog::default();
        let pop_b =
            Nsga2::new(&batched, config).run_observed(Vec::new(), 19, &[], |_, _| {}, &mut log_b);
        let pop_u =
            Nsga2::new(&unbatched, config).run_observed(Vec::new(), 19, &[], |_, _| {}, &mut log_u);
        assert_identical_populations(&pop_b, &pop_u, "nsga2-batched");
        assert_identical_traces(&log_b.records, &log_u.records, "nsga2-batched");
    }

    // MOEA/D (steady-state: batches of one).
    let config = MoeadConfig {
        subproblems: 24,
        neighbours: 6,
        mutation_rate: 0.5,
        generations: 40,
        hv_reference: Some(hv_reference(&all)),
    };
    let mut log_b = StatsLog::default();
    let mut log_u = StatsLog::default();
    let pop_b = moead_observed(&batched, config, Vec::new(), 19, &[], |_, _| {}, &mut log_b);
    let pop_u = moead_observed(
        &unbatched,
        config,
        Vec::new(),
        19,
        &[],
        |_, _| {},
        &mut log_u,
    );
    assert_identical_populations(&pop_b, &pop_u, "moead-batched");
    assert_identical_traces(&log_b.records, &log_u.records, "moead-batched");

    // SPEA2 (whole-generation batches).
    let config = Spea2Config {
        population: 24,
        archive: 24,
        mutation_rate: 0.5,
        generations: 40,
        hv_reference: Some(hv_reference(&all)),
    };
    let mut log_b = StatsLog::default();
    let mut log_u = StatsLog::default();
    let pop_b = spea2_observed(&batched, config, Vec::new(), 19, &[], |_, _| {}, &mut log_b);
    let pop_u = spea2_observed(
        &unbatched,
        config,
        Vec::new(),
        19,
        &[],
        |_, _| {},
        &mut log_u,
    );
    assert_identical_populations(&pop_b, &pop_u, "spea2-batched");
    assert_identical_traces(&log_b.records, &log_u.records, "spea2-batched");
}

/// The persisted journal must also carry the same hypervolume trace
/// batched vs. unbatched (the batching analogue of the tracked-vs-full
/// journal test below).
#[test]
fn run_journal_traces_are_identical_batched_vs_unbatched() {
    let sys = tiny_system();
    let trace = tiny_trace(&sys);
    let (all, _) = brute_force(&sys, &trace);
    let batched = AllocationProblem::new(&sys, &trace);
    let unbatched = UnbatchedAlloc(AllocationProblem::new(&sys, &trace));
    let config = Nsga2Config {
        population: 16,
        generations: 25,
        mutation_rate: 0.5,
        parallel: true,
        hv_reference: Some(hv_reference(&all)),
        ..Default::default()
    };
    let dir = std::env::temp_dir();
    let path_b = dir.join("hetsched-delta-eval-journal-batched.jsonl");
    let path_u = dir.join("hetsched-delta-eval-journal-unbatched.jsonl");
    {
        let journal = RunJournal::create(&path_b).unwrap();
        let mut obs = JournalObserver::new(&journal, SeedKind::Random, 0);
        Nsga2::new(&batched, config).run_observed(Vec::new(), 37, &[], |_, _| {}, &mut obs);
    }
    {
        let journal = RunJournal::create(&path_u).unwrap();
        let mut obs = JournalObserver::new(&journal, SeedKind::Random, 0);
        Nsga2::new(&unbatched, config).run_observed(Vec::new(), 37, &[], |_, _| {}, &mut obs);
    }
    let rec_b = RunJournal::read(&path_b).unwrap();
    let rec_u = RunJournal::read(&path_u).unwrap();
    let _ = std::fs::remove_file(&path_b);
    let _ = std::fs::remove_file(&path_u);
    assert_eq!(rec_b.len(), rec_u.len());
    assert!(!rec_b.is_empty());
    for (b, u) in rec_b.iter().zip(&rec_u) {
        assert_eq!(b.population, u.population);
        assert_eq!(b.stream, u.stream);
        assert_eq!(
            b.stats.hypervolume.map(f64::to_bits),
            u.stats.hypervolume.map(f64::to_bits),
            "journalled hypervolume diverged at generation {}",
            b.stats.generation
        );
    }
}

/// The persisted journal (what `hetsched report` reads) carries the same
/// hypervolume trace whichever evaluation path produced it.
#[test]
fn run_journal_hypervolume_traces_are_identical() {
    let sys = tiny_system();
    let trace = tiny_trace(&sys);
    let (all, _) = brute_force(&sys, &trace);
    let tracked = AllocationProblem::new(&sys, &trace);
    let full = FullEval(AllocationProblem::new(&sys, &trace));
    let config = Nsga2Config {
        population: 16,
        generations: 30,
        mutation_rate: 0.5,
        parallel: false,
        hv_reference: Some(hv_reference(&all)),
        ..Default::default()
    };
    let dir = std::env::temp_dir();
    let path_t = dir.join("hetsched-delta-eval-journal-tracked.jsonl");
    let path_f = dir.join("hetsched-delta-eval-journal-full.jsonl");
    {
        let journal = RunJournal::create(&path_t).unwrap();
        let mut obs = JournalObserver::new(&journal, SeedKind::Random, 0);
        Nsga2::new(&tracked, config).run_observed(Vec::new(), 31, &[], |_, _| {}, &mut obs);
    }
    {
        let journal = RunJournal::create(&path_f).unwrap();
        let mut obs = JournalObserver::new(&journal, SeedKind::Random, 0);
        Nsga2::new(&full, config).run_observed(Vec::new(), 31, &[], |_, _| {}, &mut obs);
    }
    let rec_t = RunJournal::read(&path_t).unwrap();
    let rec_f = RunJournal::read(&path_f).unwrap();
    let _ = std::fs::remove_file(&path_t);
    let _ = std::fs::remove_file(&path_f);
    assert_eq!(rec_t.len(), rec_f.len());
    assert!(!rec_t.is_empty());
    for (t, f) in rec_t.iter().zip(&rec_f) {
        assert_eq!(t.population, f.population);
        assert_eq!(t.stream, f.stream);
        assert_eq!(
            t.stats.hypervolume.map(f64::to_bits),
            f.stats.hypervolume.map(f64::to_bits),
            "journalled hypervolume diverged at generation {}",
            t.stats.generation
        );
    }
}
