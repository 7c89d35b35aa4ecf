//! Engine-backed streaming: a rolling-horizon scheduler whose per-tick
//! re-optimizer is a full MOEA run, **warm-started** from the previous
//! horizon's Pareto front, plus a durable [`StreamRunner`] that persists
//! a per-stream manifest so an interrupted stream resumes bit-identically.
//!
//! The layering mirrors the offline path: `hetsched-sim` owns the
//! [`HorizonScheduler`] mechanics (freeze rule, budget repair, commit);
//! this module supplies the [`Reoptimize`] implementation that runs any
//! [`EngineConfig`] (NSGA-II / MOEA/D / SPEA2) and the selection of the
//! committed point (knee under an unconstrained budget, best utility
//! within the budget otherwise).
//!
//! # Determinism and RNG-stream isolation
//!
//! Tick 0 replays [`crate::Framework::run_population`] exactly: same
//! seed chromosomes, and the same hypervolume reference and engine seed,
//! computed by the functions the framework calls — so a stream whose
//! first horizon covers the whole trace commits the *bit-identical*
//! population an offline run produces (see `tests/online_streaming.rs`).
//! Later ticks fold the tick index into the engine seed with an
//! independent odd multiplier, giving every horizon its own decorrelated
//! RNG stream while never perturbing tick 0's.

use crate::framework::{engine_seed, hv_reference};
use crate::journal::{JournalObserver, RunJournal};
use crate::jsonl::{self, ReadError, Writers};
use crate::{Error, Result};
use hetsched_alloc::AllocationProblem;
use hetsched_analysis::{knee_point, ParetoFront};
use hetsched_data::HcSystem;
use hetsched_heuristics::{max_utility, min_min_completion_time, SeedKind};
use hetsched_moea::observe::{NullObserver, Observer};
use hetsched_moea::{pareto_front, prepare_warm_seeds, EngineConfig, Individual};
use hetsched_sim::{
    Allocation, HorizonConfig, HorizonContext, HorizonRecord, HorizonScheduler, OnlinePolicy,
    PolicyReoptimizer, Reoptimize, SimError,
};
use hetsched_workload::{ArrivalStream, Task};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// An odd multiplier, independent of the framework's population-stream
/// mixing, that folds the tick index into the engine seed: horizon
/// `k > 0` gets its own stream without touching tick 0's (which must
/// replay the offline run).
const TICK_MIX: u64 = 0xD1B5_4A32_D192_ED03;

/// How a [`StreamRunner`] re-optimizes each horizon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OptimizerSpec {
    /// A full MOEA per tick, warm-started from the previous front.
    Engine(EngineStreamSpec),
    /// A non-evolutionary per-arrival placement rule (the Gupta et al.
    /// natural online rule via [`OnlinePolicy::GuptaGreedy`]).
    Policy(OnlinePolicy),
}

/// Parameters of the engine-backed streaming re-optimizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineStreamSpec {
    /// Engine family + population/generation budget. The hypervolume
    /// reference is overridden per tick from the working trace.
    pub engine: EngineConfig,
    /// Seed-chromosome configuration (cold-start populations and the
    /// heuristic component of warm-start pools).
    pub seed_kind: SeedKind,
    /// Master RNG seed (the framework's `rng_seed`).
    pub rng_seed: u64,
    /// Population stream index (the framework's per-seed stream).
    pub stream: u64,
    /// Warm-start each tick from the previous front (`false` re-seeds
    /// every horizon from scratch — the ablation/bench baseline).
    pub warm_start: bool,
}

/// A full streaming configuration: horizon mechanics + re-optimizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// Horizon length and stream-wide energy budget.
    pub horizon: HorizonConfig,
    /// The per-tick re-optimizer.
    pub optimizer: OptimizerSpec,
}

/// The per-tick MOEA re-optimizer. Implements [`Reoptimize`] by evolving
/// a population over the tick's working trace and returning the genome of
/// the committed-candidate point (knee or budget-constrained best
/// utility). Carries the final front's genomes to the next tick as
/// warm-start seeds, projected through the scheduler's carry map:
/// carried tasks keep machine and relative order, new arrivals take their
/// machines from a min-min repair and queue after all carried work.
pub struct EngineReoptimizer {
    spec: EngineStreamSpec,
    /// Final-front genomes of the previous tick, committed point first —
    /// expressed over the previous tick's working trace.
    front: Vec<Allocation>,
    last_front: Option<ParetoFront>,
    last_population: Vec<Individual<Allocation>>,
    journal: Option<RunJournal>,
}

impl EngineReoptimizer {
    /// A reoptimizer with no carried front yet (tick 0 seeds cold).
    pub fn new(spec: EngineStreamSpec) -> Self {
        EngineReoptimizer {
            spec,
            front: Vec::new(),
            last_front: None,
            last_population: Vec::new(),
            journal: None,
        }
    }

    /// Attaches a journal: every tick appends one record per generation,
    /// exactly as [`crate::Framework::run_with_journal`] does for the
    /// matching population.
    pub fn with_journal(mut self, journal: RunJournal) -> Self {
        self.journal = Some(journal);
        self
    }

    /// The nondominated front of the last tick's final population.
    pub fn last_front(&self) -> Option<&ParetoFront> {
        self.last_front.as_ref()
    }

    /// The last tick's final population (empty before the first tick).
    pub fn last_population(&self) -> &[Individual<Allocation>] {
        &self.last_population
    }

    /// The engine seed of tick `tick` — tick 0 matches the framework's
    /// population stream bit-for-bit.
    fn engine_seed(&self, tick: usize) -> u64 {
        let base = engine_seed(self.spec.rng_seed, self.spec.stream);
        if tick == 0 {
            base
        } else {
            base ^ TICK_MIX.wrapping_mul(tick as u64)
        }
    }

    /// Builds the seed pool for one tick.
    fn seeds(&self, ctx: &HorizonContext<'_>) -> Vec<Allocation> {
        if ctx.tick == 0 || !self.spec.warm_start || self.front.is_empty() {
            return self.spec.seed_kind.seeds(ctx.system, ctx.trace);
        }
        let repair = min_min_completion_time(ctx.system, ctx.trace);
        // The min-min cold seed is the repair allocation itself.
        let cold = match self.spec.seed_kind {
            SeedKind::MinMinCompletionTime => vec![repair.clone()],
            kind => kind.seeds(ctx.system, ctx.trace),
        };
        let mut pool: Vec<Allocation> = self
            .front
            .iter()
            .map(|g| project(g, &repair, ctx.carried))
            .collect();
        pool.push(repair);
        pool.push(max_utility(ctx.system, ctx.trace));
        pool.extend(cold);
        prepare_warm_seeds(pool, self.spec.engine.population())
    }
}

impl Reoptimize for EngineReoptimizer {
    fn reoptimize(&mut self, ctx: &HorizonContext<'_>) -> Allocation {
        let problem = AllocationProblem::new(ctx.system, ctx.trace);
        let engine = self
            .spec
            .engine
            .with_hv_reference(Some(hv_reference(ctx.system, ctx.trace)));
        let seeds = self.seeds(ctx);
        let engine_seed = self.engine_seed(ctx.tick);
        let mut null = NullObserver;
        let mut journal_obs;
        let observer: &mut dyn Observer<Allocation> = match &self.journal {
            Some(journal) => {
                journal_obs = JournalObserver::new(journal, self.spec.seed_kind, self.spec.stream);
                &mut journal_obs
            }
            None => &mut null,
        };
        let final_pop = engine.evolve(&problem, seeds, engine_seed, &[], &mut |_, _| {}, observer);
        let front = pareto_front(&final_pop);
        let selected = select_committed(&front, ctx.energy_budget);
        self.last_front = Some(ParetoFront::from_objectives(
            front.iter().map(|i| &i.objectives),
        ));
        self.front.clear();
        self.front.push(front[selected].genome.clone());
        for (i, ind) in front.iter().enumerate() {
            if i != selected {
                self.front.push(ind.genome.clone());
            }
        }
        let plan = front[selected].genome.clone();
        self.last_population = final_pop;
        plan
    }
}

/// Projects a previous-tick genome onto the current working trace:
/// carried tasks keep their machine and order key; new arrivals take the
/// repair allocation's machine and queue after every carried task in
/// arrival order.
fn project(prev: &Allocation, repair: &Allocation, carried: &[Option<u32>]) -> Allocation {
    let base = prev.order.iter().copied().max().map_or(0, |m| m + 1);
    let mut machine = Vec::with_capacity(carried.len());
    let mut order = Vec::with_capacity(carried.len());
    let mut fresh = 0u32;
    for (i, c) in carried.iter().enumerate() {
        match c {
            Some(j) => {
                machine.push(prev.machine[*j as usize]);
                order.push(prev.order[*j as usize]);
            }
            None => {
                machine.push(repair.machine[i]);
                order.push(base + fresh);
                fresh += 1;
            }
        }
    }
    Allocation { machine, order }
}

/// Picks the committed-candidate index within a nondominated set: under a
/// finite budget, the best-utility point whose energy fits (falling back
/// to the cheapest point when nothing fits); unconstrained, the knee
/// (falling back to max utility for degenerate fronts). Deterministic:
/// ties resolve to the earliest index.
fn select_committed(front: &[Individual<Allocation>], budget: f64) -> usize {
    debug_assert!(!front.is_empty(), "engines never return empty populations");
    let utility = |i: &Individual<Allocation>| -i.objectives[0];
    let energy = |i: &Individual<Allocation>| i.objectives[1];
    if budget.is_finite() {
        let mut best: Option<usize> = None;
        for (i, ind) in front.iter().enumerate() {
            if energy(ind) > budget {
                continue;
            }
            let better = match best {
                None => true,
                Some(b) => {
                    utility(ind) > utility(&front[b])
                        || (utility(ind) == utility(&front[b]) && energy(ind) < energy(&front[b]))
                }
            };
            if better {
                best = Some(i);
            }
        }
        if let Some(b) = best {
            return b;
        }
        // Nothing fits: commit the cheapest candidate and let the
        // scheduler's budget repair reject tasks until it does.
        return argbest(front, |a, b| energy(a) < energy(b));
    }
    let pf = ParetoFront::from_objectives(front.iter().map(|i| &i.objectives));
    if let Some((_, knee)) = knee_point(&pf) {
        if let Some(i) = front
            .iter()
            .position(|ind| utility(ind) == knee.utility && energy(ind) == knee.energy)
        {
            return i;
        }
    }
    argbest(front, |a, b| utility(a) > utility(b))
}

fn argbest(
    front: &[Individual<Allocation>],
    better: impl Fn(&Individual<Allocation>, &Individual<Allocation>) -> bool,
) -> usize {
    let mut best = 0;
    for i in 1..front.len() {
        if better(&front[i], &front[best]) {
            best = i;
        }
    }
    best
}

/// The closed sum of streaming re-optimizers a [`StreamRunner`] drives.
pub enum StreamReoptimizer {
    /// Warm-started MOEA (see [`EngineReoptimizer`]; boxed — it carries
    /// the warm-start pool and journal, dwarfing the policy variant).
    Engine(Box<EngineReoptimizer>),
    /// Per-arrival placement policy (see [`PolicyReoptimizer`]).
    Policy(PolicyReoptimizer),
}

impl Reoptimize for StreamReoptimizer {
    fn reoptimize(&mut self, ctx: &HorizonContext<'_>) -> Allocation {
        match self {
            StreamReoptimizer::Engine(e) => e.reoptimize(ctx),
            StreamReoptimizer::Policy(p) => p.reoptimize(ctx),
        }
    }
}

/// The first line of a stream manifest: identifies the schema and pins
/// the configuration, so a restarted daemon refuses to resume a stream
/// under different parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamHeader {
    /// Wire schema tag (`hetsched.stream-manifest.v1`).
    pub schema: String,
    /// Horizon length + energy budget.
    pub horizon: HorizonConfig,
    /// Re-optimizer fingerprint, e.g. `engine:nsga2` or `policy:gupta`.
    pub optimizer: String,
    /// Engine population (0 for policy streams).
    pub population: usize,
    /// Engine generation budget per tick (0 for policy streams).
    pub generations: usize,
    /// Seed-chromosome label (the policy label for policy streams).
    pub seed: String,
    /// Master RNG seed (0 for policy streams).
    pub rng_seed: u64,
    /// Population stream index (0 for policy streams).
    pub stream: u64,
    /// Whether ticks warm-start from the previous front.
    pub warm_start: bool,
}

/// Manifest schema tag.
pub const STREAM_MANIFEST_SCHEMA: &str = "hetsched.stream-manifest.v1";

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct FeedLine {
    kind: String,
    until: f64,
    tasks: Vec<Task>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct CommitLine {
    kind: String,
    record: HorizonRecord,
}

enum ManifestLine {
    Header(Box<StreamHeader>),
    Feed(FeedLine),
    Commit(CommitLine),
}

fn parse_line(line: &str) -> Option<ManifestLine> {
    if let Ok(h) = serde_json::from_str::<StreamHeader>(line) {
        return Some(ManifestLine::Header(Box::new(h)));
    }
    if let Ok(f) = serde_json::from_str::<FeedLine>(line) {
        if f.kind == "feed" {
            return Some(ManifestLine::Feed(f));
        }
    }
    serde_json::from_str::<CommitLine>(line)
        .ok()
        .filter(|c| c.kind == "commit")
        .map(ManifestLine::Commit)
}

/// Drives one stream end to end: feeds arrivals into a
/// [`HorizonScheduler`], ticks the configured re-optimizer, and — when a
/// manifest path is attached — persists every feed and commit as one
/// JSONL line so [`StreamRunner::resume`] replays an interrupted stream
/// to a byte-identical committed schedule (manifest replay re-runs the
/// deterministic ticks; a trailing line torn by a mid-write crash is cut
/// before the stream appends again).
pub struct StreamRunner {
    system: HcSystem,
    config: StreamConfig,
    scheduler: HorizonScheduler,
    reopt: StreamReoptimizer,
    manifest: Option<(jsonl::Sink, PathBuf)>,
    fed_until: f64,
}

impl StreamRunner {
    /// An in-memory stream (no manifest).
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] for an invalid horizon configuration.
    pub fn new(system: HcSystem, config: StreamConfig) -> Result<Self> {
        let scheduler = HorizonScheduler::new(config.horizon).map_err(sim_err)?;
        let reopt = match config.optimizer {
            OptimizerSpec::Engine(spec) => {
                StreamReoptimizer::Engine(Box::new(EngineReoptimizer::new(spec)))
            }
            OptimizerSpec::Policy(policy) => {
                StreamReoptimizer::Policy(PolicyReoptimizer::new(policy))
            }
        };
        Ok(StreamRunner {
            system,
            config,
            scheduler,
            reopt,
            manifest: None,
            fed_until: 0.0,
        })
    }

    /// A durable stream: creates `path` (with a header line) when absent,
    /// otherwise **resumes** — the manifest's feeds are re-fed and its
    /// commits re-ticked, which by determinism reproduces the interrupted
    /// stream's state bit-for-bit.
    ///
    /// # Errors
    ///
    /// [`Error::Manifest`] when the manifest's header disagrees with
    /// `config` or a replayed tick diverges from its recorded commit;
    /// [`Error::Io`] on filesystem failures.
    pub fn resume(system: HcSystem, config: StreamConfig, path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref();
        let io = |e: std::io::Error| Error::Io(format!("stream manifest {}: {e}", path.display()));
        let mut runner = StreamRunner::new(system, config)?;
        let expected = runner.header();
        let mut sink = jsonl::Sink::open(path, Writers::One, None).map_err(io)?;
        sink.header(&expected).map_err(io)?;
        let (lines, _) = jsonl::Reader::open(path)
            .map_err(ReadError::Io)
            .and_then(|reader| reader.records(Writers::One, parse_line))
            .map_err(|e| match e {
                ReadError::Io(e) => io(e),
                ReadError::Corrupt => Error::Manifest("unparseable stream manifest line".into()),
            })?;
        let mut lines = lines.into_iter();
        match lines.next() {
            Some(ManifestLine::Header(h)) if *h == expected => {}
            Some(ManifestLine::Header(_)) => {
                return Err(Error::Manifest(format!(
                    "stream manifest {} was written under a different configuration",
                    path.display()
                )))
            }
            _ => {
                return Err(Error::Manifest(
                    "stream manifest is missing its header".into(),
                ))
            }
        }
        for line in lines {
            match line {
                ManifestLine::Header(_) => {
                    return Err(Error::Manifest("unexpected second stream header".into()))
                }
                ManifestLine::Feed(f) => {
                    runner.scheduler.feed(f.tasks).map_err(sim_err)?;
                    runner.fed_until = runner.fed_until.max(f.until);
                }
                ManifestLine::Commit(c) => {
                    let record = runner.tick_in_memory()?;
                    if record != c.record {
                        return Err(Error::Manifest(
                            "replayed tick diverged from the recorded commit".into(),
                        ));
                    }
                }
            }
        }
        runner.manifest = Some((sink, path.to_path_buf()));
        Ok(runner)
    }

    /// Attaches a journal to an engine-backed stream (ignored for policy
    /// streams, which draw no random numbers and log no generations).
    pub fn with_journal(mut self, journal: RunJournal) -> Self {
        if let StreamReoptimizer::Engine(e) = self.reopt {
            self.reopt = StreamReoptimizer::Engine(Box::new(e.with_journal(journal)));
        }
        self
    }

    /// This stream's manifest header.
    pub fn header(&self) -> StreamHeader {
        let (optimizer, population, generations, seed, rng_seed, stream, warm_start) =
            match self.config.optimizer {
                OptimizerSpec::Engine(s) => (
                    format!("engine:{}", s.engine.algorithm().label()),
                    s.engine.population(),
                    s.engine.generations(),
                    s.seed_kind.label().to_string(),
                    s.rng_seed,
                    s.stream,
                    s.warm_start,
                ),
                OptimizerSpec::Policy(p) => (
                    format!("policy:{}", p.label()),
                    0,
                    0,
                    p.label().to_string(),
                    0,
                    0,
                    false,
                ),
            };
        StreamHeader {
            schema: STREAM_MANIFEST_SCHEMA.to_string(),
            horizon: self.config.horizon,
            optimizer,
            population,
            generations,
            seed,
            rng_seed,
            stream,
            warm_start,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// The system under load.
    pub fn system(&self) -> &HcSystem {
        &self.system
    }

    /// The underlying scheduler (timeline, records, frozen set, …).
    pub fn scheduler(&self) -> &HorizonScheduler {
        &self.scheduler
    }

    /// The exclusive end of the arrival window fed so far.
    pub fn fed_until(&self) -> f64 {
        self.fed_until
    }

    /// The last tick's Pareto front (engine streams only).
    pub fn last_front(&self) -> Option<&ParetoFront> {
        match &self.reopt {
            StreamReoptimizer::Engine(e) => e.last_front(),
            StreamReoptimizer::Policy(_) => None,
        }
    }

    /// The last tick's final population (engine streams only; empty
    /// before the first tick).
    pub fn last_population(&self) -> &[Individual<Allocation>] {
        match &self.reopt {
            StreamReoptimizer::Engine(e) => e.last_population(),
            StreamReoptimizer::Policy(_) => &[],
        }
    }

    /// Feeds arrivals covering the window up to `until` (exclusive) and
    /// records them in the manifest. Arrivals must be non-decreasing
    /// across calls (enforced by the scheduler).
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] for out-of-order arrivals; [`Error::Io`]
    /// on manifest failures (the in-memory feed has already happened —
    /// at-most-once durability, never double-commit).
    pub fn feed(&mut self, until: f64, tasks: Vec<Task>) -> Result<usize> {
        let line = self.manifest.is_some().then(|| FeedLine {
            kind: "feed".to_string(),
            until,
            tasks: tasks.clone(),
        });
        let n = self.scheduler.feed(tasks).map_err(sim_err)?;
        self.fed_until = self.fed_until.max(until);
        if let Some(line) = line {
            self.record(&line)?;
        }
        Ok(n)
    }

    /// Runs one horizon tick and records the commit in the manifest.
    ///
    /// # Errors
    ///
    /// Scheduler failures (frozen-task drift, invalid plans) surface as
    /// internal errors; manifest I/O as [`Error::Io`].
    pub fn tick(&mut self) -> Result<HorizonRecord> {
        let record = self.tick_in_memory()?;
        if self.manifest.is_some() {
            self.record(&CommitLine {
                kind: "commit".to_string(),
                record: record.clone(),
            })?;
        }
        Ok(record)
    }

    /// Appends one line to the attached manifest.
    fn record(&mut self, line: &impl Serialize) -> Result<()> {
        match &mut self.manifest {
            Some((sink, path)) => sink
                .append(line)
                .map_err(|e| Error::Io(format!("stream manifest {}: {e}", path.display()))),
            None => Ok(()),
        }
    }

    fn tick_in_memory(&mut self) -> Result<HorizonRecord> {
        self.scheduler
            .tick(&self.system, &mut self.reopt)
            .map_err(sim_err)
    }

    /// Drives the stream to wall time `until`: per horizon, pulls the
    /// next arrival window from `arrivals` (seeking it to this stream's
    /// fed frontier first, so a resumed stream never double-feeds) and
    /// ticks. Returns the records of the ticks run.
    ///
    /// # Errors
    ///
    /// Arrival generation, scheduler, and manifest failures.
    pub fn drive(
        &mut self,
        arrivals: &mut ArrivalStream,
        until: f64,
    ) -> Result<Vec<HorizonRecord>> {
        arrivals.seek(self.fed_until);
        let mut records = Vec::new();
        while self.scheduler.now() < until {
            let next = (self.scheduler.ticks() + 1) as f64 * self.config.horizon.horizon;
            if self.fed_until < next {
                let tasks = arrivals.until(next).map_err(Error::Workload)?;
                self.feed(next, tasks)?;
            }
            records.push(self.tick()?);
        }
        Ok(records)
    }
}

fn sim_err(e: SimError) -> Error {
    match e {
        SimError::InvalidHorizon(what) => Error::InvalidConfig(what),
        other => Error::Io(format!("stream scheduler: {other}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsched_data::real_system;
    use hetsched_moea::Algorithm;
    use hetsched_workload::{ArrivalSpec, TufPolicy};
    use std::fs::OpenOptions;

    fn small_engine() -> EngineConfig {
        EngineConfig::builder()
            .algorithm(Algorithm::Nsga2)
            .population(12)
            .mutation_rate(0.08)
            .generations(6)
            .parallel(false)
            .build()
            .unwrap()
    }

    fn spec(warm_start: bool) -> EngineStreamSpec {
        EngineStreamSpec {
            engine: small_engine(),
            seed_kind: SeedKind::MinMinCompletionTime,
            rng_seed: 42,
            stream: 0,
            warm_start,
        }
    }

    fn stream_config(horizon: f64, budget: f64, warm_start: bool) -> StreamConfig {
        StreamConfig {
            horizon: HorizonConfig {
                horizon,
                energy_budget: budget,
            },
            optimizer: OptimizerSpec::Engine(spec(warm_start)),
        }
    }

    fn arrivals() -> ArrivalStream {
        ArrivalStream::new(
            ArrivalSpec::poisson(1.5).unwrap(),
            7,
            real_system().task_type_count(),
            TufPolicy::essc_default(),
        )
    }

    #[test]
    fn engine_stream_commits_and_is_deterministic() {
        let run = || {
            let mut r =
                StreamRunner::new(real_system(), stream_config(20.0, f64::INFINITY, true)).unwrap();
            r.drive(&mut arrivals(), 60.0).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.len(), 3);
        assert_eq!(a, b, "streaming must be a pure function of its inputs");
        assert!(a.last().unwrap().tasks > 0);
    }

    #[test]
    fn warm_and_cold_streams_commit_valid_schedules() {
        for warm in [true, false] {
            let mut r =
                StreamRunner::new(real_system(), stream_config(25.0, f64::INFINITY, warm)).unwrap();
            let records = r.drive(&mut arrivals(), 50.0).unwrap();
            assert_eq!(records.len(), 2, "warm={warm}");
            assert!(r.last_front().is_some());
            for w in r.scheduler().timeline().windows(2) {
                assert!(w[0].task < w[1].task);
            }
        }
    }

    #[test]
    fn budgeted_stream_respects_budget_every_tick() {
        let mut free =
            StreamRunner::new(real_system(), stream_config(20.0, f64::INFINITY, true)).unwrap();
        free.drive(&mut arrivals(), 60.0).unwrap();
        let budget = free.scheduler().records().last().unwrap().energy * 0.6;
        let mut capped =
            StreamRunner::new(real_system(), stream_config(20.0, budget, true)).unwrap();
        let records = capped.drive(&mut arrivals(), 60.0).unwrap();
        for r in &records {
            assert!(r.energy <= budget, "tick {} over budget", r.tick);
        }
    }

    #[test]
    fn policy_stream_runs_without_rng() {
        let config = StreamConfig {
            horizon: HorizonConfig {
                horizon: 15.0,
                energy_budget: f64::INFINITY,
            },
            optimizer: OptimizerSpec::Policy(OnlinePolicy::GuptaGreedy),
        };
        let mut r = StreamRunner::new(real_system(), config).unwrap();
        let records = r.drive(&mut arrivals(), 45.0).unwrap();
        assert_eq!(records.len(), 3);
        assert!(r.last_front().is_none());
    }

    #[test]
    fn manifest_resume_replays_to_identical_state() {
        let dir = std::env::temp_dir().join(format!("hetsched-stream-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("resume.jsonl");
        let _ = std::fs::remove_file(&path);
        let config = stream_config(20.0, f64::INFINITY, true);

        // Uninterrupted reference.
        let mut whole = StreamRunner::new(real_system(), config).unwrap();
        whole.drive(&mut arrivals(), 80.0).unwrap();

        // Durable run killed after two of four ticks.
        {
            let mut first = StreamRunner::resume(real_system(), config, &path).unwrap();
            first.drive(&mut arrivals(), 40.0).unwrap();
        }
        let mut resumed = StreamRunner::resume(real_system(), config, &path).unwrap();
        assert_eq!(resumed.scheduler().ticks(), 2);
        resumed.drive(&mut arrivals(), 80.0).unwrap();

        assert_eq!(
            serde_json::to_string(whole.scheduler().timeline()).unwrap(),
            serde_json::to_string(resumed.scheduler().timeline()).unwrap(),
            "resume must re-commit a byte-identical schedule"
        );
        assert_eq!(whole.scheduler().records(), resumed.scheduler().records());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn manifest_rejects_mismatched_config() {
        let dir =
            std::env::temp_dir().join(format!("hetsched-stream-mismatch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream.jsonl");
        let _ = std::fs::remove_file(&path);
        let config = stream_config(20.0, f64::INFINITY, true);
        {
            let _ = StreamRunner::resume(real_system(), config, &path).unwrap();
        }
        let other = stream_config(30.0, f64::INFINITY, true);
        let err = match StreamRunner::resume(real_system(), other, &path) {
            Err(e) => e,
            Ok(_) => panic!("mismatched config must not resume"),
        };
        assert_eq!(err.class(), crate::ErrorClass::Internal);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_manifest_tail_is_discarded() {
        let dir = std::env::temp_dir().join(format!("hetsched-stream-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream.jsonl");
        let _ = std::fs::remove_file(&path);
        let config = stream_config(20.0, f64::INFINITY, true);
        {
            let mut r = StreamRunner::resume(real_system(), config, &path).unwrap();
            r.drive(&mut arrivals(), 20.0).unwrap();
        }
        // Simulate a crash mid-append.
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            write!(f, "{{\"kind\":\"commit\",\"rec").unwrap();
        }
        let resumed = StreamRunner::resume(real_system(), config, &path).unwrap();
        assert_eq!(resumed.scheduler().ticks(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_damaged_tail_is_repaired_before_the_stream_appends_again() {
        let dir =
            std::env::temp_dir().join(format!("hetsched-stream-repair-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let config = stream_config(20.0, f64::INFINITY, true);
        let mut whole = StreamRunner::new(real_system(), config).unwrap();
        whole.drive(&mut arrivals(), 40.0).unwrap();
        for torn in [true, false] {
            let path = dir.join(format!("stream-{torn}.jsonl"));
            let _ = std::fs::remove_file(&path);
            {
                let mut r = StreamRunner::resume(real_system(), config, &path).unwrap();
                r.drive(&mut arrivals(), 20.0).unwrap();
            }
            let text = std::fs::read_to_string(&path).unwrap();
            let damaged = if torn {
                // A commit cut off mid-line.
                format!("{text}{{\"kind\":\"commit\",\"rec")
            } else {
                // A commit whose newline never reached the file.
                text[..text.len() - 1].to_string()
            };
            std::fs::write(&path, damaged).unwrap();
            {
                let mut r = StreamRunner::resume(real_system(), config, &path).unwrap();
                assert_eq!(r.scheduler().ticks(), 1, "torn={torn}");
                r.drive(&mut arrivals(), 40.0).unwrap();
            }
            let resumed = StreamRunner::resume(real_system(), config, &path).unwrap();
            let _ = std::fs::remove_file(&path);
            assert_eq!(resumed.scheduler().ticks(), 2, "torn={torn}");
            assert_eq!(
                serde_json::to_string(whole.scheduler().timeline()).unwrap(),
                serde_json::to_string(resumed.scheduler().timeline()).unwrap(),
                "torn={torn}"
            );
            assert_eq!(whole.scheduler().records(), resumed.scheduler().records());
        }
    }

    #[test]
    fn select_committed_prefers_budget_fit_then_knee() {
        let ind = |u: f64, e: f64| Individual {
            genome: Allocation {
                machine: Vec::new(),
                order: Vec::new(),
            },
            objectives: [-u, e],
        };
        let front = vec![ind(1.0, 1.0), ind(2.0, 5.0), ind(3.0, 50.0)];
        // Budgeted: best utility that fits.
        assert_eq!(select_committed(&front, 6.0), 1);
        // Nothing fits: cheapest.
        assert_eq!(select_committed(&front, 0.5), 0);
        // Unconstrained: the knee (big utility gain, small energy step).
        assert_eq!(select_committed(&front, f64::INFINITY), 1);
    }
}
