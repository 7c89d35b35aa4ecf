//! The loop every in-process workload runs through: set-up, a warm-up
//! whose output becomes the reference, then timed iterations — untraced
//! for the end-to-end metrics, or untraced and then traced for the
//! per-layer ones (the difference between the two halves is the tracing
//! overhead).

use crate::spans::{root_union_ns, Layers, MemorySink};
use crate::stats::median;
use crate::{host, reference, Args, Outcome};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// One in-process workload.
pub trait Workload: Sized {
    /// Key of the workload's digest in the committed reference.
    const NAME: &'static str;

    /// Builds the inputs from the seed. Returns them together with the
    /// seconds spent in `Framework::new`.
    fn setup(seed: u64, scratch: &Path) -> Result<(Self, f64), String>;

    /// Runs one iteration. `traced` asks for the per-layer probes that
    /// only the traced half measures.
    fn iterate(&mut self, traced: bool) -> Iteration;

    /// Per-layer metrics from the traced iterations' pooled samples. The
    /// default reports each sample's mean under its own name.
    fn layer_metrics(pooled: &BTreeMap<&'static str, Vec<f64>>, out: &mut Outcome) {
        for (&name, values) in pooled {
            out.metrics
                .insert(name, values.iter().sum::<f64>() / values.len() as f64);
        }
    }
}

/// What one iteration did.
#[derive(Debug, Default)]
pub struct Iteration {
    /// Public calls made.
    pub ops: u64,
    /// End-to-end seconds of each of the iteration's timed phases, in the
    /// same order every iteration (one phase for most workloads).
    pub phases_s: Vec<f64>,
    /// Digest of the iteration's output; must equal the warm-up's.
    pub digest: String,
    /// Errors and failed checks.
    pub failures: Vec<String>,
    /// Per-layer samples (traced iterations).
    pub samples: Vec<(&'static str, f64)>,
}

/// Opens a root span named `name` around `f`: each public call the
/// benchmark times becomes the root its in-program spans nest under.
pub fn call<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let span = tracing::Span::root(tracing::Level::INFO, "perfbench", name);
    let _entered = span.enter();
    f()
}

/// Panics when a span sink is installed: end-to-end numbers are only
/// ever measured with tracing off.
pub fn assert_untraced() {
    assert!(
        !tracing::span_enabled(tracing::Level::ERROR),
        "an untraced measurement found a span sink installed"
    );
}

/// Maps folded span self time onto the engine and campaign layer metrics,
/// divided by `per` (iterations, or job round trips for serve-mix).
pub fn engine_layers(layers: &Layers, per: f64, out: &mut Outcome) {
    let per = per.max(1.0);
    let m = &mut out.metrics;
    m.insert("sim.batch.self_s", layers.self_s("batch") / per);
    m.insert("sim.batch.jobs", layers.batch_jobs as f64 / per);
    m.insert("moea.generation.self_s", layers.self_s("generation") / per);
    m.insert("moea.mating.self_s", layers.self_s("mating") / per);
    m.insert("moea.evaluation.self_s", layers.self_s("evaluation") / per);
    m.insert("moea.sorting.self_s", layers.self_s("sorting") / per);
    m.insert("moea.generations", layers.count("generation") as f64 / per);
    m.insert("core.campaign.self_s", layers.self_s("campaign") / per);
    m.insert("core.cell.self_s", layers.self_s("cell") / per);
    m.insert("core.attempt.self_s", layers.self_s("attempt") / per);
    m.insert(
        "core.worker.self_s",
        layers.self_s("call.Worker::run") / per,
    );
}

/// Shortest stretch one `setup_s` sample covers: a set-up of the smaller
/// workloads takes tens of microseconds, where a single timing is mostly
/// clock noise, so a sample is the mean of the set-ups in this stretch.
const SETUP_SAMPLE_S: f64 = 0.01;
/// Set-up sampling after each iteration, as a share of that iteration's
/// time. On a shared host the same set-up loop runs at speeds up to 1.8x
/// apart in phases of 50-100 ms, so the median needs many samples spread
/// over the run, not one per iteration (`paper-ds2` runs about five).
const SETUP_SHARE: f64 = 0.05;

/// Iterations measured over one time budget.
#[derive(Default)]
struct Measured {
    /// Seconds per phase: `phases[k]` holds phase `k` of every iteration.
    phases: Vec<Vec<f64>>,
    iterations: usize,
    setup_s: Vec<f64>,
    framework_new_s: Vec<f64>,
    ops: u64,
    /// Wall time of the iterations alone, set-up samples excluded.
    iterating_s: f64,
    layers: Layers,
    wall_ns: u64,
    unattributed_ns: u64,
    pooled: BTreeMap<&'static str, Vec<f64>>,
}

impl Measured {
    /// Seconds of a typical iteration: the sum of each phase's median.
    /// Phases differ in how they vary — campaign-io's lease race waits in
    /// 10 ms lock retries and 50 ms polls — so each is reduced on its
    /// own, and one phase's slow iterations do not pull in the others'.
    fn typical_s(&self) -> f64 {
        self.phases.iter().filter_map(|p| median(p)).sum()
    }
}

/// Runs workload `W` as `args` asks.
pub fn run<W: Workload>(args: &Args, scratch: &Path) -> Result<Outcome, String> {
    assert_untraced();
    let (mut workload, _) = W::setup(args.seed, scratch)?;
    let mut out = Outcome::default();
    let warm = workload.iterate(false);
    let mut failures = warm.failures;
    failures.extend(reference::check(W::NAME, args.seed, &warm.digest));
    out.tally.ops(warm.ops, &failures);
    out.iterations = 1;
    eprintln!("perf: {}: output digest {}", W::NAME, warm.digest);

    let mut run_half = |sink: Option<&MemorySink>, out: &mut Outcome| {
        measure(&mut workload, args, scratch, sink, &warm.digest, out)
    };
    let untraced = run_half(None, &mut out);
    let untraced_s = untraced.typical_s();
    if !args.trace {
        let m = &mut out.metrics;
        m.insert("setup_s", median(&untraced.setup_s).unwrap_or(0.0));
        m.insert("iter_ms_p50", untraced_s * 1e3);
        m.insert("ops_per_s", untraced.ops as f64 / untraced.iterating_s);
        m.insert("peak_rss_mb", host::peak_rss_mb(None).unwrap_or(0.0));
        out.samples.insert("setup_s", untraced.setup_s.len());
        out.samples.insert("iter_ms_p50", untraced.iterations);
        return Ok(out);
    }

    let sink = MemorySink::install()?;
    let traced = run_half(Some(&sink), &mut out);
    let n = traced.iterations as f64;
    engine_layers(&traced.layers, n, &mut out);
    out.metrics.insert(
        "core.framework.new_ms",
        median(&traced.framework_new_s).unwrap_or(0.0) * 1e3,
    );
    W::layer_metrics(&traced.pooled, &mut out);
    out.metrics.insert(
        "trace.unattributed_s",
        traced.unattributed_ns as f64 / 1e9 / n,
    );
    out.metrics.insert(
        "trace.unattributed_frac",
        traced.unattributed_ns as f64 / traced.wall_ns.max(1) as f64,
    );
    out.metrics
        .insert("trace.overhead_frac", traced.typical_s() / untraced_s - 1.0);
    out.samples.insert("trace.iterations", traced.iterations);
    out.samples
        .insert("trace.untraced_iterations", untraced.iterations);
    Ok(out)
}

/// Iterates until the next iteration would overrun the measured window
/// (at least once), checking every output against the warm-up's digest.
/// With a sink, each iteration's spans are drained and folded as it ends.
///
/// Each iteration is followed by set-up samples, so the samples are
/// spread over the run like the iterations: samples taken back to back
/// all meet the host in one state, and their median moved by 30% between
/// runs.
fn measure<W: Workload>(
    workload: &mut W,
    args: &Args,
    scratch: &Path,
    sink: Option<&MemorySink>,
    reference: &str,
    out: &mut Outcome,
) -> Measured {
    let budget_s = args.window_s();
    let traced = sink.is_some();
    let mut m = Measured::default();
    let mut walls = Vec::new();
    let started = Instant::now();
    loop {
        let iteration_started = Instant::now();
        let it = workload.iterate(traced);
        let iteration_s = iteration_started.elapsed().as_secs_f64();
        m.iterating_s += iteration_s;
        let setup = call("call.setup", || {
            setup_samples::<W>(args.seed, scratch, SETUP_SHARE * iteration_s, &mut m)
        });
        let wall = iteration_started.elapsed();
        let mut failures = it.failures;
        if let Err(e) = setup {
            failures.push(format!("set-up: {e}"));
        }
        if it.digest != reference {
            failures.push(format!(
                "{} iteration output digest {} differs from the untraced warm-up's {reference}",
                if traced { "traced" } else { "untraced" },
                it.digest
            ));
        }
        out.tally.ops(it.ops, &failures);
        out.iterations += 1;
        m.iterations += 1;
        m.phases
            .resize(m.phases.len().max(it.phases_s.len()), Vec::new());
        for (samples, s) in m.phases.iter_mut().zip(it.phases_s) {
            samples.push(s);
        }
        m.ops += it.ops;
        walls.push(wall.as_secs_f64());
        if let Some(sink) = sink {
            let rows = sink.drain();
            let wall_ns = wall.as_nanos() as u64;
            m.layers.add(&Layers::fold(&rows));
            m.wall_ns += wall_ns;
            m.unattributed_ns += wall_ns.saturating_sub(root_union_ns(&rows));
            for (name, value) in it.samples {
                m.pooled.entry(name).or_default().push(value);
            }
        }
        let typical = median(&walls).unwrap_or(0.0);
        if started.elapsed().as_secs_f64() + typical > budget_s {
            break;
        }
    }
    m
}

/// Takes set-up samples for at least `total_s` (at least one): each is
/// the mean seconds per `W::setup` over [`SETUP_SAMPLE_S`], pushed with
/// the mean seconds spent in `Framework::new`.
fn setup_samples<W: Workload>(
    seed: u64,
    scratch: &Path,
    total_s: f64,
    m: &mut Measured,
) -> Result<(), String> {
    let started = Instant::now();
    loop {
        let sample = Instant::now();
        let (mut reps, mut framework_new_s) = (0u32, 0.0);
        while reps == 0 || sample.elapsed().as_secs_f64() < SETUP_SAMPLE_S {
            framework_new_s += W::setup(seed, scratch)?.1;
            reps += 1;
        }
        let reps = f64::from(reps);
        m.setup_s.push(sample.elapsed().as_secs_f64() / reps);
        m.framework_new_s.push(framework_new_s / reps);
        if started.elapsed().as_secs_f64() >= total_s {
            return Ok(());
        }
    }
}
