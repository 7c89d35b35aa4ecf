//! Deterministic fault injection for the hetsched executor stack.
//!
//! A process-global registry of named **fault points** — call sites like
//! `"campaign.cell.run"` or `"manifest.append"` threaded through the
//! campaign, IO, streaming and evaluator layers (all ten are listed in
//! [`POINTS`]) — driven by a [`FaultPlan`]: an ordered list of
//! [`FaultSpec`]s saying *at the Nth hit of point P (optionally filtered
//! to a scope substring), inject fault K*. Because hits are counted
//! deterministically and the only randomness is a seeded [`splitmix64`]
//! stream (delay jitter), a plan replays the same failure scenario
//! bit-for-bit on every run — the property the chaos test suite leans on
//! to assert that campaigns recover to byte-identical reports.
//!
//! Four fault kinds ([`FaultKind`]):
//!
//! * `panic` — unwind at the fault point (exercises `catch_unwind`
//!   isolation and poisoned-mutex recovery);
//! * `io` — return an injected [`io::Error`] from an IO-shaped point
//!   ([`raise_io`]); at a non-IO point it escalates to a panic, which
//!   fails loud instead of being silently dropped;
//! * `delay:<ms>[~<jitter-ms>]` — sleep (exercises watchdogs; jitter is
//!   drawn from the plan seed, never from thread-local randomness;
//!   `<ms> + <jitter-ms>` must be below `u64::MAX`);
//! * `abort` — kill the process without unwinding (exercises
//!   checkpoint/resume).
//!
//! Every build carries the fault points. With no plan armed, a hit is one
//! inlined relaxed atomic load; everything else sits out of line.
//!
//! ```
//! use hetsched_sim::chaos;
//! let plan = chaos::FaultPlan::parse("manifest.append@2=io").unwrap();
//! let _guard = chaos::armed(plan); // disarms on drop
//! assert!(chaos::raise_io("manifest.append", &"cell-0").is_ok()); // hit 1
//! assert!(chaos::raise_io("manifest.append", &"cell-1").is_err()); // hit 2: injected
//! ```

use std::fmt;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Every fault point compiled into hetsched: the simulator's three, then
/// the campaign, log, telemetry and lease layers' seven. [`FaultPlan::parse`]
/// accepts any name; a caller arming a user's plan checks it against this
/// list so that a misspelt point is an error instead of a silent no-op.
pub const POINTS: [&str; 10] = [
    "evaluator.evaluate",
    "arrivals.feed",
    "scheduler.horizon.commit",
    "campaign.cell.run",
    "manifest.append",
    "journal.write",
    "heartbeat.tick",
    "lease.acquire",
    "lease.renew",
    "worker.cell.append",
];

/// What happens when a fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Unwind with a panic at the fault point.
    Panic,
    /// Return an injected [`io::Error`] (from [`raise_io`] points; a
    /// [`raise`] point escalates it to a panic).
    Io,
    /// Sleep for `millis` plus a seeded jitter draw in `0..=jitter_millis`.
    Delay {
        /// Base sleep duration in milliseconds.
        millis: u64,
        /// Upper bound of the seeded jitter added on top (0 = none).
        jitter_millis: u64,
    },
    /// Kill the process without unwinding (`std::process::abort`).
    Abort,
}

impl FaultKind {
    fn parse(text: &str) -> Result<Self, String> {
        match text {
            "panic" => return Ok(FaultKind::Panic),
            "io" => return Ok(FaultKind::Io),
            "abort" => return Ok(FaultKind::Abort),
            _ => {}
        }
        let millis = text
            .strip_prefix("delay:")
            .ok_or_else(|| format!("unknown fault kind `{text}` (panic|io|abort|delay:<ms>)"))?;
        let (base, jitter) = match millis.split_once('~') {
            Some((b, j)) => (b, j),
            None => (millis, "0"),
        };
        let millis: u64 = base
            .trim()
            .parse()
            .map_err(|_| format!("bad delay milliseconds in `{text}`"))?;
        let jitter_millis: u64 = jitter
            .trim()
            .parse()
            .map_err(|_| format!("bad delay jitter in `{text}`"))?;
        // The jitter draw is taken modulo `jitter + 1` and added to `millis`.
        if millis
            .checked_add(jitter_millis)
            .and_then(|sum| sum.checked_add(1))
            .is_none()
        {
            return Err(format!(
                "delay too long in `{text}`: <ms> + <jitter-ms> must be below {}",
                u64::MAX
            ));
        }
        Ok(FaultKind::Delay {
            millis,
            jitter_millis,
        })
    }
}

/// The sleep of a `delay` fault: `millis` plus a seeded draw in
/// `0..=jitter_millis`. Saturating, because a [`FaultKind`] built through
/// the API skips the parser's range check.
fn delay_millis(millis: u64, jitter_millis: u64, jitter_seed: u64) -> u64 {
    millis.saturating_add(jitter_seed % jitter_millis.saturating_add(1))
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Panic => write!(f, "panic"),
            FaultKind::Io => write!(f, "io"),
            FaultKind::Abort => write!(f, "abort"),
            FaultKind::Delay {
                millis,
                jitter_millis: 0,
            } => write!(f, "delay:{millis}"),
            FaultKind::Delay {
                millis,
                jitter_millis,
            } => write!(f, "delay:{millis}~{jitter_millis}"),
        }
    }
}

/// One fault rule: at hits `nth .. nth + count` of `point` (counting only
/// hits whose scope contains `scope`, when set), inject `kind`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// The fault point name, e.g. `"campaign.cell.run"`.
    pub point: String,
    /// Substring filter on the hit's scope label (a cell id, a path, …);
    /// `None` matches every hit of the point.
    pub scope: Option<String>,
    /// 1-based hit index at which the fault starts firing.
    pub nth: u64,
    /// How many consecutive matching hits fire (≥ 1).
    pub count: u64,
    /// The injected fault.
    pub kind: FaultKind,
}

impl FaultSpec {
    /// A spec firing `kind` exactly at the `nth` matching hit of `point`.
    pub fn new(point: impl Into<String>, nth: u64, kind: FaultKind) -> Self {
        FaultSpec {
            point: point.into(),
            scope: None,
            nth: nth.max(1),
            count: 1,
            kind,
        }
    }

    /// Restricts the spec to hits whose scope contains `scope`.
    #[must_use]
    pub fn scoped(mut self, scope: impl Into<String>) -> Self {
        self.scope = Some(scope.into());
        self
    }

    /// Fires for `count` consecutive matching hits instead of one.
    #[must_use]
    pub fn times(mut self, count: u64) -> Self {
        self.count = count.max(1);
        self
    }

    /// Parses `point[scope]@nth[xcount]=kind`.
    fn parse(entry: &str) -> Result<Self, String> {
        let (site, kind) = entry
            .split_once('=')
            .ok_or_else(|| format!("`{entry}` needs `=<kind>`"))?;
        let kind = FaultKind::parse(kind.trim())?;
        let (target, occurrence) = site
            .trim()
            .rsplit_once('@')
            .ok_or_else(|| format!("`{entry}` needs `@<nth>`"))?;
        let (nth, count) = match occurrence.split_once('x') {
            Some((n, c)) => (n, c),
            None => (occurrence, "1"),
        };
        let nth: u64 = nth
            .trim()
            .parse()
            .map_err(|_| format!("bad hit index in `{entry}`"))?;
        let count: u64 = count
            .trim()
            .parse()
            .map_err(|_| format!("bad hit count in `{entry}`"))?;
        if nth == 0 || count == 0 {
            return Err(format!("hit index and count must be >= 1 in `{entry}`"));
        }
        let (point, scope) = match target.split_once('[') {
            Some((p, rest)) => {
                let scope = rest
                    .strip_suffix(']')
                    .ok_or_else(|| format!("unclosed `[` in `{entry}`"))?;
                (p.trim(), Some(scope.to_string()))
            }
            None => (target.trim(), None),
        };
        if point.is_empty() {
            return Err(format!("empty fault point in `{entry}`"));
        }
        Ok(FaultSpec {
            point: point.to_string(),
            scope,
            nth,
            count,
            kind,
        })
    }
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.point)?;
        if let Some(scope) = &self.scope {
            write!(f, "[{scope}]")?;
        }
        write!(f, "@{}", self.nth)?;
        if self.count != 1 {
            write!(f, "x{}", self.count)?;
        }
        write!(f, "={}", self.kind)
    }
}

/// A seeded, replayable failure scenario: an ordered list of
/// [`FaultSpec`]s plus the seed driving delay jitter. When several specs
/// match the same hit, the first in plan order fires (every matching
/// spec's hit counter still advances, so the decision is order-stable).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed for the jitter stream — independent of every engine RNG.
    pub seed: u64,
    /// The fault rules, in priority order.
    pub faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan with the given jitter seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            faults: Vec::new(),
        }
    }

    /// Appends one fault rule.
    #[must_use]
    pub fn with_fault(mut self, spec: FaultSpec) -> Self {
        self.faults.push(spec);
        self
    }

    /// Parses the `--chaos-plan` string syntax: `;`-separated entries,
    /// each `point[scope]@nth[xcount]=kind` with
    /// `kind ∈ panic | io | abort | delay:<ms>[~<jitter-ms>]`, plus an
    /// optional `seed=<u64>` entry. Example:
    ///
    /// `campaign.cell.run@2=panic; manifest.append@3=io; seed=7`
    ///
    /// # Errors
    ///
    /// A human-readable message describing the malformed entry, or a plan
    /// with no fault entries at all.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::default();
        for raw in text.split(';') {
            let entry = raw.trim();
            if entry.is_empty() {
                continue;
            }
            if let Some(seed) = entry.strip_prefix("seed=") {
                plan.seed = seed
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad seed in `{entry}`"))?;
                continue;
            }
            plan.faults.push(FaultSpec::parse(entry)?);
        }
        if plan.faults.is_empty() {
            return Err("fault plan has no fault entries".to_string());
        }
        Ok(plan)
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.seed != 0 {
            write!(f, "seed={}", self.seed)?;
            if !self.faults.is_empty() {
                write!(f, "; ")?;
            }
        }
        for (i, spec) in self.faults.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{spec}")?;
        }
        Ok(())
    }
}

/// splitmix64 — the deterministic stream behind delay jitter and the
/// campaign's retry-backoff jitter, both kept off the engine RNGs.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct ActivePlan {
    plan: FaultPlan,
    hits: Vec<u64>,
    injected: Vec<u64>,
}

static ARMED: AtomicBool = AtomicBool::new(false);
static INJECTED_TOTAL: AtomicU64 = AtomicU64::new(0);
static PLAN: Mutex<Option<ActivePlan>> = Mutex::new(None);

/// The registry mutex is accessed from fault points that may themselves
/// panic while a test observes the aftermath; recover instead of
/// cascading the poison.
fn registry() -> MutexGuard<'static, Option<ActivePlan>> {
    PLAN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Arms `plan` process-wide, replacing any armed plan (hit counters reset).
pub fn arm(plan: FaultPlan) {
    tracing::info!("chaos: arming fault plan `{plan}`");
    let n = plan.faults.len();
    *registry() = Some(ActivePlan {
        hits: vec![0; n],
        injected: vec![0; n],
        plan,
    });
    ARMED.store(true, Ordering::SeqCst);
}

/// Disarms the registry, returning the per-spec injected-fault tally of
/// the plan that was armed (empty when none was).
pub fn disarm() -> Vec<(String, u64)> {
    ARMED.store(false, Ordering::SeqCst);
    match registry().take() {
        None => Vec::new(),
        Some(active) => active
            .plan
            .faults
            .iter()
            .zip(&active.injected)
            .map(|(spec, &injected)| (spec.to_string(), injected))
            .collect(),
    }
}

/// Whether a plan is currently armed.
pub fn is_armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Process-cumulative count of injected faults (monotone across
/// arm/disarm cycles — the telemetry layer snapshots this, so every
/// injected fault is accounted for even after the plan is gone).
pub fn injected_total() -> u64 {
    INJECTED_TOTAL.load(Ordering::Relaxed)
}

/// Per-spec injected-fault tally of the currently armed plan.
pub fn tally() -> Vec<(String, u64)> {
    registry()
        .as_ref()
        .map(|active| {
            active
                .plan
                .faults
                .iter()
                .zip(&active.injected)
                .map(|(spec, &injected)| (spec.to_string(), injected))
                .collect()
        })
        .unwrap_or_default()
}

/// RAII arming for tests: [`arm`]s on construction, [`disarm`]s on drop
/// (including on panic, so a failed assertion can't leak faults into the
/// next test).
pub struct ArmedGuard {
    _private: (),
}

/// Arms `plan` and returns a guard that disarms when dropped.
pub fn armed(plan: FaultPlan) -> ArmedGuard {
    arm(plan);
    ArmedGuard { _private: () }
}

impl Drop for ArmedGuard {
    fn drop(&mut self) {
        let _ = disarm();
    }
}

/// The fault (if any) to inject for this hit, decided and recorded under
/// the registry lock; the fault itself executes after the lock is gone.
fn decide(point: &str, scope: &str) -> Option<(FaultKind, u64, u64)> {
    let mut guard = registry();
    let active = guard.as_mut()?;
    let ActivePlan {
        plan,
        hits,
        injected,
    } = active;
    let mut fired = None;
    for (i, spec) in plan.faults.iter().enumerate() {
        if spec.point != point {
            continue;
        }
        if let Some(filter) = &spec.scope {
            if !scope.contains(filter.as_str()) {
                continue;
            }
        }
        hits[i] += 1;
        let hit = hits[i];
        if fired.is_none() && hit >= spec.nth && hit - spec.nth < spec.count {
            injected[i] += 1;
            INJECTED_TOTAL.fetch_add(1, Ordering::Relaxed);
            let jitter_seed = splitmix64(plan.seed ^ (i as u64) ^ hit.wrapping_mul(0x9E37));
            fired = Some((spec.kind, hit, jitter_seed));
        }
    }
    fired
}

fn perform(
    kind: FaultKind,
    point: &str,
    scope: &str,
    hit: u64,
    jitter_seed: u64,
) -> io::Result<()> {
    match kind {
        FaultKind::Panic => {
            tracing::warn!("chaos: injecting panic at {point} ({scope}), hit {hit}");
            panic!("chaos: injected panic at {point} ({scope}), hit {hit}");
        }
        FaultKind::Io => {
            tracing::warn!("chaos: injecting io error at {point} ({scope}), hit {hit}");
            Err(io::Error::other(format!(
                "chaos: injected io error at {point} ({scope}), hit {hit}"
            )))
        }
        FaultKind::Delay {
            millis,
            jitter_millis,
        } => {
            let total = delay_millis(millis, jitter_millis, jitter_seed);
            tracing::warn!("chaos: injecting {total}ms delay at {point} ({scope}), hit {hit}");
            std::thread::sleep(Duration::from_millis(total));
            Ok(())
        }
        FaultKind::Abort => {
            eprintln!("chaos: injected abort at {point} ({scope}), hit {hit}");
            std::process::abort();
        }
    }
}

/// A plain fault point: panics, sleeps, or aborts per the armed plan.
/// `scope` labels the hit for scope filters (a cell id, a path, …) and is
/// only formatted when a plan is armed. An injected `io` fault at a plain
/// point escalates to a panic — failing loud beats vanishing.
#[inline]
pub fn raise(point: &str, scope: &dyn fmt::Display) {
    if ARMED.load(Ordering::Relaxed) {
        raise_armed(point, scope);
    }
}

#[cold]
#[inline(never)]
fn raise_armed(point: &str, scope: &dyn fmt::Display) {
    if let Err(e) = raise_io_armed(point, scope) {
        panic!("chaos: io fault at non-io fault point {point}: {e}");
    }
}

/// An IO-shaped fault point: like [`raise`], but an injected `io` fault
/// comes back as `Err` for the caller's normal error path to handle.
///
/// # Errors
///
/// The injected [`io::Error`] when an `io` fault fires at this hit.
#[inline]
pub fn raise_io(point: &str, scope: &dyn fmt::Display) -> io::Result<()> {
    if ARMED.load(Ordering::Relaxed) {
        return raise_io_armed(point, scope);
    }
    Ok(())
}

/// The armed path of both kinds of fault point, kept out of line so a
/// disarmed hit inlines to one relaxed load and a branch.
#[cold]
#[inline(never)]
fn raise_io_armed(point: &str, scope: &dyn fmt::Display) -> io::Result<()> {
    let scope = scope.to_string();
    match decide(point, &scope) {
        None => Ok(()),
        Some((kind, hit, jitter_seed)) => perform(kind, point, &scope, hit, jitter_seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::Instant;

    /// The registry is process-global; tests serialise on this. They arm
    /// only made-up point names, because the evaluator and horizon tests
    /// in this binary hit the real ones concurrently.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn plan_parse_round_trips_through_display() {
        for text in [
            "campaign.cell.run@2=panic",
            "manifest.append[One/nsga2]@3x4=io",
            "seed=42; evaluator.evaluate@100=delay:50~20; journal.write@1=abort",
        ] {
            let plan = FaultPlan::parse(text).unwrap();
            let rendered = plan.to_string();
            assert_eq!(FaultPlan::parse(&rendered).unwrap(), plan, "{text}");
        }
    }

    #[test]
    fn parse_rejects_malformed_entries() {
        for bad in [
            "",
            "no-equals",
            "point@=panic",
            "point@0=panic",
            "point@1x0=io",
            "point@1=explode",
            "point@1=delay:fast",
            "point[open@1=panic",
            "@1=panic",
            "seed=abc; point@1=panic",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn parse_rejects_delays_whose_jitter_span_overflows() {
        for bad in [
            "p@1=delay:1~18446744073709551615",
            "p@1=delay:0~18446744073709551615",
            "p@1=delay:18446744073709551615~1",
            "p@1=delay:18446744073709551615",
            "p@1=delay:18446744073709551614~1",
        ] {
            let err = FaultPlan::parse(bad).unwrap_err();
            assert!(err.contains("delay too long"), "`{bad}`: {err}");
        }
        // A jitter span that ends exactly at `u64::MAX` still fits.
        let plan = FaultPlan::parse("p@1=delay:18446744073709551613~1").unwrap();
        assert_eq!(
            plan.faults[0].kind,
            FaultKind::Delay {
                millis: u64::MAX - 2,
                jitter_millis: 1
            }
        );
    }

    #[test]
    fn delay_arithmetic_saturates_for_kinds_built_through_the_api() {
        assert_eq!(delay_millis(30, 0, 12345), 30);
        assert!((5..=8).contains(&delay_millis(5, 3, 0xDEAD_BEEF)));
        assert_eq!(delay_millis(u64::MAX, u64::MAX, 7), u64::MAX);
        assert_eq!(delay_millis(0, u64::MAX, 7), 7);
        assert_eq!(delay_millis(u64::MAX - 1, 1, 1), u64::MAX);
    }

    #[test]
    fn nth_and_count_select_exact_hits() {
        let _serial = serial();
        let before = injected_total();
        let guard = armed(FaultPlan::parse("p@2x2=io").unwrap());
        let outcomes: Vec<bool> = (0..5).map(|_| raise_io("p", &"s").is_err()).collect();
        assert_eq!(outcomes, vec![false, true, true, false, false]);
        assert_eq!(tally(), vec![("p@2x2=io".to_string(), 2)]);
        drop(guard);
        assert_eq!(injected_total() - before, 2);
        assert!(!is_armed());
    }

    #[test]
    fn scope_filter_counts_only_matching_hits() {
        let _serial = serial();
        let _guard = armed(FaultPlan::parse("p[cell-b]@1=io").unwrap());
        assert!(raise_io("p", &"cell-a").is_ok(), "scope mismatch");
        assert!(raise_io("q", &"cell-b").is_ok(), "point mismatch");
        assert!(raise_io("p", &"the-cell-b-label").is_err(), "substring hit");
    }

    #[test]
    fn first_matching_spec_in_plan_order_wins() {
        let _serial = serial();
        let plan = FaultPlan::new(0)
            .with_fault(FaultSpec::new("p", 1, FaultKind::Io))
            .with_fault(FaultSpec::new("p", 1, FaultKind::Panic));
        let _guard = armed(plan);
        // Were the panic spec to win, this would unwind instead.
        assert!(raise_io("p", &"s").is_err());
        assert_eq!(tally()[0].1, 1);
        assert_eq!(tally()[1].1, 0, "loser spec still counted the hit");
    }

    #[test]
    fn panic_kind_unwinds_with_point_in_message() {
        let _serial = serial();
        let _guard = armed(FaultPlan::parse("boom.site@1=panic").unwrap());
        let err = catch_unwind(AssertUnwindSafe(|| raise("boom.site", &"scope"))).unwrap_err();
        let message = err.downcast_ref::<String>().expect("string payload");
        assert!(message.contains("boom.site"), "{message}");
        // The registry mutex was not held across the panic: it still works.
        assert!(raise_io("boom.site", &"scope").is_ok());
    }

    #[test]
    fn delay_kind_sleeps_deterministically() {
        let _serial = serial();
        let _guard = armed(FaultPlan::parse("slow@1=delay:30").unwrap());
        let t = Instant::now();
        raise("slow", &"s");
        assert!(t.elapsed() >= Duration::from_millis(30));
        // Hit 2 is past the window: no sleep.
        let t = Instant::now();
        raise("slow", &"s");
        assert!(t.elapsed() < Duration::from_millis(20));
    }

    #[test]
    fn disarmed_points_are_noops() {
        let _serial = serial();
        let _ = disarm();
        raise("anything", &"s");
        assert!(raise_io("anything", &"s").is_ok());
    }

    #[test]
    fn splitmix_is_stable() {
        assert_eq!(splitmix64(0), splitmix64(0));
        assert_ne!(splitmix64(1), splitmix64(2));
    }
}
