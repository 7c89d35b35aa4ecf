//! Engine observability: per-generation metrics delivered through an
//! [`Observer`] hook on every engine's loop.
//!
//! The engine computes a [`GenerationStats`] record after every generation
//! — front sizes per rank, the ideal corner, hypervolume against a fixed
//! reference point, crowding spread, evaluation counts, and wall-clock per
//! phase — but **only when an observer asks for it**: the default
//! [`NullObserver`] reports `enabled() == false` and the loop then skips
//! both the metric computation and the `Instant` reads, so uninstrumented
//! runs pay nothing beyond one branch per generation.

use crate::dominance::Objectives;
use crate::nsga2::Individual;
use crate::sort::{crowding_distance, fast_nondominated_sort};
use serde::{Deserialize, Serialize};

/// Wall-clock seconds spent in each phase of one generation.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PhaseTimings {
    /// Parent selection, crossover, and mutation.
    pub mating_s: f64,
    /// Offspring fitness evaluation (the hot path).
    pub evaluation_s: f64,
    /// Nondominated sorting and survival truncation.
    pub sorting_s: f64,
}

/// Closes one timed phase segment: adds the elapsed time since `mark` to
/// `acc` and returns a fresh mark for the next segment. `None`
/// (observation disabled) stays `None`, keeping hot loops free of clock
/// reads.
#[inline]
pub(crate) fn lap(acc: &mut f64, mark: Option<std::time::Instant>) -> Option<std::time::Instant> {
    mark.map(|m| {
        *acc += m.elapsed().as_secs_f64();
        std::time::Instant::now()
    })
}

/// One generation's metrics record — the unit the run journal serialises.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GenerationStats {
    /// Generation number (1-based; generation 0 is the initial population).
    pub generation: usize,
    /// Population count per nondomination rank (index 0 = Pareto front).
    pub front_sizes: Vec<usize>,
    /// Per-objective minima of the population (the ideal corner).
    pub ideal: [f64; 2],
    /// Staircase hypervolume of the rank-1 front against the configured
    /// reference point; `None` when no reference point is set.
    pub hypervolume: Option<f64>,
    /// Sample standard deviation of the finite crowding distances on the
    /// rank-1 front — 0 means perfectly uniform spacing.
    pub crowding_spread: f64,
    /// Fitness evaluations performed this generation.
    pub evaluations: usize,
    /// Wall-clock breakdown of the generation.
    pub timings: PhaseTimings,
}

impl GenerationStats {
    /// Computes the record for a post-survival population. Runs one extra
    /// nondominated sort of the N survivors; only called when observing.
    pub fn compute<G>(
        generation: usize,
        population: &[Individual<G>],
        evaluations: usize,
        timings: PhaseTimings,
        hv_reference: Option<[f64; 2]>,
    ) -> Self {
        let points: Vec<Objectives> = population.iter().map(|i| i.objectives).collect();
        let fronts = fast_nondominated_sort(&points);
        let front_sizes: Vec<usize> = fronts.iter().map(Vec::len).collect();
        let mut ideal = [f64::INFINITY; 2];
        for p in &points {
            ideal[0] = ideal[0].min(p[0]);
            ideal[1] = ideal[1].min(p[1]);
        }
        let first = fronts.first().map(Vec::as_slice).unwrap_or(&[]);
        let hypervolume = hv_reference.map(|r| hypervolume_2d(first.iter().map(|&p| points[p]), r));
        let crowding_spread = spread(&crowding_distance(first, &points));
        GenerationStats {
            generation,
            front_sizes,
            ideal,
            hypervolume,
            crowding_spread,
            evaluations,
            timings,
        }
    }
}

/// Receives one [`GenerationStats`] per generation from a running engine.
pub trait Observer<G> {
    /// Whether the engine should compute metrics at all. Defaults to
    /// `true`; return `false` to make observation free.
    fn enabled(&self) -> bool {
        true
    }

    /// Called after survival selection, once per generation.
    fn on_generation(&mut self, stats: &GenerationStats, population: &[Individual<G>]);
}

/// The do-nothing observer: `enabled()` is `false`, so an engine run with
/// it skips all metric computation.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl<G> Observer<G> for NullObserver {
    fn enabled(&self) -> bool {
        false
    }

    fn on_generation(&mut self, _stats: &GenerationStats, _population: &[Individual<G>]) {}
}

/// An observer that accumulates every record in memory — the simple sink
/// for tests and post-hoc analysis.
#[derive(Debug, Clone, Default)]
pub struct StatsLog {
    /// The collected records, one per generation, in order.
    pub records: Vec<GenerationStats>,
}

impl<G> Observer<G> for StatsLog {
    fn on_generation(&mut self, stats: &GenerationStats, _population: &[Individual<G>]) {
        self.records.push(stats.clone());
    }
}

/// Exact 2-D hypervolume (minimisation) of a mutually nondominated point
/// set against `reference`: the area dominated by the set and bounded by
/// the reference corner. Points not strictly below the reference in both
/// objectives contribute nothing.
pub fn hypervolume_2d(points: impl IntoIterator<Item = Objectives>, reference: [f64; 2]) -> f64 {
    let mut inside: Vec<Objectives> = points
        .into_iter()
        .filter(|p| p[0] < reference[0] && p[1] < reference[1])
        .collect();
    // Descending f0: each point adds the slab between its f0 and the
    // previous (larger) f0, at its own f1 height.
    inside.sort_unstable_by(|a, b| b[0].total_cmp(&a[0]));
    let mut hv = 0.0;
    let mut prev_f0 = reference[0];
    for p in inside {
        hv += (prev_f0 - p[0]).max(0.0) * (reference[1] - p[1]);
        prev_f0 = prev_f0.min(p[0]);
    }
    hv
}

/// Sample standard deviation of the finite entries (boundary points carry
/// infinite crowding distance and are excluded).
fn spread(distances: &[f64]) -> f64 {
    let finite: Vec<f64> = distances
        .iter()
        .copied()
        .filter(|d| d.is_finite())
        .collect();
    if finite.len() < 2 {
        return 0.0;
    }
    let mean = finite.iter().sum::<f64>() / finite.len() as f64;
    let var =
        finite.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / (finite.len() - 1) as f64;
    var.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hypervolume_of_single_point() {
        let hv = hypervolume_2d([[1.0, 1.0]], [3.0, 3.0]);
        assert!((hv - 4.0).abs() < 1e-12, "hv = {hv}");
    }

    #[test]
    fn hypervolume_staircase_of_two_points() {
        // a = (1, 2), b = (2, 1), ref (3, 3):
        // slab of b: (3-2)·(3-1) = 2; slab of a: (2-1)·(3-2) = 1.
        let hv = hypervolume_2d([[1.0, 2.0], [2.0, 1.0]], [3.0, 3.0]);
        assert!((hv - 3.0).abs() < 1e-12, "hv = {hv}");
    }

    #[test]
    fn hypervolume_ignores_points_outside_reference() {
        let hv = hypervolume_2d([[1.0, 1.0], [5.0, 0.5], [0.5, 5.0]], [3.0, 3.0]);
        assert!((hv - 4.0).abs() < 1e-12, "hv = {hv}");
        assert_eq!(hypervolume_2d([], [3.0, 3.0]), 0.0);
    }

    #[test]
    fn hypervolume_is_monotone_in_added_points() {
        let base = hypervolume_2d([[1.0, 2.0], [2.0, 1.0]], [4.0, 4.0]);
        let more = hypervolume_2d([[1.0, 2.0], [2.0, 1.0], [0.5, 3.0]], [4.0, 4.0]);
        assert!(more > base, "{more} <= {base}");
    }

    #[test]
    fn hypervolume_of_duplicate_points_counts_once() {
        // Duplicates add a zero-width slab: same value as a single copy.
        let single = hypervolume_2d([[1.0, 1.0]], [3.0, 3.0]);
        let duped = hypervolume_2d([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]], [3.0, 3.0]);
        assert!((duped - single).abs() < 1e-12, "{duped} != {single}");
    }

    #[test]
    fn hypervolume_excludes_points_exactly_on_the_reference_boundary() {
        // The filter is strict `<`: a point sharing either coordinate
        // with the reference dominates zero area and must contribute
        // nothing (not a negative or NaN slab).
        assert_eq!(hypervolume_2d([[3.0, 1.0]], [3.0, 3.0]), 0.0);
        assert_eq!(hypervolume_2d([[1.0, 3.0]], [3.0, 3.0]), 0.0);
        assert_eq!(hypervolume_2d([[3.0, 3.0]], [3.0, 3.0]), 0.0);
        // A boundary point alongside an interior one changes nothing.
        let hv = hypervolume_2d([[1.0, 1.0], [3.0, 1.0], [1.0, 3.0]], [3.0, 3.0]);
        assert!((hv - 4.0).abs() < 1e-12, "hv = {hv}");
    }

    #[test]
    fn hypervolume_is_nan_free_under_total_cmp() {
        // NaN coordinates fail the strict `<` filter (all comparisons
        // with NaN are false), so they are dropped before the total_cmp
        // sort ever sees them and the result stays finite.
        let hv = hypervolume_2d(
            [
                [f64::NAN, 1.0],
                [1.0, f64::NAN],
                [f64::NAN, f64::NAN],
                [1.0, 1.0],
            ],
            [3.0, 3.0],
        );
        assert!(hv.is_finite());
        assert!((hv - 4.0).abs() < 1e-12, "hv = {hv}");
        // An all-NaN input degenerates to the empty set, not NaN.
        assert_eq!(hypervolume_2d([[f64::NAN, f64::NAN]], [3.0, 3.0]), 0.0);
    }

    #[test]
    fn spread_is_zero_for_uniform_distances() {
        assert_eq!(spread(&[f64::INFINITY, 2.0, 2.0, 2.0, f64::INFINITY]), 0.0);
        assert_eq!(spread(&[f64::INFINITY]), 0.0);
        assert!(spread(&[1.0, 3.0]) > 0.0);
    }

    #[test]
    fn compute_ranks_and_ideal() {
        // Two nondominated points plus one dominated straggler.
        let pop: Vec<Individual<u8>> = [[1.0, 2.0], [2.0, 1.0], [3.0, 3.0]]
            .into_iter()
            .map(|objectives| Individual {
                genome: 0u8,
                objectives,
            })
            .collect();
        let stats = GenerationStats::compute(7, &pop, 3, PhaseTimings::default(), Some([4.0, 4.0]));
        assert_eq!(stats.generation, 7);
        assert_eq!(stats.front_sizes, vec![2, 1]);
        assert_eq!(stats.ideal, [1.0, 1.0]);
        assert_eq!(stats.evaluations, 3);
        let hv = stats.hypervolume.unwrap();
        assert!((hv - 8.0).abs() < 1e-12, "hv = {hv}"); // 2·3 + 1·2
    }

    #[test]
    fn stats_roundtrip_through_json() {
        let stats = GenerationStats::compute(
            1,
            &[Individual {
                genome: 0u8,
                objectives: [1.0, 2.0],
            }],
            5,
            PhaseTimings {
                mating_s: 0.25,
                evaluation_s: 0.5,
                sorting_s: 0.125,
            },
            None,
        );
        let line = serde_json::to_string(&stats).unwrap();
        let back: GenerationStats = serde_json::from_str(&line).unwrap();
        assert_eq!(stats, back);
    }
}
