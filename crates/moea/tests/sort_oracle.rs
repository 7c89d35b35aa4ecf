//! The two-objective sort-and-sweep must emit exactly what Deb's O(M·N²)
//! kernel emits: the same fronts, each in the same order. NSGA-II survival,
//! crowded-tournament mating and naive truncation all break ties by that
//! order, so a kernel that finds the right fronts in another order changes
//! which members survive.

use hetsched_moea::{dominates, fast_nondominated_sort, Objectives};
use proptest::prelude::*;

/// Deb et al. 2002, §III: the reference kernel, kept verbatim as the oracle.
fn deb(points: &[Objectives]) -> Vec<Vec<usize>> {
    let n = points.len();
    if n == 0 {
        return Vec::new();
    }
    // dominated_by[p] = how many points dominate p;
    // dominating[p] = indices p dominates.
    let mut dominated_by = vec![0usize; n];
    let mut dominating: Vec<Vec<usize>> = vec![Vec::new(); n];
    for p in 0..n {
        for q in (p + 1)..n {
            if dominates(&points[p], &points[q]) {
                dominating[p].push(q);
                dominated_by[q] += 1;
            } else if dominates(&points[q], &points[p]) {
                dominating[q].push(p);
                dominated_by[p] += 1;
            }
        }
    }
    let mut fronts: Vec<Vec<usize>> = Vec::new();
    let mut current: Vec<usize> = (0..n).filter(|&p| dominated_by[p] == 0).collect();
    while !current.is_empty() {
        let mut next = Vec::new();
        for &p in &current {
            for &q in &dominating[p] {
                dominated_by[q] -= 1;
                if dominated_by[q] == 0 {
                    next.push(q);
                }
            }
        }
        fronts.push(std::mem::replace(&mut current, next));
    }
    fronts
}

/// Few enough values that ties and exact duplicates are common, with the
/// ones `dominates` treats specially: both zeros, NaN and the infinities.
const ALPHABET: [f64; 10] = [
    f64::NEG_INFINITY,
    -2.0,
    -1.0,
    -0.0,
    0.0,
    0.5,
    1.0,
    3.0,
    f64::INFINITY,
    f64::NAN,
];

fn letter() -> impl Strategy<Value = f64> {
    (0..ALPHABET.len()).prop_map(|i| ALPHABET[i])
}

proptest! {
    #[test]
    fn sweep_matches_deb_on_a_small_alphabet(
        points in prop::collection::vec((letter(), letter()), 0..=900),
    ) {
        let points: Vec<Objectives> = points.into_iter().map(|(a, b)| [a, b]).collect();
        prop_assert_eq!(fast_nondominated_sort(&points), deb(&points));
    }

    /// The shape of an NSGA-II parent-plus-offspring population: a noisy
    /// anti-correlated band in which about a third of the members repeat an
    /// earlier one exactly.
    #[test]
    fn sweep_matches_deb_on_populations_with_duplicates(
        draws in prop::collection::vec((0.0f64..100.0, 0.0f64..30.0, 0u8..3, 0usize..900), 0..=900),
    ) {
        let mut points: Vec<Objectives> = Vec::with_capacity(draws.len());
        for (i, (x, noise, copy, source)) in draws.into_iter().enumerate() {
            let point = if copy == 0 && i > 0 {
                points[source % i]
            } else {
                [-x, x + noise]
            };
            points.push(point);
        }
        prop_assert_eq!(fast_nondominated_sort(&points), deb(&points));
    }
}
