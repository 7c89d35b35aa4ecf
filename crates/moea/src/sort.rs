//! Nondominated sorting and crowding distance (Deb et al. 2002, §III).
//!
//! Every objective vector here has exactly two components, so the fronts
//! come from a sort-and-sweep over the points in objective order (Kung et
//! al. 1975; Jensen 2003) in O(N log N), instead of Deb's O(M·N²) pairwise
//! comparison. The sweep still emits Deb's exact within-front order (see
//! [`fast_nondominated_sort`]): survival and tournament selection break
//! crowding-distance ties, and naive truncation cuts a front, by that
//! order, so any other order changes which of several equal members
//! survive.

use crate::dominance::Objectives;
use std::collections::VecDeque;

/// Partitions point indices into Pareto fronts. `fronts[0]` is the
/// nondominated set (the paper's rank-1 solutions), `fronts[1]` the set
/// nondominated once `fronts[0]` is removed, and so on. Every index appears
/// in exactly one front; a point with a NaN objective neither dominates nor
/// is dominated, so it sits in `fronts[0]`.
///
/// The within-front order is the one Deb's kernel emits, which callers
/// depend on for tie-breaking: `fronts[0]` ascends by index, and
/// `fronts[k + 1]` ascends by `(L(q), q)`, where `L(q)` is the largest
/// position in `fronts[k]` of a point that dominates `q` (Deb's kernel
/// releases `q` when it visits that last dominator, whose dominated points
/// it visits in ascending index).
///
/// Complexity O(N log N): one sort by `(f0, f1, index)`, a binary search
/// per point over the fronts' last `f1`, then per front a linear sweep
/// for `L` and a sort by `(L(q), q)`.
pub fn fast_nondominated_sort(points: &[Objectives]) -> Vec<Vec<usize>> {
    if points.is_empty() {
        return Vec::new();
    }
    // `+ 0.0` folds -0.0 into 0.0 (objective 0 is `-utility`, so zero
    // utility gives -0.0), so `total_cmp` agrees with the `<=` of
    // `dominates` on everything that reaches the sweep.
    let key = |i: usize| [points[i][0] + 0.0, points[i][1] + 0.0];
    let (mut order, mut first): (Vec<usize>, Vec<usize>) =
        (0..points.len()).partition(|&i| !points[i][0].is_nan() && !points[i][1].is_nan());
    order.sort_unstable_by(|&a, &b| {
        let (ka, kb) = (key(a), key(b));
        (ka[0].total_cmp(&kb[0]))
            .then(ka[1].total_cmp(&kb[1]))
            .then(a.cmp(&b))
    });
    // Ranking. Every point that can dominate `q` precedes it in `order`,
    // and a predecessor dominates `q` exactly when its f1 is <= q's and it
    // is not equal to `q`. Each front's members, in `order`, form a
    // staircase (f0 ascending, f1 descending), so its last f1 is its
    // minimum, and those minima ascend with the front index.
    let mut stairs: Vec<Vec<usize>> = Vec::new();
    let mut prev: Option<(Objectives, usize)> = None;
    for &q in &order {
        let kq = key(q);
        let rank = match prev {
            Some((kp, rank)) if kp == kq => rank,
            _ => stairs.partition_point(|stair| key(stair[stair.len() - 1])[1] <= kq[1]),
        };
        if rank == stairs.len() {
            stairs.push(Vec::new());
        }
        stairs[rank].push(q);
        prev = Some((kq, rank));
    }
    // Emission in Deb's order. The front-k points dominating a front-k+1
    // point q are the run of front k's staircase with f0 <= q's and
    // f1 <= q's; both ends of that run only move forward as q walks front
    // k+1's staircase, so a monotone deque yields every L(q) in one pass.
    first.extend(stairs.first().into_iter().flatten());
    first.sort_unstable();
    let mut fronts = vec![first];
    let mut pos = vec![0usize; points.len()];
    let mut window: VecDeque<usize> = VecDeque::new();
    for pair in stairs.windows(2) {
        let (below, stair) = (&pair[0], &pair[1]);
        for (at, &p) in fronts[fronts.len() - 1].iter().enumerate() {
            pos[p] = at;
        }
        let (mut lo, mut hi) = (0, 0);
        window.clear();
        let mut keyed: Vec<(usize, usize)> = Vec::with_capacity(stair.len());
        for &q in stair {
            let kq = key(q);
            while hi < below.len() && key(below[hi])[0] <= kq[0] {
                let at = pos[below[hi]];
                while window.back().is_some_and(|&j| pos[below[j]] < at) {
                    window.pop_back();
                }
                window.push_back(hi);
                hi += 1;
            }
            while key(below[lo])[1] > kq[1] {
                lo += 1;
            }
            while window.front().is_some_and(|&j| j < lo) {
                window.pop_front();
            }
            keyed.push((pos[below[window[0]]], q));
        }
        keyed.sort_unstable();
        fronts.push(keyed.into_iter().map(|(_, q)| q).collect());
    }
    fronts
}

/// Crowding distance of each member of one front (Deb et al. 2002):
/// boundary solutions get `+∞`; interior ones the sum over objectives of
/// the normalised gap between their neighbours. Larger = less crowded =
/// preferred at truncation. When members tie in an objective, the order of
/// `front` decides which of them takes a boundary's infinite distance.
pub fn crowding_distance(front: &[usize], points: &[Objectives]) -> Vec<f64> {
    let n = front.len();
    let mut distance = vec![0.0f64; n];
    if n <= 2 {
        return vec![f64::INFINITY; n];
    }
    // Positions of front members, sortable per objective.
    let mut idx: Vec<usize> = (0..n).collect();
    #[allow(clippy::needless_range_loop)] // `obj` indexes a fixed-size objective tuple
    for obj in 0..2 {
        idx.sort_unstable_by(|&a, &b| points[front[a]][obj].total_cmp(&points[front[b]][obj]));
        let lo = points[front[idx[0]]][obj];
        let hi = points[front[idx[n - 1]]][obj];
        distance[idx[0]] = f64::INFINITY;
        distance[idx[n - 1]] = f64::INFINITY;
        let span = hi - lo;
        if span <= 0.0 {
            continue; // all equal in this objective: contributes nothing
        }
        for w in 1..n - 1 {
            let prev = points[front[idx[w - 1]]][obj];
            let next = points[front[idx[w + 1]]][obj];
            distance[idx[w]] += (next - prev) / span;
        }
    }
    distance
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dominance::dominates;

    #[test]
    fn single_point_is_front_one() {
        let fronts = fast_nondominated_sort(&[[1.0, 2.0]]);
        assert_eq!(fronts, vec![vec![0]]);
    }

    #[test]
    fn empty_input() {
        assert!(fast_nondominated_sort(&[]).is_empty());
    }

    #[test]
    fn chain_of_dominated_points_forms_layers() {
        // p0 dominates p1 dominates p2.
        let pts = [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]];
        let fronts = fast_nondominated_sort(&pts);
        assert_eq!(fronts, vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn tradeoff_points_share_front_one() {
        let pts = [[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]];
        let fronts = fast_nondominated_sort(&pts);
        assert_eq!(fronts.len(), 1);
        assert_eq!(fronts[0].len(), 4);
    }

    #[test]
    fn mixed_layers() {
        // Front 1: (0,2), (2,0). Front 2: (1,3), (3,1). Front 3: (4,4).
        let pts = [[0.0, 2.0], [2.0, 0.0], [1.0, 3.0], [3.0, 1.0], [4.0, 4.0]];
        let fronts = fast_nondominated_sort(&pts);
        assert_eq!(fronts.len(), 3);
        let mut f0 = fronts[0].clone();
        f0.sort_unstable();
        assert_eq!(f0, vec![0, 1]);
        let mut f1 = fronts[1].clone();
        f1.sort_unstable();
        assert_eq!(f1, vec![2, 3]);
        assert_eq!(fronts[2], vec![4]);
    }

    #[test]
    fn every_index_in_exactly_one_front() {
        let pts: Vec<Objectives> = (0..40)
            .map(|i| {
                let x = (i * 7 % 13) as f64;
                let y = (i * 11 % 17) as f64;
                [x, y]
            })
            .collect();
        let fronts = fast_nondominated_sort(&pts);
        let mut seen = vec![false; pts.len()];
        for f in &fronts {
            for &p in f {
                assert!(!seen[p], "index {p} in two fronts");
                seen[p] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn front_members_are_mutually_nondominated() {
        let pts: Vec<Objectives> = (0..30)
            .map(|i| [(i % 6) as f64, ((i * 5) % 7) as f64])
            .collect();
        for front in fast_nondominated_sort(&pts) {
            for &a in &front {
                for &b in &front {
                    assert!(!dominates(&pts[a], &pts[b]));
                }
            }
        }
    }

    #[test]
    fn crowding_boundaries_are_infinite() {
        let pts = [[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]];
        let front = vec![0, 1, 2, 3];
        let d = crowding_distance(&front, &pts);
        assert_eq!(d[0], f64::INFINITY);
        assert_eq!(d[3], f64::INFINITY);
        assert!(d[1].is_finite() && d[1] > 0.0);
        // Evenly spaced: interior distances are equal.
        assert!((d[1] - d[2]).abs() < 1e-12);
    }

    #[test]
    fn crowding_rewards_isolation() {
        // Points at x = 0, 1, 2, 9, 10 on a line (y mirrors x reversed).
        let pts = [[0.0, 10.0], [1.0, 9.0], [2.0, 8.0], [9.0, 1.0], [10.0, 0.0]];
        let front = vec![0, 1, 2, 3, 4];
        let d = crowding_distance(&front, &pts);
        // Index 3 sits in the sparse region: larger crowding distance than
        // the packed index 1.
        assert!(d[3] > d[1]);
    }

    #[test]
    fn tiny_fronts_are_all_infinite() {
        let pts = [[0.0, 1.0], [1.0, 0.0]];
        assert_eq!(crowding_distance(&[0, 1], &pts), vec![f64::INFINITY; 2]);
        assert_eq!(crowding_distance(&[0], &pts), vec![f64::INFINITY]);
    }

    #[test]
    fn degenerate_objective_span_is_handled() {
        // All points share objective 0; crowding falls back to objective 1.
        let pts = [[5.0, 0.0], [5.0, 1.0], [5.0, 2.0], [5.0, 3.0]];
        let d = crowding_distance(&[0, 1, 2, 3], &pts);
        assert!(d.iter().all(|v| !v.is_nan()));
        assert_eq!(d[0], f64::INFINITY);
        assert_eq!(d[3], f64::INFINITY);
    }
}
