//! Order statistics and failure accounting behind every printed metric.

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First and third quartiles by the rule of Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so the spreads `perf compare` prints are the ones the acceptance check
/// computes. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(values);
    let len = data.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        // Negative when the clamp raised `j`: Python then extrapolates.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The tail percentile reported next to a median.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Which percentile (e.g. 90.0).
    pub percentile: f64,
    /// Its value, by nearest rank.
    pub value: f64,
    /// How many samples it was taken from.
    pub samples: usize,
}

/// The highest of p99.9, p99, p95, p90 and p75 that still has at least
/// ten samples beyond it (nearest rank), so a tail is never read off a
/// handful of outliers. `None` when even p75 lacks ten samples beyond.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let sorted = sorted(values);
    let n = sorted.len();
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find_map(|p: f64| {
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            (rank >= 1 && n - rank >= 10).then(|| Tail {
                percentile: p,
                value: sorted[rank - 1],
                samples: n,
            })
        })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Attempted and failed operations. An operation fails when it errors,
/// answers with an unexpected status, or when a check on its output
/// fails.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One line per failure, for the log.
    pub notes: Vec<String>,
}

impl Tally {
    /// Records `ops` operations together with every failure found in
    /// them (errors and failed checks alike). A batch never counts more
    /// failed operations than it holds, so one call with a failed status
    /// and a failed check is one failed operation.
    pub fn ops(&mut self, ops: u64, failures: &[String]) {
        self.attempted += ops;
        self.failed += (failures.len() as u64).min(ops);
        self.notes.extend(failures.iter().cloned());
    }

    /// Folds another tally (e.g. a second client thread's) into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
    }

    /// `failed / attempted`, 0 when nothing was attempted.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let values = |n: usize| (1..=n).map(|v| v as f64).collect::<Vec<_>>();
        // 19 samples: p75 is rank 15 with only 4 beyond — no tail.
        assert_eq!(tail(&values(19)), None);
        // 40 samples: p75 (rank 30, 10 beyond) qualifies, p90 does not.
        let t = tail(&values(40)).unwrap();
        assert_eq!((t.percentile, t.value, t.samples), (75.0, 30.0, 40));
        // 100 samples: p90 has exactly 10 beyond, p95 only 5.
        let t = tail(&values(100)).unwrap();
        assert_eq!((t.percentile, t.value), (90.0, 90.0));
        // 1000 samples: p99 has 10 beyond, p99.9 only 1.
        let t = tail(&values(1000)).unwrap();
        assert_eq!((t.percentile, t.value, t.samples), (99.0, 990.0, 1000));
        // Order of the input does not matter.
        let mut shuffled = values(100);
        shuffled.reverse();
        assert_eq!(tail(&shuffled).unwrap().value, 90.0);
    }

    #[test]
    fn failed_ops_count_once_and_never_exceed_attempts() {
        let mut tally = Tally::default();
        tally.ops(2, &[]);
        assert_eq!((tally.attempted, tally.failed), (2, 0));
        assert_eq!(tally.failed_frac(), 0.0);
        // One op with a failed call and a failed check still counts once.
        tally.ops(1, &["status 500".into(), "digest mismatch".into()]);
        assert_eq!((tally.attempted, tally.failed), (3, 1));
        // Two failures in a two-op batch count two.
        tally.ops(2, &["a".into(), "b".into()]);
        assert_eq!((tally.attempted, tally.failed), (5, 3));
        let mut other = Tally::default();
        other.ops(5, &["c".into()]);
        tally.merge(other);
        assert_eq!((tally.attempted, tally.failed), (10, 4));
        assert_eq!(tally.failed_frac(), 0.4);
        assert_eq!(tally.notes.len(), 5);
        assert_eq!(Tally::default().failed_frac(), 0.0);
    }
}
