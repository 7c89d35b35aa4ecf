//! Warm-start seed preparation for rolling re-optimization.
//!
//! A streaming scheduler re-runs an engine every horizon, seeding it with
//! the previous horizon's front (projected onto the new task set) plus
//! heuristic repairs. Engines truncate the seed list to their population
//! size, so *what survives the cut matters*: duplicated genomes waste
//! initial-population slots, and an over-long list silently drops the
//! heuristic repairs appended at the end. [`prepare_warm_seeds`]
//! normalises the pool deterministically before it reaches
//! [`EngineConfig::evolve`](crate::EngineConfig::evolve).

/// Dedups a warm-start seed pool (first occurrence wins, order preserved)
/// and caps it at `cap` genomes. Deterministic: output is a pure function
/// of the input sequence, so warm-started runs stay replayable.
///
/// The earlier a genome appears the more it is trusted — callers should
/// order the pool best-first (e.g. knee/selected point, then the rest of
/// the carried front, then heuristic repairs).
pub fn prepare_warm_seeds<G: PartialEq>(seeds: Vec<G>, cap: usize) -> Vec<G> {
    let mut out: Vec<G> = Vec::with_capacity(seeds.len().min(cap));
    for g in seeds {
        if out.len() >= cap {
            break;
        }
        if !out.contains(&g) {
            out.push(g);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedups_preserving_first_occurrence_order() {
        let pool = vec![3, 1, 3, 2, 1, 4];
        assert_eq!(prepare_warm_seeds(pool, 10), vec![3, 1, 2, 4]);
    }

    #[test]
    fn caps_after_dedup_not_before() {
        // Duplicates must not consume cap slots: with cap 3, the pool
        // below still yields three *distinct* genomes.
        let pool = vec![1, 1, 1, 2, 2, 3, 4];
        assert_eq!(prepare_warm_seeds(pool, 3), vec![1, 2, 3]);
    }

    #[test]
    fn empty_and_zero_cap_are_fine() {
        assert_eq!(prepare_warm_seeds(Vec::<u8>::new(), 5), Vec::<u8>::new());
        assert_eq!(prepare_warm_seeds(vec![1, 2], 0), Vec::<i32>::new());
    }
}
