//! Target-decoy false-discovery-rate estimation.
//!
//! Completes the search pipeline the way production engines do: search a
//! concatenated target+decoy database, sort PSMs by score, and estimate
//! `FDR(s) = (#decoys ≥ s) / (#targets ≥ s)`; the q-value of a PSM is the
//! minimum FDR at which it would be accepted (monotone envelope).
//!
//! Reached by: `examples/fdr_search.rs` only (with `lbe_bio::decoy`). No
//! CLI command reports q-values yet — `lbe search --fdr` is the open
//! roadmap item that would either wire this in or remove it.

/// One scored identification for FDR purposes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredId {
    /// PSM score (higher = better).
    pub score: f32,
    /// Whether the matched peptide is a decoy.
    pub is_decoy: bool,
}

/// A PSM with its estimated q-value, in descending-score order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QValued {
    /// The input record.
    pub id: ScoredId,
    /// Estimated q-value in `[0, 1]` (capped at 1).
    pub q_value: f64,
}

/// Computes q-values by the standard target-decoy procedure.
///
/// Returns records sorted by descending score with their q-values. Decoy
/// counts use the +1 convention (`(d + 1) / max(t, 1)`), the conservative
/// estimator used by Percolator and friends.
pub fn compute_q_values(mut ids: Vec<ScoredId>) -> Vec<QValued> {
    ids.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .expect("scores are finite")
            .then(a.is_decoy.cmp(&b.is_decoy)) // targets first on ties
    });
    let mut out = Vec::with_capacity(ids.len());
    let (mut targets, mut decoys) = (0u64, 0u64);
    for id in ids {
        if id.is_decoy {
            decoys += 1;
        } else {
            targets += 1;
        }
        let fdr = (decoys as f64 + 1.0) / (targets.max(1) as f64);
        out.push(QValued {
            id,
            q_value: fdr.min(1.0),
        });
    }
    // q-value = running minimum FDR from the bottom (monotone envelope).
    let mut best = 1.0f64;
    for rec in out.iter_mut().rev() {
        best = best.min(rec.q_value);
        rec.q_value = best;
    }
    out
}

/// Number of *target* PSMs accepted at q-value ≤ `threshold`.
pub fn accepted_at(records: &[QValued], threshold: f64) -> usize {
    records
        .iter()
        .filter(|r| !r.id.is_decoy && r.q_value <= threshold)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(score: f32, is_decoy: bool) -> ScoredId {
        ScoredId { score, is_decoy }
    }

    #[test]
    fn clean_separation_gives_low_q() {
        // 10 targets scoring high, 10 decoys scoring low.
        let mut ids = Vec::new();
        for i in 0..10 {
            ids.push(id(100.0 + i as f32, false));
            ids.push(id(10.0 + i as f32, true));
        }
        let q = compute_q_values(ids);
        // The top-10 (all targets) keep the minimum q-value: with zero
        // decoys above them the +1 convention gives 1/10.
        for rec in &q[..10] {
            assert!(!rec.id.is_decoy);
            assert!(rec.q_value <= 0.1 + 1e-9, "{}", rec.q_value);
        }
    }

    #[test]
    fn interleaved_scores_raise_q() {
        // Alternating target/decoy: FDR near 1 everywhere.
        let mut ids = Vec::new();
        for i in 0..20 {
            ids.push(id(100.0 - i as f32, i % 2 == 1));
        }
        let q = compute_q_values(ids);
        assert!(q.last().unwrap().q_value > 0.8);
    }

    #[test]
    fn q_values_monotone_nonincreasing_toward_top() {
        let ids = vec![
            id(9.0, false),
            id(8.0, false),
            id(7.0, true),
            id(6.0, false),
            id(5.0, true),
            id(4.0, false),
        ];
        let q = compute_q_values(ids);
        for w in q.windows(2) {
            assert!(w[0].q_value <= w[1].q_value);
        }
    }

    #[test]
    fn sorted_by_descending_score() {
        let ids = vec![id(1.0, false), id(5.0, true), id(3.0, false)];
        let q = compute_q_values(ids);
        assert!(q.windows(2).all(|w| w[0].id.score >= w[1].id.score));
    }

    #[test]
    fn accepted_counts_targets_only() {
        let ids = vec![id(10.0, false), id(9.0, false), id(1.0, true)];
        let q = compute_q_values(ids);
        let n = accepted_at(&q, 0.6);
        assert_eq!(n, 2);
        assert_eq!(accepted_at(&q, 0.0), 0); // +1 convention: never exactly 0
    }

    #[test]
    fn empty_input() {
        assert!(compute_q_values(vec![]).is_empty());
        assert_eq!(accepted_at(&[], 0.05), 0);
    }

    #[test]
    fn all_decoys_cap_at_one() {
        let q = compute_q_values(vec![id(5.0, true), id(4.0, true)]);
        assert!(q.iter().all(|r| r.q_value <= 1.0));
    }

    #[test]
    fn tie_prefers_target_first() {
        let q = compute_q_values(vec![id(5.0, true), id(5.0, false)]);
        assert!(!q[0].id.is_decoy);
    }
}
