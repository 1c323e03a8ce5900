//! The LBE distribution policies (§III-D).
//!
//! Given the grouped traversal order from Algorithm 1 and `p` ranks:
//!
//! * **Chunk** — contiguous `N/p` slices of the grouped order. This is the
//!   conventional shared-memory layout (Fig. 1) applied across machines —
//!   the baseline LBE beats, because whole groups of similar spectra land on
//!   one machine (Fig. 2).
//! * **Cyclic** — round-robin over the grouped order, i.e. the members of
//!   every group are dealt across ranks like cards; each rank receives a
//!   near-identical "sketch" of every group (Fig. 3).
//! * **Random** — each group's members are shuffled (seeded), then the
//!   concatenation is chunk-split; quality "may depend on initial choice of
//!   seed value" (§III-D.3).
//!
//! The invariant (checked by `validate` and property tests): every peptide
//! is assigned to **exactly one** rank.
//!
//! A policy decides *which* peptides a rank holds; each rank's list is then
//! stored ascending by global id, so a rank's local id order *is* the global
//! id order. That is what lets a rank cut its top-k on local ids and still
//! keep exactly the candidates a single index would: exact-score ties
//! break on `(peptide, modform)`, and they break the same way everywhere.

use crate::grouping::Grouping;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::fmt;

/// A data-distribution policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionPolicy {
    /// Contiguous `N/p` chunks of the grouped order (the baseline).
    Chunk,
    /// Round-robin over the grouped order.
    Cyclic,
    /// Global shuffle of the grouped order, then chunk split — the paper's
    /// `pep(m) = {chunk(shuffle(i))}`.
    ///
    /// The prose ("the peptide sequences in each group are shuffled") reads
    /// as a *per-group* shuffle, but that cannot reproduce Fig. 6: a ≤ 20
    /// member group shuffled in place stays inside the same N/p ≈ thousands
    /// chunk, making Random identical to Chunk. The formula (a shuffle of
    /// the index set) and the measured result (Random ≈ Cyclic quality)
    /// both imply the global interpretation; the literal per-group variant
    /// is kept as [`PartitionPolicy::RandomWithinGroups`] for the ablation.
    Random {
        /// Shuffle seed (the paper notes distribution quality depends on it).
        seed: u64,
    },
    /// The literal reading of §III-D.3: shuffle *within* each group, then
    /// chunk split. Provided as an ablation; behaves like Chunk whenever
    /// groups are much smaller than `N/p`.
    RandomWithinGroups {
        /// Shuffle seed.
        seed: u64,
    },
}

impl fmt::Display for PartitionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionPolicy::Chunk => write!(f, "chunk"),
            PartitionPolicy::Cyclic => write!(f, "cyclic"),
            PartitionPolicy::Random { seed } => write!(f, "random(seed={seed})"),
            PartitionPolicy::RandomWithinGroups { seed } => {
                write!(f, "random-within-groups(seed={seed})")
            }
        }
    }
}

/// A complete assignment of peptides to ranks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// `ranks[m]` = global peptide ids assigned to rank `m`, ascending;
    /// local id `l` on rank `m` is `ranks[m][l]`.
    pub ranks: Vec<Vec<u32>>,
    /// The policy that produced this assignment.
    pub policy: PartitionPolicy,
}

impl Partition {
    /// Stores an assignment with every rank's list ascending by global id
    /// (see the module docs).
    fn ascending(mut ranks: Vec<Vec<u32>>, policy: PartitionPolicy) -> Self {
        for list in &mut ranks {
            list.sort_unstable();
        }
        Partition { ranks, policy }
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.ranks.len()
    }

    /// Total peptides assigned.
    pub fn total(&self) -> usize {
        self.ranks.iter().map(Vec::len).sum()
    }

    /// The peptides of one rank.
    pub fn rank(&self, m: usize) -> &[u32] {
        &self.ranks[m]
    }

    /// Largest/smallest rank loads (peptide counts).
    pub fn load_spread(&self) -> (usize, usize) {
        let max = self.ranks.iter().map(Vec::len).max().unwrap_or(0);
        let min = self.ranks.iter().map(Vec::len).min().unwrap_or(0);
        (min, max)
    }

    /// Checks the exact-cover invariant against `n` total peptides.
    pub fn validate(&self, n: usize) -> Result<(), String> {
        let mut seen = vec![false; n];
        for (m, list) in self.ranks.iter().enumerate() {
            for &id in list {
                let i = id as usize;
                if i >= n {
                    return Err(format!("rank {m} holds out-of-range peptide {id}"));
                }
                if seen[i] {
                    return Err(format!("peptide {id} assigned to more than one rank"));
                }
                seen[i] = true;
            }
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(format!("peptide {missing} not assigned to any rank"));
        }
        Ok(())
    }
}

/// Applies `policy` to the grouped order, producing per-rank peptide lists.
pub fn partition_groups(
    grouping: &Grouping,
    num_ranks: usize,
    policy: PartitionPolicy,
) -> Partition {
    assert!(num_ranks >= 1, "need at least one rank");
    let order = match policy {
        PartitionPolicy::Random { seed } => {
            // Global shuffle of the grouped order (see the enum docs for
            // why this — not a per-group shuffle — is the paper's policy).
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut out = grouping.order.clone();
            out.shuffle(&mut rng);
            out
        }
        PartitionPolicy::RandomWithinGroups { seed } => {
            // Literal §III-D.3: shuffle each group in place.
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut out = Vec::with_capacity(grouping.order.len());
            for group in grouping.iter_groups() {
                let mut g: Vec<u32> = group.to_vec();
                g.shuffle(&mut rng);
                out.extend(g);
            }
            out
        }
        _ => grouping.order.clone(),
    };

    let n = order.len();
    let mut ranks: Vec<Vec<u32>> = (0..num_ranks)
        .map(|_| Vec::with_capacity(n / num_ranks + 1))
        .collect();
    match policy {
        PartitionPolicy::Chunk
        | PartitionPolicy::Random { .. }
        | PartitionPolicy::RandomWithinGroups { .. } => {
            // pep(m) = { i | N/p·m ≤ i < N/p·(m+1) } with remainder spread
            // over the leading ranks (balanced counts).
            let base = n / num_ranks;
            let extra = n % num_ranks;
            let mut offset = 0;
            for (m, rank) in ranks.iter_mut().enumerate() {
                let take = base + usize::from(m < extra);
                rank.extend_from_slice(&order[offset..offset + take]);
                offset += take;
            }
        }
        PartitionPolicy::Cyclic => {
            // pep(m) = { i | i mod p == m } over the grouped order — the
            // members of each group are dealt across ranks.
            for (i, &id) in order.iter().enumerate() {
                ranks[i % num_ranks].push(id);
            }
        }
    }
    Partition::ascending(ranks, policy)
}

/// Weighted cyclic partitioning for **heterogeneous** clusters — the
/// paper's §VIII "load-predicting model for heterogeneous memory-distributed
/// architectures" direction.
///
/// Deals the grouped order so rank `m` receives a share proportional to
/// `weights[m]` (e.g. relative core speeds), interleaved like Cyclic so each
/// rank still sees a similar data sketch. Assignment is the deterministic
/// greedy largest-deficit rule: peptide `i` goes to the rank whose assigned
/// count is furthest below its proportional target.
pub fn partition_weighted_cyclic(grouping: &Grouping, weights: &[f64]) -> Partition {
    assert!(!weights.is_empty(), "need at least one rank");
    assert!(
        weights.iter().all(|&w| w > 0.0 && w.is_finite()),
        "weights must be positive and finite"
    );
    let p = weights.len();
    let total_w: f64 = weights.iter().sum();
    let n = grouping.order.len();
    let mut ranks: Vec<Vec<u32>> = (0..p).map(|_| Vec::with_capacity(n / p + 1)).collect();
    let mut assigned = vec![0usize; p];
    for (i, &id) in grouping.order.iter().enumerate() {
        // Deficit of rank m after i assignments: target share minus actual.
        let mut best = 0usize;
        let mut best_deficit = f64::NEG_INFINITY;
        for m in 0..p {
            let target = weights[m] / total_w * (i + 1) as f64;
            let deficit = target - assigned[m] as f64;
            if deficit > best_deficit {
                best_deficit = deficit;
                best = m;
            }
        }
        ranks[best].push(id);
        assigned[best] += 1;
    }
    // Cyclic: the sketch-wise equivalent family.
    Partition::ascending(ranks, PartitionPolicy::Cyclic)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grouping::{group_peptides, GroupingCriterion, GroupingParams};
    use lbe_bio::peptide::{Peptide, PeptideDb};

    fn grouping(n: usize) -> Grouping {
        // n peptides in 2 groups (first half / second half) for structure.
        Grouping {
            order: (0..n as u32).collect(),
            group_sizes: vec![(n / 2) as u32, (n - n / 2) as u32],
        }
    }

    #[test]
    fn chunk_is_contiguous() {
        let p = partition_groups(&grouping(10), 2, PartitionPolicy::Chunk);
        assert_eq!(p.rank(0), &[0, 1, 2, 3, 4]);
        assert_eq!(p.rank(1), &[5, 6, 7, 8, 9]);
        p.validate(10).unwrap();
    }

    #[test]
    fn cyclic_deals_round_robin() {
        let p = partition_groups(&grouping(6), 3, PartitionPolicy::Cyclic);
        assert_eq!(p.rank(0), &[0, 3]);
        assert_eq!(p.rank(1), &[1, 4]);
        assert_eq!(p.rank(2), &[2, 5]);
        p.validate(6).unwrap();
    }

    #[test]
    fn random_covers_exactly() {
        let p = partition_groups(&grouping(17), 4, PartitionPolicy::Random { seed: 7 });
        p.validate(17).unwrap();
        let (min, max) = p.load_spread();
        assert!(max - min <= 1);
    }

    #[test]
    fn random_is_seed_deterministic() {
        let g = grouping(20);
        let a = partition_groups(&g, 4, PartitionPolicy::Random { seed: 1 });
        let b = partition_groups(&g, 4, PartitionPolicy::Random { seed: 1 });
        let c = partition_groups(&g, 4, PartitionPolicy::Random { seed: 2 });
        assert_eq!(a, b);
        assert_ne!(a.ranks, c.ranks);
    }

    #[test]
    fn random_within_groups_preserves_group_layout() {
        let g = Grouping {
            order: (0..10).collect(),
            group_sizes: vec![5, 5],
        };
        let p = partition_groups(&g, 1, PartitionPolicy::RandomWithinGroups { seed: 3 });
        let all = &p.rank(0);
        // First 5 positions hold a permutation of group 1 (ids 0..5).
        let mut first: Vec<u32> = all[..5].to_vec();
        first.sort_unstable();
        assert_eq!(first, vec![0, 1, 2, 3, 4]);
        let mut second: Vec<u32> = all[5..].to_vec();
        second.sort_unstable();
        assert_eq!(second, vec![5, 6, 7, 8, 9]);
    }

    #[test]
    fn random_global_shuffle_crosses_group_boundaries() {
        // With 20 groups of 5 and 2 ranks, a global shuffle will (for any
        // reasonable seed) put members of early groups on the late rank.
        let g = Grouping {
            order: (0..100).collect(),
            group_sizes: vec![5; 20],
        };
        let p = partition_groups(&g, 2, PartitionPolicy::Random { seed: 3 });
        p.validate(100).unwrap();
        let rank1_has_early = p.rank(1).iter().any(|&id| id < 5);
        assert!(
            rank1_has_early,
            "global shuffle should move early ids to rank 1"
        );
    }

    #[test]
    fn random_within_groups_acts_like_chunk_for_small_groups() {
        // The ablation: tiny groups + big chunks → same assignment as Chunk
        // up to intra-group permutation, so the same *set* per rank.
        let g = Grouping {
            order: (0..100).collect(),
            group_sizes: vec![5; 20],
        };
        let chunk = partition_groups(&g, 2, PartitionPolicy::Chunk);
        let rwg = partition_groups(&g, 2, PartitionPolicy::RandomWithinGroups { seed: 9 });
        for m in 0..2 {
            let mut a = chunk.rank(m).to_vec();
            let mut b = rwg.rank(m).to_vec();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "rank {m} sets differ");
        }
    }

    #[test]
    fn nondivisible_counts_balanced() {
        for policy in [
            PartitionPolicy::Chunk,
            PartitionPolicy::Cyclic,
            PartitionPolicy::Random { seed: 0 },
        ] {
            let p = partition_groups(&grouping(13), 4, policy);
            p.validate(13).unwrap();
            let (min, max) = p.load_spread();
            assert!(max - min <= 1, "{policy}: {min}..{max}");
        }
    }

    #[test]
    fn single_rank_gets_everything() {
        for policy in [PartitionPolicy::Chunk, PartitionPolicy::Cyclic] {
            let p = partition_groups(&grouping(8), 1, policy);
            assert_eq!(p.total(), 8);
            assert_eq!(p.num_ranks(), 1);
            p.validate(8).unwrap();
        }
    }

    #[test]
    fn more_ranks_than_peptides() {
        let p = partition_groups(&grouping(3), 8, PartitionPolicy::Cyclic);
        p.validate(3).unwrap();
        assert_eq!(p.total(), 3);
        assert!(p.ranks.iter().filter(|r| r.is_empty()).count() == 5);
    }

    #[test]
    fn empty_grouping() {
        let g = Grouping {
            order: vec![],
            group_sizes: vec![],
        };
        let p = partition_groups(&g, 4, PartitionPolicy::Chunk);
        p.validate(0).unwrap();
        assert_eq!(p.total(), 0);
    }

    #[test]
    fn cyclic_spreads_family_across_all_ranks() {
        // The property LBE exists for: a group of 2p similar peptides puts
        // exactly 2 members on every rank under Cyclic, but all on one or
        // two ranks under Chunk.
        let variants = [b'A', b'C', b'D', b'E', b'F', b'G', b'H', b'I'];
        let fam: Vec<String> = variants
            .iter()
            .map(|&c| format!("AAAGGG{}K", c as char))
            .collect();
        let refs: Vec<&str> = fam.iter().map(String::as_str).collect();
        let db = PeptideDb::from_vec(
            refs.iter()
                .map(|s| Peptide::new(s.as_bytes(), 0, 0).unwrap())
                .collect(),
        );
        let g = group_peptides(
            &db,
            &GroupingParams {
                criterion: GroupingCriterion::Absolute { d: 2 },
                gsize: 20,
            },
        );
        assert_eq!(g.num_groups(), 1);
        let cyc = partition_groups(&g, 4, PartitionPolicy::Cyclic);
        assert!(cyc.ranks.iter().all(|r| r.len() == 2));
        let chk = partition_groups(&g, 4, PartitionPolicy::Chunk);
        assert!(chk.ranks.iter().all(|r| r.len() == 2)); // counts equal...
                                                         // ...but chunk keeps lexicographic neighbours together:
        assert_eq!(chk.rank(0), &[g.order[0], g.order[1]]);
    }

    #[test]
    fn validate_catches_bad_partitions() {
        let p = Partition {
            ranks: vec![vec![0, 1], vec![1]],
            policy: PartitionPolicy::Chunk,
        };
        assert!(p.validate(2).is_err()); // duplicate
        let p = Partition {
            ranks: vec![vec![0]],
            policy: PartitionPolicy::Chunk,
        };
        assert!(p.validate(2).is_err()); // missing id 1
        let p = Partition {
            ranks: vec![vec![5]],
            policy: PartitionPolicy::Chunk,
        };
        assert!(p.validate(2).is_err()); // out of range
    }

    #[test]
    fn display_names() {
        assert_eq!(PartitionPolicy::Chunk.to_string(), "chunk");
        assert_eq!(PartitionPolicy::Cyclic.to_string(), "cyclic");
        assert_eq!(
            PartitionPolicy::Random { seed: 5 }.to_string(),
            "random(seed=5)"
        );
        assert_eq!(
            PartitionPolicy::RandomWithinGroups { seed: 2 }.to_string(),
            "random-within-groups(seed=2)"
        );
    }

    #[test]
    fn weighted_equal_weights_matches_cyclic_counts() {
        let g = grouping(20);
        let w = partition_weighted_cyclic(&g, &[1.0; 4]);
        w.validate(20).unwrap();
        let (min, max) = w.load_spread();
        assert!(max - min <= 1);
    }

    #[test]
    fn weighted_shares_proportional() {
        let g = grouping(100);
        let w = partition_weighted_cyclic(&g, &[2.0, 1.0, 1.0]);
        w.validate(100).unwrap();
        assert_eq!(w.rank(0).len(), 50);
        assert_eq!(w.rank(1).len(), 25);
        assert_eq!(w.rank(2).len(), 25);
    }

    #[test]
    fn weighted_interleaves_like_cyclic() {
        // With equal weights, the fast deterministic rule deals in a
        // rotating pattern — early ids spread across all ranks.
        let g = grouping(12);
        let w = partition_weighted_cyclic(&g, &[1.0, 1.0, 1.0]);
        for m in 0..3 {
            assert!(
                w.rank(m).iter().any(|&id| id < 3),
                "rank {m} got no early id"
            );
        }
    }

    #[test]
    fn weighted_is_deterministic() {
        let g = grouping(37);
        let a = partition_weighted_cyclic(&g, &[1.0, 0.5, 0.25]);
        let b = partition_weighted_cyclic(&g, &[1.0, 0.5, 0.25]);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn weighted_rejects_nonpositive() {
        partition_weighted_cyclic(&grouping(4), &[1.0, 0.0]);
    }
}
