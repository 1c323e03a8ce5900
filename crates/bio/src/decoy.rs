//! Decoy peptide generation for target-decoy FDR estimation.
//!
//! Every production search engine (SEQUEST, MSFragger, the SLM-based
//! engines the paper builds on) validates identifications by searching a
//! *decoy* database — sequences that look statistically like real peptides
//! but cannot be in the sample — and estimating the false-discovery rate
//! from how often decoys outscore targets. Two standard constructions:
//!
//! * **Reversal** (the classic): reverse the peptide but keep the C-terminal
//!   residue in place, preserving tryptic character (peptides still end in
//!   K/R) and the precursor mass exactly.
//! * **Shuffling**: permute the interior residues (again fixing the
//!   C-terminus), seeded for reproducibility; used when reversal would
//!   collide with a palindromic target.
//!
//! Reached by: `examples/fdr_search.rs` only (with `lbe_core::fdr`); no CLI
//! command builds a decoy database yet.

use crate::peptide::{Peptide, PeptideDb};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;

/// Decoy construction method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecoyMethod {
    /// Reverse the interior, keep the C-terminal residue.
    Reverse,
    /// Seeded shuffle of the interior, keep the C-terminal residue.
    Shuffle {
        /// Shuffle seed.
        seed: u64,
    },
}

/// Builds the decoy sequence of `seq` under `method`.
pub fn decoy_sequence(seq: &[u8], method: DecoyMethod) -> Vec<u8> {
    if seq.len() <= 2 {
        return seq.to_vec();
    }
    let (interior, last) = seq.split_at(seq.len() - 1);
    let mut out = interior.to_vec();
    match method {
        DecoyMethod::Reverse => out.reverse(),
        DecoyMethod::Shuffle { seed } => {
            // Mix the sequence into the seed so each peptide shuffles
            // differently but reproducibly.
            let mut h: u64 = seed;
            for &c in seq {
                h = h.wrapping_mul(0x100000001B3).wrapping_add(c as u64);
            }
            let mut rng = ChaCha8Rng::seed_from_u64(h);
            out.shuffle(&mut rng);
        }
    }
    out.push(last[0]);
    out
}

/// Statistics from decoy-database generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DecoyStats {
    /// Decoys generated.
    pub generated: usize,
    /// Decoys dropped because they collided with a target sequence
    /// (palindromes and low-complexity peptides).
    pub collisions: usize,
}

/// Generates a decoy database from `targets`. Decoys that collide with any
/// target sequence are dropped (counted in the stats) — the standard
/// conservative treatment.
///
/// Decoy `i` derives from target `i`; the returned db's `protein` field is
/// copied from the target so provenance survives.
pub fn generate_decoys(targets: &PeptideDb, method: DecoyMethod) -> (PeptideDb, DecoyStats) {
    let target_seqs: HashSet<&[u8]> = targets.peptides().iter().map(|p| p.sequence()).collect();
    let mut decoys = Vec::with_capacity(targets.len());
    let mut collisions = 0usize;
    for p in targets.peptides() {
        let d = decoy_sequence(p.sequence(), method);
        if target_seqs.contains(d.as_slice()) {
            collisions += 1;
            continue;
        }
        decoys.push(
            Peptide::new(&d, p.protein(), p.missed_cleavages())
                .expect("decoys reuse standard residues"),
        );
    }
    let stats = DecoyStats {
        generated: decoys.len(),
        collisions,
    };
    (PeptideDb::from_vec(decoys), stats)
}

/// Concatenates targets and decoys into one searchable database, returning
/// `(db, is_decoy)` where `is_decoy[id]` flags decoy entries — the
/// "concatenated target-decoy" search strategy.
pub fn concat_target_decoy(
    targets: &PeptideDb,
    method: DecoyMethod,
) -> (PeptideDb, Vec<bool>, DecoyStats) {
    let (decoys, stats) = generate_decoys(targets, method);
    let mut all: Vec<Peptide> = targets.peptides().to_vec();
    let mut is_decoy = vec![false; targets.len()];
    all.extend(decoys.into_vec());
    is_decoy.resize(all.len(), true);
    (PeptideDb::from_vec(all), is_decoy, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pep(s: &str) -> Peptide {
        Peptide::new(s.as_bytes(), 3, 1).unwrap()
    }

    #[test]
    fn reverse_keeps_cterm_and_mass() {
        let d = decoy_sequence(b"ACDEFK", DecoyMethod::Reverse);
        assert_eq!(d, b"FEDCAK");
        let target = pep("ACDEFK");
        let decoy = Peptide::new(&d, 0, 0).unwrap();
        assert!((target.mass() - decoy.mass()).abs() < 1e-9);
    }

    #[test]
    fn shuffle_keeps_cterm_and_composition() {
        let d = decoy_sequence(b"ACDEFGHIK", DecoyMethod::Shuffle { seed: 5 });
        assert_eq!(*d.last().unwrap(), b'K');
        let mut a = b"ACDEFGHI".to_vec();
        let mut b = d[..d.len() - 1].to_vec();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn shuffle_is_seed_deterministic() {
        let a = decoy_sequence(b"ACDEFGHIK", DecoyMethod::Shuffle { seed: 5 });
        let b = decoy_sequence(b"ACDEFGHIK", DecoyMethod::Shuffle { seed: 5 });
        let c = decoy_sequence(b"ACDEFGHIK", DecoyMethod::Shuffle { seed: 6 });
        assert_eq!(a, b);
        assert_ne!(a, c); // overwhelmingly likely for a 8-residue interior
    }

    #[test]
    fn short_sequences_returned_verbatim() {
        assert_eq!(decoy_sequence(b"AK", DecoyMethod::Reverse), b"AK");
        assert_eq!(decoy_sequence(b"K", DecoyMethod::Reverse), b"K");
    }

    #[test]
    fn palindromic_targets_collide() {
        let targets = PeptideDb::from_vec(vec![pep("AAAAK"), pep("ACDEK")]);
        let (decoys, stats) = generate_decoys(&targets, DecoyMethod::Reverse);
        // AAAAK reversed is AAAAK → collision; ACDEK → EDCAK survives.
        assert_eq!(stats.collisions, 1);
        assert_eq!(decoys.len(), 1);
        assert_eq!(decoys.get(0).sequence(), b"EDCAK");
    }

    #[test]
    fn decoys_preserve_provenance() {
        let targets = PeptideDb::from_vec(vec![pep("ACDEFK")]);
        let (decoys, _) = generate_decoys(&targets, DecoyMethod::Reverse);
        assert_eq!(decoys.get(0).protein(), 3);
        assert_eq!(decoys.get(0).missed_cleavages(), 1);
    }

    #[test]
    fn concat_marks_decoys() {
        let targets = PeptideDb::from_vec(vec![pep("ACDEFK"), pep("GHILMK")]);
        let (db, is_decoy, stats) = concat_target_decoy(&targets, DecoyMethod::Reverse);
        assert_eq!(db.len(), 4);
        assert_eq!(is_decoy, vec![false, false, true, true]);
        assert_eq!(stats.generated, 2);
        // Targets come first with their original ids.
        assert_eq!(db.get(0).sequence(), b"ACDEFK");
        assert_eq!(db.get(2).sequence(), b"FEDCAK");
    }

    #[test]
    fn no_decoy_equals_target_after_filtering() {
        let targets = PeptideDb::from_vec(vec![pep("ACDEFK"), pep("AAAAK"), pep("MNPQRK")]);
        let (db, is_decoy, _) = concat_target_decoy(&targets, DecoyMethod::Reverse);
        let target_set: HashSet<&[u8]> = targets.peptides().iter().map(|p| p.sequence()).collect();
        for (id, p) in db.iter() {
            if is_decoy[id as usize] {
                assert!(!target_set.contains(p.sequence()));
            }
        }
    }
}
