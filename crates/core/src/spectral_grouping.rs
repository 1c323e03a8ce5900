//! Spectra-level grouping — the paper's §III-C future direction.
//!
//! Algorithm 1 groups by *sequence* similarity, which under-estimates how
//! different a heavily modified variant's spectrum is ("the modified variant
//! theoretical spectra may be very different if they have multiple
//! modifications or even single modification at or near either N- or
//! C-terminus"). The paper suggests clustering "at spectra level instead of
//! peptide sequence level" as future work; this module implements that:
//! greedy grouping (same shape as Algorithm 1, so the partitioner is
//! unchanged) with similarity measured as **quantized-bin Jaccard overlap**
//! between theoretical spectra — exactly the quantity shared-peak filtration
//! responds to.
//!
//! Because the measure operates on the same bins the index queries, two
//! peptides land in one group *iff* their indexed spectra genuinely collide
//! with the same queries — sequence similarity is only a proxy for that.
//!
//! Reached by: the `ablation_grouping` figure binary (`crates/bench`) only.
//! No CLI command or engine path groups at spectra level; the module stays
//! as long as that binary does.

use crate::grouping::Grouping;
use lbe_bio::mods::{ModForm, ModSpec};
use lbe_bio::peptide::PeptideDb;
use lbe_index::SlmConfig;
use lbe_spectra::theo::TheoSpectrum;

/// Parameters for spectra-level grouping.
#[derive(Debug, Clone, PartialEq)]
pub struct SpectralGroupingParams {
    /// Minimum Jaccard overlap of quantized fragment bins for a spectrum to
    /// join the current group's seed.
    pub min_jaccard: f64,
    /// Maximum group size (as in Algorithm 1).
    pub gsize: usize,
    /// Quantization taken from the index configuration so grouping and
    /// filtration agree on what "shared" means.
    pub slm: SlmConfig,
}

impl Default for SpectralGroupingParams {
    fn default() -> Self {
        SpectralGroupingParams {
            min_jaccard: 0.5,
            gsize: 20,
            slm: SlmConfig::default(),
        }
    }
}

/// Quantized fragment-bin set of one peptide's *unmodified* theoretical
/// spectrum (sorted, deduplicated).
fn bin_set(seq: &[u8], cfg: &SlmConfig) -> Vec<u32> {
    let theo =
        TheoSpectrum::from_sequence(seq, &ModForm::unmodified(), &ModSpec::none(), &cfg.theo);
    let mut bins: Vec<u32> = theo
        .fragment_mzs
        .iter()
        .filter_map(|&mz| cfg.bin_of(mz))
        .collect();
    bins.sort_unstable();
    bins.dedup();
    bins
}

/// Jaccard overlap of two sorted bin sets.
pub fn jaccard(a: &[u32], b: &[u32]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let (mut i, mut j, mut inter) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

/// Groups peptides by theoretical-spectrum similarity.
///
/// Traversal order is the same sort as Algorithm 1 (length, then lex) so
/// near-identical sequences — which necessarily have near-identical spectra
/// — are adjacent and the greedy pass finds them; the *admission test* is
/// spectral, so sequence-similar pairs whose spectra diverge are split.
pub fn group_spectra(db: &PeptideDb, params: &SpectralGroupingParams) -> Grouping {
    assert!(params.gsize >= 1, "gsize must be at least 1");
    assert!((0.0..=1.0).contains(&params.min_jaccard));
    let mut order: Vec<u32> = (0..db.len() as u32).collect();
    order.sort_by(|&a, &b| {
        let (pa, pb) = (db.get(a), db.get(b));
        pa.len()
            .cmp(&pb.len())
            .then_with(|| pa.sequence().cmp(pb.sequence()))
    });

    let mut group_sizes: Vec<u32> = Vec::new();
    if order.is_empty() {
        return Grouping { order, group_sizes };
    }
    let mut seed_bins = bin_set(db.get(order[0]).sequence(), &params.slm);
    group_sizes.push(1);
    for &id in &order[1..] {
        let bins = bin_set(db.get(id).sequence(), &params.slm);
        let current = group_sizes.last_mut().expect("at least one group");
        if *current as usize >= params.gsize || jaccard(&seed_bins, &bins) < params.min_jaccard {
            seed_bins = bins;
            group_sizes.push(1);
        } else {
            *current += 1;
        }
    }
    Grouping { order, group_sizes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbe_bio::peptide::Peptide;

    fn db(seqs: &[&str]) -> PeptideDb {
        PeptideDb::from_vec(
            seqs.iter()
                .map(|s| Peptide::new(s.as_bytes(), 0, 0).unwrap())
                .collect(),
        )
    }

    #[test]
    fn jaccard_basics() {
        assert_eq!(jaccard(&[], &[]), 1.0);
        assert_eq!(jaccard(&[1, 2, 3], &[1, 2, 3]), 1.0);
        assert_eq!(jaccard(&[1, 2], &[3, 4]), 0.0);
        assert!((jaccard(&[1, 2, 3], &[2, 3, 4]) - 0.5).abs() < 1e-12);
        assert_eq!(jaccard(&[1], &[]), 0.0);
    }

    #[test]
    fn identical_spectra_grouped() {
        // I and L are isobaric: identical spectra despite different sequences.
        let d = db(&["ELVISLIVESK", "ELVISLIVESK", "ELVLSLLVESK"]);
        let g = group_spectra(&d, &SpectralGroupingParams::default());
        g.validate().unwrap();
        assert_eq!(g.num_groups(), 1, "{:?}", g.group_sizes);
    }

    #[test]
    fn dissimilar_spectra_split() {
        let d = db(&["GGGGGGK", "WWYYFFK"]);
        let g = group_spectra(&d, &SpectralGroupingParams::default());
        assert_eq!(g.num_groups(), 2);
    }

    #[test]
    fn one_substitution_costs_half_the_bins() {
        // A single substitution changes every b ion past it and every y ion
        // covering it — together exactly half the fragments, wherever it
        // sits. Jaccard of the bin sets is therefore ≈ (n/2)/(3n/2) = 1/3.
        for (a, b) in [
            (&b"AAAAGAAAK"[..], &b"AAAAWAAAK"[..]), // mid
            (&b"GAAAAAAAK"[..], &b"WAAAAAAAK"[..]), // N-terminal
        ] {
            let j = jaccard(
                &bin_set(a, &SlmConfig::default()),
                &bin_set(b, &SlmConfig::default()),
            );
            assert!((0.2..0.5).contains(&j), "jaccard {j} for {a:?} vs {b:?}");
        }
    }

    #[test]
    fn spectral_criterion_stricter_than_sequence() {
        // SAMPLEK vs SAMPLER: edit distance 1 — Algorithm 1 (d = 2) groups
        // them. Their spectra share only the b-series (y's all shift), so
        // Jaccard ≈ 6/20 < 0.5 and the spectral grouping splits them:
        // exactly the refinement the paper's future-work remark is after.
        let d = db(&["SAMPLEK", "SAMPLER"]);
        let seq_g = crate::grouping::group_peptides(
            &d,
            &crate::grouping::GroupingParams {
                criterion: crate::grouping::GroupingCriterion::Absolute { d: 2 },
                gsize: 20,
            },
        );
        assert_eq!(seq_g.num_groups(), 1);
        let spec_g = group_spectra(&d, &SpectralGroupingParams::default());
        assert_eq!(spec_g.num_groups(), 2);
    }

    #[test]
    fn gsize_respected() {
        let seqs: Vec<String> = (0..9).map(|_| "SAMPLEK".to_string()).collect();
        let refs: Vec<&str> = seqs.iter().map(String::as_str).collect();
        let g = group_spectra(
            &db(&refs),
            &SpectralGroupingParams {
                gsize: 4,
                ..Default::default()
            },
        );
        g.validate().unwrap();
        assert!(g.group_sizes.iter().all(|&s| s <= 4));
    }

    #[test]
    fn threshold_one_requires_identity() {
        let d = db(&["SAMPLEK", "SAMPLER"]);
        let g = group_spectra(
            &d,
            &SpectralGroupingParams {
                min_jaccard: 1.0,
                ..Default::default()
            },
        );
        assert_eq!(g.num_groups(), 2);
    }

    #[test]
    fn threshold_zero_groups_everything_up_to_gsize() {
        let d = db(&["GGGGGGK", "WWYYFFK", "PEPTIDEK"]);
        let g = group_spectra(
            &d,
            &SpectralGroupingParams {
                min_jaccard: 0.0,
                ..Default::default()
            },
        );
        assert_eq!(g.num_groups(), 1);
    }

    #[test]
    fn empty_db() {
        let g = group_spectra(&PeptideDb::new(), &SpectralGroupingParams::default());
        g.validate().unwrap();
        assert_eq!(g.num_groups(), 0);
    }

    #[test]
    fn output_partitionable() {
        use crate::partition::{partition_groups, PartitionPolicy};
        let d = db(&[
            "ELVISLIVESK",
            "ELVLSLLVESK",
            "GGGGGGK",
            "PEPTIDEK",
            "PEPTIDER",
        ]);
        let g = group_spectra(&d, &SpectralGroupingParams::default());
        let p = partition_groups(&g, 3, PartitionPolicy::Cyclic);
        p.validate(5).unwrap();
    }
}
