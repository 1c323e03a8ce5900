//! Sequence-tag filtration (§II-A.2) — the paper's second filtration family
//! (GutenTag/InsPecT/pFind lineage).
//!
//! A *tag* is a short amino-acid substring read directly off the spectrum:
//! consecutive fragment peaks whose m/z differences match residue masses.
//! The database side is a k-mer index (tag → peptides containing it); the
//! search space is restricted to peptides containing at least one extracted
//! tag.
//!
//! Implementation: a 3-mer index over the peptide database (3 is the
//! classical tag length), plus spectrum-side tag extraction by chaining
//! peak-pair gaps that match residue masses within tolerance.
//!
//! Reached by: the `filtration_methods` figure binary (`crates/bench`,
//! through [`TagIndex`]) and `tests/filtration_and_formats.rs`, as the
//! second baseline the SLM path is compared with. No search path of `lbe`
//! itself uses it; it stays as long as that binary does.

use lbe_bio::aa::{monoisotopic_residue_mass, STANDARD_AMINO_ACIDS};
use lbe_bio::peptide::PeptideDb;
use lbe_spectra::spectrum::Spectrum;
use std::collections::HashMap;

/// Tag length (classical choice).
pub const TAG_LEN: usize = 3;

/// A k-mer → peptide-ids index for tag-based filtration.
#[derive(Debug, Clone, Default)]
pub struct TagIndex {
    /// 3-mer (packed as 3 ASCII bytes) → sorted peptide ids.
    kmers: HashMap<[u8; TAG_LEN], Vec<u32>>,
    peptides: usize,
}

/// Work counters for one tag query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TagQueryStats {
    /// Tags extracted from the spectrum.
    pub tags_extracted: u64,
    /// k-mer lookups performed (tags × 2 directions).
    pub lookups: u64,
    /// Candidate peptides after deduplication.
    pub candidates: u64,
}

impl TagIndex {
    /// Builds the 3-mer index over `db`.
    pub fn build(db: &PeptideDb) -> Self {
        let mut kmers: HashMap<[u8; TAG_LEN], Vec<u32>> = HashMap::new();
        for (id, pep) in db.iter() {
            let seq = pep.sequence();
            if seq.len() < TAG_LEN {
                continue;
            }
            for w in seq.windows(TAG_LEN) {
                let key = [w[0], w[1], w[2]];
                let entry = kmers.entry(key).or_default();
                // Windows of one peptide arrive consecutively — dedup cheaply.
                if entry.last() != Some(&id) {
                    entry.push(id);
                }
            }
        }
        TagIndex {
            kmers,
            peptides: db.len(),
        }
    }

    /// Number of distinct k-mers indexed.
    pub fn num_kmers(&self) -> usize {
        self.kmers.len()
    }

    /// Number of peptides indexed.
    pub fn num_peptides(&self) -> usize {
        self.peptides
    }

    /// Peptides containing `tag` (empty if unseen).
    pub fn peptides_with(&self, tag: &[u8; TAG_LEN]) -> &[u32] {
        self.kmers.get(tag).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Filters the search space for `query`: extracts tags, unions the
    /// posting lists of each tag **and its reverse** (b vs y series read in
    /// opposite directions), and returns deduplicated candidate ids.
    pub fn candidates(&self, query: &Spectrum, tol: f64) -> (Vec<u32>, TagQueryStats) {
        let tags = extract_tags(query, tol);
        let mut stats = TagQueryStats {
            tags_extracted: tags.len() as u64,
            ..Default::default()
        };
        let mut out: Vec<u32> = Vec::new();
        for tag in &tags {
            let mut rev = *tag;
            rev.reverse();
            for t in [tag, &rev] {
                stats.lookups += 1;
                out.extend_from_slice(self.peptides_with(t));
            }
        }
        out.sort_unstable();
        out.dedup();
        stats.candidates = out.len() as u64;
        (out, stats)
    }

    /// Heap bytes (footprint accounting).
    pub fn heap_bytes(&self) -> usize {
        self.kmers
            .values()
            .map(|v| TAG_LEN + std::mem::size_of::<Vec<u32>>() + v.capacity() * 4)
            .sum()
    }
}

/// Reads sequence tags of [`TAG_LEN`] residues from a spectrum: chains of
/// `TAG_LEN` consecutive peak gaps each matching one residue mass `±tol`.
///
/// Both b- and y-series ladders produce valid chains; the caller matches
/// tags in both orientations.
pub fn extract_tags(query: &Spectrum, tol: f64) -> Vec<[u8; TAG_LEN]> {
    let peaks = &query.peaks;
    let n = peaks.len();
    if n < TAG_LEN + 1 {
        return Vec::new();
    }
    // edge[i] = (j, residue) meaning peak i → peak j reads `residue`.
    let mut edges: Vec<Vec<(usize, u8)>> = vec![Vec::new(); n];
    for i in 0..n {
        for j in (i + 1)..n {
            let gap = peaks[j].mz - peaks[i].mz;
            if gap > 200.0 {
                break; // peaks sorted: gaps only grow
            }
            if let Some(res) = residue_for_gap(gap, tol) {
                edges[i].push((j, res));
            }
        }
    }
    // Walk chains of length TAG_LEN.
    let mut tags = Vec::new();
    for start in 0..n {
        for &(j, r1) in &edges[start] {
            for &(k, r2) in &edges[j] {
                for &(_, r3) in &edges[k] {
                    tags.push([r1, r2, r3]);
                }
            }
        }
    }
    tags.sort_unstable();
    tags.dedup();
    tags
}

/// The standard residue whose mass matches `gap` within `±tol`, if any.
/// I and L are isobaric; L is returned (tag matching treats them alike
/// because the k-mer index stores sequences as digested, and callers who
/// care can canonicalize).
fn residue_for_gap(gap: f64, tol: f64) -> Option<u8> {
    let mut best: Option<(f64, u8)> = None;
    for &aa in &STANDARD_AMINO_ACIDS {
        if aa == b'I' {
            continue; // isobaric with L
        }
        let m = monoisotopic_residue_mass(aa).expect("standard residue");
        let d = (m - gap).abs();
        if d <= tol && best.map(|(bd, _)| d < bd).unwrap_or(true) {
            best = Some((d, aa));
        }
    }
    best.map(|(_, aa)| aa)
}

/// Canonicalizes a sequence for tag matching (I → L), used when building
/// databases whose tags must match spectrum-derived tags.
pub fn canonicalize_il(seq: &[u8]) -> Vec<u8> {
    seq.iter()
        .map(|&c| if c == b'I' { b'L' } else { c })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbe_bio::mods::{ModForm, ModSpec};
    use lbe_bio::peptide::Peptide;
    use lbe_spectra::spectrum::Peak;
    use lbe_spectra::theo::{TheoParams, TheoSpectrum};

    fn db(seqs: &[&str]) -> PeptideDb {
        PeptideDb::from_vec(
            seqs.iter()
                .map(|s| Peptide::new(s.as_bytes(), 0, 0).unwrap())
                .collect(),
        )
    }

    fn perfect_query(seq: &[u8]) -> Spectrum {
        let theo = TheoSpectrum::from_sequence(
            seq,
            &ModForm::unmodified(),
            &ModSpec::none(),
            &TheoParams::default(),
        );
        let peaks = theo
            .fragment_mzs
            .iter()
            .map(|&m| Peak::new(m, 10.0))
            .collect();
        Spectrum::new(
            0,
            lbe_bio::aa::precursor_mz(theo.precursor_mass, 2),
            2,
            peaks,
        )
    }

    #[test]
    fn index_holds_all_kmers() {
        let d = db(&["PEPTIDEK"]);
        let idx = TagIndex::build(&d);
        assert_eq!(idx.num_kmers(), 6); // PEP EPT PTI TID IDE DEK
        assert_eq!(idx.peptides_with(b"PEP"), &[0]);
        assert_eq!(idx.peptides_with(b"DEK"), &[0]);
        assert!(idx.peptides_with(b"AAA").is_empty());
    }

    #[test]
    fn repeated_kmer_not_duplicated() {
        let d = db(&["AAAAAAK"]);
        let idx = TagIndex::build(&d);
        assert_eq!(idx.peptides_with(b"AAA"), &[0]);
    }

    #[test]
    fn short_peptides_skipped() {
        // PeptideDb entries shorter than TAG_LEN can't contribute k-mers.
        let d = db(&["AK", "PEPTIDEK"]);
        let idx = TagIndex::build(&d);
        assert_eq!(idx.num_peptides(), 2);
        assert!(idx.kmers.values().all(|v| v == &[1]));
    }

    #[test]
    fn extract_tags_reads_residue_ladders() {
        // A clean b-ion ladder of GASK yields tags from its gaps.
        let q = perfect_query(b"GASSAK");
        let tags = extract_tags(&q, 0.01);
        assert!(!tags.is_empty());
        // All tags are standard residues.
        for t in &tags {
            assert!(t.iter().all(|&c| c.is_ascii_uppercase()));
        }
    }

    #[test]
    fn tags_find_true_peptide() {
        let d = db(&["GASSAYK", "WWFFHHK", "PEPTLDEK"]);
        let idx = TagIndex::build(&d);
        let (cands, stats) = idx.candidates(&perfect_query(b"GASSAYK"), 0.01);
        assert!(cands.contains(&0), "{cands:?}");
        assert!(stats.tags_extracted > 0);
        assert_eq!(stats.candidates, cands.len() as u64);
    }

    #[test]
    fn unrelated_peptides_filtered_out() {
        let d = db(&["GASSAYK", "WWFFHHK"]);
        let idx = TagIndex::build(&d);
        let (cands, _) = idx.candidates(&perfect_query(b"GASSAYK"), 0.01);
        // WWFFHHK shares no 3-mer with GASSAYK's ladder tags.
        assert!(!cands.contains(&1), "{cands:?}");
    }

    #[test]
    fn empty_spectrum_no_tags() {
        let q = Spectrum::new(0, 500.0, 2, vec![]);
        assert!(extract_tags(&q, 0.01).is_empty());
        let idx = TagIndex::build(&db(&["PEPTIDEK"]));
        let (cands, stats) = idx.candidates(&q, 0.01);
        assert!(cands.is_empty());
        assert_eq!(stats.tags_extracted, 0);
    }

    #[test]
    fn residue_gap_matching() {
        assert_eq!(residue_for_gap(57.0215, 0.01), Some(b'G'));
        assert_eq!(residue_for_gap(186.079, 0.01), Some(b'W'));
        assert_eq!(residue_for_gap(113.084, 0.01), Some(b'L')); // I→L canonical
        assert_eq!(residue_for_gap(300.0, 0.01), None);
        assert_eq!(residue_for_gap(57.5, 0.01), None);
    }

    #[test]
    fn canonicalize_maps_i_to_l() {
        assert_eq!(canonicalize_il(b"LIVID"), b"LLVLD");
    }

    #[test]
    fn tolerance_widens_matches() {
        // K (128.095) vs Q (128.059): 0.02 tol separates, 0.05 may not —
        // the closest residue still wins deterministically.
        let k = residue_for_gap(128.0949, 0.02).unwrap();
        assert_eq!(k, b'K');
        let q = residue_for_gap(128.0586, 0.02).unwrap();
        assert_eq!(q, b'Q');
    }

    #[test]
    fn heap_bytes_positive() {
        let idx = TagIndex::build(&db(&["PEPTIDEK", "GASSAYK"]));
        assert!(idx.heap_bytes() > 0);
    }
}
