//! Peptide-precursor-mass filtration (§II-A.1) — the classical search-space
//! restriction and the first of the paper's three filtration families.
//!
//! The index is just the peptide table sorted by neutral mass; a query
//! selects the contiguous run within `±ΔM` of its precursor and scores only
//! those candidates. Fast and tiny, but blind to unknown modifications (the
//! "dark matter" §I discusses) unless ΔM is opened to hundreds of Daltons —
//! at which point the run covers most of the database.
//!
//! LBE relevance (§III-C): "if the underlying algorithm filters reference
//! data based on precursor masses, then the LBE must ensure identical
//! average peptide precursor mass across the system" — i.e. the grouping
//! key becomes mass, not sequence similarity. See
//! `lbe_core::grouping::group_peptides_by_mass`.
//!
//! Reached by: the `filtration_methods` figure binary (`crates/bench`) and
//! `tests/filtration_and_formats.rs`, as the baseline the SLM path is
//! compared with. No search path of `lbe` itself uses it; it stays as long
//! as that binary does.

use lbe_bio::peptide::PeptideDb;
use lbe_spectra::spectrum::Spectrum;

/// A precursor-mass index: peptide ids sorted by neutral mass.
#[derive(Debug, Clone, PartialEq)]
pub struct PrecursorIndex {
    /// Peptide ids in ascending-mass order.
    ids: Vec<u32>,
    /// Masses aligned with `ids` (separate array: the binary search touches
    /// only this, cache-friendly).
    masses: Vec<f64>,
}

/// Work counters for one precursor-window query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PrecursorQueryStats {
    /// Candidates inside the window.
    pub candidates: u64,
    /// Binary-search probes (O(log n), counted for the cost model).
    pub probes: u64,
}

impl PrecursorIndex {
    /// Builds the index from a peptide database.
    pub fn build(db: &PeptideDb) -> Self {
        let mut order: Vec<(u32, f64)> = db.iter().map(|(id, p)| (id, p.mass())).collect();
        order.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite masses"));
        let ids = order.iter().map(|&(id, _)| id).collect();
        let masses = order.iter().map(|&(_, m)| m).collect();
        PrecursorIndex { ids, masses }
    }

    /// Number of indexed peptides.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` if empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Peptide ids with mass in `[lo, hi]`, as a slice of the sorted order.
    pub fn mass_range(&self, lo: f64, hi: f64) -> &[u32] {
        let start = self.masses.partition_point(|&m| m < lo);
        let end = self.masses.partition_point(|&m| m <= hi);
        &self.ids[start..end]
    }

    /// Candidates for `query` at precursor tolerance `±tol` Daltons.
    pub fn candidates(&self, query: &Spectrum, tol: f64) -> (&[u32], PrecursorQueryStats) {
        let m = query.precursor_neutral_mass();
        let slice = self.mass_range(m - tol, m + tol);
        let stats = PrecursorQueryStats {
            candidates: slice.len() as u64,
            probes: 2 * (usize::BITS - self.len().leading_zeros()).max(1) as u64,
        };
        (slice, stats)
    }

    /// Heap bytes (footprint accounting).
    pub fn heap_bytes(&self) -> usize {
        self.ids.capacity() * std::mem::size_of::<u32>()
            + self.masses.capacity() * std::mem::size_of::<f64>()
    }

    /// Mean neutral mass of the indexed peptides (the sketch statistic LBE
    /// balances for this filtration family).
    pub fn mean_mass(&self) -> f64 {
        if self.masses.is_empty() {
            0.0
        } else {
            self.masses.iter().sum::<f64>() / self.masses.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbe_bio::aa::precursor_mz;
    use lbe_bio::peptide::Peptide;
    use lbe_spectra::spectrum::Spectrum;

    fn db() -> PeptideDb {
        PeptideDb::from_vec(
            ["GGGGGK", "AAAGGK", "PEPTIDEK", "ELVISLIVESK", "WWWWWWK"]
                .iter()
                .map(|s| Peptide::new(s.as_bytes(), 0, 0).unwrap())
                .collect(),
        )
    }

    fn query_at(mass: f64) -> Spectrum {
        Spectrum::new(0, precursor_mz(mass, 2), 2, vec![])
    }

    #[test]
    fn sorted_by_mass() {
        let idx = PrecursorIndex::build(&db());
        assert_eq!(idx.len(), 5);
        let masses: Vec<f64> = idx.ids.iter().map(|&id| db().get(id).mass()).collect();
        assert!(masses.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn window_selects_correct_peptides() {
        let d = db();
        let idx = PrecursorIndex::build(&d);
        let target = d.get(2).mass(); // PEPTIDEK
        let (cands, stats) = idx.candidates(&query_at(target), 0.5);
        assert_eq!(cands, &[2]);
        assert_eq!(stats.candidates, 1);
    }

    #[test]
    fn wide_window_selects_everything() {
        let d = db();
        let idx = PrecursorIndex::build(&d);
        let (cands, _) = idx.candidates(&query_at(1000.0), 5000.0);
        assert_eq!(cands.len(), d.len());
    }

    #[test]
    fn empty_window() {
        let idx = PrecursorIndex::build(&db());
        let (cands, stats) = idx.candidates(&query_at(50.0), 0.1);
        assert!(cands.is_empty());
        assert_eq!(stats.candidates, 0);
    }

    #[test]
    fn boundaries_inclusive() {
        let d = db();
        let idx = PrecursorIndex::build(&d);
        let m = d.get(0).mass();
        let r = idx.mass_range(m, m);
        assert_eq!(r, &[0]);
    }

    #[test]
    fn modified_peptide_missed_by_closed_search() {
        // The §II-A.1 caveat: a +114 Da GG adduct pushes the precursor out
        // of a tight window even though the peptide is in the database.
        let d = db();
        let idx = PrecursorIndex::build(&d);
        let modified_mass = d.get(2).mass() + 114.042_927;
        let (cands, _) = idx.candidates(&query_at(modified_mass), 0.5);
        assert!(!cands.contains(&2));
        // Open search (ΔM = 500) recovers it.
        let (cands, _) = idx.candidates(&query_at(modified_mass), 500.0);
        assert!(cands.contains(&2));
    }

    #[test]
    fn empty_db() {
        let idx = PrecursorIndex::build(&PeptideDb::new());
        assert!(idx.is_empty());
        assert_eq!(idx.mean_mass(), 0.0);
        assert!(idx.mass_range(0.0, 1e9).is_empty());
    }

    #[test]
    fn mean_mass_reasonable() {
        let d = db();
        let idx = PrecursorIndex::build(&d);
        let expect: f64 = d.peptides().iter().map(|p| p.mass()).sum::<f64>() / 5.0;
        assert!((idx.mean_mass() - expect).abs() < 1e-9);
    }

    #[test]
    fn heap_bytes_counts_both_arrays() {
        let idx = PrecursorIndex::build(&db());
        assert!(idx.heap_bytes() >= 5 * (4 + 8));
    }
}
