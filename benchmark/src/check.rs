//! Correctness checks run inside every benchmark run. A failed check
//! fails its workload: a fast wrong answer is not a result.

use crate::json::{obj, Json};
use lbe_bio::mods::{enumerate_modforms, ModSpec};
use lbe_bio::peptide::PeptideDb;
use lbe_index::query::brute_force_shared_peaks;
use lbe_index::{QueryOptions, ScanMode, Searcher, SlmConfig, SlmIndex};
use lbe_spectra::spectrum::Spectrum;
use lbe_spectra::theo::TheoSpectrum;
use std::collections::BTreeMap;

/// Outcome of one named check.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    pub name: String,
    /// Items compared (queries, responses, PSM lists).
    pub compared: u64,
    /// Items that disagreed; the check passed iff this is 0.
    pub disagreed: u64,
}

impl Check {
    pub fn new(name: impl Into<String>, compared: u64, disagreed: u64) -> Self {
        Check {
            name: name.into(),
            compared,
            disagreed,
        }
    }

    pub fn passed(&self) -> bool {
        self.disagreed == 0 && self.compared > 0
    }

    pub fn to_json(&self) -> Json {
        obj([
            ("name", self.name.as_str().into()),
            ("compared", self.compared.into()),
            ("disagreed", self.disagreed.into()),
        ])
    }
}

/// `ScanMode::Auto` ≡ `ScanMode::FullScan` (PSMs and candidate counts) on
/// `queries` at precursor tolerance `tol`.
pub fn auto_equals_full_scan(index: &SlmIndex, queries: &[Spectrum], tol: f64) -> Check {
    let mut searcher = Searcher::new(index);
    let opts = |scan_mode| QueryOptions {
        scan_mode,
        precursor_tolerance: Some(tol),
        ..Default::default()
    };
    let mut disagreed = 0;
    for q in queries {
        let auto = searcher.search_with_opts(q, &opts(ScanMode::Auto));
        let full = searcher.search_with_opts(q, &opts(ScanMode::FullScan));
        if auto.psms != full.psms || auto.stats.candidates != full.stats.candidates {
            disagreed += 1;
        }
    }
    Check::new(
        format!("Auto == FullScan at dM={tol}"),
        queries.len() as u64,
        disagreed,
    )
}

/// How many index entries the brute-force check re-derives per query. A
/// stride over the mass-sorted entry table, so every mass region and both
/// sides of every band edge are sampled.
const BRUTE_SAMPLE: usize = 2048;

/// The index ≡ the O(peaks × fragments) reference on `queries` at `tol`:
/// with top-k unbounded, a sampled entry is among the PSMs exactly when
/// the reference admits its precursor mass and counts at least the
/// shared-peak threshold, and then with the reference's count. Every
/// entry the search *did* return is checked too.
pub fn index_equals_brute_force(
    index: &SlmIndex,
    db: &PeptideDb,
    modspec: &ModSpec,
    queries: &[Spectrum],
    tol: f64,
) -> Check {
    let cfg: &SlmConfig = index.config();
    let entries = index.entries();
    let stride = entries.len().div_ceil(BRUTE_SAMPLE).max(1);
    let mut searcher = Searcher::new(index);
    let opts = QueryOptions {
        precursor_tolerance: Some(tol),
        top_k: Some(usize::MAX),
        ..Default::default()
    };
    let mut disagreed = 0;
    for q in queries {
        let found: BTreeMap<(u32, u16), u16> = searcher
            .search_with_opts(q, &opts)
            .psms
            .iter()
            .map(|p| ((p.peptide, p.modform), p.shared_peaks))
            .collect();
        let qm = q.precursor_neutral_mass();
        let sampled = entries.iter().step_by(stride);
        let returned = entries
            .iter()
            .filter(|e| found.contains_key(&(e.peptide, e.modform)))
            .take(64);
        let ok = sampled.chain(returned).all(|e| {
            let seq = db.get(e.peptide).sequence();
            let form = &enumerate_modforms(seq, modspec)[e.modform as usize];
            let theo = TheoSpectrum::from_sequence(seq, form, modspec, &cfg.theo);
            let shared = brute_force_shared_peaks(cfg, q, &theo);
            let admitted = SlmConfig::precursor_admits_with(tol, qm, f64::from(e.precursor_mass));
            let expected = (admitted && shared >= cfg.shared_peak_threshold).then_some(shared);
            found.get(&(e.peptide, e.modform)).copied() == expected
        });
        if !ok {
            disagreed += 1;
        }
    }
    Check::new(
        format!("index == brute force at dM={tol}"),
        queries.len() as u64,
        disagreed,
    )
}
