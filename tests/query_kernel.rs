//! Banded query kernel equivalence over the checked-in real-format corpus
//! (`tests/data/`): the precursor-banded scan, the full-bin scan, and the
//! O(peaks × fragments) brute force must agree on every finding across a
//! precursor-tolerance sweep — including the open-search edge where the
//! band covers the whole index, and bands that admit zero entries. Plus
//! the CI smoke assertion: at 1 Da the banded kernel scans strictly fewer
//! postings than the full scan on this corpus.

use lbe::bio::digest::DigestParams;
use lbe::bio::mods::{ModForm, ModSpec};
use lbe::bio::peptide::PeptideDb;
use lbe::core::ingest::{load_proteome_digested, load_queries};
use lbe::index::query::brute_force_shared_peaks;
use lbe::index::{IndexBuilder, QueryOptions, ScanMode, Searcher, SlmConfig};
use lbe::spectra::preprocess::PreprocessParams;
use lbe::spectra::spectrum::Spectrum;
use lbe::spectra::theo::TheoSpectrum;
use proptest::prelude::*;
use std::sync::OnceLock;

/// The whole-bin reference path the banded kernel is held to.
const FULL_SCAN: QueryOptions = QueryOptions {
    scan_mode: ScanMode::FullScan,
    top_k: None,
    precursor_tolerance: None,
};

fn data(name: &str) -> String {
    format!("{}/tests/data/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// Corpus fixture: digested peptide db + the 24 preprocessed query spectra,
/// streamed from the checked-in real-format files once per process.
fn corpus() -> &'static (PeptideDb, Vec<Spectrum>) {
    static CORPUS: OnceLock<(PeptideDb, Vec<Spectrum>)> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let (db, _) =
            load_proteome_digested(data("corpus.fasta"), &DigestParams::default()).unwrap();
        let (queries, _) = load_queries(data("corpus.mgf"), &PreprocessParams::default()).unwrap();
        assert_eq!(queries.len(), 24);
        (db, queries)
    })
}

/// Exhaustive config: every shared peak is a candidate and nothing is
/// truncated, so the three implementations can be compared PSM-for-PSM.
fn exhaustive_cfg(tolerance: f64) -> SlmConfig {
    SlmConfig {
        precursor_tolerance: tolerance,
        shared_peak_threshold: 1,
        top_k: usize::MAX,
        ..SlmConfig::default()
    }
}

/// Asserts banded == full-scan == brute force on the whole corpus at one
/// precursor tolerance. Returns accumulated (banded, full) postings
/// scanned for callers that also check work counters.
fn assert_equivalence_at(tolerance: f64) -> (u64, u64) {
    let (db, queries) = corpus();
    let cfg = exhaustive_cfg(tolerance);
    let index = IndexBuilder::new(cfg.clone(), ModSpec::none()).build(db);
    let mut searcher = Searcher::new(&index);
    let mut scanned = (0u64, 0u64);
    for q in queries {
        let banded = searcher.search(q);
        let full = searcher.search_with_opts(q, &FULL_SCAN);
        // The two kernel paths: identical findings, identical candidate
        // counts; only the scanned/skipped split may differ.
        assert_eq!(banded.psms, full.psms, "scan {} @ ΔM {tolerance}", q.scan);
        assert_eq!(banded.stats.candidates, full.stats.candidates);
        assert_eq!(banded.stats.bins_touched, full.stats.bins_touched);
        assert_eq!(
            banded.stats.postings_scanned + banded.stats.postings_skipped_by_band,
            full.stats.postings_scanned,
            "every bin posting is either scanned or accounted as skipped"
        );
        scanned.0 += banded.stats.postings_scanned;
        scanned.1 += full.stats.postings_scanned;

        // Brute force, per peptide: expected shared-peak count and
        // admission.
        let qm = q.precursor_neutral_mass();
        for (pid, pep) in db.iter() {
            let theo = TheoSpectrum::from_sequence(
                pep.sequence(),
                &ModForm::unmodified(),
                &ModSpec::none(),
                &cfg.theo,
            );
            let shared = brute_force_shared_peaks(&cfg, q, &theo);
            let admitted = cfg.precursor_admits(qm, theo.precursor_mass as f32 as f64);
            let found = banded.psms.iter().find(|p| p.peptide == pid);
            match found {
                Some(p) => {
                    assert!(admitted, "scan {}: peptide {pid} outside ΔM", q.scan);
                    assert_eq!(p.shared_peaks, shared, "scan {} peptide {pid}", q.scan);
                }
                None => assert!(
                    shared == 0 || !admitted,
                    "scan {}: peptide {pid} shares {shared} peaks inside ΔM {tolerance} but was not found",
                    q.scan
                ),
            }
        }
    }
    scanned
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tolerance sweep: for any ΔM from sub-bin to wider than the whole
    /// corpus mass range, banded == full-scan == brute force.
    #[test]
    fn banded_equals_full_scan_equals_brute_force(exp in -3.0f64..4.0) {
        // Log-uniform ΔM in [0.001, 10000] Da: ppm-like windows, the 1 Da
        // acceptance point, open-mod windows, and bands swallowing the
        // whole index all get drawn.
        assert_equivalence_at(10f64.powf(exp));
    }
}

#[test]
fn open_search_edge_band_covers_everything() {
    // ΔM = ∞: Auto takes the full-bin path outright — and a finite band
    // wider than the corpus mass range must agree with it posting for
    // posting (nothing is skippable when everything is admitted).
    let (banded, full) = assert_equivalence_at(f64::INFINITY);
    assert_eq!(banded, full, "open search has nothing to skip");
    let (banded_wide, full_wide) = assert_equivalence_at(1e7);
    assert_eq!(banded_wide, full_wide, "all-covering band skips nothing");
    assert_eq!(full_wide, full, "same full-scan work either way");
}

#[test]
fn empty_band_scans_nothing_but_finds_the_same_nothing() {
    // Shift every query's precursor 5 kDa up: fragment bins still overlap
    // the index, but no entry mass is admissible — the banded kernel must
    // scan zero postings while the full scan still walks the bins.
    let (db, queries) = corpus();
    let cfg = exhaustive_cfg(0.5);
    let index = IndexBuilder::new(cfg, ModSpec::none()).build(db);
    let mut searcher = Searcher::new(&index);
    let mut skipped_total = 0u64;
    for q in queries {
        let mut shifted = q.clone();
        shifted.precursor_mz += 5000.0 / shifted.charge.max(1) as f64;
        let banded = searcher.search(&shifted);
        let full = searcher.search_with_opts(&shifted, &FULL_SCAN);
        assert!(banded.psms.is_empty());
        assert!(full.psms.is_empty());
        assert_eq!(banded.stats.postings_scanned, 0, "scan {}", q.scan);
        assert_eq!(
            banded.stats.postings_skipped_by_band,
            full.stats.postings_scanned
        );
        skipped_total += banded.stats.postings_skipped_by_band;
    }
    assert!(skipped_total > 0, "the corpus peaks do touch occupied bins");
}

/// The CI smoke assertion (cheap, runs in every `cargo test`): at 1 Da the
/// banded kernel must scan strictly fewer postings than the full scan on
/// the checked-in corpus — the whole point of the mass-banded layout.
#[test]
fn smoke_banded_scans_strictly_fewer_postings_at_1da() {
    let (banded, full) = assert_equivalence_at(1.0);
    assert!(
        banded < full,
        "banded kernel scanned {banded} postings, full scan {full} — banding saved nothing"
    );
    println!("corpus @ 1 Da: banded {banded} vs full {full} postings scanned");
}
