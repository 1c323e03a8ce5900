//! Banded query kernel equivalence over the checked-in real-format corpus
//! (`tests/data/`): the precursor-banded scan, the full-bin scan, and the
//! O(peaks × fragments) brute force must agree on every finding across a
//! precursor-tolerance sweep — including the open-search edge where the
//! band covers the whole index, and bands that admit zero entries. Plus
//! the CI smoke assertion: at 1 Da the banded kernel scans strictly fewer
//! postings than the full scan on this corpus. A synthetic index adds the
//! axes the corpus tests hold fixed — shared-peak threshold, top-k, mapped
//! global ids, exact score ties — and holds the candidate sweep to brute
//! force across threshold × ΔM × scan mode × top-k — at 0.01 Da through
//! the direct arm, which scores a small band from regenerated fragments.

use lbe::bio::aa::precursor_mz;
use lbe::bio::digest::DigestParams;
use lbe::bio::mods::{ModForm, ModSpec};
use lbe::bio::peptide::{Peptide, PeptideDb};
use lbe::core::ingest::{load_proteome_digested, load_queries};
use lbe::index::query::{brute_force_shared_peaks, rank_cmp};
use lbe::index::{IndexBuilder, Psm, QueryOptions, ScanMode, SearchScratch, Searcher, SlmConfig};
use lbe::spectra::preprocess::PreprocessParams;
use lbe::spectra::spectrum::{Peak, Spectrum};
use lbe::spectra::theo::TheoSpectrum;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
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

/// Fixture of the sweep differential below: 320 peptides in 40 families
/// that share a stem (so shared-peak counts run from 1 to a whole ion
/// series and every threshold in the table cuts somewhere), K or R at the
/// C-terminus (so about half of any band shares the query's y1 and nothing
/// else — the sub-threshold majority the sweep has to clear), 8–27 residues
/// (a ±500 Da band is wide but finite). Queries are uniform-intensity
/// theoretical spectra: equal shared-peak counts are exact f32 score ties.
fn synthetic() -> &'static (PeptideDb, Vec<Spectrum>) {
    static SYNTHETIC: OnceLock<(PeptideDb, Vec<Spectrum>)> = OnceLock::new();
    SYNTHETIC.get_or_init(|| {
        const RESIDUES: &[u8] = b"ACDEFGHILMNPQSTVWY";
        let mut rng = ChaCha8Rng::seed_from_u64(0x5EED_1BE5);
        let mut residues = |n: usize| -> Vec<u8> {
            (0..n)
                .map(|_| RESIDUES[rng.gen_range(0..RESIDUES.len())])
                .collect()
        };
        let mut peptides = Vec::new();
        for family in 0..40 {
            let stem = residues(5 + family % 8);
            for member in 0..8 {
                let mut seq = stem.clone();
                seq.extend(residues(2 + (family + 3 * member) % 14));
                seq.push(if member % 2 == 0 { b'K' } else { b'R' });
                peptides.push(Peptide::new(&seq, 0, 0).unwrap());
            }
        }
        let db = PeptideDb::from_vec(peptides);
        let queries = [0u32, 57, 131, 202, 263, 319]
            .iter()
            .map(|&pid| {
                let theo = TheoSpectrum::from_sequence(
                    db.get(pid).sequence(),
                    &ModForm::unmodified(),
                    &ModSpec::none(),
                    &SlmConfig::default().theo,
                );
                let peaks = theo
                    .fragment_mzs
                    .iter()
                    .map(|&mz| Peak::new(mz, 100.0))
                    .collect();
                Spectrum::new(pid, precursor_mz(theo.precursor_mass, 2), 2, peaks)
            })
            .collect();
        (db, queries)
    })
}

/// The candidate sweep through the whole kernel: `shared_peak_threshold` ×
/// ΔM × scan mode × `top_k`, plain and with mapped (permuted) global ids,
/// against the brute-force shared-peak count. The unbounded answer is held
/// to brute force entry for entry; a bounded one must be its prefix — also
/// where the k-th and (k+1)-th PSM tie on the exact score, which the table
/// is required to contain (the mapping then decides who is kept).
#[test]
fn sweep_differential_threshold_by_tolerance_by_mode_by_top_k() {
    let (db, queries) = synthetic();
    let n = db.len() as u32;
    // Reversed ids: every tie that the plain searcher cuts towards the low
    // peptide id, the mapped one cuts the other way.
    let gids: Vec<u32> = (0..n).map(|pid| 1000 + (n - 1 - pid)).collect();
    let (mut ties_at_k, mut mapping_changed_the_cut) = (0, 0);
    // Entries the narrowest band scored directly, from its fragments.
    let mut scored_directly = 0;
    for threshold in [0u16, 1, 4, 200] {
        let cfg = SlmConfig {
            shared_peak_threshold: threshold,
            top_k: usize::MAX,
            ..SlmConfig::default()
        };
        let index = IndexBuilder::new(cfg.clone(), ModSpec::none()).build(db);
        let mut plain = Searcher::new(&index);
        let mut mapped = Searcher::with_scratch_mapped(&index, SearchScratch::default(), &gids);
        for tolerance in [0.01, 1.0, 500.0, f64::INFINITY] {
            let tol_cfg = cfg.clone().with_precursor_tolerance(tolerance);
            for q in queries {
                let qm = q.precursor_neutral_mass();
                let mut oracle: Vec<(u32, u16)> = db
                    .iter()
                    .filter_map(|(pid, pep)| {
                        let theo = TheoSpectrum::from_sequence(
                            pep.sequence(),
                            &ModForm::unmodified(),
                            &ModSpec::none(),
                            &cfg.theo,
                        );
                        let shared = brute_force_shared_peaks(&cfg, q, &theo);
                        let admitted =
                            tol_cfg.precursor_admits(qm, theo.precursor_mass as f32 as f64);
                        (admitted && shared >= threshold.max(1)).then_some((pid, shared))
                    })
                    .collect();
                oracle.sort_unstable();
                for scan_mode in [ScanMode::Auto, ScanMode::FullScan] {
                    let at = format!(
                        "threshold {threshold}, ΔM {tolerance}, {scan_mode:?}, scan {}",
                        q.scan
                    );
                    let opts = |top_k| QueryOptions {
                        scan_mode,
                        top_k,
                        precursor_tolerance: Some(tolerance),
                    };
                    let all = plain.search_with_opts(q, &opts(None));
                    if tolerance == 0.01 {
                        scored_directly += all.stats.entries_scored_directly;
                    }
                    let mut found: Vec<(u32, u16)> = all
                        .psms
                        .iter()
                        .map(|p| (p.peptide, p.shared_peaks))
                        .collect();
                    found.sort_unstable();
                    assert_eq!(found, oracle, "{at}");
                    assert_eq!(all.stats.candidates, oracle.len() as u64, "{at}");
                    assert!(
                        all.psms.windows(2).all(|w| rank_cmp(&w[0], &w[1]).is_lt()),
                        "{at}: not strictly rank-ordered"
                    );

                    let mut all_mapped = all.psms.clone();
                    for p in &mut all_mapped {
                        p.peptide = gids[p.peptide as usize];
                    }
                    all_mapped.sort_by(rank_cmp);
                    let got_mapped = mapped.search_with_opts(q, &opts(None));
                    assert_eq!(got_mapped.psms, all_mapped, "{at}, mapped");
                    assert_eq!(got_mapped.stats, all.stats, "{at}, mapped");

                    for k in [1usize, 10] {
                        let cut = k.min(all.psms.len());
                        let top = plain.search_with_opts(q, &opts(Some(k)));
                        assert_eq!(top.psms, all.psms[..cut], "{at}, top {k}");
                        assert_eq!(top.stats, all.stats, "{at}, top {k}");
                        let top_mapped = mapped.search_with_opts(q, &opts(Some(k)));
                        assert_eq!(top_mapped.psms, all_mapped[..cut], "{at}, top {k}, mapped");
                        if all.psms.len() > k && all.psms[k - 1].score == all.psms[k].score {
                            ties_at_k += 1;
                            let kept = |psms: &[Psm]| {
                                let mut e: Vec<u32> = psms.iter().map(|p| p.entry).collect();
                                e.sort_unstable();
                                e
                            };
                            if kept(&top.psms) != kept(&top_mapped.psms) {
                                mapping_changed_the_cut += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(scored_directly > 0, "no 0.01 Da band was scored directly");
    assert!(ties_at_k > 0, "no exact score tie across a top-k boundary");
    assert!(
        mapping_changed_the_cut > 0,
        "{ties_at_k} boundary ties, none cut differently under the mapping"
    );
}

/// One searcher, one scratch: a whole-index sweep, a band narrower than a
/// sweep chunk, a wide finite band, then the first query again — each
/// answer equals a fresh searcher's, so no sweep leaves a count behind for
/// the next band shape to find.
#[test]
fn one_searcher_answers_wide_narrow_wide_and_again_identically() {
    let (db, queries) = synthetic();
    let index = IndexBuilder::new(SlmConfig::default(), ModSpec::none()).build(db);
    let mut searcher = Searcher::new(&index);
    for q in queries {
        for round in 0..2 {
            for tolerance in [f64::INFINITY, 1.0, 500.0, f64::INFINITY] {
                for scan_mode in [ScanMode::Auto, ScanMode::FullScan] {
                    let opts = QueryOptions {
                        scan_mode,
                        top_k: None,
                        precursor_tolerance: Some(tolerance),
                    };
                    assert_eq!(
                        searcher.search_with_opts(q, &opts),
                        Searcher::new(&index).search_with_opts(q, &opts),
                        "scan {}, round {round}, ΔM {tolerance}, {scan_mode:?}",
                        q.scan
                    );
                }
            }
        }
    }
}
