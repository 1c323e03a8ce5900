//! Open-search PTM discovery — the "dark matter of shotgun proteomics"
//! scenario from the paper's introduction (§II-A.1).
//!
//! Builds two indices over the same peptides — one *without* variable
//! modifications and one with the paper's PTM set (deamidation N/Q, Gly-Gly
//! K/C, oxidation M) — and searches query spectra generated from *modified*
//! peptides against both. The unmodified index misses or mis-ranks them;
//! the PTM-aware open search (ΔM = ∞) recovers them and reports the mass
//! shift.
//!
//! ```text
//! cargo run --release --example open_search_ptm
//! ```

use lbe::bio::dedup::dedup_peptides;
use lbe::bio::digest::{digest_proteome, DigestParams};
use lbe::bio::mods::ModSpec;
use lbe::bio::synthetic::{SyntheticProteome, SyntheticProteomeParams};
use lbe::index::{IndexBuilder, Searcher, SlmConfig};
use lbe::spectra::preprocess::{preprocess_spectrum, PreprocessParams};
use lbe::spectra::synthetic::{SyntheticDataset, SyntheticDatasetParams};

fn main() {
    // Database.
    let proteome = SyntheticProteome::generate(SyntheticProteomeParams::small(), 7);
    let digested = digest_proteome(&proteome.proteins, &DigestParams::default()).unwrap();
    let (db, _) = dedup_peptides(digested);
    println!("database: {} unique peptides", db.len());

    // Queries: all generated from MODIFIED peptide forms.
    let ptm_spec = ModSpec::paper_default();
    let dataset = SyntheticDataset::generate(
        &db,
        &ptm_spec,
        &SyntheticDatasetParams {
            num_spectra: 60,
            modified_fraction: 1.0,
            ..Default::default()
        },
        99,
    );
    let pre = PreprocessParams::default();
    let queries: Vec<_> = dataset
        .spectra
        .iter()
        .map(|s| preprocess_spectrum(s, &pre))
        .collect();
    let modified_queries = dataset.truth_modform.iter().filter(|&&m| m > 0).count();
    println!(
        "queries: {} ({} carry a modification)\n",
        queries.len(),
        modified_queries
    );

    // Index A: no variable mods. Index B: the paper's PTM set.
    let cfg = SlmConfig::default(); // ΔM = ∞ (open search)
    let plain = IndexBuilder::new(cfg.clone(), ModSpec::none()).build(&db);
    let modded = IndexBuilder::new(cfg, ptm_spec.clone()).build(&db);
    println!(
        "index without PTMs: {:>8} spectra / {:>9} ions",
        plain.num_spectra(),
        plain.num_ions()
    );
    println!(
        "index with PTMs   : {:>8} spectra / {:>9} ions (the paper's exponential growth)\n",
        modded.num_spectra(),
        modded.num_ions()
    );

    let mut s_plain = Searcher::new(&plain);
    let mut s_mod = Searcher::new(&modded);
    let (mut top1_plain, mut top1_mod) = (0, 0);
    let mut example_shift: Option<(String, f64)> = None;

    for (qi, q) in queries.iter().enumerate() {
        let truth = dataset.truth[qi];
        let rp = s_plain.search(q);
        let rm = s_mod.search(q);
        if rp.psms.first().map(|p| p.peptide) == Some(truth) {
            top1_plain += 1;
        }
        if rm.psms.first().map(|p| p.peptide) == Some(truth) {
            top1_mod += 1;
            if example_shift.is_none() && dataset.truth_modform[qi] > 0 {
                let psm = rm.psms[0];
                let entry = modded.entry(psm.entry);
                let pep = db.get(truth);
                let shift = entry.precursor_mass as f64 - pep.mass();
                example_shift = Some((pep.sequence_str().to_string(), shift));
            }
        }
    }

    println!(
        "top-1 correct, PTM-blind index : {top1_plain}/{}",
        queries.len()
    );
    println!(
        "top-1 correct, PTM-aware index : {top1_mod}/{}",
        queries.len()
    );
    assert!(
        top1_mod > top1_plain,
        "the PTM-aware index identifies more modified queries than the blind one"
    );
    let (seq, shift) = example_shift.expect("a modified query is identified with its shift");
    println!("\nexample: {seq} identified with mass shift {shift:+.4} Da");
    println!("(open search localized the modification the blind index missed)");
    assert!(shift.abs() > 0.5, "a modification shifts the mass: {shift}");
}
