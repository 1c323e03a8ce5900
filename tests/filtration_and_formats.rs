//! Integration tests: the §II-A filtration baselines against the SLM path,
//! format interoperability (MS2 / MGF / mzML carry the same search), and
//! the real-thread parallel searcher inside the full pipeline.

use lbe::bio::mods::ModSpec;
use lbe::core::pipeline::PipelineBuilder;
use lbe::index::{
    search_batch_parallel_with_opts, IndexBuilder, PrecursorIndex, QueryOptions, Searcher,
    SlmConfig, TagIndex,
};
use lbe::spectra::mgf::{read_mgf, write_mgf};
use lbe::spectra::ms2::{read_ms2, write_ms2};
use lbe::spectra::mzml::{read_mzml, write_mzml};
use lbe::spectra::preprocess::{preprocess_spectrum, PreprocessParams};
use lbe::spectra::spectrum::Spectrum;
use lbe::spectra::synthetic::{SyntheticDataset, SyntheticDatasetParams};

fn workload() -> (lbe::bio::peptide::PeptideDb, Vec<Spectrum>, Vec<u32>) {
    let report = PipelineBuilder::small_demo().run(321);
    let db = report.db;
    let dataset = SyntheticDataset::generate(
        &db,
        &ModSpec::none(),
        &SyntheticDatasetParams {
            num_spectra: 25,
            ..Default::default()
        },
        322,
    );
    let pre = PreprocessParams::default();
    let queries = dataset
        .spectra
        .iter()
        .map(|s| preprocess_spectrum(s, &pre))
        .collect();
    (db, queries, dataset.truth)
}

#[test]
fn precursor_filter_never_loses_truth_with_matching_tolerance() {
    let (db, queries, truth) = workload();
    let idx = PrecursorIndex::build(&db);
    // Queries carry ≤10 ppm precursor error; ±0.5 Da dominates that at
    // tryptic masses, so the generating peptide always survives the cut.
    for (q, &t) in queries.iter().zip(&truth) {
        let (cands, _) = idx.candidates(q, 0.5);
        assert!(cands.contains(&t), "scan {}", q.scan);
    }
}

#[test]
fn tag_filter_reduces_space_but_keeps_most_truths() {
    let (db, queries, truth) = workload();
    let idx = TagIndex::build(&db);
    let mut kept = 0usize;
    let mut total_candidates = 0u64;
    for (q, &t) in queries.iter().zip(&truth) {
        let (cands, stats) = idx.candidates(q, 0.02);
        total_candidates += stats.candidates;
        if cands.contains(&t) {
            kept += 1;
        }
    }
    // Tags are noise-sensitive; require substantial-but-not-perfect recall
    // and a real reduction versus scoring everything.
    assert!(
        kept >= queries.len() * 7 / 10,
        "kept only {kept}/{}",
        queries.len()
    );
    assert!(
        total_candidates < (db.len() * queries.len()) as u64 / 2,
        "tag filter did not reduce the space"
    );
}

#[test]
fn slm_agrees_with_itself_across_filtration_baselines() {
    // Sanity triangle: every peptide the SLM search ranks top-1 must also
    // be admitted by the (loose) precursor filter — the filters are nested.
    let (db, queries, _) = workload();
    let slm = IndexBuilder::new(SlmConfig::default(), ModSpec::none()).build(&db);
    let pre = PrecursorIndex::build(&db);
    let mut searcher = Searcher::new(&slm);
    for q in &queries {
        if let Some(top) = searcher.search(q).psms.first() {
            let (cands, _) = pre.candidates(q, 5000.0);
            assert!(cands.contains(&top.peptide));
        }
    }
}

#[test]
fn all_three_formats_preserve_search_results() {
    let (db, queries, _) = workload();
    let slm = IndexBuilder::new(SlmConfig::default(), ModSpec::none()).build(&db);
    let mut searcher = Searcher::new(&slm);
    let reference: Vec<_> = queries.iter().map(|q| searcher.search(q)).collect();

    // MS2.
    let mut buf = Vec::new();
    write_ms2(&mut buf, &queries).unwrap();
    let ms2_back = read_ms2(&buf[..]).unwrap();
    // MGF.
    let mut buf2 = Vec::new();
    write_mgf(&mut buf2, &queries).unwrap();
    let mgf_back = read_mgf(&buf2[..]).unwrap();
    // mzML (bit-exact arrays).
    let mut buf3 = Vec::new();
    write_mzml(&mut buf3, &queries).unwrap();
    let mzml_back = read_mzml(&buf3[..]).unwrap();

    for (name, loaded) in [("ms2", ms2_back), ("mgf", mgf_back), ("mzml", mzml_back)] {
        assert_eq!(loaded.len(), queries.len(), "{name}");
        for (qi, q) in loaded.iter().enumerate() {
            let r = searcher.search(q);
            let ref_ids: Vec<u32> = reference[qi].psms.iter().map(|p| p.peptide).collect();
            let got_ids: Vec<u32> = r.psms.iter().map(|p| p.peptide).collect();
            assert_eq!(got_ids, ref_ids, "{name} query {qi}");
        }
    }
}

#[test]
fn parallel_search_matches_sequential_on_pipeline_workload() {
    let (db, queries, truth) = workload();
    let slm = IndexBuilder::new(SlmConfig::default(), ModSpec::none()).build(&db);
    let opts = QueryOptions::default();
    let (seq, seq_stats) = search_batch_parallel_with_opts(&slm, &queries, 1, &opts);
    let (par, par_stats) = search_batch_parallel_with_opts(&slm, &queries, 4, &opts);
    assert_eq!(seq, par);
    assert_eq!(seq_stats, par_stats);
    // And it actually identifies things.
    let top1 = par
        .iter()
        .zip(&truth)
        .filter(|(r, &t)| r.psms.first().map(|p| p.peptide) == Some(t))
        .count();
    assert!(
        top1 >= queries.len() * 8 / 10,
        "top1 {top1}/{}",
        queries.len()
    );
}
