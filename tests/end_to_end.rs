//! Cross-crate integration tests: the full pipeline, result invariance
//! across policies and rank counts, and agreement between execution modes.

use lbe::bio::mods::ModSpec;
use lbe::core::engine::{run_distributed_search, EngineConfig};
use lbe::core::grouping::{group_peptides, GroupingParams};
use lbe::core::partition::PartitionPolicy;
use lbe::core::pipeline::PipelineBuilder;
use lbe::index::{
    ChunkStore, GenerationStore, IndexBuilder, QueryOptions, SearchResult, Searcher, SlmConfig,
};
use lbe::spectra::preprocess::{preprocess_spectrum, PreprocessParams};
use lbe::spectra::synthetic::{SyntheticDataset, SyntheticDatasetParams};

fn demo() -> lbe::core::pipeline::PipelineReport {
    PipelineBuilder::small_demo().run(123)
}

#[test]
fn pipeline_identifies_most_queries() {
    let report = demo();
    assert!(
        report.top1_accuracy() >= 0.85,
        "top-1 accuracy {:.2} below 0.85",
        report.top1_accuracy()
    );
}

#[test]
fn results_invariant_across_policies_and_ranks() {
    // The partitioning changes WHERE work happens, never WHAT is found:
    // candidate sets (by peptide and shared-peak count) must be identical
    // — all of them, so top-k truncation is off here (the truncated lists
    // are held to a single index in
    // `per_rank_top_k_cuts_exact_score_ties_on_global_ids`).
    let mut base = PipelineBuilder::small_demo();
    base.engine.slm.top_k = usize::MAX;
    let reference = base
        .clone()
        .with_policy(PartitionPolicy::Cyclic)
        .with_ranks(1)
        .run(7);
    for policy in [
        PartitionPolicy::Chunk,
        PartitionPolicy::Cyclic,
        PartitionPolicy::Random { seed: 99 },
        PartitionPolicy::RandomWithinGroups { seed: 4 },
    ] {
        for ranks in [2usize, 5, 8] {
            let run = base.clone().with_policy(policy).with_ranks(ranks).run(7);
            assert_eq!(
                run.search.total_candidates, reference.search.total_candidates,
                "{policy} at {ranks} ranks changed the candidate count"
            );
            for (qi, (a, b)) in reference
                .search
                .psms
                .iter()
                .zip(&run.search.psms)
                .enumerate()
            {
                let mut pa: Vec<(u32, u16)> =
                    a.iter().map(|p| (p.peptide, p.shared_peaks)).collect();
                let mut pb: Vec<(u32, u16)> =
                    b.iter().map(|p| (p.peptide, p.shared_peaks)).collect();
                pa.sort_unstable();
                pb.sort_unstable();
                assert_eq!(pa, pb, "{policy} at {ranks} ranks, query {qi}");
            }
        }
    }
}

#[test]
fn distributed_engine_agrees_with_local_searcher() {
    // A 1-rank distributed run must reproduce a plain local search exactly.
    let report = demo();
    let db = &report.db;
    let cfg = SlmConfig::default();
    let index = IndexBuilder::new(cfg, ModSpec::none()).build(db);
    let mut searcher = Searcher::new(&index);

    let dataset = SyntheticDataset::generate(
        db,
        &ModSpec::none(),
        &SyntheticDatasetParams {
            num_spectra: 15,
            ..Default::default()
        },
        555,
    );
    let pre = PreprocessParams::default();
    let queries: Vec<_> = dataset
        .spectra
        .iter()
        .map(|s| preprocess_spectrum(s, &pre))
        .collect();

    let grouping = group_peptides(db, &GroupingParams::default());
    let engine_cfg = EngineConfig::with_policy(PartitionPolicy::Cyclic);
    let dist = run_distributed_search(db, &grouping, &queries, &engine_cfg, 1);

    for (qi, q) in queries.iter().enumerate() {
        let local = searcher.search(q);
        let mut la: Vec<(u32, u16)> = local
            .psms
            .iter()
            .map(|p| (p.peptide, p.shared_peaks))
            .collect();
        // Compare as sets of (peptide, shared).
        let mut da: Vec<(u32, u16)> = dist.psms[qi]
            .iter()
            .map(|p| (p.peptide, p.shared_peaks))
            .collect();
        la.sort_unstable();
        da.sort_unstable();
        assert_eq!(la, da, "query {qi}");
    }
}

#[test]
fn per_rank_top_k_cuts_exact_score_ties_on_global_ids() {
    // Leucine and isoleucine weigh the same, so every I/L spelling of a
    // sequence has the same theoretical spectrum and ties with the others
    // on the exact f32 score — eight-way, against top_k = 3. Ids run
    // against lexicographic order, so the grouped order every policy deals
    // from disagrees with id order. Each rank keeps only 3 of the tied
    // candidates it holds; unless it picks them the way a single index
    // would — lowest global (peptide, modform) first — the merged top-k
    // differs from the single index's.
    use lbe::bio::peptide::{Peptide, PeptideDb};
    let mut seqs: Vec<String> = Vec::new();
    for stem in ["PEPT?DE?A?K", "SAMP?ER?GG?R"] {
        for bits in 0..8u32 {
            let mut spots = (0..3).map(|i| if bits >> i & 1 == 1 { 'L' } else { 'I' });
            seqs.push(
                stem.chars()
                    .map(|c| if c == '?' { spots.next().unwrap() } else { c })
                    .collect(),
            );
        }
    }
    seqs.extend(["MNKQMGGR", "WWYYFFHHK", "ELVISLIVESK"].map(String::from));
    seqs.sort_unstable_by(|a, b| b.cmp(a));
    let db = PeptideDb::from_vec(
        seqs.iter()
            .map(|s| Peptide::new(s.as_bytes(), 0, 0).unwrap())
            .collect(),
    );
    let dataset = SyntheticDataset::generate(
        &db,
        &ModSpec::none(),
        &SyntheticDatasetParams {
            num_spectra: 16,
            ..Default::default()
        },
        21,
    );
    let pre = PreprocessParams::default();
    let queries: Vec<_> = dataset
        .spectra
        .iter()
        .map(|s| preprocess_spectrum(s, &pre))
        .collect();

    let slm = SlmConfig {
        top_k: 3,
        ..SlmConfig::default()
    };
    let index = IndexBuilder::new(slm.clone(), ModSpec::none()).build(&db);
    let single: Vec<Vec<(u32, u16, u16, u32)>> = Searcher::new(&index)
        .search_batch(&queries)
        .0
        .iter()
        .map(|r| {
            r.psms
                .iter()
                .map(|p| (p.peptide, p.modform, p.shared_peaks, p.score.to_bits()))
                .collect()
        })
        .collect();
    assert!(
        single.iter().any(|q| q.len() == 3 && q[0].3 == q[2].3),
        "fixture must put an exact-score tie across the top-k cut"
    );

    let grouping = group_peptides(&db, &GroupingParams::default());
    for policy in [
        PartitionPolicy::Chunk,
        PartitionPolicy::Cyclic,
        PartitionPolicy::Random { seed: 3 },
    ] {
        for threads_per_rank in [1, 2] {
            let cfg = EngineConfig {
                slm: slm.clone(),
                threads_per_rank,
                ..EngineConfig::with_policy(policy)
            };
            let dist = run_distributed_search(&db, &grouping, &queries, &cfg, 3);
            let got: Vec<Vec<(u32, u16, u16, u32)>> = dist
                .psms
                .iter()
                .map(|q| {
                    q.iter()
                        .map(|p| (p.peptide, p.modform, p.shared_peaks, p.score.to_bits()))
                        .collect()
                })
                .collect();
            assert_eq!(
                got, single,
                "{policy}, {threads_per_rank} thread(s) per rank"
            );
        }
    }
}

#[test]
fn chunked_index_agrees_with_distributed_candidates() {
    // Fig. 1's shared-memory chunking and Fig. 3's cross-machine
    // partitioning are different layouts of the same search.
    let report = demo();
    let db = &report.db;
    let dataset = SyntheticDataset::generate(
        db,
        &ModSpec::none(),
        &SyntheticDatasetParams {
            num_spectra: 10,
            ..Default::default()
        },
        777,
    );
    let pre = PreprocessParams::default();
    let queries: Vec<_> = dataset
        .spectra
        .iter()
        .map(|s| preprocess_spectrum(s, &pre))
        .collect();

    let dir = tmp_store("e2e_vs_dist");
    GenerationStore::init(&dir, db, SlmConfig::default(), ModSpec::none(), 100).unwrap();
    let mut chunked = ChunkStore::open_generation_dir(&dir, usize::MAX).unwrap();
    let grouping = group_peptides(db, &GroupingParams::default());
    let cfg = EngineConfig::with_policy(PartitionPolicy::Chunk);
    let dist = run_distributed_search(db, &grouping, &queries, &cfg, 4);

    for (qi, q) in queries.iter().enumerate() {
        let c = chunked
            .search_with_opts(q, &QueryOptions::default())
            .unwrap();
        let mut ca: Vec<(u32, u16)> = c.psms.iter().map(|p| (p.peptide, p.shared_peaks)).collect();
        let mut da: Vec<(u32, u16)> = dist.psms[qi]
            .iter()
            .map(|p| (p.peptide, p.shared_peaks))
            .collect();
        ca.sort_unstable();
        da.sort_unstable();
        assert_eq!(ca, da, "query {qi}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn virtual_times_deterministic_across_repeats() {
    let a = demo();
    let b = demo();
    assert_eq!(a.search.rank_query_times, b.search.rank_query_times);
    assert_eq!(a.search.total_times, b.search.total_times);
    assert_eq!(a.search.build_times, b.search.build_times);
}

#[test]
fn imbalance_metrics_consistent_with_times() {
    let report = demo();
    let times = &report.search.rank_query_times;
    let s = &report.search.imbalance;
    let avg = times.iter().sum::<f64>() / times.len() as f64;
    let max = times.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    assert!((s.t_avg - avg).abs() < 1e-12);
    assert!((s.t_max - max).abs() < 1e-12);
    assert!((s.delta_t_max - (max - avg)).abs() < 1e-12);
}

#[test]
fn modified_index_still_invariant_across_ranks() {
    // With PTMs enabled (multiple modforms per peptide), candidates must
    // still be partition-invariant.
    let mut builder = PipelineBuilder::small_demo();
    builder.engine.modspec = ModSpec::oxidation_only();
    builder.dataset.modified_fraction = 0.5;
    let r2 = builder.clone().with_ranks(2).run(31);
    let r6 = builder.clone().with_ranks(6).run(31);
    assert_eq!(r2.search.total_candidates, r6.search.total_candidates);
    assert_eq!(r2.top1_correct, r6.top1_correct);
}

#[test]
fn footprint_overhead_master_only() {
    let report = demo();
    let f = &report.search.footprints;
    assert!(f[0].mapping_table > 0, "master carries the mapping table");
    assert!(f[1..].iter().all(|x| x.mapping_table == 0));
    let total: usize = f.iter().map(|x| x.total()).sum();
    assert!(total > 0);
    assert!(report.search.mapping_table_bytes > 0);
}

#[test]
fn disk_backed_index_is_transparent_end_to_end() {
    // The full pipeline's database, written as a generation store and
    // searched disk-backed with a one-chunk residency budget, must produce
    // the same results as the all-resident store — and rank what one index
    // over the same database ranks — across the facade crate, the storage
    // layer, and the residency layer.
    let report = demo();
    let db = &report.db;
    let dataset = SyntheticDataset::generate(
        db,
        &ModSpec::none(),
        &SyntheticDatasetParams {
            num_spectra: 12,
            ..Default::default()
        },
        991,
    );
    let pre = PreprocessParams::default();
    let queries: Vec<_> = dataset
        .spectra
        .iter()
        .map(|s| preprocess_spectrum(s, &pre))
        .collect();

    let dir = tmp_store("e2e_disk_backed");
    GenerationStore::init(&dir, db, SlmConfig::default(), ModSpec::none(), 40).unwrap();
    let search_all = |store: &mut ChunkStore| -> Vec<SearchResult> {
        queries
            .iter()
            .map(|q| store.search_with_opts(q, &QueryOptions::default()))
            .collect::<std::io::Result<_>>()
            .unwrap()
    };

    let mut resident = ChunkStore::open_generation_dir(&dir, usize::MAX).unwrap();
    assert!(resident.num_chunks() > 1, "fixture must exercise chunking");
    let in_memory = search_all(&mut resident);
    assert_eq!(resident.stats().evictions, 0);

    let mut store = ChunkStore::open_generation_dir(&dir, 1).unwrap();
    let disk_backed = search_all(&mut store);
    assert_eq!(disk_backed, in_memory);
    assert!(store.num_resident() <= 1);
    assert!(store.stats().evictions > 0);

    let rows = |rs: &[SearchResult]| -> Vec<Vec<(u32, u16, u16, u32)>> {
        rs.iter()
            .map(|r| {
                r.psms
                    .iter()
                    .map(|p| (p.peptide, p.modform, p.shared_peaks, p.score.to_bits()))
                    .collect()
            })
            .collect()
    };
    let single = IndexBuilder::new(SlmConfig::default(), ModSpec::none()).build(db);
    let (single, _) = Searcher::new(&single).search_batch(&queries);
    assert_eq!(rows(&in_memory), rows(&single));

    std::fs::remove_dir_all(&dir).ok();
}

/// A fresh (pre-cleaned) path for one test's generation store.
fn tmp_store(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("lbe_e2e_stores").join(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}
