//! Cluster scaling & policy comparison — a miniature of the paper's
//! evaluation (Figs. 6–8) on one screen.
//!
//! Runs the same workload under all three distribution policies across
//! 2–16 simulated ranks and prints query time, load imbalance, and the
//! wasted-CPU-time analysis from §VI. Uses the same paper-scale cost
//! normalization as the figure harness (see `SearchCostModel::
//! scaled_for_index`) so the imbalance signal is visible at demo size.
//!
//! ```text
//! cargo run --release --example cluster_scaling
//! ```

use lbe::bio::dedup::dedup_peptides;
use lbe::bio::digest::{digest_proteome, DigestParams};
use lbe::bio::mods::ModSpec;
use lbe::bio::synthetic::{SyntheticProteome, SyntheticProteomeParams};
use lbe::core::engine::{run_distributed_search, EngineConfig};
use lbe::core::grouping::{group_peptides, GroupingParams};
use lbe::core::metrics::{lb_speedup_over_chunk, stall_amplification};
use lbe::core::partition::PartitionPolicy;
use lbe::spectra::preprocess::{preprocess_spectrum, PreprocessParams};
use lbe::spectra::synthetic::{SyntheticDataset, SyntheticDatasetParams};

fn main() {
    // Family-rich proteome (isoform/paralog structure is what the chunk
    // policy mis-places) and abundance-skewed queries, as in real samples.
    let proteome = SyntheticProteome::generate(
        SyntheticProteomeParams {
            num_proteins: 60,
            mean_protein_len: 400,
            family_fraction: 0.72,
            mutation_rate: 0.015,
            indel_rate: 0.002,
        },
        11,
    );
    let digested = digest_proteome(&proteome.proteins, &DigestParams::default()).unwrap();
    let (db, _) = dedup_peptides(digested);
    let grouping = group_peptides(&db, &GroupingParams::default());

    let dataset = SyntheticDataset::generate(
        &db,
        &ModSpec::none(),
        &SyntheticDatasetParams {
            num_spectra: 400,
            abundance_skew: 0.9,
            ..Default::default()
        },
        0xC0FFEE,
    );
    let pre = PreprocessParams::default();
    let queries: Vec<_> = dataset
        .spectra
        .iter()
        .map(|s| preprocess_spectrum(s, &pre))
        .collect();

    println!(
        "workload: {} peptides, {} queries\n",
        db.len(),
        queries.len()
    );
    println!(
        "{:<16} {:>6} {:>12} {:>8} {:>10}",
        "policy", "ranks", "query_t(s)", "LI_%", "Twst(s)"
    );
    println!("{}", "-".repeat(58));

    let cost_scale = 49.45e6 / db.len() as f64;
    let mut chunk16 = None;
    let mut cyclic16 = None;
    for policy in [
        PartitionPolicy::Chunk,
        PartitionPolicy::Cyclic,
        PartitionPolicy::Random { seed: 5 },
    ] {
        for ranks in [2usize, 4, 8, 16] {
            let mut cfg = EngineConfig::with_policy(policy);
            cfg.cost = cfg.cost.scaled_for_index(cost_scale);
            let r = run_distributed_search(&db, &grouping, &queries, &cfg, ranks);
            println!(
                "{:<16} {:>6} {:>12.3} {:>8.1} {:>10.3}",
                policy.to_string(),
                ranks,
                r.query_time(),
                r.imbalance.load_imbalance_pct(),
                r.imbalance.wasted_cpu_time(ranks)
            );
            if ranks == 16 {
                match policy {
                    PartitionPolicy::Chunk => chunk16 = Some(r.imbalance),
                    PartitionPolicy::Cyclic => cyclic16 = Some(r.imbalance),
                    _ => {}
                }
            }
        }
        println!();
    }

    let chunk = chunk16.expect("chunk ran at 16 ranks");
    let cyclic = cyclic16.expect("cyclic ran at 16 ranks");
    let speedup = lb_speedup_over_chunk(&chunk, &cyclic);
    let (apparent, waste) = stall_amplification(&chunk, 16);
    println!("cyclic vs chunk CPU-time speedup at 16 ranks: {speedup:.1}x");
    println!(
        "chunk at 16 ranks: stall looks like {apparent:.2}x wall-clock but wastes {waste:.1}x CPU-normalized time (§VI)"
    );
    assert!(
        chunk.load_imbalance_pct() > cyclic.load_imbalance_pct() && speedup > 1.0,
        "LBE's cyclic policy balances the load the chunk policy does not"
    );
    assert!(
        waste > apparent,
        "the chunk policy's stall wastes more CPU time than its wall clock shows"
    );
}
