//! Target-decoy search with FDR control — how a production deployment of
//! LBE validates its identifications.
//!
//! Builds a concatenated target+decoy database (reversed-interior decoys),
//! distributes it with LBE cyclic partitioning, searches a mixed
//! signal/noise query set, and reports q-values.
//!
//! ```text
//! cargo run --release --example fdr_search
//! ```

use lbe::bio::decoy::{concat_target_decoy, DecoyMethod};
use lbe::bio::dedup::dedup_peptides;
use lbe::bio::digest::{digest_proteome, DigestParams};
use lbe::bio::mods::ModSpec;
use lbe::bio::synthetic::{SyntheticProteome, SyntheticProteomeParams};
use lbe::core::engine::{run_distributed_search, EngineConfig};
use lbe::core::fdr::{accepted_at, compute_q_values, ScoredId};
use lbe::core::grouping::{group_peptides, GroupingParams};
use lbe::core::partition::PartitionPolicy;
use lbe::spectra::preprocess::{preprocess_spectrum, PreprocessParams};
use lbe::spectra::spectrum::{Peak, Spectrum};
use lbe::spectra::synthetic::{SyntheticDataset, SyntheticDatasetParams};
use rand::Rng;
use rand::SeedableRng;

fn main() {
    // Target database.
    let proteome = SyntheticProteome::generate(SyntheticProteomeParams::small(), 31);
    let digested = digest_proteome(&proteome.proteins, &DigestParams::default()).unwrap();
    let (targets, _) = dedup_peptides(digested);

    // Concatenated target+decoy database.
    let (db, is_decoy, stats) = concat_target_decoy(&targets, DecoyMethod::Reverse);
    println!(
        "database: {} targets + {} decoys ({} palindromic collisions dropped)",
        targets.len(),
        stats.generated,
        stats.collisions
    );

    // Queries: 120 real spectra (from targets) + 60 pure-noise spectra.
    let dataset = SyntheticDataset::generate(
        &targets,
        &ModSpec::none(),
        &SyntheticDatasetParams {
            num_spectra: 120,
            ..Default::default()
        },
        77,
    );
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(78);
    let mut queries: Vec<Spectrum> = dataset.spectra.clone();
    for scan in 0..60u32 {
        let peaks: Vec<Peak> = (0..80)
            .map(|_| Peak::new(rng.gen_range(100.0..1800.0), rng.gen_range(1.0f32..500.0)))
            .collect();
        queries.push(Spectrum::new(
            1000 + scan,
            rng.gen_range(300.0..900.0),
            2,
            peaks,
        ));
    }
    let pre = PreprocessParams::default();
    let queries: Vec<Spectrum> = queries
        .iter()
        .map(|s| preprocess_spectrum(s, &pre))
        .collect();
    println!("queries: {} (120 signal + 60 noise)\n", queries.len());

    // Distributed search over 4 ranks.
    let grouping = group_peptides(&db, &GroupingParams::default());
    let cfg = EngineConfig::with_policy(PartitionPolicy::Cyclic);
    let report = run_distributed_search(&db, &grouping, &queries, &cfg, 4);

    // Best PSM per query → target-decoy FDR.
    let ids: Vec<ScoredId> = report
        .psms
        .iter()
        .filter_map(|psms| psms.first())
        .map(|p| ScoredId {
            score: p.score,
            is_decoy: is_decoy[p.peptide as usize],
        })
        .collect();
    println!("queries with at least one candidate: {}", ids.len());

    let q = compute_q_values(ids);
    let accepted = [0.01, 0.05, 0.10].map(|threshold| {
        let n = accepted_at(&q, threshold);
        println!(
            "accepted at {:>4.0}% FDR : {n:>4} target PSMs",
            threshold * 100.0
        );
        n
    });
    assert!(
        accepted.windows(2).all(|w| w[0] <= w[1]),
        "a looser FDR threshold accepts no fewer PSMs: {accepted:?}"
    );
    assert!(
        accepted[0] >= 120 * 9 / 10,
        "most of the 120 signal spectra pass 1% FDR: {accepted:?}"
    );
    let decoy_top1 = q.iter().filter(|r| r.id.is_decoy).count();
    println!("\ndecoy top-1 hits: {decoy_top1} (each inflates the estimated FDR — that is the control working)");
}
