//! Quickstart: the full LBE pipeline in ~30 lines.
//!
//! Generates a synthetic proteome, digests it, groups the peptides with
//! Algorithm 1, partitions them cyclically across 4 simulated ranks, builds
//! the distributed SLM index, and searches 30 synthetic query spectra.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use lbe::core::partition::PartitionPolicy;
use lbe::core::pipeline::PipelineBuilder;

fn main() {
    let report = PipelineBuilder::small_demo()
        .with_policy(PartitionPolicy::Cyclic)
        .run(42);

    println!("== LBE quickstart ==");
    println!("proteins                : {}", report.proteins);
    println!(
        "peptides (dedup)        : {} (from {}, {:.1}% redundant)",
        report.peptides,
        report.peptides_before_dedup,
        report.redundancy * 100.0
    );
    println!(
        "groups (Algorithm 1)    : {} (mean size {:.1})",
        report.grouping.num_groups(),
        report.grouping.mean_group_size()
    );
    println!("ranks                   : {}", report.search.ranks);
    println!(
        "partition sizes         : {:?}",
        report.search.partition_sizes
    );
    println!("queries searched        : {}", report.queries);
    println!(
        "candidate PSMs          : {} ({:.1}/query)",
        report.search.total_candidates,
        report.search.cpsms_per_query()
    );
    println!(
        "load imbalance (Eq. 1)  : {:.1}%",
        report.search.imbalance.load_imbalance_pct()
    );
    println!(
        "query time (virtual)    : {:.4} s",
        report.search.query_time()
    );
    println!(
        "top-1 identification    : {}/{} ({:.0}%)",
        report.top1_correct,
        report.queries,
        report.top1_accuracy() * 100.0
    );
    assert_eq!(
        report.top1_correct, report.queries,
        "every synthetic query's top-1 match is its ground-truth peptide"
    );

    // Show the first query's best match with its provenance.
    if let Some(psm) = report.search.psms[0].first() {
        let pep = report.db.get(psm.peptide);
        println!(
            "\nscan 0 best match       : {} (shared peaks {}, from rank {})",
            pep.sequence_str(),
            psm.shared_peaks,
            psm.rank
        );
        println!(
            "scan 0 ground truth     : {}",
            report.db.get(report.truth[0]).sequence_str()
        );
    }
}
