//! Figure 5 — memory footprint: shared-memory SLM index vs distributed
//! SLM index, for increasing index size.
//!
//! Paper result: the distributed index costs ~0.366 GB per million spectra
//! vs 0.346 for shared memory (≈ 6.4 % overhead), with the overhead varying
//! *inversely* with partition size (fixed per-rank costs amortize).
//!
//! ```text
//! cargo run --release -p lbe-bench --bin fig5_memory
//! ```

use lbe_bench::{build_workload, write_csv, IndexScale, Table};
use lbe_core::mapping::MappingTable;
use lbe_core::partition::{partition_groups, PartitionPolicy};
use lbe_index::footprint::MemoryFootprint;
use lbe_index::{IndexBuilder, SlmConfig};

fn main() {
    let ranks = 16;
    println!("Fig. 5 — memory footprint, shared vs distributed ({ranks} ranks)");
    println!("(index sizes scaled down vs the paper; see DESIGN.md)\n");

    let mut table = Table::new(&[
        "index(label)",
        "spectra",
        "shared_MB",
        "distributed_MB",
        "overhead_%",
        "shared_GB/M",
        "distributed_GB/M",
    ]);
    let mut projected = Table::new(&[
        "index(label)",
        "spectra",
        "shared_GB",
        "distributed_GB",
        "overhead_%",
        "shared_GB/M",
        "distributed_GB/M",
    ]);

    for scale in IndexScale::sweep() {
        let w = build_workload(scale.peptides, scale.modspec.clone(), 1, 42);

        // Shared memory: one index over everything.
        let mut builder = IndexBuilder::new(SlmConfig::default(), scale.modspec.clone());
        let shared_idx = builder.build(&w.db);
        let spectra = shared_idx.num_spectra();
        let shared = MemoryFootprint::of_index(&shared_idx);

        // Distributed: p partial indices (cyclic partition) + the master's
        // mapping table.
        let partition = partition_groups(&w.grouping, ranks, PartitionPolicy::Cyclic);
        let mapping = MappingTable::from_partition(&partition);
        let mut distributed = MemoryFootprint::default().with_mapping_table(mapping.len());
        for m in 0..ranks {
            let local: lbe_bio::peptide::PeptideDb = partition
                .rank(m)
                .iter()
                .map(|&gid| w.db.get(gid).clone())
                .collect();
            let mut b = IndexBuilder::new(SlmConfig::default(), scale.modspec.clone());
            let idx = b.build(&local);
            distributed = distributed.merged(&MemoryFootprint::of_index(&idx));
        }

        let overhead = (distributed.total() as f64 / shared.total() as f64 - 1.0) * 100.0;
        table.row(&[
            scale.label.to_string(),
            spectra.to_string(),
            format!("{:.2}", shared.total() as f64 / 1e6),
            format!("{:.2}", distributed.total() as f64 / 1e6),
            format!("{:.2}", overhead),
            format!("{:.4}", shared.gb_per_million_spectra(spectra)),
            format!("{:.4}", distributed.gb_per_million_spectra(spectra)),
        ]);

        // Project to the paper's index size using the measured densities:
        // variable costs (entries + postings + mapping) scale with spectra,
        // the per-index bin directory does not — at the paper's sizes
        // every bin is occupied, so it sits at its ceiling (bitmap +
        // running popcount + one u32 offset per bin). That is exactly why
        // the paper's distributed overhead is small (6.4%) at full scale
        // and why it "varies inversely with the size of data partition".
        let num_bins = SlmConfig::default().num_bins();
        let directory_ceiling = ((num_bins / 64 + 1) * 12 + (num_bins + 1) * 4) as f64;
        let s = spectra as f64;
        let ions_per_spectrum = shared.postings as f64 / 4.0 / s; // 4 B each
        let peptides_per_spectrum = w.db.len() as f64 / s;
        let paper = scale.paper_spectra;
        let shared_proj = paper * (16.0 + 4.0 * ions_per_spectrum) + directory_ceiling;
        let dist_proj = paper * (16.0 + 4.0 * ions_per_spectrum)   // entries+postings
            + ranks as f64 * directory_ceiling                     // per-rank fixed
            + paper * peptides_per_spectrum * 4.0; // mapping table
        let overhead_proj = (dist_proj / shared_proj - 1.0) * 100.0;
        projected.row(&[
            scale.label.to_string(),
            format!("{:.0}M", paper / 1e6),
            format!("{:.2}", shared_proj / 1e9),
            format!("{:.2}", dist_proj / 1e9),
            format!("{:.2}", overhead_proj),
            format!("{:.4}", shared_proj / 1e9 / (paper / 1e6)),
            format!("{:.4}", dist_proj / 1e9 / (paper / 1e6)),
        ]);
    }

    print!("{}", table.render());
    println!(
        "\nprojected to the paper's index sizes (measured densities, fixed costs unscaled):\n"
    );
    print!("{}", projected.render());
    if let Some(p) = write_csv("fig5_memory", &table) {
        println!("\nwrote {}", p.display());
    }
    if let Some(p) = write_csv("fig5_memory_projected", &projected) {
        println!("wrote {}", p.display());
    }
    println!("\npaper: distributed ≈ shared + ~6.4% (0.366 vs 0.346 GB/M), overhead shrinks as partitions grow");
}
