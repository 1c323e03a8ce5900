//! Byte-exact memory-footprint accounting (Fig. 5's measurement).
//!
//! The paper reports GB per million indexed spectra for the shared-memory
//! SLM index versus its distributed variant (0.346 vs 0.366 GB/M — a 6.4 %
//! overhead from the master's mapping table and per-partition fixed costs).
//! RSS is noisy and allocator-dependent; instead every structure in this
//! workspace exposes `heap_bytes()` and this module aggregates them into the
//! figure's quantities.

use crate::slm::SlmIndex;

/// A memory-footprint breakdown, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryFootprint {
    /// Entry table bytes (one record per indexed spectrum).
    pub entries: usize,
    /// Bin-directory bytes: occupancy bitmap, running popcount and one
    /// offset per *occupied* bin. The per-partition cost behind Fig. 5's
    /// distributed overhead — it grows with occupancy but saturates (every
    /// bin occupied ≈ 4.2 bytes per bin), so its share shrinks as
    /// partitions grow.
    pub bin_directory: usize,
    /// Posting array bytes (proportional to indexed ions).
    pub postings: usize,
    /// LBE mapping-table bytes (master only; zero for shared memory).
    pub mapping_table: usize,
}

impl MemoryFootprint {
    /// Footprint of one index partition (no mapping table).
    pub fn of_index(idx: &SlmIndex) -> Self {
        MemoryFootprint {
            entries: idx.num_spectra() * std::mem::size_of::<crate::slm::SpectrumEntry>(),
            bin_directory: idx.bin_directory_bytes(),
            postings: idx.num_ions() * std::mem::size_of::<u32>(),
            mapping_table: 0,
        }
    }

    /// Adds the master's mapping table for `n` peptide entries (one `u32`
    /// each, as in the paper's "simple array of size N").
    pub fn with_mapping_table(mut self, n: usize) -> Self {
        self.mapping_table += n * std::mem::size_of::<u32>();
        self
    }

    /// Total bytes.
    pub fn total(&self) -> usize {
        self.entries + self.bin_directory + self.postings + self.mapping_table
    }

    /// Total in GB (the figure's unit).
    pub fn total_gb(&self) -> f64 {
        self.total() as f64 / 1e9
    }

    /// GB per million indexed spectra — the paper's headline metric.
    pub fn gb_per_million_spectra(&self, num_spectra: usize) -> f64 {
        if num_spectra == 0 {
            return 0.0;
        }
        self.total_gb() / (num_spectra as f64 / 1e6)
    }

    /// Component-wise sum.
    pub fn merged(mut self, other: &MemoryFootprint) -> Self {
        self.entries += other.entries;
        self.bin_directory += other.bin_directory;
        self.postings += other.postings;
        self.mapping_table += other.mapping_table;
        self
    }
}

/// On-disk vs in-memory accounting for a [`crate::ChunkStore`]: how many
/// logical (uncompressed) bytes the store indexes, how many bytes that
/// costs on disk under the generation store's compressed blobs, and how
/// much of it is currently resident. `stored == logical` for a store whose
/// blobs are all raw; compression widens the gap — the resident budget
/// then covers a larger *logical* working set per disk byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StorageFootprint {
    /// Uncompressed bytes across all chunk blobs.
    pub logical_bytes: u64,
    /// Bytes the blobs occupy on disk (compressed where that is smaller).
    pub stored_bytes: u64,
    /// Heap bytes of the currently resident (always uncompressed) chunks.
    pub resident_bytes: usize,
    /// Total chunks in the store.
    pub num_chunks: usize,
    /// Chunks currently resident.
    pub num_resident: usize,
}

impl StorageFootprint {
    /// stored / logical — < 1.0 when compression is winning.
    pub fn compression_ratio(&self) -> f64 {
        if self.logical_bytes == 0 {
            return 1.0;
        }
        self.stored_bytes as f64 / self.logical_bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IndexBuilder;
    use crate::config::SlmConfig;
    use lbe_bio::mods::ModSpec;
    use lbe_bio::peptide::{Peptide, PeptideDb};

    /// Peptide `i` of [`idx`]'s database.
    fn idx_seq(i: usize) -> String {
        format!(
            "PEPT{}DEK",
            ["A", "C", "D", "E", "F"][i % 5].repeat(i % 4 + 1)
        )
    }

    fn idx(n: usize) -> SlmIndex {
        let db = PeptideDb::from_vec(
            (0..n)
                .map(|i| Peptide::new(idx_seq(i).as_bytes(), 0, 0).unwrap())
                .collect(),
        );
        IndexBuilder::new(SlmConfig::default(), ModSpec::none()).build(&db)
    }

    #[test]
    fn footprint_matches_heap_bytes_closely() {
        let i = idx(20);
        let f = MemoryFootprint::of_index(&i);
        // heap_bytes uses capacities; footprint uses exact lengths. The
        // builder allocates exactly, so they agree but for the peptide
        // table: each peptide's residues and a u32 offset, plus one end
        // offset (`ModSpec::none()` holds no rules).
        let residues: usize = (0..20).map(|n| idx_seq(n).len()).sum();
        let table = residues + 4 * (20 + 1);
        assert_eq!(i.peptide_table_bytes(), table);
        assert_eq!(f.total() + table, i.heap_bytes());
    }

    #[test]
    fn footprint_is_storage_backend_invariant() {
        // Fig. 5's measurement must not change when an index is reloaded
        // as zero-copy views into a v2 arena: the logical arrays are the
        // same, so the accounted bytes are the same.
        let owned = idx(20);
        let mut buf = Vec::new();
        crate::io::write_index(&mut buf, &owned).unwrap();
        let arena = crate::io::read_index(&buf[..]).unwrap();
        assert!(arena.is_arena_backed());
        assert_eq!(
            MemoryFootprint::of_index(&arena),
            MemoryFootprint::of_index(&owned)
        );
        // heap_bytes agrees too: the arena variant counts the bytes its
        // views span, which equals the exact-length owned accounting. Only
        // the built index holds a peptide table; a file carries none.
        assert_eq!(arena.peptide_table_bytes(), 0);
        assert!(owned.peptide_table_bytes() > 0);
        assert_eq!(
            arena.heap_bytes() + owned.peptide_table_bytes(),
            owned.heap_bytes()
        );
    }

    #[test]
    fn postings_dominate_for_large_indices() {
        let i = idx(50);
        let f = MemoryFootprint::of_index(&i);
        assert!(f.postings > 0);
        assert!(f.entries > 0);
        assert!(f.bin_directory > 0);
    }

    #[test]
    fn mapping_table_adds_4_bytes_per_entry() {
        let f = MemoryFootprint::default().with_mapping_table(1000);
        assert_eq!(f.mapping_table, 4000);
        assert_eq!(f.total(), 4000);
    }

    #[test]
    fn gb_per_million_scaling() {
        let f = MemoryFootprint {
            entries: 0,
            bin_directory: 0,
            postings: 346_000_000, // 0.346 GB
            mapping_table: 0,
        };
        let v = f.gb_per_million_spectra(1_000_000);
        assert!((v - 0.346).abs() < 1e-9);
        assert_eq!(f.gb_per_million_spectra(0), 0.0);
    }

    #[test]
    fn merged_sums_components() {
        let a = MemoryFootprint {
            entries: 1,
            bin_directory: 2,
            postings: 3,
            mapping_table: 4,
        };
        let b = a;
        let m = a.merged(&b);
        assert_eq!(m.total(), 20);
    }

    #[test]
    fn directory_cost_is_what_the_index_holds_and_shrinks_per_spectrum() {
        let small = idx(5);
        let large = idx(60);
        let (fs, fl) = (
            MemoryFootprint::of_index(&small),
            MemoryFootprint::of_index(&large),
        );
        // Not a constant: the bitmap and its running popcount are fixed by
        // the axis (12 bytes per 64 bins), the offsets follow occupancy.
        let words = SlmConfig::default().num_bins() / 64 + 1;
        for (f, i) in [(&fs, &small), (&fl, &large)] {
            let occupied = (0..i.config().num_bins() as u32)
                .filter(|&b| !i.bin_postings(b).is_empty())
                .count();
            assert_eq!(f.bin_directory, words * 12 + (occupied + 1) * 4);
        }
        assert!(fl.bin_directory > fs.bin_directory);
        // Far below the dense row-pointer table it replaces…
        assert!(fl.bin_directory < (SlmConfig::default().num_bins() + 1) * 8 / 20);
        // …and still sublinear: more spectra → lower GB/M.
        assert!(
            fl.gb_per_million_spectra(large.num_spectra())
                < fs.gb_per_million_spectra(small.num_spectra())
        );
    }
}
