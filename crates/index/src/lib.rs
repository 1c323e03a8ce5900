//! # lbe-index — SLM-Transform-style fragment-ion index
//!
//! The paper implements LBE inside the SLM-Transform (SLM-Index) code base:
//! a memory-efficient *shared-peak-count* index over theoretical spectra.
//! This crate is our from-scratch equivalent:
//!
//! * theoretical b/y fragments are **quantized** at resolution `r` (paper:
//!   0.01 Da) into integer bins;
//! * a CSR structure (a sparse bin directory — occupancy bitmap plus the
//!   offsets of the occupied bins — over one flat posting array) maps every
//!   ion bin to the indexed spectra containing it;
//! * a query walks its peaks' tolerance windows (`ΔF`, paper: ±0.05 Da),
//!   counts shared peaks per indexed spectrum, and keeps candidates with
//!   `shared ≥ shpeak` (paper: 4) inside the precursor window (`ΔM`, paper:
//!   ∞ — open search);
//! * entry ids ascend by **precursor mass**, so a *closed* search applies
//!   the `ΔM` window first: each bin's posting list is binary-searched
//!   down to the admitted mass band and only in-window postings are
//!   scanned (see [`query`] — the filtration-first kernel);
//! * a mass-chunked index (the paper's Fig. 1 chunks, "stored on disks
//!   when not in use") has one on-disk form, the generation store of
//!   [`lifecycle`], written one chunk at a time and searched by
//!   [`ChunkStore`] under a resident-chunk budget;
//! * every structure reports its exact heap bytes, which is how the memory
//!   figure (Fig. 5) is reproduced deterministically.
//!
//! ```
//! use lbe_bio::peptide::{Peptide, PeptideDb};
//! use lbe_bio::mods::ModSpec;
//! use lbe_index::{IndexBuilder, SlmConfig, Searcher};
//! use lbe_spectra::synthetic::{SyntheticDataset, SyntheticDatasetParams};
//!
//! let db = PeptideDb::from_vec(vec![
//!     Peptide::new(b"ELVISLIVESK", 0, 0).unwrap(),
//!     Peptide::new(b"PEPTIDERCK", 0, 0).unwrap(),
//! ]);
//! let cfg = SlmConfig::default();
//! let index = IndexBuilder::new(cfg.clone(), ModSpec::none()).build(&db);
//! let queries = SyntheticDataset::generate(&db, &ModSpec::none(),
//!     &SyntheticDatasetParams { num_spectra: 4, ..Default::default() }, 1);
//! let mut searcher = Searcher::new(&index);
//! let hits = searcher.search(&queries.spectra[0]);
//! assert!(!hits.psms.is_empty());
//! assert_eq!(hits.psms[0].peptide, queries.truth[0]);
//! ```

#![deny(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub(crate) mod bindir;
pub mod builder;
pub mod chunked;
pub mod compress;
pub mod config;
pub mod footprint;
pub mod format;
pub mod io;
pub mod lifecycle;
pub mod parallel;
pub mod precursor;
pub mod query;
pub(crate) mod scan;
pub mod seqtag;
pub mod slm;

pub use builder::{BuildStats, IndexBuilder};
pub use chunked::{ChunkStore, ResidencyStats};
pub use config::SlmConfig;
pub use footprint::{MemoryFootprint, StorageFootprint};
pub use io::{
    read_index, read_index_bytes, read_index_path, read_index_path_with, read_index_with,
    write_index, write_index_path, ReadOptions, FLAG_MASS_SORTED,
};
pub use lifecycle::{GenerationStore, ManifestRecord};
pub use parallel::search_batch_parallel_with_opts;
pub use precursor::{PrecursorIndex, PrecursorQueryStats};
pub use query::{Psm, QueryOptions, QueryStats, ScanMode, SearchResult, SearchScratch, Searcher};
pub use seqtag::{extract_tags, TagIndex, TagQueryStats};
pub use slm::{SlmIndex, SpectrumEntry};
