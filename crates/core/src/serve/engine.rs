//! The resident search engine: indexes opened once, searched many times.
//!
//! This is the engine split the one-shot CLI path needed: opening (a
//! generation-store directory → a paging [`ChunkStore`], a file → a
//! one-chunk [`ChunkStore::from_index`], always under full validation)
//! lives here, shared by `lbe search` and `lbe serve`, and search entry
//! points take per-request [`QueryOptions`] so a daemon can serve mixed
//! scan-mode/tolerance/top-k requests from one resident index.
//!
//! Thread-safety model: one lock per wave, one fan-out per chunk visit.
//! The store's residency (which chunks are resident, their eviction
//! credits, the recycled per-worker scratches) makes
//! [`ChunkStore::search_wave`] `&mut self`, so the store sits behind a
//! `Mutex` and a whole wave is one `search_wave` call under the lock:
//! chunk-major, each chunk the wave needs faulted at most once, and on each
//! chunk visit the jobs that touch it fanned out over up to `num_threads`
//! `minipool` workers. A single index file is the same path with one
//! chunk that is always resident.

use lbe_index::io::ReadOptions;
use lbe_index::{ChunkStore, QueryOptions, SearchResult, SlmIndex};
use lbe_spectra::preprocess::{preprocess_spectrum, PreprocessParams};
use lbe_spectra::spectrum::Spectrum;
use std::io;
use std::path::Path;
use std::sync::{Mutex, MutexGuard};

/// An index opened once and kept hot across many queries.
///
/// All search entry points take `&self`: the engine may be shared across
/// connection threads behind an `Arc` with no external locking.
pub struct ResidentEngine {
    store: Mutex<ChunkStore>,
    preprocess: PreprocessParams,
}

impl ResidentEngine {
    /// Opens the index at `path`: a directory is a generation store (see
    /// `lbe_index::lifecycle`), a file a single index — anything else in a
    /// file, an `LBECHK2` chunked container included, is the single-index
    /// reader's error. `max_resident` caps how many chunks of a store stay
    /// in memory (`usize::MAX` = all); a file's one chunk always is.
    ///
    /// Files handed to a server are untrusted input, so the full
    /// validation scan always runs; any failure is returned *before* a
    /// listener could exist — a corrupt index can never half-start a
    /// server.
    pub fn open(path: impl AsRef<Path>, max_resident: usize) -> io::Result<Self> {
        let path = path.as_ref();
        let opts = ReadOptions {
            full_validation: true,
        };
        let store = if path.is_dir() {
            ChunkStore::open_generation_dir_with(path, max_resident, &opts)?
        } else {
            ChunkStore::from_index(lbe_index::read_index_path_with(path, &opts)?)
        };
        Ok(ResidentEngine {
            store: Mutex::new(store),
            preprocess: PreprocessParams::default(),
        })
    }

    fn store(&self) -> MutexGuard<'_, ChunkStore> {
        self.store.lock().expect("chunk store lock poisoned")
    }

    /// Applies the engine's standard spectrum preprocessing — the same
    /// [`PreprocessParams::default`] pipeline file ingest uses — so a raw
    /// wire spectrum searches bit-identically to the same spectrum read
    /// from an MGF/MS2/mzML file.
    pub fn preprocess(&self, raw: &Spectrum) -> Spectrum {
        preprocess_spectrum(raw, &self.preprocess)
    }

    /// Searches one (already preprocessed) spectrum under `opts`: a wave of
    /// one.
    pub fn search_one(&self, query: &Spectrum, opts: &QueryOptions) -> io::Result<SearchResult> {
        self.store().search_with_opts(query, opts)
    }

    /// Searches one wave of `(spectrum, options)` jobs, returning results
    /// in job order: [`ResidentEngine::search_wave_deadline`] with no
    /// deadline, so every job runs.
    pub fn search_wave(
        &self,
        jobs: &[(Spectrum, QueryOptions)],
        num_threads: usize,
    ) -> Vec<io::Result<SearchResult>> {
        self.search_wave_deadline(jobs, num_threads, None)
            .into_iter()
            .map(|r| r.expect("without a deadline every job runs"))
            .collect()
    }

    /// Searches one wave of `(spectrum, options)` jobs, in job order,
    /// bounded by an optional wall-clock `deadline`: jobs the engine did
    /// not *start* before it are returned as `None` (degraded — the caller
    /// reports them as partial results) instead of stalling the wave
    /// indefinitely.
    ///
    /// Takes the store lock once and makes one [`ChunkStore::search_wave`]
    /// call on `num_threads` workers, which walks the wave chunk by chunk
    /// and checks the deadline before each chunk — for a single index
    /// file, once per wave. A job started means one of its chunks was
    /// searched, and a started job runs to completion: the deadline bounds
    /// *queueing*, it does not abort a job midway. Every job that runs
    /// produces a result bit-identical to [`ResidentEngine::search_one`] on
    /// the same job.
    pub fn search_wave_deadline(
        &self,
        jobs: &[(Spectrum, QueryOptions)],
        num_threads: usize,
        deadline: Option<std::time::Instant>,
    ) -> Vec<Option<io::Result<SearchResult>>> {
        self.store().search_wave(jobs, num_threads, deadline)
    }

    /// For a generation store: picks up the latest generation if `CURRENT`
    /// has moved, keeping resident chunks whose content hashes survive —
    /// connections stay open and only changed chunks re-fault. Returns
    /// `true` when a newer generation was adopted; `Ok(false)`, without
    /// touching the disk, for a single index file.
    pub fn refresh(&self) -> io::Result<bool> {
        self.store().refresh_generation()
    }

    /// Number of indexed spectra of a single index file (`None` for a
    /// generation store, matching the one-shot CLI).
    pub fn num_indexed(&self) -> Option<usize> {
        self.store().single_index().map(SlmIndex::num_spectra)
    }

    /// Chunk count of the served generation store; 0 for a single index.
    pub fn num_chunks(&self) -> usize {
        let store = self.store();
        if store.single_index().is_some() {
            return 0;
        }
        store.num_chunks()
    }

    /// The backend description the one-shot CLI prints in its summary
    /// line, byte-identical to the pre-split strings.
    pub fn backend_summary(&self) -> String {
        let store = self.store();
        if store.single_index().is_some() {
            return "single index".to_string();
        }
        let s = store.stats();
        format!(
            "chunked container ({} chunks, {} faults, {} evictions)",
            store.num_chunks(),
            s.faults,
            s.evictions
        )
    }
}
