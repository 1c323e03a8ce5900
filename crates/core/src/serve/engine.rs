//! The resident search engine: indexes opened once, searched many times.
//!
//! This is the engine split the one-shot CLI path needed: opening (a
//! generation-store directory → [`ChunkStore`], a file → [`SlmIndex`],
//! always under full validation) lives here, shared by `lbe search` and `lbe serve`, and search entry
//! points take per-request [`QueryOptions`] so a daemon can serve mixed
//! scan-mode/tolerance/top-k requests from one resident index.
//!
//! Thread-safety model: the chunked backend's residency (which chunks are
//! resident, their eviction credits, one recycled scratch) makes
//! [`ChunkStore::search_wave`] `&mut self`, so it sits behind a `Mutex`
//! and a whole wave is one `search_wave` call under the lock — chunk-major,
//! on one thread, each chunk the wave needs faulted at most once; the
//! single-index backend is immutable and fans a wave out across `minipool`
//! workers via [`search_batch_parallel_with_opts`], recycling one scratch
//! allocation for the sequential path.

use lbe_index::io::ReadOptions;
use lbe_index::{
    search_batch_parallel_with_opts, ChunkStore, QueryOptions, SearchResult, SearchScratch,
    Searcher, SlmIndex,
};
use lbe_spectra::preprocess::{preprocess_spectrum, PreprocessParams};
use lbe_spectra::spectrum::Spectrum;
use std::io;
use std::path::Path;
use std::sync::Mutex;

/// A search backend resident in memory for the lifetime of the engine.
enum Backend {
    /// Lazily-resident generation store; `&mut` search ⇒ mutex-guarded.
    Chunked(Mutex<Box<ChunkStore>>),
    /// A fully-resident single index plus one recycled scratch state.
    Single {
        index: Box<SlmIndex>,
        scratch: Mutex<SearchScratch>,
    },
}

/// An index opened once and kept hot across many queries.
///
/// All search entry points take `&self`: the engine may be shared across
/// connection threads behind an `Arc` with no external locking.
pub struct ResidentEngine {
    backend: Backend,
    preprocess: PreprocessParams,
}

impl ResidentEngine {
    /// Opens the index at `path`: a directory is a generation store (see
    /// `lbe_index::lifecycle`), a file a single index — anything else in a
    /// file, an `LBECHK2` chunked container included, is the single-index
    /// reader's error. `max_resident` caps how many chunks of a store stay
    /// in memory (`usize::MAX` = all).
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
        let backend = if path.is_dir() {
            let store = ChunkStore::open_generation_dir_with(path, max_resident, &opts)?;
            Backend::Chunked(Mutex::new(Box::new(store)))
        } else {
            Backend::Single {
                index: Box::new(lbe_index::read_index_path_with(path, &opts)?),
                scratch: Mutex::new(SearchScratch::default()),
            }
        };
        Ok(ResidentEngine {
            backend,
            preprocess: PreprocessParams::default(),
        })
    }

    /// Applies the engine's standard spectrum preprocessing — the same
    /// [`PreprocessParams::default`] pipeline file ingest uses — so a raw
    /// wire spectrum searches bit-identically to the same spectrum read
    /// from an MGF/MS2/mzML file.
    pub fn preprocess(&self, raw: &Spectrum) -> Spectrum {
        preprocess_spectrum(raw, &self.preprocess)
    }

    /// Searches one (already preprocessed) spectrum under `opts` — on a
    /// generation store, a wave of one.
    pub fn search_one(&self, query: &Spectrum, opts: &QueryOptions) -> io::Result<SearchResult> {
        match &self.backend {
            Backend::Chunked(store) => store
                .lock()
                .expect("chunk store lock poisoned")
                .search_with_opts(query, opts),
            Backend::Single { index, scratch } => {
                let mut guard = scratch.lock().expect("scratch lock poisoned");
                let mut searcher = Searcher::with_scratch(index, std::mem::take(&mut guard));
                let result = searcher.search_with_opts(query, opts);
                *guard = searcher.into_scratch();
                Ok(result)
            }
        }
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
    /// The single-index backend groups jobs by identical options and runs
    /// each group as one [`search_batch_parallel_with_opts`] batch on
    /// `num_threads` pool workers, checking the deadline before each
    /// group. The chunked backend takes the store lock once and makes one
    /// [`ChunkStore::search_wave`] call, which walks the wave chunk by
    /// chunk and checks the deadline before each chunk: a job started
    /// means one of its chunks was searched, and a started job runs to
    /// completion — the deadline bounds *queueing*, it does not abort a
    /// job midway. Every job that runs produces a result bit-identical to
    /// [`ResidentEngine::search_one`] on the same job.
    pub fn search_wave_deadline(
        &self,
        jobs: &[(Spectrum, QueryOptions)],
        num_threads: usize,
        deadline: Option<std::time::Instant>,
    ) -> Vec<Option<io::Result<SearchResult>>> {
        match &self.backend {
            Backend::Chunked(store) => store
                .lock()
                .expect("chunk store lock poisoned")
                .search_wave(jobs, deadline),
            Backend::Single { index, .. } => {
                // Group job indices by options; each distinct options set
                // becomes one parallel batch. Waves are small (bounded by
                // the server's max_wave), so a linear scan suffices.
                let mut groups: Vec<(QueryOptions, Vec<usize>)> = Vec::new();
                for (i, (_, opts)) in jobs.iter().enumerate() {
                    match groups.iter_mut().find(|(o, _)| o == opts) {
                        Some((_, idxs)) => idxs.push(i),
                        None => groups.push((*opts, vec![i])),
                    }
                }
                let mut out: Vec<Option<io::Result<SearchResult>>> =
                    (0..jobs.len()).map(|_| None).collect();
                for (opts, idxs) in groups {
                    if deadline.is_some_and(|d| std::time::Instant::now() >= d) {
                        continue; // whole group degraded
                    }
                    let batch: Vec<Spectrum> = idxs.iter().map(|&i| jobs[i].0.clone()).collect();
                    let (results, _stats) =
                        search_batch_parallel_with_opts(index, &batch, num_threads, &opts);
                    for (&i, r) in idxs.iter().zip(results) {
                        out[i] = Some(Ok(r));
                    }
                }
                out
            }
        }
    }

    /// For a generation-store backend: picks up the latest generation if
    /// `CURRENT` has moved, keeping resident chunks whose content hashes
    /// survive — connections stay open and only changed chunks re-fault.
    /// Returns `true` when a newer generation was adopted; `Ok(false)` for
    /// file-backed backends.
    pub fn refresh(&self) -> io::Result<bool> {
        match &self.backend {
            Backend::Chunked(store) => store
                .lock()
                .expect("chunk store lock poisoned")
                .refresh_generation(),
            Backend::Single { .. } => Ok(false),
        }
    }

    /// Number of indexed spectra, when the backend can report it cheaply
    /// (`None` for a generation store, matching the one-shot CLI).
    pub fn num_indexed(&self) -> Option<usize> {
        match &self.backend {
            Backend::Chunked(_) => None,
            Backend::Single { index, .. } => Some(index.num_spectra()),
        }
    }

    /// Chunk count of the served store; 0 for a single index.
    pub fn num_chunks(&self) -> usize {
        match &self.backend {
            Backend::Chunked(store) => store
                .lock()
                .expect("chunk store lock poisoned")
                .num_chunks(),
            Backend::Single { .. } => 0,
        }
    }

    /// The backend description the one-shot CLI prints in its summary
    /// line, byte-identical to the pre-split strings.
    pub fn backend_summary(&self) -> String {
        match &self.backend {
            Backend::Chunked(store) => {
                let guard = store.lock().expect("chunk store lock poisoned");
                let s = guard.stats();
                format!(
                    "chunked container ({} chunks, {} faults, {} evictions)",
                    guard.num_chunks(),
                    s.faults,
                    s.evictions
                )
            }
            Backend::Single { .. } => "single index".to_string(),
        }
    }
}
