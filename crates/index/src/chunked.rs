//! Shared-memory chunking (the paper's Fig. 1 scheme) with an on-disk
//! container and lazy chunk residency.
//!
//! Within one machine, SLM-style engines sort peptides by precursor mass and
//! split the index into mass-contiguous chunks so that (for closed searches)
//! a query only loads/searches the chunks overlapping its precursor window.
//! The paper's Fig. 2 shows why this layout is *wrong* across machines —
//! LBE exists to fix that — but per-node it remains useful, and the paper's
//! Fig. 3 notes "the data may be further partitioned at each node according
//! to the scheme shown in Fig. 1". This module implements that per-node
//! scheme, and — via [`ChunkedIndex::write_path`] / [`ChunkStore`] — the
//! §II-B observation that chunks "may be stored on disks when not in use":
//! a [`ChunkStore`] holds at most a configured number of chunks resident,
//! faulting them in from the container on demand and evicting
//! least-recently-used ones.
//!
//! # Container layout (`LBECHK2`)
//!
//! A [`crate::format`] container whose sections are the chunk-level
//! metadata plus one embedded single-index v2 blob per chunk:
//!
//! ```text
//! section      payload
//! "config"     the shared SlmConfig (same encoding as a v2 index file)
//! "bounds"     f64×(num_chunks+1) mass boundaries (last = +∞)
//! "gidoffs"    u64×(num_chunks+1) CSR offsets into "gids"
//! "gids"       u32×total_peptides local→global peptide id table
//! "chk00000"…  one complete LBESLM2 container per chunk, 64-byte aligned
//! ```
//!
//! Because each blob is itself a v2 container at an aligned offset, an
//! eager [`ChunkedIndex::open_path`] reads the whole file once and backs
//! every chunk with views into one shared arena, while a lazy
//! [`ChunkStore::open_path`] reads only the header, table, and metadata
//! sections (a few KB) and leaves the blobs on disk.

use crate::builder::IndexBuilder;
use crate::config::SlmConfig;
use crate::footprint::StorageFootprint;
use crate::format::{
    content_hash64, section_name, AlignedBuf, FileContainer, ParsedContainer, Section, SectionPlan,
};
use crate::io::{self, ReadOptions, MAGIC_CHUNKED, MAGIC_V2};
use crate::lifecycle::BlobRef;
use crate::query::{QueryOptions, QueryStats, SearchResult, Searcher};
use crate::slm::SlmIndex;
use lbe_bio::mods::ModSpec;
use lbe_bio::peptide::{Peptide, PeptideDb};
use lbe_spectra::spectrum::Spectrum;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const SEC_CONFIG: [u8; 8] = section_name("config");
const SEC_BOUNDS: [u8; 8] = section_name("bounds");
const SEC_GIDOFFS: [u8; 8] = section_name("gidoffs");
const SEC_GIDS: [u8; 8] = section_name("gids");

/// Largest chunk count the `chk%05d` section naming supports.
const MAX_CHUNKS: usize = 100_000;

fn chunk_section_name(i: usize) -> [u8; 8] {
    assert!(i < MAX_CHUNKS, "chunk count exceeds the section name space");
    let mut name = *b"chk00000";
    let digits = format!("{i:05}");
    name[3..8].copy_from_slice(digits.as_bytes());
    name
}

fn bad(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// Chunk indices whose mass range intersects `[mass − tol, mass + tol]`,
/// ascending. For an open search (infinite `tol`) this is all of them.
fn chunks_overlapping(boundaries: &[f64], num_chunks: usize, mass: f64, tol: f64) -> Vec<usize> {
    if tol.is_infinite() {
        return (0..num_chunks).collect();
    }
    let lo = mass - tol;
    let hi = mass + tol;
    (0..num_chunks)
        .filter(|&i| {
            // chunk i spans (boundaries[i] exclusive-ish, boundaries[i+1]]
            // — use closed overlap to be conservative at boundaries.
            boundaries[i] <= hi && lo <= boundaries[i + 1]
        })
        .collect()
}

/// [`chunks_overlapping`] generalized to per-chunk `(lo, hi)` intervals —
/// the same closed-overlap inequality, but chunks need not tile a boundary
/// ladder: a generation store's delta chunks may overlap each other and
/// the base generation arbitrarily.
fn intervals_overlapping(intervals: &[(f64, f64)], mass: f64, tol: f64) -> Vec<usize> {
    if tol.is_infinite() {
        return (0..intervals.len()).collect();
    }
    let lo = mass - tol;
    let hi = mass + tol;
    intervals
        .iter()
        .enumerate()
        .filter(|&(_, &(a, b))| a <= hi && lo <= b)
        .map(|(i, _)| i)
        .collect()
}

/// Merge helper shared by the in-memory and disk-backed search paths:
/// sorts candidate PSMs best-first — score descending (total order, so
/// crafted NaN-bearing inputs cannot panic the merge) with a deterministic
/// `(peptide, modform)` tie-break that never mentions entry ids, keeping
/// merged output invariant under the builder's mass renumbering — and
/// truncates to `top_k`.
fn finalize_psms(psms: &mut Vec<crate::query::Psm>, top_k: usize) {
    psms.sort_by(crate::query::rank_cmp);
    psms.truncate(top_k);
}

/// A mass-partitioned sequence of SLM indices.
///
/// Chunk `i` covers precursor masses `[boundaries[i], boundaries[i+1])`;
/// peptide ids are *local to each chunk*, with `global_ids` mapping back to
/// the input database's ids (the same virtual-index trick LBE uses across
/// machines).
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkedIndex {
    chunks: Vec<SlmIndex>,
    /// `chunks.len() + 1` mass boundaries (first = 0, last = +∞).
    boundaries: Vec<f64>,
    /// Per chunk: local peptide id → input db peptide id.
    global_ids: Vec<Vec<u32>>,
}

impl ChunkedIndex {
    /// Builds a chunked index: peptides are sorted by precursor mass and
    /// split into runs of at most `max_peptides_per_chunk`.
    pub fn build(
        db: &PeptideDb,
        config: SlmConfig,
        modspec: ModSpec,
        max_peptides_per_chunk: usize,
    ) -> Self {
        assert!(
            max_peptides_per_chunk >= 1,
            "chunks must hold at least one peptide"
        );
        // Sort (global id, peptide) pairs by mass — Fig. 1's first step.
        let mut order: Vec<(u32, &Peptide)> = db.iter().collect();
        order.sort_by(|a, b| a.1.mass().partial_cmp(&b.1.mass()).expect("finite masses"));

        let mut chunks = Vec::new();
        let mut boundaries = vec![0.0f64];
        let mut global_ids = Vec::new();
        for run in order.chunks(max_peptides_per_chunk) {
            let ids: Vec<u32> = run.iter().map(|&(id, _)| id).collect();
            let peptides: Vec<Peptide> = run.iter().map(|&(_, p)| p.clone()).collect();
            let local = PeptideDb::from_vec(peptides);
            let idx = IndexBuilder::new(config.clone(), modspec.clone()).build(&local);
            chunks.push(idx);
            global_ids.push(ids);
            boundaries.push(run.last().unwrap().1.mass());
        }
        if let Some(last) = boundaries.last_mut() {
            *last = f64::INFINITY;
        }
        ChunkedIndex {
            chunks,
            boundaries,
            global_ids,
        }
    }

    /// Number of chunks.
    pub fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// The underlying chunk indices.
    pub fn chunks(&self) -> &[SlmIndex] {
        &self.chunks
    }

    /// The `num_chunks + 1` mass boundaries (first = 0, last = +∞).
    pub fn boundaries(&self) -> &[f64] {
        &self.boundaries
    }

    /// Per chunk: local peptide id → input db peptide id.
    pub(crate) fn global_ids(&self) -> &[Vec<u32>] {
        &self.global_ids
    }

    /// Total indexed spectra across chunks.
    pub fn num_spectra(&self) -> usize {
        self.chunks.iter().map(SlmIndex::num_spectra).sum()
    }

    /// Chunks whose mass range intersects `[query_mass − ΔM, query_mass + ΔM]`.
    /// For an open search this is all of them.
    pub fn chunks_for_query(&self, query_mass: f64, precursor_tolerance: f64) -> Vec<usize> {
        chunks_overlapping(
            &self.boundaries,
            self.chunks.len(),
            query_mass,
            precursor_tolerance,
        )
    }

    /// Searches one query across the relevant chunks, translating PSM
    /// peptide ids back to the input database's ids.
    ///
    /// Allocates fresh per-chunk scratch; batch callers should prefer
    /// [`ChunkedIndex::search_batch`], which reuses it across queries.
    pub fn search(&self, query: &Spectrum) -> SearchResult {
        let mut searchers = self.empty_searchers();
        self.search_with(&mut searchers, query)
    }

    /// Searches a batch of queries, reusing one lazily created [`Searcher`]
    /// (O(chunk) scratch state) per touched chunk across the whole batch
    /// instead of reallocating it for every chunk of every query.
    ///
    /// Results are identical to calling [`ChunkedIndex::search`] per query.
    pub fn search_batch(&self, queries: &[Spectrum]) -> Vec<SearchResult> {
        let mut searchers = self.empty_searchers();
        queries
            .iter()
            .map(|q| self.search_with(&mut searchers, q))
            .collect()
    }

    /// One not-yet-allocated searcher slot per chunk.
    fn empty_searchers(&self) -> Vec<Option<Searcher<'_>>> {
        (0..self.chunks.len()).map(|_| None).collect()
    }

    /// The search body: chunk selection, per-chunk shared-peak search with
    /// memoized scratch, merge. Searchers are *mapped* — they emit global
    /// peptide ids directly, so score ties already truncate in global
    /// `(peptide, modform)` order inside each chunk's top-k, and the merge
    /// here ranks exactly what a monolithic index over the same peptides
    /// would.
    fn search_with<'a>(
        &'a self,
        searchers: &mut [Option<Searcher<'a>>],
        query: &Spectrum,
    ) -> SearchResult {
        let tol = self
            .chunks
            .first()
            .map(|c| c.config().precursor_tolerance)
            .unwrap_or(f64::INFINITY);
        let top_k = self.chunks.first().map(|c| c.config().top_k).unwrap_or(10);
        let mut psms = Vec::new();
        let mut stats = QueryStats::default();
        for ci in self.chunks_for_query(query.precursor_neutral_mass(), tol) {
            let s = searchers[ci]
                .get_or_insert_with(|| Searcher::mapped(&self.chunks[ci], &self.global_ids[ci]));
            let r = s.search(query);
            stats.accumulate(&r.stats);
            psms.extend(r.psms);
        }
        finalize_psms(&mut psms, top_k);
        SearchResult { psms, stats }
    }

    /// Total heap bytes across all chunks.
    pub fn heap_bytes(&self) -> usize {
        self.chunks.iter().map(SlmIndex::heap_bytes).sum::<usize>()
            + self.boundaries.capacity() * std::mem::size_of::<f64>()
            + self
                .global_ids
                .iter()
                .map(|v| v.capacity() * std::mem::size_of::<u32>())
                .sum::<usize>()
    }

    /// The configuration shared by every chunk (the default configuration
    /// for an empty index — an empty index searches nothing either way).
    fn shared_config(&self) -> SlmConfig {
        self.chunks
            .first()
            .map(|c| c.config().clone())
            .unwrap_or_default()
    }

    // -----------------------------------------------------------------------
    // On-disk container.
    // -----------------------------------------------------------------------

    /// Writes the chunked container (`LBECHK2`) to `path`.
    ///
    /// Deterministic: the same logical index produces the same bytes
    /// whether its chunks are owned or arena-backed, so
    /// `write → open → write` round-trips byte-identically.
    ///
    /// Fails with [`std::io::ErrorKind::InvalidInput`] — before touching
    /// the file — if the index has more chunks than the `chk%05d` section
    /// name space can address.
    pub fn write_path(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        if self.chunks.len() > MAX_CHUNKS {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "{} chunks exceed the container's {MAX_CHUNKS}-chunk limit; \
                     rebuild with a larger chunk size",
                    self.chunks.len()
                ),
            ));
        }
        let cfg_bytes = io::config_bytes(&self.shared_config())?;
        let gid_offs: Vec<u64> = std::iter::once(0u64)
            .chain(self.global_ids.iter().scan(0u64, |acc, v| {
                *acc += v.len() as u64;
                Some(*acc)
            }))
            .collect();
        let gids_flat: Vec<u32> = self.global_ids.iter().flatten().copied().collect();

        let mut plans = vec![
            SectionPlan {
                name: SEC_CONFIG,
                len: cfg_bytes.len() as u64,
                crc: crate::format::crc32(&cfg_bytes),
            },
            SectionPlan {
                name: SEC_BOUNDS,
                len: (self.boundaries.len() * 8) as u64,
                crc: io::plan_section(|s| io::emit_f64s(s, &self.boundaries))?.1,
            },
            SectionPlan {
                name: SEC_GIDOFFS,
                len: (gid_offs.len() * 8) as u64,
                crc: io::plan_section(|s| io::emit_u64s(s, &gid_offs))?.1,
            },
            SectionPlan {
                name: SEC_GIDS,
                len: (gids_flat.len() * 4) as u64,
                crc: io::plan_section(|s| io::emit_u32s(s, &gids_flat))?.1,
            },
        ];
        // Plan each chunk blob: its four inner sections are checksummed
        // once (`plan_index_sections`), then the planned container is
        // streamed once into a checksumming sink for the outer blob CRC —
        // the emit pass below reuses the cached plans, so each chunk's
        // arrays are serialized exactly twice (CRC pass + write pass) and
        // never materialized as a second copy.
        let mut chunk_parts = Vec::with_capacity(self.chunks.len());
        for (i, chunk) in self.chunks.iter().enumerate() {
            let ccfg = io::config_bytes(chunk.config())?;
            let inner_plans = io::plan_index_sections(chunk, &ccfg)?;
            let (len, crc) =
                io::plan_section(|s| io::write_index_sections(s, chunk, &ccfg, &inner_plans))?;
            plans.push(SectionPlan {
                name: chunk_section_name(i),
                len,
                crc,
            });
            chunk_parts.push((ccfg, inner_plans));
        }

        let file = std::fs::File::create(path)?;
        let mut w = std::io::BufWriter::new(file);
        crate::format::write_container(&mut w, MAGIC_CHUNKED, &plans, |i, w| match i {
            0 => w.write_all(&cfg_bytes),
            1 => io::emit_f64s(w, &self.boundaries),
            2 => io::emit_u64s(w, &gid_offs),
            3 => io::emit_u32s(w, &gids_flat),
            _ => {
                let (ccfg, inner_plans) = &chunk_parts[i - 4];
                io::write_index_sections(w, &self.chunks[i - 4], ccfg, inner_plans)
            }
        })?;
        w.flush()
    }

    /// Opens a chunked container **eagerly**: the whole file is loaded with
    /// one sequential read into a single aligned arena shared by every
    /// chunk (zero-copy views). Use [`ChunkStore::open_path`] instead when
    /// the index must not be fully resident.
    pub fn open_path(path: impl AsRef<Path>) -> std::io::Result<ChunkedIndex> {
        Self::open_path_with(path, &ReadOptions::default())
    }

    /// [`ChunkedIndex::open_path`] with explicit [`ReadOptions`].
    pub fn open_path_with(
        path: impl AsRef<Path>,
        opts: &ReadOptions,
    ) -> std::io::Result<ChunkedIndex> {
        use std::io::{Read, Seek};
        let mut file = std::fs::File::open(path)?;
        let len = file.metadata()?.len();
        let mut buf = AlignedBuf::zeroed(len as usize);
        file.seek(std::io::SeekFrom::Start(0))?;
        file.read_exact(buf.as_mut_slice())?;
        drop(file);
        let arena = Arc::new(buf);
        let container = ParsedContainer::parse(arena.as_slice(), 0, None, MAGIC_CHUNKED)?;
        let directory = chunk_directory(container.sections())?;
        let meta = ChunkMeta::parse(arena.as_slice(), &container, directory.len())?;

        let mut chunks = Vec::with_capacity(directory.len());
        for (i, s) in directory.iter().enumerate() {
            // The outer blob CRC is deliberately NOT verified here: the
            // blob is itself a v2 container whose table checksum and
            // per-section CRCs cover every data byte, and read_v2_parsed
            // verifies those — checking the outer CRC too would checksum
            // the same bytes twice on the load path.
            let off = container.base + s.offset as usize;
            let inner = ParsedContainer::parse(arena.as_slice(), off, Some(s.len), MAGIC_V2)?;
            let chunk = io::read_v2_parsed(arena.clone(), &inner, opts)?;
            check_gid_cover(&chunk, &meta.global_ids[i])?;
            chunks.push(chunk);
        }
        Ok(ChunkedIndex {
            chunks,
            boundaries: meta.boundaries,
            global_ids: meta.global_ids,
        })
    }
}

/// Collects the `chk%05d` blob sections into ordinal order in one pass
/// over the section table — a linear `find` per chunk would make opening a
/// container near the 100k-chunk limit quadratic. Rejects malformed,
/// duplicate, or non-contiguous chunk names.
pub(crate) fn chunk_directory(sections: &[Section]) -> std::io::Result<Vec<Section>> {
    let mut dir: Vec<Option<Section>> = Vec::new();
    let mut count = 0usize;
    for s in sections {
        if !s.name.starts_with(b"chk") {
            continue;
        }
        let ordinal = std::str::from_utf8(&s.name[3..])
            .ok()
            .and_then(|d| d.parse::<usize>().ok())
            .ok_or_else(|| bad("malformed chunk section name"))?;
        if ordinal >= MAX_CHUNKS {
            return Err(bad("container claims more chunks than the format allows"));
        }
        if dir.len() <= ordinal {
            dir.resize(ordinal + 1, None);
        }
        if dir[ordinal].replace(*s).is_some() {
            return Err(bad("duplicate chunk section"));
        }
        count += 1;
    }
    if count != dir.len() {
        return Err(bad("chunk sections are not a contiguous 0..n run"));
    }
    Ok(dir.into_iter().flatten().collect())
}

/// Every local peptide id in the chunk's entries must map through its
/// global-id table — checked at load so a corrupt container cannot panic
/// the id translation in the search path.
fn check_gid_cover(chunk: &SlmIndex, gids: &[u32]) -> std::io::Result<()> {
    if chunk
        .entries()
        .iter()
        .any(|e| e.peptide as usize >= gids.len())
    {
        return Err(bad("chunk entry references a peptide outside its id table"));
    }
    Ok(())
}

/// The chunk-level metadata sections, shared by the eager and lazy open
/// paths.
struct ChunkMeta {
    config: SlmConfig,
    boundaries: Vec<f64>,
    global_ids: Vec<Vec<u32>>,
}

impl ChunkMeta {
    /// Parses the metadata from an eagerly loaded container image.
    fn parse(
        bytes: &[u8],
        container: &ParsedContainer,
        num_chunks: usize,
    ) -> std::io::Result<Self> {
        let section = |name: &[u8; 8]| -> std::io::Result<&[u8]> {
            let (off, len) = container.section_checked(bytes, name)?;
            Ok(&bytes[off..off + len])
        };
        Self::from_sections(
            section(&SEC_CONFIG)?,
            section(&SEC_BOUNDS)?,
            section(&SEC_GIDOFFS)?,
            section(&SEC_GIDS)?,
            num_chunks,
        )
    }

    /// Parses the metadata from the raw (already CRC-verified) payload
    /// bytes of the four metadata sections.
    fn from_sections(
        config_bytes: &[u8],
        bounds: &[u8],
        gidoffs: &[u8],
        gids: &[u8],
        num_chunks: usize,
    ) -> std::io::Result<Self> {
        let config = io::config_from_bytes(config_bytes)?;

        if !bounds.len().is_multiple_of(8) || bounds.len() / 8 != num_chunks + 1 {
            return Err(bad("bounds section does not match the chunk count"));
        }
        let boundaries: Vec<f64> = bounds
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        if boundaries.iter().any(|b| b.is_nan()) || boundaries.windows(2).any(|w| w[0] > w[1]) {
            return Err(bad("chunk boundaries are not monotone"));
        }

        if !gidoffs.len().is_multiple_of(8) || gidoffs.len() / 8 != num_chunks + 1 {
            return Err(bad("gidoffs section does not match the chunk count"));
        }
        let gid_offs: Vec<u64> = gidoffs
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();

        if !gids.len().is_multiple_of(4) {
            return Err(bad("gids section length is not a whole u32 count"));
        }
        let total = (gids.len() / 4) as u64;
        if gid_offs.windows(2).any(|w| w[0] > w[1])
            || gid_offs.first() != Some(&0)
            || gid_offs.last() != Some(&total)
        {
            return Err(bad("gid offsets are not a valid CSR over the id table"));
        }
        let gids_all: Vec<u32> = gids
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let global_ids: Vec<Vec<u32>> = gid_offs
            .windows(2)
            .map(|w| gids_all[w[0] as usize..w[1] as usize].to_vec())
            .collect();

        Ok(ChunkMeta {
            config,
            boundaries,
            global_ids,
        })
    }
}

/// Cumulative counters of a [`ChunkStore`]'s residency layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResidencyStats {
    /// Chunk accesses satisfied by an already-resident chunk.
    pub hits: u64,
    /// Chunks faulted in from disk.
    pub faults: u64,
    /// Chunks evicted to stay within the resident budget.
    pub evictions: u64,
}

/// Where a [`ChunkStore`]'s chunk blobs live on disk.
#[derive(Debug)]
enum ChunkSource {
    /// A single immutable `LBECHK2` container file: blobs are sections.
    Container {
        container: FileContainer,
        /// Per-chunk blob descriptors, in chunk order.
        directory: Vec<Section>,
    },
    /// An `LBECHK3` generation-store directory (see [`crate::lifecycle`]):
    /// blobs are content-addressed files, possibly compressed.
    Generation {
        dir: PathBuf,
        /// Manifest file name this store was loaded from — compared against
        /// `CURRENT` by [`ChunkStore::refresh_generation`].
        current: String,
        /// Per-chunk blob references, in chunk order.
        blobs: Vec<BlobRef>,
    },
}

/// A disk-backed chunked index with **lazy chunk residency**: at most
/// `max_resident` chunks are held in memory; [`ChunkStore::search`] faults
/// the chunks a query needs from disk on demand and evicts the
/// least-recently-used resident chunk when over budget — the paper's
/// "stored on disks when not in use" made real.
///
/// Backed either by one immutable `LBECHK2` container
/// ([`ChunkStore::open_path`]) or by a generational `LBECHK3` store
/// directory ([`ChunkStore::open_generation_dir`]), whose chunks live as
/// content-addressed — and usually compressed — blob files; a compressed
/// blob is decompressed on fault, so the resident budget bounds
/// *uncompressed* working-set bytes while the disk holds the compressed
/// form.
///
/// Search results are bit-identical to the fully-resident
/// [`ChunkedIndex`] for any budget (tested down to `max_resident = 1`).
#[derive(Debug)]
pub struct ChunkStore {
    source: ChunkSource,
    config: SlmConfig,
    /// `LBECHK2` boundary ladder; empty for a generation store (whose
    /// chunks carry explicit `intervals` instead).
    boundaries: Vec<f64>,
    /// Per-chunk closed mass-coverage intervals driving chunk selection.
    intervals: Vec<(f64, f64)>,
    global_ids: Vec<Vec<u32>>,
    resident: Vec<Option<SlmIndex>>,
    /// Last-access tick per chunk (0 = never).
    last_used: Vec<u64>,
    tick: u64,
    max_resident: usize,
    read_opts: ReadOptions,
    stats: ResidencyStats,
    /// Searcher scratch recycled across chunks and queries (O(largest
    /// chunk) once, instead of a fresh zeroed allocation per chunk visit).
    scratch: crate::query::SearchScratch,
}

impl ChunkStore {
    /// Opens a chunked container lazily, keeping at most `max_resident`
    /// chunks in memory (≥ 1). Only the header, section table, and
    /// metadata sections are read here; chunk blobs stay on disk until a
    /// query faults them in.
    pub fn open_path(path: impl AsRef<Path>, max_resident: usize) -> std::io::Result<Self> {
        Self::open_path_with(path, max_resident, &ReadOptions::default())
    }

    /// [`ChunkStore::open_path`] with explicit [`ReadOptions`] applied to
    /// every faulted chunk.
    pub fn open_path_with(
        path: impl AsRef<Path>,
        max_resident: usize,
        opts: &ReadOptions,
    ) -> std::io::Result<Self> {
        assert!(max_resident >= 1, "resident budget must be at least 1");
        let mut container = FileContainer::open(path, MAGIC_CHUNKED)?;
        // Metadata sections are a few KB — read (and CRC-verify) only
        // those; chunk blobs stay on disk.
        let directory = chunk_directory(container.sections())?;
        let cfg_bytes = container.read_section(&SEC_CONFIG)?;
        let bounds = container.read_section(&SEC_BOUNDS)?;
        let gidoffs = container.read_section(&SEC_GIDOFFS)?;
        let gids = container.read_section(&SEC_GIDS)?;
        let meta = ChunkMeta::from_sections(
            cfg_bytes.as_slice(),
            bounds.as_slice(),
            gidoffs.as_slice(),
            gids.as_slice(),
            directory.len(),
        )?;
        let n = directory.len();
        let intervals = meta.boundaries.windows(2).map(|w| (w[0], w[1])).collect();
        Ok(ChunkStore {
            source: ChunkSource::Container {
                container,
                directory,
            },
            config: meta.config,
            boundaries: meta.boundaries,
            intervals,
            global_ids: meta.global_ids,
            resident: (0..n).map(|_| None).collect(),
            last_used: vec![0; n],
            tick: 0,
            max_resident,
            read_opts: *opts,
            stats: ResidencyStats::default(),
            scratch: crate::query::SearchScratch::default(),
        })
    }

    /// Opens a generation-store directory (see [`crate::lifecycle`])
    /// lazily: only the `CURRENT` manifest is read here; chunk blobs are
    /// faulted in — decompressing and hash-verifying each — on demand.
    pub fn open_generation_dir(
        dir: impl AsRef<Path>,
        max_resident: usize,
    ) -> std::io::Result<Self> {
        Self::open_generation_dir_with(dir, max_resident, &ReadOptions::default())
    }

    /// [`ChunkStore::open_generation_dir`] with explicit [`ReadOptions`]
    /// applied to every faulted chunk.
    pub fn open_generation_dir_with(
        dir: impl AsRef<Path>,
        max_resident: usize,
        opts: &ReadOptions,
    ) -> std::io::Result<Self> {
        assert!(max_resident >= 1, "resident budget must be at least 1");
        let dir = dir.as_ref();
        let (current, manifest) = crate::lifecycle::load_current(dir)?;
        let (config, blobs, intervals, global_ids) = manifest.into_store_parts();
        let n = blobs.len();
        Ok(ChunkStore {
            source: ChunkSource::Generation {
                dir: dir.to_path_buf(),
                current,
                blobs,
            },
            config,
            boundaries: Vec::new(),
            intervals,
            global_ids,
            resident: (0..n).map(|_| None).collect(),
            last_used: vec![0; n],
            tick: 0,
            max_resident,
            read_opts: *opts,
            stats: ResidencyStats::default(),
            scratch: crate::query::SearchScratch::default(),
        })
    }

    /// For a generation store: if `CURRENT` has moved since this store
    /// loaded its manifest, reload it **without dropping state** — resident
    /// chunks whose content hashes survive into the new generation carry
    /// over (matched by hash, re-checked against their new id tables), so
    /// only chunks whose hashes changed re-fault. Returns `true` if a newer
    /// generation was picked up. Always `Ok(false)` for a plain container.
    ///
    /// Cumulative [`ResidencyStats`] persist across refreshes; carried-over
    /// chunks count as neither faults nor hits.
    pub fn refresh_generation(&mut self) -> std::io::Result<bool> {
        let dir = match &self.source {
            ChunkSource::Generation { dir, current, .. } => {
                if crate::lifecycle::read_current_name(dir)? == *current {
                    return Ok(false);
                }
                dir.clone()
            }
            ChunkSource::Container { .. } => return Ok(false),
        };
        let (current, manifest) = crate::lifecycle::load_current(&dir)?;
        let (config, blobs, intervals, global_ids) = manifest.into_store_parts();

        // Park the old residents by content hash, then reseat the ones the
        // new generation still references: a resident chunk is a pure
        // function of its blob bytes (the id mapping is applied at search
        // time), so an unchanged hash means an unchanged chunk.
        let mut parked: std::collections::HashMap<u64, SlmIndex> = std::collections::HashMap::new();
        if let ChunkSource::Generation {
            blobs: old_blobs, ..
        } = &self.source
        {
            for (i, slot) in self.resident.iter_mut().enumerate() {
                if let Some(chunk) = slot.take() {
                    parked.insert(old_blobs[i].hash, chunk);
                }
            }
        }
        let n = blobs.len();
        let mut resident: Vec<Option<SlmIndex>> = (0..n).map(|_| None).collect();
        let mut last_used = vec![0u64; n];
        for (i, b) in blobs.iter().enumerate() {
            if let Some(chunk) = parked.remove(&b.hash) {
                if check_gid_cover(&chunk, &global_ids[i]).is_ok() {
                    self.tick += 1;
                    resident[i] = Some(chunk);
                    last_used[i] = self.tick;
                }
            }
        }
        self.source = ChunkSource::Generation {
            dir,
            current,
            blobs,
        };
        self.config = config;
        self.intervals = intervals;
        self.global_ids = global_ids;
        self.resident = resident;
        self.last_used = last_used;
        Ok(true)
    }

    /// Number of chunks in the store.
    pub fn num_chunks(&self) -> usize {
        self.intervals.len()
    }

    /// Number of chunks currently resident in memory.
    pub fn num_resident(&self) -> usize {
        self.resident.iter().filter(|c| c.is_some()).count()
    }

    /// Indices of the currently resident chunks, ascending.
    pub fn resident_chunks(&self) -> Vec<usize> {
        self.resident
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_some())
            .map(|(i, _)| i)
            .collect()
    }

    /// The resident-chunk budget.
    pub fn max_resident(&self) -> usize {
        self.max_resident
    }

    /// Cumulative hit/fault/eviction counters.
    pub fn stats(&self) -> ResidencyStats {
        self.stats
    }

    /// The configuration shared by every chunk.
    pub fn config(&self) -> &SlmConfig {
        &self.config
    }

    /// The `num_chunks + 1` mass boundaries of an `LBECHK2` container;
    /// empty for a generation store, whose chunks carry per-chunk
    /// intervals instead of a shared ladder.
    pub fn boundaries(&self) -> &[f64] {
        &self.boundaries
    }

    /// Heap bytes of the currently resident chunks (the disk-backed
    /// footprint the resident budget bounds).
    pub fn resident_heap_bytes(&self) -> usize {
        self.resident
            .iter()
            .flatten()
            .map(SlmIndex::heap_bytes)
            .sum()
    }

    /// On-disk vs in-memory accounting: logical (uncompressed) chunk
    /// bytes, stored (possibly compressed) bytes, and the resident set.
    pub fn storage_footprint(&self) -> StorageFootprint {
        let (logical_bytes, stored_bytes) = match &self.source {
            ChunkSource::Container { directory, .. } => {
                let total: u64 = directory.iter().map(|s| s.len).sum();
                (total, total)
            }
            ChunkSource::Generation { blobs, .. } => (
                blobs.iter().map(|b| b.raw_len).sum(),
                blobs.iter().map(|b| b.stored_len).sum(),
            ),
        };
        StorageFootprint {
            logical_bytes,
            stored_bytes,
            resident_bytes: self.resident_heap_bytes(),
            num_chunks: self.num_chunks(),
            num_resident: self.num_resident(),
        }
    }

    /// Chunks a query of this precursor mass must visit (ascending).
    pub fn chunks_for_query(&self, query_mass: f64) -> Vec<usize> {
        intervals_overlapping(&self.intervals, query_mass, self.config.precursor_tolerance)
    }

    /// Makes chunk `ci` resident, faulting it from disk (and evicting the
    /// least-recently-used resident chunk if over budget).
    fn ensure_resident(&mut self, ci: usize) -> std::io::Result<()> {
        self.tick += 1;
        if self.resident[ci].is_some() {
            self.stats.hits += 1;
            self.last_used[ci] = self.tick;
            return Ok(());
        }
        while self.num_resident() >= self.max_resident {
            let lru = self
                .resident
                .iter()
                .enumerate()
                .filter(|(_, c)| c.is_some())
                .min_by_key(|&(i, _)| self.last_used[i])
                .map(|(i, _)| i)
                .expect("resident count >= budget >= 1");
            self.resident[lru] = None;
            self.stats.evictions += 1;
        }
        let opts = self.read_opts;
        let arena = match &mut self.source {
            // The blob's inner container self-verifies (table checksum +
            // per-section CRCs), so the outer section CRC is not re-checked.
            ChunkSource::Container {
                container,
                directory,
            } => Arc::new(container.read_section_desc_unverified(&directory[ci])?),
            // A generation blob is covered end to end by its content hash
            // (computed over the *uncompressed* bytes, padding included),
            // so a corrupt or swapped blob file fails here — and the
            // compressed frame additionally self-verifies during
            // decompression.
            ChunkSource::Generation { dir, blobs, .. } => {
                let b = blobs[ci];
                let bytes = std::fs::read(crate::lifecycle::blob_path(dir, b.hash))?;
                let raw = if crate::compress::is_compressed_blob(&bytes) {
                    crate::compress::decompress_container(&bytes, MAGIC_V2)?
                } else {
                    AlignedBuf::from_slice(&bytes)
                };
                if raw.len() as u64 != b.raw_len || content_hash64(raw.as_slice()) != b.hash {
                    return Err(bad("chunk blob does not match its manifest content hash"));
                }
                Arc::new(raw)
            }
        };
        let inner = ParsedContainer::parse(arena.as_slice(), 0, None, MAGIC_V2)?;
        let chunk = io::read_v2_parsed(arena, &inner, &opts)?;
        check_gid_cover(&chunk, &self.global_ids[ci])?;
        self.resident[ci] = Some(chunk);
        self.last_used[ci] = self.tick;
        self.stats.faults += 1;
        Ok(())
    }

    /// Searches one query, faulting in the chunks its precursor window
    /// touches. Results are identical to [`ChunkedIndex::search`] on the
    /// fully-resident index.
    pub fn search(&mut self, query: &Spectrum) -> std::io::Result<SearchResult> {
        self.search_with_opts(query, &QueryOptions::default())
    }

    /// [`ChunkStore::search`] under per-request [`QueryOptions`]: a
    /// tolerance override narrows (or widens) both the chunk selection and
    /// every per-chunk band; a top-k override bounds the per-chunk heaps
    /// and the merged result. Default options are bit-identical to
    /// [`ChunkStore::search`].
    pub fn search_with_opts(
        &mut self,
        query: &Spectrum,
        opts: &QueryOptions,
    ) -> std::io::Result<SearchResult> {
        let tol = opts.effective_tolerance(&self.config);
        let top_k = opts.effective_top_k(&self.config);
        let mut psms = Vec::new();
        let mut stats = QueryStats::default();
        let touched = intervals_overlapping(&self.intervals, query.precursor_neutral_mass(), tol);
        for ci in touched {
            self.ensure_resident(ci)?;
            let chunk = self.resident[ci].as_ref().expect("just made resident");
            // Recycle one scratch across chunks and queries: sized once to
            // the largest needed band instead of zero-allocated per visit
            // (the same reuse ChunkedIndex::search_batch gets from memoized
            // searchers). Scratch reuse is invisible in results (tested).
            // Mapped: PSMs carry global peptide ids before the per-chunk
            // top-k truncates, so tie order matches a monolithic search.
            let mut searcher = Searcher::with_scratch_mapped(
                chunk,
                std::mem::take(&mut self.scratch),
                &self.global_ids[ci],
            );
            let r = searcher.search_with_opts(query, opts);
            self.scratch = searcher.into_scratch();
            stats.accumulate(&r.stats);
            psms.extend(r.psms);
        }
        finalize_psms(&mut psms, top_k);
        Ok(SearchResult { psms, stats })
    }

    /// Searches a batch of queries in order.
    pub fn search_batch(&mut self, queries: &[Spectrum]) -> std::io::Result<Vec<SearchResult>> {
        queries.iter().map(|q| self.search(q)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbe_bio::mods::ModForm;
    use lbe_spectra::spectrum::Peak;
    use lbe_spectra::theo::{TheoParams, TheoSpectrum};

    fn db() -> PeptideDb {
        PeptideDb::from_vec(
            [
                "GGGGGK",
                "AAAGGK",
                "PEPTIDEK",
                "ELVISLIVESK",
                "WWWWWWK",
                "SAMPLERK",
            ]
            .iter()
            .map(|s| Peptide::new(s.as_bytes(), 0, 0).unwrap())
            .collect(),
        )
    }

    fn perfect_query(seq: &[u8]) -> Spectrum {
        let theo = TheoSpectrum::from_sequence(
            seq,
            &ModForm::unmodified(),
            &ModSpec::none(),
            &TheoParams::default(),
        );
        let peaks = theo
            .fragment_mzs
            .iter()
            .map(|&m| Peak::new(m, 100.0))
            .collect();
        Spectrum::new(
            0,
            lbe_bio::aa::precursor_mz(theo.precursor_mass, 2),
            2,
            peaks,
        )
    }

    fn tmpfile(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join("lbe_chunked_tests");
        std::fs::create_dir_all(&d).unwrap();
        d.join(name)
    }

    #[test]
    fn chunk_count_and_sizes() {
        let c = ChunkedIndex::build(&db(), SlmConfig::default(), ModSpec::none(), 2);
        assert_eq!(c.num_chunks(), 3);
        assert_eq!(c.num_spectra(), 6);
    }

    #[test]
    fn chunks_are_mass_sorted() {
        let c = ChunkedIndex::build(&db(), SlmConfig::default(), ModSpec::none(), 2);
        for w in c.boundaries.windows(2) {
            assert!(w[0] <= w[1]);
        }
        // Max mass in chunk i ≤ min mass in chunk i+1.
        for i in 0..c.num_chunks() - 1 {
            let max_i = c.chunks()[i]
                .entries()
                .iter()
                .map(|e| e.precursor_mass)
                .fold(f32::NEG_INFINITY, f32::max);
            let min_next = c.chunks()[i + 1]
                .entries()
                .iter()
                .map(|e| e.precursor_mass)
                .fold(f32::INFINITY, f32::min);
            assert!(max_i <= min_next);
        }
    }

    #[test]
    fn open_search_touches_all_chunks() {
        let c = ChunkedIndex::build(&db(), SlmConfig::default(), ModSpec::none(), 2);
        assert_eq!(c.chunks_for_query(800.0, f64::INFINITY), vec![0, 1, 2]);
    }

    #[test]
    fn closed_search_skips_chunks() {
        let cfg = SlmConfig::default().with_precursor_tolerance(1.0);
        let c = ChunkedIndex::build(&db(), cfg, ModSpec::none(), 2);
        let m = lbe_bio::aa::peptide_neutral_mass(b"GGGGGK").unwrap();
        let touched = c.chunks_for_query(m, 1.0);
        assert!(touched.len() < 3);
        assert!(touched.contains(&0));
    }

    #[test]
    fn search_returns_global_ids() {
        let c = ChunkedIndex::build(&db(), SlmConfig::default(), ModSpec::none(), 2);
        let r = c.search(&perfect_query(b"PEPTIDEK"));
        assert!(!r.psms.is_empty());
        assert_eq!(r.psms[0].peptide, 2); // id of PEPTIDEK in the input db
    }

    #[test]
    fn chunked_equals_monolithic_for_open_search() {
        let cfg = SlmConfig {
            shared_peak_threshold: 2,
            top_k: usize::MAX,
            ..Default::default()
        };
        let mono = IndexBuilder::new(cfg.clone(), ModSpec::none()).build(&db());
        let chunked = ChunkedIndex::build(&db(), cfg, ModSpec::none(), 2);
        let q = perfect_query(b"ELVISLIVESK");
        let mut ms = Searcher::new(&mono);
        let rm = ms.search(&q);
        let rc = chunked.search(&q);
        // Same candidate set (compare (peptide, shared) multisets).
        let mut a: Vec<(u32, u16)> = rm
            .psms
            .iter()
            .map(|p| (p.peptide, p.shared_peaks))
            .collect();
        let mut b: Vec<(u32, u16)> = rc
            .psms
            .iter()
            .map(|p| (p.peptide, p.shared_peaks))
            .collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn single_chunk_degenerate_case() {
        let c = ChunkedIndex::build(&db(), SlmConfig::default(), ModSpec::none(), 100);
        assert_eq!(c.num_chunks(), 1);
        let r = c.search(&perfect_query(b"SAMPLERK"));
        assert_eq!(r.psms[0].peptide, 5);
    }

    #[test]
    fn heap_bytes_positive() {
        let c = ChunkedIndex::build(&db(), SlmConfig::default(), ModSpec::none(), 2);
        assert!(c.heap_bytes() > 0);
    }

    #[test]
    fn batch_search_equals_per_query_search() {
        // The batch entry point reuses per-chunk scratch across queries;
        // scratch reuse must be invisible in the results.
        let c = ChunkedIndex::build(&db(), SlmConfig::default(), ModSpec::none(), 2);
        let queries: Vec<Spectrum> = [
            &b"PEPTIDEK"[..],
            b"ELVISLIVESK",
            b"PEPTIDEK",
            b"GGGGGK",
            b"SAMPLERK",
            b"WWWWWWK",
        ]
        .iter()
        .map(|s| perfect_query(s))
        .collect();
        let batch = c.search_batch(&queries);
        assert_eq!(batch.len(), queries.len());
        for (q, r) in queries.iter().zip(&batch) {
            assert_eq!(&c.search(q), r);
        }
    }

    #[test]
    fn batch_search_empty() {
        let c = ChunkedIndex::build(&db(), SlmConfig::default(), ModSpec::none(), 2);
        assert!(c.search_batch(&[]).is_empty());
    }

    // -----------------------------------------------------------------------
    // Container + residency tests.
    // -----------------------------------------------------------------------

    #[test]
    fn container_round_trips_byte_identically() {
        // The acceptance criterion: write → open → write produces identical
        // bytes, including the arena-backed reopened form.
        for (name, mods) in [("rt_plain.lbe", false), ("rt_mods.lbe", true)] {
            let spec = if mods {
                ModSpec::paper_default()
            } else {
                ModSpec::none()
            };
            let c = ChunkedIndex::build(&db(), SlmConfig::default(), spec, 2);
            let p1 = tmpfile(name);
            let p2 = tmpfile(&format!("again_{name}"));
            c.write_path(&p1).unwrap();
            let reopened = ChunkedIndex::open_path(&p1).unwrap();
            assert!(reopened.chunks().iter().all(SlmIndex::is_arena_backed));
            assert_eq!(reopened, c);
            reopened.write_path(&p2).unwrap();
            assert_eq!(
                std::fs::read(&p1).unwrap(),
                std::fs::read(&p2).unwrap(),
                "byte-identical round trip ({name})"
            );
            std::fs::remove_file(&p1).ok();
            std::fs::remove_file(&p2).ok();
        }
    }

    #[test]
    fn store_with_budget_one_is_bit_identical_to_resident_index() {
        // The other acceptance criterion: a disk-backed store allowed one
        // resident chunk returns bit-identical results to the fully
        // resident in-memory index.
        let c = ChunkedIndex::build(&db(), SlmConfig::default(), ModSpec::none(), 2);
        let p = tmpfile("budget1.lbe");
        c.write_path(&p).unwrap();
        let queries: Vec<Spectrum> = [
            &b"PEPTIDEK"[..],
            b"ELVISLIVESK",
            b"GGGGGK",
            b"SAMPLERK",
            b"WWWWWWK",
            b"AAAGGK",
        ]
        .iter()
        .map(|s| perfect_query(s))
        .collect();
        let expect = c.search_batch(&queries);
        for budget in [1usize, 2, 16] {
            let mut store = ChunkStore::open_path(&p, budget).unwrap();
            let got = store.search_batch(&queries).unwrap();
            assert_eq!(got, expect, "budget {budget}");
            assert!(store.num_resident() <= budget);
        }
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn store_respects_budget_and_counts_residency_events() {
        let c = ChunkedIndex::build(&db(), SlmConfig::default(), ModSpec::none(), 2);
        let p = tmpfile("budget_stats.lbe");
        c.write_path(&p).unwrap();
        // Open search: every query touches all 3 chunks.
        let mut store = ChunkStore::open_path(&p, 1).unwrap();
        assert_eq!(store.num_chunks(), 3);
        assert_eq!(store.num_resident(), 0);
        store.search(&perfect_query(b"PEPTIDEK")).unwrap();
        let s1 = store.stats();
        assert_eq!((s1.faults, s1.evictions, s1.hits), (3, 2, 0));
        assert_eq!(store.num_resident(), 1);
        // A second query re-faults everything (thrash at budget 1)...
        store.search(&perfect_query(b"GGGGGK")).unwrap();
        let s2 = store.stats();
        assert_eq!((s2.faults, s2.evictions), (6, 5));
        assert!(store.resident_heap_bytes() > 0);

        // ...while an all-resident store faults each chunk exactly once.
        let mut warm = ChunkStore::open_path(&p, usize::MAX).unwrap();
        warm.search(&perfect_query(b"PEPTIDEK")).unwrap();
        warm.search(&perfect_query(b"GGGGGK")).unwrap();
        let sw = warm.stats();
        assert_eq!((sw.faults, sw.evictions, sw.hits), (3, 0, 3));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn store_lru_evicts_least_recently_used() {
        // Closed search with budget 2: touching chunks {0,1}, then {2},
        // must evict chunk 0 (least recent), keeping chunk 1... then
        // touching {1} is a hit.
        let cfg = SlmConfig::default().with_precursor_tolerance(1.0);
        let c = ChunkedIndex::build(&db(), cfg, ModSpec::none(), 2);
        let p = tmpfile("lru.lbe");
        c.write_path(&p).unwrap();
        let mut store = ChunkStore::open_path(&p, 2).unwrap();
        // Fault 0 then 1 directly through the public search path.
        let m0 = lbe_bio::aa::peptide_neutral_mass(b"GGGGGK").unwrap();
        let chunks0 = store.chunks_for_query(m0);
        assert!(chunks0.contains(&0));
        store.search(&perfect_query(b"GGGGGK")).unwrap();
        store.search(&perfect_query(b"PEPTIDEK")).unwrap();
        store.search(&perfect_query(b"ELVISLIVESK")).unwrap();
        // Budget respected throughout.
        assert!(store.num_resident() <= 2);
        assert!(store.stats().evictions >= 1);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn empty_database_container_round_trips() {
        let c = ChunkedIndex::build(&PeptideDb::new(), SlmConfig::default(), ModSpec::none(), 4);
        assert_eq!(c.num_chunks(), 0);
        let p = tmpfile("empty.lbe");
        c.write_path(&p).unwrap();
        let reopened = ChunkedIndex::open_path(&p).unwrap();
        assert_eq!(reopened.num_chunks(), 0);
        assert_eq!(reopened, c);
        let mut store = ChunkStore::open_path(&p, 1).unwrap();
        let r = store.search(&perfect_query(b"PEPTIDEK")).unwrap();
        assert!(r.psms.is_empty());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn corrupt_blob_fails_on_fault_not_open() {
        let c = ChunkedIndex::build(&db(), SlmConfig::default(), ModSpec::none(), 2);
        let p = tmpfile("corrupt_blob.lbe");
        c.write_path(&p).unwrap();
        // Flip a byte in the last chunk blob (near the end of the file).
        let mut bytes = std::fs::read(&p).unwrap();
        let pos = bytes.len() - 16;
        bytes[pos] ^= 0x20;
        std::fs::write(&p, &bytes).unwrap();
        // Lazy open succeeds — the blob has not been touched yet.
        let mut store = ChunkStore::open_path(&p, 4).unwrap();
        // An open search eventually faults the corrupt chunk and fails
        // cleanly.
        let err = store.search(&perfect_query(b"PEPTIDEK")).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // The eager open touches every blob and fails immediately.
        assert!(ChunkedIndex::open_path(&p).is_err());

        // Bit rot is the checksums' job. A blob whose bytes are intact but
        // whose bin directory is *wrong* (checksums recomputed over it)
        // gets past them, and must be stopped by the always-on cheap
        // validation — at fault time, typed, never by a lookup walking out
        // of its arrays.
        c.write_path(&p).unwrap();
        let pristine = std::fs::read(&p).unwrap();
        let last_chunk = chunk_section_name(c.num_chunks() - 1);
        for (what, edit, expect) in io::test_support::directory_corruptions() {
            let bent = crate::format::rewrite_container(&pristine, MAGIC_CHUNKED, |name, blob| {
                if *name != last_chunk {
                    return blob.to_vec();
                }
                let chunk = io::read_index_bytes(blob, &ReadOptions::default()).unwrap();
                let (mut bitmap, mut starts) = io::test_support::dir_parts(&chunk);
                edit(&mut bitmap, &mut starts);
                let broken = SlmIndex::from_owned_unchecked_with(
                    chunk.config().clone(),
                    chunk.entries().to_vec(),
                    (bitmap, starts),
                    chunk.postings().to_vec(),
                    true,
                );
                let mut out = Vec::new();
                io::write_index(&mut out, &broken).unwrap();
                out
            });
            std::fs::write(&p, &bent).unwrap();
            for opts in [ReadOptions::default(), ReadOptions::trusted()] {
                let mut store = ChunkStore::open_path_with(&p, 4, &opts).unwrap();
                let err = store.search(&perfect_query(b"PEPTIDEK")).unwrap_err();
                assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}");
                assert!(err.to_string().contains(expect), "{what}: {err}");
            }
            assert!(ChunkedIndex::open_path(&p).is_err(), "{what}");
        }
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn legacy_binoffs_container_opens_and_searches_identically() {
        // An `LBECHK2` file written before the bin directory: same outer
        // container, every chunk blob in the dense `binoffs` layout.
        let c = ChunkedIndex::build(&db(), SlmConfig::default(), ModSpec::none(), 2);
        let p = tmpfile("legacy_current.lbe");
        let pl = tmpfile("legacy_binoffs.lbe");
        c.write_path(&p).unwrap();
        let current = std::fs::read(&p).unwrap();
        let legacy = crate::format::rewrite_container(&current, MAGIC_CHUNKED, |name, blob| {
            if name.starts_with(b"chk") {
                io::test_support::downgrade_to_binoffs(blob)
            } else {
                blob.to_vec()
            }
        });
        assert!(legacy.len() > current.len() + 3 * 4_000_000);
        std::fs::write(&pl, &legacy).unwrap();

        let reopened = ChunkedIndex::open_path(&pl).unwrap();
        assert_eq!(reopened, c);
        for chunk in reopened.chunks() {
            chunk.validate().unwrap();
        }
        // Saving the loaded index writes the current layout.
        reopened.write_path(&pl).unwrap();
        assert_eq!(std::fs::read(&pl).unwrap(), current);
        std::fs::write(&pl, &legacy).unwrap();

        let queries: Vec<Spectrum> = [&b"PEPTIDEK"[..], b"ELVISLIVESK", b"GGGGGK", b"WWWWWWK"]
            .iter()
            .map(|s| perfect_query(s))
            .collect();
        let expect = c.search_batch(&queries);
        assert_eq!(reopened.search_batch(&queries), expect);
        for budget in [1usize, 16] {
            let mut store = ChunkStore::open_path(&pl, budget).unwrap();
            assert_eq!(store.search_batch(&queries).unwrap(), expect);
            let mut now = ChunkStore::open_path(&p, budget).unwrap();
            now.search_batch(&queries).unwrap();
            assert_eq!(store.stats(), now.stats(), "same residency sequence");
            assert_eq!(store.resident_heap_bytes(), now.resident_heap_bytes());
        }
        std::fs::remove_file(&p).ok();
        std::fs::remove_file(&pl).ok();
    }

    #[test]
    fn truncated_container_rejected_at_open() {
        let c = ChunkedIndex::build(&db(), SlmConfig::default(), ModSpec::none(), 2);
        let p = tmpfile("truncated.lbe");
        c.write_path(&p).unwrap();
        let bytes = std::fs::read(&p).unwrap();
        std::fs::write(&p, &bytes[..bytes.len() - 5]).unwrap();
        assert!(ChunkStore::open_path(&p, 1).is_err());
        assert!(ChunkedIndex::open_path(&p).is_err());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn store_tolerance_override_equals_container_built_closed() {
        // Per-request ΔM on an open-built container == a container built
        // closed at that ΔM: same chunk selection, same bands, same PSMs.
        let open = ChunkedIndex::build(&db(), SlmConfig::default(), ModSpec::none(), 2);
        let closed = ChunkedIndex::build(
            &db(),
            SlmConfig::default().with_precursor_tolerance(1.0),
            ModSpec::none(),
            2,
        );
        let po = tmpfile("opts_open.lbe");
        let pc = tmpfile("opts_closed.lbe");
        open.write_path(&po).unwrap();
        closed.write_path(&pc).unwrap();
        let mut so = ChunkStore::open_path(&po, usize::MAX).unwrap();
        let mut sc = ChunkStore::open_path(&pc, usize::MAX).unwrap();
        let opts = QueryOptions {
            precursor_tolerance: Some(1.0),
            ..Default::default()
        };
        for seq in [&b"PEPTIDEK"[..], b"GGGGGK", b"ELVISLIVESK"] {
            let q = perfect_query(seq);
            assert_eq!(
                so.search_with_opts(&q, &opts).unwrap(),
                sc.search(&q).unwrap(),
                "{seq:?}"
            );
        }
        // The override also narrows which chunks fault in: a 1 Da window
        // must not touch all 3 chunks of the open-built container.
        let mut narrow = ChunkStore::open_path(&po, usize::MAX).unwrap();
        narrow
            .search_with_opts(&perfect_query(b"GGGGGK"), &opts)
            .unwrap();
        assert!(narrow.stats().faults < 3, "{:?}", narrow.stats());
        // A top-k override truncates the merged result.
        let k1 = QueryOptions {
            top_k: Some(1),
            ..Default::default()
        };
        let r = so
            .search_with_opts(&perfect_query(b"PEPTIDEK"), &k1)
            .unwrap();
        assert_eq!(r.psms.len(), 1);
        assert_eq!(
            r.psms[0],
            so.search(&perfect_query(b"PEPTIDEK")).unwrap().psms[0]
        );
        std::fs::remove_file(&po).ok();
        std::fs::remove_file(&pc).ok();
    }

    #[test]
    fn closed_search_store_skips_nonoverlapping_chunks() {
        // With a tight precursor window the store must not fault chunks
        // the query cannot match — disk traffic tracks the mass window.
        let cfg = SlmConfig::default().with_precursor_tolerance(1.0);
        let c = ChunkedIndex::build(&db(), cfg, ModSpec::none(), 2);
        let p = tmpfile("closed.lbe");
        c.write_path(&p).unwrap();
        let mut store = ChunkStore::open_path(&p, 8).unwrap();
        store.search(&perfect_query(b"GGGGGK")).unwrap();
        assert!(
            store.stats().faults < 3,
            "a 1 Da window must not fault every chunk: {:?}",
            store.stats()
        );
        std::fs::remove_file(&p).ok();
    }
}
