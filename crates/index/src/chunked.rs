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
//! scheme with one type per job:
//!
//! * [`ChunkedIndex`] **builds**: it is what [`ChunkedIndex::build`] hands
//!   the writers — [`ChunkedIndex::write_path`] for an `LBECHK2` file, the
//!   generation store of [`crate::lifecycle`] for an `LBECHK3` directory.
//!   It neither opens nor searches anything.
//! * [`ChunkStore`] **opens and searches** both container kinds, and is the
//!   only thing that does: the §II-B observation that chunks "may be stored
//!   on disks when not in use" made real. It holds at most a configured
//!   number of chunks resident, faulting them in from the container on
//!   demand and evicting least-recently-used ones; a budget of
//!   `usize::MAX` is the all-resident index.
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
//! [`ChunkStore::open_path`] reads only the header, table, and metadata
//! sections (a few KB) and leaves the blobs on disk; because each blob is
//! itself a v2 container at an aligned offset, a fault is one read into an
//! aligned arena that the chunk's arrays then view in place. The
//! "gidoffs" + "gids" pair is shared with the `LBECHK3` manifest, which is
//! why its encode and decode (`gid_csr_bytes`, `gid_csr_from_bytes`) live
//! here once.

use crate::builder::IndexBuilder;
use crate::config::SlmConfig;
use crate::footprint::StorageFootprint;
use crate::format::{section_name, AlignedBuf, FileContainer, Section, SectionPlan, VerifiedImage};
use crate::io::{self, ReadOptions, MAGIC_CHUNKED, MAGIC_V2, SEC_CONFIG};
use crate::lifecycle::BlobRef;
use crate::query::{QueryOptions, QueryStats, SearchResult, Searcher};
use crate::slm::SlmIndex;
use lbe_bio::mods::ModSpec;
use lbe_bio::peptide::{Peptide, PeptideDb};
use lbe_spectra::spectrum::Spectrum;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

pub(crate) const SEC_BOUNDS: [u8; 8] = section_name("bounds");
pub(crate) const SEC_GIDOFFS: [u8; 8] = section_name("gidoffs");
pub(crate) const SEC_GIDS: [u8; 8] = section_name("gids");

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

/// Indices of the chunks whose closed mass-coverage interval intersects
/// `[mass − tol, mass + tol]`, ascending; all of them for an open search
/// (infinite `tol`). Closed overlap is conservative at the edges, and the
/// intervals need not tile: an `LBECHK2` file's are consecutive rungs of its
/// boundary ladder, a generation store's delta chunks may overlap each
/// other and the base generation arbitrarily.
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

// ---------------------------------------------------------------------------
// Metadata section codecs, shared by the `LBECHK2` file and the `LBECHK3`
// manifest of `crate::lifecycle`.
// ---------------------------------------------------------------------------

/// Encodes one id table per chunk as the "gidoffs" (`u64` CSR offsets) and
/// "gids" (flat `u32` ids) section payloads.
pub(crate) fn gid_csr_bytes(tables: &[Vec<u32>]) -> (Vec<u8>, Vec<u8>) {
    let mut gidoffs = Vec::with_capacity((tables.len() + 1) * 8);
    let mut gids = Vec::new();
    let mut acc = 0u64;
    gidoffs.extend_from_slice(&acc.to_le_bytes());
    for table in tables {
        acc += table.len() as u64;
        gidoffs.extend_from_slice(&acc.to_le_bytes());
        for &g in table {
            gids.extend_from_slice(&g.to_le_bytes());
        }
    }
    (gidoffs, gids)
}

/// Decodes [`gid_csr_bytes`]' payloads (already CRC-verified) back into one
/// id table per chunk, rejecting anything that is not a CSR of exactly
/// `num_chunks` rows over the whole id table.
pub(crate) fn gid_csr_from_bytes(
    gidoffs: &[u8],
    gids: &[u8],
    num_chunks: usize,
) -> std::io::Result<Vec<Vec<u32>>> {
    if !gidoffs.len().is_multiple_of(8) || gidoffs.len() / 8 != num_chunks + 1 {
        return Err(bad("gidoffs section does not match the chunk count"));
    }
    if !gids.len().is_multiple_of(4) {
        return Err(bad("gids section length is not a whole u32 count"));
    }
    let offs = io::decode_u64s(gidoffs);
    let all = io::decode_u32s(gids);
    if offs.windows(2).any(|w| w[0] > w[1])
        || offs.first() != Some(&0)
        || offs.last() != Some(&(all.len() as u64))
    {
        return Err(bad("gid offsets are not a valid CSR over the id table"));
    }
    Ok(offs
        .windows(2)
        .map(|w| all[w[0] as usize..w[1] as usize].to_vec())
        .collect())
}

/// What a boundary ladder means for chunk selection: chunk i covers the
/// closed interval `[boundaries[i], boundaries[i+1]]` (first edge 0, last
/// +∞). A generation store records these per chunk, so a [`ChunkStore`]
/// over a freshly built store selects exactly the chunks it would over the
/// equivalent `LBECHK2` file.
pub(crate) fn ladder_intervals(boundaries: &[f64]) -> Vec<(f64, f64)> {
    boundaries.windows(2).map(|w| (w[0], w[1])).collect()
}

/// Decodes the "bounds" payload (already CRC-verified) — `num_chunks + 1`
/// NaN-free, non-decreasing mass boundaries — into [`ladder_intervals`].
pub(crate) fn bounds_from_bytes(
    bounds: &[u8],
    num_chunks: usize,
) -> std::io::Result<Vec<(f64, f64)>> {
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
    Ok(ladder_intervals(&boundaries))
}

/// The build product: a mass-partitioned sequence of SLM indices, ready to
/// be written as an `LBECHK2` file ([`ChunkedIndex::write_path`]) or as the
/// blobs of a generation store ([`crate::lifecycle`]). Searching either goes
/// through [`ChunkStore`].
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

    /// Writes the chunked container (`LBECHK2`) to `path`.
    ///
    /// Deterministic: the same logical index produces the same bytes, and
    /// each chunk's section is exactly what [`io::write_index`] emits for
    /// that chunk.
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
        let mut bounds = Vec::with_capacity(self.boundaries.len() * 8);
        io::emit_f64s(&mut bounds, &self.boundaries)?;
        let (gidoffs, gids) = gid_csr_bytes(&self.global_ids);
        let meta: [([u8; 8], &[u8]); 4] = [
            (SEC_CONFIG, &cfg_bytes),
            (SEC_BOUNDS, &bounds),
            (SEC_GIDOFFS, &gidoffs),
            (SEC_GIDS, &gids),
        ];
        let mut plans: Vec<SectionPlan> = meta
            .iter()
            .map(|&(name, payload)| SectionPlan::of(name, payload))
            .collect();
        // Plan each chunk blob: its inner sections are checksummed once
        // (`plan_index_sections`), then the planned container is streamed
        // once into a checksumming sink for the outer blob CRC — the emit
        // pass below reuses the cached plans, so each chunk's arrays are
        // serialized exactly twice (CRC pass + write pass) and never
        // materialized as a second copy.
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
        crate::format::write_container(&mut w, MAGIC_CHUNKED, &plans, |i, w| match meta.get(i) {
            Some(&(_, payload)) => w.write_all(payload),
            None => {
                let ci = i - meta.len();
                let (ccfg, inner_plans) = &chunk_parts[ci];
                io::write_index_sections(w, &self.chunks[ci], ccfg, inner_plans)
            }
        })?;
        w.flush()
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

/// Reads, decodes and verifies the blob file of one generation-store chunk,
/// and holds it to the manifest: the image's length and the content hash
/// derived from its whole-image CRC must be the record's. The file's bytes
/// go through `read_buf` and the image into `into`, both reused when large
/// enough.
fn read_generation_blob(
    dir: &Path,
    b: BlobRef,
    mut into: AlignedBuf,
    read_buf: &mut Vec<u8>,
) -> std::io::Result<VerifiedImage> {
    read_buf.clear();
    std::fs::File::open(crate::lifecycle::blob_path(dir, b.hash))?.read_to_end(read_buf)?;
    let bytes = read_buf.as_slice();
    let image = if crate::compress::is_compressed_blob(bytes) {
        crate::compress::decompress_verified(bytes, MAGIC_V2, into)?
    } else {
        into.reset_zeroed(bytes.len());
        into.as_mut_slice().copy_from_slice(bytes);
        VerifiedImage::verify(into, MAGIC_V2)?
    };
    if image.as_slice().len() as u64 != b.raw_len || image.content_hash() != b.hash {
        return Err(bad("chunk blob does not match its manifest content hash"));
    }
    Ok(image)
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

impl ChunkSource {
    /// Bytes of the largest chunk image (decoded, for a compressed blob).
    fn largest_image(&self) -> usize {
        let largest = match self {
            ChunkSource::Container { directory, .. } => directory.iter().map(|s| s.len).max(),
            ChunkSource::Generation { blobs, .. } => blobs.iter().map(|b| b.raw_len).max(),
        };
        largest.unwrap_or(0) as usize
    }
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
/// While it pages (budget below the chunk count) the store holds
/// `max_resident` image buffers, each sized for its largest chunk, and a
/// fault decodes into the buffer of the chunk it evicts: the fault path
/// allocates nothing once the budget is full, and resident memory is that
/// flat `max_resident` × largest chunk rather than whatever the allocator
/// keeps after freeing and reallocating images of mixed sizes on every
/// fault — which grew with the number of faults and differed from one run
/// to the next. An all-resident store sizes each buffer to its chunk.
///
/// Search results are bit-identical for any budget (tested down to
/// `max_resident = 1`), and rank exactly as one monolithic index over the
/// same peptides does; `usize::MAX` keeps every chunk resident once
/// faulted.
#[derive(Debug)]
pub struct ChunkStore {
    source: ChunkSource,
    config: SlmConfig,
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
    /// The image buffer of the chunk just evicted, which the fault that
    /// evicted it decodes into.
    spare: Option<AlignedBuf>,
    /// A generation blob's bytes as read, before decoding; reused.
    read_buf: Vec<u8>,
}

impl ChunkStore {
    /// A store with nothing resident yet over already-parsed metadata.
    fn new(
        source: ChunkSource,
        config: SlmConfig,
        intervals: Vec<(f64, f64)>,
        global_ids: Vec<Vec<u32>>,
        max_resident: usize,
        opts: &ReadOptions,
    ) -> Self {
        assert!(max_resident >= 1, "resident budget must be at least 1");
        let n = intervals.len();
        ChunkStore {
            source,
            config,
            intervals,
            global_ids,
            resident: (0..n).map(|_| None).collect(),
            last_used: vec![0; n],
            tick: 0,
            max_resident,
            read_opts: *opts,
            stats: ResidencyStats::default(),
            scratch: crate::query::SearchScratch::default(),
            spare: None,
            read_buf: Vec::new(),
        }
    }

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
        let mut container = FileContainer::open(path, MAGIC_CHUNKED)?;
        // Metadata sections are a few KB — read (and CRC-verify) only
        // those; chunk blobs stay on disk.
        let directory = chunk_directory(container.sections())?;
        let n = directory.len();
        let config = io::config_from_bytes(container.read_section(&SEC_CONFIG)?.as_slice())?;
        let intervals = bounds_from_bytes(container.read_section(&SEC_BOUNDS)?.as_slice(), n)?;
        let global_ids = gid_csr_from_bytes(
            container.read_section(&SEC_GIDOFFS)?.as_slice(),
            container.read_section(&SEC_GIDS)?.as_slice(),
            n,
        )?;
        Ok(Self::new(
            ChunkSource::Container {
                container,
                directory,
            },
            config,
            intervals,
            global_ids,
            max_resident,
            opts,
        ))
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
        let dir = dir.as_ref();
        let (current, manifest) = crate::lifecycle::load_current(dir)?;
        let (config, blobs, intervals, global_ids) = manifest.into_store_parts();
        Ok(Self::new(
            ChunkSource::Generation {
                dir: dir.to_path_buf(),
                current,
                blobs,
            },
            config,
            intervals,
            global_ids,
            max_resident,
            opts,
        ))
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
    ///
    /// **Every fault verifies the bytes it just read** — nothing remembers
    /// that a hash or a path was good last time, because a blob can rot
    /// between two faults — and verifies them once. Both sources end in a
    /// [`VerifiedImage`] (header, table CRC, every section against its
    /// table CRC, one checksum walk) and differ only in how the bytes
    /// arrive and what the whole-image CRC that walk yields is held to:
    ///
    /// * an `LBECHK2` blob section is read as is; the image's own table is
    ///   its authority (the outer section CRC would say nothing more about
    ///   the data bytes, and is not consulted);
    /// * a generation blob is read whole and, if compressed, decoded —
    ///   each section checksummed as it is decoded, the fold compared with
    ///   the frame's `raw_crc` — and then its length and the content hash
    ///   *derived from that same CRC* must be the manifest's, which is
    ///   what catches a swapped or misnamed blob file and damage in the
    ///   padding no section CRC covers.
    ///
    /// [`io::read_v2_parsed`] then takes the image — no further checksum —
    /// and runs the structural validation the store's [`ReadOptions`] ask
    /// for (O(ions) by default), and the id-table cover check closes it.
    /// Whatever fails a generation blob is prefixed `chunk blob <hash>:`.
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
            self.spare = self.resident[lru]
                .take()
                .and_then(SlmIndex::into_unshared_arena);
            self.stats.evictions += 1;
        }
        let opts = self.read_opts;
        let into = self.image_buffer();
        let chunk = match &mut self.source {
            ChunkSource::Container {
                container,
                directory,
            } => io::read_v2_parsed(
                VerifiedImage::verify(
                    container.read_section_desc_into(&directory[ci], into)?,
                    MAGIC_V2,
                )?,
                &opts,
            )?,
            ChunkSource::Generation { dir, blobs, .. } => {
                let b = blobs[ci];
                read_generation_blob(dir, b, into, &mut self.read_buf)
                    .and_then(|image| io::read_v2_parsed(image, &opts))
                    .map_err(|e| {
                        std::io::Error::new(e.kind(), format!("chunk blob {:016x}: {e}", b.hash))
                    })?
            }
        };
        check_gid_cover(&chunk, &self.global_ids[ci])?;
        self.resident[ci] = Some(chunk);
        self.last_used[ci] = self.tick;
        self.stats.faults += 1;
        Ok(())
    }

    /// The buffer the next fault decodes into (see the type's docs): while
    /// the store pages, the evicted chunk's buffer, or — when there is none
    /// yet, or it is too small for the largest chunk (a generation refresh
    /// can bring a larger one) — a new one sized for the largest chunk.
    /// Otherwise an empty buffer, which the fault sizes to its chunk.
    fn image_buffer(&mut self) -> AlignedBuf {
        let spare = self.spare.take();
        if self.max_resident >= self.num_chunks() {
            return AlignedBuf::with_capacity(0);
        }
        let largest = self.source.largest_image();
        match spare {
            Some(buf) if buf.capacity() >= largest => buf,
            _ => AlignedBuf::with_capacity(largest),
        }
    }

    /// Searches one query under the container's own configuration
    /// ([`QueryOptions::default`]), faulting in the chunks its precursor
    /// window touches.
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
            // the largest needed band instead of zero-allocated per visit.
            // Scratch reuse is invisible in results (tested).
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
        // Merge best-first: score descending (a total order, so crafted
        // NaN-bearing inputs cannot panic the sort) with the `(peptide,
        // modform)` tie-break, which never mentions entry ids — the merged
        // ranking is what one index over all the peptides would return.
        psms.sort_by(crate::query::rank_cmp);
        psms.truncate(top_k);
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
    use crate::format::ParsedContainer;
    use crate::lifecycle::GenerationStore;
    use lbe_bio::mods::ModForm;
    use lbe_spectra::spectrum::Peak;
    use lbe_spectra::theo::{TheoParams, TheoSpectrum};

    fn db_of<S: AsRef<str>>(seqs: &[S]) -> PeptideDb {
        PeptideDb::from_vec(
            seqs.iter()
                .map(|s| Peptide::new(s.as_ref().as_bytes(), 0, 0).unwrap())
                .collect(),
        )
    }

    fn db() -> PeptideDb {
        db_of(&[
            "GGGGGK",
            "AAAGGK",
            "PEPTIDEK",
            "ELVISLIVESK",
            "WWWWWWK",
            "SAMPLERK",
        ])
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

    /// Fresh (pre-cleaned) path under the system temp dir.
    fn tmpfile(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join("lbe_chunked_tests");
        std::fs::create_dir_all(&d).unwrap();
        let p = d.join(name);
        std::fs::remove_dir_all(&p).ok();
        std::fs::remove_file(&p).ok();
        p
    }

    #[test]
    fn chunk_count_and_sizes() {
        let c = ChunkedIndex::build(&db(), SlmConfig::default(), ModSpec::none(), 2);
        assert_eq!(c.num_chunks(), 3);
        assert_eq!(c.num_spectra(), 6);
        assert!(c.heap_bytes() > 0);
        let one = ChunkedIndex::build(&db(), SlmConfig::default(), ModSpec::none(), 100);
        assert_eq!(one.num_chunks(), 1);
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
    fn metadata_codecs_round_trip_and_reject_what_is_not_a_csr_or_a_ladder() {
        let tables = vec![vec![4u32, 0, 9], vec![], vec![7]];
        let (offs, gids) = gid_csr_bytes(&tables);
        assert_eq!(gid_csr_from_bytes(&offs, &gids, 3).unwrap(), tables);
        assert_eq!(gid_csr_bytes(&[]).0, 0u64.to_le_bytes());
        let u64s = |v: &[u64]| -> Vec<u8> { v.iter().flat_map(|x| x.to_le_bytes()).collect() };
        for (what, offs, gids, rows) in [
            ("row count", offs.clone(), gids.clone(), 2),
            (
                "ragged offsets",
                offs[..offs.len() - 1].to_vec(),
                gids.clone(),
                3,
            ),
            (
                "ragged ids",
                offs.clone(),
                gids[..gids.len() - 1].to_vec(),
                3,
            ),
            ("first offset", u64s(&[1, 3, 3, 4]), gids.clone(), 3),
            ("descending", u64s(&[0, 3, 2, 4]), gids.clone(), 3),
            ("short of the table", u64s(&[0, 3, 3, 3]), gids.clone(), 3),
            ("past the table", u64s(&[0, 3, 3, 5]), gids.clone(), 3),
        ] {
            let err = gid_csr_from_bytes(&offs, &gids, rows).expect_err(what);
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}");
        }

        let f64s = |v: &[f64]| -> Vec<u8> { v.iter().flat_map(|x| x.to_le_bytes()).collect() };
        let ladder = [0.0, 500.25, 500.25, f64::INFINITY];
        assert_eq!(
            bounds_from_bytes(&f64s(&ladder), 3).unwrap(),
            [(0.0, 500.25), (500.25, 500.25), (500.25, f64::INFINITY)]
        );
        for (what, bounds, chunks) in [
            ("chunk count", f64s(&ladder), 2),
            ("ragged", f64s(&ladder)[..31].to_vec(), 3),
            ("descending", f64s(&[0.0, 2.0, 1.0, 3.0]), 3),
            ("NaN", f64s(&[0.0, f64::NAN, 1.0, 3.0]), 3),
        ] {
            let err = bounds_from_bytes(&bounds, chunks).expect_err(what);
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}");
        }
    }

    // -----------------------------------------------------------------------
    // One table: every container kind × ΔM × budget against one index.
    // -----------------------------------------------------------------------

    /// Leucine and isoleucine weigh the same, so the eight I/L spellings of
    /// each stem share one theoretical spectrum and tie on the exact f32
    /// score — eight-way, against `top_k = 3`, with equal masses that any
    /// chunking splits across chunks. The one-residue variants share a whole
    /// ion series with them, so a variant's query ranks candidates of
    /// several masses (several chunks), tied on the shared-peak count among
    /// themselves. Sorted descending so ids run against lexicographic — and
    /// here and there against mass — order.
    fn tie_db() -> PeptideDb {
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
        seqs.extend(TIE_DB_EXTRAS.map(String::from));
        seqs.sort_unstable_by(|a, b| b.cmp(a));
        db_of(&seqs)
    }

    const TIE_DB_EXTRAS: [&str; 9] = [
        "AEPTIDEIAIK",
        "SEPTIDEIAIK",
        "TEPTIDEIAIK",
        "PEPTIDEIAIR",
        "AAMPIERIGGIR",
        "TAMPIERIGGIR",
        "MNKQMGGR",
        "WWYYFFHHK",
        "ELVISLIVESK",
    ];

    #[test]
    fn every_container_tolerance_and_budget_agrees_with_one_index() {
        // Coarse bins keep the fixture small; ties and ranking do not
        // depend on them.
        let cfg = SlmConfig {
            resolution: 0.1,
            top_k: 3,
            ..SlmConfig::default()
        };
        let all = tie_db();
        let sub = |r: std::ops::Range<usize>| PeptideDb::from_vec(all.peptides()[r].to_vec());
        let n = all.len();
        let init = |dir: &Path, db: &PeptideDb| {
            GenerationStore::init(dir, db, cfg.clone(), ModSpec::none(), 4)
                .unwrap()
                .0
        };

        let file = tmpfile("table.lbe");
        ChunkedIndex::build(&all, cfg.clone(), ModSpec::none(), 4)
            .write_path(&file)
            .unwrap();
        let fresh = tmpfile("table_init");
        init(&fresh, &all);
        // The delta repeats four stored peptides (skipped, so store ids stay
        // `all`'s); its chunks' intervals overlap the base generation's.
        let appended = tmpfile("table_append");
        let out = init(&appended, &sub(0..12)).append(&sub(8..n)).unwrap();
        assert_eq!((out.peptides_added, out.duplicates_skipped), (n - 12, 4));
        let (base, delta) = {
            let store = ChunkStore::open_generation_dir(&appended, 1).unwrap();
            let (base, delta) = store.intervals.split_at(3);
            (base.to_vec(), delta.to_vec())
        };
        assert!(delta
            .iter()
            .any(|d| base.iter().any(|b| d.0 <= b.1 && b.0 <= d.1)));
        let compacted = tmpfile("table_compact");
        let store = init(&compacted, &sub(0..12));
        store.append(&sub(8..n)).unwrap();
        store.compact().unwrap();

        let sources = [&file, &fresh, &appended, &compacted];
        let open = |path: &Path, budget: usize| {
            if path.is_dir() {
                ChunkStore::open_generation_dir(path, budget)
            } else {
                ChunkStore::open_path(path, budget)
            }
            .unwrap()
        };

        let queries: Vec<Spectrum> = [
            "PEPTIDEIAIK",
            "SEPTIDEIAIK",
            "SAMPLERLGGLR",
            "TAMPIERIGGIR",
            "MNKQMGGR",
            "ELVISLIVESK",
        ]
        .iter()
        .map(|s| perfect_query(s.as_bytes()))
        .collect();
        let jobs: Vec<(QueryOptions, &Spectrum)> = [0.01, 1.0, 500.0, f64::INFINITY]
            .iter()
            .flat_map(|&tol| {
                let opts = QueryOptions {
                    precursor_tolerance: Some(tol),
                    ..Default::default()
                };
                queries.iter().map(move |q| (opts, q))
            })
            .collect();

        // The reference: one index over all the peptides.
        let mono = IndexBuilder::new(cfg.clone(), ModSpec::none()).build(&all);
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
        let mut searcher = Searcher::new(&mono);
        let expect: Vec<SearchResult> = jobs
            .iter()
            .map(|(opts, q)| searcher.search_with_opts(q, opts))
            .collect();
        let expect = rows(&expect);
        assert!(
            expect.iter().any(|q| q.len() == 3 && q[0].3 == q[2].3),
            "fixture must put an exact-score tie across the top-k cut"
        );

        // One pass over every job on a freshly opened store: the results
        // and what the residency layer did to produce them.
        let pass = |path: &Path, budget: usize| {
            let mut store = open(path, budget);
            assert!(store.num_chunks() > 4, "{path:?} must exercise chunking");
            let results: Vec<SearchResult> = jobs
                .iter()
                .map(|(opts, q)| store.search_with_opts(q, opts).unwrap())
                .collect();
            assert!(store.num_resident() <= budget);
            (results, store.stats(), store.resident_heap_bytes())
        };
        for path in sources {
            let resident = pass(path, usize::MAX);
            assert_eq!(resident.1.evictions, 0);
            assert_eq!(rows(&resident.0), expect, "{path:?} vs one index");
            for budget in [1usize, 2] {
                // Whole results: PSMs with their entry ids, and all six
                // work counters.
                assert_eq!(
                    pass(path, budget).0,
                    resident.0,
                    "{path:?}, budget {budget}"
                );
            }
        }
    }

    // -----------------------------------------------------------------------
    // Container + residency tests.
    // -----------------------------------------------------------------------

    #[test]
    fn faulted_chunks_equal_the_built_ones_and_reserialize_to_their_blobs() {
        // What `write_path` wrote is what `ChunkStore` reads back: metadata
        // and every chunk, and a faulted chunk written out again is its
        // blob section byte for byte.
        for (name, spec) in [
            ("rt_plain.lbe", ModSpec::none()),
            ("rt_mods.lbe", ModSpec::paper_default()),
        ] {
            let c = ChunkedIndex::build(&db(), SlmConfig::default(), spec, 2);
            let p = tmpfile(name);
            c.write_path(&p).unwrap();
            let bytes = std::fs::read(&p).unwrap();
            let written = ParsedContainer::parse(&bytes, 0, None, MAGIC_CHUNKED).unwrap();

            let mut store = ChunkStore::open_path(&p, usize::MAX).unwrap();
            assert_eq!(store.config, c.shared_config());
            assert_eq!(store.global_ids, c.global_ids);
            assert_eq!(store.intervals, ladder_intervals(&c.boundaries));
            for (ci, built) in c.chunks().iter().enumerate() {
                store.ensure_resident(ci).unwrap();
                let faulted = store.resident[ci].as_ref().unwrap();
                assert_eq!(faulted, built, "{name} chunk {ci}");
                assert!(faulted.is_arena_backed());
                faulted.validate().unwrap();
                let mut blob = Vec::new();
                io::write_index(&mut blob, faulted).unwrap();
                let s = written.find(&chunk_section_name(ci)).unwrap();
                assert!(
                    blob == bytes[s.offset as usize..(s.offset + s.len) as usize],
                    "{name} chunk {ci} does not reserialize to its blob"
                );
            }
            std::fs::remove_file(&p).ok();
        }
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
    fn a_paging_store_faults_into_the_evicted_chunks_buffer() {
        let file = tmpfile("recycle.lbe");
        ChunkedIndex::build(&db(), SlmConfig::default(), ModSpec::none(), 2)
            .write_path(&file)
            .unwrap();
        let dir = tmpfile("recycle_store");
        GenerationStore::init(&dir, &db(), SlmConfig::default(), ModSpec::none(), 2).unwrap();
        let image_len = |store: &ChunkStore, ci: usize| match &store.source {
            ChunkSource::Container { directory, .. } => directory[ci].len as usize,
            ChunkSource::Generation { blobs, .. } => blobs[ci].raw_len as usize,
        };
        let open = |path: &Path, budget: usize| {
            if path.is_dir() {
                ChunkStore::open_generation_dir(path, budget)
            } else {
                ChunkStore::open_path(path, budget)
            }
            .unwrap()
        };
        for source in [&file, &dir] {
            // Budget 2 of 3 chunks, cycling: every visit faults and every
            // fault after the second evicts, so two buffers, each sized for
            // the largest chunk, carry every chunk in turn.
            let mut store = open(source, 2);
            let n = store.num_chunks();
            assert_eq!(n, 3, "{source:?}");
            let largest = store.source.largest_image();
            let mut buffers = std::collections::HashSet::new();
            for ci in (0..n).cycle().take(4 * n) {
                store.ensure_resident(ci).unwrap();
                let chunk = store.resident[ci].as_ref().unwrap();
                let (start, capacity) = chunk.arena_allocation().unwrap();
                assert!(capacity >= largest, "{source:?}, chunk {ci}");
                buffers.insert(start);
            }
            assert_eq!(store.stats().faults, 4 * n as u64, "{source:?}");
            assert_eq!(buffers.len(), 2, "{source:?}");

            // All resident: each chunk in a buffer of its own size.
            let mut store = open(source, usize::MAX);
            for ci in 0..n {
                store.ensure_resident(ci).unwrap();
                let chunk = store.resident[ci].as_ref().unwrap();
                let (_, capacity) = chunk.arena_allocation().unwrap();
                let len = image_len(&store, ci);
                assert_eq!(capacity, len.div_ceil(64) * 64, "{source:?}, chunk {ci}");
            }
            assert!((0..n).any(|ci| image_len(&store, ci) < largest));
        }
        std::fs::remove_file(&file).ok();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_database_container_opens_and_finds_nothing() {
        let c = ChunkedIndex::build(&PeptideDb::new(), SlmConfig::default(), ModSpec::none(), 4);
        assert_eq!(c.num_chunks(), 0);
        let p = tmpfile("empty.lbe");
        c.write_path(&p).unwrap();
        let mut store = ChunkStore::open_path(&p, 1).unwrap();
        assert_eq!(store.num_chunks(), 0);
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
                    return Some((*name, blob.to_vec()));
                }
                let chunk = io::read_index_bytes(blob, &ReadOptions::default()).unwrap();
                let (mut bitmap, mut starts) = io::test_support::dir_parts(&chunk);
                edit(&mut bitmap, &mut starts);
                let broken = SlmIndex::from_owned_unchecked(
                    chunk.config().clone(),
                    chunk.entries().to_vec(),
                    (bitmap, starts),
                    chunk.postings().to_vec(),
                );
                let mut out = Vec::new();
                io::write_index(&mut out, &broken).unwrap();
                Some((*name, out))
            });
            std::fs::write(&p, &bent).unwrap();
            for opts in [ReadOptions::default(), ReadOptions::trusted()] {
                let mut store = ChunkStore::open_path_with(&p, 4, &opts).unwrap();
                let err = store.search(&perfect_query(b"PEPTIDEK")).unwrap_err();
                assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}");
                assert!(err.to_string().contains(expect), "{what}: {err}");
            }
        }
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn truncated_container_rejected_at_open() {
        let c = ChunkedIndex::build(&db(), SlmConfig::default(), ModSpec::none(), 2);
        let p = tmpfile("truncated.lbe");
        c.write_path(&p).unwrap();
        let bytes = std::fs::read(&p).unwrap();
        std::fs::write(&p, &bytes[..bytes.len() - 5]).unwrap();
        assert!(ChunkStore::open_path(&p, 1).is_err());
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

    // -----------------------------------------------------------------------
    // One corruption table: every blob source × every kind of damage, through
    // `ensure_resident`.
    // -----------------------------------------------------------------------

    /// What faulting a damaged blob must do.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Verdict {
        /// `InvalidData`, on fault.
        Rejected,
        /// The fault succeeds with the chunk the undamaged blob yields.
        Invisible,
    }

    /// Where the table's blobs live: a blob file of the generation store at
    /// `dir` — with the record to point the opened store's chunk at, when
    /// the file was put there by the test rather than by `init` — or a `chk`
    /// section of an `LBECHK2` file (its path and pristine bytes).
    enum Home {
        BlobFile {
            dir: PathBuf,
            path: PathBuf,
            reseat: Option<BlobRef>,
        },
        FileSection(PathBuf, Vec<u8>),
    }

    struct BlobSource {
        what: &'static str,
        home: Home,
        ci: usize,
        /// The undamaged blob as stored (a compressed frame or a raw image).
        stored: Vec<u8>,
    }

    impl BlobSource {
        /// Puts `bytes` where the blob is stored.
        fn install(&self, bytes: &[u8]) {
            match &self.home {
                Home::BlobFile { path, .. } => std::fs::write(path, bytes).unwrap(),
                Home::FileSection(path, pristine) => {
                    let me = chunk_section_name(self.ci);
                    let bent =
                        crate::format::rewrite_container(pristine, MAGIC_CHUNKED, |name, blob| {
                            Some((*name, if *name == me { bytes } else { blob }.to_vec()))
                        });
                    std::fs::write(path, bent).unwrap();
                }
            }
        }

        /// Opens the store the blob belongs to — which must succeed whatever
        /// state the blob is in: blobs are not read before a fault.
        fn open(&self) -> ChunkStore {
            match &self.home {
                Home::BlobFile { dir, reseat, .. } => {
                    let mut store = ChunkStore::open_generation_dir(dir, 1).unwrap();
                    if let (Some(b), ChunkSource::Generation { blobs, .. }) =
                        (reseat, &mut store.source)
                    {
                        blobs[self.ci] = *b;
                    }
                    store
                }
                Home::FileSection(path, _) => ChunkStore::open_path(path, 1).unwrap(),
            }
        }
    }

    /// Every kind of single damage to a stored blob, as `(what, damaged
    /// bytes, verdict)`. A frame is damaged in its header fields, its
    /// prefix, and every encoded section's scheme, length and payload; a raw
    /// image in its header, table, every payload and every padding gap —
    /// the one region no section CRC covers, so `padding` says what the
    /// source's whole-image check (if it has one) makes of it. Both are cut
    /// short and given a trailing byte. Flips take bit 0, which is a value
    /// bit in every packed byte.
    fn damages(stored: &[u8], padding: Verdict) -> Vec<(String, Vec<u8>, Verdict)> {
        let mut out = Vec::new();
        let mut flip = |what: String, pos: usize, verdict: Verdict| {
            let mut bent = stored.to_vec();
            bent[pos] ^= 0x01;
            out.push((format!("{what} (byte {pos})"), bent, verdict));
        };
        let ends = |r: &std::ops::Range<usize>| [r.start, (r.start + r.end) / 2, r.end - 1];
        let mut cuts = vec![0, 7, 31, stored.len() / 2, stored.len() - 1];
        let section_name = |s: &Section| String::from_utf8_lossy(&s.name).into_owned();
        if crate::compress::is_compressed_blob(stored) {
            for (field, pos) in [
                ("frame magic", 3),
                ("frame raw_len", 9),
                ("frame prefix_len", 17),
                ("frame raw_crc", 25),
                ("frame n_sections", 29),
            ] {
                flip(field.into(), pos, Verdict::Rejected);
            }
            let (prefix, sections) = crate::compress::frame_layout(stored);
            flip(
                "prefix: inner version".into(),
                prefix.start + 9,
                Verdict::Rejected,
            );
            flip(
                "prefix: inner table".into(),
                prefix.start + crate::format::HEADER_LEN + 9,
                Verdict::Rejected,
            );
            cuts.push(prefix.end - 1);
            for (i, (record, payload)) in sections.iter().enumerate() {
                flip(format!("section {i} scheme"), *record, Verdict::Rejected);
                flip(
                    format!("section {i} enc_len"),
                    record + 1,
                    Verdict::Rejected,
                );
                // Past a delta payload's leading count word: a count that
                // grows *inside a width-0 final block* used to decode to the
                // identical image and is now refused up front — the one cell
                // that would differ from the table's run on the commit
                // before the block decoder, so it is left to `compress.rs`.
                let [first, mid, last] = ends(payload);
                for pos in [(first + 8).min(last), mid, last] {
                    flip(format!("section {i} payload"), pos, Verdict::Rejected);
                }
                cuts.push(payload.start);
            }
        } else {
            let parsed = ParsedContainer::parse(stored, 0, None, MAGIC_V2).unwrap();
            flip("version".into(), 9, Verdict::Rejected);
            flip(
                "table".into(),
                crate::format::HEADER_LEN + 9,
                Verdict::Rejected,
            );
            let mut cursor = crate::format::HEADER_LEN
                + crate::format::SECTION_RECORD_LEN * parsed.sections().len();
            for s in parsed.sections() {
                let payload = s.offset as usize..(s.offset + s.len) as usize;
                if cursor < payload.start {
                    flip(
                        format!("padding before {:?}", section_name(s)),
                        (cursor + payload.start) / 2,
                        padding,
                    );
                }
                for pos in ends(&payload) {
                    flip(
                        format!("payload of {:?}", section_name(s)),
                        pos,
                        Verdict::Rejected,
                    );
                }
                cuts.push(payload.start);
                cursor = payload.end;
            }
        }
        for cut in cuts {
            out.push((
                format!("cut to {cut} bytes"),
                stored[..cut].to_vec(),
                Verdict::Rejected,
            ));
        }
        let mut longer = stored.to_vec();
        longer.push(0);
        out.push(("trailing byte".into(), longer, Verdict::Rejected));
        out
    }

    #[test]
    fn every_damaged_blob_is_invalid_data_on_fault_and_no_verdict_sticks() {
        // Sources: what `init` stores (a compressed frame), the same store
        // holding a chunk raw (what `init` writes when the frame would not
        // be smaller), and an `LBECHK2` file's blob section.
        let cfg = SlmConfig {
            resolution: 0.1,
            ..SlmConfig::default()
        };
        let db = tie_db();
        let dir = tmpfile("corrupt_table_store");
        GenerationStore::init(&dir, &db, cfg.clone(), ModSpec::none(), 4).unwrap();
        let file = tmpfile("corrupt_table.lbe");
        ChunkedIndex::build(&db, cfg, ModSpec::none(), 4)
            .write_path(&file)
            .unwrap();

        let refs: Vec<BlobRef> = match &ChunkStore::open_generation_dir(&dir, 1).unwrap().source {
            ChunkSource::Generation { blobs, .. } => blobs.clone(),
            ChunkSource::Container { .. } => unreachable!(),
        };
        assert!(refs.len() > 4);
        let blob_file = |hash: u64| crate::lifecycle::blob_path(&dir, hash);
        let in_store = |hash: u64, reseat: Option<BlobRef>| Home::BlobFile {
            dir: dir.clone(),
            path: blob_file(hash),
            reseat,
        };
        let raw_of = |ci: usize| -> Vec<u8> {
            let stored = std::fs::read(blob_file(refs[ci].hash)).unwrap();
            assert!(crate::compress::is_compressed_blob(&stored));
            crate::compress::decompress_container(&stored, MAGIC_V2)
                .unwrap()
                .as_slice()
                .to_vec()
        };

        let compressed = BlobSource {
            what: "compressed generation blob",
            home: in_store(refs[0].hash, None),
            ci: 0,
            stored: std::fs::read(blob_file(refs[0].hash)).unwrap(),
        };
        let raw = BlobSource {
            what: "raw generation blob",
            home: in_store(refs[1].hash, None),
            ci: 1,
            stored: raw_of(1),
        };
        let file_bytes = std::fs::read(&file).unwrap();
        let section = {
            let parsed = ParsedContainer::parse(&file_bytes, 0, None, MAGIC_CHUNKED).unwrap();
            let s = *parsed.find(&chunk_section_name(1)).unwrap();
            file_bytes[s.offset as usize..(s.offset + s.len) as usize].to_vec()
        };
        assert_eq!(section, raw.stored, "one chunk, two containers, same image");
        let in_file = BlobSource {
            what: "LBECHK2 file section",
            home: Home::FileSection(file.clone(), file_bytes),
            ci: 1,
            stored: section,
        };

        for source in [&compressed, &raw, &in_file] {
            source.install(&source.stored);
            let pristine = {
                let mut store = source.open();
                store.ensure_resident(source.ci).unwrap();
                store.resident[source.ci].take().unwrap()
            };
            // A generation blob answers for every byte of its image through
            // the manifest's content hash. An `LBECHK2` blob section has no
            // such whole-image check — its outer section CRC is deliberately
            // not consulted — so its padding is the one place a flip is not
            // seen (and changes nothing: no view ever reads padding).
            let padding = match source.home {
                Home::BlobFile { .. } => Verdict::Rejected,
                Home::FileSection(..) => Verdict::Invisible,
            };
            let table = damages(&source.stored, padding);
            assert!(table.len() > 20, "{}: {} cases", source.what, table.len());
            if source.what == "raw generation blob" {
                let gaps = table.iter().filter(|(w, ..)| w.starts_with("padding"));
                assert!(gaps.count() >= 3, "the fixture must have padding to damage");
            }
            let other = source.ci + 2;
            for (what, bent, verdict) in &table {
                let case = format!("{}: {what}", source.what);
                source.install(bent);
                let mut store = source.open(); // on fault, not on open
                let faulted = store.ensure_resident(source.ci);
                match verdict {
                    Verdict::Rejected => {
                        let err = faulted.expect_err(&case);
                        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{case}: {err}");
                        assert!(store.resident[source.ci].is_none(), "{case}");
                        // The failure poisons nothing: a neighbour faults,
                        // and so does this chunk once its bytes are back (an
                        // `LBECHK2` file is reopened first: its sections may
                        // have moved under the open store's directory).
                        store.ensure_resident(other).expect(&case);
                        source.install(&source.stored);
                        if let Home::FileSection(..) = source.home {
                            store = source.open();
                        }
                        store.ensure_resident(source.ci).expect(&case);
                        assert_eq!(
                            store.resident[source.ci].as_ref(),
                            Some(&pristine),
                            "{case}"
                        );
                    }
                    Verdict::Invisible => {
                        faulted.expect(&case);
                        assert_eq!(
                            store.resident[source.ci].as_ref(),
                            Some(&pristine),
                            "{case}"
                        );
                    }
                }
            }
            // Nor does a success stick: a chunk that verified, was evicted
            // (budget 1) and rotted on disk meanwhile fails its next fault.
            source.install(&source.stored);
            let mut store = source.open();
            store.ensure_resident(source.ci).unwrap();
            store.ensure_resident(other).unwrap();
            let (what, bent, _) = table
                .iter()
                .find(|(what, ..)| what.contains("payload"))
                .unwrap();
            source.install(bent);
            let err = store.ensure_resident(source.ci).expect_err(what);
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}");
            source.install(&source.stored);
        }

        // Intact bytes under the wrong name. Two blob files swapped: each
        // decodes and self-verifies, and is not the chunk its record names.
        let (a, b) = (blob_file(refs[3].hash), blob_file(refs[4].hash));
        let (bytes_a, bytes_b) = (std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
        std::fs::write(&a, &bytes_b).unwrap();
        std::fs::write(&b, &bytes_a).unwrap();
        let mut store = ChunkStore::open_generation_dir(&dir, 1).unwrap();
        for ci in [3, 4] {
            let err = store.ensure_resident(ci).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "swapped {ci}");
            assert!(err.to_string().contains("content hash"), "{err}");
        }
        std::fs::write(&a, &bytes_a).unwrap();
        std::fs::write(&b, &bytes_b).unwrap();
        store.ensure_resident(3).unwrap();
        store.ensure_resident(4).unwrap();
        // A record whose hash is off by one bit, and a blob under that name.
        let off_by_one = BlobRef {
            hash: refs[3].hash ^ 1,
            ..refs[3]
        };
        std::fs::write(blob_file(off_by_one.hash), &bytes_a).unwrap();
        let mut store = ChunkStore::open_generation_dir(&dir, 1).unwrap();
        if let ChunkSource::Generation { blobs, .. } = &mut store.source {
            blobs[3] = off_by_one;
        }
        let err = store.ensure_resident(3).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("content hash"), "{err}");
        store.ensure_resident(4).unwrap();

        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn every_layout_below_the_floor_is_one_typed_error() {
        // Each row — an `LBESLM1` file, and `LBESLM2` with dense `binoffs`,
        // with no flags, with flags 0, all checksum-valid — through every
        // single-index entry point and as a generation-store blob: one
        // `InvalidData` that names the layout and says what to do.
        let dir = tmpfile("below_the_floor_store");
        GenerationStore::init(&dir, &db(), SlmConfig::default(), ModSpec::none(), 2).unwrap();
        let mut current = Vec::new();
        let idx = IndexBuilder::new(SlmConfig::default(), ModSpec::none()).build(&db());
        io::write_index(&mut current, &idx).unwrap();
        let path = tmpfile("below_the_floor.slm");
        for (layout, image) in io::test_support::below_the_floor(&current) {
            std::fs::write(&path, &image).unwrap();
            let hash = crate::format::content_hash64(&image);
            let blob = BlobSource {
                what: layout,
                home: Home::BlobFile {
                    dir: dir.clone(),
                    path: crate::lifecycle::blob_path(&dir, hash),
                    reseat: Some(BlobRef {
                        hash,
                        raw_len: image.len() as u64,
                        stored_len: 0, // accounting only; no fault reads it
                    }),
                },
                ci: 0,
                stored: image.clone(),
            };
            blob.install(&blob.stored);
            let errors = [
                io::read_index(&image[..]).unwrap_err(),
                io::read_index_bytes(&image, &ReadOptions::default()).unwrap_err(),
                io::read_index_path(&path).unwrap_err(),
                blob.open().ensure_resident(0).unwrap_err(),
            ];
            for err in &errors {
                assert_eq!(
                    err.kind(),
                    std::io::ErrorKind::InvalidData,
                    "{layout}: {err}"
                );
            }
            // The fault keeps the prefix that names the blob. A blob is an
            // `LBESLM2` container by construction of the store, so an
            // `LBESLM1` one is refused as a container, before any layout.
            let fault = errors[3].to_string();
            assert!(
                fault.starts_with(&format!("chunk blob {hash:016x}: ")),
                "{fault}"
            );
            let named = match layout.contains("LBESLM1") {
                true => &errors[..3],
                false => &errors[..],
            };
            for err in named {
                let msg = err.to_string();
                assert!(
                    msg.contains(layout)
                        && msg.contains("no longer read; rebuild with `lbe index`"),
                    "{layout}: {msg}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_file(&path).ok();
    }
}
