//! Shared-memory chunking (the paper's Fig. 1 scheme) with lazy chunk
//! residency over a generation store.
//!
//! Within one machine, SLM-style engines sort peptides by precursor mass and
//! split the index into mass-contiguous chunks so that (for closed searches)
//! a query only loads/searches the chunks overlapping its precursor window.
//! The paper's Fig. 2 shows why this layout is *wrong* across machines —
//! LBE exists to fix that — but per-node it remains useful, and the paper's
//! Fig. 3 notes "the data may be further partitioned at each node according
//! to the scheme shown in Fig. 1". This module implements that per-node
//! scheme's read side: [`ChunkStore`] **opens and searches** a generation
//! store, which [`crate::lifecycle`] builds one chunk at a time and is the
//! one on-disk form of a chunked index. It is the §II-B observation that
//! chunks "may be stored on disks when not in use" made real: it holds at
//! most a configured number of chunks resident, faulting them in from
//! their blob files on demand; a budget of `usize::MAX` is the
//! all-resident index. A single index file is a store of one always
//! resident chunk ([`ChunkStore::from_index`]).
//!
//! Two choices keep a paging store from re-reading what it just dropped.
//! A wave of queries is searched **chunk-major**
//! ([`ChunkStore::search_wave`]): each chunk any job of the wave needs is
//! visited once — the resident ones first — and every job that touches it
//! is searched while it is resident, so a wave faults each chunk at most
//! once. And a full cache evicts by **GreedyDual** weighted caching
//! (N. Young, *Algorithmica* 1994; Cao & Irani, USITS 1997), priced in
//! the chunk's decoded bytes: what is costly to re-fault stays longer.

use crate::config::SlmConfig;
use crate::footprint::StorageFootprint;
use crate::format::{AlignedBuf, VerifiedImage};
use crate::io::{self, ReadOptions, MAGIC_V2};
use crate::lifecycle::BlobRef;
use crate::parallel::search_jobs;
use crate::query::{QueryOptions, SearchResult, SearchScratch};
use crate::slm::SlmIndex;
use lbe_spectra::spectrum::Spectrum;
use std::borrow::Borrow;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::time::Instant;

fn bad(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// Indices of the chunks whose closed mass-coverage interval intersects
/// `[mass − tol, mass + tol]`, ascending; all of them for an open search
/// (infinite `tol`). Closed overlap is conservative at the edges, and the
/// intervals need not tile: a fresh generation's are consecutive rungs of
/// its boundary ladder, a delta generation's chunks may overlap each other
/// and the base generation arbitrarily.
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

/// Every local peptide id in the chunk's entries must map through its
/// global-id table — checked at load so a corrupt store cannot panic the
/// id translation in the search path.
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
        into.reset_for_overwrite(bytes.len());
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
    /// Decoded image bytes faulted in: the manifest's `raw_len` summed over
    /// every fault. Comparable across eviction policies where a mean time
    /// per fault is not, since a policy changes which chunks fault.
    pub fault_bytes: u64,
}

/// A disk-backed chunked index with **lazy chunk residency**: at most
/// `max_resident` chunks are held in memory; [`ChunkStore::search_wave`]
/// faults the chunks a wave of queries needs from disk on demand — the
/// paper's "stored on disks when not in use" made real.
///
/// **Eviction is GreedyDual, priced in bytes.** Every access to chunk `c`,
/// hit or fault, gives it the credit `floor + raw_len[c]` (its decoded
/// image bytes, from the manifest). When a fault finds the budget full it
/// evicts the resident chunk of least credit — of those, the least
/// recently used — and raises `floor` to the victim's credit, so chunks
/// that are not touched again age towards eviction whatever their size. A
/// large chunk survives longer than a small one used as recently, since
/// re-faulting it costs more. Integers, deterministic, no parameter; when
/// every chunk has the same size it evicts in exactly LRU order.
///
/// Backed by a generation-store directory
/// ([`ChunkStore::open_generation_dir`]), or by one index already in
/// memory ([`ChunkStore::from_index`]). A directory's chunks live as
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
/// `max_resident = 1`), any wave size and any job order, and rank exactly
/// as one monolithic index over the same peptides does; `usize::MAX`
/// keeps every chunk resident once faulted.
#[derive(Debug)]
pub struct ChunkStore {
    /// The generation-store directory; `None` for a store over one index
    /// ([`ChunkStore::from_index`]), whose chunk is never faulted.
    dir: Option<PathBuf>,
    /// Manifest file name this store was loaded from — compared against
    /// `CURRENT` by [`ChunkStore::refresh_generation`].
    current: String,
    /// Per-chunk blob references, in chunk order (none without a dir).
    blobs: Vec<BlobRef>,
    config: SlmConfig,
    /// Per-chunk closed mass-coverage intervals driving chunk selection.
    intervals: Vec<(f64, f64)>,
    /// Per-chunk local→global peptide-id tables (none without a dir).
    global_ids: Vec<Vec<u32>>,
    resident: Vec<Option<SlmIndex>>,
    /// Eviction priority per chunk, `(credit, last-access tick)`: the
    /// resident chunk with the least is the next victim (see the type's
    /// docs).
    priority: Vec<(u64, u64)>,
    /// GreedyDual's floor: the credit of the last victim.
    floor: u64,
    tick: u64,
    max_resident: usize,
    read_opts: ReadOptions,
    stats: ResidencyStats,
    /// One searcher scratch per wave worker, recycled across chunks and
    /// waves (O(largest chunk) once each, not zero-allocated per visit).
    scratches: Vec<SearchScratch>,
    /// The image buffer of the chunk just evicted, which the fault that
    /// evicted it decodes into.
    spare: Option<AlignedBuf>,
    /// A blob's bytes as read, before decoding; reused.
    read_buf: Vec<u8>,
}

impl ChunkStore {
    /// Opens a generation-store directory (see [`crate::lifecycle`])
    /// lazily, keeping at most `max_resident` chunks in memory (≥ 1): only
    /// the `CURRENT` manifest is read here; chunk blobs are faulted in —
    /// decompressing and hash-verifying each — on demand.
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
            dir: Some(dir.to_path_buf()),
            current,
            blobs,
            config,
            intervals,
            global_ids,
            resident: (0..n).map(|_| None).collect(),
            priority: vec![(0, 0); n],
            floor: 0,
            tick: 0,
            max_resident,
            read_opts: *opts,
            stats: ResidencyStats::default(),
            scratches: Vec::new(),
            spare: None,
            read_buf: Vec::new(),
        })
    }

    /// A store of one chunk, `index`, resident for the store's life and
    /// covering every precursor mass, searched under the index's own
    /// peptide ids: every result is exactly a lone [`crate::Searcher`]
    /// run's. It reads no file.
    pub fn from_index(index: SlmIndex) -> Self {
        ChunkStore {
            dir: None,
            current: String::new(),
            blobs: Vec::new(),
            config: index.config().clone(),
            intervals: vec![(f64::NEG_INFINITY, f64::INFINITY)],
            global_ids: Vec::new(),
            resident: vec![Some(index)],
            priority: vec![(0, 0)],
            floor: 0,
            tick: 0,
            max_resident: usize::MAX,
            read_opts: ReadOptions::default(),
            stats: ResidencyStats::default(),
            scratches: Vec::new(),
            spare: None,
            read_buf: Vec::new(),
        }
    }

    /// The index of a store made by [`ChunkStore::from_index`]; `None` for
    /// a generation store.
    pub fn single_index(&self) -> Option<&SlmIndex> {
        match self.dir {
            None => self.resident[0].as_ref(),
            Some(_) => None,
        }
    }

    /// If `CURRENT` has moved since this store loaded its manifest, reload
    /// it **without dropping state** — resident chunks whose content hashes
    /// survive into the new generation carry over (matched by hash,
    /// re-checked against their new id tables), so only chunks whose hashes
    /// changed re-fault. Returns `true` if a newer generation was picked
    /// up.
    ///
    /// Cumulative [`ResidencyStats`] persist across refreshes; carried-over
    /// chunks count as neither faults nor hits. A store without a directory
    /// returns `Ok(false)` and touches no file.
    pub fn refresh_generation(&mut self) -> std::io::Result<bool> {
        let Some(dir) = &self.dir else {
            return Ok(false);
        };
        if crate::lifecycle::read_current_name(dir)? == self.current {
            return Ok(false);
        }
        let (current, manifest) = crate::lifecycle::load_current(dir)?;
        let (config, blobs, intervals, global_ids) = manifest.into_store_parts();

        // Park the old residents by content hash, then reseat the ones the
        // new generation still references: a resident chunk is a pure
        // function of its blob bytes (the id mapping is applied at search
        // time), so an unchanged hash means an unchanged chunk.
        let mut parked: std::collections::HashMap<u64, SlmIndex> = std::collections::HashMap::new();
        for (i, slot) in self.resident.iter_mut().enumerate() {
            if let Some(chunk) = slot.take() {
                parked.insert(self.blobs[i].hash, chunk);
            }
        }
        let n = blobs.len();
        let mut resident: Vec<Option<SlmIndex>> = (0..n).map(|_| None).collect();
        for (i, b) in blobs.iter().enumerate() {
            if let Some(chunk) = parked.remove(&b.hash) {
                if check_gid_cover(&chunk, &global_ids[i]).is_ok() {
                    resident[i] = Some(chunk);
                }
            }
        }
        self.current = current;
        self.blobs = blobs;
        self.config = config;
        self.intervals = intervals;
        self.global_ids = global_ids;
        self.resident = resident;
        // A carried-over chunk counts as accessed now.
        self.priority = vec![(0, 0); n];
        for ci in self.resident_chunks() {
            self.touch(ci);
        }
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

    /// Cumulative hit/fault/eviction counters and faulted bytes.
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
        StorageFootprint {
            logical_bytes: self.blobs.iter().map(|b| b.raw_len).sum(),
            stored_bytes: self.blobs.iter().map(|b| b.stored_len).sum(),
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
    /// resident chunk of least GreedyDual credit if the budget is full).
    ///
    /// **Every fault verifies the bytes it just read** — nothing remembers
    /// that a hash or a path was good last time, because a blob can rot
    /// between two faults — and verifies them once. The blob file is read
    /// whole and, if compressed, decoded — each section checksummed as it
    /// is decoded, the fold compared with the frame's `raw_crc` — or, if
    /// raw, made a [`VerifiedImage`] (header, table CRC, every section
    /// against its table CRC, one checksum walk). Then its length and the
    /// content hash *derived from that same CRC* must be the manifest's,
    /// which is what catches a swapped or misnamed blob file and damage in
    /// the padding no section CRC covers.
    ///
    /// [`io::read_v2_parsed`] then takes the image — no further checksum —
    /// and runs the structural validation the store's [`ReadOptions`] ask
    /// for (O(ions) by default), and the id-table cover check closes it.
    /// Whatever fails the blob is prefixed `chunk blob <hash>:`.
    fn ensure_resident(&mut self, ci: usize) -> std::io::Result<()> {
        if self.resident[ci].is_some() {
            self.stats.hits += 1;
            self.touch(ci);
            return Ok(());
        }
        while self.num_resident() >= self.max_resident {
            let victim = self
                .resident
                .iter()
                .enumerate()
                .filter(|(_, c)| c.is_some())
                .min_by_key(|&(i, _)| self.priority[i])
                .map(|(i, _)| i)
                .expect("resident count >= budget >= 1");
            self.floor = self.priority[victim].0;
            self.spare = self.resident[victim]
                .take()
                .and_then(SlmIndex::into_unshared_arena);
            self.stats.evictions += 1;
        }
        let opts = self.read_opts;
        let into = self.image_buffer();
        let dir = self
            .dir
            .as_deref()
            .expect("a store without a directory never evicts its chunk");
        let b = self.blobs[ci];
        let gids = &self.global_ids[ci];
        let chunk = read_generation_blob(dir, b, into, &mut self.read_buf)
            .and_then(|image| io::read_v2_parsed(image, &opts))
            .and_then(|chunk| check_gid_cover(&chunk, gids).map(|()| chunk))
            .map_err(|e| {
                std::io::Error::new(e.kind(), format!("chunk blob {:016x}: {e}", b.hash))
            })?;
        self.resident[ci] = Some(chunk);
        self.touch(ci);
        self.stats.faults += 1;
        self.stats.fault_bytes += b.raw_len;
        Ok(())
    }

    /// Records an access to chunk `ci`: its credit becomes the floor plus
    /// the bytes a re-fault would decode, and it becomes the most recently
    /// used.
    fn touch(&mut self, ci: usize) {
        self.tick += 1;
        // A chunk without a blob is never evicted, so its credit is moot.
        let bytes = self.blobs.get(ci).map_or(0, |b| b.raw_len);
        self.priority[ci] = (self.floor + bytes, self.tick);
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
        let largest = self.largest_image();
        match spare {
            Some(buf) if buf.capacity() >= largest => buf,
            _ => AlignedBuf::with_capacity(largest),
        }
    }

    /// Bytes of the largest chunk image (decoded, for a compressed blob).
    fn largest_image(&self) -> usize {
        self.blobs.iter().map(|b| b.raw_len).max().unwrap_or(0) as usize
    }

    /// Searches one query under per-request [`QueryOptions`]: a wave of
    /// one (see [`ChunkStore::search_wave`]). A tolerance override narrows
    /// (or widens) both the chunk selection and every per-chunk band; a
    /// top-k override bounds the per-chunk heaps and the merged result.
    /// [`QueryOptions::default`] searches under the store's own
    /// configuration.
    pub fn search_with_opts(
        &mut self,
        query: &Spectrum,
        opts: &QueryOptions,
    ) -> std::io::Result<SearchResult> {
        self.search_wave(&[(query, *opts)], 1, None)
            .pop()
            .flatten()
            .expect("without a deadline every job runs")
    }

    /// Searches a wave of `(spectrum, options)` jobs **chunk-major**,
    /// returning results in job order.
    ///
    /// Each job's chunk set is the chunks its precursor window overlaps
    /// under its own effective tolerance. The union of those sets is
    /// visited once — the resident chunks first, then the rest, each in
    /// ascending order — and while a chunk is resident every job that
    /// touches it is searched on it, fanned over `num_threads` workers. A
    /// job keeps a running top-k, merged by [`crate::query::rank_cmp`] and
    /// truncated after each chunk, and sums its
    /// [`crate::query::QueryStats`]. `rank_cmp` is a total order, so each
    /// result is bit-identical to the job searched alone, whatever the
    /// wave's size, order or thread count.
    /// Since resident chunks go first, no fault evicts a chunk the wave has
    /// still to visit: a wave faults each chunk at most once.
    ///
    /// A chunk whose fault fails gives its error (`chunk blob <hash>: …`)
    /// to exactly the jobs that touch it, which are not searched further;
    /// the wave's other jobs complete, and nothing of the failure is
    /// remembered for the next wave.
    ///
    /// `deadline` is checked before each chunk — for a one-chunk store,
    /// once per wave. Once it has passed, jobs that have had no chunk
    /// searched are left out and return `None`; jobs already started
    /// finish. Without a deadline every job returns `Some`.
    pub fn search_wave<S: Borrow<Spectrum> + Sync>(
        &mut self,
        jobs: &[(S, QueryOptions)],
        num_threads: usize,
        deadline: Option<Instant>,
    ) -> Vec<Option<std::io::Result<SearchResult>>> {
        assert!(num_threads >= 1, "need at least one thread");
        self.scratches
            .resize_with(num_threads, SearchScratch::default);
        let mut visits: Vec<(usize, usize)> = Vec::new(); // (chunk, job)
        for (j, (q, opts)) in jobs.iter().enumerate() {
            let q: &Spectrum = q.borrow();
            let tol = opts.effective_tolerance(&self.config);
            visits.extend(
                intervals_overlapping(&self.intervals, q.precursor_neutral_mass(), tol)
                    .into_iter()
                    .map(|ci| (ci, j)),
            );
        }
        visits.sort_unstable_by_key(|&(ci, j)| (self.resident[ci].is_none(), ci, j));

        // Per job: `None` until its first chunk is searched, then its
        // running result, or the error that ended it.
        let mut out: Vec<Option<std::io::Result<SearchResult>>> =
            jobs.iter().map(|_| None).collect();
        let passed = || deadline.is_some_and(|d| Instant::now() >= d);
        let mut expired = passed();
        for visit in visits.chunk_by(|a, b| a.0 == b.0) {
            let ci = visit[0].0;
            expired = expired || passed();
            let live: Vec<usize> = visit
                .iter()
                .map(|&(_, j)| j)
                .filter(|&j| match &out[j] {
                    None => !expired,
                    Some(r) => r.is_ok(),
                })
                .collect();
            if live.is_empty() {
                continue;
            }
            if let Err(e) = self.ensure_resident(ci) {
                for &j in &live {
                    out[j] = Some(Err(std::io::Error::new(e.kind(), e.to_string())));
                }
                continue;
            }
            let chunk = self.resident[ci].as_ref().expect("just made resident");
            // Mapped: PSMs carry global peptide ids before the per-chunk
            // top-k truncates, so tie order matches a monolithic search.
            let gids = self.global_ids.get(ci).map(Vec::as_slice);
            let job = |i: usize| (jobs[live[i]].0.borrow(), &jobs[live[i]].1);
            let results = search_jobs(chunk, gids, live.len(), job, &mut self.scratches);
            for (&j, r) in live.iter().zip(results) {
                let Ok(acc) = out[j].get_or_insert_with(|| Ok(SearchResult::default())) else {
                    unreachable!("a failed job is not live");
                };
                acc.stats.accumulate(&r.stats);
                acc.psms.extend(r.psms);
                // Best first: score descending (a total order, so crafted
                // NaN-bearing inputs cannot panic the sort) with the
                // `(peptide, modform)` tie-break, which never mentions
                // entry ids — the merged ranking is what one index over all
                // the peptides would return.
                acc.psms.sort_by(crate::query::rank_cmp);
                acc.psms.truncate(jobs[j].1.effective_top_k(&self.config));
            }
        }
        // A job whose window touches no chunk has nothing to search.
        for state in &mut out {
            if state.is_none() && !expired {
                *state = Some(Ok(SearchResult::default()));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IndexBuilder;
    use crate::format::{content_hash64, ParsedContainer, Section};
    use crate::lifecycle::{blob_path, GenerationStore};
    use crate::query::{ScanMode, Searcher};
    use lbe_bio::mods::{ModForm, ModSpec};
    use lbe_bio::peptide::{Peptide, PeptideDb};
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

    /// A fresh generation store over `db` at `tmpfile(name)`, at most
    /// `chunk_size` peptides per chunk.
    fn store_of(
        name: &str,
        db: &PeptideDb,
        cfg: SlmConfig,
        spec: ModSpec,
        chunk_size: usize,
    ) -> PathBuf {
        let dir = tmpfile(name);
        GenerationStore::init(&dir, db, cfg, spec, chunk_size).unwrap();
        dir
    }

    /// [`ChunkStore::search_with_opts`] under the store's own configuration.
    fn default_search(store: &mut ChunkStore, q: &Spectrum) -> std::io::Result<SearchResult> {
        store.search_with_opts(q, &QueryOptions::default())
    }

    /// Chunk `ci`'s image as its blob file holds it, decoded if compressed.
    fn raw_blob(store: &ChunkStore, ci: usize) -> Vec<u8> {
        let stored =
            std::fs::read(blob_path(store.dir.as_ref().unwrap(), store.blobs[ci].hash)).unwrap();
        if crate::compress::is_compressed_blob(&stored) {
            crate::compress::decompress_container(&stored, MAGIC_V2)
                .unwrap()
                .as_slice()
                .to_vec()
        } else {
            stored
        }
    }

    #[test]
    fn chunk_count_and_sizes() {
        let dir = store_of("sizes", &db(), SlmConfig::default(), ModSpec::none(), 2);
        let mut store = ChunkStore::open_generation_dir(&dir, usize::MAX).unwrap();
        assert_eq!(store.num_chunks(), 3);
        // An open search faults every chunk.
        default_search(&mut store, &perfect_query(b"PEPTIDEK")).unwrap();
        assert_eq!(store.num_resident(), 3);
        let spectra: usize = store
            .resident
            .iter()
            .flatten()
            .map(SlmIndex::num_spectra)
            .sum();
        assert_eq!(spectra, 6);
        assert!(store.resident_heap_bytes() > 0);
        let one = store_of(
            "sizes_one",
            &db(),
            SlmConfig::default(),
            ModSpec::none(),
            100,
        );
        let one = ChunkStore::open_generation_dir(&one, 1).unwrap();
        assert_eq!(one.num_chunks(), 1);
    }

    #[test]
    fn chunks_are_mass_sorted() {
        let dir = store_of("sorted", &db(), SlmConfig::default(), ModSpec::none(), 2);
        let mut store = ChunkStore::open_generation_dir(&dir, usize::MAX).unwrap();
        // A ladder: each interval ends where the next begins.
        for w in store.intervals.windows(2) {
            assert!(w[0].0 <= w[0].1 && w[0].1 == w[1].0, "{w:?}");
        }
        // Max mass in chunk i ≤ min mass in chunk i+1.
        let n = store.num_chunks();
        for ci in 0..n {
            store.ensure_resident(ci).unwrap();
        }
        let chunk = |ci: usize| store.resident[ci].as_ref().unwrap().entries();
        for i in 0..n - 1 {
            let max_i = chunk(i)
                .iter()
                .map(|e| e.precursor_mass)
                .fold(f32::NEG_INFINITY, f32::max);
            let min_next = chunk(i + 1)
                .iter()
                .map(|e| e.precursor_mass)
                .fold(f32::INFINITY, f32::min);
            assert!(max_i <= min_next);
        }
    }

    // -----------------------------------------------------------------------
    // One table: every way to reach a store × ΔM × budget against one index.
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

        let sources = [&fresh, &appended, &compacted];

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
        // `serve_mixed`'s four tolerances under both scan modes.
        let jobs: Vec<(QueryOptions, &Spectrum)> = [ScanMode::Auto, ScanMode::FullScan]
            .iter()
            .flat_map(|&scan_mode| [0.01, 1.0, 500.0, f64::INFINITY].map(|t| (scan_mode, t)))
            .flat_map(|(scan_mode, tol)| {
                let opts = QueryOptions {
                    scan_mode,
                    precursor_tolerance: Some(tol),
                    ..Default::default()
                };
                queries.iter().map(move |q| (opts, q))
            })
            .collect();

        // The reference: one index over all the peptides, each job searched
        // alone. It is searched as a file holds it, without the peptide
        // table the build attaches, so its closed jobs take the posting
        // walk as every store's do, and every counter compares.
        let built = IndexBuilder::new(cfg.clone(), ModSpec::none()).build(&all);
        let mono = built.clone().without_peptides();
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
        let lone: Vec<SearchResult> = jobs
            .iter()
            .map(|(opts, q)| searcher.search_with_opts(q, opts))
            .collect();
        let expect = rows(&lone);
        assert!(
            expect.iter().any(|q| q.len() == 3 && q[0].3 == q[2].3),
            "fixture must put an exact-score tie across the top-k cut"
        );
        // The built index scores its small bands directly: the same PSMs,
        // score bits included.
        let mut direct = Searcher::new(&built);
        let scored: Vec<SearchResult> = jobs
            .iter()
            .map(|(opts, q)| direct.search_with_opts(q, opts))
            .collect();
        assert_eq!(rows(&scored), expect);
        assert!(scored.iter().any(|r| r.stats.entries_scored_directly > 0));

        // What every other way of searching must reproduce: the store
        // searched one job at a time, all resident — whole results, PSMs
        // with their entry ids and all six work counters.
        let one_at_a_time = |path: &Path| -> Vec<SearchResult> {
            let mut store = ChunkStore::open_generation_dir(path, usize::MAX).unwrap();
            jobs.iter()
                .map(|(opts, q)| store.search_with_opts(q, opts).unwrap())
                .collect()
        };
        let seed = 0xC0FF_EE5E_u64;
        eprintln!("job-order shuffle seed {seed:#x}");
        let orders = [
            ("given", (0..jobs.len()).collect::<Vec<_>>()),
            ("reversed", (0..jobs.len()).rev().collect()),
            ("shuffled", shuffled(jobs.len(), seed)),
        ];
        // One pass over every job on a freshly opened `store`, `order`ed and
        // cut into waves of `wave` jobs on `threads` workers — each wave
        // mixes tolerances and scan modes unless it is one job: the results
        // in job order and what the residency layer did to produce them.
        let pass = |mut store: ChunkStore, order: &[usize], wave: usize, threads: usize| {
            let budget = store.max_resident();
            let mut results: Vec<Option<SearchResult>> = vec![None; jobs.len()];
            for part in order.chunks(wave) {
                let batch: Vec<(&Spectrum, QueryOptions)> =
                    part.iter().map(|&j| (jobs[j].1, jobs[j].0)).collect();
                for (&j, r) in part.iter().zip(store.search_wave(&batch, threads, None)) {
                    results[j] = Some(r.expect("no deadline").unwrap());
                }
                assert!(store.num_resident() <= budget);
            }
            let results: Vec<SearchResult> = results.into_iter().map(Option::unwrap).collect();
            (results, store.stats(), store.num_chunks())
        };
        // A single index file is a one-chunk store searched unmapped: every
        // job's result, entry ids and counters included, is the lone run's.
        let file = tmpfile("table_file.slm2");
        io::write_index_path(&file, &mono).unwrap();
        for threads in [1usize, 2, 4] {
            for (name, order) in &orders {
                for wave in [1, 3, jobs.len()] {
                    let case = format!(
                        "index file, {threads} threads, {name} order (seed {seed:#x}), waves of {wave}"
                    );
                    let store = ChunkStore::from_index(io::read_index_path(&file).unwrap());
                    let (got, stats, chunks) = pass(store, order, wave, threads);
                    assert_eq!(got, lone, "{case}");
                    assert_eq!((chunks, stats.faults, stats.evictions), (1, 0, 0), "{case}");
                }
            }
        }
        for path in sources {
            let want = one_at_a_time(path);
            assert_eq!(rows(&want), expect, "{path:?} vs one index");
            for budget in [1usize, 2, usize::MAX] {
                for threads in [1usize, 2, 4] {
                    for (name, order) in &orders {
                        for wave in [1, 3, jobs.len()] {
                            let case = format!(
                                "{path:?}, budget {budget}, {threads} threads, {name} order \
                                 (seed {seed:#x}), waves of {wave}"
                            );
                            let store = ChunkStore::open_generation_dir(path, budget).unwrap();
                            assert!(store.num_chunks() > 4, "{path:?} must exercise chunking");
                            let (got, stats, chunks) = pass(store, order, wave, threads);
                            assert_eq!(got, want, "{case}");
                            if budget == usize::MAX {
                                assert_eq!(stats.evictions, 0, "{case}");
                            }
                            if wave == jobs.len() {
                                assert!(stats.faults <= chunks as u64, "{case}: {stats:?}");
                            }
                        }
                    }
                }
            }
        }
        std::fs::remove_file(&file).ok();
    }

    /// splitmix64: the seeded tests' deterministic noise.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `0..n` in a Fisher–Yates order drawn from `seed`.
    fn shuffled(n: usize, seed: u64) -> Vec<usize> {
        let mut state = seed;
        let mut out: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            out.swap(i, (splitmix(&mut state) % (i as u64 + 1)) as usize);
        }
        out
    }

    // -----------------------------------------------------------------------
    // Residency tests.
    // -----------------------------------------------------------------------

    #[test]
    fn faulted_chunks_equal_the_built_ones_and_reserialize_to_their_blobs() {
        // What `init` wrote is what `ChunkStore` reads back: every chunk is
        // the index built over the peptides its id table names, and a
        // faulted chunk written out again is its blob's image byte for byte.
        let db = db();
        for (name, spec) in [
            ("rt_plain", ModSpec::none()),
            ("rt_mods", ModSpec::paper_default()),
        ] {
            let dir = store_of(name, &db, SlmConfig::default(), spec.clone(), 2);
            let mut store = ChunkStore::open_generation_dir(&dir, usize::MAX).unwrap();
            assert_eq!(store.config, SlmConfig::default());
            assert_eq!(store.num_chunks(), 3);
            for ci in 0..store.num_chunks() {
                store.ensure_resident(ci).unwrap();
                let local = store.global_ids[ci].iter().map(|&g| db.get(g).clone());
                let built = IndexBuilder::new(SlmConfig::default(), spec.clone())
                    .build(&PeptideDb::from_vec(local.collect()));
                let faulted = store.resident[ci].as_ref().unwrap();
                assert_eq!(faulted, &built, "{name} chunk {ci}");
                assert!(
                    faulted.arena().unwrap().as_slice() == raw_blob(&store, ci),
                    "{name} chunk {ci}: the faulted image is not its blob's"
                );
                faulted.validate().unwrap();
                let mut blob = Vec::new();
                io::write_index(&mut blob, faulted).unwrap();
                assert!(
                    blob == raw_blob(&store, ci),
                    "{name} chunk {ci} does not reserialize to its blob"
                );
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn a_budgeted_replay_over_vector_decoded_blobs_equals_one_over_portable_images() {
        // The store as written (compressed blobs, decoded on each fault by
        // the widest kernels this CPU runs) against a copy whose blob files
        // hold the images the portable decoder makes of them — a raw blob
        // is loaded as is, no decoder runs. Same names, same manifest: the
        // same replay at budget 1 must fault, evict and answer alike.
        // 60 peptides of 8–20 residues, 20 a chunk: several hundred
        // postings per chunk, so full 128-value blocks on the vector path.
        let peptides: Vec<String> = (0..60)
            .map(|i| {
                let residues = b"ACDEFGHILMNPQRSTVWY";
                let body = (0..7 + i % 13).map(|j| residues[(i * 11 + j * 7) % residues.len()]);
                String::from_utf8(body.chain([b'K']).collect()).unwrap()
            })
            .collect();
        let db = db_of(&peptides);
        let dir = store_of(
            "tier_replay",
            &db,
            SlmConfig::default(),
            ModSpec::none(),
            20,
        );
        let portable = tmpfile("tier_replay_portable");
        std::fs::create_dir_all(portable.join("chunks")).unwrap();
        for entry in std::fs::read_dir(&dir).unwrap() {
            let entry = entry.unwrap();
            if entry.file_type().unwrap().is_file() {
                std::fs::copy(entry.path(), portable.join(entry.file_name())).unwrap();
            }
        }
        let mut compressed = 0;
        for entry in std::fs::read_dir(dir.join("chunks")).unwrap() {
            let entry = entry.unwrap();
            let stored = std::fs::read(entry.path()).unwrap();
            let image = if crate::compress::is_compressed_blob(&stored) {
                compressed += 1;
                crate::compress::decompress_portable(&stored, MAGIC_V2)
                    .unwrap()
                    .as_slice()
                    .to_vec()
            } else {
                stored
            };
            std::fs::write(portable.join("chunks").join(entry.file_name()), image).unwrap();
        }
        assert!(compressed > 0, "no compressed blob to decode");
        let queries: Vec<(Spectrum, f64)> = peptides
            .iter()
            .step_by(4)
            .chain(peptides.iter().rev().step_by(5))
            .zip([f64::INFINITY, 0.5, 200.0].into_iter().cycle())
            .map(|(p, tol)| (perfect_query(p.as_bytes()), tol))
            .collect();
        let replay = |dir: &Path| {
            let mut store = ChunkStore::open_generation_dir(dir, 1).unwrap();
            assert!(store.num_chunks() >= 3);
            let psms: Vec<Vec<crate::Psm>> = queries
                .iter()
                .map(|(q, tol)| {
                    let opts = QueryOptions {
                        precursor_tolerance: Some(*tol),
                        ..QueryOptions::default()
                    };
                    store.search_with_opts(q, &opts).unwrap().psms
                })
                .collect();
            (store.stats(), psms)
        };
        let (vector, portable_run) = (replay(&dir), replay(&portable));
        assert!(vector.0.faults > vector.0.evictions && vector.0.evictions > 0);
        assert_eq!(vector.0, portable_run.0);
        assert_eq!(vector.1, portable_run.1);
        assert!(vector.1.iter().any(|p| !p.is_empty()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&portable).ok();
    }

    #[test]
    fn store_respects_budget_and_counts_residency_events() {
        let dir = store_of(
            "budget_stats",
            &db(),
            SlmConfig::default(),
            ModSpec::none(),
            2,
        );
        // Open search: every query touches all 3 chunks.
        let mut store = ChunkStore::open_generation_dir(&dir, 1).unwrap();
        assert_eq!(store.num_chunks(), 3);
        assert_eq!(store.num_resident(), 0);
        default_search(&mut store, &perfect_query(b"PEPTIDEK")).unwrap();
        let s1 = store.stats();
        assert_eq!((s1.faults, s1.evictions, s1.hits), (3, 2, 0));
        let all_bytes: u64 = store.blobs.iter().map(|b| b.raw_len).sum();
        assert_eq!(s1.fault_bytes, all_bytes);
        let kept = store.blobs[store.resident_chunks()[0]].raw_len;
        assert_eq!(store.num_resident(), 1);
        // A second query visits the chunk still resident first, then
        // re-faults the other two (thrash at budget 1)...
        default_search(&mut store, &perfect_query(b"GGGGGK")).unwrap();
        let s2 = store.stats();
        assert_eq!((s2.faults, s2.evictions, s2.hits), (5, 4, 1));
        assert_eq!(s2.fault_bytes, all_bytes + all_bytes - kept);
        assert!(store.resident_heap_bytes() > 0);

        // ...while an all-resident store faults each chunk exactly once.
        let mut warm = ChunkStore::open_generation_dir(&dir, usize::MAX).unwrap();
        default_search(&mut warm, &perfect_query(b"PEPTIDEK")).unwrap();
        default_search(&mut warm, &perfect_query(b"GGGGGK")).unwrap();
        let sw = warm.stats();
        assert_eq!((sw.faults, sw.evictions, sw.hits), (3, 0, 3));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_evicts_the_chunk_of_least_credit() {
        // Closed 1 Da searches of one chunk each, budget 2 of 3. An access
        // gives a chunk the credit floor + its decoded bytes, and a fault
        // evicts the least credit and raises the floor to it: among chunks
        // used since the last eviction the smaller goes first, while older
        // chunks age out. Twice here the victim is one LRU would keep.
        let cfg = SlmConfig::default().with_precursor_tolerance(1.0);
        let dir = store_of("least_credit", &db(), cfg, ModSpec::none(), 2);
        let mut store = ChunkStore::open_generation_dir(&dir, 2).unwrap();
        let size: Vec<u64> = store.blobs.iter().map(|b| b.raw_len).collect();
        assert!(size[0] < size[1] && size[1] < size[2], "{size:?}");
        let seqs = [&b"GGGGGK"[..], b"PEPTIDEK", b"ELVISLIVESK"];
        for (ci, seq) in seqs.iter().enumerate() {
            let mass = perfect_query(seq).precursor_neutral_mass();
            assert_eq!(store.chunks_for_query(mass), vec![ci]);
        }
        // (chunk searched, resident chunks after it)
        for (ci, resident) in [
            (1, vec![1]),    // credit s1
            (0, vec![0, 1]), // credit s0
            (2, vec![1, 2]), // evicts 0: s0 < s1, though 1 is older; floor s0
            (0, vec![0, 2]), // evicts 1: s1 < s0 + s2; floor s1
            (1, vec![1, 2]), // evicts 0: s1 + s0 < s0 + s2, though 2 is older
        ] {
            default_search(&mut store, &perfect_query(seqs[ci])).unwrap();
            assert_eq!(store.resident_chunks(), resident, "after chunk {ci}");
        }
        let s = store.stats();
        assert_eq!((s.faults, s.evictions, s.hits), (5, 3, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// GreedyDual as its definition reads, over a resident set keyed by
    /// chunk: `(credit, last access)` per resident chunk, and the counters
    /// a [`ChunkStore`] keeps.
    #[derive(Default)]
    struct GreedyDualModel {
        floor: u64,
        tick: u64,
        resident: std::collections::BTreeMap<usize, (u64, u64)>,
        stats: ResidencyStats,
    }

    impl GreedyDualModel {
        fn access(&mut self, ci: usize, bytes: u64, budget: usize) {
            self.tick += 1;
            if self.resident.contains_key(&ci) {
                self.stats.hits += 1;
            } else {
                if self.resident.len() == budget {
                    let (&victim, &(credit, _)) =
                        self.resident.iter().min_by_key(|(_, &p)| p).unwrap();
                    self.floor = credit;
                    self.resident.remove(&victim);
                    self.stats.evictions += 1;
                }
                self.stats.faults += 1;
                self.stats.fault_bytes += bytes;
            }
            self.resident.insert(ci, (self.floor + bytes, self.tick));
        }
    }

    /// A store of one peptide per chunk; `seqs` of distinct lengths give
    /// chunks of distinct sizes.
    fn one_per_chunk(name: &str, seqs: &[&str]) -> (PathBuf, Vec<u64>) {
        let dir = store_of(name, &db_of(seqs), SlmConfig::default(), ModSpec::none(), 1);
        let store = ChunkStore::open_generation_dir(&dir, 1).unwrap();
        let sizes = store.blobs.iter().map(|b| b.raw_len).collect();
        (dir, sizes)
    }

    #[test]
    fn eviction_matches_a_greedy_dual_reference_model() {
        let seqs = [
            "GK",
            "GGGGGK",
            "PEPTIDEK",
            "ELVISLIVESK",
            "WWWWWWWWWWWWWWK",
            "SAMPLERSAMPLERSAMPLERK",
        ];
        let (dir, sizes) = one_per_chunk("greedy_dual_model", &seqs);
        let n = sizes.len();
        let mut distinct = sizes.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), n, "chunks must differ in size: {sizes:?}");
        for seed in 1..=6u64 {
            let mut state = seed;
            for budget in 1..n {
                let mut store = ChunkStore::open_generation_dir(&dir, budget).unwrap();
                let mut model = GreedyDualModel::default();
                for step in 0..48 {
                    let ci = (splitmix(&mut state) % n as u64) as usize;
                    store.ensure_resident(ci).unwrap();
                    model.access(ci, sizes[ci], budget);
                    let want: Vec<usize> = model.resident.keys().copied().collect();
                    let case = format!("seed {seed}, budget {budget}, step {step}");
                    assert_eq!(store.resident_chunks(), want, "{case}");
                    assert_eq!(store.stats(), model.stats, "{case}");
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn equal_sized_chunks_evict_in_lru_order() {
        let seqs = ["AAAAAAK", "GGGGGGK", "SSSSSSK", "VVVVVVK"];
        let (dir, sizes) = one_per_chunk("equal_sizes", &seqs);
        assert!(sizes.iter().all(|&b| b == sizes[0]), "{sizes:?}");
        let seed = 7;
        let mut state = seed;
        for budget in 1..seqs.len() {
            let mut store = ChunkStore::open_generation_dir(&dir, budget).unwrap();
            let mut lru: Vec<usize> = Vec::new(); // least recently used first
            for step in 0..40 {
                let ci = (splitmix(&mut state) % seqs.len() as u64) as usize;
                store.ensure_resident(ci).unwrap();
                match lru.iter().position(|&c| c == ci) {
                    Some(at) => _ = lru.remove(at),
                    None if lru.len() == budget => _ = lru.remove(0),
                    None => {}
                }
                lru.push(ci);
                let mut want = lru.clone();
                want.sort_unstable();
                assert_eq!(
                    store.resident_chunks(),
                    want,
                    "seed {seed}, budget {budget}, step {step}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_paging_store_faults_into_the_evicted_chunks_buffer() {
        let dir = store_of(
            "recycle_store",
            &db(),
            SlmConfig::default(),
            ModSpec::none(),
            2,
        );
        // Budget 2 of 3 chunks, each access to the one chunk not resident
        // — the last victim, whichever the policy picked: every access
        // faults and every fault after the second evicts, so two buffers,
        // each sized for the largest chunk, carry every chunk in turn.
        let mut store = ChunkStore::open_generation_dir(&dir, 2).unwrap();
        let n = store.num_chunks();
        assert_eq!(n, 3);
        let largest = store.largest_image();
        let mut buffers = std::collections::HashSet::new();
        for _ in 0..4 * n {
            let ci = (0..n).find(|&c| store.resident[c].is_none()).unwrap();
            store.ensure_resident(ci).unwrap();
            let arena = store.resident[ci].as_ref().unwrap().arena().unwrap();
            assert!(arena.capacity() >= largest, "chunk {ci}");
            assert!(arena.as_slice() == raw_blob(&store, ci), "chunk {ci}");
            buffers.insert(arena.as_slice().as_ptr());
        }
        assert_eq!(store.stats().faults, 4 * n as u64);
        assert_eq!(buffers.len(), 2);

        // All resident: each chunk in a buffer of its own size.
        let mut store = ChunkStore::open_generation_dir(&dir, usize::MAX).unwrap();
        let image_len = |store: &ChunkStore, ci: usize| store.blobs[ci].raw_len as usize;
        for ci in 0..n {
            store.ensure_resident(ci).unwrap();
            let arena = store.resident[ci].as_ref().unwrap().arena().unwrap();
            let len = image_len(&store, ci);
            assert_eq!(arena.capacity(), len.div_ceil(64) * 64, "chunk {ci}");
        }
        assert!((0..n).any(|ci| image_len(&store, ci) < largest));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn faults_into_a_larger_chunks_dirty_buffer_are_byte_exact_and_damage_is_still_refused() {
        // A fault does not clear the buffer it decodes into. One buffer
        // (budget 1), chunks of very different sizes faulted largest first,
        // so each decodes over what a larger image left behind — and then,
        // on the next sweep, the largest over the smallest's leftovers.
        let lens = [6usize, 6, 6, 20, 20, 20, 45, 45, 45];
        let seqs: Vec<String> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| {
                let residues = b"ACDEFGHILMNPQRSTVWY";
                let body = (0..len - 1).map(|j| residues[(i * 7 + j * 5) % residues.len()]);
                String::from_utf8(body.chain([b'K']).collect()).unwrap()
            })
            .collect();
        let cfg = SlmConfig {
            resolution: 1.0,
            ..SlmConfig::default()
        };
        let dir = store_of("dirty_buffers", &db_of(&seqs), cfg, ModSpec::none(), 3);
        let mut store = ChunkStore::open_generation_dir(&dir, 1).unwrap();
        let n = store.num_chunks();
        assert_eq!(n, 3);
        let mut by_size: Vec<usize> = (0..n).collect();
        by_size.sort_by_key(|&ci| std::cmp::Reverse(store.blobs[ci].raw_len));
        let (largest, smallest) = (by_size[0], by_size[n - 1]);
        let len = |ci: usize| store.blobs[ci].raw_len;
        assert!(
            len(largest) >= 2 * len(smallest),
            "{}, {}",
            len(largest),
            len(smallest)
        );
        let images: Vec<Vec<u8>> = (0..n).map(|ci| raw_blob(&store, ci)).collect();
        let mut buffers = std::collections::HashSet::new();
        let mut fault = |store: &mut ChunkStore, ci: usize| {
            store.ensure_resident(ci).unwrap();
            let arena = store.resident[ci].as_ref().unwrap().arena().unwrap();
            assert!(arena.as_slice() == images[ci], "chunk {ci}");
            buffers.insert(arena.as_slice().as_ptr());
        };
        for _ in 0..2 {
            for &ci in &by_size {
                fault(&mut store, ci);
            }
        }
        assert_eq!(store.stats().faults, 2 * n as u64);
        assert_eq!(buffers.len(), 1);

        // Every damage of the corruption table below, to the smallest
        // chunk's blob, faulted over the largest image: refused. The
        // repaired blob then faults byte-exact over the largest again.
        let path = blob_path(&dir, store.blobs[smallest].hash);
        let stored = std::fs::read(&path).unwrap();
        assert!(crate::compress::is_compressed_blob(&stored));
        for (what, bent) in damages(&stored) {
            std::fs::write(&path, &bent).unwrap();
            store.ensure_resident(largest).unwrap();
            let err = store.ensure_resident(smallest).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}: {err}");
            std::fs::write(&path, &stored).unwrap();
            store.ensure_resident(largest).unwrap();
            store.ensure_resident(smallest).unwrap();
            let arena = store.resident[smallest].as_ref().unwrap().arena().unwrap();
            assert!(arena.as_slice() == images[smallest], "after {what}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_database_container_opens_and_finds_nothing() {
        let dir = store_of(
            "empty",
            &PeptideDb::new(),
            SlmConfig::default(),
            ModSpec::none(),
            4,
        );
        let mut store = ChunkStore::open_generation_dir(&dir, 1).unwrap();
        assert_eq!(store.num_chunks(), 0);
        let r = default_search(&mut store, &perfect_query(b"PEPTIDEK")).unwrap();
        assert!(r.psms.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_blob_fails_on_fault_not_open() {
        let dir = store_of(
            "corrupt_blob",
            &db(),
            SlmConfig::default(),
            ModSpec::none(),
            2,
        );
        let (last, hash, raw) = {
            let store = ChunkStore::open_generation_dir(&dir, 4).unwrap();
            let last = store.num_chunks() - 1;
            (last, store.blobs[last].hash, raw_blob(&store, last))
        };
        let path = blob_path(&dir, hash);
        let pristine = std::fs::read(&path).unwrap();
        // Flip a byte near the end of the last chunk's blob file.
        let mut bytes = pristine.clone();
        let pos = bytes.len() - 16;
        bytes[pos] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        // Lazy open succeeds — the blob has not been touched yet.
        let mut store = ChunkStore::open_generation_dir(&dir, 4).unwrap();
        // An open search eventually faults the corrupt chunk and fails
        // cleanly.
        let err = default_search(&mut store, &perfect_query(b"PEPTIDEK")).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::write(&path, &pristine).unwrap();

        // Bit rot is the checksums' job. A blob whose bytes are intact but
        // whose bin directory is *wrong* (checksums, and the content hash
        // its record names, recomputed over it) gets past them, and must be
        // stopped by the always-on cheap validation — at fault time, typed,
        // never by a lookup walking out of its arrays.
        let chunk = io::read_index_bytes(&raw, &ReadOptions::default()).unwrap();
        for (what, edit, expect) in io::test_support::directory_corruptions() {
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
            let reseat = BlobRef {
                hash: content_hash64(&out),
                raw_len: out.len() as u64,
                stored_len: out.len() as u64,
            };
            std::fs::write(blob_path(&dir, reseat.hash), &out).unwrap();
            for opts in [ReadOptions::default(), ReadOptions::trusted()] {
                let mut store = ChunkStore::open_generation_dir_with(&dir, 4, &opts).unwrap();
                store.blobs[last] = reseat;
                let err = default_search(&mut store, &perfect_query(b"PEPTIDEK")).unwrap_err();
                assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}");
                assert!(err.to_string().contains(expect), "{what}: {err}");
            }
            std::fs::remove_file(blob_path(&dir, reseat.hash)).unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_fault_fails_exactly_the_jobs_that_touch_its_chunk() {
        let cfg = SlmConfig {
            resolution: 0.1,
            top_k: 3,
            ..SlmConfig::default()
        };
        let dir = store_of("wave_failure", &tie_db(), cfg, ModSpec::none(), 4);
        let jobs: Vec<(Spectrum, QueryOptions)> = [
            ("PEPTIDEIAIK", 0.01),
            ("SAMPLERLGGLR", 0.01),
            ("MNKQMGGR", 1.0),
            ("ELVISLIVESK", 0.01),
            ("WWYYFFHHK", 500.0),
            ("TAMPIERIGGIR", f64::INFINITY),
        ]
        .iter()
        .map(|&(seq, tol)| {
            let opts = QueryOptions {
                precursor_tolerance: Some(tol),
                ..Default::default()
            };
            (perfect_query(seq.as_bytes()), opts)
        })
        .collect();
        let (clean, touches, hash) = {
            let mut store = ChunkStore::open_generation_dir(&dir, usize::MAX).unwrap();
            let clean: Vec<SearchResult> = store
                .search_wave(&jobs, 1, None)
                .into_iter()
                .map(|r| r.unwrap().unwrap())
                .collect();
            // The damaged chunk: the first 0.01 Da job's, which other jobs
            // of the wave do not touch.
            let chunks = |(q, opts): &(Spectrum, QueryOptions)| {
                let tol = opts.effective_tolerance(&store.config);
                intervals_overlapping(&store.intervals, q.precursor_neutral_mass(), tol)
            };
            let bad = chunks(&jobs[0])[0];
            let touches: Vec<bool> = jobs.iter().map(|j| chunks(j).contains(&bad)).collect();
            (clean, touches, store.blobs[bad].hash)
        };
        assert!(touches.iter().any(|&t| !t), "{touches:?}");
        let path = blob_path(&dir, hash);
        let pristine = std::fs::read(&path).unwrap();
        let mut bent = pristine.clone();
        bent[pristine.len() / 2] ^= 0x01;
        for budget in [1, 2, usize::MAX] {
            std::fs::write(&path, &bent).unwrap();
            let mut store = ChunkStore::open_generation_dir(&dir, budget).unwrap();
            let results = store.search_wave(&jobs, 1, None);
            for (j, r) in results.into_iter().enumerate() {
                let r = r.expect("no deadline");
                match touches[j] {
                    true => {
                        let err = r.expect_err(&format!("budget {budget}, job {j}"));
                        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
                        let msg = err.to_string();
                        assert!(
                            msg.starts_with(&format!("chunk blob {hash:016x}: ")),
                            "{msg}"
                        );
                    }
                    false => assert_eq!(r.unwrap(), clean[j], "budget {budget}, job {j}"),
                }
            }
            // No verdict sticks: with the blob restored, the next wave on
            // the same store answers every job.
            std::fs::write(&path, &pristine).unwrap();
            let again: Vec<SearchResult> = store
                .search_wave(&jobs, 1, None)
                .into_iter()
                .map(|r| r.unwrap().unwrap())
                .collect();
            assert_eq!(again, clean, "budget {budget}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_tolerance_override_equals_container_built_closed() {
        // Per-request ΔM on an open-built store == a store built closed at
        // that ΔM: same chunk selection, same bands, same PSMs.
        let closed_cfg = SlmConfig::default().with_precursor_tolerance(1.0);
        let po = store_of("opts_open", &db(), SlmConfig::default(), ModSpec::none(), 2);
        let pc = store_of("opts_closed", &db(), closed_cfg, ModSpec::none(), 2);
        let mut so = ChunkStore::open_generation_dir(&po, usize::MAX).unwrap();
        let mut sc = ChunkStore::open_generation_dir(&pc, usize::MAX).unwrap();
        let opts = QueryOptions {
            precursor_tolerance: Some(1.0),
            ..Default::default()
        };
        for seq in [&b"PEPTIDEK"[..], b"GGGGGK", b"ELVISLIVESK"] {
            let q = perfect_query(seq);
            assert_eq!(
                so.search_with_opts(&q, &opts).unwrap(),
                default_search(&mut sc, &q).unwrap(),
                "{seq:?}"
            );
        }
        // The override also narrows which chunks fault in: a 1 Da window
        // must not touch all 3 chunks of the open-built store.
        let mut narrow = ChunkStore::open_generation_dir(&po, usize::MAX).unwrap();
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
            default_search(&mut so, &perfect_query(b"PEPTIDEK"))
                .unwrap()
                .psms[0]
        );
        std::fs::remove_dir_all(&po).ok();
        std::fs::remove_dir_all(&pc).ok();
    }

    #[test]
    fn closed_search_store_skips_nonoverlapping_chunks() {
        // With a tight precursor window the store must not fault chunks
        // the query cannot match — disk traffic tracks the mass window.
        let cfg = SlmConfig::default().with_precursor_tolerance(1.0);
        let dir = store_of("closed", &db(), cfg, ModSpec::none(), 2);
        let mut store = ChunkStore::open_generation_dir(&dir, 8).unwrap();
        default_search(&mut store, &perfect_query(b"GGGGGK")).unwrap();
        assert!(
            store.stats().faults < 3,
            "a 1 Da window must not fault every chunk: {:?}",
            store.stats()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    // -----------------------------------------------------------------------
    // One corruption table: every stored blob form × every kind of damage,
    // through `ensure_resident`.
    // -----------------------------------------------------------------------

    /// One blob file of the generation store at `dir` — with the record to
    /// point the opened store's chunk at, when the file was put there by the
    /// test rather than by `init`.
    struct BlobSource {
        what: &'static str,
        dir: PathBuf,
        path: PathBuf,
        reseat: Option<BlobRef>,
        ci: usize,
        /// The undamaged blob as stored (a compressed frame or a raw image).
        stored: Vec<u8>,
    }

    impl BlobSource {
        /// Puts `bytes` where the blob is stored.
        fn install(&self, bytes: &[u8]) {
            std::fs::write(&self.path, bytes).unwrap();
        }

        /// Opens the store the blob belongs to — which must succeed whatever
        /// state the blob is in: blobs are not read before a fault.
        fn open(&self) -> ChunkStore {
            let mut store = ChunkStore::open_generation_dir(&self.dir, 1).unwrap();
            if let Some(b) = self.reseat {
                store.blobs[self.ci] = b;
            }
            store
        }
    }

    /// Every kind of single damage to a stored blob, as `(what, damaged
    /// bytes)`; each must be refused. A frame is damaged in its header
    /// fields, its prefix, and every encoded section's scheme, length and
    /// payload; a raw image in its header, table, every payload and every
    /// padding gap — the one region no section CRC covers, which the
    /// manifest's content hash does. Both are cut short and given a
    /// trailing byte. Flips take bit 0, which is a value bit in every
    /// packed byte.
    fn damages(stored: &[u8]) -> Vec<(String, Vec<u8>)> {
        let mut out = Vec::new();
        let mut flip = |what: String, pos: usize| {
            let mut bent = stored.to_vec();
            bent[pos] ^= 0x01;
            out.push((format!("{what} (byte {pos})"), bent));
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
                flip(field.into(), pos);
            }
            let (prefix, sections) = crate::compress::frame_layout(stored);
            flip("prefix: inner version".into(), prefix.start + 9);
            flip(
                "prefix: inner table".into(),
                prefix.start + crate::format::HEADER_LEN + 9,
            );
            cuts.push(prefix.end - 1);
            for (i, (record, payload)) in sections.iter().enumerate() {
                flip(format!("section {i} scheme"), *record);
                flip(format!("section {i} enc_len"), record + 1);
                // Past a delta payload's leading count word: a count that
                // grows *inside a width-0 final block* used to decode to the
                // identical image and is now refused up front — the one cell
                // that would differ from the table's run on the commit
                // before the block decoder, so it is left to `compress.rs`.
                let [first, mid, last] = ends(payload);
                for pos in [(first + 8).min(last), mid, last] {
                    flip(format!("section {i} payload"), pos);
                }
                cuts.push(payload.start);
            }
        } else {
            let parsed = ParsedContainer::parse(stored, 0, None, MAGIC_V2).unwrap();
            flip("version".into(), 9);
            flip("table".into(), crate::format::HEADER_LEN + 9);
            let mut cursor = crate::format::HEADER_LEN
                + crate::format::SECTION_RECORD_LEN * parsed.sections().len();
            for s in parsed.sections() {
                let payload = s.offset as usize..(s.offset + s.len) as usize;
                if cursor < payload.start {
                    flip(
                        format!("padding before {:?}", section_name(s)),
                        (cursor + payload.start) / 2,
                    );
                }
                for pos in ends(&payload) {
                    flip(format!("payload of {:?}", section_name(s)), pos);
                }
                cuts.push(payload.start);
                cursor = payload.end;
            }
        }
        for cut in cuts {
            out.push((format!("cut to {cut} bytes"), stored[..cut].to_vec()));
        }
        let mut longer = stored.to_vec();
        longer.push(0);
        out.push(("trailing byte".into(), longer));
        out
    }

    #[test]
    fn every_damaged_blob_is_invalid_data_on_fault_and_no_verdict_sticks() {
        // Sources: what `init` stores (a compressed frame), and the same
        // store holding a chunk raw (what `init` writes when the frame would
        // not be smaller).
        let cfg = SlmConfig {
            resolution: 0.1,
            ..SlmConfig::default()
        };
        let dir = store_of("corrupt_table_store", &tie_db(), cfg, ModSpec::none(), 4);
        let (refs, raw) = {
            let store = ChunkStore::open_generation_dir(&dir, 1).unwrap();
            (store.blobs.clone(), raw_blob(&store, 1))
        };
        assert!(refs.len() > 4);
        let blob_file = |hash: u64| blob_path(&dir, hash);
        let compressed = BlobSource {
            what: "compressed generation blob",
            dir: dir.clone(),
            path: blob_file(refs[0].hash),
            reseat: None,
            ci: 0,
            stored: std::fs::read(blob_file(refs[0].hash)).unwrap(),
        };
        assert!(crate::compress::is_compressed_blob(&compressed.stored));
        let raw = BlobSource {
            what: "raw generation blob",
            dir: dir.clone(),
            path: blob_file(refs[1].hash),
            reseat: None,
            ci: 1,
            stored: raw,
        };

        for source in [&compressed, &raw] {
            source.install(&source.stored);
            let pristine = {
                let mut store = source.open();
                store.ensure_resident(source.ci).unwrap();
                store.resident[source.ci].take().unwrap()
            };
            // A generation blob answers for every byte of its image through
            // the manifest's content hash, its padding included.
            let table = damages(&source.stored);
            assert!(table.len() > 20, "{}: {} cases", source.what, table.len());
            if source.what == "raw generation blob" {
                let gaps = table.iter().filter(|(w, _)| w.starts_with("padding"));
                assert!(gaps.count() >= 3, "the fixture must have padding to damage");
            }
            let other = source.ci + 2;
            for (what, bent) in &table {
                let case = format!("{}: {what}", source.what);
                source.install(bent);
                let mut store = source.open(); // on fault, not on open
                let err = store.ensure_resident(source.ci).expect_err(&case);
                assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{case}: {err}");
                assert!(store.resident[source.ci].is_none(), "{case}");
                // The failure poisons nothing: a neighbour faults, and so
                // does this chunk once its bytes are back.
                store.ensure_resident(other).expect(&case);
                source.install(&source.stored);
                store.ensure_resident(source.ci).expect(&case);
                assert_eq!(
                    store.resident[source.ci].as_ref(),
                    Some(&pristine),
                    "{case}"
                );
            }
            // Nor does a success stick: a chunk that verified, was evicted
            // (budget 1) and rotted on disk meanwhile fails its next fault.
            let mut store = source.open();
            store.ensure_resident(source.ci).unwrap();
            store.ensure_resident(other).unwrap();
            let (what, bent) = table
                .iter()
                .find(|(what, _)| what.contains("payload"))
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
        store.blobs[3] = off_by_one;
        let err = store.ensure_resident(3).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("content hash"), "{err}");
        store.ensure_resident(4).unwrap();

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_layout_below_the_floor_is_one_typed_error() {
        // Each row — an `LBESLM1` file, an `LBECHK2` chunked container, and
        // `LBESLM2` with dense `binoffs`, with no flags, with flags 0, all
        // checksum-valid — through every single-index entry point and as a
        // generation-store blob: one `InvalidData` that names the layout
        // and says what to do.
        let dir = store_of(
            "below_the_floor_store",
            &db(),
            SlmConfig::default(),
            ModSpec::none(),
            2,
        );
        let mut current = Vec::new();
        let idx = IndexBuilder::new(SlmConfig::default(), ModSpec::none()).build(&db());
        io::write_index(&mut current, &idx).unwrap();
        let path = tmpfile("below_the_floor.slm");
        for (layout, image) in io::test_support::below_the_floor(&current) {
            std::fs::write(&path, &image).unwrap();
            let hash = content_hash64(&image);
            let blob = BlobSource {
                what: layout,
                dir: dir.clone(),
                path: blob_path(&dir, hash),
                reseat: Some(BlobRef {
                    hash,
                    raw_len: image.len() as u64,
                    stored_len: 0, // accounting only; no fault reads it
                }),
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
                    "{}: {err}",
                    blob.what
                );
            }
            // The fault keeps the prefix that names the blob. A blob is an
            // `LBESLM2` container by construction of the store, so one of
            // another magic is refused as a container, before any layout.
            let fault = errors[3].to_string();
            assert!(
                fault.starts_with(&format!("chunk blob {hash:016x}: ")),
                "{fault}"
            );
            let named = match image.starts_with(MAGIC_V2) {
                true => &errors[..],
                false => &errors[..3],
            };
            for err in named {
                let msg = err.to_string();
                assert!(
                    msg.contains(layout) && msg.contains("no longer read; rebuild with `lbe index"),
                    "{layout}: {msg}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_file(&path).ok();
    }
}
