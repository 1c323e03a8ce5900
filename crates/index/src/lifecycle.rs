//! Generational index lifecycle: append-only delta chunks, content-addressed
//! blob storage, compaction, and garbage collection (`LBECHK3`).
//!
//! The *generation store* is the one on-disk form of a chunked index (the
//! paper's Fig. 1 chunks, "stored on disks when not in use", §II-B): a
//! directory whose chunks live as content-addressed blob files and whose
//! container is a **manifest** of (hash, mass-range, generation, tombstone)
//! records. LSM-flavored, it absorbs new peptides without a rebuild.
//!
//! # On-disk layout
//!
//! ```text
//! store/
//!   CURRENT              name of the live manifest ("MANIFEST-000003\n")
//!   MANIFEST-000001      an LBECHK3 container (one per lifecycle step)
//!   MANIFEST-000002      …
//!   chunks/
//!     <16-hex-hash>.chk  one chunk blob per distinct content hash
//! ```
//!
//! Each blob holds a complete `LBESLM2` chunk container, stored either raw
//! or compressed into the [`crate::compress`] `LBEZCHK1` frame (whichever
//! is smaller — chosen deterministically). The blob's *name* is the
//! [`crate::format::content_hash64`] of its **uncompressed** bytes, so
//! identical logical chunks are shared across generations: a compaction
//! that reproduces an existing chunk writes no new blob, and a warm
//! [`crate::ChunkStore`] refresh re-faults only chunks whose hashes
//! changed.
//!
//! # Manifest container (`LBECHK3\0`, format version 2)
//!
//! The same [`crate::format`] machinery as every other container — header,
//! CRC'd section table, 64-byte-aligned CRC'd payloads — with sections:
//!
//! ```text
//! section     payload
//! "config"    the shared SlmConfig (same encoding as a v2 index file)
//! "manifest"  48-byte records: hash u64 | generation u32 | flags u32 |
//!             raw_len u64 | stored_len u64 | lo_mass f64 | hi_mass f64
//!             (flags bit 0 = tombstone, bit 1 = compressed blob)
//! "gidoffs"   u64×(live+1) CSR offsets into "gids", one row per live record
//! "gids"      u32 flat local→store peptide id table
//! "pepoffs"   u64×(P+1) CSR offsets into "pepseq"
//! "pepseq"    concatenated peptide residue bytes
//! "pepprot"   u32×P protein ids
//! "pepmc"     u8×P missed-cleavage counts
//! "modspec"   the ModSpec (tagged mods + caps; see `modspec_bytes`)
//! "meta"      chunk_size u64 | next_generation u32 | reserved u32
//! ```
//!
//! # Writing one chunk at a time
//!
//! Every generation is written by one loop (`write_chunks`): sort the
//! peptides by precursor mass (Fig. 1's first step), split the order into
//! runs of at most `chunk_size`, and per run build its index, write its
//! blob and drop it before building the next — a build holds one chunk,
//! never the whole index. Each run reports its first and last mass: a
//! fresh generation (`init`, `compact`) turns them into a boundary ladder
//! (chunk i covers `[last mass of run i−1, last mass of run i]`, the first
//! edge 0, the last +∞), a delta generation (`append`) keeps them as its
//! chunks' own ranges.
//!
//! The store persists its *peptides* — not just its chunks — which is what
//! makes [`GenerationStore::compact`] exact rather than approximate: a
//! compaction rebuilds the union peptide set through the same loop a
//! from-scratch `init` uses, so an appended-then-compacted store is
//! **byte-identical in search output** to a store built from scratch over
//! the same peptides (golden-pinned in CI). `init` and `append` dedup their
//! input by sequence keeping first occurrence — the same rule as
//! [`lbe_bio::dedup::dedup_peptides`] — so `init(base) + append(delta)`
//! holds exactly the peptides `dedup(base ++ delta)` would.
//!
//! Tombstones record superseded chunks without deleting anything (readers
//! of older manifests stay valid); [`GenerationStore::gc`] reclaims
//! unreferenced blobs and prunes old manifests once history is no longer
//! needed.
//!
//! This module only *writes* stores. Opening one for search — manifest →
//! intervals and id tables, blob fault, decompress, hash check — is
//! [`crate::ChunkStore::open_generation_dir`]; what a generation hands it
//! is `Manifest::into_store_parts`.

use crate::builder::IndexBuilder;
use crate::config::SlmConfig;
use crate::format::{content_hash64, section_name, FileContainer, SectionPlan};
use crate::io::{self, MAGIC_MANIFEST, MAGIC_V2, SEC_CONFIG};
use lbe_bio::dedup::dedup_peptides;
use lbe_bio::mods::{ModSpec, ModType, VariableMod};
use lbe_bio::peptide::{Peptide, PeptideDb};
use std::collections::HashSet;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Name of the pointer file naming the live manifest.
const CURRENT: &str = "CURRENT";
/// Subdirectory holding content-addressed chunk blobs.
const CHUNKS_DIR: &str = "chunks";
/// Prefix of every manifest container file.
const MANIFEST_PREFIX: &str = "MANIFEST-";

/// Bytes per encoded manifest record.
const RECORD_LEN: usize = 48;
/// Record flag: this chunk was superseded by a later generation.
const FLAG_TOMBSTONE: u32 = 1 << 0;
/// Record flag: the blob file is an `LBEZCHK1` compressed frame.
const FLAG_COMPRESSED: u32 = 1 << 1;
/// All currently defined record flags; anything else is a format error.
const KNOWN_FLAGS: u32 = FLAG_TOMBSTONE | FLAG_COMPRESSED;

const SEC_MANIFEST: [u8; 8] = section_name("manifest");
const SEC_GIDOFFS: [u8; 8] = section_name("gidoffs");
const SEC_GIDS: [u8; 8] = section_name("gids");
const SEC_PEPOFFS: [u8; 8] = section_name("pepoffs");
const SEC_PEPSEQ: [u8; 8] = section_name("pepseq");
const SEC_PEPPROT: [u8; 8] = section_name("pepprot");
const SEC_PEPMC: [u8; 8] = section_name("pepmc");
const SEC_MODSPEC: [u8; 8] = section_name("modspec");
const SEC_META: [u8; 8] = section_name("meta");

fn bad(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// One chunk's entry in a manifest: where its blob lives (by content hash),
/// which generation wrote it, whether it is still live, and the precursor
/// mass range its peptides cover (the [`crate::ChunkStore`] chunk-selection
/// interval).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ManifestRecord {
    /// [`content_hash64`] of the chunk's uncompressed `LBESLM2` bytes —
    /// also the blob's filename (`chunks/<16-hex>.chk`).
    pub hash: u64,
    /// Generation that produced this chunk (1 = the initial build).
    pub generation: u32,
    /// Superseded by a later generation; kept for history until `gc`.
    pub tombstone: bool,
    /// The blob file is stored as a compressed `LBEZCHK1` frame.
    pub compressed: bool,
    /// Uncompressed (logical) chunk container bytes.
    pub raw_len: u64,
    /// Bytes the blob actually occupies on disk.
    pub stored_len: u64,
    /// Lower edge of the chunk's precursor-mass coverage (inclusive).
    pub lo_mass: f64,
    /// Upper edge of the chunk's precursor-mass coverage (inclusive; the
    /// final chunk of a full build carries `+∞`).
    pub hi_mass: f64,
}

impl ManifestRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        let mut flags = 0u32;
        if self.tombstone {
            flags |= FLAG_TOMBSTONE;
        }
        if self.compressed {
            flags |= FLAG_COMPRESSED;
        }
        out.extend_from_slice(&self.hash.to_le_bytes());
        out.extend_from_slice(&self.generation.to_le_bytes());
        out.extend_from_slice(&flags.to_le_bytes());
        out.extend_from_slice(&self.raw_len.to_le_bytes());
        out.extend_from_slice(&self.stored_len.to_le_bytes());
        out.extend_from_slice(&self.lo_mass.to_le_bytes());
        out.extend_from_slice(&self.hi_mass.to_le_bytes());
    }

    fn decode(b: &[u8]) -> std::io::Result<Self> {
        debug_assert_eq!(b.len(), RECORD_LEN);
        let u64at = |o: usize| u64::from_le_bytes(b[o..o + 8].try_into().unwrap());
        let flags = u32::from_le_bytes(b[12..16].try_into().unwrap());
        if flags & !KNOWN_FLAGS != 0 {
            return Err(bad("manifest record carries unknown flags"));
        }
        let lo_mass = f64::from_le_bytes(b[32..40].try_into().unwrap());
        let hi_mass = f64::from_le_bytes(b[40..48].try_into().unwrap());
        if lo_mass.is_nan() || hi_mass.is_nan() || lo_mass > hi_mass {
            return Err(bad("manifest record mass range is not an interval"));
        }
        Ok(ManifestRecord {
            hash: u64at(0),
            generation: u32::from_le_bytes(b[8..12].try_into().unwrap()),
            tombstone: flags & FLAG_TOMBSTONE != 0,
            compressed: flags & FLAG_COMPRESSED != 0,
            raw_len: u64at(16),
            stored_len: u64at(24),
            lo_mass,
            hi_mass,
        })
    }
}

/// Reference to one live chunk blob, in [`crate::ChunkStore`] chunk order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BlobRef {
    pub(crate) hash: u64,
    pub(crate) raw_len: u64,
    pub(crate) stored_len: u64,
}

/// A fully decoded manifest: the store's configuration, its chunk records,
/// and the peptide set those chunks index.
#[derive(Debug)]
pub(crate) struct Manifest {
    pub(crate) config: SlmConfig,
    pub(crate) modspec: ModSpec,
    pub(crate) chunk_size: usize,
    pub(crate) next_generation: u32,
    /// All records, live and tombstoned, in manifest order.
    pub(crate) records: Vec<ManifestRecord>,
    /// Local→store peptide id table per **live** record, in record order.
    pub(crate) global_ids: Vec<Vec<u32>>,
    /// Every peptide the store indexes, in stable append order.
    pub(crate) peptides: PeptideDb,
}

impl Manifest {
    pub(crate) fn live(&self) -> impl Iterator<Item = &ManifestRecord> {
        self.records.iter().filter(|r| !r.tombstone)
    }

    /// Decomposes into the pieces [`crate::ChunkStore`] needs: shared
    /// config, per-chunk blob references, selection intervals, and id
    /// tables — all in chunk order.
    #[allow(clippy::type_complexity)]
    pub(crate) fn into_store_parts(
        self,
    ) -> (SlmConfig, Vec<BlobRef>, Vec<(f64, f64)>, Vec<Vec<u32>>) {
        let blobs: Vec<BlobRef> = self
            .live()
            .map(|r| BlobRef {
                hash: r.hash,
                raw_len: r.raw_len,
                stored_len: r.stored_len,
            })
            .collect();
        let intervals: Vec<(f64, f64)> = self.live().map(|r| (r.lo_mass, r.hi_mass)).collect();
        (self.config, blobs, intervals, self.global_ids)
    }
}

/// Path of the blob file for a content hash.
pub(crate) fn blob_path(dir: &Path, hash: u64) -> PathBuf {
    dir.join(CHUNKS_DIR).join(format!("{hash:016x}.chk"))
}

/// Reads and validates the `CURRENT` pointer, returning the manifest file
/// name it designates. A directory without one — a `cluster build` output,
/// a mistyped path — is reported as what it is, not as a bare `ENOENT`.
pub(crate) fn read_current_name(dir: &Path) -> std::io::Result<String> {
    let raw = std::fs::read_to_string(dir.join(CURRENT)).map_err(|e| match e.kind() {
        std::io::ErrorKind::NotFound => std::io::Error::new(
            e.kind(),
            format!(
                "{} is not a generation store (no {CURRENT} file)",
                dir.display()
            ),
        ),
        _ => e,
    })?;
    let name = raw.trim();
    if manifest_seq(name).is_none() {
        return Err(bad("CURRENT does not name a MANIFEST-NNNNNN file"));
    }
    Ok(name.to_string())
}

/// The numeric sequence of a `MANIFEST-NNNNNN` file name, if well-formed.
fn manifest_seq(name: &str) -> Option<u64> {
    let digits = name.strip_prefix(MANIFEST_PREFIX)?;
    if digits.len() != 6 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Loads the manifest `CURRENT` points at.
pub(crate) fn load_current(dir: &Path) -> std::io::Result<(String, Manifest)> {
    let name = read_current_name(dir)?;
    let manifest = read_manifest(&dir.join(&name))?;
    Ok((name, manifest))
}

// ---------------------------------------------------------------------------
// Manifest serialization.
// ---------------------------------------------------------------------------

/// Saturating usize→u64 for the modspec caps (`usize::MAX` ⇄ `u64::MAX`).
fn cap_to_u64(v: usize) -> u64 {
    v as u64
}

fn cap_from_u64(v: u64) -> usize {
    usize::try_from(v).unwrap_or(usize::MAX)
}

fn modspec_bytes(spec: &ModSpec) -> Vec<u8> {
    let mut b = Vec::new();
    b.extend_from_slice(&(spec.mods.len() as u64).to_le_bytes());
    for m in &spec.mods {
        let (tag, custom) = match m.mod_type {
            ModType::Oxidation => (0u8, None),
            ModType::Deamidation => (1, None),
            ModType::GlyGly => (2, None),
            ModType::Phospho => (3, None),
            ModType::Carbamidomethyl => (4, None),
            ModType::Acetyl => (5, None),
            ModType::Custom(d) => (6, Some(d)),
        };
        b.push(tag);
        if let Some(d) = custom {
            b.extend_from_slice(&d.to_le_bytes());
        }
        b.extend_from_slice(&(m.targets.len() as u64).to_le_bytes());
        b.extend_from_slice(&m.targets);
    }
    b.extend_from_slice(&cap_to_u64(spec.max_mods_per_peptide).to_le_bytes());
    b.extend_from_slice(&cap_to_u64(spec.max_modforms_per_peptide).to_le_bytes());
    b
}

/// Bounds-checked cursor over a (CRC-verified) section payload.
struct Cursor<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(b: &'a [u8]) -> Self {
        Cursor { b, pos: 0 }
    }
    fn bytes(&mut self, n: usize) -> std::io::Result<&'a [u8]> {
        let s = self
            .b
            .get(
                self.pos
                    ..self
                        .pos
                        .checked_add(n)
                        .ok_or_else(|| bad("length overflow"))?,
            )
            .ok_or_else(|| bad("section payload truncated"))?;
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> std::io::Result<u8> {
        Ok(self.bytes(1)?[0])
    }
    fn u64(&mut self) -> std::io::Result<u64> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> std::io::Result<f64> {
        Ok(f64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }
    fn finish(self) -> std::io::Result<()> {
        if self.pos != self.b.len() {
            return Err(bad("section payload has trailing bytes"));
        }
        Ok(())
    }
}

fn modspec_from_bytes(bytes: &[u8]) -> std::io::Result<ModSpec> {
    let mut c = Cursor::new(bytes);
    let n_mods = c.u64()? as usize;
    // Each mod costs ≥ 9 encoded bytes — a forged count cannot force a
    // large preallocation past this bound.
    if n_mods > bytes.len() / 9 + 1 {
        return Err(bad("modspec claims more mods than its payload can hold"));
    }
    let mut mods = Vec::with_capacity(n_mods);
    for _ in 0..n_mods {
        let mod_type = match c.u8()? {
            0 => ModType::Oxidation,
            1 => ModType::Deamidation,
            2 => ModType::GlyGly,
            3 => ModType::Phospho,
            4 => ModType::Carbamidomethyl,
            5 => ModType::Acetyl,
            6 => {
                let d = c.f64()?;
                if !d.is_finite() {
                    return Err(bad("custom mod delta mass is not finite"));
                }
                ModType::Custom(d)
            }
            _ => return Err(bad("unknown mod type tag")),
        };
        let n_targets = c.u64()? as usize;
        let targets = c.bytes(n_targets)?;
        mods.push(VariableMod::new(mod_type, targets));
    }
    let max_mods_per_peptide = cap_from_u64(c.u64()?);
    let max_modforms_per_peptide = cap_from_u64(c.u64()?);
    c.finish()?;
    Ok(ModSpec {
        mods,
        max_mods_per_peptide,
        max_modforms_per_peptide,
    })
}

/// Encodes one id table per live chunk as the "gidoffs" (`u64` CSR
/// offsets) and "gids" (flat `u32` ids) section payloads.
fn gid_csr_bytes(tables: &[Vec<u32>]) -> (Vec<u8>, Vec<u8>) {
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
fn gid_csr_from_bytes(
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

/// Serializes `m` as a `MANIFEST-{seq:06}` container in `dir` and atomically
/// repoints `CURRENT` at it. Returns the new manifest's file name.
fn write_manifest(dir: &Path, seq: u64, m: &Manifest) -> std::io::Result<String> {
    let live_count = m.live().count();
    assert_eq!(
        m.global_ids.len(),
        live_count,
        "one id table per live record"
    );

    let config = io::config_bytes(&m.config)?;
    let mut manifest = Vec::with_capacity(m.records.len() * RECORD_LEN);
    for r in &m.records {
        r.encode(&mut manifest);
    }
    let (gidoffs, gids) = gid_csr_bytes(&m.global_ids);
    let mut pepoffs = Vec::with_capacity((m.peptides.len() + 1) * 8);
    let mut pepseq = Vec::new();
    let mut pepprot = Vec::with_capacity(m.peptides.len() * 4);
    let mut pepmc = Vec::with_capacity(m.peptides.len());
    pepoffs.extend_from_slice(&0u64.to_le_bytes());
    for p in m.peptides.peptides() {
        pepseq.extend_from_slice(p.sequence());
        pepoffs.extend_from_slice(&(pepseq.len() as u64).to_le_bytes());
        pepprot.extend_from_slice(&p.protein().to_le_bytes());
        pepmc.push(p.missed_cleavages());
    }
    let modspec = modspec_bytes(&m.modspec);
    let mut meta = Vec::with_capacity(16);
    meta.extend_from_slice(&(m.chunk_size as u64).to_le_bytes());
    meta.extend_from_slice(&m.next_generation.to_le_bytes());
    meta.extend_from_slice(&0u32.to_le_bytes());

    let payloads: [(&[u8; 8], &[u8]); 10] = [
        (&SEC_CONFIG, &config),
        (&SEC_MANIFEST, &manifest),
        (&SEC_GIDOFFS, &gidoffs),
        (&SEC_GIDS, &gids),
        (&SEC_PEPOFFS, &pepoffs),
        (&SEC_PEPSEQ, &pepseq),
        (&SEC_PEPPROT, &pepprot),
        (&SEC_PEPMC, &pepmc),
        (&SEC_MODSPEC, &modspec),
        (&SEC_META, &meta),
    ];
    let plans: Vec<SectionPlan> = payloads
        .iter()
        .map(|(name, p)| SectionPlan::of(**name, p))
        .collect();

    let name = format!("{MANIFEST_PREFIX}{seq:06}");
    let file = std::fs::File::create(dir.join(&name))?;
    let mut w = std::io::BufWriter::new(file);
    crate::format::write_container(&mut w, MAGIC_MANIFEST, &plans, |i, w| {
        w.write_all(payloads[i].1)
    })?;
    w.flush()?;
    drop(w);

    // Repoint CURRENT atomically: readers see either the old or the new
    // manifest name, never a partial write.
    let tmp = dir.join(format!("{CURRENT}.tmp{}", std::process::id()));
    std::fs::write(&tmp, format!("{name}\n"))?;
    std::fs::rename(&tmp, dir.join(CURRENT))?;
    Ok(name)
}

/// Reads and fully validates one manifest container.
fn read_manifest(path: &Path) -> std::io::Result<Manifest> {
    let mut c = FileContainer::open(path, MAGIC_MANIFEST)?;
    let config = io::config_from_bytes(c.read_section(&SEC_CONFIG)?.as_slice())?;
    let modspec = modspec_from_bytes(c.read_section(&SEC_MODSPEC)?.as_slice())?;

    let rec_bytes = c.read_section(&SEC_MANIFEST)?;
    if !rec_bytes.len().is_multiple_of(RECORD_LEN) {
        return Err(bad("manifest section is not a whole record count"));
    }
    let records: Vec<ManifestRecord> = rec_bytes
        .as_slice()
        .chunks_exact(RECORD_LEN)
        .map(ManifestRecord::decode)
        .collect::<std::io::Result<_>>()?;
    let live_count = records.iter().filter(|r| !r.tombstone).count();

    // One id table per live record, in record order.
    let global_ids = gid_csr_from_bytes(
        c.read_section(&SEC_GIDOFFS)?.as_slice(),
        c.read_section(&SEC_GIDS)?.as_slice(),
        live_count,
    )?;

    let pepoffs_b = c.read_section(&SEC_PEPOFFS)?;
    let pepseq = c.read_section(&SEC_PEPSEQ)?;
    let pepprot = c.read_section(&SEC_PEPPROT)?;
    let pepmc = c.read_section(&SEC_PEPMC)?;
    if !pepoffs_b.len().is_multiple_of(8) || pepoffs_b.is_empty() {
        return Err(bad("pepoffs section is not a whole offset count"));
    }
    let num_peptides = pepoffs_b.len() / 8 - 1;
    if pepprot.len() != num_peptides * 4 || pepmc.len() != num_peptides {
        return Err(bad("peptide sections disagree on the peptide count"));
    }
    let pep_offs = io::decode_u64s(pepoffs_b.as_slice());
    if pep_offs.windows(2).any(|w| w[0] > w[1])
        || pep_offs.first() != Some(&0)
        || pep_offs.last() != Some(&(pepseq.len() as u64))
    {
        return Err(bad("peptide offsets are not a valid CSR over the residues"));
    }
    let mut peptides = Vec::with_capacity(num_peptides);
    for (i, w) in pep_offs.windows(2).enumerate() {
        let seq = &pepseq.as_slice()[w[0] as usize..w[1] as usize];
        let protein = u32::from_le_bytes(pepprot.as_slice()[i * 4..i * 4 + 4].try_into().unwrap());
        let p = Peptide::new(seq, protein, pepmc.as_slice()[i])
            .ok_or_else(|| bad("stored peptide has an invalid residue sequence"))?;
        peptides.push(p);
    }
    if global_ids.iter().map(Vec::len).sum::<usize>() != num_peptides {
        return Err(bad("live chunks do not cover the stored peptides"));
    }
    if global_ids
        .iter()
        .flatten()
        .any(|&g| g as usize >= num_peptides)
    {
        return Err(bad("gid table references a peptide outside the store"));
    }

    let meta = c.read_section(&SEC_META)?;
    let mut mc = Cursor::new(meta.as_slice());
    let chunk_size = mc.u64()? as usize;
    let next_generation = u32::from_le_bytes(mc.bytes(4)?.try_into().unwrap());
    let _reserved = mc.bytes(4)?;
    mc.finish()?;
    if chunk_size == 0 {
        return Err(bad("manifest chunk size must be at least 1"));
    }
    if next_generation == 0 || records.iter().any(|r| r.generation >= next_generation) {
        return Err(bad(
            "manifest generation counter is not ahead of its records",
        ));
    }

    Ok(Manifest {
        config,
        modspec,
        chunk_size,
        next_generation,
        records,
        global_ids,
        peptides: PeptideDb::from_vec(peptides),
    })
}

// ---------------------------------------------------------------------------
// Chunk blob writing.
// ---------------------------------------------------------------------------

#[derive(Default)]
struct NewChunks {
    records: Vec<ManifestRecord>,
    global_ids: Vec<Vec<u32>>,
    created_blobs: usize,
}

/// Builds and writes one generation's chunks, one chunk at a time:
/// `peptides` sorted by precursor mass, split into runs of at most
/// `chunk_size`, and per run its index built, serialized, content-addressed
/// and written as a blob unless one already exists (compressed when that is
/// smaller) — then dropped before the next run is built. Peptide `i` gets
/// store id `first_id + i`. Each record's interval is its run's first and
/// last mass; see [`ladder`] for a fresh generation's.
fn write_chunks(
    dir: &Path,
    peptides: &PeptideDb,
    first_id: u32,
    config: &SlmConfig,
    modspec: &ModSpec,
    chunk_size: usize,
    generation: u32,
) -> std::io::Result<NewChunks> {
    // Sort (id, peptide) pairs by mass — Fig. 1's first step.
    let mut order: Vec<(u32, &Peptide)> = peptides.iter().collect();
    order.sort_by(|a, b| a.1.mass().partial_cmp(&b.1.mass()).expect("finite masses"));

    let mut new = NewChunks::default();
    for run in order.chunks(chunk_size) {
        let local = PeptideDb::from_vec(run.iter().map(|&(_, p)| p.clone()).collect());
        let chunk = IndexBuilder::new(config.clone(), modspec.clone()).build(&local);
        let mut raw = Vec::new();
        io::write_index(&mut raw, &chunk)?;
        drop(chunk);
        let hash = content_hash64(&raw);
        let enc = crate::compress::compress_container(&raw, MAGIC_V2)?;
        let (bytes, compressed): (&[u8], bool) = if enc.len() < raw.len() {
            (&enc, true)
        } else {
            (&raw, false)
        };
        let path = blob_path(dir, hash);
        if !path.exists() {
            // Write-then-rename: a concurrent writer of the same hash is
            // writing identical bytes, so whichever rename lands last wins
            // harmlessly.
            let tmp = dir
                .join(CHUNKS_DIR)
                .join(format!("{hash:016x}.tmp{}", std::process::id()));
            std::fs::write(&tmp, bytes)?;
            std::fs::rename(&tmp, &path)?;
            new.created_blobs += 1;
        }
        new.records.push(ManifestRecord {
            hash,
            generation,
            tombstone: false,
            compressed,
            raw_len: raw.len() as u64,
            stored_len: bytes.len() as u64,
            lo_mass: run[0].1.mass(),
            hi_mass: run[run.len() - 1].1.mass(),
        });
        new.global_ids
            .push(run.iter().map(|&(id, _)| first_id + id).collect());
    }
    Ok(new)
}

/// Turns a fresh generation's run edges into its boundary ladder: chunk i
/// covers `[hi of chunk i−1, hi of chunk i]`, the first edge 0 and the last
/// +∞, so consecutive chunks share their boundary mass.
fn ladder(records: &mut [ManifestRecord]) {
    let mut lo = 0.0;
    for r in records.iter_mut() {
        r.lo_mass = lo;
        lo = r.hi_mass;
    }
    if let Some(last) = records.last_mut() {
        last.hi_mass = f64::INFINITY;
    }
}

// ---------------------------------------------------------------------------
// The public lifecycle driver.
// ---------------------------------------------------------------------------

/// Counters reported by [`GenerationStore::init`] and
/// [`GenerationStore::append`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendOutcome {
    /// Peptides actually added (after dedup against the store and within
    /// the delta).
    pub peptides_added: usize,
    /// Input peptides dropped as duplicates.
    pub duplicates_skipped: usize,
    /// Delta chunks written into the new generation.
    pub new_chunks: usize,
    /// The generation this operation created (unchanged if nothing was
    /// added).
    pub generation: u32,
    /// Peptides the store holds afterwards.
    pub total_peptides: usize,
}

/// Counters reported by [`GenerationStore::compact`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactOutcome {
    /// Live chunks before compaction.
    pub chunks_before: usize,
    /// Live chunks in the compacted generation.
    pub chunks_after: usize,
    /// Compacted chunks whose blob already existed on disk (content-address
    /// sharing with an earlier generation).
    pub blobs_reused: usize,
    /// The generation the compaction created.
    pub generation: u32,
}

/// Counters reported by [`GenerationStore::gc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcOutcome {
    /// Unreferenced blob files deleted.
    pub blobs_deleted: usize,
    /// Bytes those blobs occupied.
    pub bytes_reclaimed: u64,
    /// Superseded manifest files deleted.
    pub manifests_deleted: usize,
    /// Tombstone records dropped from the manifest.
    pub tombstones_dropped: usize,
}

/// A snapshot of a store's chunk inventory — the `lbe index stats` payload.
#[derive(Debug, Clone)]
pub struct StoreStats {
    /// Every manifest record, live and tombstoned, in manifest order.
    pub records: Vec<ManifestRecord>,
    /// Peptides the store indexes.
    pub num_peptides: usize,
    /// Generation the next lifecycle operation would create.
    pub next_generation: u32,
    /// Sum of live chunks' uncompressed bytes.
    pub logical_bytes: u64,
    /// Sum of live chunks' on-disk bytes.
    pub stored_bytes: u64,
}

/// Handle on a generation-store directory; every operation loads the
/// `CURRENT` manifest, so concurrent handles always act on the latest
/// generation.
#[derive(Debug, Clone)]
pub struct GenerationStore {
    dir: PathBuf,
}

impl GenerationStore {
    /// Creates a new store at `dir` (created if missing; must not already
    /// hold a store) indexing `db`: generation 1, one manifest, one blob
    /// per chunk. The input is deduplicated by sequence (first occurrence
    /// wins — the same rule `append` uses), so initializing with a raw
    /// digest matches the CLI's dedup-then-index pipeline.
    pub fn init(
        dir: impl AsRef<Path>,
        db: &PeptideDb,
        config: SlmConfig,
        modspec: ModSpec,
        chunk_size: usize,
    ) -> std::io::Result<(Self, AppendOutcome)> {
        let dir = dir.as_ref();
        if chunk_size == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "chunk size must be at least 1",
            ));
        }
        if dir.join(CURRENT).exists() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::AlreadyExists,
                format!("{} already holds a generation store", dir.display()),
            ));
        }
        std::fs::create_dir_all(dir.join(CHUNKS_DIR))?;
        let input = db.len();
        let (db, _) = dedup_peptides(PeptideDb::from_vec(db.peptides().to_vec()));
        let mut new = write_chunks(dir, &db, 0, &config, &modspec, chunk_size, 1)?;
        ladder(&mut new.records);
        let new_chunks = new.records.len();
        let total = db.len();
        let manifest = Manifest {
            config,
            modspec,
            chunk_size,
            next_generation: 2,
            records: new.records,
            global_ids: new.global_ids,
            peptides: db,
        };
        write_manifest(dir, 1, &manifest)?;
        Ok((
            GenerationStore {
                dir: dir.to_path_buf(),
            },
            AppendOutcome {
                peptides_added: total,
                duplicates_skipped: input - total,
                new_chunks,
                generation: 1,
                total_peptides: total,
            },
        ))
    }

    /// Opens an existing store, validating that `CURRENT` names a loadable
    /// manifest.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<Self> {
        let dir = dir.as_ref();
        load_current(dir)?;
        Ok(GenerationStore {
            dir: dir.to_path_buf(),
        })
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Appends `delta` as a new generation of delta chunks, digesting
    /// **only the new peptides**: sequences the store already holds (or
    /// that repeat within the delta) are skipped, so
    /// `init(base); append(delta)` indexes exactly the peptides a
    /// from-scratch build over `base ++ delta` would. Existing chunks and
    /// blobs are untouched. A delta with nothing new writes no manifest.
    pub fn append(&self, delta: &PeptideDb) -> std::io::Result<AppendOutcome> {
        let (cur_name, man) = load_current(&self.dir)?;
        let existing: HashSet<&[u8]> = man
            .peptides
            .peptides()
            .iter()
            .map(|p| p.sequence())
            .collect();
        let mut seen: HashSet<Vec<u8>> = HashSet::new();
        let mut fresh: Vec<Peptide> = Vec::new();
        for p in delta.peptides() {
            if !existing.contains(p.sequence()) && seen.insert(p.sequence().to_vec()) {
                fresh.push(p.clone());
            }
        }
        let added = fresh.len();
        let skipped = delta.len() - added;
        if added == 0 {
            return Ok(AppendOutcome {
                peptides_added: 0,
                duplicates_skipped: skipped,
                new_chunks: 0,
                generation: man.next_generation.saturating_sub(1),
                total_peptides: man.peptides.len(),
            });
        }
        let base_count = man.peptides.len() as u32;
        let delta_db = PeptideDb::from_vec(fresh);
        // Delta chunks cover exactly their own peptides' mass range (they
        // may overlap any existing chunk — selection is per-interval).
        let generation = man.next_generation;
        let new = write_chunks(
            &self.dir,
            &delta_db,
            base_count,
            &man.config,
            &man.modspec,
            man.chunk_size,
            generation,
        )?;
        let new_chunks = new.records.len();

        let mut peptides = man.peptides.into_vec();
        peptides.extend(delta_db.into_vec());
        let mut records = man.records;
        // Live records stay live; the delta generation rides behind them.
        let live_split = records.len();
        records.extend(new.records);
        // Keep live records grouped before tombstones for readability: the
        // reader maps id tables by order of appearance either way.
        records.sort_by_key(|r| r.tombstone);
        debug_assert!(live_split <= records.len());
        let mut global_ids = man.global_ids;
        global_ids.extend(new.global_ids);
        let manifest = Manifest {
            config: man.config,
            modspec: man.modspec,
            chunk_size: man.chunk_size,
            next_generation: generation + 1,
            records,
            global_ids,
            peptides: PeptideDb::from_vec(peptides),
        };
        let seq = manifest_seq(&cur_name).expect("validated by read_current_name") + 1;
        write_manifest(&self.dir, seq, &manifest)?;
        Ok(AppendOutcome {
            peptides_added: added,
            duplicates_skipped: skipped,
            new_chunks,
            generation,
            total_peptides: manifest.peptides.len(),
        })
    }

    /// Rewrites the whole store as one fresh mass-sorted generation: the
    /// stored peptides are rebuilt through the same chunk loop a
    /// from-scratch `init` uses, so the compacted store searches
    /// **byte-identically** to a store built from scratch over the same
    /// peptides, and chunks the rebuild reproduces verbatim share their
    /// existing blobs by content hash. Superseded chunks become tombstones
    /// (reclaimed by [`GenerationStore::gc`]).
    pub fn compact(&self) -> std::io::Result<CompactOutcome> {
        let (cur_name, man) = load_current(&self.dir)?;
        let chunks_before = man.live().count();
        let generation = man.next_generation;
        let mut new = write_chunks(
            &self.dir,
            &man.peptides,
            0,
            &man.config,
            &man.modspec,
            man.chunk_size,
            generation,
        )?;
        ladder(&mut new.records);
        let chunks_after = new.records.len();
        let blobs_reused = chunks_after - new.created_blobs;

        let mut records = new.records;
        records.extend(man.records.into_iter().map(|mut r| {
            r.tombstone = true;
            r
        }));
        let manifest = Manifest {
            config: man.config,
            modspec: man.modspec,
            chunk_size: man.chunk_size,
            next_generation: generation + 1,
            records,
            global_ids: new.global_ids,
            peptides: man.peptides,
        };
        let seq = manifest_seq(&cur_name).expect("validated by read_current_name") + 1;
        write_manifest(&self.dir, seq, &manifest)?;
        Ok(CompactOutcome {
            chunks_before,
            chunks_after,
            blobs_reused,
            generation,
        })
    }

    /// Reclaims storage: deletes blob files no live record references,
    /// drops tombstone records, and prunes superseded manifest files. A
    /// reader still holding a pre-compaction manifest will fault cleanly
    /// (missing blob / failed hash) rather than read stale data.
    pub fn gc(&self) -> std::io::Result<GcOutcome> {
        let (cur_name, man) = load_current(&self.dir)?;
        let referenced: HashSet<u64> = man.live().map(|r| r.hash).collect();
        let tombstones_dropped = man.records.len() - man.global_ids.len();

        // A fresh manifest without tombstones first, so CURRENT never
        // points at a file this gc is about to delete.
        let records: Vec<ManifestRecord> =
            man.records.into_iter().filter(|r| !r.tombstone).collect();
        let manifest = Manifest {
            config: man.config,
            modspec: man.modspec,
            chunk_size: man.chunk_size,
            next_generation: man.next_generation,
            records,
            global_ids: man.global_ids,
            peptides: man.peptides,
        };
        let seq = manifest_seq(&cur_name).expect("validated by read_current_name") + 1;
        let new_name = write_manifest(&self.dir, seq, &manifest)?;

        let mut blobs_deleted = 0usize;
        let mut bytes_reclaimed = 0u64;
        for entry in std::fs::read_dir(self.dir.join(CHUNKS_DIR))? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let keep = name
                .strip_suffix(".chk")
                .and_then(|stem| u64::from_str_radix(stem, 16).ok())
                .is_some_and(|h| referenced.contains(&h));
            if !keep {
                bytes_reclaimed += entry.metadata().map(|m| m.len()).unwrap_or(0);
                std::fs::remove_file(entry.path())?;
                blobs_deleted += 1;
            }
        }
        let mut manifests_deleted = 0usize;
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with(MANIFEST_PREFIX) && name != new_name {
                std::fs::remove_file(entry.path())?;
                manifests_deleted += 1;
            }
        }
        Ok(GcOutcome {
            blobs_deleted,
            bytes_reclaimed,
            manifests_deleted,
            tombstones_dropped,
        })
    }

    /// The store's chunk inventory — per-chunk hash, generation,
    /// compressed/uncompressed bytes, liveness — plus store totals.
    pub fn stats(&self) -> std::io::Result<StoreStats> {
        let (_, man) = load_current(&self.dir)?;
        let logical_bytes = man.live().map(|r| r.raw_len).sum();
        let stored_bytes = man.live().map(|r| r.stored_len).sum();
        Ok(StoreStats {
            num_peptides: man.peptides.len(),
            next_generation: man.next_generation,
            logical_bytes,
            stored_bytes,
            records: man.records,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunked::ChunkStore;
    use crate::query::QueryOptions;
    use lbe_bio::mods::ModForm;
    use lbe_spectra::spectrum::{Peak, Spectrum};
    use lbe_spectra::theo::{TheoParams, TheoSpectrum};

    fn db6() -> PeptideDb {
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

    /// `n` distinct synthetic peptides (base-20 residue digits + C-terminal K).
    fn many_db(n: usize) -> PeptideDb {
        let aas = b"ACDEFGHIKLMNPQRSTVWY";
        let mut v = Vec::with_capacity(n);
        for i in 0..n {
            let mut seq = Vec::new();
            let mut x = i;
            for _ in 0..6 {
                seq.push(aas[x % 20]);
                x /= 20;
            }
            seq.push(b'K');
            v.push(Peptide::new(&seq, 0, 0).unwrap());
        }
        PeptideDb::from_vec(v)
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

    /// Fresh (pre-cleaned) test directory under the system temp dir.
    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join("lbe_lifecycle_tests").join(name);
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn sub(db: &PeptideDb, range: std::ops::Range<usize>) -> PeptideDb {
        PeptideDb::from_vec(db.peptides()[range].to_vec())
    }

    fn search_all(store: &mut ChunkStore, seqs: &[&[u8]]) -> Vec<crate::query::SearchResult> {
        seqs.iter()
            .map(|s| {
                store
                    .search_with_opts(&perfect_query(s), &QueryOptions::default())
                    .unwrap()
            })
            .collect()
    }

    const QUERIES: [&[u8]; 4] = [b"PEPTIDEK", b"ELVISLIVESK", b"GGGGGK", b"SAMPLERK"];

    #[test]
    fn init_store_matches_chunked_container_exactly() {
        // The store written one chunk at a time is the chunked container
        // built whole: the peptides sorted by mass and cut into runs of
        // `chunk_size`, each run's index serialized as its blob, its ids in
        // run order, and the boundary ladder — the reference built here in
        // memory, run by run.
        let db = db6();
        let mut order: Vec<(u32, &Peptide)> = db.iter().collect();
        order.sort_by(|a, b| a.1.mass().total_cmp(&b.1.mass()));
        for (spec, size) in [
            (ModSpec::none(), 2),
            (ModSpec::paper_default(), 4),
            (ModSpec::none(), 100),
        ] {
            let d = tmpdir("init_equiv");
            let (_, out) =
                GenerationStore::init(&d, &db, SlmConfig::default(), spec.clone(), size).unwrap();
            let runs: Vec<&[(u32, &Peptide)]> = order.chunks(size).collect();
            assert_eq!((out.peptides_added, out.generation), (6, 1));
            assert_eq!(out.new_chunks, runs.len());
            let (_, man) = load_current(&d).unwrap();
            assert_eq!(man.records.len(), runs.len());
            for (i, (run, r)) in runs.iter().zip(&man.records).enumerate() {
                let local = PeptideDb::from_vec(run.iter().map(|&(_, p)| p.clone()).collect());
                let chunk = IndexBuilder::new(SlmConfig::default(), spec.clone()).build(&local);
                let mut blob = Vec::new();
                io::write_index(&mut blob, &chunk).unwrap();
                assert_eq!(
                    (r.hash, r.raw_len),
                    (content_hash64(&blob), blob.len() as u64)
                );
                let ids: Vec<u32> = run.iter().map(|&(id, _)| id).collect();
                assert_eq!(man.global_ids[i], ids, "chunk {i}");
                let lo = match i {
                    0 => 0.0,
                    _ => runs[i - 1].last().unwrap().1.mass(),
                };
                let hi = match i + 1 == runs.len() {
                    true => f64::INFINITY,
                    false => run.last().unwrap().1.mass(),
                };
                assert_eq!((r.lo_mass, r.hi_mass), (lo, hi), "chunk {i}");
            }
        }
    }

    #[test]
    fn gid_csr_codec_round_trips_and_rejects_what_is_not_a_csr() {
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
    }

    #[test]
    fn append_searches_like_from_scratch_rebuild() {
        let d = tmpdir("append_equiv");
        let (store, _) = GenerationStore::init(
            d.join("a"),
            &sub(&db6(), 0..4),
            SlmConfig::default(),
            ModSpec::none(),
            2,
        )
        .unwrap();
        let out = store.append(&sub(&db6(), 2..6)).unwrap();
        assert_eq!(out.peptides_added, 2); // PEPTIDEK/ELVISLIVESK are dups
        assert_eq!(out.duplicates_skipped, 2);
        assert_eq!(out.generation, 2);
        assert_eq!(out.total_peptides, 6);
        let (_, init_all) = GenerationStore::init(
            d.join("b"),
            &db6(),
            SlmConfig::default(),
            ModSpec::none(),
            2,
        )
        .unwrap();
        assert_eq!(init_all.total_peptides, 6);
        let mut a = ChunkStore::open_generation_dir(d.join("a"), usize::MAX).unwrap();
        let mut b = ChunkStore::open_generation_dir(d.join("b"), usize::MAX).unwrap();
        // Same report rows (global top-k is partitioning-invariant); entry
        // ids and work counters legitimately differ until compaction
        // equalizes the chunk layout.
        let rows = |rs: Vec<crate::query::SearchResult>| -> Vec<Vec<(u32, u16, u16, f32)>> {
            rs.iter()
                .map(|r| {
                    r.psms
                        .iter()
                        .map(|p| (p.peptide, p.modform, p.shared_peaks, p.score))
                        .collect()
                })
                .collect()
        };
        assert_eq!(
            rows(search_all(&mut a, &QUERIES)),
            rows(search_all(&mut b, &QUERIES))
        );
    }

    #[test]
    fn append_then_compact_is_byte_identical_to_from_scratch() {
        let d = tmpdir("compact_equiv");
        let all = many_db(60);
        let (store, _) = GenerationStore::init(
            d.join("a"),
            &sub(&all, 0..40),
            SlmConfig::default(),
            ModSpec::none(),
            16,
        )
        .unwrap();
        // Delta overlaps the base: 10 dups + 20 new.
        let out = store.append(&sub(&all, 30..60)).unwrap();
        assert_eq!((out.peptides_added, out.duplicates_skipped), (20, 10));
        let compacted = store.compact().unwrap();
        assert_eq!(compacted.chunks_after, 60usize.div_ceil(16));
        let (_, _) =
            GenerationStore::init(d.join("b"), &all, SlmConfig::default(), ModSpec::none(), 16)
                .unwrap();
        // Chunk-level byte identity: the compacted generation's live blobs
        // carry exactly the hashes a from-scratch build produces…
        let ha: Vec<u64> = GenerationStore::open(d.join("a"))
            .unwrap()
            .stats()
            .unwrap()
            .records
            .iter()
            .filter(|r| !r.tombstone)
            .map(|r| r.hash)
            .collect();
        let hb: Vec<u64> = GenerationStore::open(d.join("b"))
            .unwrap()
            .stats()
            .unwrap()
            .records
            .iter()
            .filter(|r| !r.tombstone)
            .map(|r| r.hash)
            .collect();
        assert_eq!(ha, hb);
        // …whose blob files are byte-identical.
        for h in &hb {
            assert_eq!(
                std::fs::read(blob_path(&d.join("a"), *h)).unwrap(),
                std::fs::read(blob_path(&d.join("b"), *h)).unwrap()
            );
        }
        // And search output — results *and* stats — matches exactly.
        let mut a = ChunkStore::open_generation_dir(d.join("a"), 2).unwrap();
        let mut b = ChunkStore::open_generation_dir(d.join("b"), 2).unwrap();
        let seqs: Vec<&[u8]> = all.peptides()[..8].iter().map(|p| p.sequence()).collect();
        assert_eq!(search_all(&mut a, &seqs), search_all(&mut b, &seqs));
    }

    #[test]
    fn compaction_reuses_unchanged_blobs() {
        let d = tmpdir("blob_reuse");
        // A store with no appends: compaction rebuilds the identical chunks,
        // so every blob is shared and none is written.
        let (store, out) =
            GenerationStore::init(&d, &many_db(48), SlmConfig::default(), ModSpec::none(), 16)
                .unwrap();
        let compacted = store.compact().unwrap();
        assert_eq!(compacted.chunks_before, out.new_chunks);
        assert_eq!(compacted.blobs_reused, compacted.chunks_after);
        // Tombstones now shadow the same hashes the new generation reuses.
        let stats = store.stats().unwrap();
        assert_eq!(
            stats.records.iter().filter(|r| r.tombstone).count(),
            out.new_chunks
        );
    }

    #[test]
    fn compressed_blobs_shrink_storage() {
        let d = tmpdir("shrink");
        let (store, _) = GenerationStore::init(
            &d,
            &many_db(240),
            SlmConfig::default(),
            ModSpec::none(),
            120,
        )
        .unwrap();
        let stats = store.stats().unwrap();
        // The acceptance assertion: compressed postings measurably shrink
        // on-disk bytes relative to the logical (uncompressed) index.
        assert!(
            stats.stored_bytes < stats.logical_bytes,
            "expected compression to win: stored {} vs logical {}",
            stats.stored_bytes,
            stats.logical_bytes
        );
        assert!(stats.records.iter().any(|r| r.compressed));
        // The store-side accounting agrees with the manifest.
        let s = ChunkStore::open_generation_dir(&d, 1)
            .unwrap()
            .storage_footprint();
        assert_eq!(s.logical_bytes, stats.logical_bytes);
        assert_eq!(s.stored_bytes, stats.stored_bytes);
        assert!(s.compression_ratio() < 1.0);
        // And the compressed store still searches correctly.
        let mut store = ChunkStore::open_generation_dir(&d, 1).unwrap();
        let q = many_db(240).peptides()[7].sequence().to_vec();
        let r = store
            .search_with_opts(&perfect_query(&q), &QueryOptions::default())
            .unwrap();
        assert_eq!(r.psms[0].peptide, 7);
    }

    #[test]
    fn duplicate_append_is_a_noop() {
        let d = tmpdir("noop_append");
        let (store, _) =
            GenerationStore::init(&d, &db6(), SlmConfig::default(), ModSpec::none(), 2).unwrap();
        let before = read_current_name(&d).unwrap();
        let out = store.append(&db6()).unwrap();
        assert_eq!(out.peptides_added, 0);
        assert_eq!(out.duplicates_skipped, 6);
        assert_eq!(out.new_chunks, 0);
        assert_eq!(
            read_current_name(&d).unwrap(),
            before,
            "no manifest written"
        );
    }

    #[test]
    fn gc_reclaims_tombstones_blobs_and_manifests() {
        let d = tmpdir("gc");
        let (store, _) = GenerationStore::init(
            &d,
            &sub(&db6(), 0..4),
            SlmConfig::default(),
            ModSpec::none(),
            2,
        )
        .unwrap();
        store.append(&sub(&db6(), 4..6)).unwrap();
        store.compact().unwrap();
        let live = store
            .stats()
            .unwrap()
            .records
            .iter()
            .filter(|r| !r.tombstone)
            .count();
        let gc = store.gc().unwrap();
        assert!(gc.tombstones_dropped > 0);
        assert!(gc.manifests_deleted > 0);
        // Exactly one blob file per live chunk remains…
        let blobs = std::fs::read_dir(d.join(CHUNKS_DIR)).unwrap().count();
        assert_eq!(blobs, live);
        // …exactly one manifest file remains…
        let manifests = std::fs::read_dir(&d)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .starts_with(MANIFEST_PREFIX)
            })
            .count();
        assert_eq!(manifests, 1);
        // …and the store still searches: results match a fresh rebuild.
        let d2 = tmpdir("gc_fresh");
        GenerationStore::init(&d2, &db6(), SlmConfig::default(), ModSpec::none(), 2).unwrap();
        let mut a = ChunkStore::open_generation_dir(&d, 2).unwrap();
        let mut b = ChunkStore::open_generation_dir(&d2, 2).unwrap();
        assert_eq!(search_all(&mut a, &QUERIES), search_all(&mut b, &QUERIES));
        // gc is idempotent.
        let gc2 = store.gc().unwrap();
        assert_eq!(gc2.blobs_deleted, 0);
        assert_eq!(gc2.tombstones_dropped, 0);
    }

    #[test]
    fn refresh_picks_up_appends_without_refaulting_shared_chunks() {
        let d = tmpdir("refresh");
        let (writer, out) = GenerationStore::init(
            &d,
            &sub(&db6(), 0..4),
            SlmConfig::default(),
            ModSpec::none(),
            2,
        )
        .unwrap();
        let mut reader = ChunkStore::open_generation_dir(&d, usize::MAX).unwrap();
        assert!(!reader.refresh_generation().unwrap(), "nothing new yet");
        reader
            .search_with_opts(&perfect_query(b"PEPTIDEK"), &QueryOptions::default())
            .unwrap();
        let warm = reader.stats();
        assert_eq!(warm.faults as usize, out.new_chunks);

        let appended = writer.append(&sub(&db6(), 4..6)).unwrap();
        assert!(reader.refresh_generation().unwrap());
        // The old generation's chunks carried over: a new open search
        // faults only the appended delta chunks.
        let r = reader
            .search_with_opts(&perfect_query(b"WWWWWWK"), &QueryOptions::default())
            .unwrap();
        assert_eq!(r.psms[0].peptide, 4, "appended peptide is searchable");
        let after = reader.stats();
        assert_eq!(
            after.faults as usize,
            out.new_chunks + appended.new_chunks,
            "shared chunks must not re-fault across refresh"
        );
        assert_eq!(after.hits as usize, warm.hits as usize + out.new_chunks);
        // A second refresh with no writer activity is a no-op.
        assert!(!reader.refresh_generation().unwrap());
    }

    #[test]
    fn mixed_generation_chunks_evict_by_credit_not_generation() {
        let d = tmpdir("evict_order");
        let cfg = SlmConfig::default().with_precursor_tolerance(0.5);
        // Gen 1: chunks 0 (light) and 1 (heavy, hi = +∞); gen 2: chunk 2.
        let (writer, _) =
            GenerationStore::init(&d, &sub(&db6(), 0..4), cfg, ModSpec::none(), 2).unwrap();
        writer.append(&sub(&db6(), 4..6)).unwrap();
        let mut store = ChunkStore::open_generation_dir(&d, 2).unwrap();
        assert_eq!(store.num_chunks(), 3);
        // Eviction credit is priced in decoded bytes: chunk 2, the newest,
        // is smaller than chunk 1 and larger than chunk 0.
        let size: Vec<u64> = writer
            .stats()
            .unwrap()
            .records
            .iter()
            .filter(|r| !r.tombstone)
            .map(|r| r.raw_len)
            .collect();
        assert!(size[0] < size[2] && size[2] < size[1], "{size:?}");

        store
            .search_with_opts(&perfect_query(b"GGGGGK"), &QueryOptions::default())
            .unwrap(); // fault 0: credit s0
        assert_eq!(store.resident_chunks(), vec![0]);
        store
            .search_with_opts(&perfect_query(b"WWWWWWK"), &QueryOptions::default())
            .unwrap(); // fault 1 (+∞ tail): credit s1; fault 2, evicting 0 (s0 < s1)
        assert_eq!(store.resident_chunks(), vec![1, 2]);
        store
            .search_with_opts(&perfect_query(b"WWWWWWK"), &QueryOptions::default())
            .unwrap(); // hits 1, then 2: credits s0 + s1 and s0 + s2
        store
            .search_with_opts(&perfect_query(b"GGGGGK"), &QueryOptions::default())
            .unwrap(); // fault 0, evicting 2 (s0 + s2 < s0 + s1)
        assert_eq!(
            store.resident_chunks(),
            vec![0, 1],
            "the smaller chunk is evicted though it was used last; generation plays no part"
        );
        let s = store.stats();
        assert_eq!((s.faults, s.evictions, s.hits), (4, 2, 2));
    }

    #[test]
    fn init_refuses_existing_store_and_zero_chunk_size() {
        let d = tmpdir("init_refuse");
        GenerationStore::init(&d, &db6(), SlmConfig::default(), ModSpec::none(), 2).unwrap();
        let err = GenerationStore::init(&d, &db6(), SlmConfig::default(), ModSpec::none(), 2)
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);
        let err = GenerationStore::init(
            tmpdir("init_refuse2"),
            &db6(),
            SlmConfig::default(),
            ModSpec::none(),
            0,
        )
        .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    #[test]
    fn modspec_round_trips_through_manifest() {
        let d = tmpdir("modspec_rt");
        let spec = ModSpec::paper_default();
        GenerationStore::init(&d, &db6(), SlmConfig::default(), spec.clone(), 4).unwrap();
        let (_, man) = load_current(&d).unwrap();
        assert_eq!(man.modspec.mods.len(), spec.mods.len());
        assert_eq!(man.modspec.max_mods_per_peptide, spec.max_mods_per_peptide);
        assert_eq!(
            man.modspec.max_modforms_per_peptide,
            spec.max_modforms_per_peptide
        );
        for (a, b) in man.modspec.mods.iter().zip(spec.mods.iter()) {
            assert_eq!(a.mod_type.delta_mass(), b.mod_type.delta_mass());
            assert_eq!(a.targets, b.targets);
        }
        // Custom mods and unbounded caps survive too.
        let d2 = tmpdir("modspec_rt2");
        let custom = ModSpec {
            mods: vec![VariableMod::new(ModType::Custom(42.25), b"STY")],
            max_mods_per_peptide: usize::MAX,
            max_modforms_per_peptide: 7,
        };
        GenerationStore::init(&d2, &db6(), SlmConfig::default(), custom, 4).unwrap();
        let (_, man2) = load_current(&d2).unwrap();
        assert_eq!(man2.modspec.mods[0].mod_type.delta_mass(), 42.25);
        assert_eq!(man2.modspec.max_mods_per_peptide, usize::MAX);
        assert_eq!(man2.modspec.max_modforms_per_peptide, 7);
    }

    mod corruption_properties {
        use super::*;
        use proptest::prelude::*;
        use std::sync::OnceLock;

        /// Shared fixture: a two-generation store plus the pristine bytes
        /// of its manifest and blob files, and the expected search output.
        struct Fixture {
            dir: PathBuf,
            manifest_path: PathBuf,
            manifest_bytes: Vec<u8>,
            blobs: Vec<(PathBuf, Vec<u8>)>,
            expected: Vec<crate::query::SearchResult>,
        }

        fn fixture() -> &'static Fixture {
            static FIXTURE: OnceLock<Fixture> = OnceLock::new();
            FIXTURE.get_or_init(|| {
                let dir = tmpdir("corruption_props");
                let (store, _) = GenerationStore::init(
                    &dir,
                    &sub(&db6(), 0..4),
                    SlmConfig::default(),
                    ModSpec::none(),
                    2,
                )
                .unwrap();
                store.append(&sub(&db6(), 4..6)).unwrap();
                let name = read_current_name(&dir).unwrap();
                let manifest_path = dir.join(&name);
                let manifest_bytes = std::fs::read(&manifest_path).unwrap();
                let blobs = std::fs::read_dir(dir.join(CHUNKS_DIR))
                    .unwrap()
                    .map(|e| {
                        let p = e.unwrap().path();
                        let b = std::fs::read(&p).unwrap();
                        (p, b)
                    })
                    .collect();
                let mut s = ChunkStore::open_generation_dir(&dir, usize::MAX).unwrap();
                let expected = search_all(&mut s, &QUERIES);
                Fixture {
                    dir,
                    manifest_path,
                    manifest_bytes,
                    blobs,
                    expected,
                }
            })
        }

        /// The properties below bend and restore the *same* fixture files,
        /// and the test harness runs them on parallel threads: each case
        /// holds this lock from its first write to its restore.
        fn serial() -> std::sync::MutexGuard<'static, ()> {
            static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
            // A failed case panics while holding the guard; its files were
            // restored first, so the poison carries no broken state.
            LOCK.lock().unwrap_or_else(|e| e.into_inner())
        }

        /// Restores every file of the fixture store to pristine bytes.
        fn restore(f: &Fixture) {
            std::fs::write(&f.manifest_path, &f.manifest_bytes).unwrap();
            for (p, b) in &f.blobs {
                std::fs::write(p, b).unwrap();
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Truncating the manifest at any length must fail cleanly at
            /// open — no panic, no partial store.
            #[test]
            fn manifest_truncation_fails_cleanly(cut in 0usize..(1 << 30)) {
                let f = fixture();
                let _serial = serial();
                restore(f);
                let cut = cut % f.manifest_bytes.len();
                std::fs::write(&f.manifest_path, &f.manifest_bytes[..cut]).unwrap();
                let res = ChunkStore::open_generation_dir(&f.dir, usize::MAX);
                restore(f);
                prop_assert!(res.is_err(), "cut at {} accepted", cut);
            }

            /// Flipping any single bit of the manifest must either fail
            /// with InvalidData or leave search output identical (flips in
            /// alignment padding are outside every checksummed payload).
            #[test]
            fn manifest_bit_flips_fail_cleanly_or_change_nothing(
                pos in 0usize..(1 << 30),
                bit in 0u32..8,
            ) {
                let f = fixture();
                let _serial = serial();
                restore(f);
                let mut bent = f.manifest_bytes.clone();
                let pos = pos % bent.len();
                bent[pos] ^= 1 << bit;
                std::fs::write(&f.manifest_path, &bent).unwrap();
                let res = ChunkStore::open_generation_dir(&f.dir, usize::MAX);
                let outcome = match res {
                    Err(e) => Err(e),
                    Ok(mut s) => {
                        // The manifest loaded — searching must still be
                        // byte-identical (or fail cleanly at blob fault).
                        QUERIES
                            .iter()
                            .map(|q| s.search_with_opts(&perfect_query(q), &QueryOptions::default()))
                            .collect::<std::io::Result<Vec<_>>>()
                    }
                };
                restore(f);
                match outcome {
                    Err(e) => prop_assert_eq!(
                        e.kind(),
                        std::io::ErrorKind::InvalidData,
                        "unexpected error kind at byte {}: {}", pos, e
                    ),
                    Ok(results) => prop_assert!(
                        results == f.expected,
                        "corruption at byte {} bit {} passed silently", pos, bit
                    ),
                }
            }

            /// Flipping any single bit of any chunk blob must fail with
            /// InvalidData at fault time: the content hash covers every
            /// byte of the uncompressed image (padding included), and the
            /// compressed frame self-verifies besides.
            #[test]
            fn blob_bit_flips_fail_cleanly(
                which in 0usize..(1 << 30),
                pos in 0usize..(1 << 30),
                bit in 0u32..8,
            ) {
                let f = fixture();
                let _serial = serial();
                restore(f);
                let (path, bytes) = &f.blobs[which % f.blobs.len()];
                let mut bent = bytes.clone();
                let pos = pos % bent.len();
                bent[pos] ^= 1 << bit;
                std::fs::write(path, &bent).unwrap();
                // Lazy open must succeed — blobs are untouched until fault.
                let mut s = ChunkStore::open_generation_dir(&f.dir, usize::MAX).unwrap();
                // An open search faults every chunk, including the bent one.
                let res = s.search_with_opts(&perfect_query(b"PEPTIDEK"), &QueryOptions::default());
                restore(f);
                prop_assert!(
                    res.is_err(),
                    "corrupt blob at byte {} bit {} searched successfully", pos, bit
                );
                let err = res.unwrap_err();
                prop_assert_eq!(
                    err.kind(),
                    std::io::ErrorKind::InvalidData,
                    "unexpected error kind: {}", err
                );
            }
        }
    }
}
