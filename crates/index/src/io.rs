//! Binary (de)serialization of [`SlmIndex`] partitions.
//!
//! The paper notes index chunks "may be stored on disks when not in use"
//! (§II-B) — at 49.45 M spectra even the partitioned index competes with the
//! OS for RAM, so load time must track disk bandwidth, not per-element call
//! overhead.
//!
//! # The v2 format (`LBESLM2`) — written by this build
//!
//! A [`crate::format`] container (fixed header, checksummed section table,
//! 64-byte-aligned little-endian payloads — see that module for the exact
//! header/table byte layout) with six sections:
//!
//! ```text
//! section     payload
//! "config"    resolution f64 | ΔF f64 | ΔM f64 | shpeak u16 | max_mz f64
//!             | b_ions u8 | y_ions u8 | n_charges u8 | charges u8×n
//!             | top_k u64
//! "flags"     u64 layout-flags bitfield; bit 0 = MASS_SORTED (entry ids
//!             ascend by precursor mass → the banded query kernel applies).
//!             Required, with bit 0 set: the writer always sets it.
//! "entries"   SpectrumEntry×n — the repr(C) record: peptide u32,
//!             modform u16, nfrag u16, mass f32 (12 bytes each)
//! "binmap"    u64×(num_bins/64 + 1) bin occupancy bitmap: bit b%64 of word
//!             b/64 is set ⇔ bin b holds at least one posting; bits at or
//!             beyond num_bins are zero
//! "binptr"    u32×(occupied bins + 1): the posting offset of each occupied
//!             bin in ascending bin order, then total_ions — strictly
//!             increasing from 0
//! "postings"  u32×total_ions entry ids, grouped by bin (each bin's list
//!             ascending by entry id = ascending by precursor mass)
//! ```
//!
//! "binmap" + "binptr" are the sparse bin directory (see `slm.rs`): the
//! k-th set bit of the bitmap owns `postings[binptr[k]..binptr[k+1]]`. The
//! per-word running popcount that turns a bin into its k is recomputed at
//! load and never stored. A partition holds at most 2³² − 1 ions.
//!
//! Each array is one contiguous aligned region, so the reader performs one
//! sequential read of the whole container into an aligned arena and hands
//! the [`SlmIndex`] zero-copy views — load cost is O(sections) parsing plus
//! one memory-bandwidth pass (CRC verification). Element counts are
//! derived from the verified section lengths, never from untrusted claims,
//! so a corrupt file cannot force a large allocation.
//!
//! Every v2 load has the same two steps. The bytes become a *verified
//! image* ([`crate::format`]: header, table CRC, every section against its
//! table CRC — each byte checksummed once, unknown sections included), by
//! `VerifiedImage::verify` for a file, a byte slice or a raw generation
//! blob, or by the decompressor for a compressed one. Then
//! the one parser here, `read_v2_parsed`, which accepts nothing but that
//! type and takes no checksum itself, lays the views and runs the
//! structural validation once: the O(ions) [`SlmIndex::validate`] by
//! default, its cheap O(bins) opening alone under [`ReadOptions::trusted`].
//!
//! # Format floor
//!
//! The reader takes what this writer writes and nothing older. The
//! element-streamed `LBESLM1` dump, an `LBESLM2` carrying the dense
//! `"binoffs"` row pointers in place of "binmap" + "binptr", and an
//! `LBESLM2` without a "flags" section (or with bit 0 clear) are each one
//! `InvalidData` error that names the layout and says it is no longer
//! read; rebuild such a file with `lbe index`. So is an `LBECHK2` chunked
//! container file, the single-file form a chunked index had before the
//! generation store of [`crate::lifecycle`] became its one on-disk form.

use crate::config::SlmConfig;
use crate::format::{section_name, view_checked, AlignedBuf, CrcSink, SectionPlan, VerifiedImage};
use crate::slm::{SlmIndex, SpectrumEntry};
use lbe_spectra::theo::TheoParams;
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

/// Magic of the v2 single-index container (read and written).
pub const MAGIC_V2: &[u8; 8] = b"LBESLM2\0";
/// Magic of the v3 generation *manifest* container (see
/// [`crate::lifecycle`]): a directory-backed index whose chunks live as
/// content-addressed blob files beside the manifest.
pub const MAGIC_MANIFEST: &[u8; 8] = b"LBECHK3\0";

pub(crate) const SEC_CONFIG: [u8; 8] = section_name("config");
pub(crate) const SEC_ENTRIES: [u8; 8] = section_name("entries");
/// Bin-directory occupancy bitmap (u64 words).
pub(crate) const SEC_BINMAP: [u8; 8] = section_name("binmap");
/// Bin-directory posting offsets of the occupied bins (u32, + sentinel).
pub(crate) const SEC_BINPTR: [u8; 8] = section_name("binptr");
pub(crate) const SEC_POSTINGS: [u8; 8] = section_name("postings");
/// Layout-flags section (u64 LE bitfield); required, with
/// [`FLAG_MASS_SORTED`] set.
pub(crate) const SEC_FLAGS: [u8; 8] = section_name("flags");

/// `flags` bit 0: entry ids ascend by precursor mass, so the banded
/// (precursor-filtered) query kernel may binary-search posting lists.
/// Every index is mass-sorted, so the writer always sets it and the reader
/// requires it.
pub const FLAG_MASS_SORTED: u64 = 1 << 0;

/// Options of the read path.
#[derive(Debug, Clone, Copy)]
pub struct ReadOptions {
    /// Run the full O(ions) [`SlmIndex::validate`] scan after loading
    /// (postings reference real entries, per-entry fragment counts sum to
    /// the posting count). The cheap O(bins) structural invariants are
    /// always checked regardless of this flag, as are the v2 per-section
    /// checksums.
    ///
    /// **On by default** — a file that loads must be safe to search
    /// (an out-of-range posting id would otherwise panic mid-query).
    /// Disable it only for trusted files, e.g. an index this process
    /// just wrote, where the O(ions) pass is pure overhead.
    pub full_validation: bool,
}

impl Default for ReadOptions {
    fn default() -> Self {
        ReadOptions {
            full_validation: true,
        }
    }
}

impl ReadOptions {
    /// Cheap structural checks only — for files this process wrote itself.
    pub fn trusted() -> Self {
        ReadOptions {
            full_validation: false,
        }
    }
}

fn w_u16<W: Write + ?Sized>(w: &mut W, v: u16) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
fn w_u32<W: Write + ?Sized>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
fn w_u64<W: Write + ?Sized>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
fn w_f32<W: Write + ?Sized>(w: &mut W, v: f32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
fn w_f64<W: Write + ?Sized>(w: &mut W, v: f64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn r_exact<R: Read, const N: usize>(r: &mut R) -> io::Result<[u8; N]> {
    let mut buf = [0u8; N];
    r.read_exact(&mut buf)?;
    Ok(buf)
}
fn r_u16<R: Read>(r: &mut R) -> io::Result<u16> {
    Ok(u16::from_le_bytes(r_exact::<R, 2>(r)?))
}
fn r_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    Ok(u64::from_le_bytes(r_exact::<R, 8>(r)?))
}
fn r_f64<R: Read>(r: &mut R) -> io::Result<f64> {
    Ok(f64::from_le_bytes(r_exact::<R, 8>(r)?))
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

// ---------------------------------------------------------------------------
// Config encoding (the "config" section payload).
// ---------------------------------------------------------------------------

fn check_config_serializable(cfg: &SlmConfig) -> io::Result<()> {
    if cfg.theo.charges.len() > u8::MAX as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "cannot serialize {} charge states (format header holds at most 255)",
                cfg.theo.charges.len()
            ),
        ));
    }
    Ok(())
}

fn write_config<W: Write + ?Sized>(w: &mut W, cfg: &SlmConfig) -> io::Result<()> {
    w_f64(w, cfg.resolution)?;
    w_f64(w, cfg.fragment_tolerance)?;
    w_f64(w, cfg.precursor_tolerance)?;
    w_u16(w, cfg.shared_peak_threshold)?;
    w_f64(w, cfg.max_fragment_mz)?;
    w.write_all(&[cfg.theo.b_ions as u8, cfg.theo.y_ions as u8])?;
    w.write_all(&[cfg.theo.charges.len() as u8])?;
    w.write_all(&cfg.theo.charges)?;
    w_u64(w, cfg.top_k as u64)
}

fn read_config<R: Read>(r: &mut R) -> io::Result<SlmConfig> {
    let resolution = r_f64(r)?;
    let fragment_tolerance = r_f64(r)?;
    let precursor_tolerance = r_f64(r)?;
    let shared_peak_threshold = r_u16(r)?;
    let max_fragment_mz = r_f64(r)?;
    if resolution.is_nan()
        || resolution <= 0.0
        || max_fragment_mz.is_nan()
        || max_fragment_mz <= 0.0
    {
        return Err(bad("invalid config values"));
    }
    let flags: [u8; 2] = r_exact(r)?;
    let ncharges: [u8; 1] = r_exact(r)?;
    let mut charges = vec![0u8; ncharges[0] as usize];
    r.read_exact(&mut charges)?;
    let top_k = r_u64(r)? as usize;
    Ok(SlmConfig {
        resolution,
        fragment_tolerance,
        precursor_tolerance,
        shared_peak_threshold,
        max_fragment_mz,
        theo: TheoParams {
            b_ions: flags[0] != 0,
            y_ions: flags[1] != 0,
            charges,
        },
        top_k,
    })
}

pub(crate) fn config_bytes(cfg: &SlmConfig) -> io::Result<Vec<u8>> {
    check_config_serializable(cfg)?;
    let mut v = Vec::with_capacity(64);
    write_config(&mut v, cfg)?;
    Ok(v)
}

pub(crate) fn config_from_bytes(bytes: &[u8]) -> io::Result<SlmConfig> {
    let mut r = bytes;
    let cfg = read_config(&mut r)?;
    if !r.is_empty() {
        return Err(bad("trailing bytes after config section"));
    }
    Ok(cfg)
}

// ---------------------------------------------------------------------------
// Array payload emitters: zero-copy casts on little-endian targets, an
// element-wise little-endian encode elsewhere. Both branches always
// compile; the cast branch is taken on every tier-1 platform.
// ---------------------------------------------------------------------------

/// `true` when in-memory representation == on-disk representation, so
/// slices can be reinterpreted instead of converted.
const NATIVE_LE: bool = cfg!(target_endian = "little");

fn emit_entries<W: Write + ?Sized>(w: &mut W, entries: &[SpectrumEntry]) -> io::Result<()> {
    if NATIVE_LE {
        // SAFETY: SpectrumEntry is repr(C), 12 bytes, no padding (asserted
        // in slm.rs); reinterpreting as bytes is always valid.
        let bytes = unsafe {
            std::slice::from_raw_parts(
                entries.as_ptr() as *const u8,
                std::mem::size_of_val(entries),
            )
        };
        w.write_all(bytes)
    } else {
        for e in entries {
            w_u32(w, e.peptide)?;
            w_u16(w, e.modform)?;
            w_u16(w, e.num_fragments)?;
            w_f32(w, e.precursor_mass)?;
        }
        Ok(())
    }
}

fn emit_u64s<W: Write + ?Sized>(w: &mut W, values: &[u64]) -> io::Result<()> {
    if NATIVE_LE {
        // SAFETY: plain integers, any bit pattern valid as bytes.
        let bytes = unsafe {
            std::slice::from_raw_parts(values.as_ptr() as *const u8, std::mem::size_of_val(values))
        };
        w.write_all(bytes)
    } else {
        values.iter().try_for_each(|&v| w_u64(w, v))
    }
}

fn emit_u32s<W: Write + ?Sized>(w: &mut W, values: &[u32]) -> io::Result<()> {
    if NATIVE_LE {
        // SAFETY: plain integers, any bit pattern valid as bytes.
        let bytes = unsafe {
            std::slice::from_raw_parts(values.as_ptr() as *const u8, std::mem::size_of_val(values))
        };
        w.write_all(bytes)
    } else {
        values.iter().try_for_each(|&v| w_u32(w, v))
    }
}

/// Runs `emit` into a [`CrcSink`] to plan a section: `(len, crc)`.
fn plan_section<F>(emit: F) -> io::Result<(u64, u32)>
where
    F: FnOnce(&mut CrcSink) -> io::Result<()>,
{
    let mut sink = CrcSink::new();
    emit(&mut sink)?;
    Ok(sink.finish())
}

// ---------------------------------------------------------------------------
// v2 write.
// ---------------------------------------------------------------------------

/// Serializes an index to a writer in the v2 (`LBESLM2`) container format.
///
/// Fails with [`io::ErrorKind::InvalidInput`] — before the first byte goes
/// out — if the configuration cannot be represented (more than 255 charge
/// states: the config encoding stores the count in one byte).
pub fn write_index<W: Write>(writer: W, index: &SlmIndex) -> io::Result<()> {
    let cfg_bytes = config_bytes(index.config())?;
    let plans = plan_index_sections(index, &cfg_bytes)?;
    let mut w = BufWriter::new(writer);
    write_index_sections(&mut w, index, &cfg_bytes, &plans)?;
    w.flush()
}

/// Plans the six v2 sections of one index: one checksum pass over each
/// array, no serialization. The chunked container writer caches the result
/// so each chunk's arrays are checksummed exactly once.
fn plan_index_sections(index: &SlmIndex, cfg_bytes: &[u8]) -> io::Result<[SectionPlan; 6]> {
    let flags = FLAG_MASS_SORTED.to_le_bytes();
    let dir = index.bin_directory();
    let (e_len, e_crc) = plan_section(|s| emit_entries(s, index.entries()))?;
    let (m_len, m_crc) = plan_section(|s| emit_u64s(s, dir.bitmap))?;
    let (s_len, s_crc) = plan_section(|s| emit_u32s(s, dir.starts))?;
    let (p_len, p_crc) = plan_section(|s| emit_u32s(s, index.postings()))?;
    Ok([
        SectionPlan::of(SEC_CONFIG, cfg_bytes),
        SectionPlan::of(SEC_FLAGS, &flags),
        SectionPlan {
            name: SEC_ENTRIES,
            len: e_len,
            crc: e_crc,
        },
        SectionPlan {
            name: SEC_BINMAP,
            len: m_len,
            crc: m_crc,
        },
        SectionPlan {
            name: SEC_BINPTR,
            len: s_len,
            crc: s_crc,
        },
        SectionPlan {
            name: SEC_POSTINGS,
            len: p_len,
            crc: p_crc,
        },
    ])
}

/// Writes the v2 container body for already-planned sections (one
/// serialization pass).
pub(crate) fn write_index_sections(
    mut w: &mut dyn Write,
    index: &SlmIndex,
    cfg_bytes: &[u8],
    plans: &[SectionPlan; 6],
) -> io::Result<()> {
    let dir = index.bin_directory();
    crate::format::write_container(&mut w, MAGIC_V2, plans, |i, w| match i {
        0 => w.write_all(cfg_bytes),
        1 => w.write_all(&FLAG_MASS_SORTED.to_le_bytes()),
        2 => emit_entries(w, index.entries()),
        3 => emit_u64s(w, dir.bitmap),
        4 => emit_u32s(w, dir.starts),
        _ => emit_u32s(w, index.postings()),
    })
}

/// Test support shared by this module's tests and the chunk-level tests in
/// `chunked.rs`: the layouts below the format floor and a table of
/// bin-directory corruptions.
#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use crate::format::rewrite_container;

    /// Every layout below the format floor, each made from the current
    /// `LBESLM2` image `current` with valid checksums, as `(what the error
    /// names, image)`.
    pub(crate) fn below_the_floor(current: &[u8]) -> Vec<(&'static str, Vec<u8>)> {
        let idx = read_index_bytes(current, &ReadOptions::default()).unwrap();
        // The pre-directory layout's dense row pointers, by plain counting.
        let mut binoffs = 0u64.to_le_bytes().to_vec();
        let mut at = 0u64;
        for bin in 0..idx.config().num_bins() as u32 {
            at += idx.bin_postings(bin).len() as u64;
            binoffs.extend(at.to_le_bytes());
        }
        vec![
            ("an LBESLM1 index file", b"LBESLM1\0".to_vec()),
            ("an LBECHK2 chunked container", b"LBECHK2\0".to_vec()),
            (
                "without a binmap + binptr bin directory",
                rewrite_container(current, MAGIC_V2, |name, p| match *name {
                    SEC_BINMAP => Some((section_name("binoffs"), binoffs.clone())),
                    SEC_BINPTR => None,
                    _ => Some((*name, p.to_vec())),
                }),
            ),
            (
                "without a flags section",
                rewrite_container(current, MAGIC_V2, |name, p| {
                    (*name != SEC_FLAGS).then(|| (*name, p.to_vec()))
                }),
            ),
            (
                "not flagged mass-sorted",
                rewrite_container(current, MAGIC_V2, |name, p| {
                    let p = if *name == SEC_FLAGS { &[0; 8] } else { p };
                    Some((*name, p.to_vec()))
                }),
            ),
        ]
    }

    /// Owned copies of an index's stored directory arrays.
    pub(crate) fn dir_parts(idx: &SlmIndex) -> (Vec<u64>, Vec<u32>) {
        let dir = idx.bin_directory();
        (dir.bitmap.to_vec(), dir.starts.to_vec())
    }

    /// Every way a checksum-valid container can carry a broken
    /// bin directory, as `(what, edit, expected message fragment)` — for the
    /// load tests here and the chunk-fault test in `chunked.rs`. The edits
    /// assume the default configuration and at least three occupied bins.
    #[allow(clippy::type_complexity)]
    pub(crate) fn directory_corruptions(
    ) -> Vec<(&'static str, fn(&mut Vec<u64>, &mut Vec<u32>), &'static str)> {
        vec![
            (
                "flipped bitmap bit",
                |m, _| {
                    let w = m.iter().position(|&w| w != 0).unwrap();
                    m[w] ^= 1 << m[w].trailing_zeros();
                },
                "population",
            ),
            (
                "extra bitmap bit",
                |m, _| {
                    let w = m.iter().position(|&w| w != u64::MAX).unwrap();
                    m[w] |= 1 << m[w].trailing_ones();
                },
                "population",
            ),
            (
                "bit at num_bins",
                |m, _| *m.last_mut().unwrap() |= 1 << (SlmConfig::default().num_bins() % 64),
                "beyond the configured range",
            ),
            (
                "bit past num_bins",
                |m, _| *m.last_mut().unwrap() |= 1 << 63,
                "beyond the configured range",
            ),
            (
                "short bitmap",
                |m, _| {
                    m.pop();
                },
                "length",
            ),
            (
                "missing offset",
                |_, s| {
                    s.pop();
                },
                "population",
            ),
            ("extra offset", |_, s| s.push(u32::MAX), "population"),
            ("first offset not 0", |_, s| s[0] = 1, "not 0"),
            ("repeated offset", |_, s| s[2] = s[1], "strictly increasing"),
            (
                "descending offset",
                |_, s| s[1] = s[3],
                "strictly increasing",
            ),
            (
                "last occupied bin dropped",
                |m, s| {
                    let w = m.iter().rposition(|&w| w != 0).unwrap();
                    m[w] &= !(1 << (63 - m[w].leading_zeros()));
                    s.pop();
                },
                "final offset",
            ),
            (
                "last offset past the postings",
                |_, s| *s.last_mut().unwrap() += 7,
                "final offset",
            ),
        ]
    }
}

// ---------------------------------------------------------------------------
// Read: magic dispatch.
// ---------------------------------------------------------------------------

/// The structural validation every load and every chunk fault ends in, run
/// once: the full O(ions) [`SlmIndex::validate`] — which *begins* with the
/// cheap O(bins) invariants — or, for a trusted file, those alone.
fn validate_loaded(index: SlmIndex, opts: &ReadOptions) -> io::Result<SlmIndex> {
    if opts.full_validation {
        index.validate()
    } else {
        index.validate_cheap()
    }
    .map_err(|e| bad(&e))?;
    Ok(index)
}

/// The one error of every layout below the format floor.
fn below_floor(layout: &str) -> io::Error {
    bad(&format!(
        "{layout} is no longer read; rebuild with `lbe index`"
    ))
}

/// Deserializes an index from a reader: an `LBESLM2` container is loaded
/// into one aligned arena and handed out as zero-copy views. Cheap
/// structural validation always runs; pass
/// [`ReadOptions::full_validation`] via [`read_index_with`] for the full
/// O(ions) scan.
pub fn read_index<R: Read>(reader: R) -> io::Result<SlmIndex> {
    read_index_with(reader, &ReadOptions::default())
}

/// [`read_index`] with explicit [`ReadOptions`].
pub fn read_index_with<R: Read>(reader: R, opts: &ReadOptions) -> io::Result<SlmIndex> {
    let mut r = reader;
    let magic: [u8; 8] = r_exact(&mut r)?;
    match &magic {
        m if m == MAGIC_V2 => {
            // Generic readers can't be stat'ed: drain into a Vec (geometric
            // growth bounded by the actual bytes present — a corrupt length
            // claim cannot force an allocation), then move into an aligned
            // arena. `read_index_path` avoids the extra copy.
            let mut whole = magic.to_vec();
            r.read_to_end(&mut whole)?;
            read_v2_arena(AlignedBuf::from_slice(&whole), opts)
        }
        b"LBESLM1\0" => Err(below_floor("an LBESLM1 index file")),
        b"LBECHK2\0" => Err(bad("an LBECHK2 chunked container is no longer read; \
             rebuild with `lbe index init` as a generation store directory")),
        _ => Err(bad("not an LBE SLM index file (bad magic)")),
    }
}

/// Deserializes an index from an in-memory byte image. Unlike
/// [`read_index`] over a slice, the image is copied straight into its
/// aligned arena (no intermediate `Vec`), which matters at
/// memory-bandwidth-bound sizes.
pub fn read_index_bytes(bytes: &[u8], opts: &ReadOptions) -> io::Result<SlmIndex> {
    if bytes.len() >= 8 && &bytes[..8] == MAGIC_V2 {
        read_v2_arena(AlignedBuf::from_slice(bytes), opts)
    } else {
        read_index_with(bytes, opts)
    }
}

/// Reads an index from a file: the whole container is loaded with a single
/// sequential read into an aligned arena sized from the file's actual
/// length.
pub fn read_index_path(path: impl AsRef<Path>) -> io::Result<SlmIndex> {
    read_index_path_with(path, &ReadOptions::default())
}

/// [`read_index_path`] with explicit [`ReadOptions`].
pub fn read_index_path_with(path: impl AsRef<Path>, opts: &ReadOptions) -> io::Result<SlmIndex> {
    let mut file = std::fs::File::open(path)?;
    let magic: [u8; 8] = r_exact(&mut file)?;
    if &magic == MAGIC_V2 {
        let len = file.metadata()?.len();
        let mut buf = AlignedBuf::zeroed(len as usize);
        file.seek(SeekFrom::Start(0))?;
        file.read_exact(buf.as_mut_slice())?;
        read_v2_arena(buf, opts)
    } else {
        read_index_with(&magic[..], opts)
    }
}

/// Verifies and parses a v2 single-index container occupying all of `arena`.
fn read_v2_arena(arena: AlignedBuf, opts: &ReadOptions) -> io::Result<SlmIndex> {
    read_v2_parsed(VerifiedImage::verify(arena, MAGIC_V2)?, opts)
}

/// Turns a **verified** v2 single-index image into an index: the one tail
/// of every v2 load — a file, a byte slice, a generation-store blob (raw or
/// just decompressed). The checksums are
/// the type's business (no CRC is taken here); this derives element counts
/// from the verified section lengths, backs the index with zero-copy views
/// into the image's arena on little-endian hosts, and runs the structural
/// validation [`ReadOptions`] asks for.
pub(crate) fn read_v2_parsed(image: VerifiedImage, opts: &ReadOptions) -> io::Result<SlmIndex> {
    let bytes = image.as_slice();
    let (cfg_off, cfg_len) = image.section(&SEC_CONFIG)?;
    let config = config_from_bytes(&bytes[cfg_off..cfg_off + cfg_len])?;

    // Layout flags: MASS_SORTED is required (the claim itself is verified
    // by the always-on cheap validation); unknown bits are ignored for
    // forward compatibility.
    let Some((f_off, f_len)) = image.find(&SEC_FLAGS) else {
        return Err(below_floor("an LBESLM2 index without a flags section"));
    };
    if f_len != 8 {
        return Err(bad("flags section is not a single u64"));
    }
    let flags = u64::from_le_bytes(bytes[f_off..f_off + 8].try_into().unwrap());
    if flags & FLAG_MASS_SORTED == 0 {
        return Err(below_floor("an LBESLM2 index not flagged mass-sorted"));
    }

    let (e_off, e_bytes) = image.section(&SEC_ENTRIES)?;
    let esz = std::mem::size_of::<SpectrumEntry>();
    if e_bytes % esz != 0 {
        return Err(bad("entries section length is not a whole record count"));
    }
    let n_entries = e_bytes / esz;

    let (p_off, p_bytes) = image.section(&SEC_POSTINGS)?;
    if p_bytes % 4 != 0 {
        return Err(bad("postings section length is not a whole u32 count"));
    }
    let n_postings = p_bytes / 4;
    check_posting_count(n_postings as u64)?;

    let (Some((m_off, m_bytes)), Some((s_off, s_bytes))) =
        (image.find(&SEC_BINMAP), image.find(&SEC_BINPTR))
    else {
        return Err(below_floor(
            "an LBESLM2 index without a binmap + binptr bin directory",
        ));
    };
    if m_bytes % 8 != 0 {
        return Err(bad("binmap section length is not a whole u64 count"));
    }
    if s_bytes % 4 != 0 {
        return Err(bad("binptr section length is not a whole u32 count"));
    }
    let index = if NATIVE_LE {
        // Validate bounds + alignment once; the index's accessors then
        // cast unchecked.
        view_checked::<SpectrumEntry>(bytes, e_off, n_entries)?;
        view_checked::<u64>(bytes, m_off, m_bytes / 8)?;
        view_checked::<u32>(bytes, s_off, s_bytes / 4)?;
        view_checked::<u32>(bytes, p_off, n_postings)?;
        SlmIndex::from_arena(
            config,
            Arc::new(image.into_arena()),
            (e_off, n_entries),
            (m_off, m_bytes / 8),
            (s_off, s_bytes / 4),
            (p_off, n_postings),
        )
    } else {
        // Big-endian host: views of little-endian data are impossible;
        // decode element-wise into owned storage.
        SlmIndex::from_owned_unchecked(
            config,
            decode_entries(&bytes[e_off..e_off + e_bytes]),
            (
                decode_u64s(&bytes[m_off..m_off + m_bytes]),
                decode_u32s(&bytes[s_off..s_off + s_bytes]),
            ),
            decode_u32s(&bytes[p_off..p_off + p_bytes]),
        )
    };
    validate_loaded(index, opts)
}

/// Rejects a posting count the directory's `u32` offsets cannot address.
fn check_posting_count(n_postings: u64) -> io::Result<()> {
    if n_postings > u32::MAX as u64 {
        return Err(bad(
            "index holds more ions than u32 posting offsets address",
        ));
    }
    Ok(())
}

fn decode_entries(bytes: &[u8]) -> Vec<SpectrumEntry> {
    bytes
        .chunks_exact(std::mem::size_of::<SpectrumEntry>())
        .map(|c| SpectrumEntry {
            peptide: u32::from_le_bytes(c[0..4].try_into().unwrap()),
            modform: u16::from_le_bytes(c[4..6].try_into().unwrap()),
            num_fragments: u16::from_le_bytes(c[6..8].try_into().unwrap()),
            precursor_mass: f32::from_le_bytes(c[8..12].try_into().unwrap()),
        })
        .collect()
}

pub(crate) fn decode_u32s(bytes: &[u8]) -> Vec<u32> {
    bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

pub(crate) fn decode_u64s(bytes: &[u8]) -> Vec<u64> {
    bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

/// Writes an index to a file (v2 format).
pub fn write_index_path(path: impl AsRef<Path>, index: &SlmIndex) -> io::Result<()> {
    write_index(std::fs::File::create(path)?, index)
}

#[cfg(test)]
mod tests {
    use super::test_support::*;
    use super::*;
    use crate::builder::IndexBuilder;
    use lbe_bio::mods::ModSpec;
    use lbe_bio::peptide::{Peptide, PeptideDb};

    fn sample_index(mods: bool) -> SlmIndex {
        let db = PeptideDb::from_vec(
            ["ELVISLIVESK", "PEPTIDEK", "MNKQMGGR", "SAMPLERK"]
                .iter()
                .map(|s| Peptide::new(s.as_bytes(), 0, 0).unwrap())
                .collect(),
        );
        let spec = if mods {
            ModSpec::paper_default()
        } else {
            ModSpec::none()
        };
        IndexBuilder::new(SlmConfig::default(), spec).build(&db)
    }

    #[test]
    fn v2_round_trip_in_memory_is_arena_backed() {
        for mods in [false, true] {
            let idx = sample_index(mods);
            let mut buf = Vec::new();
            write_index(&mut buf, &idx).unwrap();
            assert_eq!(&buf[..8], MAGIC_V2);
            let back = read_index(&buf[..]).unwrap();
            assert!(back.is_arena_backed());
            assert_eq!(back, idx);
            back.validate().unwrap();
        }
    }

    #[test]
    fn v2_write_is_deterministic_across_storage_backends() {
        // Owned and arena-backed copies of the same index serialize to
        // identical bytes — the property the chunked round-trip relies on.
        let idx = sample_index(false);
        let mut a = Vec::new();
        write_index(&mut a, &idx).unwrap();
        let loaded = read_index(&a[..]).unwrap();
        assert!(loaded.is_arena_backed());
        let mut b = Vec::new();
        write_index(&mut b, &loaded).unwrap();
        assert_eq!(a, b);
        // The planned section lengths predict the container size exactly.
        let cfg = config_bytes(idx.config()).unwrap();
        let plans = plan_index_sections(&idx, &cfg).unwrap();
        let lens: Vec<u64> = plans.iter().map(|p| p.len).collect();
        assert_eq!(a.len() as u64, crate::format::container_len(&lens));
    }

    #[test]
    fn round_trip_on_disk() {
        let dir = std::env::temp_dir().join("lbe_index_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("part.slm");
        let idx = sample_index(false);
        write_index_path(&path, &idx).unwrap();
        let back = read_index_path(&path).unwrap();
        assert!(back.is_arena_backed());
        assert_eq!(back, idx);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn search_results_survive_round_trip() {
        use crate::query::Searcher;
        use lbe_spectra::synthetic::{SyntheticDataset, SyntheticDatasetParams};
        let db = PeptideDb::from_vec(
            ["ELVISLIVESK", "PEPTIDEK", "MNKQMGGR"]
                .iter()
                .map(|s| Peptide::new(s.as_bytes(), 0, 0).unwrap())
                .collect(),
        );
        let idx = IndexBuilder::new(SlmConfig::default(), ModSpec::none()).build(&db);
        let mut buf = Vec::new();
        write_index(&mut buf, &idx).unwrap();
        let loaded = read_index(&buf[..]).unwrap();

        let queries = SyntheticDataset::generate(
            &db,
            &ModSpec::none(),
            &SyntheticDatasetParams {
                num_spectra: 8,
                ..Default::default()
            },
            44,
        );
        let mut s1 = Searcher::new(&idx);
        let mut s2 = Searcher::new(&loaded);
        for q in &queries.spectra {
            assert_eq!(s1.search(q), s2.search(q));
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let err = read_index(&b"NOTANIDX........."[..]).unwrap_err();
        assert!(err.to_string().contains("magic"));
    }

    #[test]
    fn chunked_magic_points_at_the_right_api() {
        // The single-file chunked container is below the format floor; its
        // chunks now live in a generation store.
        let err = read_index(&b"LBECHK2\0........."[..]).unwrap_err();
        assert!(err.to_string().contains("`lbe index init`"), "{err}");
    }

    #[test]
    fn truncated_files_rejected_both_versions() {
        // A cut inside the magic, the body and the last section. (The
        // other version, `LBESLM1`, is refused whole: see
        // `chunked::tests::every_layout_below_the_floor_is_one_typed_error`.)
        let idx = sample_index(false);
        let mut buf = Vec::new();
        write_index(&mut buf, &idx).unwrap();
        for cut in [5, 10, buf.len() / 2, buf.len() - 3] {
            assert!(read_index(&buf[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn v2_bit_flip_in_postings_is_a_checksum_error() {
        let idx = sample_index(false);
        let mut buf = Vec::new();
        write_index(&mut buf, &idx).unwrap();
        // Flip one bit near the end (inside the postings payload).
        let pos = buf.len() - 16;
        buf[pos] ^= 0x10;
        let err = read_index(&buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn cheap_validation_rejects_every_corrupt_directory() {
        // Well-formed v2 files (valid checksums) whose bin directory is
        // structurally inconsistent: the always-on cheap invariants reject
        // each one at load, typed, before any lookup could index with it —
        // with the same message whether they run alone (`trusted`) or as
        // the opening of the full validation (`default`), which is the one
        // or the other, never both.
        let idx = sample_index(false);
        assert_eq!(idx.config(), &SlmConfig::default());
        for (what, edit, expect) in directory_corruptions() {
            let (mut bitmap, mut starts) = dir_parts(&idx);
            edit(&mut bitmap, &mut starts);
            let broken = SlmIndex::from_owned_unchecked(
                idx.config().clone(),
                idx.entries().to_vec(),
                (bitmap, starts),
                idx.postings().to_vec(),
            );
            let mut buf = Vec::new();
            write_index(&mut buf, &broken).unwrap();
            let [trusted, full] = [ReadOptions::trusted(), ReadOptions::default()]
                .map(|opts| read_index_with(&buf[..], &opts).unwrap_err());
            assert_eq!(trusted.kind(), io::ErrorKind::InvalidData, "{what}");
            assert!(trusted.to_string().contains(expect), "{what}: {trusted}");
            assert_eq!(full.kind(), trusted.kind(), "{what}");
            assert_eq!(full.to_string(), trusted.to_string(), "{what}");
        }
    }

    #[test]
    fn container_missing_half_the_directory_is_rejected() {
        // "binmap" without "binptr" is no bin directory.
        let idx = sample_index(false);
        let cfg_bytes = config_bytes(idx.config()).unwrap();
        let all = plan_index_sections(&idx, &cfg_bytes).unwrap();
        let cut: Vec<SectionPlan> = all
            .iter()
            .filter(|p| p.name != SEC_BINPTR)
            .copied()
            .collect();
        let mut buf = Vec::new();
        crate::format::write_container(&mut buf, MAGIC_V2, &cut, |i, w| match i {
            0 => w.write_all(&cfg_bytes),
            1 => w.write_all(&FLAG_MASS_SORTED.to_le_bytes()),
            2 => super::emit_entries(w, idx.entries()),
            3 => emit_u64s(w, idx.bin_directory().bitmap),
            _ => emit_u32s(w, idx.postings()),
        })
        .unwrap();
        let err = read_index(&buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn oversized_posting_counts_are_rejected_before_any_allocation() {
        // The directory addresses postings with u32: the reader refuses a
        // verified postings section longer than that before laying views.
        assert!(check_posting_count(u32::MAX as u64).is_ok());
        let err = check_posting_count(u32::MAX as u64 + 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("u32"), "{err}");
    }

    #[test]
    fn full_validation_flag_catches_deep_inconsistency() {
        // Structurally consistent at the CSR level (cheap checks pass) but
        // the entry fragment counts no longer sum to the posting count —
        // only the full O(ions) scan sees it.
        let idx = sample_index(false);
        let mut entries = idx.entries().to_vec();
        entries[0].num_fragments += 1;
        let broken = SlmIndex::from_owned_unchecked(
            idx.config().clone(),
            entries,
            dir_parts(&idx),
            idx.postings().to_vec(),
        );
        let mut buf = Vec::new();
        write_index(&mut buf, &broken).unwrap();
        // Trusted read: cheap invariants only — loads.
        assert!(read_index_with(&buf[..], &ReadOptions::trusted()).is_ok());
        // Default read runs the full scan and rejects it.
        let err = read_index(&buf[..]).unwrap_err();
        assert!(err.to_string().contains("fragment counts"), "{err}");
    }

    #[test]
    fn full_validation_catches_dangling_posting() {
        let idx = sample_index(false);
        // Drop the last entry but keep its postings: every posting that
        // referenced it now dangles.
        let mut entries = idx.entries().to_vec();
        entries.pop().unwrap();
        let broken = SlmIndex::from_owned_unchecked(
            idx.config().clone(),
            entries,
            dir_parts(&idx),
            idx.postings().to_vec(),
        );
        let mut buf = Vec::new();
        write_index(&mut buf, &broken).unwrap();
        let err = read_index_with(
            &buf[..],
            &ReadOptions {
                full_validation: true,
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("nonexistent entry"), "{err}");
    }

    #[test]
    fn empty_index_round_trips() {
        let idx = IndexBuilder::new(SlmConfig::default(), ModSpec::none()).build(&PeptideDb::new());
        let mut buf = Vec::new();
        write_index(&mut buf, &idx).unwrap();
        let back = read_index(&buf[..]).unwrap();
        assert!(back.is_empty());
        assert_eq!(back, idx);
    }

    /// A valid file whose section table claims an `entries` length of
    /// `len` bytes, table checksum recomputed so the claim is believed.
    fn forge_entries_len(len: u64) -> Vec<u8> {
        use crate::format::{crc32, HEADER_LEN, SECTION_RECORD_LEN};
        let mut buf = Vec::new();
        write_index(&mut buf, &sample_index(false)).unwrap();
        let count = u32::from_le_bytes(buf[12..16].try_into().unwrap()) as usize;
        let table = HEADER_LEN..HEADER_LEN + count * SECTION_RECORD_LEN;
        let rec = table
            .clone()
            .step_by(SECTION_RECORD_LEN)
            .find(|&r| buf[r..r + 8] == SEC_ENTRIES)
            .unwrap();
        buf[rec + 16..rec + 24].copy_from_slice(&len.to_le_bytes());
        let crc = crc32(&buf[table]);
        buf[24..28].copy_from_slice(&crc.to_le_bytes());
        buf
    }

    #[test]
    fn forged_huge_entry_count_fails_fast_without_preallocating() {
        // A table claiming 10^12 entries (≈ 12 TB) is refused against the
        // bytes actually present, before any allocation sized by it.
        let buf = forge_entries_len(12_000_000_000_000);
        let t0 = std::time::Instant::now();
        let err = read_index(&buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("past the container"), "{err}");
        assert!(t0.elapsed() < std::time::Duration::from_secs(5));
    }

    #[test]
    fn forged_moderate_entry_count_still_rejected() {
        // One record more than written stays inside the file, so it is the
        // section checksum that refuses it.
        let (_, e_len) = {
            let mut buf = Vec::new();
            write_index(&mut buf, &sample_index(false)).unwrap();
            VerifiedImage::verify(AlignedBuf::from_slice(&buf), MAGIC_V2)
                .unwrap()
                .section(&SEC_ENTRIES)
                .unwrap()
        };
        let err = read_index(&forge_entries_len(e_len as u64 + 12)[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn oversized_charge_list_rejected_not_truncated_by_both_writers() {
        // 300 charge states cannot round-trip through the one-byte config
        // count; writing must fail loudly instead of truncating to 300 %
        // 256 = 44 and corrupting every later read.
        let cfg = SlmConfig {
            theo: lbe_spectra::theo::TheoParams {
                charges: (0..300).map(|c| (c % 250) as u8 + 1).collect(),
                ..Default::default()
            },
            ..SlmConfig::default()
        };
        let db = PeptideDb::from_vec(vec![Peptide::new(b"PEPTIDEK", 0, 0).unwrap()]);
        let idx = IndexBuilder::new(cfg.clone(), ModSpec::none()).build(&db);
        let mut buf = Vec::new();
        let err = write_index(&mut buf, &idx).unwrap_err();
        // The generation store's writer refuses the same configuration.
        let dir = std::env::temp_dir().join("lbe_io_300_charges_store");
        std::fs::remove_dir_all(&dir).ok();
        let store_err = crate::lifecycle::GenerationStore::init(&dir, &db, cfg, ModSpec::none(), 1)
            .unwrap_err();
        for err in [err, store_err] {
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
            assert!(err.to_string().contains("300 charge states"));
        }
        // Validation happens before the first byte: no magic-only stub
        // is left behind for a later read to trip over — no blob, and no
        // manifest naming one.
        assert!(buf.is_empty());
        assert_eq!(std::fs::read_dir(dir.join("chunks")).unwrap().count(), 0);
        assert!(!dir.join("CURRENT").exists());
    }

    #[test]
    fn max_charge_list_still_round_trips() {
        let cfg = SlmConfig {
            theo: lbe_spectra::theo::TheoParams {
                charges: (0..255).map(|c| (c % 250) as u8 + 1).collect(),
                ..Default::default()
            },
            ..SlmConfig::default()
        };
        let db = PeptideDb::from_vec(vec![Peptide::new(b"PEPTIDEK", 0, 0).unwrap()]);
        let idx = IndexBuilder::new(cfg, ModSpec::none()).build(&db);
        let mut buf = Vec::new();
        write_index(&mut buf, &idx).unwrap();
        assert_eq!(read_index(&buf[..]).unwrap(), idx);
    }

    #[test]
    fn open_search_infinity_survives() {
        let idx = sample_index(false);
        assert!(idx.config().is_open_search());
        let mut buf = Vec::new();
        write_index(&mut buf, &idx).unwrap();
        let back = read_index(&buf[..]).unwrap();
        assert!(back.config().is_open_search());
    }

    #[test]
    fn forged_mass_sorted_claim_on_unsorted_entries_is_rejected() {
        // Every file claims MASS_SORTED, so its entry table must really be
        // sorted — otherwise the banded binary search would silently
        // mis-filter. Forge the claim over shuffled entries.
        let idx = sample_index(false);
        let mut entries = idx.entries().to_vec();
        entries.reverse();
        assert!(entries.len() > 1);
        let forged = SlmIndex::from_owned_unchecked(
            idx.config().clone(),
            entries,
            dir_parts(&idx),
            idx.postings().to_vec(),
        );
        let mut buf = Vec::new();
        write_index(&mut buf, &forged).unwrap();
        let err = read_index_with(&buf[..], &ReadOptions::trusted()).unwrap_err();
        assert!(err.to_string().contains("mass-sorted"), "{err}");
    }

    mod corruption_properties {
        use super::*;
        use proptest::prelude::*;
        use std::sync::OnceLock;

        /// Shared fixture: the reference index and its serialized buffer
        /// (building an index per case would dominate the run).
        fn fixture() -> &'static (SlmIndex, Vec<u8>) {
            static FIXTURE: OnceLock<(SlmIndex, Vec<u8>)> = OnceLock::new();
            FIXTURE.get_or_init(|| {
                let idx = sample_index(true);
                let mut buf = Vec::new();
                write_index(&mut buf, &idx).unwrap();
                (idx, buf)
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Truncating a valid file at any length must fail with a clean
            /// error — no panic, no OOM-scale preallocation (the reader
            /// bounds allocations by bytes actually present). The draw
            /// domain exceeds any fixture size so `% len` reaches every
            /// byte of the file.
            #[test]
            fn truncation_fails_cleanly(cut in 0usize..(1 << 30)) {
                let (_, buf) = fixture();
                let cut = cut % buf.len(); // strictly shorter than the file
                let err = read_index_with(
                    &buf[..cut],
                    &ReadOptions { full_validation: true },
                );
                prop_assert!(err.is_err(), "cut at {} accepted", cut);
            }

            /// Flipping any single bit of a **v2** file must either fail
            /// with InvalidData or load an index identical to the original
            /// (flips in alignment padding are invisible — they are
            /// outside every checksummed payload).
            #[test]
            fn v2_bit_flips_fail_cleanly_or_change_nothing(
                pos in 0usize..(1 << 30),
                bit in 0u32..8,
            ) {
                let (idx, buf) = fixture();
                let mut buf = buf.clone();
                let pos = pos % buf.len();
                buf[pos] ^= 1 << bit;
                match read_index_with(&buf[..], &ReadOptions { full_validation: true }) {
                    Err(e) => prop_assert_eq!(e.kind(), io::ErrorKind::InvalidData,
                        "unexpected error kind at byte {}: {}", pos, e),
                    Ok(loaded) => prop_assert!(
                        &loaded == idx,
                        "corruption at byte {} bit {} passed silently", pos, bit
                    ),
                }
            }
        }
    }
}
