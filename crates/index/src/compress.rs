//! Delta + bitpacked compression for chunk blobs.
//!
//! A generation store (see [`crate::lifecycle`]) keeps each chunk as a
//! content-addressed blob file holding a complete `LBESLM2` container.
//! Those containers are dominated by arrays with tiny local deltas, so a
//! blob compresses them as zigzag deltas bitpacked in fixed-size blocks and
//! leaves the rest raw:
//!
//! ```text
//! section     scheme
//! "postings"  zigzag-delta u32 (entry ids, ascending within every bin)
//! "binptr"    zigzag-delta u32 (strictly increasing posting offsets)
//! "binoffs"   zigzag-delta u64 (legacy dense CSR row pointers — no writer
//!             emits the section any more, but blobs holding it are on disk
//!             and a legacy container handed to [`compress_container`]
//!             still packs it)
//! "binmap"    zigzag-delta u64, which only pays through its width-0 blocks:
//!             128 all-zero bitmap words (81.92 Da of axis no fragment of
//!             the chunk reaches) pack to one byte. A light chunk's bitmap
//!             shrinks several-fold; a chunk spanning the axis stays raw
//! "entries", "config", "flags"   raw
//! ```
//!
//! Any section whose delta stream is not strictly smaller falls back to
//! raw. Decompression reconstructs the **byte-exact** original container
//! (verified against a stored CRC-32 of the raw bytes), so every consumer
//! downstream of the fault path — parsing, validation, search — runs the
//! unchanged v2 machinery and stays bit-identical to an uncompressed load.
//!
//! # Blob framing (`LBEZCHK1`)
//!
//! ```text
//! offset  field
//! 0       magic "LBEZCHK1"
//! 8       raw_len u64      — byte length of the decompressed container
//! 16      prefix_len u64   — verbatim prefix bytes (header + section table)
//! 24      raw_crc u32      — CRC-32 of the whole decompressed container
//! 28      n_sections u32
//! 32      prefix bytes (prefix_len)
//! …       per section, in table order:
//!             scheme u8 (0 = raw, 1 = zigzag-delta u32, 2 = zigzag-delta u64)
//!             enc_len u64
//!             enc bytes
//! ```
//!
//! All integers little-endian. Delta payloads are a `count u64` followed by
//! blocks of up to `BLOCK` zigzag-encoded deltas, each block a `width u8`
//! (bits per value) and `ceil(n·width/8)` LSB-first packed bytes. Delta
//! arithmetic wraps, so the codec is a bijection on any value stream — no
//! input can overflow it — and corrupt *encoded* streams fail the final
//! CRC instead of panicking.

use crate::format::{crc32, AlignedBuf, ParsedContainer};
use crate::io::{SEC_BINMAP, SEC_BINOFFS, SEC_BINPTR, SEC_POSTINGS};
use std::io;

/// Magic leading every compressed chunk blob.
pub const BLOB_MAGIC: &[u8; 8] = b"LBEZCHK1";

/// Fixed frame-header length (magic + raw_len + prefix_len + crc + count).
const FRAME_HEADER_LEN: usize = 32;

/// Values per bitpacked block.
const BLOCK: usize = 128;

/// Section payload encodings.
const SCHEME_RAW: u8 = 0;
const SCHEME_DELTA_U32: u8 = 1;
const SCHEME_DELTA_U64: u8 = 2;

/// The most a blob may claim to inflate, relative to its encoded size —
/// width-0 blocks top out near 1024:1 (8 KB of u64s per header byte), so
/// 4096:1 plus slack admits every real blob while a bit-flipped `raw_len`
/// cannot demand an absurd allocation.
const MAX_INFLATION: u64 = 4096;

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// `true` if `bytes` starts with the compressed-blob magic.
pub fn is_compressed_blob(bytes: &[u8]) -> bool {
    bytes.len() >= 8 && &bytes[..8] == BLOB_MAGIC
}

// ---------------------------------------------------------------------------
// Bitpacked zigzag deltas.
// ---------------------------------------------------------------------------

#[inline]
fn zigzag(d: i64) -> u64 {
    ((d << 1) ^ (d >> 63)) as u64
}

#[inline]
fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// Appends `count u64` + bitpacked zigzag-delta blocks of `values` to `out`.
fn pack_deltas(values: impl ExactSizeIterator<Item = u64>, out: &mut Vec<u8>) {
    out.extend_from_slice(&(values.len() as u64).to_le_bytes());
    let mut prev = 0u64;
    let mut block = [0u64; BLOCK];
    let mut fill = 0usize;
    let flush = |block: &[u64], out: &mut Vec<u8>| {
        let width = block
            .iter()
            .map(|z| 64 - z.leading_zeros())
            .max()
            .unwrap_or(0) as u8;
        out.push(width);
        let mut acc = 0u128;
        let mut bits = 0u32;
        for &z in block {
            acc |= (z as u128) << bits;
            bits += width as u32;
            while bits >= 8 {
                out.push(acc as u8);
                acc >>= 8;
                bits -= 8;
            }
        }
        if bits > 0 {
            out.push(acc as u8);
        }
    };
    for v in values {
        block[fill] = zigzag(v.wrapping_sub(prev) as i64);
        prev = v;
        fill += 1;
        if fill == BLOCK {
            flush(&block, out);
            fill = 0;
        }
    }
    if fill > 0 {
        flush(&block[..fill], out);
    }
}

/// Decodes a [`pack_deltas`] stream, invoking `emit(index, value)` for each
/// reconstructed value. Fails cleanly on truncated or nonsense input.
fn unpack_deltas(src: &[u8], mut emit: impl FnMut(usize, u64)) -> io::Result<()> {
    let count = u64::from_le_bytes(
        src.get(..8)
            .ok_or_else(|| bad("delta stream shorter than its count"))?
            .try_into()
            .unwrap(),
    ) as usize;
    let mut pos = 8usize;
    let mut prev = 0u64;
    let mut done = 0usize;
    while done < count {
        let n = (count - done).min(BLOCK);
        let width =
            *src.get(pos)
                .ok_or_else(|| bad("delta stream truncated at a block header"))? as u32;
        pos += 1;
        if width > 64 {
            return Err(bad("delta block claims more than 64 bits per value"));
        }
        let nbytes = (n as u64 * width as u64).div_ceil(8) as usize;
        let packed = src
            .get(pos..pos + nbytes)
            .ok_or_else(|| bad("delta stream truncated inside a block"))?;
        pos += nbytes;
        let mut acc = 0u128;
        let mut bits = 0u32;
        let mut byte = 0usize;
        let mask = if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        for i in 0..n {
            while bits < width {
                acc |= (packed[byte] as u128) << bits;
                byte += 1;
                bits += 8;
            }
            let z = (acc as u64) & mask;
            acc >>= width;
            bits -= width;
            prev = prev.wrapping_add(unzigzag(z) as u64);
            emit(done + i, prev);
        }
        done += n;
    }
    if pos != src.len() {
        return Err(bad("delta stream has trailing bytes"));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Whole-container framing.
// ---------------------------------------------------------------------------

/// Compresses a complete container image (e.g. one `LBESLM2` chunk blob)
/// into the `LBEZCHK1` frame. `magic` is the container's expected magic.
///
/// Deterministic: identical input bytes produce identical output bytes. A
/// section whose delta encoding does not beat raw is stored raw, so the
/// frame never exceeds `raw.len()` by more than the fixed per-section
/// overhead.
pub fn compress_container(raw: &[u8], magic: &[u8; 8]) -> io::Result<Vec<u8>> {
    let container = ParsedContainer::parse(raw, 0, None, magic)?;
    let sections = container.sections().to_vec();
    let prefix_len = sections
        .iter()
        .map(|s| s.offset)
        .min()
        .unwrap_or(raw.len() as u64) as usize;
    if prefix_len > raw.len() {
        return Err(bad("section offset beyond the container"));
    }

    let mut out = Vec::with_capacity(raw.len() / 2 + FRAME_HEADER_LEN);
    out.extend_from_slice(BLOB_MAGIC);
    out.extend_from_slice(&(raw.len() as u64).to_le_bytes());
    out.extend_from_slice(&(prefix_len as u64).to_le_bytes());
    out.extend_from_slice(&crc32(raw).to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    out.extend_from_slice(&raw[..prefix_len]);

    for s in &sections {
        let payload = raw
            .get(s.offset as usize..(s.offset + s.len) as usize)
            .ok_or_else(|| bad("section payload beyond the container"))?;
        let (scheme, enc) = encode_section(&s.name, payload);
        out.push(scheme);
        out.extend_from_slice(&(enc.len() as u64).to_le_bytes());
        out.extend_from_slice(&enc);
    }
    Ok(out)
}

/// Encodes one section payload, choosing the scheme by section name and
/// falling back to raw whenever the delta stream is not strictly smaller.
fn encode_section(name: &[u8; 8], payload: &[u8]) -> (u8, Vec<u8>) {
    let try_delta = |out: &mut Vec<u8>| -> Option<u8> {
        if (*name == SEC_POSTINGS || *name == SEC_BINPTR) && payload.len().is_multiple_of(4) {
            pack_deltas(
                payload
                    .chunks_exact(4)
                    .map(|c| u32::from_le_bytes(c.try_into().unwrap()) as u64),
                out,
            );
            Some(SCHEME_DELTA_U32)
        } else if (*name == SEC_BINOFFS || *name == SEC_BINMAP) && payload.len().is_multiple_of(8) {
            pack_deltas(
                payload
                    .chunks_exact(8)
                    .map(|c| u64::from_le_bytes(c.try_into().unwrap())),
                out,
            );
            Some(SCHEME_DELTA_U64)
        } else {
            None
        }
    };
    let mut enc = Vec::new();
    match try_delta(&mut enc) {
        Some(scheme) if enc.len() < payload.len() => (scheme, enc),
        _ => (SCHEME_RAW, payload.to_vec()),
    }
}

/// Decompresses an `LBEZCHK1` frame back to the byte-exact original
/// container, aligned for zero-copy parsing. `magic` is the expected inner
/// container magic. Any corruption — in the frame, the prefix, or a delta
/// stream — fails with `InvalidData`; the stored CRC-32 of the raw bytes
/// is always re-verified, so no corrupt reconstruction can escape.
pub fn decompress_container(enc: &[u8], magic: &[u8; 8]) -> io::Result<AlignedBuf> {
    if enc.len() < FRAME_HEADER_LEN {
        return Err(bad("compressed blob shorter than its header"));
    }
    if &enc[..8] != BLOB_MAGIC {
        return Err(bad("not a compressed chunk blob"));
    }
    let raw_len = u64::from_le_bytes(enc[8..16].try_into().unwrap());
    let prefix_len = u64::from_le_bytes(enc[16..24].try_into().unwrap());
    let raw_crc = u32::from_le_bytes(enc[24..28].try_into().unwrap());
    let n_sections = u32::from_le_bytes(enc[28..32].try_into().unwrap()) as usize;
    if raw_len > (enc.len() as u64).saturating_mul(MAX_INFLATION) {
        return Err(bad("compressed blob claims an implausible raw length"));
    }
    let raw_len = raw_len as usize;
    if prefix_len > raw_len as u64 {
        return Err(bad("blob prefix longer than the container it frames"));
    }
    let prefix_len = prefix_len as usize;
    let prefix = enc
        .get(FRAME_HEADER_LEN..FRAME_HEADER_LEN + prefix_len)
        .ok_or_else(|| bad("compressed blob truncated inside its prefix"))?;

    let mut raw = AlignedBuf::zeroed(raw_len);
    raw.as_mut_slice()[..prefix_len].copy_from_slice(prefix);

    // The prefix holds the header + checksummed section table; parsing it
    // yields every payload's (offset, len) before any payload exists (the
    // zeroed tail is never read here).
    let container = ParsedContainer::parse(raw.as_slice(), 0, None, magic)?;
    let sections = container.sections().to_vec();
    if sections.len() != n_sections {
        return Err(bad("blob section count disagrees with the table"));
    }

    let mut pos = FRAME_HEADER_LEN + prefix_len;
    for s in &sections {
        let scheme = *enc
            .get(pos)
            .ok_or_else(|| bad("compressed blob truncated at a section scheme"))?;
        let enc_len = u64::from_le_bytes(
            enc.get(pos + 1..pos + 9)
                .ok_or_else(|| bad("compressed blob truncated at a section length"))?
                .try_into()
                .unwrap(),
        ) as usize;
        pos += 9;
        let payload = enc
            .get(pos..pos + enc_len)
            .ok_or_else(|| bad("compressed blob truncated inside a section"))?;
        pos += enc_len;
        let (off, len) = (s.offset as usize, s.len as usize);
        if off.checked_add(len).is_none_or(|end| end > raw_len) || off < prefix_len {
            return Err(bad("section payload outside the container"));
        }
        let dst = &mut raw.as_mut_slice()[off..off + len];
        match scheme {
            SCHEME_RAW => {
                if enc_len != len {
                    return Err(bad("raw section length mismatch"));
                }
                dst.copy_from_slice(payload);
            }
            SCHEME_DELTA_U32 => {
                if !len.is_multiple_of(4) {
                    return Err(bad("u32 section length is not a whole value count"));
                }
                let mut wrote = 0usize;
                unpack_deltas(payload, |i, v| {
                    if let Some(c) = dst.get_mut(i * 4..i * 4 + 4) {
                        c.copy_from_slice(&(v as u32).to_le_bytes());
                        wrote += 1;
                    }
                })?;
                if wrote != len / 4 {
                    return Err(bad("u32 delta stream count mismatch"));
                }
            }
            SCHEME_DELTA_U64 => {
                if !len.is_multiple_of(8) {
                    return Err(bad("u64 section length is not a whole value count"));
                }
                let mut wrote = 0usize;
                unpack_deltas(payload, |i, v| {
                    if let Some(c) = dst.get_mut(i * 8..i * 8 + 8) {
                        c.copy_from_slice(&v.to_le_bytes());
                        wrote += 1;
                    }
                })?;
                if wrote != len / 8 {
                    return Err(bad("u64 delta stream count mismatch"));
                }
            }
            _ => return Err(bad("unknown section compression scheme")),
        }
    }
    if pos != enc.len() {
        return Err(bad("compressed blob has trailing bytes"));
    }
    if crc32(raw.as_slice()) != raw_crc {
        return Err(bad("decompressed container fails its checksum"));
    }
    Ok(raw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IndexBuilder;
    use crate::config::SlmConfig;
    use crate::io::MAGIC_V2;
    use lbe_bio::mods::ModSpec;
    use lbe_bio::peptide::{Peptide, PeptideDb};

    fn v2_blob(seqs: &[&str]) -> Vec<u8> {
        let db = PeptideDb::from_vec(
            seqs.iter()
                .map(|s| Peptide::new(s.as_bytes(), 0, 0).unwrap())
                .collect(),
        );
        let idx = IndexBuilder::new(SlmConfig::default(), ModSpec::none()).build(&db);
        let mut buf = Vec::new();
        crate::io::write_index(&mut buf, &idx).unwrap();
        buf
    }

    #[test]
    fn roundtrip_is_byte_exact() {
        let raw = v2_blob(&["PEPTIDEK", "ELVISLIVESK", "SAMPLERK", "GGGGGK"]);
        let enc = compress_container(&raw, MAGIC_V2).unwrap();
        let dec = decompress_container(&enc, MAGIC_V2).unwrap();
        assert_eq!(dec.as_slice(), &raw[..]);
    }

    #[test]
    fn compression_shrinks_real_blobs() {
        let seqs: Vec<String> = (0..120)
            .map(|i| {
                format!(
                    "PEPT{}DEK",
                    ["A", "C", "D", "E", "F"][i % 5].repeat(i % 6 + 1)
                )
            })
            .collect();
        let refs: Vec<&str> = seqs.iter().map(String::as_str).collect();
        let raw = v2_blob(&refs);
        let enc = compress_container(&raw, MAGIC_V2).unwrap();
        assert!(
            enc.len() < raw.len(),
            "expected shrinkage: {} -> {}",
            raw.len(),
            enc.len()
        );
        let dec = decompress_container(&enc, MAGIC_V2).unwrap();
        assert_eq!(dec.as_slice(), &raw[..]);
    }

    #[test]
    fn empty_index_roundtrips() {
        let raw = v2_blob(&[]);
        let enc = compress_container(&raw, MAGIC_V2).unwrap();
        let dec = decompress_container(&enc, MAGIC_V2).unwrap();
        assert_eq!(dec.as_slice(), &raw[..]);
    }

    #[test]
    fn deterministic_encoding() {
        let raw = v2_blob(&["PEPTIDEK", "ELVISLIVESK"]);
        assert_eq!(
            compress_container(&raw, MAGIC_V2).unwrap(),
            compress_container(&raw, MAGIC_V2).unwrap()
        );
    }

    #[test]
    fn truncation_fails_cleanly() {
        let raw = v2_blob(&["PEPTIDEK", "ELVISLIVESK"]);
        let enc = compress_container(&raw, MAGIC_V2).unwrap();
        for cut in [0, 7, 31, enc.len() / 2, enc.len() - 1] {
            let err = decompress_container(&enc[..cut], MAGIC_V2).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut at {cut}");
        }
    }

    #[test]
    fn bit_flips_fail_cleanly_or_not_at_all() {
        let raw = v2_blob(&["PEPTIDEK", "ELVISLIVESK", "SAMPLERK"]);
        let enc = compress_container(&raw, MAGIC_V2).unwrap();
        for pos in (0..enc.len()).step_by(17) {
            let mut bent = enc.clone();
            bent[pos] ^= 0x10;
            match decompress_container(&bent, MAGIC_V2) {
                Ok(dec) => assert_eq!(dec.as_slice(), &raw[..], "flip at {pos}"),
                Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "flip at {pos}"),
            }
        }
    }

    #[test]
    fn delta_codec_handles_adversarial_value_streams() {
        // Wrapping deltas are a bijection: any u64 stream round-trips,
        // including descending and extreme values.
        let streams: Vec<Vec<u64>> = vec![
            vec![],
            vec![0],
            vec![u64::MAX],
            vec![u64::MAX, 0, u64::MAX, 1, u64::MAX / 2],
            (0..1000).rev().collect(),
            (0..500).map(|i| i * i * 31).collect(),
        ];
        for vals in streams {
            let mut enc = Vec::new();
            pack_deltas(vals.iter().copied(), &mut enc);
            let mut out = vec![0u64; vals.len()];
            unpack_deltas(&enc, |i, v| out[i] = v).unwrap();
            assert_eq!(out, vals);
        }
    }
}
