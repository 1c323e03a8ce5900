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
//! "binmap"    zigzag-delta u64, which only pays through its width-0 blocks:
//!             128 all-zero bitmap words (81.92 Da of axis no fragment of
//!             the chunk reaches) pack to one byte. A light chunk's bitmap
//!             shrinks several-fold; a chunk spanning the axis stays raw
//! "entries", "config", "flags"   raw
//! ```
//!
//! Any section whose delta stream is not strictly smaller falls back to
//! raw. Decompression reconstructs the **byte-exact** original container,
//! so every consumer downstream of the fault path — parsing, validation,
//! search — runs the unchanged v2 machinery and stays bit-identical to an
//! uncompressed load.
//!
//! # Decoding: one pass to decode, one to checksum
//!
//! **Each section is checksummed as it is decoded.** The decoder writes a
//! section into its place in the aligned arena and, right after the last
//! byte — while the section is still in cache — takes its CRC-32 once. That
//! one number is compared with the CRC the container's own section table
//! records *and* folded (`format::crc32_combine`) into the CRC of the whole
//! image, which at the end must equal the frame's `raw_crc`. So a frame is
//! held to both authorities it carries — table and frame — by a single
//! checksum walk, and what comes out is a `format::VerifiedImage` the
//! chunk-fault path parses, and names by content hash, without reading the
//! bytes again.
//!
//! The delta decoder works a 128-value block at a time, straight into the
//! destination words. A width-0 block (all deltas zero — most of a light
//! chunk's bitmap) is a fill. A full block of width `B` runs a kernel
//! monomorphised on `B`, picked by one `match` on the width byte: eight
//! values of `B` bits fill exactly `B` bytes, so the block is 16 groups of
//! 8 in which every load offset, shift and mask is a constant — one 8-byte
//! load per value up to 56 bits, one 16-byte load from 57 to 64. Wide
//! blocks are no corner case: a bitmap word's delta is effectively random,
//! so most non-empty blocks of a real chunk's `binmap` are 57–64 bits wide.
//! Partial blocks, and full ones too close to the end of the stream for the
//! kernel's loads, take guarded paths. The arena is not cleared first: the
//! decoder writes every section byte and `fill_and_verify` zeroes the
//! padding between them. The encoded format is what it always was.
//!
//! **Tiers.** Those kernels add one value at a time into a `u64` chain,
//! which does not vectorise. On an x86-64 CPU with AVX2 (detected at run
//! time — `Tier::detect`, once per frame — as `format`'s CRC kernels are),
//! a full `u32` block of width ≤ 25 runs the `avx2` kernel instead: each
//! such value lies within 4 bytes, so 8 values are one register — a byte
//! gather (`pshufb`), a per-lane shift and mask that yield the zigzag step
//! directly, a prefix sum within the register, then the running carry. A
//! `u32` sum has the low 32 bits of the `u64` chain, so every output byte
//! is the portable kernels'. Every `u32` block of a `serve_paged` store is
//! 2–14 bits wide; wider blocks, `u64` blocks, partial blocks and blocks
//! near the stream's end keep the paths above, which also stay the whole
//! decoder on other CPUs and the twin the tests hold the vector kernel to.
//! Over every `u32` stream of a `serve_paged` store, in cache, the vector
//! kernel takes ≈ 0.65 cycles a value against the portable ≈ 1.4 (2.1 GHz
//! TSC cycles); per fault (≈ 70 k values) ≈ 90 k cycles became ≈ 45 k.
//! What bounds it is its ≈ 15 vector operations per 8 values, not the
//! running carry: only one lane shuffle and one add sit in the
//! loop-carried chain.
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
//! input can overflow it — and corrupt *encoded* streams fail a length
//! check or a CRC instead of panicking.

use crate::format::{crc32, AlignedBuf, ParsedContainer, VerifiedImage};
use crate::io::{SEC_BINMAP, SEC_BINPTR, SEC_POSTINGS};
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

/// Reconstructs one value from its zigzag delta and stores its low `W`
/// bytes, little-endian, in `slot` (`slot.len() == W`).
#[inline(always)]
fn put_value<const W: usize>(prev: &mut u64, z: u64, slot: &mut [u8]) {
    *prev = prev.wrapping_add(unzigzag(z) as u64);
    slot.copy_from_slice(&prev.to_le_bytes()[..W]);
}

/// Bytes a value of `width` bits is read from by the full-block kernels:
/// it starts at most 7 bits into its first byte, so 7 + 56 bits fit one
/// 8-byte load and 7 + 64 one 16-byte load.
const fn load_bytes(width: usize) -> usize {
    if width <= 56 {
        8
    } else {
        16
    }
}

/// How many bytes from a full block's first packed byte its kernel reads:
/// up to the end of the last value's load, which runs past the block's own
/// `16 · width` bytes into whatever follows it in the stream.
const fn kernel_span(width: usize) -> usize {
    15 * width + 7 * width / 8 + load_bytes(width)
}

/// The full-block kernel for width `B` (1–64): 128 values as 16 groups of
/// 8, since 8 values of `B` bits fill exactly `B` bytes. Within a group
/// value `j` starts at bit `j·B`, so every load offset, shift and mask is a
/// constant of the monomorphised kernel. `packed` holds at least
/// [`kernel_span`]`(B)` bytes and `block` is `BLOCK · W` bytes, so one
/// slice per group is the only bounds check left.
#[inline(always)]
fn full_block<const B: usize, const W: usize>(packed: &[u8], block: &mut [u8], prev: &mut u64) {
    let mask = u64::MAX >> (64 - B);
    let span = 7 * B / 8 + load_bytes(B);
    for (g, out) in block.chunks_exact_mut(8 * W).enumerate() {
        let group = &packed[g * B..g * B + span];
        for j in 0..8 {
            let (at, shift) = (j * B / 8, j * B % 8);
            let z = if B <= 56 {
                u64::from_le_bytes(group[at..at + 8].try_into().unwrap()) >> shift
            } else {
                (u128::from_le_bytes(group[at..at + 16].try_into().unwrap()) >> shift) as u64
            };
            put_value::<W>(prev, z & mask, &mut out[j * W..(j + 1) * W]);
        }
    }
}

/// Runs the [`full_block`] kernel of `width` (1–64) — one `match`, so the
/// width is a constant inside every kernel.
fn decode_full_block<const W: usize>(
    width: usize,
    packed: &[u8],
    block: &mut [u8],
    prev: &mut u64,
) {
    macro_rules! by_width {
        ($($b:literal)*) => {
            match width {
                $($b => full_block::<$b, W>(packed, block, prev),)*
                _ => unreachable!("block width {width} was checked to be 1..=64"),
            }
        };
    }
    by_width!(
        1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32
        33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56 57 58 59 60 61
        62 63 64
    )
}

/// The AVX2 tier of the `u32` full-block kernel (see the module docs): a
/// value of up to [`MAX_WIDTH`](avx2::MAX_WIDTH) bits starts at most 7 bits
/// into its first byte, so it lies within 4 bytes, and a group of 8 values
/// is one register of 8 dwords — a byte gather, a per-lane shift, a mask,
/// the zigzag step and an in-register prefix sum plus the running carry.
/// The sums are `u32`, which give the low 32 bits of the scalar `u64`
/// chain exactly, so every stored byte is [`full_block`]'s.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_and_si256, _mm256_broadcastsi128_si256,
        _mm256_castsi128_si256, _mm256_cmpeq_epi32, _mm256_cvtsi256_si32, _mm256_inserti128_si256,
        _mm256_loadu_si256, _mm256_permute2x128_si256, _mm256_permutevar8x32_epi32,
        _mm256_set1_epi32, _mm256_shuffle_epi32, _mm256_shuffle_epi8, _mm256_slli_si256,
        _mm256_srlv_epi32, _mm256_storeu_si256, _mm256_xor_si256, _mm_loadu_si128,
    };

    /// Widest block the kernel decodes: 7 + 25 bits fit one dword.
    pub(super) const MAX_WIDTH: usize = 25;

    /// Up to this width a group's 8 values lie in its first 16 bytes (value
    /// 7's 4 bytes start at byte `⌊7·B/8⌋ ≤ 12`), so one 16-byte load
    /// broadcast to both halves feeds them all; wider groups load their
    /// upper half from `⌊B/2⌋` bytes in.
    const ONE_LOAD_WIDTH: usize = 14;

    /// Proof that this CPU has AVX2: only [`detect`] makes one.
    #[derive(Debug, Clone, Copy)]
    pub(super) struct Avx2(());

    /// [`Avx2`], if this CPU has it.
    pub(super) fn detect() -> Option<Avx2> {
        is_x86_feature_detected!("avx2").then_some(Avx2(()))
    }

    /// Bytes from a full block's first packed byte the kernel reads: the
    /// last group starts at `15·B` and its upper half's 16-byte load at
    /// `⌊B/2⌋` past that.
    pub(super) const fn span(width: usize) -> usize {
        15 * width + width / 2 + 16
    }

    /// Per width, the byte gather and the shifts of one group. Value `j`
    /// starts at bit `j·B`, `s = j·B mod 8` bits into its first byte; its 4
    /// bytes land in dword `j`, counted within its 128-bit half from the
    /// byte that half was loaded from. Zigzag `z` is then the `B` bits from
    /// bit `s`, and the kernel takes its two parts straight from the
    /// dword: `z >> 1` is `B − 1` bits from `s + 1` (`half_shift`,
    /// `half_mask`), and `−(z & 1)` is whether bit `s` (`low_bit`) is set.
    #[derive(Clone, Copy)]
    #[repr(C, align(32))]
    struct Layout {
        gather: [u8; 32],
        half_shift: [u32; 8],
        half_mask: [u32; 8],
        low_bit: [u32; 8],
    }

    const fn layout(width: usize) -> Layout {
        let mut l = Layout {
            gather: [0; 32],
            half_shift: [0; 8],
            half_mask: [0; 8],
            low_bit: [0; 8],
        };
        if width == 0 {
            return l;
        }
        let upper = if width <= ONE_LOAD_WIDTH {
            0
        } else {
            width / 2
        };
        let mut j = 0;
        while j < 8 {
            let (at, base) = (j * width / 8, if j < 4 { 0 } else { upper });
            let mut k = 0;
            while k < 4 {
                l.gather[4 * j + k] = (at - base + k) as u8;
                k += 1;
            }
            let bit = (j * width % 8) as u32;
            l.half_shift[j] = bit + 1;
            l.half_mask[j] = ((1u64 << (width - 1)) - 1) as u32;
            l.low_bit[j] = 1 << bit;
            j += 1;
        }
        l
    }

    static LAYOUTS: [Layout; MAX_WIDTH + 1] = {
        let mut t = [layout(0); MAX_WIDTH + 1];
        let mut w = 1;
        while w <= MAX_WIDTH {
            t[w] = layout(w);
            w += 1;
        }
        t
    };

    /// A 32-byte [`Layout`] field, as a register.
    #[inline(always)]
    fn lanes<T>(field: &T) -> __m256i {
        const { assert!(std::mem::size_of::<T>() == 32) };
        // SAFETY: `field` is a 32-byte field of a `Layout`, readable in
        // full, and `loadu` has no alignment requirement; AVX is implied by
        // the AVX2 every caller is compiled for.
        unsafe { _mm256_loadu_si256((field as *const T).cast()) }
    }

    /// Decodes the run of full blocks at the head of `stream` (each a width
    /// byte and its packed bytes) into the 128-`u32` blocks at the head of
    /// `dst`, while `dst` has a whole block left and the next block is 1–
    /// [`MAX_WIDTH`] bits wide with its loads inside `stream` ([`span`]).
    /// `prev` is the running value, whose low 32 bits are all a `u32` word
    /// keeps. Returns the bytes of `stream` and of `dst` it used; the
    /// caller's paths take whatever follows, and report any damage.
    pub(super) fn decode_run(
        _: Avx2,
        stream: &[u8],
        dst: &mut [u8],
        prev: &mut u64,
    ) -> (usize, usize) {
        // SAFETY: an `Avx2` exists only where `detect` found the feature.
        unsafe { run(stream, dst, prev) }
    }

    /// [`decode_run`]'s body: one block after another with the running
    /// value kept in a register. Calling it is `unsafe` unless the CPU has
    /// AVX2.
    #[target_feature(enable = "avx2")]
    fn run(stream: &[u8], dst: &mut [u8], prev: &mut u64) -> (usize, usize) {
        const BLOCK_BYTES: usize = super::BLOCK * 4;
        let dword7 = _mm256_set1_epi32(7);
        let mut carry = _mm256_set1_epi32(*prev as u32 as i32);
        let (mut used, mut done) = (0usize, 0usize);
        while dst.len() - done >= BLOCK_BYTES {
            let Some(&width) = stream.get(used) else {
                break;
            };
            let (width, packed) = (width as usize, &stream[used + 1..]);
            if !(1..=MAX_WIDTH).contains(&width) || packed.len() < span(width) {
                break;
            }
            let l = &LAYOUTS[width];
            let gather = lanes(&l.gather);
            let (half_shift, half_mask) = (lanes(&l.half_shift), lanes(&l.half_mask));
            let low_bit = lanes(&l.low_bit);
            let (from, to) = (packed.as_ptr(), dst[done..done + BLOCK_BYTES].as_mut_ptr());
            // One group: its bytes in, its 8 words out, the carry on.
            macro_rules! group {
                ($g:expr, $bytes:expr) => {{
                    // The zigzag step, (z >> 1) ^ −(z & 1), from the
                    // gathered dwords.
                    let dwords = _mm256_shuffle_epi8($bytes, gather);
                    let d = _mm256_xor_si256(
                        _mm256_and_si256(_mm256_srlv_epi32(dwords, half_shift), half_mask),
                        _mm256_cmpeq_epi32(_mm256_and_si256(dwords, low_bit), low_bit),
                    );
                    // Prefix sum within each half, then the lower half's
                    // total (its last word, moved up a half, zeros below)
                    // into the upper half, then the running carry, which
                    // becomes the last word.
                    let d = _mm256_add_epi32(d, _mm256_slli_si256::<4>(d));
                    let d = _mm256_add_epi32(d, _mm256_slli_si256::<8>(d));
                    let totals = _mm256_shuffle_epi32::<0xFF>(d);
                    let low_total = _mm256_permute2x128_si256::<0x08>(totals, totals);
                    let out = _mm256_add_epi32(_mm256_add_epi32(d, low_total), carry);
                    // SAFETY: `to` is a 512-byte block of `dst` (the loop
                    // condition), so group `g`'s 32 bytes at `32·g` are in
                    // bounds; `storeu` needs no alignment.
                    unsafe { _mm256_storeu_si256(to.add(32 * $g).cast(), out) };
                    carry = _mm256_permutevar8x32_epi32(out, dword7);
                }};
            }
            if width <= ONE_LOAD_WIDTH {
                for g in 0..16 {
                    let at = g * width;
                    // SAFETY: the load ends at `15·B + 16` at most, inside
                    // `packed`, which holds [`span`] bytes (checked above);
                    // `loadu` has no alignment requirement.
                    let bytes = unsafe {
                        _mm256_broadcastsi128_si256(_mm_loadu_si128(from.add(at).cast()))
                    };
                    group!(g, bytes);
                }
            } else {
                let upper = width / 2;
                for g in 0..16 {
                    let at = g * width;
                    // SAFETY: the loads end at `15·B + ⌊B/2⌋ + 16` =
                    // [`span`] at most, inside `packed` (checked above);
                    // `loadu` has no alignment requirement.
                    let bytes = unsafe {
                        _mm256_inserti128_si256::<1>(
                            _mm256_castsi128_si256(_mm_loadu_si128(from.add(at).cast())),
                            _mm_loadu_si128(from.add(at + upper).cast()),
                        )
                    };
                    group!(g, bytes);
                }
            }
            used += 1 + 16 * width;
            done += BLOCK_BYTES;
        }
        if done > 0 {
            *prev = _mm256_cvtsi256_si32(carry) as u32 as u64;
        }
        (used, done)
    }
}

/// The kernels [`unpack_deltas`] may run: the [`avx2`] one on a CPU that
/// has it, or the portable ones alone.
#[derive(Debug, Clone, Copy)]
struct Tier {
    #[cfg(target_arch = "x86_64")]
    avx2: Option<avx2::Avx2>,
}

impl Tier {
    /// The portable kernels, on any CPU: the twin the tests hold the
    /// vector kernel to.
    #[cfg(test)]
    const PORTABLE: Tier = Tier {
        #[cfg(target_arch = "x86_64")]
        avx2: None,
    };

    /// The widest kernels this CPU runs (detected at run time; the standard
    /// library caches the answer).
    fn detect() -> Tier {
        Tier {
            #[cfg(target_arch = "x86_64")]
            avx2: avx2::detect(),
        }
    }
}

/// Decodes a [`pack_deltas`] stream of exactly `dst.len() / W` values
/// straight into `dst` as `W`-byte little-endian words (`W` = 4 or 8), a
/// block at a time. Fails cleanly on a count that is not the destination's,
/// on truncated or trailing bytes and on nonsense widths; no input can make
/// it read or write out of bounds.
///
/// Per block: width **0** is a fill (every delta is zero — 128 empty bitmap
/// words, a run of equal offsets). On a CPU with AVX2 (`tier`), each run
/// of full `u32` blocks of width 1–25 whose loads stay inside the stream
/// ([`avx2::span`]) goes to the [`avx2`] kernel in one call. Any other full
/// block whose kernel's loads stay inside the stream — one length check
/// per block, [`kernel_span`] —
/// runs the [`full_block`] kernel of its width, 1–64: constant offsets,
/// shifts and masks, one 8-byte load per value up to 56 bits and one
/// 16-byte load from 57 (a value starts at most 7 bits into its first
/// byte). Wide blocks are the common case of a `binmap` stream, whose
/// dense words delta to effectively random values. The loads run on into
/// the bytes of the *next* block, which are in the slice anyway.
///
/// The rest — partial blocks, and a full block too close to the stream's
/// end — takes the guarded paths. **1–56**: the same 8-byte load per value
/// while it fits, then, for the values starting within 8 bytes of the end,
/// a single zero-padded load that serves them all. **57–64**: a
/// byte-at-a-time `u128` accumulator.
///
/// `tier` is the kernels it may run ([`Tier::detect`] on a fault).
fn unpack_deltas<const W: usize>(src: &[u8], dst: &mut [u8], tier: Tier) -> io::Result<()> {
    #[cfg(not(target_arch = "x86_64"))]
    let _ = tier;
    if !dst.len().is_multiple_of(W) {
        return Err(bad("delta section length is not a whole value count"));
    }
    let count = u64::from_le_bytes(
        src.get(..8)
            .ok_or_else(|| bad("delta stream shorter than its count"))?
            .try_into()
            .unwrap(),
    );
    if count != (dst.len() / W) as u64 {
        return Err(bad("delta stream count mismatch"));
    }
    let mut pos = 8usize;
    let mut prev = 0u64;
    let mut at = 0usize;
    while at < dst.len() {
        #[cfg(target_arch = "x86_64")]
        if let (4, Some(token)) = (W, tier.avx2) {
            let (used, done) = avx2::decode_run(token, &src[pos..], &mut dst[at..], &mut prev);
            pos += used;
            at += done;
            if at == dst.len() {
                break;
            }
        }
        let end = (at + BLOCK * W).min(dst.len());
        let block = &mut dst[at..end];
        at += block.len();
        let n = block.len() / W;
        let width = *src
            .get(pos)
            .ok_or_else(|| bad("delta stream truncated at a block header"))?
            as usize;
        pos += 1;
        if width > 64 {
            return Err(bad("delta block claims more than 64 bits per value"));
        }
        let nbytes = (n * width).div_ceil(8);
        // From the block's first packed byte to the end of the stream.
        let window = &src[pos..];
        if window.len() < nbytes {
            return Err(bad("delta stream truncated inside a block"));
        }
        pos += nbytes;
        match width {
            0 => {
                let word = prev.to_le_bytes();
                for slot in block.chunks_exact_mut(W) {
                    slot.copy_from_slice(&word[..W]);
                }
            }
            _ if n == BLOCK && window.len() >= kernel_span(width) => {
                decode_full_block::<W>(width, window, block, &mut prev)
            }
            1..=56 => {
                let mask = (1u64 << width) - 1;
                // Value i starts in byte ⌊i·width/8⌋; its load fits the
                // window while that byte is at most `window.len() - 8`.
                let fits = match window.len().checked_sub(8) {
                    Some(last) => (8 * (last + 1)).div_ceil(width).min(n),
                    None => 0,
                };
                let (head, tail) = block.split_at_mut(fits * W);
                let mut bit = 0usize;
                for slot in head.chunks_exact_mut(W) {
                    let at = bit >> 3;
                    let word = u64::from_le_bytes(window[at..at + 8].try_into().unwrap());
                    put_value::<W>(&mut prev, (word >> (bit & 7)) & mask, slot);
                    bit += width;
                }
                if !tail.is_empty() {
                    // Fewer than 8 bytes remain from here to the end of the
                    // stream, and every remaining value lies inside them.
                    let rest = &window[bit >> 3..];
                    let mut padded = [0u8; 8];
                    padded[..rest.len()].copy_from_slice(rest);
                    let word = u64::from_le_bytes(padded);
                    let mut shift = bit & 7;
                    for slot in tail.chunks_exact_mut(W) {
                        put_value::<W>(&mut prev, (word >> shift) & mask, slot);
                        shift += width;
                    }
                }
            }
            _ => {
                let packed = &window[..nbytes];
                let mask = u64::MAX >> (64 - width);
                let mut acc = 0u128;
                let mut bits = 0usize;
                let mut byte = 0usize;
                for slot in block.chunks_exact_mut(W) {
                    while bits < width {
                        acc |= (packed[byte] as u128) << bits;
                        byte += 1;
                        bits += 8;
                    }
                    put_value::<W>(&mut prev, (acc as u64) & mask, slot);
                    acc >>= width;
                    bits -= width;
                }
            }
        }
    }
    if pos != src.len() {
        return Err(bad("delta stream has trailing bytes"));
    }
    Ok(())
}

/// The value-at-a-time decoder [`unpack_deltas`] replaced, kept as the
/// reference its tests hold the block decoder to: `emit(index, value)` per
/// reconstructed value, one byte of input at a time.
#[cfg(test)]
fn unpack_deltas_scalar(src: &[u8], mut emit: impl FnMut(usize, u64)) -> io::Result<()> {
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
        } else if *name == SEC_BINMAP && payload.len().is_multiple_of(8) {
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
/// stream — fails with `InvalidData`: every decoded section is checked
/// against the CRC its table records and the whole reconstruction against
/// the frame's `raw_crc`, so no corrupt reconstruction can escape.
pub fn decompress_container(enc: &[u8], magic: &[u8; 8]) -> io::Result<AlignedBuf> {
    decompress_verified(enc, magic, AlignedBuf::with_capacity(0)).map(VerifiedImage::into_arena)
}

/// [`decompress_container`], keeping the proof: the decoded image *as* a
/// [`VerifiedImage`], which is what the chunk-fault path parses and derives
/// the blob's content hash from without touching the bytes again.
///
/// Each section is checksummed as it is decoded — right after its last
/// byte is written, while it is still in cache — by
/// [`VerifiedImage::fill_and_verify`], which compares that CRC with the
/// section table's and folds it into the CRC of the whole image; the fold is
/// then compared with the frame's `raw_crc`. One decode pass and one
/// checksum pass over every byte, both checks the frame and the table can
/// offer.
///
/// The image is decoded into `into`'s allocation when that is large enough
/// (a chunk fault reuses the evicted chunk's buffer), which is not cleared
/// first: the decoder writes every section byte and
/// [`VerifiedImage::fill_and_verify`] zeroes every other byte the frame
/// does not carry, so nothing of the buffer's previous image survives.
pub(crate) fn decompress_verified(
    enc: &[u8],
    magic: &[u8; 8],
    into: AlignedBuf,
) -> io::Result<VerifiedImage> {
    decompress_verified_at(enc, magic, into, Tier::detect())
}

/// [`decompress_container`] with the delta decoder's portable kernels
/// alone, whatever the CPU: the twin the tests hold a fault's image to.
#[cfg(test)]
pub(crate) fn decompress_portable(enc: &[u8], magic: &[u8; 8]) -> io::Result<AlignedBuf> {
    decompress_verified_at(enc, magic, AlignedBuf::with_capacity(0), Tier::PORTABLE)
        .map(VerifiedImage::into_arena)
}

/// [`decompress_verified`] with the delta decoder's kernels `tier`.
fn decompress_verified_at(
    enc: &[u8],
    magic: &[u8; 8],
    mut into: AlignedBuf,
    tier: Tier,
) -> io::Result<VerifiedImage> {
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

    // The prefix holds the header + checksummed section table, which is all
    // `fill_and_verify` parses before asking for the first payload. The
    // arena is not cleared: the sections are decoded over it and
    // `fill_and_verify` zeroes the padding past the prefix, so every byte
    // of the image is written before it is checksummed.
    into.reset_for_overwrite(raw_len);
    into.as_mut_slice()[..prefix_len].copy_from_slice(prefix);

    let mut pos = FRAME_HEADER_LEN + prefix_len;
    let image = VerifiedImage::fill_and_verify(into, magic, prefix_len, |s, dst| {
        if (s.offset as usize) < prefix_len {
            return Err(bad("section payload outside the container"));
        }
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
        let payload = pos
            .checked_add(enc_len)
            .and_then(|end| enc.get(pos..end))
            .ok_or_else(|| bad("compressed blob truncated inside a section"))?;
        pos += enc_len;
        match scheme {
            SCHEME_RAW => {
                if enc_len != dst.len() {
                    return Err(bad("raw section length mismatch"));
                }
                dst.copy_from_slice(payload);
                Ok(())
            }
            SCHEME_DELTA_U32 => unpack_deltas::<4>(payload, dst, tier),
            SCHEME_DELTA_U64 => unpack_deltas::<8>(payload, dst, tier),
            _ => Err(bad("unknown section compression scheme")),
        }
    })?;
    if image.sections().len() != n_sections {
        return Err(bad("blob section count disagrees with the table"));
    }
    if pos != enc.len() {
        return Err(bad("compressed blob has trailing bytes"));
    }
    if image.crc() != raw_crc {
        return Err(bad("decompressed container fails its checksum"));
    }
    Ok(image)
}

/// Test support: where the parts of a well-formed frame lie — the byte range
/// of its prefix and, per section, the position of its record (`scheme u8`,
/// then `enc_len u64`) and the byte range of its encoded payload — for the
/// tests that damage each part in turn.
#[cfg(test)]
#[allow(clippy::type_complexity)]
pub(crate) fn frame_layout(
    enc: &[u8],
) -> (std::ops::Range<usize>, Vec<(usize, std::ops::Range<usize>)>) {
    let prefix_len = u64::from_le_bytes(enc[16..24].try_into().unwrap()) as usize;
    let n_sections = u32::from_le_bytes(enc[28..32].try_into().unwrap());
    let prefix = FRAME_HEADER_LEN..FRAME_HEADER_LEN + prefix_len;
    let mut pos = prefix.end;
    let sections = (0..n_sections)
        .map(|_| {
            let record = pos;
            let enc_len = u64::from_le_bytes(enc[pos + 1..pos + 9].try_into().unwrap()) as usize;
            pos += 9 + enc_len;
            (record, record + 9..pos)
        })
        .collect();
    assert_eq!(pos, enc.len(), "not a well-formed frame");
    (prefix, sections)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IndexBuilder;
    use crate::config::SlmConfig;
    use crate::io::MAGIC_V2;
    use lbe_bio::mods::ModSpec;
    use lbe_bio::peptide::{Peptide, PeptideDb};

    fn v2_blob<S: AsRef<str>>(seqs: &[S]) -> Vec<u8> {
        let db = PeptideDb::from_vec(
            seqs.iter()
                .map(|s| Peptide::new(s.as_ref().as_bytes(), 0, 0).unwrap())
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

    /// 120 peptides (30 distinct) — enough ions for a dense bitmap.
    fn real_peptides() -> Vec<String> {
        (0..120)
            .map(|i| {
                format!(
                    "PEPT{}DEK",
                    ["A", "C", "D", "E", "F"][i % 5].repeat(i % 6 + 1)
                )
            })
            .collect()
    }

    #[test]
    fn compression_shrinks_real_blobs() {
        let raw = v2_blob(&real_peptides());
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
        let raw = v2_blob::<&str>(&[]);
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

    /// A frame small enough to damage at *every* byte: one peptide at 1 Da
    /// bins (an 80-word bitmap), every section kind present, the delta
    /// sections a few blocks at most — so the cuts and flips below land in
    /// block headers, in the zero-padded tail loads and in the frame's own
    /// fields, not just in the bulk.
    fn small_frame() -> (Vec<u8>, Vec<u8>) {
        let db = PeptideDb::from_vec(vec![
            Peptide::new(b"PEPTIDEK", 0, 0).unwrap(),
            Peptide::new(b"ELVISLIVESK", 0, 0).unwrap(),
        ]);
        let cfg = SlmConfig {
            resolution: 1.0,
            fragment_tolerance: 0.5,
            ..SlmConfig::default()
        };
        let idx = IndexBuilder::new(cfg, ModSpec::none()).build(&db);
        let mut raw = Vec::new();
        crate::io::write_index(&mut raw, &idx).unwrap();
        let enc = compress_container(&raw, MAGIC_V2).unwrap();
        assert!(enc.len() < 1200, "{} bytes is not a small frame", enc.len());
        (raw, enc)
    }

    #[test]
    fn truncation_at_every_byte_of_a_small_frame_is_invalid_data() {
        let (raw, enc) = small_frame();
        assert_eq!(
            decompress_container(&enc, MAGIC_V2).unwrap().as_slice(),
            &raw[..]
        );
        for cut in 0..enc.len() {
            let err = decompress_container(&enc[..cut], MAGIC_V2).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut at {cut}");
        }
    }

    #[test]
    fn a_flip_at_every_17th_byte_of_a_small_frame_never_escapes() {
        let (raw, enc) = small_frame();
        for start in 0..17 {
            for pos in (start..enc.len()).step_by(17) {
                for bit in [0x01u8, 0x10, 0x80] {
                    let mut bent = enc.clone();
                    bent[pos] ^= bit;
                    match decompress_container(&bent, MAGIC_V2) {
                        Ok(dec) => assert_eq!(dec.as_slice(), &raw[..], "flip at {pos}"),
                        Err(e) => {
                            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "flip at {pos}")
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_frame_over_a_container_with_a_wrong_section_crc_does_not_decompress() {
        // `compress_container` frames whatever parses; the frame's own
        // `raw_crc` then vouches for those bytes. The decoder holds each
        // section to the *table* as well, so a container that no load would
        // accept does not come back out of a frame either.
        let raw = v2_blob(&["PEPTIDEK", "ELVISLIVESK"]);
        let mut bent = raw.clone();
        *bent.last_mut().unwrap() ^= 1; // inside "postings", the last section
        let enc = compress_container(&bent, MAGIC_V2).unwrap();
        let err = decompress_container(&enc, MAGIC_V2).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("postings"), "{err}");
    }

    /// Decodes `enc` with the block decoder into `W`-byte words and with
    /// the scalar reference, and requires the same verdict and values.
    fn both_decoders<const W: usize>(enc: &[u8], count: usize) -> io::Result<Vec<u64>> {
        let mut dst = vec![0xAAu8; count * W];
        let block = unpack_deltas::<W>(enc, &mut dst, Tier::detect());
        let mut reference = vec![0u64; count];
        let mut stray = false;
        let scalar = unpack_deltas_scalar(enc, |i, v| match reference.get_mut(i) {
            Some(slot) => *slot = v,
            None => stray = true,
        });
        let words: Vec<u64> = dst
            .chunks_exact(W)
            .map(|c| {
                let mut le = [0u8; 8];
                le[..W].copy_from_slice(c);
                u64::from_le_bytes(le)
            })
            .collect();
        match (block, scalar) {
            (Ok(()), Ok(())) => {
                assert!(!stray);
                let keep = if W == 8 { u64::MAX } else { u32::MAX as u64 };
                let reference: Vec<u64> = reference.iter().map(|v| v & keep).collect();
                assert_eq!(words, reference);
                Ok(words)
            }
            (Err(e), Err(_)) => Err(e),
            // The scalar decoder discovers a wrong count only by writing
            // past (or short of) the destination; the block decoder checks
            // it up front.
            (Err(e), Ok(())) => {
                assert!(e.to_string().contains("count"), "{e}");
                Err(e)
            }
            (Ok(()), Err(e)) => panic!("block decoder accepted what the reference rejects: {e}"),
        }
    }

    #[test]
    fn block_decoder_equals_the_scalar_reference_for_every_width_and_block_shape() {
        // Every width 0..=64 (the largest zigzag in a block sets it) × block
        // lengths around the 128-value block: one value, two, a block less
        // one, exactly one, one more, and two full blocks plus a tail.
        for width in 0..=64u32 {
            for len in [1usize, 2, 127, 128, 129, 300] {
                // Deltas whose zigzag has exactly `width` bits at least once
                // per block, smaller ones in between.
                let top = if width == 0 { 0 } else { 1u64 << (width - 1) };
                let mut v = 0u64;
                let values: Vec<u64> = (0..len)
                    .map(|i| {
                        let z = match i % 5 {
                            0 => top | (top.wrapping_sub(1) & 0x5555_5555_5555_5555),
                            1 => top,
                            2 => top >> 1,
                            3 => top.wrapping_sub(1) & (i as u64).wrapping_mul(0x9E37_79B9),
                            _ => 0,
                        };
                        v = v.wrapping_add(unzigzag(z) as u64);
                        v
                    })
                    .collect();
                let mut enc = Vec::new();
                pack_deltas(values.iter().copied(), &mut enc);
                assert!(
                    width == 0 || enc[8] as u32 == width,
                    "fixture width {} != {width}",
                    enc[8]
                );
                let got = both_decoders::<8>(&enc, len).unwrap();
                assert_eq!(got, values, "width {width}, len {len}");
                // The u32 scheme keeps the low word of the same stream.
                let low: Vec<u64> = values.iter().map(|v| v & u32::MAX as u64).collect();
                assert_eq!(both_decoders::<4>(&enc, len).unwrap(), low);
                // Wrong destination sizes and every truncation are typed.
                assert!(both_decoders::<8>(&enc, len + 1).is_err());
                assert!(both_decoders::<8>(&enc, len - 1).is_err());
                for cut in [enc.len() - 1, enc.len() / 2, 8, 7] {
                    let e = both_decoders::<8>(&enc[..cut], len).unwrap_err();
                    assert_eq!(e.kind(), io::ErrorKind::InvalidData);
                }
                enc.push(0);
                assert!(both_decoders::<8>(&enc, len).is_err(), "trailing byte");
            }
        }
        // A width byte past 64 is nonsense in either decoder.
        let mut enc = Vec::new();
        pack_deltas([1u64, 2, 3].into_iter(), &mut enc);
        enc[8] = 65;
        assert!(both_decoders::<8>(&enc, 3).is_err());
    }

    /// `len` zigzags whose largest has exactly `width` bits, varied below it
    /// (all zero at width 0).
    fn zigzags(width: u32, len: usize) -> Vec<u64> {
        let low = if width == 0 {
            0
        } else {
            u64::MAX >> (64 - width)
        };
        (0..len as u64)
            .map(|i| match i % 5 {
                0 => low,
                1 => low ^ (low >> 1),
                2 => low >> 1,
                3 => low & i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                _ => 0,
            })
            .collect()
    }

    /// The value stream whose zigzag deltas are `zs`.
    fn values_of(zs: &[u64]) -> Vec<u64> {
        let mut v = 0u64;
        zs.iter()
            .map(|&z| {
                v = v.wrapping_add(unzigzag(z) as u64);
                v
            })
            .collect()
    }

    /// The width byte of every block of a [`pack_deltas`] stream.
    fn block_widths(stream: &[u8]) -> Vec<u8> {
        let mut left = u64::from_le_bytes(stream[..8].try_into().unwrap()) as usize;
        let (mut pos, mut widths) = (8, Vec::new());
        while left > 0 {
            let n = left.min(BLOCK);
            widths.push(stream[pos]);
            pos += 1 + (n * stream[pos] as usize).div_ceil(8);
            left -= n;
        }
        assert_eq!(pos, stream.len());
        widths
    }

    /// Both decoders, both word sizes, against the values `stream` encodes.
    fn decodes_to(stream: &[u8], values: &[u64]) {
        assert_eq!(both_decoders::<8>(stream, values.len()).unwrap(), values);
        let low: Vec<u64> = values.iter().map(|v| v & u32::MAX as u64).collect();
        assert_eq!(both_decoders::<4>(stream, values.len()).unwrap(), low);
    }

    #[test]
    fn full_blocks_of_every_width_decode_on_both_sides_of_the_load_guards() {
        // One stream, a full block of every width in turn: each kernel's
        // loads run on into a block of another width.
        let zs: Vec<u64> = (0..=64).flat_map(|w| zigzags(w, BLOCK)).collect();
        let values = values_of(&zs);
        let mut enc = Vec::new();
        pack_deltas(values.iter().copied(), &mut enc);
        assert_eq!(block_widths(&enc), (0..=64).collect::<Vec<u8>>());
        decodes_to(&enc, &values);

        // Per width, one full block and then a tail of every length from 0
        // to 16 encoded bytes: nothing, a width-0 block (its header alone),
        // or a width-8 block of one to 15 values. The kernel needs
        // `kernel_span(width)` bytes from the block's start, so across the
        // tails the block sits on each side of its 8- or 16-byte load guard.
        for width in 0..=64u32 {
            let w = width as usize;
            if width > 0 {
                let slack = |tail: usize| 16 * w + tail >= kernel_span(w);
                assert!(!slack(0) && slack(16), "width {width}");
            }
            for tail in 0..=16usize {
                let mut zs = zigzags(width, BLOCK);
                match tail {
                    0 => {}
                    1 => zs.push(0),
                    _ => zs.extend((0..tail as u64 - 1).map(|i| 0x80 | i)),
                }
                let values = values_of(&zs);
                let mut enc = Vec::new();
                pack_deltas(values.iter().copied(), &mut enc);
                assert_eq!(
                    enc.len(),
                    8 + 1 + 16 * w + tail,
                    "width {width}, tail {tail}"
                );
                assert_eq!(enc[8] as u32, width);
                decodes_to(&enc, &values);
            }
        }
    }

    /// Decodes `enc` into `count` `W`-byte words with the widest kernels
    /// this CPU runs and with the portable ones alone, over the same dirty
    /// destination, and requires the same bytes or the same error.
    fn tiers_agree<const W: usize>(enc: &[u8], count: usize) {
        let mut wide = vec![0x5Au8; count * W];
        let mut portable = wide.clone();
        let a = unpack_deltas::<W>(enc, &mut wide, Tier::detect());
        let b = unpack_deltas::<W>(enc, &mut portable, Tier::PORTABLE);
        match (a, b) {
            (Ok(()), Ok(())) => assert!(wide == portable, "W {W}, {count} values"),
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "W {W}"),
            (a, b) => panic!("W {W}, {count} values: vector {a:?}, portable {b:?}"),
        }
    }

    #[test]
    fn the_vector_decoder_equals_the_portable_one_block_for_block_and_error_for_error() {
        if Tier::detect().avx2.is_none() {
            eprintln!("no AVX2 on this CPU: the vector decoder is not exercised");
            return;
        }
        for width in 0..=64u32 {
            let w = width as usize;
            // Partial and full blocks, and runs of full ones.
            for len in [1usize, 2, 100, 127, 128, 129, 256, 300, 3 * BLOCK] {
                let values = values_of(&zigzags(width, len));
                let mut enc = Vec::new();
                pack_deltas(values.iter().copied(), &mut enc);
                tiers_agree::<4>(&enc, len);
                tiers_agree::<8>(&enc, len);
                // Truncated, a count the destination does not hold, and a
                // trailing byte.
                for cut in [enc.len() - 1, enc.len() / 2, 9, 8, 3] {
                    tiers_agree::<4>(&enc[..cut], len);
                    tiers_agree::<8>(&enc[..cut], len);
                }
                tiers_agree::<4>(&enc, len + 1);
                tiers_agree::<4>(&enc, len - 1);
                let mut more = enc.clone();
                more[..8].copy_from_slice(&(len as u64 + 1).to_le_bytes());
                tiers_agree::<4>(&more, len + 1);
                more.clone_from(&enc);
                more.push(0);
                tiers_agree::<4>(&more, len);
                tiers_agree::<8>(&more, len);
            }
            // A full block and then every tail of 0–32 encoded bytes: the
            // block ends within either kernel's span of the stream's end,
            // on each side of its load guard.
            for tail in 0..=32usize {
                let mut zs = zigzags(width, BLOCK);
                match tail {
                    0 => {}
                    1 => zs.push(0),
                    _ => zs.extend((0..tail as u64 - 1).map(|i| 0x80 | (i & 0x7F))),
                }
                let values = values_of(&zs);
                let mut enc = Vec::new();
                pack_deltas(values.iter().copied(), &mut enc);
                assert_eq!(
                    enc.len(),
                    8 + 1 + 16 * w + tail,
                    "width {width}, tail {tail}"
                );
                tiers_agree::<4>(&enc, values.len());
                tiers_agree::<8>(&enc, values.len());
            }
        }
        // Whole frames: the vector decoder's image is the portable one's.
        for raw in [v2_blob(&real_peptides()), small_frame().0] {
            let enc = compress_container(&raw, MAGIC_V2).unwrap();
            assert_eq!(
                decompress_container(&enc, MAGIC_V2).unwrap().as_slice(),
                &raw[..]
            );
            assert_eq!(
                decompress_portable(&enc, MAGIC_V2).unwrap().as_slice(),
                &raw[..]
            );
        }
    }

    #[test]
    fn a_built_chunks_bitmap_is_mostly_57_to_64_bit_blocks_and_decodes_exactly() {
        // A dense bitmap word's delta is effectively random, so a real
        // chunk's binmap stream is where the widest kernels run.
        let raw = v2_blob(&real_peptides());
        let enc = compress_container(&raw, MAGIC_V2).unwrap();
        let sections = ParsedContainer::parse(&raw, 0, None, MAGIC_V2).unwrap();
        let at = sections
            .sections()
            .iter()
            .position(|s| s.name == SEC_BINMAP)
            .unwrap();
        let (record, payload) = frame_layout(&enc).1[at].clone();
        assert_eq!(enc[record], SCHEME_DELTA_U64);
        let stream = &enc[payload];
        let widths = block_widths(stream);
        let wide = widths.iter().filter(|&&w| w >= 57).count();
        assert!(
            wide * 2 > widths.iter().filter(|&&w| w > 0).count(),
            "{widths:?}"
        );
        let s = &sections.sections()[at];
        let words: Vec<u64> = raw[s.offset as usize..(s.offset + s.len) as usize]
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(both_decoders::<8>(stream, words.len()).unwrap(), words);
    }

    #[test]
    fn a_frame_decodes_over_a_dirty_buffer_to_the_same_verdict_as_over_a_clean_one() {
        // The arena is not cleared before a decode. Whatever it held — a
        // larger image, garbage, too few bytes, or the very image the frame
        // decodes to (where a byte the decoder skipped would go unnoticed) —
        // the intact frame decodes byte-exact and every damaged one fails
        // exactly as it does over a fresh buffer.
        let (raw, enc) = small_frame();
        let dirt = [
            v2_blob(&real_peptides()),
            vec![0xA5; raw.len() + 200],
            vec![0xFF; raw.len() / 2],
            raw.clone(),
        ];
        let over = |dirt: &[u8], frame: &[u8]| {
            decompress_verified(frame, MAGIC_V2, AlignedBuf::from_slice(dirt))
                .map(VerifiedImage::into_arena)
        };
        for d in &dirt {
            assert_eq!(over(d, &enc).unwrap().as_slice(), &raw[..]);
            for pos in 0..enc.len() {
                let mut bent = enc.clone();
                bent[pos] ^= 0x01;
                match (decompress_container(&bent, MAGIC_V2), over(d, &bent)) {
                    (Ok(a), Ok(b)) => assert_eq!(a.as_slice(), b.as_slice(), "flip at {pos}"),
                    (Err(a), Err(b)) => {
                        assert_eq!(b.kind(), io::ErrorKind::InvalidData);
                        assert_eq!(a.to_string(), b.to_string(), "flip at {pos}");
                    }
                    (a, b) => panic!("flip at {pos}: clean {a:?}, dirty {b:?}"),
                }
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
            assert_eq!(both_decoders::<8>(&enc, vals.len()).unwrap(), vals);
        }
    }
}
