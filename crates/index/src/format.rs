//! The `LBESLM2` container primitives: CRC32, aligned arenas, and the
//! versioned section-table layout shared by single-index files, generation
//! store chunk blobs and the store's `LBECHK3` manifest.
//!
//! A *container* is a self-contained byte range (a whole file, or a chunk
//! image decoded from a compressed blob) laid out as:
//!
//! ```text
//! offset  size  field
//! 0       8     magic (b"LBESLM2\0" or b"LBECHK3\0")
//! 8       4     format version, u32 LE (currently 2)
//! 12      4     section count S, u32 LE
//! 16      8     container length in bytes, u64 LE (truncation check)
//! 24      4     CRC-32 of the section table bytes, u32 LE
//! 28      4     reserved (0)
//! 32      32*S  section table, one 32-byte record per section:
//!                 +0   name, 8 bytes, NUL-padded
//!                 +8   payload offset from container start, u64 LE
//!                 +16  payload length in bytes, u64 LE
//!                 +24  CRC-32 of the payload, u32 LE
//!                 +28  reserved (0)
//! ...           payloads in table order, each at a 64-byte-aligned offset,
//!               zero padding in the gaps; the container ends where the
//!               last payload ends
//! ```
//!
//! All integers are little-endian. Payload offsets are multiples of
//! [`ALIGNMENT`] so that a container loaded into an [`AlignedBuf`] (itself
//! 64-byte aligned) can hand out **zero-copy typed views** of each payload:
//! a `u64` CSR offset array or a `SpectrumEntry` table is a pointer cast,
//! not an element-by-element parse. Checksums make bit rot and truncation a
//! clean [`std::io::ErrorKind::InvalidData`] error instead of a corrupt
//! search result.
//!
//! # Verifying an image: each byte checksummed once
//!
//! Loading an index or faulting a chunk goes through one crate-private
//! type, the *verified image*: an arena, its parsed table, and the CRC-32
//! of the whole image, which only one routine can construct — it checks
//! every section against its table CRC and, because `crc32(a ‖ b)` follows
//! from `crc32(a)`, `crc32(b)` and `|b|` (`crc32_combine`, below the CRC
//! tables), folds those same per-section values with the few hundred bytes
//! of prefix and padding into the whole-image CRC. A generation store's
//! content hash ([`content_hash64`]) and a compressed frame's `raw_crc` are
//! both functions of that one number, so a chunk fault walks its image once
//! however many checks hang off it.

use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Alignment (bytes) of every section payload, chosen ≥ any element type's
/// alignment and a whole cache line.
pub const ALIGNMENT: usize = 64;

/// Container format version written and accepted by this build.
pub const FORMAT_VERSION: u32 = 2;

/// Header bytes before the section table.
pub const HEADER_LEN: usize = 32;

/// Bytes per section-table record.
pub const SECTION_RECORD_LEN: usize = 32;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, the zlib/PNG polynomial), vendored.
//
// Checksums are verified on every load and every chunk fault, so they sit
// on the critical path the v2 format exists to shorten. Three paths compute
// the same reflected 0xEDB88320 remainder, and `Crc32::update` picks one
// per call, by length and by what the CPU has (detected at run time, from
// the standard library's cached flags):
//
// * x86_64 CPUs with VPCLMULQDQ and AVX-512F fold inputs of at least
//   `clmul::WIDE_MIN_LEN` bytes 256 bytes an iteration, in four 512-bit
//   registers of four 128-bit lanes each, then reduce the 16 lanes to one
//   and finish as the next path does.
// * x86_64 CPUs with PCLMULQDQ and SSE4.1 fold inputs of at least
//   `clmul::MIN_LEN` bytes with carry-less multiplies, 64 bytes an
//   iteration in four 128-bit lanes — the shape of Intel's "Fast CRC
//   Computation for Generic Polynomials Using PCLMULQDQ" that zlib and
//   Linux use — and finish the < 16-byte tail in the table loop.
//   ≈ 24 GB/s on a 637 KB image (2.1 GHz Xeon vCPU, image in cache); the
//   512-bit fold takes the ≈ 30 k cycles a `serve_paged` fault spent here
//   to ≈ 12 k.
// * Everything else — other architectures, CPUs without the instruction,
//   short inputs, the kernels' tails — takes "slicing-by-16" (16 derived
//   tables, 16 input bytes per iteration), ≈ 2.0 GB/s on the same image
//   and CPU; a byte-at-a-time walk would be ≈ 0.4. It is also the checked
//   twin both kernels are tested against.
//
// The kernels' constants are this CRC's own algebra, and a test derives
// each one: a fold over d bits multiplies by x^(d+32) and x^(d−32) mod P
// (K1/K2 for d = 512, K3/K4 for 128, and the wide kernel's pairs for 2048,
// 384 and 256), K5 is x^64 mod P, P′ is P with its x^32 term, and μ is
// ⌊x^64 / P⌋ — all bit-reflected into 33-bit operands.
// ---------------------------------------------------------------------------

const CRC_POLY: u32 = 0xEDB8_8320;

const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                CRC_POLY ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut j = 1;
    while j < 16 {
        let mut i = 0;
        while i < 256 {
            t[j][i] = (t[j - 1][i] >> 8) ^ t[0][(t[j - 1][i] & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; 16] = crc32_tables();

/// Streaming CRC-32 state.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32 { state: !0 }
    }
}

impl Crc32 {
    /// A fresh hasher.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if bytes.len() >= clmul::MIN_LEN && clmul::available() {
            self.state = if bytes.len() >= clmul::WIDE_MIN_LEN && clmul::wide_available() {
                // SAFETY: `clmul::update_wide` needs PCLMULQDQ, SSE4.1,
                // AVX-512F and VPCLMULQDQ, and `clmul::available` and
                // `clmul::wide_available` have just detected all four.
                unsafe { clmul::update_wide(self.state, bytes) }
            } else {
                // SAFETY: `clmul::update` needs PCLMULQDQ and SSE4.1, and
                // `clmul::available` has just detected both on this CPU.
                unsafe { clmul::update(self.state, bytes) }
            };
            return;
        }
        self.state = crc32_table(self.state, bytes);
    }

    /// The checksum of everything folded in so far.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// Slicing-by-16: folds `bytes` into the running (pre-inverted) state `c`.
fn crc32_table(mut c: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut chunks = bytes.chunks_exact(16);
    for chunk in &mut chunks {
        let a = u32::from_le_bytes(chunk[0..4].try_into().unwrap()) ^ c;
        let b = u32::from_le_bytes(chunk[4..8].try_into().unwrap());
        let d = u32::from_le_bytes(chunk[8..12].try_into().unwrap());
        let e = u32::from_le_bytes(chunk[12..16].try_into().unwrap());
        c = t[15][(a & 0xFF) as usize]
            ^ t[14][((a >> 8) & 0xFF) as usize]
            ^ t[13][((a >> 16) & 0xFF) as usize]
            ^ t[12][(a >> 24) as usize]
            ^ t[11][(b & 0xFF) as usize]
            ^ t[10][((b >> 8) & 0xFF) as usize]
            ^ t[9][((b >> 16) & 0xFF) as usize]
            ^ t[8][(b >> 24) as usize]
            ^ t[7][(d & 0xFF) as usize]
            ^ t[6][((d >> 8) & 0xFF) as usize]
            ^ t[5][((d >> 16) & 0xFF) as usize]
            ^ t[4][(d >> 24) as usize]
            ^ t[3][(e & 0xFF) as usize]
            ^ t[2][((e >> 8) & 0xFF) as usize]
            ^ t[1][((e >> 16) & 0xFF) as usize]
            ^ t[0][(e >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// The carry-less-multiply kernels (see the section comment for the shape,
/// the speed and where the constants come from).
#[cfg(target_arch = "x86_64")]
mod clmul {
    use super::crc32_table;
    use std::arch::x86_64::{
        __m128i, __m512i, _mm512_clmulepi64_epi128, _mm512_extracti32x4_epi32, _mm512_loadu_si512,
        _mm512_set_epi64, _mm512_setzero_si512, _mm512_ternarylogic_epi64, _mm512_xor_si512,
        _mm512_zextsi128_si512, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si64,
        _mm_cvtsi32_si128, _mm_extract_epi32, _mm_loadu_si128, _mm_set_epi64x, _mm_setr_epi32,
        _mm_srli_si128, _mm_xor_si128,
    };

    /// Shortest input [`super::Crc32::update`] hands the kernel: one
    /// 64-byte block, where it already takes 5 ns to the table loop's 18
    /// (and 8 to 42 at 128 bytes).
    pub(super) const MIN_LEN: usize = 64;

    /// Shortest input [`super::Crc32::update`] hands the wide kernel: one
    /// 256-byte block of its four 512-bit registers.
    pub(super) const WIDE_MIN_LEN: usize = 256;

    /// x^2080 mod P: folds a 512-bit register 2048 bits forward, low half
    /// of each 128-bit lane.
    pub(super) const K2048_LO: u64 = 0x1_1542_778A;
    /// x^2016 mod P: the same fold, high half.
    pub(super) const K2048_HI: u64 = 0x1_322D_1430;
    /// x^416 mod P: folds a 128-bit lane 384 bits forward, low half.
    pub(super) const K384_LO: u64 = 0x0_3DB1_ECDC;
    /// x^352 mod P: the same fold, high half.
    pub(super) const K384_HI: u64 = 0x1_7435_9406;
    /// x^288 mod P: folds a 128-bit lane 256 bits forward, low half.
    pub(super) const K256_LO: u64 = 0x0_F1DA_05AA;
    /// x^224 mod P: the same fold, high half.
    pub(super) const K256_HI: u64 = 0x1_5A54_6366;

    /// x^544 mod P: folds a lane 512 bits forward, low half.
    pub(super) const K1: u64 = 0x1_5444_2BD4;
    /// x^480 mod P: the same fold, high half.
    pub(super) const K2: u64 = 0x1_C6E4_1596;
    /// x^160 mod P: folds 128 bits forward, low half.
    pub(super) const K3: u64 = 0x1_7519_97D0;
    /// x^96 mod P: the same fold, high half.
    pub(super) const K4: u64 = 0x0_CCAA_009E;
    /// x^64 mod P: folds 64 bits into the low 32.
    pub(super) const K5: u64 = 0x1_63CD_6124;
    /// P(x) itself, x^32 term included.
    pub(super) const P_PRIME: u64 = 0x1_DB71_0641;
    /// ⌊x^64 / P(x)⌋, the Barrett reduction's quotient estimate.
    pub(super) const MU: u64 = 0x1_F701_1641;

    /// Whether this CPU can run [`update`].
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// Whether this CPU can run [`update_wide`] (given [`available`]).
    pub(super) fn wide_available() -> bool {
        is_x86_feature_detected!("vpclmulqdq") && is_x86_feature_detected!("avx512f")
    }

    /// The 16 bytes of `block` at `at`, in one unaligned load.
    #[inline(always)]
    fn load(block: &[u8], at: usize) -> __m128i {
        let bytes: &[u8; 16] = block[at..at + 16]
            .try_into()
            .expect("a 16-byte range is a [u8; 16]");
        // SAFETY: `bytes` is 16 readable bytes — the range above is
        // bounds-checked — and `loadu` has no alignment requirement. It is
        // SSE2, which every x86_64 CPU has.
        unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
    }

    /// `a · k` in both 64-bit halves, folded onto `next`: moves the 128
    /// bits of `a` forward by the distance `k`'s two constants encode.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold(a: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(a, k);
        let hi = _mm_clmulepi64_si128::<0x11>(a, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// Folds `bytes` into the running (pre-inverted) state, exactly as
    /// [`crc32_table`] does; inputs under 64 bytes go to it whole.
    ///
    /// Calling it is `unsafe` unless the CPU has both features it enables
    /// ([`available`]).
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn update(state: u32, bytes: &[u8]) -> u32 {
        let mut blocks = bytes.chunks_exact(64);
        let Some(first) = blocks.next() else {
            return crc32_table(state, bytes);
        };
        // Four lanes over the first 64 bytes, the state xored into the
        // lowest 32 bits, then 64 more bytes per iteration.
        let mut lanes = [0, 16, 32, 48].map(|at| load(first, at));
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(state as i32));
        let k1k2 = _mm_set_epi64x(K2 as i64, K1 as i64);
        for block in &mut blocks {
            for (i, lane) in lanes.iter_mut().enumerate() {
                *lane = fold(*lane, k1k2, load(block, 16 * i));
            }
        }
        // 512 → 128 bits, then the rest.
        let k3k4 = _mm_set_epi64x(K4 as i64, K3 as i64);
        let [l0, l1, l2, l3] = lanes;
        finish(
            fold(fold(fold(l0, k3k4, l1), k3k4, l2), k3k4, l3),
            blocks.remainder(),
        )
    }

    /// The 64 bytes of `block` at `at`, in one unaligned load.
    #[inline(always)]
    fn load512(block: &[u8], at: usize) -> __m512i {
        let bytes: &[u8; 64] = block[at..at + 64]
            .try_into()
            .expect("a 64-byte range is a [u8; 64]");
        // SAFETY: `bytes` is 64 readable bytes — the range above is
        // bounds-checked — and `loadu` has no alignment requirement. It is
        // AVX-512F, which every caller enables.
        unsafe { _mm512_loadu_si512(bytes.as_ptr().cast()) }
    }

    /// [`fold`] in each of the four 128-bit lanes of a 512-bit register,
    /// each lane by its own constant pair.
    #[inline]
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    fn fold512(a: __m512i, k: __m512i, next: __m512i) -> __m512i {
        let lo = _mm512_clmulepi64_epi128::<0x00>(a, k);
        let hi = _mm512_clmulepi64_epi128::<0x11>(a, k);
        _mm512_ternarylogic_epi64::<0x96>(lo, hi, next)
    }

    /// `(lo, hi)` in every 128-bit lane, lane 0 first.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn lanes512(k: [(u64, u64); 4]) -> __m512i {
        let [a, b, c, d] = k.map(|(lo, hi)| (lo as i64, hi as i64));
        _mm512_set_epi64(d.1, d.0, c.1, c.0, b.1, b.0, a.1, a.0)
    }

    /// [`update`], 256 bytes an iteration in four 512-bit registers —
    /// sixteen 128-bit lanes — each folded 2048 bits forward per step; the
    /// registers are then folded into one, its four lanes into one, and
    /// [`finish`] takes the rest. Inputs under 256 bytes go to [`update`].
    ///
    /// Calling it is `unsafe` unless the CPU has all four features it
    /// enables ([`available`] and [`wide_available`]).
    #[target_feature(enable = "pclmulqdq,sse4.1,avx512f,vpclmulqdq")]
    pub(super) fn update_wide(state: u32, bytes: &[u8]) -> u32 {
        let mut blocks = bytes.chunks_exact(256);
        let Some(first) = blocks.next() else {
            return update(state, bytes);
        };
        let mut regs = [0, 64, 128, 192].map(|at| load512(first, at));
        regs[0] = _mm512_xor_si512(
            regs[0],
            _mm512_zextsi128_si512(_mm_cvtsi32_si128(state as i32)),
        );
        let k2048 = lanes512([(K2048_LO, K2048_HI); 4]);
        for block in &mut blocks {
            for (i, reg) in regs.iter_mut().enumerate() {
                *reg = fold512(*reg, k2048, load512(block, 64 * i));
            }
        }
        // Four registers → one (512 bits forward, the K1/K2 fold per lane),
        // then its lanes 0–2 folded 384, 256 and 128 bits onto lane 3.
        let k512 = lanes512([(K1, K2); 4]);
        let [r0, r1, r2, r3] = regs;
        let x = fold512(fold512(fold512(r0, k512, r1), k512, r2), k512, r3);
        let to_last = lanes512([(K384_LO, K384_HI), (K256_LO, K256_HI), (K3, K4), (0, 0)]);
        let y = fold512(x, to_last, _mm512_setzero_si512());
        let x = _mm_xor_si128(
            _mm_xor_si128(
                _mm512_extracti32x4_epi32::<0>(y),
                _mm512_extracti32x4_epi32::<1>(y),
            ),
            _mm_xor_si128(
                _mm512_extracti32x4_epi32::<2>(y),
                _mm512_extracti32x4_epi32::<3>(x),
            ),
        );
        finish(x, blocks.remainder())
    }

    /// [`super::multmodp`] by one carry-less multiply. For 32-bit operands
    /// in the CRC's reflected order (bit 31 is x^0), the 63-bit product,
    /// shifted up one bit, holds the product's x^0…x^31 terms in its high
    /// word and its x^32…x^62 terms, divided by x^32, in its low word —
    /// both in that same order. So `a · b mod P` is the high word plus
    /// `low · x^32 mod P`, which is one 4-byte step of the table loop.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn multmodp(a: u32, b: u32) -> u32 {
        let product =
            _mm_clmulepi64_si128::<0x00>(_mm_cvtsi32_si128(a as i32), _mm_cvtsi32_si128(b as i32));
        let c = (_mm_cvtsi128_si64(product) as u64) << 1;
        let (high, low) = ((c >> 32) as u32, c as u32);
        let t = &super::CRC_TABLES;
        high ^ t[3][(low & 0xFF) as usize]
            ^ t[2][((low >> 8) & 0xFF) as usize]
            ^ t[1][((low >> 16) & 0xFF) as usize]
            ^ t[0][(low >> 24) as usize]
    }

    /// [`super::crc32_combine`], each multiplication by [`multmodp`]
    /// (≈ 15 cycles where the bit-serial one takes ≈ 40–200).
    ///
    /// Calling it is `unsafe` unless the CPU has both features it enables
    /// ([`available`]).
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
        // x^(8·len_b) mod P, one factor x^(2^k) per set bit of 8·len_b.
        let (mut n, mut k) = (len_b, 3usize);
        let mut p = 1u32 << 31; // x^0
        while n != 0 {
            if n & 1 != 0 {
                p = multmodp(super::X2N[k & 31], p);
            }
            n >>= 1;
            k += 1;
        }
        multmodp(p, crc_a) ^ crc_b
    }

    /// The end of both kernels: folds the whole 16-byte blocks of `rest`
    /// into the 128 bits `x`, reduces them to the 32-bit state and takes
    /// the last < 16 bytes in the table loop.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn finish(mut x: __m128i, rest: &[u8]) -> u32 {
        let k3k4 = _mm_set_epi64x(K4 as i64, K3 as i64);
        let mut rest = rest.chunks_exact(16);
        for block in &mut rest {
            x = fold(x, k3k4, load(block, 0));
        }
        // 128 → 64 → 32 bits, the last step by Barrett reduction.
        let low32 = _mm_setr_epi32(-1, 0, -1, 0);
        x = _mm_xor_si128(
            _mm_srli_si128::<8>(x),
            _mm_clmulepi64_si128::<0x10>(x, k3k4),
        );
        let k5 = _mm_set_epi64x(0, K5 as i64);
        x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), k5),
            _mm_srli_si128::<4>(x),
        );
        let poly = _mm_set_epi64x(MU as i64, P_PRIME as i64);
        let t = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), poly);
        let t = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t, low32), poly);
        let c = _mm_extract_epi32::<1>(_mm_xor_si128(x, t)) as u32;
        crc32_table(c, rest.remainder())
    }
}

/// CRC-32 of one contiguous byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(bytes);
    h.finish()
}

// ---------------------------------------------------------------------------
// CRC-32 of a concatenation from the CRCs of its parts.
//
// A CRC is the remainder of its (conditioned) input polynomial mod P, so
// appending `n` bytes multiplies the running remainder by x^(8n) mod P:
// `crc(a ‖ b) = crc(a) · x^(8·|b|) ⊕ crc(b)`, pre- and post-inversion
// included. This is the polynomial form zlib ≥ 1.2.12 uses — one modular
// multiplication per set bit of the length against a table of x^(2^k). The
// chunk-fault path calls it a dozen times per image to fold the CRCs of a
// container's regions into the CRC of the whole, and once to derive the
// salted word of a content hash from the plain one. The bit-serial
// `multmodp` makes a call cost ≈ 0.2–0.5 µs (the older 32×32
// matrix-squaring form costs tens); on a CPU with PCLMULQDQ each
// multiplication is one carry-less multiply and a 4-byte table step
// (`clmul::combine`), which took a `serve_paged` fault's ≈ 15 calls from
// ≈ 7 k cycles to ≈ 1.5 k.
// ---------------------------------------------------------------------------

/// `a(x) · b(x) mod P` in the CRC's reflected bit order (bit 31 is x^0).
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut m = 1u32 << 31;
    let mut p = 0u32;
    while m != 0 {
        if a & m != 0 {
            p ^= b;
            if a & (m - 1) == 0 {
                break;
            }
        }
        m >>= 1;
        b = if b & 1 != 0 {
            (b >> 1) ^ CRC_POLY
        } else {
            b >> 1
        };
    }
    p
}

/// `X2N[k]` = x^(2^k) mod P. x has order dividing 2³² − 1, so the powers
/// repeat with period 32 in `k` and one row serves any length.
const X2N: [u32; 32] = {
    let mut t = [0u32; 32];
    let mut p = 1u32 << 30; // x^1
    let mut k = 0;
    while k < 32 {
        t[k] = p;
        p = multmodp(p, p);
        k += 1;
    }
    t
};

/// x^(n · 2^k) mod P.
fn x2nmodp(mut n: u64, mut k: usize) -> u32 {
    let mut p = 1u32 << 31; // x^0
    while n != 0 {
        if n & 1 != 0 {
            p = multmodp(X2N[k & 31], p);
        }
        n >>= 1;
        k += 1;
    }
    p
}

/// `crc32(a ‖ b)` from `crc32(a)`, `crc32(b)` and `b`'s length in bytes —
/// an identity, not an approximation, and O(log len_b).
pub(crate) fn crc32_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if clmul::available() {
        // SAFETY: `clmul::combine` needs PCLMULQDQ and SSE4.1, and
        // `clmul::available` has just detected both on this CPU.
        return unsafe { clmul::combine(crc_a, crc_b, len_b) };
    }
    crc32_combine_portable(crc_a, crc_b, len_b)
}

/// [`crc32_combine`] by the bit-serial [`multmodp`], on any CPU.
fn crc32_combine_portable(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    multmodp(x2nmodp(len_b, 3), crc_a) ^ crc_b
}

/// Domain-separation salt of the low [`content_hash64`] word.
const CONTENT_HASH_SALT: [u8; 8] = *b"LBEHASH1";

/// 64-bit content address of a payload, built from the CRC-32 machinery:
/// the plain CRC in the high word, the CRC of `salt ‖ payload` in the low
/// word, and the length folded over both.
///
/// The input is walked **once**: the salted word is
/// `crc32_combine(crc32(salt), plain, len)`, so it is a function of the
/// plain CRC and the length and adds no checksum bits of its own. The
/// address therefore carries **32 checksum bits plus the length** under a
/// 64-bit name. (The two-pass definition — hash the bytes again behind the
/// salt — computes the same value, which is why every stored hash, blob file
/// name and manifest stays valid; a test holds the two equal.)
///
/// This is a *content address*, not a cryptographic digest: it names chunk
/// blobs in a generation store so identical chunks are shared across
/// generations. Every blob fault re-derives it from the bytes it read, so a
/// collision could only alias two chunks that already agree on their CRC-32
/// and their length.
pub fn content_hash64(bytes: &[u8]) -> u64 {
    content_hash_of_crc(crc32(bytes), bytes.len() as u64)
}

/// [`content_hash64`] of a payload whose CRC-32 and length are already
/// known — what a chunk fault, which has just checksummed the image it
/// decoded, names the blob with.
pub(crate) fn content_hash_of_crc(plain: u32, len: u64) -> u64 {
    let salted = crc32_combine(crc32(&CONTENT_HASH_SALT), plain, len);
    let h = ((plain as u64) << 32) | salted as u64;
    h ^ len.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// A [`Write`] sink that counts bytes and checksums them without storing
/// anything — used to plan a section (length + CRC) before emitting it, so
/// writers never materialize a second copy of large payloads.
#[derive(Debug, Default)]
pub struct CrcSink {
    hasher: Crc32,
    count: u64,
}

impl CrcSink {
    /// A fresh sink.
    pub fn new() -> Self {
        CrcSink {
            hasher: Crc32::new(),
            count: 0,
        }
    }

    /// `(bytes_written, crc32)` of everything written so far.
    pub fn finish(&self) -> (u64, u32) {
        (self.count, self.hasher.finish())
    }
}

impl Write for CrcSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.hasher.update(buf);
        self.count += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Aligned arena buffer.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
#[repr(C, align(64))]
struct AlignBlock([u8; ALIGNMENT]);

/// A heap buffer whose start is [`ALIGNMENT`]-aligned, so section payloads
/// at aligned container offsets stay aligned in memory and can back typed
/// slices directly.
///
/// Who zeroes what: [`AlignedBuf::zeroed`] hands out zeros and
/// [`AlignedBuf::from_slice`] a copy. A recycled buffer is *not* cleared —
/// a chunk fault resizes the evicted chunk's buffer with
/// `reset_for_overwrite`, and the fault path then writes every byte of the
/// new image over whatever the old one left: the decoder the sections,
/// `VerifiedImage::fill_and_verify` the padding.
pub struct AlignedBuf {
    blocks: Vec<AlignBlock>,
    len: usize,
}

impl std::fmt::Debug for AlignedBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AlignedBuf")
            .field("len", &self.len)
            .finish()
    }
}

impl AlignedBuf {
    /// A zero-filled buffer of `len` bytes.
    ///
    /// Goes through `alloc_zeroed` (kernel zero pages) rather than
    /// `vec![zeroed_block; n]`, which memsets: an explicit zeroing pass
    /// over a multi-GB arena would cost more than the read that fills it.
    pub fn zeroed(len: usize) -> Self {
        let nblocks = len.div_ceil(ALIGNMENT);
        if nblocks == 0 {
            return AlignedBuf {
                blocks: Vec::new(),
                len,
            };
        }
        let layout = std::alloc::Layout::array::<AlignBlock>(nblocks).expect("arena size overflow");
        // SAFETY: `layout` is the exact layout of a `Vec<AlignBlock>`
        // allocation of capacity `nblocks` and is non-zero-sized;
        // `alloc_zeroed` hands back that many zero bytes, and all-zero is
        // a valid `AlignBlock`, so every element is initialized.
        let blocks = unsafe {
            let ptr = std::alloc::alloc_zeroed(layout) as *mut AlignBlock;
            if ptr.is_null() {
                std::alloc::handle_alloc_error(layout);
            }
            Vec::from_raw_parts(ptr, nblocks, nblocks)
        };
        AlignedBuf { blocks, len }
    }

    /// An empty buffer that takes up to `bytes` bytes without reallocating.
    pub(crate) fn with_capacity(bytes: usize) -> Self {
        AlignedBuf {
            blocks: Vec::with_capacity(bytes.div_ceil(ALIGNMENT)),
            len: 0,
        }
    }

    /// Bytes the buffer takes without reallocating.
    pub(crate) fn capacity(&self) -> usize {
        self.blocks.capacity() * ALIGNMENT
    }

    /// Makes the buffer `len` bytes long, in its own allocation when that
    /// is large enough, else in one of exactly `len` bytes (rounded up to
    /// whole blocks) — **without clearing it**: bytes the buffer already
    /// held keep whatever an earlier image left in them, and only blocks it
    /// grows by start as zeros. So the caller must write every byte before
    /// anything reads it: the raw-blob fault path copies the whole image
    /// over it, and a compressed one is decoded section by section with
    /// [`VerifiedImage::fill_and_verify`] zeroing the padding in between.
    pub(crate) fn reset_for_overwrite(&mut self, len: usize) {
        let nblocks = len.div_ceil(ALIGNMENT);
        if nblocks > self.blocks.capacity() {
            // Nothing in the old allocation is worth copying into the new.
            self.blocks.clear();
            self.blocks.reserve_exact(nblocks);
        }
        if self.blocks.len() < nblocks {
            self.blocks.resize(nblocks, AlignBlock([0; ALIGNMENT]));
        }
        self.len = len;
    }

    /// A buffer holding a copy of `bytes` — one copy, no up-front zero
    /// fill (this sits on the load path the format exists to shorten).
    pub fn from_slice(bytes: &[u8]) -> Self {
        let len = bytes.len();
        let nblocks = len.div_ceil(ALIGNMENT);
        let mut blocks: Vec<AlignBlock> = Vec::with_capacity(nblocks);
        // SAFETY: the reserved capacity holds `nblocks * ALIGNMENT` bytes;
        // we initialize all of them (payload copy + zeroed tail) through
        // raw pointers before `set_len` exposes the blocks as values.
        unsafe {
            let dst = blocks.as_mut_ptr() as *mut u8;
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), dst, len);
            std::ptr::write_bytes(dst.add(len), 0, nblocks * ALIGNMENT - len);
            blocks.set_len(nblocks);
        }
        AlignedBuf { blocks, len }
    }

    /// Number of addressable bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the buffer holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bytes.
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: `blocks` owns at least `len` bytes laid out contiguously
        // (every constructor and `reset_for_overwrite` keep
        // `blocks.len() * ALIGNMENT >= len`), all initialized: a block is
        // only ever created zeroed or written in full.
        unsafe { std::slice::from_raw_parts(self.blocks.as_ptr() as *const u8, self.len) }
    }

    /// The bytes, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        // SAFETY: as `as_slice`, and `&mut self` guarantees uniqueness.
        unsafe { std::slice::from_raw_parts_mut(self.blocks.as_mut_ptr() as *mut u8, self.len) }
    }
}

// ---------------------------------------------------------------------------
// Typed zero-copy views.
// ---------------------------------------------------------------------------

/// Types that may back a zero-copy view of a section payload.
///
/// # Safety
///
/// Implementors must be `#[repr(C)]` with no padding bytes, valid for every
/// bit pattern, and have alignment dividing [`ALIGNMENT`].
pub unsafe trait Pod: Copy + 'static {}

// SAFETY: primitive integers and floats satisfy all three requirements
// (floats accept any bit pattern, NaNs included).
unsafe impl Pod for u8 {}
// SAFETY: as for `u8`.
unsafe impl Pod for u16 {}
// SAFETY: as for `u8`.
unsafe impl Pod for u32 {}
// SAFETY: as for `u8`.
unsafe impl Pod for u64 {}
// SAFETY: as for `u8`.
unsafe impl Pod for f32 {}
// SAFETY: as for `u8`.
unsafe impl Pod for f64 {}

/// A checked typed view of `count` `T`s at `byte_off` in `bytes`.
///
/// Fails (never panics) if the range is out of bounds or misaligned for
/// `T`. Only meaningful on little-endian targets — callers on big-endian
/// must parse element-wise instead.
pub fn view_checked<T: Pod>(bytes: &[u8], byte_off: usize, count: usize) -> io::Result<&[T]> {
    let size = std::mem::size_of::<T>();
    let byte_len = count
        .checked_mul(size)
        .ok_or_else(|| bad("section length overflows"))?;
    let end = byte_off
        .checked_add(byte_len)
        .ok_or_else(|| bad("section range overflows"))?;
    if end > bytes.len() {
        return Err(bad("section extends past the buffer"));
    }
    let ptr = bytes[byte_off..].as_ptr();
    if !(ptr as usize).is_multiple_of(std::mem::align_of::<T>()) {
        return Err(bad("section payload is misaligned"));
    }
    // SAFETY: range checked in-bounds, pointer alignment checked, and `T:
    // Pod` accepts any bit pattern.
    Ok(unsafe { std::slice::from_raw_parts(ptr as *const T, count) })
}

/// Rounds `off` up to the next multiple of [`ALIGNMENT`].
pub fn align_up(off: u64) -> u64 {
    off.div_ceil(ALIGNMENT as u64) * ALIGNMENT as u64
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

// ---------------------------------------------------------------------------
// Section descriptors.
// ---------------------------------------------------------------------------

/// One planned or parsed section: name, payload offset/length (offset is
/// relative to the container start), payload CRC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Section {
    /// NUL-padded section name.
    pub name: [u8; 8],
    /// Payload offset from the container start (multiple of [`ALIGNMENT`]).
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// CRC-32 of the payload bytes.
    pub crc: u32,
}

/// A section a writer intends to emit: its name, length, and CRC. Offsets
/// are assigned by [`write_container`].
#[derive(Debug, Clone, Copy)]
pub struct SectionPlan {
    /// NUL-padded section name.
    pub name: [u8; 8],
    /// Payload length in bytes.
    pub len: u64,
    /// CRC-32 of the payload bytes (see [`CrcSink`]).
    pub crc: u32,
}

impl SectionPlan {
    /// The plan of a section whose payload is already serialized.
    pub(crate) fn of(name: [u8; 8], payload: &[u8]) -> Self {
        SectionPlan {
            name,
            len: payload.len() as u64,
            crc: crc32(payload),
        }
    }
}

/// Computes the total container length for the given section lengths
/// (header + table + aligned payloads, no trailing padding).
pub fn container_len(section_lens: &[u64]) -> u64 {
    let mut cursor = (HEADER_LEN + SECTION_RECORD_LEN * section_lens.len()) as u64;
    let mut end = cursor;
    for &len in section_lens {
        cursor = align_up(cursor);
        cursor += len;
        end = cursor;
    }
    end
}

fn assign_offsets(plans: &[SectionPlan]) -> (Vec<Section>, u64) {
    let mut cursor = (HEADER_LEN + SECTION_RECORD_LEN * plans.len()) as u64;
    let mut sections = Vec::with_capacity(plans.len());
    let mut end = cursor;
    for p in plans {
        cursor = align_up(cursor);
        sections.push(Section {
            name: p.name,
            offset: cursor,
            len: p.len,
            crc: p.crc,
        });
        cursor += p.len;
        end = cursor;
    }
    (sections, end)
}

fn table_bytes(sections: &[Section]) -> Vec<u8> {
    let mut t = Vec::with_capacity(sections.len() * SECTION_RECORD_LEN);
    for s in sections {
        t.extend_from_slice(&s.name);
        t.extend_from_slice(&s.offset.to_le_bytes());
        t.extend_from_slice(&s.len.to_le_bytes());
        t.extend_from_slice(&s.crc.to_le_bytes());
        t.extend_from_slice(&0u32.to_le_bytes());
    }
    t
}

/// Writes a container: header, section table, then each payload produced by
/// `emit(section_index, writer)` at its aligned offset.
///
/// `emit` must write exactly `plans[i].len` bytes for section `i`; a
/// mismatch is an [`io::ErrorKind::Other`] error (the file is then
/// malformed — callers writing to a real file should treat it as fatal).
pub fn write_container<W: Write, F>(
    writer: &mut W,
    magic: &[u8; 8],
    plans: &[SectionPlan],
    mut emit: F,
) -> io::Result<()>
where
    F: FnMut(usize, &mut dyn Write) -> io::Result<()>,
{
    let (sections, file_len) = assign_offsets(plans);
    let table = table_bytes(&sections);

    writer.write_all(magic)?;
    writer.write_all(&FORMAT_VERSION.to_le_bytes())?;
    writer.write_all(&(sections.len() as u32).to_le_bytes())?;
    writer.write_all(&file_len.to_le_bytes())?;
    writer.write_all(&crc32(&table).to_le_bytes())?;
    writer.write_all(&0u32.to_le_bytes())?;
    writer.write_all(&table)?;

    let mut cursor = (HEADER_LEN + SECTION_RECORD_LEN * sections.len()) as u64;
    const PAD: [u8; ALIGNMENT] = [0; ALIGNMENT];
    for (i, s) in sections.iter().enumerate() {
        let pad = (s.offset - cursor) as usize;
        writer.write_all(&PAD[..pad])?;
        let mut counting = CountingWriter {
            inner: writer,
            count: 0,
        };
        emit(i, &mut counting)?;
        if counting.count != s.len {
            return Err(io::Error::other(format!(
                "section {:?} emitted {} bytes, planned {}",
                String::from_utf8_lossy(&s.name),
                counting.count,
                s.len
            )));
        }
        cursor = s.offset + s.len;
    }
    Ok(())
}

struct CountingWriter<'a, W: Write> {
    inner: &'a mut W,
    count: u64,
}

impl<W: Write> Write for CountingWriter<'_, W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.count += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

// ---------------------------------------------------------------------------
// Parsing.
// ---------------------------------------------------------------------------

fn parse_header(bytes: &[u8], magic: &[u8; 8]) -> io::Result<(u32, u64, u32)> {
    if bytes.len() < HEADER_LEN {
        return Err(bad("container shorter than its header"));
    }
    if &bytes[0..8] != magic {
        return Err(bad("container magic mismatch"));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(bad(&format!(
            "unsupported container version {version} (this build reads {FORMAT_VERSION})"
        )));
    }
    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
    let file_len = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
    let table_crc = u32::from_le_bytes(bytes[24..28].try_into().unwrap());
    Ok((count, file_len, table_crc))
}

fn parse_table(table: &[u8], expected_crc: u32, container_len: u64) -> io::Result<Vec<Section>> {
    if crc32(table) != expected_crc {
        return Err(bad("section table checksum mismatch"));
    }
    let mut sections = Vec::with_capacity(table.len() / SECTION_RECORD_LEN);
    for rec in table.chunks_exact(SECTION_RECORD_LEN) {
        let s = Section {
            name: rec[0..8].try_into().unwrap(),
            offset: u64::from_le_bytes(rec[8..16].try_into().unwrap()),
            len: u64::from_le_bytes(rec[16..24].try_into().unwrap()),
            crc: u32::from_le_bytes(rec[24..28].try_into().unwrap()),
        };
        if !s.offset.is_multiple_of(ALIGNMENT as u64) {
            return Err(bad("section payload offset not aligned"));
        }
        let end = s
            .offset
            .checked_add(s.len)
            .ok_or_else(|| bad("section range overflows"))?;
        if end > container_len {
            return Err(bad("section extends past the container"));
        }
        sections.push(s);
    }
    Ok(sections)
}

/// Test support: a container image over in-memory payloads, lengths and
/// checksums computed here.
#[cfg(test)]
pub(crate) fn container_from_payloads(magic: &[u8; 8], payloads: &[([u8; 8], Vec<u8>)]) -> Vec<u8> {
    let plans: Vec<SectionPlan> = payloads
        .iter()
        .map(|(name, p)| SectionPlan::of(*name, p))
        .collect();
    let mut out = Vec::new();
    write_container(&mut out, magic, &plans, |i, w| w.write_all(&payloads[i].1))
        .expect("writing to a Vec cannot fail");
    out
}

/// Test support: re-emits the container `bytes` with every section mapped
/// through `edit(name, payload)` to a renamed or rewritten section, or
/// dropped (`None`) — a checksum-valid container whose *content* is
/// whatever the test wants (an old layout, a broken directory), so it
/// reaches the validation behind the CRCs.
#[cfg(test)]
pub(crate) fn rewrite_container(
    bytes: &[u8],
    magic: &[u8; 8],
    mut edit: impl FnMut(&[u8; 8], &[u8]) -> Option<([u8; 8], Vec<u8>)>,
) -> Vec<u8> {
    let parsed = ParsedContainer::parse(bytes, 0, None, magic).expect("well-formed container");
    let payloads: Vec<([u8; 8], Vec<u8>)> = parsed
        .sections()
        .iter()
        .filter_map(|s| {
            edit(
                &s.name,
                &bytes[s.offset as usize..(s.offset + s.len) as usize],
            )
        })
        .collect();
    container_from_payloads(magic, &payloads)
}

/// A container parsed from an in-memory byte range (`bytes[base..]` holds
/// the container). Section offsets in the returned [`Section`]s stay
/// relative to the container start (`base`).
#[derive(Debug)]
pub struct ParsedContainer {
    /// Offset of the container within the enclosing buffer.
    pub base: usize,
    /// Container length in bytes (from the verified header).
    pub len: u64,
    sections: Vec<Section>,
}

impl ParsedContainer {
    /// Parses and verifies the container starting at `bytes[base]` and
    /// spanning `len` bytes (the whole remaining buffer when `len` is
    /// `None`). Verifies the header, the declared length, and the section
    /// table checksum — **not** the payloads: the load paths check those by
    /// turning the image into a crate-private verified image (every
    /// section against its table CRC, in one walk) before reading any.
    pub fn parse(bytes: &[u8], base: usize, len: Option<u64>, magic: &[u8; 8]) -> io::Result<Self> {
        let avail = bytes
            .len()
            .checked_sub(base)
            .ok_or_else(|| bad("container base past the buffer"))? as u64;
        let span = len.unwrap_or(avail);
        if span > avail {
            return Err(bad("container length exceeds the buffer"));
        }
        let body = &bytes[base..base + span as usize];
        let (count, file_len, table_crc) = parse_header(body, magic)?;
        if file_len != span {
            return Err(bad(&format!(
                "container declares {file_len} bytes but {span} are present (truncated or padded?)"
            )));
        }
        let table_end = HEADER_LEN + SECTION_RECORD_LEN * count as usize;
        if body.len() < table_end {
            return Err(bad("container truncated inside its section table"));
        }
        let sections = parse_table(&body[HEADER_LEN..table_end], table_crc, span)?;
        Ok(ParsedContainer {
            base,
            len: span,
            sections,
        })
    }

    /// All sections, in file order.
    pub fn sections(&self) -> &[Section] {
        &self.sections
    }

    /// Looks up a section by name without verifying its payload.
    pub fn find(&self, name: &[u8; 8]) -> Option<&Section> {
        self.sections.iter().find(|s| &s.name == name)
    }
}

/// A whole container image in an aligned arena, **every byte of which has
/// been checked**: header and declared length, section-table CRC, each
/// section's payload against its table CRC — and [`VerifiedImage::crc`] is
/// the CRC-32 of the entire image, padding included.
///
/// The fields are private and [`VerifiedImage::fill_and_verify`] is the only
/// code that builds one (its two users: [`VerifiedImage::verify`] for an
/// image read as is, `compress::decompress_verified` for one decoded from a
/// compressed frame), so holding the type *is* the proof;
/// `io::read_v2_parsed` takes nothing else.
///
/// Each byte is checksummed exactly once. The whole-image CRC is not a
/// second pass: it is the [`crc32_combine`] fold, in layout order, of the
/// regions' CRCs — prefix (header + table), each padding gap, each section
/// (the value just checked against the table), the tail.
#[derive(Debug)]
pub(crate) struct VerifiedImage {
    arena: AlignedBuf,
    container: ParsedContainer,
    crc: u32,
}

impl VerifiedImage {
    /// Verifies a complete image as read from disk.
    pub(crate) fn verify(arena: AlignedBuf, magic: &[u8; 8]) -> io::Result<Self> {
        let carried = arena.len();
        Self::fill_and_verify(arena, magic, carried, |_, _| Ok(()))
    }

    /// Verifies an image of which `arena[..carried]` (header + table, at
    /// least) is in place and whose section payloads `fill(section,
    /// payload)` puts in place, in table order. Each payload is checksummed
    /// right after its `fill` — while a freshly decoded one is still in
    /// cache — and the result both checked against the table and folded
    /// into the whole.
    ///
    /// Who writes which byte: the caller the first `carried`; `fill` every
    /// byte of every section payload (a decoder that fails part-way returns
    /// its error, and the image is never built); this function every other
    /// byte at or past `carried` — the padding gaps and the tail, and any
    /// header or table bytes a damaged frame's prefix left out — which it
    /// zeroes right before reading them. So the arena need not be cleared
    /// beforehand, and whatever an earlier image left in it cannot reach
    /// this one. ([`VerifiedImage::verify`] carries the whole image.)
    ///
    /// Sections must lie after the table, in table order, without
    /// overlapping (what [`write_container`] emits): a fold over regions
    /// that alias would not be the image's CRC, and a later `fill` could
    /// rewrite a payload already checked.
    pub(crate) fn fill_and_verify(
        mut arena: AlignedBuf,
        magic: &[u8; 8],
        carried: usize,
        mut fill: impl FnMut(&Section, &mut [u8]) -> io::Result<()>,
    ) -> io::Result<Self> {
        let len = arena.len();
        let bytes = arena.as_mut_slice();
        // Zeroes `bytes[from..to]` past `carried` (and within the image).
        let clear = |bytes: &mut [u8], from: usize, to: usize| {
            if let Some(region) = bytes.get_mut(from.max(carried)..to.min(len)) {
                region.fill(0);
            }
        };
        // A header or table the carried bytes stop short of (only a damaged
        // frame's) is read as zeros, as padding is.
        clear(bytes, 0, HEADER_LEN);
        if let Some(count) = bytes.get(12..16) {
            let count = u32::from_le_bytes(count.try_into().unwrap()) as usize;
            clear(
                bytes,
                HEADER_LEN,
                HEADER_LEN.saturating_add(SECTION_RECORD_LEN.saturating_mul(count)),
            );
        }
        let container = ParsedContainer::parse(bytes, 0, None, magic)?;
        let mut cursor = HEADER_LEN + SECTION_RECORD_LEN * container.sections.len();
        let mut crc = crc32(&bytes[..cursor]);
        let padding = |bytes: &mut [u8], from: usize, to: usize| {
            clear(bytes, from, to);
            crc32(&bytes[from..to])
        };
        for s in &container.sections {
            // In bounds and overflow-free: `parse_table` checked both.
            let (off, end) = (s.offset as usize, (s.offset + s.len) as usize);
            if off < cursor {
                return Err(bad("container sections overlap or are not in table order"));
            }
            crc = crc32_combine(crc, padding(bytes, cursor, off), (off - cursor) as u64);
            let payload = &mut bytes[off..end];
            fill(s, payload)?;
            if crc32(payload) != s.crc {
                return Err(bad(&format!(
                    "section {:?} checksum mismatch (corrupt file)",
                    String::from_utf8_lossy(&s.name)
                )));
            }
            crc = crc32_combine(crc, s.crc, s.len);
            cursor = end;
        }
        crc = crc32_combine(crc, padding(bytes, cursor, len), (len - cursor) as u64);
        Ok(VerifiedImage {
            arena,
            container,
            crc,
        })
    }

    /// CRC-32 of the whole image.
    pub(crate) fn crc(&self) -> u32 {
        self.crc
    }

    /// [`content_hash64`] of the whole image, from the CRC already taken.
    pub(crate) fn content_hash(&self) -> u64 {
        content_hash_of_crc(self.crc, self.arena.len() as u64)
    }

    /// The image bytes.
    pub(crate) fn as_slice(&self) -> &[u8] {
        self.arena.as_slice()
    }

    /// The arena, once nothing needs the section table any more.
    pub(crate) fn into_arena(self) -> AlignedBuf {
        self.arena
    }

    /// All sections, in table order.
    pub(crate) fn sections(&self) -> &[Section] {
        self.container.sections()
    }

    /// `(byte_offset, byte_len)` of a section's payload in the image, if
    /// the table names it.
    pub(crate) fn find(&self, name: &[u8; 8]) -> Option<(usize, usize)> {
        self.container
            .find(name)
            .map(|s| (s.offset as usize, s.len as usize))
    }

    /// [`VerifiedImage::find`] for a section the layout requires.
    pub(crate) fn section(&self, name: &[u8; 8]) -> io::Result<(usize, usize)> {
        self.find(name).ok_or_else(|| {
            bad(&format!(
                "missing section {:?}",
                String::from_utf8_lossy(name)
            ))
        })
    }
}

/// A container opened *on disk*: only the header and section table are
/// read eagerly; payloads are fetched on demand with
/// [`FileContainer::read_section`], each on its own — how a generation
/// store's manifest is read.
#[derive(Debug)]
pub struct FileContainer {
    file: std::fs::File,
    file_len: u64,
    sections: Vec<Section>,
}

impl FileContainer {
    /// Opens `path`, verifying magic, version, declared length against the
    /// on-disk size, and the section-table checksum.
    pub fn open(path: impl AsRef<Path>, magic: &[u8; 8]) -> io::Result<Self> {
        let mut file = std::fs::File::open(path)?;
        let disk_len = file.metadata()?.len();
        let mut header = [0u8; HEADER_LEN];
        file.read_exact(&mut header)?;
        let (count, file_len, table_crc) = parse_header(&header, magic)?;
        if file_len != disk_len {
            return Err(bad(&format!(
                "container declares {file_len} bytes but the file holds {disk_len} (truncated?)"
            )));
        }
        let table_len = SECTION_RECORD_LEN
            .checked_mul(count as usize)
            .filter(|&l| (HEADER_LEN + l) as u64 <= disk_len)
            .ok_or_else(|| bad("container truncated inside its section table"))?;
        let mut table = vec![0u8; table_len];
        file.read_exact(&mut table)?;
        let sections = parse_table(&table, table_crc, file_len)?;
        Ok(FileContainer {
            file,
            file_len,
            sections,
        })
    }

    /// All sections, in file order.
    pub fn sections(&self) -> &[Section] {
        &self.sections
    }

    /// Looks up a section by name.
    pub fn find(&self, name: &[u8; 8]) -> Option<&Section> {
        self.sections.iter().find(|s| &s.name == name)
    }

    /// Total container length in bytes.
    pub fn len(&self) -> u64 {
        self.file_len
    }

    /// `true` if the container holds no bytes beyond its header.
    pub fn is_empty(&self) -> bool {
        self.sections.is_empty()
    }

    /// Reads one section's payload into a fresh aligned buffer (a single
    /// `seek` + `read_exact`), verifying its CRC.
    pub fn read_section(&mut self, name: &[u8; 8]) -> io::Result<AlignedBuf> {
        let s = *self.find(name).ok_or_else(|| {
            bad(&format!(
                "missing section {:?}",
                String::from_utf8_lossy(name)
            ))
        })?;
        let mut buf = AlignedBuf::zeroed(s.len as usize);
        self.file.seek(SeekFrom::Start(s.offset))?;
        self.file.read_exact(buf.as_mut_slice())?;
        if crc32(buf.as_slice()) != s.crc {
            return Err(bad(&format!(
                "section {:?} checksum mismatch (corrupt file)",
                String::from_utf8_lossy(&s.name)
            )));
        }
        Ok(buf)
    }
}

/// Builds a NUL-padded 8-byte section name from an ASCII string of ≤ 8
/// bytes.
pub const fn section_name(name: &str) -> [u8; 8] {
    let b = name.as_bytes();
    assert!(b.len() <= 8, "section names are at most 8 bytes");
    let mut out = [0u8; 8];
    let mut i = 0;
    while i < b.len() {
        out[i] = b[i];
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard test vector: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        let mut h = Crc32::new();
        h.update(b"1234");
        h.update(b"56789");
        assert_eq!(h.finish(), 0xCBF4_3926);
    }

    #[test]
    fn crc_sink_counts_and_checksums() {
        let mut sink = CrcSink::new();
        sink.write_all(b"123456789").unwrap();
        assert_eq!(sink.finish(), (9, 0xCBF4_3926));
    }

    /// Deterministic noise for the checksum properties (splitmix64).
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed;
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            out.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
        }
        out.truncate(len);
        out
    }

    /// The lengths the combine and content-hash properties sweep: around
    /// the 16-byte slicing stride, around the 64-byte alignment, and one
    /// past a MiB (a length with high and low bits set).
    const LENGTHS: [usize; 9] = [0, 1, 15, 16, 17, 63, 64, 65, (1 << 20) + 3];

    #[test]
    fn crc32_combine_known_vectors() {
        // x^(2^k) mod P: x itself, then repeated squaring back to x.
        assert_eq!(X2N[0], 0x4000_0000);
        assert_eq!(X2N[1], 0x2000_0000);
        assert_eq!(X2N[3], 0x0080_0000); // x^8: one byte of zeros
        assert_eq!(multmodp(X2N[31], X2N[31]), X2N[0]);
        // "123456789" split at every point, the empty halves included.
        let whole = b"123456789";
        for cut in 0..=whole.len() {
            let (a, b) = whole.split_at(cut);
            assert_eq!(
                crc32_combine(crc32(a), crc32(b), b.len() as u64),
                0xCBF4_3926,
                "cut {cut}"
            );
        }
        // Published CRC-32 values of "a", "b" and "ab"; then a run of
        // zeros, where the combine is the x^(8n) multiplication alone.
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"b"), 0x71BE_EFF9);
        assert_eq!(crc32_combine(0xE8B7_BE43, 0x71BE_EFF9, 1), crc32(b"ab"));
        assert_eq!(crc32(b"ab"), 0x9E83_486D);
        assert_eq!(
            crc32_combine(crc32(b"x"), crc32(&[0u8; 1000]), 1000),
            crc32(&[&b"x"[..], &[0u8; 1000]].concat())
        );
    }

    /// The carry-less-multiply kernel, called directly (no length or CPU
    /// switch in between) against the table loop it replaces.
    #[cfg(target_arch = "x86_64")]
    mod clmul_kernel {
        use super::*;

        /// ⌊x^64 / P(x)⌋ by GF(2) long division, bit-reflected into 33
        /// bits the way the kernel's operands are.
        fn barrett_quotient() -> u64 {
            let p = (1u128 << 32) | CRC_POLY.reverse_bits() as u128; // normal order
            let (mut rem, mut q) = (1u128 << 64, 0u64);
            for shift in (0..=32).rev() {
                if rem & (1 << (32 + shift)) != 0 {
                    rem ^= p << shift;
                    q |= 1 << shift;
                }
            }
            assert!(rem < 1 << 32, "the remainder is below x^32");
            q.reverse_bits() >> 31
        }

        #[test]
        fn constants_are_the_crcs_own_algebra() {
            for (k, n) in [
                (clmul::K1, 544),
                (clmul::K2, 480),
                (clmul::K3, 160),
                (clmul::K4, 96),
                (clmul::K5, 64),
            ] {
                assert_eq!(k, (x2nmodp(n, 0) as u64) << 1, "x^{n} mod P");
            }
            for (lo, hi, d) in [
                (clmul::K1, clmul::K2, 512),
                (clmul::K3, clmul::K4, 128),
                (clmul::K2048_LO, clmul::K2048_HI, 2048),
                (clmul::K384_LO, clmul::K384_HI, 384),
                (clmul::K256_LO, clmul::K256_HI, 256),
            ] {
                assert_eq!(lo, (x2nmodp(d + 32, 0) as u64) << 1, "x^({d} + 32) mod P");
                assert_eq!(hi, (x2nmodp(d - 32, 0) as u64) << 1, "x^({d} - 32) mod P");
            }
            assert_eq!(clmul::P_PRIME, ((CRC_POLY as u64) << 1) | 1);
            assert_eq!(clmul::MU, barrett_quotient());
            assert_eq!(clmul::MU, 0x1_F701_1641);
        }

        #[test]
        fn kernel_equals_the_table_loop_at_every_length_offset_and_state() {
            if !clmul::available() {
                // `Crc32::update` never selects the kernel on this CPU either.
                eprintln!("no PCLMULQDQ + SSE4.1 on this CPU: kernel not exercised");
                return;
            }
            const LONG: [usize; 7] = [4095, 4096, 4097, 65_535, 65_537, 637_000, (2 << 20) + 3];
            let data = noise(0x5EED, (2 << 20) + 3 + 16);
            let k = u32::from_le_bytes(noise(0x4B, 4).try_into().unwrap());
            let states = [!0, !0 ^ k, crc32_table(!0, &noise(0x9E, 1000))];
            for len in (0..=1024).chain(LONG) {
                for off in 0..16 {
                    let bytes = &data[off..off + len];
                    for state in states {
                        // SAFETY: `clmul::available` detected both features
                        // `clmul::update` enables, above.
                        let got = unsafe { clmul::update(state, bytes) };
                        assert_eq!(
                            got,
                            crc32_table(state, bytes),
                            "len {len}, offset {off}, state {state:#010x}"
                        );
                    }
                }
            }
        }
    }

    mod wide_clmul_kernel {
        use super::*;

        #[test]
        fn the_carry_less_combine_equals_the_bit_serial_one() {
            if !clmul::available() {
                eprintln!("no PCLMULQDQ + SSE4.1 on this CPU: clmul::combine not exercised");
                return;
            }
            let words = noise(0xC0B1, 8 * 4096);
            let word = |i: usize| u32::from_le_bytes(words[4 * i..4 * i + 4].try_into().unwrap());
            let edges = [0, 1, 1 << 31, u32::MAX, CRC_POLY, 0x8000_0001];
            for i in 0..4096 {
                let (a, b) = (word(2 * i), word(2 * i + 1));
                let len = (a as u64) << (i % 33) >> 3 | (i as u64 % 70);
                // SAFETY: `clmul::available` detected both features
                // `clmul::combine` enables, above.
                let got = unsafe { clmul::combine(a, b, len) };
                assert_eq!(
                    got,
                    crc32_combine_portable(a, b, len),
                    "{a:#x} {b:#x} {len}"
                );
                let (e, f) = (edges[i % edges.len()], edges[i / edges.len() % edges.len()]);
                // SAFETY: as above.
                let got = unsafe { clmul::combine(e, f, i as u64) };
                assert_eq!(
                    got,
                    crc32_combine_portable(e, f, i as u64),
                    "{e:#x} {f:#x} {i}"
                );
            }
        }

        #[test]
        fn wide_kernel_equals_the_table_loop_at_every_length_offset_and_state() {
            if !(clmul::available() && clmul::wide_available()) {
                // `Crc32::update` never selects the wide kernel here either.
                eprintln!("no VPCLMULQDQ + AVX-512F on this CPU: wide kernel not exercised");
                return;
            }
            // Every length to 1 024 — under one block, and each remainder
            // of 16-byte blocks and tail bytes after one to three — then
            // long inputs around 4 KiB, 64 KiB and a chunk image.
            const LONG: [usize; 9] = [
                4095,
                4096,
                4097,
                65_535,
                65_536 + 255,
                65_537,
                637_000,
                (2 << 20) - 1,
                (2 << 20) + 3,
            ];
            let data = noise(0x5EED, (2 << 20) + 3 + 64);
            let k = u32::from_le_bytes(noise(0x4B, 4).try_into().unwrap());
            let states = [!0, !0 ^ k, 0, crc32_table(!0, &noise(0x9E, 1000))];
            for len in (0..=1024).chain(LONG) {
                for off in [0, 1, 7, 16, 33, 63] {
                    let bytes = &data[off..off + len];
                    for state in states {
                        // SAFETY: `clmul::available` and
                        // `clmul::wide_available` detected all four features
                        // `clmul::update_wide` enables, above.
                        let got = unsafe { clmul::update_wide(state, bytes) };
                        assert_eq!(
                            got,
                            crc32_table(state, bytes),
                            "len {len}, offset {off}, state {state:#010x}"
                        );
                    }
                }
            }
        }

        #[test]
        fn the_dispatched_crc_equals_the_table_loop_in_pieces_of_every_size() {
            // Whatever tier `Crc32::update` picks per call, a stream fed in
            // pieces on either side of each kernel's length switch is the
            // table loop's CRC of the whole.
            let data = noise(0xC0FFEE, 20_000);
            for piece in [1, 15, 63, 64, 65, 255, 256, 257, 1000, 4096, 20_000] {
                let mut h = Crc32::new();
                for part in data.chunks(piece) {
                    h.update(part);
                }
                assert_eq!(h.finish(), !crc32_table(!0, &data), "pieces of {piece}");
            }
        }
    }

    mod checksum_properties {
        use super::*;
        use proptest::prelude::*;

        /// What [`content_hash64`] was before it was one walk: the plain
        /// CRC, then the bytes again behind the salt.
        fn content_hash64_two_pass(bytes: &[u8]) -> u64 {
            let plain = crc32(bytes) as u64;
            let mut salted = Crc32::new();
            salted.update(&CONTENT_HASH_SALT);
            salted.update(bytes);
            let h = (plain << 32) | salted.finish() as u64;
            h ^ (bytes.len() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        }

        #[test]
        fn content_hash_values_are_the_ones_the_two_pass_build_wrote() {
            // Computed by the last commit whose `content_hash64` hashed its
            // input twice. These name files on disk: they may never move.
            let pattern: Vec<u8> = (0..(1usize << 20) + 3)
                .map(|i| (i * 31 + (i >> 8)) as u8)
                .collect();
            assert_eq!(content_hash64(b""), 0x0000_0000_dbbe_8e4a);
            assert_eq!(content_hash64(b"123456789"), 0x4407_7ea3_b7d4_a3fb);
            assert_eq!(content_hash64(&pattern), 0xc736_7d6b_226e_e0fd);
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(6))]

            /// `combine(crc(a), crc(b), |b|) == crc(a ‖ b)` for every pair
            /// of lengths, and folding three parts left-to-right equals
            /// folding them right-to-left. A failure prints the seed to
            /// replay it with (`PROPTEST_SEED`).
            #[test]
            fn combine_is_concatenation_and_associates(seed in any::<u64>()) {
                let parts: Vec<Vec<u8>> = LENGTHS
                    .iter()
                    .enumerate()
                    .map(|(i, &len)| noise(seed ^ i as u64, len))
                    .collect();
                let crcs: Vec<u32> = parts.iter().map(|p| crc32(p)).collect();
                for (a, &ca) in parts.iter().zip(&crcs) {
                    for (b, &cb) in parts.iter().zip(&crcs) {
                        let mut h = Crc32::new();
                        h.update(a);
                        h.update(b);
                        prop_assert_eq!(
                            crc32_combine(ca, cb, b.len() as u64),
                            h.finish(),
                            "|a| = {}, |b| = {}", a.len(), b.len()
                        );
                    }
                }
                for w in 0..parts.len() - 2 {
                    let (lb, lc) = (parts[w + 1].len() as u64, parts[w + 2].len() as u64);
                    let left = crc32_combine(crc32_combine(crcs[w], crcs[w + 1], lb), crcs[w + 2], lc);
                    let right = crc32_combine(crcs[w], crc32_combine(crcs[w + 1], crcs[w + 2], lc), lb + lc);
                    let mut h = Crc32::new();
                    parts[w..w + 3].iter().for_each(|p| h.update(p));
                    prop_assert_eq!(left, h.finish(), "window {}", w);
                    prop_assert_eq!(right, h.finish(), "window {}", w);
                }
            }

            /// One `Crc32` fed a buffer in random pieces — pieces under 16
            /// and under 64 bytes, which the table loop takes, between long
            /// ones the kernel folds where the CPU has it — ends at the
            /// one-shot CRC, which is the table loop's.
            #[test]
            fn pieces_of_any_size_equal_one_shot(seed in any::<u64>()) {
                let bytes = noise(seed, 300_000);
                let one_shot = !crc32_table(!0, &bytes);
                prop_assert_eq!(crc32(&bytes), one_shot);
                let draws = noise(seed.rotate_left(32), 4096);
                let mut draws = draws.chunks_exact(2);
                let (mut h, mut at, mut pieces) = (Crc32::new(), 0, 0);
                while at < bytes.len() {
                    let w = draws.next().expect("≈ 60 pieces cover 300 KB");
                    let r = u16::from_le_bytes([w[0], w[1]]) as usize;
                    let len = match pieces % 4 {
                        0 => r % 16,
                        1 => r % 64,
                        _ => 64 + r % 20_000,
                    };
                    let end = (at + len).min(bytes.len());
                    h.update(&bytes[at..end]);
                    (at, pieces) = (end, pieces + 1);
                }
                prop_assert_eq!(h.finish(), one_shot, "{} pieces", pieces);
            }

            /// The one-walk content hash is the two-pass one, bit for bit.
            #[test]
            fn content_hash_equals_its_two_pass_definition(seed in any::<u64>()) {
                for len in LENGTHS {
                    let bytes = noise(seed, len);
                    prop_assert_eq!(
                        content_hash64(&bytes),
                        content_hash64_two_pass(&bytes),
                        "len {}", len
                    );
                }
            }
        }
    }

    #[test]
    fn aligned_buf_is_aligned_and_round_trips() {
        for len in [0usize, 1, 63, 64, 65, 1000] {
            let mut b = AlignedBuf::zeroed(len);
            assert_eq!(b.len(), len);
            assert_eq!(b.as_slice().as_ptr() as usize % ALIGNMENT, 0);
            assert!(b.as_slice().iter().all(|&x| x == 0));
            if len > 0 {
                b.as_mut_slice()[len - 1] = 7;
                assert_eq!(b.as_slice()[len - 1], 7);
            }
        }
        let c = AlignedBuf::from_slice(b"hello");
        assert_eq!(c.as_slice(), b"hello");
    }

    #[test]
    fn view_checked_rejects_bad_ranges() {
        let buf = AlignedBuf::zeroed(64);
        assert!(view_checked::<u64>(buf.as_slice(), 0, 8).is_ok());
        assert!(view_checked::<u64>(buf.as_slice(), 0, 9).is_err()); // past end
        assert!(view_checked::<u64>(buf.as_slice(), 4, 1).is_err()); // misaligned
        assert!(view_checked::<u64>(buf.as_slice(), usize::MAX, 2).is_err()); // overflow
    }

    fn sample_container() -> (Vec<u8>, Vec<u8>, Vec<u8>) {
        let a: Vec<u8> = (0..100u8).collect();
        let b: Vec<u8> = vec![0xAB; 64];
        let plans = [
            SectionPlan {
                name: section_name("alpha"),
                len: a.len() as u64,
                crc: crc32(&a),
            },
            SectionPlan {
                name: section_name("beta"),
                len: b.len() as u64,
                crc: crc32(&b),
            },
        ];
        let mut out = Vec::new();
        write_container(&mut out, b"LBESLM2\0", &plans, |i, w| {
            w.write_all(if i == 0 { &a } else { &b })
        })
        .unwrap();
        (out, a, b)
    }

    #[test]
    fn container_round_trips_with_aligned_sections() {
        let (out, a, b) = sample_container();
        assert_eq!(
            out.len() as u64,
            container_len(&[a.len() as u64, b.len() as u64])
        );
        let image = VerifiedImage::verify(AlignedBuf::from_slice(&out), b"LBESLM2\0").unwrap();
        assert_eq!(image.sections().len(), 2);
        let (off_a, len_a) = image.section(&section_name("alpha")).unwrap();
        assert_eq!(&image.as_slice()[off_a..off_a + len_a], &a[..]);
        assert_eq!(off_a % ALIGNMENT, 0);
        let (off_b, len_b) = image.section(&section_name("beta")).unwrap();
        assert_eq!(&image.as_slice()[off_b..off_b + len_b], &b[..]);
        assert_eq!(off_b % ALIGNMENT, 0);
        assert!(image.find(&section_name("gamma")).is_none());
        let err = image.section(&section_name("gamma")).unwrap_err();
        assert!(err.to_string().contains("missing section"), "{err}");
    }

    #[test]
    fn corrupt_payload_detected_by_section_crc() {
        let (out, _, _) = sample_container();
        let image = VerifiedImage::verify(AlignedBuf::from_slice(&out), b"LBESLM2\0").unwrap();
        for name in ["alpha", "beta"] {
            let (off, _) = image.section(&section_name(name)).unwrap();
            let mut bent = out.clone();
            bent[off + 3] ^= 0x40;
            let err =
                VerifiedImage::verify(AlignedBuf::from_slice(&bent), b"LBESLM2\0").unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            // The error names the damaged section, not merely the file.
            assert!(
                err.to_string().contains("checksum") && err.to_string().contains(name),
                "{err}"
            );
        }
    }

    #[test]
    fn verified_image_crc_is_the_crc_of_every_byte_padding_included() {
        let (out, a, _) = sample_container();
        let image = VerifiedImage::verify(AlignedBuf::from_slice(&out), b"LBESLM2\0").unwrap();
        assert_eq!(image.crc(), crc32(&out));
        assert_eq!(image.content_hash(), content_hash64(&out));
        assert_eq!(image.into_arena().as_slice(), &out[..]);
        // "alpha" ends 28 bytes short of the next aligned offset. No section
        // CRC covers that gap, so a flip there still verifies — but the
        // folded whole-image CRC moves with it, which is what lets a
        // content-hash check hang off the fold instead of a second pass.
        let off_a = (HEADER_LEN + 2 * SECTION_RECORD_LEN).next_multiple_of(ALIGNMENT);
        let gap = off_a + a.len() + 5;
        assert_eq!(out[gap], 0);
        let mut bent = out.clone();
        bent[gap] ^= 0x04;
        let image = VerifiedImage::verify(AlignedBuf::from_slice(&bent), b"LBESLM2\0").unwrap();
        assert_eq!(image.crc(), crc32(&bent));
        assert_ne!(image.crc(), crc32(&out));
        // Empty container: the image is its prefix.
        let mut empty = Vec::new();
        write_container(&mut empty, b"LBESLM2\0", &[], |_, _| unreachable!()).unwrap();
        let image = VerifiedImage::verify(AlignedBuf::from_slice(&empty), b"LBESLM2\0").unwrap();
        assert_eq!(image.crc(), crc32(&empty));
    }

    #[test]
    fn verified_image_rejects_sections_that_alias_or_run_backwards() {
        // A table whose records are individually fine (aligned, in bounds,
        // CRCs right) but do not describe consecutive regions: the fold of
        // such regions is not the image's CRC, so it is refused, typed.
        let (out, _, _) = sample_container();
        let parsed = ParsedContainer::parse(&out, 0, None, b"LBESLM2\0").unwrap();
        let [alpha, beta] = [parsed.sections()[0], parsed.sections()[1]];
        let with_table = |records: &[Section]| {
            let mut bent = out.clone();
            let table = table_bytes(records);
            bent[HEADER_LEN..HEADER_LEN + table.len()].copy_from_slice(&table);
            bent[24..28].copy_from_slice(&crc32(&table).to_le_bytes());
            bent
        };
        let renamed = Section {
            name: section_name("alpha2"),
            ..alpha
        };
        let over_the_header = Section {
            offset: 0,
            len: HEADER_LEN as u64,
            crc: crc32(&with_table(&[alpha, beta])[..HEADER_LEN]),
            ..alpha
        };
        for (what, records) in [
            ("same payload twice", [alpha, renamed]),
            ("descending offsets", [beta, alpha]),
            ("a section over the header", [over_the_header, beta]),
        ] {
            let bent = with_table(&records);
            ParsedContainer::parse(&bent, 0, None, b"LBESLM2\0").expect(what);
            let err =
                VerifiedImage::verify(AlignedBuf::from_slice(&bent), b"LBESLM2\0").unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}");
            assert!(err.to_string().contains("table order"), "{what}: {err}");
        }
        assert!(VerifiedImage::verify(
            AlignedBuf::from_slice(&with_table(&[alpha, beta])),
            b"LBESLM2\0"
        )
        .is_ok());
    }

    #[test]
    fn corrupt_table_and_truncation_detected() {
        let (out, _, _) = sample_container();
        // Bit flip inside the table.
        let mut t = out.clone();
        t[HEADER_LEN + 9] ^= 1;
        let buf = AlignedBuf::from_slice(&t);
        assert!(ParsedContainer::parse(buf.as_slice(), 0, None, b"LBESLM2\0").is_err());
        // Truncation at every prefix length fails cleanly.
        for cut in [0, 7, HEADER_LEN - 1, HEADER_LEN + 5, out.len() - 1] {
            let buf = AlignedBuf::from_slice(&out[..cut]);
            assert!(
                ParsedContainer::parse(buf.as_slice(), 0, None, b"LBESLM2\0").is_err(),
                "cut {cut}"
            );
        }
        // Wrong magic.
        let mut m = out.clone();
        m[0] = b'X';
        let buf = AlignedBuf::from_slice(&m);
        assert!(ParsedContainer::parse(buf.as_slice(), 0, None, b"LBESLM2\0").is_err());
    }

    #[test]
    fn emit_length_mismatch_is_an_error() {
        let plans = [SectionPlan {
            name: section_name("short"),
            len: 10,
            crc: 0,
        }];
        let mut out = Vec::new();
        let err = write_container(&mut out, b"LBESLM2\0", &plans, |_, w| w.write_all(b"abc"))
            .unwrap_err();
        assert!(err.to_string().contains("planned"));
    }

    #[test]
    fn file_container_reads_sections_lazily() {
        let (out, a, b) = sample_container();
        let dir = std::env::temp_dir().join("lbe_format_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("c.bin");
        std::fs::write(&path, &out).unwrap();
        let mut fc = FileContainer::open(&path, b"LBESLM2\0").unwrap();
        assert_eq!(fc.len(), out.len() as u64);
        assert!(!fc.is_empty());
        assert_eq!(
            fc.read_section(&section_name("beta")).unwrap().as_slice(),
            &b[..]
        );
        assert_eq!(
            fc.read_section(&section_name("alpha")).unwrap().as_slice(),
            &a[..]
        );
        assert!(fc.read_section(&section_name("nope")).is_err());
        // A truncated file is rejected at open.
        std::fs::write(&path, &out[..out.len() - 1]).unwrap();
        assert!(FileContainer::open(&path, b"LBESLM2\0").is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn section_name_pads_with_nuls() {
        assert_eq!(&section_name("abc"), b"abc\0\0\0\0\0");
        assert_eq!(&section_name("postings"), b"postings");
    }

    #[test]
    fn empty_container_round_trips() {
        let mut out = Vec::new();
        write_container(&mut out, b"LBECHK3\0", &[], |_, _| unreachable!()).unwrap();
        assert_eq!(out.len(), HEADER_LEN);
        let buf = AlignedBuf::from_slice(&out);
        let c = ParsedContainer::parse(buf.as_slice(), 0, None, b"LBECHK3\0").unwrap();
        assert!(c.sections().is_empty());
    }
}
