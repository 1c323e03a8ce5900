//! The sparse bin directory: which fragment bins hold postings, and where.
//!
//! A partition's fragments occupy a minority of the quantized m/z axis
//! (a quarter of the bins on a 9 M-ion index, about 1 % on a paged chunk),
//! so a dense row-pointer per bin is mostly a 4 MB table of repeats. The
//! directory stores only what differs:
//!
//! ```text
//! bitmap:  u64[num_bins / 64 + 1]   bit b set ⇔ bin b holds ≥ 1 posting
//! rank:    u32[bitmap.len()]        set bits in the words before this one
//!                                   (recomputed from the bitmap, never stored)
//! starts:  u32[occupied + 1]        posting offset of each occupied bin, in
//!                                   bin order, then the posting count
//! ```
//!
//! The k-th occupied bin's postings are `starts[k]..starts[k + 1]`, and a
//! bin's k is its rank: `rank[b / 64] + popcount(bitmap[b / 64] below bit
//! b % 64)`. Occupied bins of a contiguous bin window are contiguous in
//! `starts`, so a peak's tolerance window costs two rank lookups and then
//! walks adjacent offsets — an empty bin costs no load at all.
//!
//! The representation is canonical (an occupied bin is a non-empty run, so
//! `starts` is strictly increasing): one logical CSR has exactly one
//! directory, which is what lets index equality and byte-identical
//! rebuilds compare the arrays directly.
//!
//! # Checking a directory at the CPU's vector width
//!
//! Every load and every chunk fault recomputes the rank table and runs
//! [`validate`] — whole-bitmap popcounts and a scan of every offset — and
//! [`crate::SlmIndex::validate`]'s scans of every posting and entry. The
//! default x86-64 target has no POPCNT (a `count_ones` is a dozen shifts
//! and masks) and no 256-bit integer compares, so each of these kernels is
//! defined by [`vector_tiered!`]: one source compiled twice, as built and
//! for AVX2 + POPCNT, the second run on a CPU that has both (detected at
//! run time, per call, from the standard library's cached flags). Same
//! source, same answer; the portable build is the fallback on other CPUs
//! and the twin the tests hold the tier to. Per `serve_paged` fault (a
//! 3 126-word bitmap, ≈ 20 k offsets, ≈ 60 k postings; 2.1 GHz TSC cycles)
//! the rank table fell from ≈ 25 k cycles to ≈ 8 k and the structural
//! validation from ≈ 33 k to ≈ 20 k.

/// Defines `$name`, which runs `$body` compiled for AVX2 and POPCNT when
/// this CPU has both and as built otherwise, and `$portable`, the as-built
/// twin (`#[inline(always)]`, which is what carries its body into the
/// tier's `#[target_feature]` function).
macro_rules! vector_tiered {
    ($(#[$doc:meta])* $vis:vis fn $name:ident / $portable:ident
        ($($arg:ident: $ty:ty),* $(,)?) -> $ret:ty $body:block) => {
        $(#[$doc])*
        $vis fn $name($($arg: $ty),*) -> $ret {
            #[cfg(target_arch = "x86_64")]
            if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("popcnt") {
                #[target_feature(enable = "avx2,popcnt")]
                fn wide($($arg: $ty),*) -> $ret {
                    $portable($($arg),*)
                }
                // SAFETY: `wide` enables AVX2 and POPCNT, and both were
                // just detected on this CPU.
                return unsafe { wide($($arg),*) };
            }
            $portable($($arg),*)
        }

        #[doc = concat!("[`", stringify!($name), "`] as built, whatever the CPU.")]
        #[inline(always)]
        fn $portable($($arg: $ty),*) -> $ret $body
    };
}
pub(crate) use vector_tiered;

/// Words in the occupancy bitmap of a `num_bins`-bin axis: one bit per bin
/// plus the one-past-the-end position `num_bins`, so the rank of a window's
/// exclusive end is always an in-bounds lookup.
pub(crate) fn bitmap_words(num_bins: usize) -> usize {
    num_bins / 64 + 1
}

/// Borrowed view of one index's directory arrays.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BinDirectory<'a> {
    pub(crate) bitmap: &'a [u64],
    pub(crate) rank: &'a [u32],
    pub(crate) starts: &'a [u32],
}

impl<'a> BinDirectory<'a> {
    /// Number of occupied bins below `bin` (`bin ≤ num_bins`).
    #[inline]
    fn rank_of(&self, bin: u32) -> usize {
        let w = (bin >> 6) as usize;
        let below = self.bitmap[w] & ((1u64 << (bin & 63)) - 1);
        self.rank[w] as usize + below.count_ones() as usize
    }

    /// The posting range of one bin; empty for an unoccupied bin and for
    /// any bin beyond the axis (no bit is set there).
    #[inline]
    pub(crate) fn run(&self, bin: u32) -> std::ops::Range<usize> {
        let word = self.bitmap.get((bin >> 6) as usize).copied().unwrap_or(0);
        if (word >> (bin & 63)) & 1 == 0 {
            return 0..0;
        }
        let k = self.rank_of(bin);
        self.starts[k] as usize..self.starts[k + 1] as usize
    }

    /// The offsets delimiting the occupied bins of the inclusive bin window
    /// `[lo, hi]` (`hi < num_bins`): consecutive pairs of the returned
    /// slice are those bins' posting ranges, in ascending bin order. One
    /// element (no pairs) when the window holds no postings.
    #[inline]
    pub(crate) fn window(&self, lo: u32, hi: u32) -> &'a [u32] {
        &self.starts[self.rank_of(lo)..=self.rank_of(hi + 1)]
    }
}

vector_tiered! {
    /// The per-word running popcount of `bitmap`. Wrapping, so a corrupt
    /// oversized bitmap cannot panic here; [`validate`] recounts in `usize`.
    pub(crate) fn ranks / ranks_portable(bitmap: &[u64]) -> Vec<u32> {
        let mut acc = 0u32;
        bitmap
            .iter()
            .map(|w| {
                let before = acc;
                acc = acc.wrapping_add(w.count_ones());
                before
            })
            .collect()
    }
}

vector_tiered! {
    /// Set bits in `bitmap`, counted in `usize`.
    fn population / population_portable(bitmap: &[u64]) -> usize {
        bitmap.iter().map(|w| w.count_ones() as usize).sum()
    }
}

vector_tiered! {
    /// `true` unless every offset is below the next.
    fn not_increasing / not_increasing_portable(starts: &[u32]) -> bool {
        // A fold, not `any`: without the early exit the scan vectorises.
        starts
            .iter()
            .zip(starts.iter().skip(1))
            .fold(false, |bad, (a, b)| bad | (a >= b))
    }
}

/// Structural check of a directory against its index — O(words +
/// occupied), no posting scan. Everything [`BinDirectory`]'s lookups index
/// with is bounded here, so a directory that passes cannot send a search
/// out of bounds.
pub(crate) fn validate(
    num_bins: usize,
    bitmap: &[u64],
    starts: &[u32],
    num_postings: usize,
) -> Result<(), String> {
    if bitmap.len() != bitmap_words(num_bins) {
        return Err("bin bitmap length does not match the configuration".into());
    }
    let tail = bitmap[bitmap.len() - 1];
    if tail >> (num_bins & 63) != 0 {
        return Err("bin bitmap marks a bin beyond the configured range".into());
    }
    let occupied = population(bitmap);
    if occupied + 1 != starts.len() {
        return Err("bin bitmap population does not match the bin offset count".into());
    }
    if starts[0] != 0 {
        return Err("first bin offset is not 0".into());
    }
    if not_increasing(starts) {
        return Err("bin offsets not strictly increasing".into());
    }
    if starts[occupied] as usize != num_postings {
        return Err("final offset != postings length".into());
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Builds the stored half of a directory (`bitmap`, `starts`) from
    /// dense CSR prefix sums (`num_bins + 1` of them): the oracle the
    /// builder's reference build and these tests compare against. Fails
    /// on input no directory can represent: a first offset other than 0 or
    /// a decreasing pair.
    pub(crate) fn from_dense(dense: &[u32]) -> Result<(Vec<u64>, Vec<u32>), String> {
        let Some((&first, &last)) = dense.first().zip(dense.last()) else {
            return Err("bin offset table is empty".into());
        };
        if first != 0 {
            return Err("first bin offset is not 0".into());
        }
        let num_bins = dense.len() - 1;
        let occupied = dense.windows(2).filter(|w| w[0] != w[1]).count();
        let mut bitmap = vec![0u64; bitmap_words(num_bins)];
        let mut starts = Vec::with_capacity(occupied + 1);
        for (b, w) in dense.windows(2).enumerate() {
            if w[0] > w[1] {
                return Err("bin offsets not monotone".into());
            }
            if w[0] < w[1] {
                bitmap[b >> 6] |= 1 << (b & 63);
                starts.push(w[0]);
            }
        }
        starts.push(last);
        Ok((bitmap, starts))
    }

    fn view<'a>(bitmap: &'a [u64], rank: &'a [u32], starts: &'a [u32]) -> BinDirectory<'a> {
        BinDirectory {
            bitmap,
            rank,
            starts,
        }
    }

    /// Dense offsets with `counts[b]` postings in bin `b`.
    fn dense(counts: &[u32]) -> Vec<u32> {
        std::iter::once(0)
            .chain(counts.iter().scan(0u32, |acc, &c| {
                *acc += c;
                Some(*acc)
            }))
            .collect()
    }

    #[test]
    fn lookups_agree_with_dense_offsets_at_word_edges() {
        // 130 bins: occupied at 0, 63, 64, 65 and the last bin.
        // The directory is written out by hand here, not by `from_dense`,
        // so its lookups are checked against plain slicing of the dense
        // offsets; `from_dense` must then produce the same arrays.
        let mut counts = vec![0u32; 130];
        for (b, c) in [(0, 2), (63, 1), (64, 3), (65, 1), (129, 4)] {
            counts[b] = c;
        }
        let d = dense(&counts);
        let bitmap: Vec<u64> = vec![1 | 1 << 63, 0b11, 1 << (129 - 128)];
        let starts: Vec<u32> = vec![0, 2, 3, 6, 7, 11];
        assert_eq!(from_dense(&d).unwrap(), (bitmap.clone(), starts.clone()));
        let rank = ranks(&bitmap);
        assert_eq!(rank, vec![0, 2, 4]);
        validate(130, &bitmap, &starts, 11).unwrap();
        let dir = view(&bitmap, &rank, &starts);
        for b in 0..130usize {
            let want = d[b] as usize..d[b + 1] as usize;
            let got = dir.run(b as u32);
            assert!(got == want || (got.is_empty() && want.is_empty()), "{b}");
        }
        for lo in 0..130u32 {
            for hi in lo..130u32 {
                let want: Vec<(u32, u32)> = (lo..=hi)
                    .filter(|&b| counts[b as usize] > 0)
                    .map(|b| (d[b as usize] as u32, d[b as usize + 1] as u32))
                    .collect();
                let got: Vec<(u32, u32)> = dir
                    .window(lo, hi)
                    .windows(2)
                    .map(|w| (w[0], w[1]))
                    .collect();
                assert_eq!(got, want, "window [{lo}, {hi}]");
            }
        }
    }

    #[test]
    fn bin_count_on_a_word_boundary_keeps_the_end_rank_in_bounds() {
        // 128 bins fill two words exactly; the third word exists only so
        // the rank of the exclusive end (bin 128) is a plain lookup.
        let mut counts = vec![0u32; 128];
        counts[127] = 5;
        let (bitmap, starts) = from_dense(&dense(&counts)).unwrap();
        assert_eq!(bitmap.len(), 3);
        let rank = ranks(&bitmap);
        validate(128, &bitmap, &starts, 5).unwrap();
        let dir = view(&bitmap, &rank, &starts);
        assert_eq!(dir.window(120, 127), &[0, 5]);
        assert_eq!(dir.window(0, 126), &[0]);
    }

    #[test]
    fn empty_directory_is_valid_and_answers_empty() {
        let (bitmap, starts) = from_dense(&dense(&[0; 70])).unwrap();
        assert_eq!(starts, vec![0]);
        let rank = ranks(&bitmap);
        validate(70, &bitmap, &starts, 0).unwrap();
        let dir = view(&bitmap, &rank, &starts);
        assert_eq!(dir.run(69), 0..0);
        assert_eq!(dir.run(70), 0..0);
        assert_eq!(dir.run(u32::MAX), 0..0);
        assert_eq!(dir.window(0, 69), &[0]);
    }

    #[test]
    fn from_dense_rejects_what_it_cannot_represent() {
        assert!(from_dense(&[]).is_err());
        assert!(from_dense(&[1, 1]).unwrap_err().contains("not 0"));
        assert!(from_dense(&[0, 5, 3]).unwrap_err().contains("monotone"));
    }

    /// `true` (after saying so) unless this CPU runs the vector tier.
    pub(crate) fn vector_tier_untestable() -> bool {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("popcnt") {
            return false;
        }
        eprintln!("no AVX2 + POPCNT on this CPU: the vector tier is not exercised");
        true
    }

    /// A seeded xorshift stream.
    pub(crate) fn xorshift(mut x: u64) -> impl FnMut() -> u64 {
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    #[test]
    fn the_vector_tier_equals_the_portable_build_on_random_directories() {
        if vector_tier_untestable() {
            return;
        }
        let mut next = xorshift(0x1234_5678_9ABC_DEF1);
        for num_bins in [0usize, 1, 63, 64, 65, 127, 128, 1000, 4095, 200_001] {
            let words = bitmap_words(num_bins);
            for density in [0u32, 1, 8, 32, 63] {
                // Each bit set with probability density / 64, bits beyond
                // the axis (in the tail word) included.
                let bitmap: Vec<u64> = (0..words)
                    .map(|_| {
                        (0..64).fold(0u64, |w, b| {
                            w | (((next() % 64) < density as u64) as u64) << b
                        })
                    })
                    .collect();
                assert_eq!(ranks(&bitmap), ranks_portable(&bitmap));
                assert_eq!(population(&bitmap), population_portable(&bitmap));
                let occupied = population_portable(&bitmap);
                let mut starts: Vec<u32> = (0..=occupied as u32).map(|k| 3 * k).collect();
                if occupied > 2 && density % 2 == 1 {
                    // A tie or a step back somewhere.
                    let at = 1 + (next() as usize % (occupied - 1));
                    starts[at] = starts[at - 1] - (density % 4 == 1) as u32;
                }
                assert_eq!(not_increasing(&starts), not_increasing_portable(&starts));
            }
        }
    }

    #[test]
    fn validate_names_each_broken_invariant() {
        let (bitmap, starts) = from_dense(&dense(&[1, 0, 2, 0, 0])).unwrap();
        validate(5, &bitmap, &starts, 3).unwrap();
        let check =
            |bitmap: &[u64], starts: &[u32], n: usize| validate(5, bitmap, starts, n).unwrap_err();
        assert!(check(&[bitmap[0], 0], &starts, 3).contains("length"));
        assert!(check(&[bitmap[0] | 1 << 5], &starts, 3).contains("beyond"));
        assert!(check(&[bitmap[0] | 1 << 63], &starts, 3).contains("beyond"));
        assert!(check(&[bitmap[0] ^ 2], &starts, 3).contains("population"));
        assert!(check(&bitmap, &[0, 1], 3).contains("population"));
        assert!(check(&bitmap, &[1, 2, 3], 3).contains("not 0"));
        assert!(check(&bitmap, &[0, 1, 1], 1).contains("strictly"));
        assert!(check(&bitmap, &[0, 3, 2], 2).contains("strictly"));
        assert!(check(&bitmap, &starts, 4).contains("final offset"));
    }
}
