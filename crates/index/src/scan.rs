//! The two inner loops of the query kernel: the posting-run scatter
//! ([`accumulate_run`]) and the candidate sweep ([`sweep_band`]).
//!
//! [`crate::query`] collects each query's admitted posting runs into an SoA
//! run table (`u32` entry-id lanes live in the index's flat posting array;
//! the per-run intensity weight is a separate lane), drives every run
//! through [`accumulate_run`], then hands the band's slots to
//! [`sweep_band`], which finds the candidates and clears the scratch.
//!
//! Where a ±500 Da query's time goes (`lbe-e2e` `batch_open`: ≈ 39 300 band
//! slots, ≈ 30 000 postings scattered, ≈ 21 100 slots hit, ≈ 430 of them at
//! or over `shared_peak_threshold`; three `Instant`s on a scratch copy, so
//! shares, not microseconds): bin resolution 19 %, scatter 14 %, sweep
//! **67 %** while the sweep tested `count == 0` per slot; 38 % / 36 % / 26 %
//! of a query 2.5× shorter with the sweep below. The scatter was never the
//! large term (≈ 1.2 ns a posting; an AVX2 arm that tuned it lost its
//! trial) — the per-slot branch on a 54 %-dense band was.
//!
//! * **Fused range proof + scatter** ([`accumulate_run`]): the run is
//!   consumed in [`LANES`]-wide chunks. Per chunk, the band-relative slot
//!   indices and a fused out-of-range mask are computed in one lane loop —
//!   pure arithmetic the compiler autovectorizes (a hand-written AVX2 mask
//!   measured no faster on `lbe-e2e`'s `batch_open`, so there is none). A
//!   clean mask *proves* every lane maps into the scratch slice — without
//!   trusting the container's sortedness claims — so the scatter that
//!   follows runs without bounds checks: two read-modify-writes per lane,
//!   nothing else. A dirty mask (only possible
//!   for a corrupt index loaded with validation off) drops that chunk to
//!   the bounds-checked loop, which panics exactly as the pre-SoA kernel's
//!   indexing did instead of touching memory out of bounds. An earlier
//!   revision proved the range with a *separate* min/max reduction over the
//!   whole run first; fusing the proof into the index computation removed a
//!   second pass over every run — measurably faster on the bin-sized runs
//!   (tens of postings) the kernel actually sees. First-touch tracking
//!   deliberately does not live here either — "seen before?" is true for
//!   about half of a wide band's slots, so a per-scatter branch on it is
//!   the coin flip the sweep just got rid of, taken once per posting
//!   instead of once per slot. The scatter itself stays scalar on purpose:
//!   duplicate entry ids within one run are legal (a spectrum can
//!   contribute several fragments to one bin window), so a hardware scatter
//!   would lose increments.
//! * **Prefetch** ([`prefetch_postings`], [`prefetch_search_path`]): while
//!   run *r* is accumulating, the first lines of run *r + 1* are requested;
//!   before bin *b*'s run is resolved against the band, bin *b + 4*'s
//!   endpoints are, and for a bin of more than 16 postings its seven
//!   eighth-points (the first three levels of its binary searches).
//!   `_mm_prefetch` needs no CPU feature beyond x86_64 itself, so the hints
//!   are active in every build on that arch (no-ops elsewhere) — prefetch
//!   is purely a performance hint, never a correctness dependency.
//! * **Candidate sweep** ([`sweep_band`]): one pass over the band's slots
//!   in fixed-size chunks — a hit mask per chunk, a walk over its set bits,
//!   one array store to clear — whose only data-dependent branch is on the
//!   rare event (a slot at or over the threshold), not on the common one
//!   (a slot that was hit at all).
//!
//! Sub-chunk remainders (and the entirety of runs shorter than one chunk —
//! the common case on narrow ppm bands and sparse bins) take the plain
//! bounds-checked scalar loop; its never-taken panic branch predicts
//! perfectly and costs less than any mask setup at those lengths.
//!
//! Equivalence between the chunked/unchecked path and the scalar reference
//! is proptested below across lane remainders (0..[`LANES`] leftovers),
//! unaligned band starts, duplicate ids, and empty runs; the sweep is
//! proptested against the per-slot loop it replaced.

/// Lanes per inner-loop chunk: eight `u32` entry ids — one 256-bit vector
/// register.
pub const LANES: usize = 8;

/// One band-relative scratch slot: the shared-peak counter and the matched
/// intensity sum packed into eight bytes, so every posting scatter touches
/// exactly **one** cache line instead of the two a split counts/intensity
/// pair costs (at open-mod band widths the scratch exceeds L1), and the
/// sweep reads and clears half the bytes it otherwise would. The scatter is
/// about a seventh of a ±500 Da query (module doc), so this packing is a
/// modest term, not the dominant one. A fresh or swept slot is all-zero, so
/// [`sweep_band`] clears a chunk with one array store.
#[derive(Clone, Copy, Default, PartialEq, Debug)]
#[repr(C, align(8))]
pub(crate) struct Slot {
    /// Shared-peak count (saturating at `u16::MAX`).
    pub count: u16,
    _pad: u16,
    /// Matched-intensity sum.
    pub intensity: f32,
}

impl Slot {
    /// A slot holding explicit values (tests and scratch poisoning).
    #[cfg(test)]
    pub fn new(count: u16, intensity: f32) -> Self {
        Slot {
            count,
            _pad: 0,
            intensity,
        }
    }

    /// `true` when the slot has never been hit since its last reset.
    #[inline]
    pub fn is_clear(&self) -> bool {
        self.count == 0 && self.intensity == 0.0
    }
}

/// Per-chunk band-relative indices plus a fused out-of-range flag. Pure
/// arithmetic over the chunk's lanes (autovectorizes). Returns `true` iff
/// **any** lane falls outside `0..width` — a `false` return proves every
/// `idx[j] < width` without assuming the run is sorted.
///
/// `c` must hold at least [`LANES`] elements and `width` must be nonzero
/// (both guaranteed by the chunking caller; debug-asserted).
#[inline(always)]
fn chunk_indices(c: &[u32], band_lo: u32, width: usize, idx: &mut [usize; LANES]) -> bool {
    debug_assert!(c.len() >= LANES && width > 0);
    let mut oob = false;
    for j in 0..LANES {
        // wrapping_sub sends ids below the band to huge offsets, so the
        // single `>= width` test catches both out-of-range directions.
        let e = c[j].wrapping_sub(band_lo) as usize;
        idx[j] = e;
        oob |= e >= width;
    }
    oob
}

/// Hints the first cache lines of the next posting run into L1 while the
/// current run is still accumulating. Active on x86_64 in every build
/// (`_mm_prefetch` needs no feature gate); a no-op elsewhere.
#[inline(always)]
pub(crate) fn prefetch_postings(run: &[u32]) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch hints are architecturally valid for any address and
    // never fault; the pointer here additionally comes from a live slice.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        if let Some(first) = run.first() {
            _mm_prefetch(first as *const u32 as *const i8, _MM_HINT_T0);
            if run.len() > 16 {
                // A second line for long runs (16 u32s per 64-byte line).
                _mm_prefetch((first as *const u32).add(16) as *const i8, _MM_HINT_T0);
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = run;
}

/// Hints the loads that resolving a bin's posting run will make: its two
/// endpoints (the fragment-level band's O(1) prune/accept test) and, for a
/// run longer than one cache line's 16 postings, its seven eighth-points —
/// the first three levels of `partition_point`'s search path when the band
/// cuts the bin. Phase one of the kernel issues this a few bins ahead of
/// the one it resolves: bin runs are scattered across the posting array,
/// so these loads are the cold misses of resolution. Active on x86_64 in
/// every build; a no-op elsewhere.
#[inline(always)]
pub(crate) fn prefetch_search_path(run: &[u32]) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch hints are architecturally valid for any address and
    // never fault; besides, every pointer here lies inside the live slice:
    // `first`/`last` are its elements, and `len * k / 8 < len` for
    // `0 < k < 8` keeps each eighth-point offset in bounds.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        if let (Some(first), Some(last)) = (run.first(), run.last()) {
            _mm_prefetch(first as *const u32 as *const i8, _MM_HINT_T0);
            _mm_prefetch(last as *const u32 as *const i8, _MM_HINT_T0);
            let len = run.len();
            if len > 16 {
                let base = run.as_ptr();
                for k in 1..8 {
                    _mm_prefetch(base.add(len * k / 8) as *const i8, _MM_HINT_T0);
                }
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = run;
}

/// Accumulates one admitted posting run into band-relative scratch:
/// `slots[id − band_lo].count += 1` (saturating), `.intensity += weight`.
/// No touch tracking — the candidate pass discovers hit slots by sweeping
/// the band (see [`crate::query`]), which keeps this loop free of
/// data-dependent branches.
///
/// Whole chunks go through [`chunk_indices`] — a clean mask licenses the
/// unchecked scatter; a dirty one (only possible for a corrupt index whose
/// claimed-in-band bin runs are not) drops the chunk to the bounds-checked
/// loop, which panics on the bad id exactly as the pre-SoA kernel's
/// indexing did, instead of touching memory out of bounds. The sub-chunk
/// remainder (and any run shorter than one chunk) takes the bounds-checked
/// loop directly.
#[inline]
pub(crate) fn accumulate_run(run: &[u32], weight: f32, band_lo: u32, slots: &mut [Slot]) {
    let width = slots.len();
    let mut idx = [0usize; LANES];
    let mut chunks = run.chunks_exact(LANES);
    for c in &mut chunks {
        if width == 0 || chunk_indices(c, band_lo, width, &mut idx) {
            // Cold: some lane is out of band. The checked loop pinpoints
            // it with a panic.
            accumulate_run_scalar(c, weight, band_lo, slots);
            continue;
        }
        for &e in &idx {
            // SAFETY: a clean chunk_indices mask proved `e < slots.len()`
            // for every lane of this chunk.
            let s = unsafe { slots.get_unchecked_mut(e) };
            s.count = s.count.saturating_add(1);
            s.intensity += weight;
        }
    }
    accumulate_run_scalar(chunks.remainder(), weight, band_lo, slots);
}

/// The bounds-checked reference loop (remainders, short runs, and the
/// corrupt-chunk cold path).
fn accumulate_run_scalar(run: &[u32], weight: f32, band_lo: u32, slots: &mut [Slot]) {
    for &entry in run {
        let e = (entry.wrapping_sub(band_lo)) as usize;
        let s = &mut slots[e];
        s.count = s.count.saturating_add(1);
        s.intensity += weight;
    }
}

/// Slots per [`sweep_band`] chunk: one `u32` hit mask. Measured best of
/// 16 / 32 / 64 on `lbe-e2e`'s `batch_open`.
const SWEEP_CHUNK: usize = 32;

/// The candidate sweep: calls `emit(offset, count, intensity)` for every
/// slot whose count reaches `max(threshold, 1)`, in ascending offset order,
/// and leaves **every** slot of `slots` clear for the next query.
///
/// A hit slot is the common case, not the exception: on a ±500 Da band
/// about half the slots are non-zero and about 2 % of those reach the
/// threshold (module doc). A per-slot `if count == 0` is therefore a coin
/// flip the branch predictor loses some 20 000 times a query. The rare
/// event is *over threshold*, so that is the only thing the chunk body
/// branches on: whole chunks are taken as `&mut [Slot; SWEEP_CHUNK]` (the
/// constant trip count is what lets the compiler unroll the mask loop into
/// straight-line compares), one bit per slot is gathered into a mask, only
/// the set bits are visited, and the chunk is zeroed with one array store
/// whether or not anything in it was hit. The `len % SWEEP_CHUNK`
/// remainder — and so the whole of any band narrower than one chunk, as
/// narrow closed-search bands are — takes the plain per-slot loop.
///
/// A zero-count slot is never a candidate, whatever the threshold (an
/// entry no posting hit shares no peak).
#[inline]
pub(crate) fn sweep_band(
    slots: &mut [Slot],
    threshold: u16,
    mut emit: impl FnMut(usize, u16, f32),
) {
    let floor = threshold.max(1);
    let mut chunks = slots.chunks_exact_mut(SWEEP_CHUNK);
    let mut base = 0usize;
    for chunk in &mut chunks {
        let chunk: &mut [Slot; SWEEP_CHUNK] = chunk
            .try_into()
            .expect("chunks_exact_mut yields SWEEP_CHUNK slots");
        let mut mask = 0u32;
        for (j, s) in chunk.iter().enumerate() {
            mask |= u32::from(s.count >= floor) << j;
        }
        while mask != 0 {
            let j = mask.trailing_zeros() as usize;
            emit(base + j, chunk[j].count, chunk[j].intensity);
            mask &= mask - 1;
        }
        *chunk = [Slot::default(); SWEEP_CHUNK];
        base += SWEEP_CHUNK;
    }
    for (j, s) in chunks.into_remainder().iter_mut().enumerate() {
        if s.count >= floor {
            emit(base + j, s.count, s.intensity);
        }
        *s = Slot::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Oracle: the plain loop on fresh scratch.
    fn reference(run: &[u32], weight: f32, band_lo: u32, width: usize) -> Vec<Slot> {
        let mut slots = vec![Slot::default(); width];
        for &entry in run {
            let e = (entry - band_lo) as usize;
            slots[e].count = slots[e].count.saturating_add(1);
            slots[e].intensity += weight;
        }
        slots
    }

    #[test]
    fn chunk_mask_catches_every_single_bad_lane() {
        // For each lane position, one id below the band and one past its
        // end must both dirty the mask; an all-in-band chunk must not.
        let width = 16usize;
        let band_lo = 1000u32;
        let mut idx = [0usize; LANES];
        let clean = [band_lo + 3; LANES];
        assert!(!chunk_indices(&clean, band_lo, width, &mut idx));
        assert!(idx.iter().all(|&e| e == 3));
        for lane in 0..LANES {
            for bad in [band_lo - 1, band_lo + width as u32] {
                let mut c = clean;
                c[lane] = bad;
                assert!(
                    chunk_indices(&c, band_lo, width, &mut idx),
                    "lane {lane} id {bad} escaped the mask"
                );
            }
        }
    }

    #[test]
    fn empty_run_is_a_no_op() {
        let mut slots = vec![Slot::default(); 4];
        accumulate_run(&[], 1.0, 7, &mut slots);
        assert!(slots.iter().all(Slot::is_clear));
    }

    #[test]
    fn prefetch_hints_accept_any_run_shape() {
        // Pure hints — the only observable contract is "never faults",
        // including on empty and single-element runs.
        for run in [
            &[][..],
            &[1u32][..],
            &[1u32; 16][..],
            &[1u32; 17][..],
            &[1u32; 40][..],
        ] {
            prefetch_postings(run);
            prefetch_search_path(run);
        }
    }

    #[test]
    #[should_panic]
    fn out_of_band_id_panics_instead_of_corrupting() {
        // A corrupt index can present an id outside the band; the kernel
        // must fail the bounds check (like the pre-SoA indexing), never
        // scatter out of bounds. A long otherwise-valid run with one bad
        // lane mid-chunk exercises the dirty-mask cold path.
        let mut run = vec![100u32; 3 * LANES];
        run[LANES + 3] = 9999;
        let mut slots = vec![Slot::default(); 8];
        accumulate_run(&run, 1.0, 100, &mut slots);
    }

    /// Oracle for [`sweep_band`]: the candidate pass as
    /// `Searcher::search_with_opts` ran it before the sweep moved here —
    /// zero-skippable chunks, then a per-slot `count == 0` test — verbatim
    /// but for `emit` standing in for admission and scoring.
    #[allow(clippy::needless_range_loop)] // verbatim, indexing included
    fn sweep_reference(slots: &mut [Slot], threshold: u16, mut emit: impl FnMut(usize, u16, f32)) {
        let width = slots.len();
        let mut e = 0usize;
        while e < width {
            let chunk_end = (e + 32).min(width);
            if slots[e..chunk_end].iter().all(Slot::is_clear) {
                e = chunk_end;
                continue;
            }
            for off in e..chunk_end {
                let shared = slots[off].count;
                if shared == 0 {
                    continue;
                }
                let matched = slots[off].intensity;
                slots[off] = Slot::default();
                if shared < threshold {
                    continue;
                }
                emit(off, shared, matched);
            }
            e = chunk_end;
        }
    }

    /// Runs one sweep, returning what it emitted (intensity as bits, so the
    /// comparison is exact) and whether it left every slot clear.
    fn swept(
        sweep: impl FnOnce(&mut [Slot], u16, &mut dyn FnMut(usize, u16, f32)),
        mut slots: Vec<Slot>,
        threshold: u16,
    ) -> (Vec<(usize, u16, u32)>, bool) {
        let mut out = Vec::new();
        sweep(&mut slots, threshold, &mut |off, count, intensity| {
            out.push((off, count, intensity.to_bits()))
        });
        (out, slots.iter().all(Slot::is_clear))
    }

    #[test]
    fn sweep_emits_over_threshold_slots_in_ascending_order_and_clears_the_rest() {
        // Two whole chunks and a remainder; hits on both sides of every
        // chunk edge, below and at the threshold.
        let mut slots = vec![Slot::default(); 2 * SWEEP_CHUNK + 5];
        let hits = [
            (0, 4, 1.0),
            (SWEEP_CHUNK - 1, 3, 2.0), // below threshold: cleared, not emitted
            (SWEEP_CHUNK, u16::MAX, 3.0),
            (2 * SWEEP_CHUNK - 1, 9, 0.0), // a zero-weight peak still counts
            (2 * SWEEP_CHUNK, 2, 5.0),     // remainder, below threshold
            (2 * SWEEP_CHUNK + 4, 4, 6.0), // remainder, last slot
        ];
        for &(off, count, intensity) in &hits {
            slots[off] = Slot::new(count, intensity);
        }
        let mut out = Vec::new();
        sweep_band(&mut slots, 4, |off, count, intensity| {
            out.push((off, count, intensity))
        });
        assert_eq!(
            out,
            [
                (0, 4, 1.0),
                (SWEEP_CHUNK, u16::MAX, 3.0),
                (2 * SWEEP_CHUNK - 1, 9, 0.0),
                (2 * SWEEP_CHUNK + 4, 4, 6.0)
            ]
        );
        assert!(slots.iter().all(Slot::is_clear));
    }

    #[test]
    fn threshold_zero_never_makes_an_unhit_slot_a_candidate() {
        // `shared_peak_threshold: 0` means "every entry that shares a
        // peak", not "every entry": a zero count is never emitted, in a
        // whole chunk or in the remainder.
        for width in [0, 1, SWEEP_CHUNK, SWEEP_CHUNK + 3] {
            let mut slots = vec![Slot::default(); width];
            sweep_band(&mut slots, 0, |off, _, _| {
                panic!("un-hit slot {off} of {width} emitted")
            });
            if width > 0 {
                slots[width - 1] = Slot::new(1, 0.5);
                let mut out = Vec::new();
                sweep_band(&mut slots, 0, |off, count, _| out.push((off, count)));
                assert_eq!(out, [(width - 1, 1)], "width {width}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The chunked/unchecked accumulation is bit-identical to the scalar
        /// reference for every lane-remainder length (0..LANES leftovers via
        /// the length range), unaligned band starts, duplicate-heavy runs,
        /// and degenerate empty runs.
        #[test]
        fn chunked_accumulation_equals_scalar_reference(
            band_lo in 0u32..500,
            width in 1usize..200,
            weight in 0.0f32..1e4,
            // Lengths sweep multiple whole chunks plus every remainder.
            run_seed in proptest::collection::vec(0usize..usize::MAX, 0..(5 * LANES)),
        ) {
            // Ids stay in [band_lo, band_lo + width); heavy duplication by
            // construction when width is small.
            let run: Vec<u32> = run_seed
                .iter()
                .map(|&s| band_lo + (s % width) as u32)
                .collect();
            let want = reference(&run, weight, band_lo, width);

            let mut slots = vec![Slot::default(); width];
            accumulate_run(&run, weight, band_lo, &mut slots);

            // Intensity sums accumulate in the same order on every path, so
            // f32 equality (inside Slot's PartialEq) is exact, not
            // approximate.
            prop_assert_eq!(slots, want);
        }

        /// Saturating counters: a slot pushed past `u16::MAX` pins there on
        /// both paths (long runs of one id go through the unchecked chunks).
        #[test]
        fn counter_saturation_matches(extra in 0usize..(3 * LANES)) {
            let run = vec![42u32; u16::MAX as usize + extra];
            let mut slots = vec![Slot::default(); 1];
            accumulate_run(&run, 0.5, 42, &mut slots);
            prop_assert_eq!(slots[0].count, u16::MAX);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// `sweep_band` ≡ the per-slot loop it replaced — same `(offset,
        /// count, intensity)` sequence, every slot clear afterwards — over
        /// every chunk/remainder shape × threshold × hit density, with
        /// saturated counts, zero-weight hits and sub-threshold slots that
        /// carry intensity. A failure prints the seed (`PROPTEST_SEED`).
        #[test]
        fn sweep_equals_the_per_slot_reference(
            words in proptest::collection::vec(any::<u64>(), 5 * SWEEP_CHUNK + 7),
        ) {
            const N: usize = SWEEP_CHUNK;
            const COUNTS: [u16; 7] = [1, 2, 3, 4, 5, u16::MAX - 1, u16::MAX];
            for width in [0, 1, N - 1, N, N + 1, 2 * N - 1, 5 * N + 7] {
                for threshold in [0, 1, 4, u16::MAX] {
                    // Hit density: none, one slot, about half, every slot.
                    for density in 0..4 {
                        let only = words[0] as usize % width.max(1);
                        let slots: Vec<Slot> = words[..width]
                            .iter()
                            .enumerate()
                            .map(|(off, &r)| {
                                let hit = match density {
                                    0 => false,
                                    1 => off == only,
                                    2 => r & 1 == 1,
                                    _ => true,
                                };
                                if !hit {
                                    return Slot::default();
                                }
                                let count = COUNTS[(r >> 8) as usize % COUNTS.len()];
                                // One hit in eight came from zero-weight peaks.
                                let intensity = if (r >> 16) % 8 == 0 {
                                    0.0
                                } else {
                                    (r >> 32) as f32 / 1e3 + 0.25
                                };
                                Slot::new(count, intensity)
                            })
                            .collect();
                        let want = swept(|s, t, e| sweep_reference(s, t, e), slots.clone(), threshold);
                        let got = swept(|s, t, e| sweep_band(s, t, e), slots, threshold);
                        prop_assert!(
                            got.1,
                            "slots left dirty: width {}, threshold {}, density {}",
                            width, threshold, density
                        );
                        prop_assert_eq!(
                            got, want,
                            "width {}, threshold {}, density {}", width, threshold, density
                        );
                    }
                }
            }
        }
    }
}
