//! SIMD-width posting-run accumulation — the innermost loop of the query
//! kernel.
//!
//! [`crate::query`] collects each query's admitted posting runs into an SoA
//! run table (`u32` entry-id lanes live in the index's flat posting array;
//! the per-run intensity weight is a separate lane), then drives every run
//! through [`accumulate_run`] here. The split matters for throughput:
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
//!   deliberately does not live here either — a per-scatter "seen before?"
//!   branch is data-dependent and mispredicts on a large fraction of lanes;
//!   the candidate pass instead sweeps the band's slots sequentially (see
//!   [`crate::query`]). The scatter itself stays scalar on purpose:
//!   duplicate entry ids within one run are legal (a spectrum can
//!   contribute several fragments to one bin window), so a hardware scatter
//!   would lose increments.
//! * **Prefetch** ([`prefetch_postings`], [`prefetch_endpoints`]): while
//!   run *r* is accumulating, the first lines of run *r + 1* are requested;
//!   while bin *b*'s run is being admitted, bin *b + 1*'s endpoints are.
//!   `_mm_prefetch` needs no CPU feature beyond x86_64 itself, so the hints
//!   are active in every build on that arch (no-ops elsewhere) — prefetch
//!   is purely a performance hint, never a correctness dependency.
//!
//! Sub-chunk remainders (and the entirety of runs shorter than one chunk —
//! the common case on narrow ppm bands and sparse bins) take the plain
//! bounds-checked scalar loop; its never-taken panic branch predicts
//! perfectly and costs less than any mask setup at those lengths.
//!
//! Equivalence between the chunked/unchecked path and the scalar reference
//! is proptested below across lane remainders (0..[`LANES`] leftovers),
//! unaligned band starts, duplicate ids, and empty runs.

/// Lanes per inner-loop chunk: eight `u32` entry ids — one 256-bit vector
/// register.
pub const LANES: usize = 8;

/// One band-relative scratch slot: the shared-peak counter and the matched
/// intensity sum packed into eight bytes, so every posting scatter touches
/// exactly **one** cache line instead of the two a split counts/intensity
/// pair costs. At open-mod band widths the scratch exceeds L1, making the
/// per-scatter line count the dominant kernel term — halving it is worth
/// more than any lane-width trick. A fresh (or swept) slot is all-zero,
/// which also makes the candidate sweep's chunk test a plain
/// all-bytes-zero check.
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

/// Hints a posting run's *endpoints* into L1 — the two loads the
/// fragment-level band's O(1) prune/accept test is about to make. Phase one
/// of the kernel issues this for bin *b + 1* while admitting bin *b*: bin
/// runs are scattered across the posting array and the endpoint loads are
/// the cold misses of the admission loop. Active on x86_64 in every build;
/// a no-op elsewhere.
#[inline(always)]
pub(crate) fn prefetch_endpoints(run: &[u32]) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch hints are architecturally valid for any address and
    // never fault; both pointers come from a live slice.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        if let (Some(first), Some(last)) = (run.first(), run.last()) {
            _mm_prefetch(first as *const u32 as *const i8, _MM_HINT_T0);
            _mm_prefetch(last as *const u32 as *const i8, _MM_HINT_T0);
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
        for run in [&[][..], &[1u32][..], &[1u32; 40][..]] {
            prefetch_postings(run);
            prefetch_endpoints(run);
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
}
