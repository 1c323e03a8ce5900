//! Index construction: modform enumeration → fragment generation →
//! counting-sort CSR assembly.
//!
//! Construction is two-pass (count bins, then fill), which is both O(ions)
//! and allocation-exact — there is no over-allocation to distort the memory
//! figures.
//!
//! Both passes are embarrassingly parallel per peptide range, and
//! [`IndexBuilder::build_parallel`] runs them on the shared work-stealing
//! pool: pass 1 generates theoretical spectra and per-range bin histograms,
//! a deterministic in-order merge turns the histograms into global CSR
//! offsets plus disjoint per-range write cursors, and pass 2 fills each
//! range's posting slots concurrently. Because ranges are merged in peptide
//! order and every (range, bin) cursor window is carved from the same
//! prefix sums, the resulting CSR arrays are **byte-identical for every
//! thread count** (tested) — including the sequential [`IndexBuilder::build`].
//!
//! **Entry ids are assigned in ascending precursor-mass order** (stable
//! over the peptide-major pass-1 order for equal masses): between the two
//! passes a permutation renumbers the entries, pass 2 writes the renumbered
//! ids, and a final per-bin sort restores each posting list's
//! ascending-by-id invariant. The payoff is the banded query kernel — with
//! ids ordered by mass, a closed search binary-searches every bin's
//! posting list down to its precursor window instead of scanning the whole
//! bin (see [`crate::query`]). Peptide and modform ids are untouched; only
//! the internal entry numbering changes.

use crate::bindir;
use crate::config::SlmConfig;
use crate::slm::{SlmIndex, SpectrumEntry};
use lbe_bio::mods::{enumerate_modforms, ModSpec};
use lbe_bio::peptide::PeptideDb;
use lbe_spectra::theo::TheoSpectrum;
use std::marker::PhantomData;

/// Statistics from one index build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BuildStats {
    /// Peptides consumed.
    pub peptides: usize,
    /// Theoretical spectra (modforms) indexed.
    pub spectra: usize,
    /// Ions (postings) indexed.
    pub ions: usize,
    /// Fragments dropped because they fell outside `max_fragment_mz`.
    pub dropped_fragments: usize,
}

/// Pass-1 output for one contiguous peptide range.
struct RangePass1 {
    /// Index entries, in peptide-major modform-minor order within the range.
    entries: Vec<SpectrumEntry>,
    /// The matching theoretical spectra (consumed by pass 2).
    spectra: Vec<TheoSpectrum>,
    /// Ions per bin contributed by this range (`num_bins` long).
    bin_counts: Vec<u64>,
    /// Fragments outside `max_fragment_mz`.
    dropped: usize,
}

/// Postings array shared across pass-2 range tasks.
///
/// Every `(range, bin)` pair owns a disjoint slot window `[cursor,
/// cursor + count)` carved out of the same prefix sums, so concurrent
/// writers never alias; the wrapper only exists to hand each task a raw
/// pointer with bounds checking in debug builds.
struct SharedPostings<'a> {
    ptr: *mut u32,
    len: usize,
    _marker: PhantomData<&'a mut [u32]>,
}

// SAFETY: writes go through `write`, and callers (pass 2 below) only write
// slots inside windows that are disjoint across tasks by construction.
unsafe impl Send for SharedPostings<'_> {}
unsafe impl Sync for SharedPostings<'_> {}

impl<'a> SharedPostings<'a> {
    fn new(postings: &'a mut [u32]) -> Self {
        SharedPostings {
            ptr: postings.as_mut_ptr(),
            len: postings.len(),
            _marker: PhantomData,
        }
    }

    /// Writes `value` at `slot`. Caller must own `slot`'s cursor window.
    #[inline]
    fn write(&self, slot: usize, value: u32) {
        debug_assert!(slot < self.len);
        // SAFETY: `slot < len` (checked in debug; guaranteed by the CSR
        // prefix sums in release) and no other task owns this slot.
        unsafe { *self.ptr.add(slot) = value }
    }
}

/// Builds [`SlmIndex`] instances from peptide databases.
#[derive(Debug, Clone)]
pub struct IndexBuilder {
    config: SlmConfig,
    modspec: ModSpec,
    stats: BuildStats,
}

impl IndexBuilder {
    /// A builder with the given index configuration and variable-mod spec.
    pub fn new(config: SlmConfig, modspec: ModSpec) -> Self {
        IndexBuilder {
            config,
            modspec,
            stats: BuildStats::default(),
        }
    }

    /// Statistics of the most recent build call.
    pub fn stats(&self) -> BuildStats {
        self.stats
    }

    /// The modification specification in use.
    pub fn modspec(&self) -> &ModSpec {
        &self.modspec
    }

    /// Builds an index over all peptides of `db`. Peptide ids in the index
    /// are the ids of `db` (`0..db.len()`), i.e. *local* ids — the LBE
    /// mapping table relates them to global ids.
    pub fn build(&mut self, db: &PeptideDb) -> SlmIndex {
        self.build_parallel(db, 1)
    }

    /// Like [`IndexBuilder::build`], with both CSR passes split across
    /// `num_threads` contiguous peptide ranges on the shared work-stealing
    /// pool. The produced index is identical for every thread count.
    pub fn build_parallel(&mut self, db: &PeptideDb, num_threads: usize) -> SlmIndex {
        assert!(num_threads >= 1, "need at least one thread");
        let num_bins = self.config.num_bins();
        let ranges = split_ranges_weighted(db, &self.modspec, num_threads);

        // Pass 1: per range, generate theoretical spectra and count ions
        // per bin.
        let mut pass1: Vec<Option<RangePass1>> = (0..ranges.len()).map(|_| None).collect();
        if ranges.len() == 1 {
            let (lo, hi) = ranges[0];
            pass1[0] = Some(self.pass1_range(db, lo, hi));
        } else {
            minipool::scope(|s| {
                for (slot, &(lo, hi)) in pass1.iter_mut().zip(&ranges) {
                    let this = &*self;
                    s.spawn(move |_| *slot = Some(this.pass1_range(db, lo, hi)));
                }
            });
        }
        let mut pass1: Vec<RangePass1> = pass1
            .into_iter()
            .map(|r| r.expect("pass-1 range task did not run"))
            .collect();

        // Deterministic merge, in range (= peptide) order: entry-id offsets,
        // global bin totals, total dropped count.
        let mut entry_offsets = Vec::with_capacity(pass1.len());
        let mut total_entries = 0usize;
        let mut dropped = 0usize;
        let mut bin_totals = vec![0u64; num_bins];
        for r in &pass1 {
            entry_offsets.push(total_entries);
            total_entries += r.entries.len();
            dropped += r.dropped;
            for (total, &c) in bin_totals.iter_mut().zip(&r.bin_counts) {
                *total += c;
            }
        }
        assert!(
            total_entries <= u32::MAX as usize,
            "index partition exceeds u32 entry ids; partition the input"
        );

        // Renumber entries into ascending precursor-mass order. The sort is
        // stable, so equal masses keep the peptide-major modform-minor
        // pass-1 order — the permutation (and with it the whole index) is
        // deterministic and thread-count-independent.
        let mut entries_old: Vec<SpectrumEntry> = Vec::with_capacity(total_entries);
        for r in &mut pass1 {
            entries_old.append(&mut r.entries);
        }
        let mut order: Vec<u32> = (0..total_entries as u32).collect();
        order.sort_by(|&a, &b| {
            entries_old[a as usize]
                .precursor_mass
                .total_cmp(&entries_old[b as usize].precursor_mass)
        });
        let mut new_of = vec![0u32; total_entries];
        for (new_id, &old_id) in order.iter().enumerate() {
            new_of[old_id as usize] = new_id as u32;
        }
        let mut entries: Vec<SpectrumEntry> = order
            .iter()
            .map(|&old_id| entries_old[old_id as usize])
            .collect();
        drop(entries_old);
        drop(order);

        // Exclusive prefix sum → CSR offsets; simultaneously convert each
        // range's per-bin counts into its disjoint write cursor.
        let mut bin_offsets = vec![0u64; num_bins + 1];
        let mut acc = 0u64;
        for (b, offset) in bin_offsets.iter_mut().enumerate().take(num_bins) {
            *offset = acc;
            let mut slot = acc;
            for r in pass1.iter_mut() {
                let count = r.bin_counts[b];
                r.bin_counts[b] = slot; // now a cursor, not a count
                slot += count;
            }
            acc = slot;
        }
        bin_offsets[num_bins] = acc;
        assert!(
            acc <= u32::MAX as u64,
            "index partition exceeds u32 posting offsets; partition the input"
        );

        // Pass 2: fill postings, each range through its own (moved-out)
        // cursors.
        let mut postings = vec![0u32; acc as usize];
        let shared = SharedPostings::new(&mut postings);
        let cursor_vecs: Vec<Vec<u64>> = pass1
            .iter_mut()
            .map(|r| std::mem::take(&mut r.bin_counts))
            .collect();
        if pass1.len() == 1 {
            let cursors = cursor_vecs.into_iter().next().expect("one range");
            self.pass2_range(&pass1[0].spectra, cursors, 0, &new_of, &shared);
        } else {
            minipool::scope(|s| {
                for ((ri, r), cursors) in pass1.iter().enumerate().zip(cursor_vecs) {
                    let this = &*self;
                    let shared = &shared;
                    let new_of = &new_of;
                    let base = entry_offsets[ri];
                    s.spawn(move |_| this.pass2_range(&r.spectra, cursors, base, new_of, shared));
                }
            });
        }

        // Pass 2 writes renumbered ids in range order, which is no longer
        // ascending within a bin; a per-bin sort restores the invariant the
        // banded kernel binary-searches on. Sorting is canonical, so the
        // result stays identical for every thread count.
        sort_bin_postings(&bin_offsets, &mut postings, num_threads);

        self.stats = BuildStats {
            peptides: db.len(),
            spectra: entries.len(),
            ions: postings.len(),
            dropped_fragments: dropped,
        };
        // Allocation-exact: footprint accounting equates capacity and length.
        entries.shrink_to_fit();
        // The dense prefix sums were only scaffolding for the two fill
        // passes; the index keeps the sparse directory.
        let dir = bindir::from_dense(&bin_offsets).expect("prefix sums form a valid CSR");
        SlmIndex::from_parts(self.config.clone(), entries, dir, postings)
    }

    /// Pass 1 over peptide ids `[lo, hi)`: theoretical spectra, entries,
    /// per-bin ion counts, dropped-fragment count.
    fn pass1_range(&self, db: &PeptideDb, lo: u32, hi: u32) -> RangePass1 {
        let mut entries: Vec<SpectrumEntry> = Vec::new();
        let mut spectra: Vec<TheoSpectrum> = Vec::new();
        let mut bin_counts = vec![0u64; self.config.num_bins()];
        let mut dropped = 0usize;
        for pid in lo..hi {
            let pep = db.get(pid);
            let forms = enumerate_modforms(pep.sequence(), &self.modspec);
            for (fi, form) in forms.iter().enumerate() {
                let theo = TheoSpectrum::from_sequence(
                    pep.sequence(),
                    form,
                    &self.modspec,
                    &self.config.theo,
                );
                let mut kept = 0u16;
                for &mz in &theo.fragment_mzs {
                    match self.config.bin_of(mz) {
                        Some(bin) => {
                            bin_counts[bin as usize] += 1;
                            kept += 1;
                        }
                        None => dropped += 1,
                    }
                }
                entries.push(SpectrumEntry {
                    peptide: pid,
                    modform: fi as u16,
                    num_fragments: kept,
                    precursor_mass: theo.precursor_mass as f32,
                });
                spectra.push(theo);
            }
        }
        RangePass1 {
            entries,
            spectra,
            bin_counts,
            dropped,
        }
    }

    /// Pass 2 for one range: writes the *renumbered* entry id of each
    /// spectrum (`new_of[entry_base + local index]`) into the range's
    /// cursor windows, advancing each bin's cursor.
    fn pass2_range(
        &self,
        spectra: &[TheoSpectrum],
        mut cursors: Vec<u64>,
        entry_base: usize,
        new_of: &[u32],
        postings: &SharedPostings<'_>,
    ) {
        for (local_eid, theo) in spectra.iter().enumerate() {
            let eid = new_of[entry_base + local_eid];
            for &mz in &theo.fragment_mzs {
                if let Some(bin) = self.config.bin_of(mz) {
                    let slot = cursors[bin as usize];
                    postings.write(slot as usize, eid);
                    cursors[bin as usize] = slot + 1;
                }
            }
        }
    }
}

/// Sorts every bin's posting slice ascending (by renumbered entry id),
/// splitting the bins into up to `parts` contiguous, postings-balanced
/// groups on the shared pool. Sorting is canonical over each bin's
/// multiset, so the output is independent of `parts`.
fn sort_bin_postings(bin_offsets: &[u64], postings: &mut [u32], parts: usize) {
    let num_bins = bin_offsets.len() - 1;
    let total = postings.len() as u64;
    if total == 0 {
        return;
    }
    let parts = parts.clamp(1, num_bins.max(1));
    if parts == 1 {
        for b in 0..num_bins {
            postings[bin_offsets[b] as usize..bin_offsets[b + 1] as usize].sort_unstable();
        }
        return;
    }
    // Carve bin groups at ~equal posting counts so one dense mass region
    // does not serialize the sort behind a single task.
    let mut tasks: Vec<(usize, usize, &mut [u32])> = Vec::with_capacity(parts);
    let mut rest = postings;
    let mut lo_bin = 0usize;
    let mut consumed = 0u64;
    for p in 0..parts {
        if lo_bin >= num_bins {
            break;
        }
        let target = total * (p as u64 + 1) / parts as u64;
        let mut hi_bin = lo_bin + 1;
        while hi_bin < num_bins && bin_offsets[hi_bin] < target {
            hi_bin += 1;
        }
        if p == parts - 1 {
            hi_bin = num_bins;
        }
        let end = bin_offsets[hi_bin];
        let (head, tail) = rest.split_at_mut((end - consumed) as usize);
        tasks.push((lo_bin, hi_bin, head));
        rest = tail;
        consumed = end;
        lo_bin = hi_bin;
    }
    minipool::scope(|s| {
        for (lo_bin, hi_bin, slice) in tasks {
            let base = bin_offsets[lo_bin];
            s.spawn(move |_| {
                for b in lo_bin..hi_bin {
                    let from = (bin_offsets[b] - base) as usize;
                    let to = (bin_offsets[b + 1] - base) as usize;
                    slice[from..to].sort_unstable();
                }
            });
        }
    });
}

/// Splits `0..db.len()` into at most `parts` contiguous ranges balanced by
/// *estimated pass-1 work* (modform count × sequence length, a proxy for
/// theoretical ions) rather than by peptide count — a database where
/// modform-heavy peptides sit clustered (sorted input, one protein family
/// contiguous) must not serialize the build behind one straggler range.
/// Ranges are never empty unless `db` is (one empty range then).
fn split_ranges_weighted(db: &PeptideDb, modspec: &ModSpec, parts: usize) -> Vec<(u32, u32)> {
    let len = db.len();
    if len == 0 {
        return vec![(0, 0)];
    }
    let parts = parts.min(len);
    if parts == 1 {
        return vec![(0, len as u32)];
    }
    let weights: Vec<u64> = (0..len as u32)
        .map(|pid| {
            let p = db.get(pid);
            let forms = lbe_bio::mods::count_modforms(p.sequence(), modspec) as u64;
            forms * p.sequence().len().max(1) as u64
        })
        .collect();
    let total: u64 = weights.iter().sum();
    let mut ranges = Vec::with_capacity(parts);
    let mut lo = 0usize;
    let mut acc = 0u64;
    for r in 0..parts {
        // Greedy boundary at the next 1/parts-th of total weight, keeping
        // at least one peptide per remaining range.
        let target = total * (r as u64 + 1) / parts as u64;
        let max_hi = len - (parts - 1 - r);
        let mut hi = lo;
        while hi < max_hi && (hi == lo || acc < target) {
            acc += weights[hi];
            hi += 1;
        }
        ranges.push((lo as u32, hi as u32));
        lo = hi;
    }
    // Belt and suspenders: the last range absorbs any remainder.
    if lo < len {
        ranges.last_mut().expect("parts >= 1").1 = len as u32;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbe_bio::peptide::Peptide;

    fn db(seqs: &[&str]) -> PeptideDb {
        PeptideDb::from_vec(
            seqs.iter()
                .map(|s| Peptide::new(s.as_bytes(), 0, 0).unwrap())
                .collect(),
        )
    }

    #[test]
    fn empty_db_builds_empty_index() {
        let mut b = IndexBuilder::new(SlmConfig::default(), ModSpec::none());
        let idx = b.build(&PeptideDb::new());
        assert!(idx.is_empty());
        assert_eq!(idx.num_ions(), 0);
        idx.validate().unwrap();
    }

    #[test]
    fn stats_match_index() {
        let mut b = IndexBuilder::new(SlmConfig::default(), ModSpec::none());
        let idx = b.build(&db(&["PEPTIDEK", "ELVISK"]));
        let s = b.stats();
        assert_eq!(s.peptides, 2);
        assert_eq!(s.spectra, idx.num_spectra());
        assert_eq!(s.ions, idx.num_ions());
        assert_eq!(s.dropped_fragments, 0);
        idx.validate().unwrap();
    }

    #[test]
    fn mods_multiply_spectra() {
        let mut plain = IndexBuilder::new(SlmConfig::default(), ModSpec::none());
        let mut modded = IndexBuilder::new(SlmConfig::default(), ModSpec::paper_default());
        let d = db(&["MNKQMR", "PEPTIDEK"]);
        let i1 = plain.build(&d);
        let i2 = modded.build(&d);
        assert!(i2.num_spectra() > i1.num_spectra());
        assert_eq!(i1.num_spectra(), 2);
        i2.validate().unwrap();
    }

    #[test]
    fn entries_are_ascending_by_precursor_mass() {
        let mut b = IndexBuilder::new(SlmConfig::default(), ModSpec::oxidation_only());
        let idx = b.build(&db(&["AMK", "GGR"]));
        // AMK: unmod + 1 ox; GGR: unmod only — ids follow mass, not input
        // order: GGR (288 Da) < AMK (348 Da) < AMK+ox (364 Da).
        assert_eq!(idx.num_spectra(), 3);
        assert!(idx.is_mass_sorted());
        assert!(idx
            .entries()
            .windows(2)
            .all(|w| w[0].precursor_mass <= w[1].precursor_mass));
        assert_eq!((idx.entry(0).peptide, idx.entry(0).modform), (1, 0));
        assert_eq!((idx.entry(1).peptide, idx.entry(1).modform), (0, 0));
        assert_eq!((idx.entry(2).peptide, idx.entry(2).modform), (0, 1));
    }

    #[test]
    fn equal_masses_keep_peptide_major_modform_minor_order() {
        // The renumbering sort is stable: identical peptides (identical
        // masses) keep their pass-1 (peptide-major) relative order, so the
        // permutation is fully deterministic.
        let mut b = IndexBuilder::new(SlmConfig::default(), ModSpec::none());
        let idx = b.build(&db(&["SAMPLEK", "SAMPLEK", "SAMPLEK"]));
        let peptides: Vec<u32> = idx.entries().iter().map(|e| e.peptide).collect();
        assert_eq!(peptides, vec![0, 1, 2]);
    }

    #[test]
    fn postings_within_each_bin_sorted_by_entry() {
        // Fill order is entry-major (range-major then entry-major, with
        // ranges in entry order), so each bin's postings come out ascending
        // — an invariant the searcher's dedup relies on.
        let mut b = IndexBuilder::new(SlmConfig::default(), ModSpec::none());
        for threads in [1usize, 3] {
            let idx = b.build_parallel(&db(&["PEPTIDEK", "PEPTIDER", "PEPTIDEKK"]), threads);
            for bin in 0..idx.config().num_bins() as u32 {
                let p = idx.bin_postings(bin);
                assert!(p.windows(2).all(|w| w[0] <= w[1]), "{threads} threads");
            }
        }
    }

    #[test]
    fn oversized_fragments_dropped_not_crashed() {
        let cfg = SlmConfig {
            max_fragment_mz: 300.0,
            ..SlmConfig::default()
        };
        let mut b = IndexBuilder::new(cfg, ModSpec::none());
        let idx = b.build(&db(&["WWWWWWK"])); // many fragments above 300 Da
        assert!(b.stats().dropped_fragments > 0);
        idx.validate().unwrap();
    }

    #[test]
    fn identical_peptides_get_identical_posting_patterns() {
        let mut b = IndexBuilder::new(SlmConfig::default(), ModSpec::none());
        let idx = b.build(&db(&["SAMPLEK", "SAMPLEK"]));
        assert_eq!(idx.entry(0).num_fragments, idx.entry(1).num_fragments);
        // Every bin containing entry 0 must contain entry 1.
        for bin in 0..idx.config().num_bins() as u32 {
            let p = idx.bin_postings(bin);
            assert_eq!(p.contains(&0), p.contains(&1), "bin {bin}");
        }
    }

    /// The determinism contract of the parallel build: identical CSR arrays
    /// (the whole index compares equal) for every thread count, with and
    /// without mods, including thread counts exceeding the peptide count.
    #[test]
    fn parallel_build_is_thread_count_invariant() {
        let d = db(&[
            "ELVISLIVESK",
            "PEPTIDEK",
            "MNKQMGGR",
            "SAMPLERK",
            "GGAASSYYK",
            "WWYYFFHHK",
            "AMSAMPLEK",
        ]);
        for spec in [ModSpec::none(), ModSpec::paper_default()] {
            let mut seq_builder = IndexBuilder::new(SlmConfig::default(), spec.clone());
            let reference = seq_builder.build(&d);
            let ref_stats = seq_builder.stats();
            for threads in [2usize, 3, 4, 8, 16] {
                let mut b = IndexBuilder::new(SlmConfig::default(), spec.clone());
                let idx = b.build_parallel(&d, threads);
                assert_eq!(idx, reference, "{threads} threads");
                assert_eq!(b.stats(), ref_stats, "{threads} threads");
                idx.validate().unwrap();
            }
        }
    }

    #[test]
    fn parallel_build_handles_dropped_fragments() {
        let cfg = SlmConfig {
            max_fragment_mz: 300.0,
            ..SlmConfig::default()
        };
        let d = db(&["WWWWWWK", "PEPTIDEK", "ELVISLIVESK"]);
        let mut seq = IndexBuilder::new(cfg.clone(), ModSpec::none());
        let reference = seq.build(&d);
        let mut par = IndexBuilder::new(cfg, ModSpec::none());
        let idx = par.build_parallel(&d, 3);
        assert_eq!(idx, reference);
        assert_eq!(par.stats(), seq.stats());
    }

    #[test]
    fn parallel_build_empty_db() {
        let mut b = IndexBuilder::new(SlmConfig::default(), ModSpec::none());
        let idx = b.build_parallel(&PeptideDb::new(), 4);
        assert!(idx.is_empty());
        idx.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let mut b = IndexBuilder::new(SlmConfig::default(), ModSpec::none());
        b.build_parallel(&PeptideDb::new(), 0);
    }

    #[test]
    fn split_ranges_cover_exactly() {
        let seqs: Vec<String> = (0..100)
            .map(|i| format!("PEPT{}K", "M".repeat(i % 7 + 1)))
            .collect();
        for len in [0usize, 1, 2, 7, 100] {
            let refs: Vec<&str> = seqs[..len].iter().map(String::as_str).collect();
            let d = db(&refs);
            for parts in [1usize, 2, 3, 8, 200] {
                for spec in [ModSpec::none(), ModSpec::paper_default()] {
                    let ranges = split_ranges_weighted(&d, &spec, parts);
                    let mut expect = 0u32;
                    for &(lo, hi) in &ranges {
                        assert_eq!(lo, expect);
                        assert!(hi >= lo);
                        expect = hi;
                    }
                    assert_eq!(expect as usize, len);
                    if len > 0 {
                        assert!(ranges.iter().all(|&(lo, hi)| hi > lo));
                        assert_eq!(ranges.len(), parts.min(len));
                    }
                }
            }
        }
    }

    #[test]
    fn weighted_split_balances_clustered_heavy_peptides() {
        // All the modform-heavy (methionine-rich → oxidation sites)
        // peptides sit at the front; a count-based split would give range 0
        // nearly all the work.
        let mut seqs: Vec<String> = (0..16).map(|_| "MMMMMMMMMMMMK".to_string()).collect();
        seqs.extend((0..48).map(|_| "GGAK".to_string()));
        let refs: Vec<&str> = seqs.iter().map(String::as_str).collect();
        let d = db(&refs);
        let spec = ModSpec::paper_default();
        let ranges = split_ranges_weighted(&d, &spec, 4);
        assert_eq!(ranges.len(), 4);
        // The heavy cluster (first 16 peptides) is spread over several
        // ranges instead of riding in the first one.
        assert!(
            ranges[0].1 < 16,
            "first range {:?} swallowed the whole heavy cluster",
            ranges[0]
        );
        // And the index still comes out identical to sequential.
        let mut seq_b = IndexBuilder::new(SlmConfig::default(), spec.clone());
        let reference = seq_b.build(&d);
        let mut par_b = IndexBuilder::new(SlmConfig::default(), spec);
        assert_eq!(par_b.build_parallel(&d, 4), reference);
    }
}
