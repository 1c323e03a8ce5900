//! Index construction: every fragment generated once, every posting
//! scattered once, straight into its final slot.
//!
//! **Pass 1** walks the peptides in id order. Per modform
//! ([`for_each_modform`]) it generates the fragment m/z
//! ([`for_each_fragment`]), quantizes each kept one to its bin and appends
//! the bin to one flat `u32` array while bumping a `u32` bin histogram; the
//! spectrum's [`SpectrumEntry`] records its precursor mass and how many bins
//! it appended. Nothing is allocated per modform and no `f64` fragment is
//! retained — the bins are all pass 2 needs.
//!
//! **Entry ids are assigned in ascending precursor-mass order**, by a
//! stable sort over the peptide-major modform-minor pass-1 order, so equal
//! masses keep that order. The payoff is the banded query kernel — with
//! ids ordered by mass, a closed search binary-searches every bin's posting
//! list down to its precursor window instead of scanning the whole bin
//! (see [`crate::query`]). Peptide and modform ids are untouched; only the
//! internal entry numbering changes.
//!
//! **Pass 2** walks the entries in that *new* id order and writes
//! `postings[cursor[bin]++] = id` for each of the entry's bins, the cursors
//! starting at the histogram's prefix sums. Ids arrive ascending, so every
//! bin's posting list is ascending as written — the invariant the kernel
//! binary-searches on needs no sort afterwards.
//!
//! [`IndexBuilder::build_parallel`] splits pass 1 into contiguous peptide
//! ranges (balanced by estimated ions) and pass 2 into contiguous *id*
//! pieces (balanced by ions). A piece needs its own ions per bin: every
//! piece but the last counts them in one re-read of its flat bins, the
//! last takes what is left of pass 1's histogram, and a bin's slots are
//! handed out to the pieces in piece order. Piece `p`'s ids are all below
//! piece `p + 1`'s, so the lists stay ascending, and since neither the
//! bins, the sort nor the slot of any posting depends on where the ranges
//! and pieces were cut, the index is **identical for every thread count**
//! (tested) — the sequential [`IndexBuilder::build`] is the same code with
//! one range and one piece, which is the last: nothing is re-read.
//!
//! Construction is allocation-exact (no over-allocation to distort the
//! memory figures), and its transient memory is 4 bytes per ion of flat
//! bins plus one `u32` histogram per task.

use crate::bindir;
use crate::config::SlmConfig;
use crate::slm::{SlmIndex, SpectrumEntry};
use lbe_bio::mods::{count_modforms, for_each_modform, ModSpec};
use lbe_bio::peptide::PeptideDb;
use lbe_spectra::theo::for_each_fragment;
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
    /// The bin of every kept fragment, entry after entry: an entry's bins
    /// are the `num_fragments` following those of the entries before it.
    bins: Vec<u32>,
    /// Ions per bin contributed by this range (`num_bins` long).
    bin_counts: Vec<u32>,
    /// Fragments outside `max_fragment_mz`.
    dropped: usize,
}

/// Postings array shared across pass-2 piece tasks.
///
/// Every `(piece, bin)` pair owns a disjoint slot window `[cursor,
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

    /// Like [`IndexBuilder::build`], with both passes split `num_threads`
    /// ways on the shared work-stealing pool. The produced index is
    /// identical for every thread count.
    pub fn build_parallel(&mut self, db: &PeptideDb, num_threads: usize) -> SlmIndex {
        assert!(num_threads >= 1, "need at least one thread");
        self.check_fragment_counts(db);
        let num_bins = self.config.num_bins();
        let this = &*self;

        // Pass 1: per peptide range, the entries, their fragments' bins and
        // the bin histogram.
        let ranges = split_ranges_weighted(db, &this.modspec, num_threads);
        let mut pass1 = run_tasks(ranges, |(lo, hi)| this.pass1_range(db, lo, hi));
        let total_entries: usize = pass1.iter().map(|r| r.entries.len()).sum();
        let total_ions: usize = pass1.iter().map(|r| r.bins.len()).sum();
        let dropped: usize = pass1.iter().map(|r| r.dropped).sum();
        assert!(
            total_entries <= u32::MAX as usize,
            "index partition exceeds u32 entry ids; partition the input"
        );
        assert!(
            total_ions <= u32::MAX as usize,
            "index partition exceeds u32 posting offsets; partition the input"
        );
        // No bin holds more than `total_ions`, so no `u32` count wrapped.
        let mut bin_totals = std::mem::take(&mut pass1[0].bin_counts);
        for r in &mut pass1[1..] {
            for (total, count) in bin_totals.iter_mut().zip(std::mem::take(&mut r.bin_counts)) {
                *total += count;
            }
        }

        // The pass-1 (peptide-major) order: every entry and its bins.
        let mut entries_old: Vec<SpectrumEntry> = Vec::with_capacity(total_entries);
        let mut bins_old: Vec<&[u32]> = Vec::with_capacity(total_entries);
        for r in &pass1 {
            let mut rest = &r.bins[..];
            for e in &r.entries {
                let (own, after) = rest.split_at(e.num_fragments as usize);
                bins_old.push(own);
                rest = after;
            }
            entries_old.extend_from_slice(&r.entries);
        }

        // Renumber entries into ascending precursor-mass order. The sort is
        // stable, so equal masses keep the peptide-major modform-minor
        // pass-1 order — the permutation (and with it the whole index) is
        // deterministic and thread-count-independent.
        let mut order: Vec<u32> = (0..total_entries as u32).collect();
        order.sort_by(|&a, &b| {
            entries_old[a as usize]
                .precursor_mass
                .total_cmp(&entries_old[b as usize].precursor_mass)
        });
        let mut entries: Vec<SpectrumEntry> = order
            .iter()
            .map(|&old_id| entries_old[old_id as usize])
            .collect();
        drop(entries_old);

        // Pass 2 runs over contiguous pieces of the new id range, each
        // needing its own ions per bin: every piece but the last counts
        // them, and the last piece's are what is left of pass 1's histogram
        // (all of it when there is one piece).
        let ions_of: Vec<u64> = entries.iter().map(|e| e.num_fragments as u64).collect();
        let pieces = split_balanced(&ions_of, num_threads);
        let mut cursors = run_tasks(pieces[..pieces.len() - 1].to_vec(), |(lo, hi)| {
            let mut counts = vec![0u32; num_bins];
            for &old_id in &order[lo..hi] {
                for &bin in bins_old[old_id as usize] {
                    counts[bin as usize] += 1;
                }
            }
            counts
        });
        for counts in &cursors {
            for (left, count) in bin_totals.iter_mut().zip(counts) {
                *left -= count;
            }
        }
        cursors.push(bin_totals);

        // Exclusive prefix sum → CSR offsets; within a bin the slots go to
        // the pieces in piece (= id) order, turning each piece's counts
        // into its disjoint write cursors.
        let mut bin_offsets: Vec<u32> = Vec::with_capacity(num_bins + 1);
        let mut next = 0u32;
        for bin in 0..num_bins {
            bin_offsets.push(next);
            for piece in &mut cursors {
                let count = piece[bin];
                piece[bin] = next; // now a cursor, not a count
                next += count;
            }
        }
        bin_offsets.push(next);
        debug_assert_eq!(next as usize, total_ions);
        // The dense prefix sums were only scaffolding for the fill; the
        // index keeps the sparse directory.
        let dir = bindir::from_dense(&bin_offsets).expect("prefix sums form a valid CSR");

        // Pass 2: each piece writes its ids, ascending, through its own
        // cursors.
        let mut postings = vec![0u32; total_ions];
        let shared = SharedPostings::new(&mut postings);
        let fills: Vec<_> = pieces.into_iter().zip(cursors).collect();
        run_tasks(fills, |((lo, hi), mut cursors)| {
            for new_id in lo..hi {
                for &bin in bins_old[order[new_id] as usize] {
                    let slot = &mut cursors[bin as usize];
                    shared.write(*slot as usize, new_id as u32);
                    *slot += 1;
                }
            }
        });

        self.stats = BuildStats {
            peptides: db.len(),
            spectra: entries.len(),
            ions: postings.len(),
            dropped_fragments: dropped,
        };
        // Allocation-exact: footprint accounting equates capacity and length.
        entries.shrink_to_fit();
        SlmIndex::from_parts(self.config.clone(), entries, dir, postings)
    }

    /// Fails the build if a spectrum of `db` could hold more fragments than
    /// [`SpectrumEntry::num_fragments`] counts.
    fn check_fragment_counts(&self, db: &PeptideDb) {
        let theo = &self.config.theo;
        let per_cleavage = (theo.b_ions as usize + theo.y_ions as usize) * theo.charges.len();
        let longest = db.peptides().iter().map(|p| p.len()).max().unwrap_or(0);
        assert!(
            longest.saturating_sub(1).saturating_mul(per_cleavage) <= u16::MAX as usize,
            "a {longest}-residue peptide exceeds u16 fragments per spectrum; \
             index fewer fragment charge states or shorter peptides"
        );
    }

    /// Pass 1 over peptide ids `[lo, hi)`: entries, the bins of their kept
    /// fragments, per-bin ion counts, dropped-fragment count.
    fn pass1_range(&self, db: &PeptideDb, lo: u32, hi: u32) -> RangePass1 {
        let (config, modspec) = (&self.config, &self.modspec);
        let mut out = RangePass1 {
            entries: Vec::new(),
            bins: Vec::new(),
            bin_counts: vec![0u32; config.num_bins()],
            dropped: 0,
        };
        // Scratch of the two generators, reused across the range.
        let (mut site_buf, mut prefix) = (Vec::new(), Vec::new());
        for pid in lo..hi {
            let seq = db.get(pid).sequence();
            let mut modform = 0usize;
            for_each_modform(seq, modspec, &mut site_buf, |sites, _| {
                let first = out.bins.len();
                let mass =
                    for_each_fragment(seq, sites, modspec, &config.theo, &mut prefix, |mz| {
                        match config.bin_of(mz) {
                            Some(bin) => {
                                out.bin_counts[bin as usize] += 1;
                                out.bins.push(bin);
                            }
                            None => out.dropped += 1,
                        }
                    });
                out.entries.push(SpectrumEntry {
                    peptide: pid,
                    modform: modform as u16,
                    num_fragments: (out.bins.len() - first) as u16,
                    precursor_mass: mass as f32,
                });
                modform += 1;
            });
        }
        out
    }
}

/// Runs `task` on every input — inline when there is at most one,
/// otherwise concurrently on the shared pool — and returns the results in
/// input order.
fn run_tasks<I: Send, T: Send>(inputs: Vec<I>, task: impl Fn(I) -> T + Sync) -> Vec<T> {
    if inputs.len() <= 1 {
        return inputs.into_iter().map(task).collect();
    }
    let mut results: Vec<Option<T>> = inputs.iter().map(|_| None).collect();
    minipool::scope(|s| {
        for (slot, input) in results.iter_mut().zip(inputs) {
            let task = &task;
            s.spawn(move |_| *slot = Some(task(input)));
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("pool task did not run"))
        .collect()
}

/// Splits `0..weights.len()` into at most `parts` contiguous ranges of
/// near-equal total weight (a greedy boundary at each `1/parts`-th of the
/// total). Ranges are never empty unless `weights` is (one empty range
/// then).
fn split_balanced(weights: &[u64], parts: usize) -> Vec<(usize, usize)> {
    let len = weights.len();
    if len == 0 {
        return vec![(0, 0)];
    }
    let parts = parts.min(len);
    if parts == 1 {
        return vec![(0, len)];
    }
    let total: u64 = weights.iter().sum();
    let mut ranges = Vec::with_capacity(parts);
    let mut lo = 0usize;
    let mut acc = 0u64;
    for r in 0..parts {
        // Greedy boundary at the next 1/parts-th of total weight, keeping
        // at least one item per remaining range.
        let target = total * (r as u64 + 1) / parts as u64;
        let max_hi = len - (parts - 1 - r);
        let mut hi = lo;
        while hi < max_hi && (hi == lo || acc < target) {
            acc += weights[hi];
            hi += 1;
        }
        ranges.push((lo, hi));
        lo = hi;
    }
    // Belt and suspenders: the last range absorbs any remainder.
    if lo < len {
        ranges.last_mut().expect("parts >= 1").1 = len;
    }
    ranges
}

/// Splits `0..db.len()` into at most `parts` contiguous peptide ranges
/// balanced by *estimated pass-1 work* (modform count × sequence length, a
/// proxy for theoretical ions) rather than by peptide count — a database
/// where modform-heavy peptides sit clustered (sorted input, one protein
/// family contiguous) must not serialize the build behind one straggler
/// range. Ranges are never empty unless `db` is (one empty range then).
fn split_ranges_weighted(db: &PeptideDb, modspec: &ModSpec, parts: usize) -> Vec<(u32, u32)> {
    // Peptide ids are `u32` (`PeptideDb` enforces it).
    if parts.min(db.len()) <= 1 {
        // A single range is the whole database, whatever the weights.
        return vec![(0, db.len() as u32)];
    }
    let weight = |p: &lbe_bio::peptide::Peptide| {
        count_modforms(p.sequence(), modspec) as u64 * p.len().max(1) as u64
    };
    let weights: Vec<u64> = db.peptides().iter().map(weight).collect();
    split_balanced(&weights, parts)
        .into_iter()
        .map(|(lo, hi)| (lo as u32, hi as u32))
        .collect()
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

    /// The build as it stood before the one-scatter rewrite, kept as the
    /// oracle: a sorted `TheoSpectrum` per modform, the stable mass sort,
    /// a fill in peptide order writing renumbered ids, then a sort of every
    /// bin's postings.
    fn build_reference(
        config: &SlmConfig,
        spec: &ModSpec,
        db: &PeptideDb,
    ) -> (SlmIndex, BuildStats) {
        let mut old: Vec<(SpectrumEntry, Vec<u32>)> = Vec::new();
        let mut dropped = 0usize;
        for (pid, pep) in db.iter() {
            let forms = lbe_bio::mods::enumerate_modforms(pep.sequence(), spec);
            for (fi, form) in forms.iter().enumerate() {
                let theo = lbe_spectra::theo::TheoSpectrum::from_sequence(
                    pep.sequence(),
                    form,
                    spec,
                    &config.theo,
                );
                let mzs = &theo.fragment_mzs;
                let bins: Vec<u32> = mzs.iter().filter_map(|&mz| config.bin_of(mz)).collect();
                dropped += mzs.len() - bins.len();
                let entry = SpectrumEntry {
                    peptide: pid,
                    modform: fi as u16,
                    num_fragments: bins.len() as u16,
                    precursor_mass: theo.precursor_mass as f32,
                };
                old.push((entry, bins));
            }
        }
        let mut order: Vec<usize> = (0..old.len()).collect();
        order.sort_by(|&a, &b| old[a].0.precursor_mass.total_cmp(&old[b].0.precursor_mass));
        let mut new_of = vec![0u32; old.len()];
        for (new_id, &old_id) in order.iter().enumerate() {
            new_of[old_id] = new_id as u32;
        }
        let mut per_bin: Vec<Vec<u32>> = vec![Vec::new(); config.num_bins()];
        for (old_id, (_, bins)) in old.iter().enumerate() {
            for &bin in bins {
                per_bin[bin as usize].push(new_of[old_id]);
            }
        }
        let mut bin_offsets = vec![0u32];
        let mut postings = Vec::new();
        for list in &mut per_bin {
            list.sort_unstable();
            postings.extend_from_slice(list);
            bin_offsets.push(postings.len() as u32);
        }
        let stats = BuildStats {
            peptides: db.len(),
            spectra: old.len(),
            ions: postings.len(),
            dropped_fragments: dropped,
        };
        postings.shrink_to_fit();
        let entries = order.iter().map(|&old_id| old[old_id].0).collect();
        let dir = bindir::from_dense(&bin_offsets).unwrap();
        let index = SlmIndex::from_parts(config.clone(), entries, dir, postings);
        (index, stats)
    }

    /// Two mods on one residue (N), so a position has two candidate sites.
    fn two_mods_on_one_residue() -> ModSpec {
        use lbe_bio::mods::{ModType, VariableMod};
        ModSpec {
            mods: vec![
                VariableMod::new(ModType::Deamidation, b"NQ"),
                VariableMod::new(ModType::Custom(10.0), b"NK"),
            ],
            max_mods_per_peptide: 3,
            max_modforms_per_peptide: 40,
        }
    }

    /// New build ≡ reference build — index and stats — at every thread
    /// count, including more threads than peptides.
    fn check_against_reference(
        config: &SlmConfig,
        spec: &ModSpec,
        d: &PeptideDb,
    ) -> Result<(), String> {
        let (reference, ref_stats) = build_reference(config, spec, d);
        reference.validate()?;
        for threads in [1, 2, 3, 8, d.len() + 5] {
            let mut b = IndexBuilder::new(config.clone(), spec.clone());
            let index = b.build_parallel(d, threads);
            if index != reference || b.stats() != ref_stats {
                return Err(format!(
                    "{threads} threads: index or stats ({:?} vs {ref_stats:?}) differ from the reference",
                    b.stats()
                ));
            }
            if index.heap_bytes() != reference.heap_bytes() {
                return Err(format!("{threads} threads: allocation not exact"));
            }
        }
        Ok(())
    }

    fn theo_variants() -> [lbe_spectra::theo::TheoParams; 4] {
        use lbe_spectra::theo::TheoParams;
        [
            TheoParams {
                y_ions: false,
                ..TheoParams::default()
            },
            TheoParams {
                b_ions: false,
                ..TheoParams::default()
            },
            TheoParams::default(),
            TheoParams::with_doubly_charged(),
        ]
    }

    #[test]
    fn matches_reference_on_the_awkward_inputs() {
        let specs = [
            ModSpec::none(),
            ModSpec::oxidation_only(),
            ModSpec::paper_default(),
            two_mods_on_one_residue(),
        ];
        // Duplicates and I/L isobars (equal masses: peptide-major,
        // modform-minor order must survive), a single-residue peptide (no
        // fragments), mod-rich peptides, and the empty database.
        let awkward = db(&[
            "PEPTLDEK",
            "PEPTIDEK",
            "K",
            "PEPTIDEK",
            "MNKQMCNQK",
            "NNK",
            "PEPTLDEK",
            "GG",
            "MMMNK",
        ]);
        // 1300 Da keeps every fragment of these peptides, 300 Da drops
        // most; the default axis (4× the bins) runs once.
        let config = |max_fragment_mz, theo| SlmConfig {
            max_fragment_mz,
            theo,
            ..SlmConfig::default()
        };
        for spec in &specs {
            for theo in theo_variants() {
                check_against_reference(&config(1300.0, theo), spec, &awkward).unwrap();
            }
            let doubly = lbe_spectra::theo::TheoParams::with_doubly_charged();
            check_against_reference(&config(300.0, doubly), spec, &awkward).unwrap();
        }
        check_against_reference(&SlmConfig::default(), &specs[2], &awkward).unwrap();
        check_against_reference(&SlmConfig::default(), &specs[2], &PeptideDb::new()).unwrap();
        // Bins so coarse that a spectrum lands several fragments in one:
        // its id must then repeat, adjacently, in that bin's list.
        let coarse = SlmConfig {
            resolution: 50.0,
            ..SlmConfig::default()
        };
        check_against_reference(&coarse, &specs[2], &awkward).unwrap();
        let index = IndexBuilder::new(coarse.clone(), ModSpec::none()).build(&awkward);
        let repeats = |bin| index.bin_postings(bin).windows(2).any(|w| w[0] == w[1]);
        assert!((0..coarse.num_bins() as u32).any(repeats));
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// Random databases (with duplicates and I/L twins) × mod specs ×
            /// fragment series × `max_fragment_mz` (low ones drop
            /// fragments) × thread counts: the one-scatter build equals the
            /// reference. A failure prints the seed to replay it with
            /// (`PROPTEST_SEED`).
            #[test]
            fn build_matches_reference(
                seqs in prop::collection::vec("[ACDEFGHIKLMNPQRSTVWY]{1,16}", 0..10),
                twins in prop::collection::vec(0usize..64, 0..4),
                spec_ix in 0usize..4,
                theo_ix in 0usize..4,
                axis_ix in 0usize..4,
            ) {
                let mut seqs = seqs;
                for t in twins {
                    if !seqs.is_empty() {
                        let twin = seqs[t % seqs.len()].replace('I', "L");
                        seqs.insert(t % seqs.len(), twin);
                    }
                }
                let refs: Vec<&str> = seqs.iter().map(String::as_str).collect();
                let spec = [
                    ModSpec::none(),
                    ModSpec::oxidation_only(),
                    ModSpec::paper_default(),
                    two_mods_on_one_residue(),
                ][spec_ix]
                    .clone();
                let config = SlmConfig {
                    max_fragment_mz: [300.0, 300.0, 1000.0, 5100.0][axis_ix],
                    theo: theo_variants()[theo_ix].clone(),
                    ..SlmConfig::default()
                };
                let outcome = check_against_reference(&config, &spec, &db(&refs));
                prop_assert!(outcome.is_ok(), "{:?} on {:?}", outcome, seqs);
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds u16 fragments per spectrum")]
    fn more_fragments_than_u16_counts_fails_the_build() {
        // 2 series × 299 cleavages × 110 charge states = 65 780 > 65 535.
        let config = SlmConfig {
            theo: lbe_spectra::theo::TheoParams {
                charges: (1..=110).collect(),
                ..Default::default()
            },
            ..SlmConfig::default()
        };
        let long = "G".repeat(300);
        IndexBuilder::new(config, ModSpec::none()).build(&db(&["PEPTIDEK", &long]));
    }

    #[test]
    fn fragment_count_at_the_u16_limit_builds() {
        // 1 series × 257 cleavages × 255 charge states = 65 535 exactly,
        // none dropped.
        let config = SlmConfig {
            max_fragment_mz: 20_000.0,
            theo: lbe_spectra::theo::TheoParams {
                y_ions: false,
                charges: (1..=255).collect(),
                ..Default::default()
            },
            ..SlmConfig::default()
        };
        let mut b = IndexBuilder::new(config, ModSpec::none());
        let index = b.build(&db(&["G".repeat(258).as_str()]));
        assert_eq!(index.entry(0).num_fragments, u16::MAX);
        assert_eq!(b.stats().ions, u16::MAX as usize);
    }
}
