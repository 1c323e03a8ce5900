//! Index construction in cache-sized passes: every fragment generated
//! once, every posting written twice, each time into a few streams that
//! stay in cache.
//!
//! **Pass 1** walks the peptides in id order. Per modform
//! ([`for_each_modform`]) it generates the fragment m/z
//! ([`for_each_fragment`]), quantizes each kept one to its bin and appends
//! the bin to one flat `u32` array; the spectrum's [`SpectrumEntry`]
//! records its precursor mass and how many bins it appended. Both arrays
//! are reserved once, before the walk, and never grow: a peptide has
//! exactly [`count_modforms`] entries, and each of them at most `(len − 1)
//! × series × charges` fragments — the exact count when none is dropped.
//! The only histogram is a coarse one, over *buckets* of `2^F` adjacent
//! bins (`bin >> F`).
//!
//! **Entry ids are assigned in ascending precursor-mass order**, by a
//! stable sort over the peptide-major modform-minor pass-1 order, so equal
//! masses keep that order. The payoff is the banded query kernel — with
//! ids ordered by mass, a closed search binary-searches every bin's posting
//! list down to its precursor window instead of scanning the whole bin
//! (see [`crate::query`]). Peptide and modform ids are untouched; only the
//! internal entry numbering changes.
//!
//! **Coarse pass.** In *new* id order, every posting is written once into
//! its bucket's contiguous region of the final `postings` array, packed as
//! `(bin mod 2^F) << (32 − F) | id`. The writes form one sequential stream
//! per bucket (≈ 125 at the default axis) instead of one random store per
//! posting, and each region holds its postings in ascending id order.
//!
//! **Fine pass.** Each bucket is counting-sorted by its packed bin field
//! back into its own region: `2^F` counters (16 KB at F = 12, L1-resident)
//! over a copy of the bucket. The sort is stable, so every bin's list comes
//! out ascending — the invariant the kernel binary-searches on — and the
//! pass unpacks the ids and writes the sparse bin directory (bitmap words
//! and `starts` of `bindir.rs`) as it goes.
//!
//! **F is read off the input**: `F = min(12, 32 − bits(entries − 1))`, the
//! widest bin field that leaves room for every entry id (12 up to 2^20
//! entries). F = 0 makes every bucket one bin: the coarse pass is then the
//! one-scatter build, and the fine pass a copy.
//!
//! [`IndexBuilder::build_parallel`] splits pass 1 into contiguous peptide
//! ranges (balanced by estimated ions), the coarse pass into contiguous
//! *id* pieces (balanced by ions) and the fine pass into groups of whole
//! buckets (balanced by postings, cut on bitmap-word boundaries, so each
//! group owns its words). A piece needs its own ions per bucket: every
//! piece but the last counts them in one re-read of its flat bins, the
//! last takes what is left of pass 1's histogram, and a bucket's slots are
//! handed out to the pieces in piece order. Piece `p`'s ids are all below
//! piece `p + 1`'s, so each region stays ascending, and since neither the
//! bins, the sort nor the slot of any posting depends on where the ranges,
//! pieces and groups were cut, the index is **identical for every thread
//! count** (tested) — the sequential [`IndexBuilder::build`] is the same
//! code with one range, one piece (the last: nothing is re-read) and one
//! group.
//!
//! The index is allocated exactly (capacity = length: nothing distorts the
//! memory figures). Besides it the build holds, at most: 8 bytes per
//! peptide of modform counts (pass 1 only); the flat bins, 4 bytes per
//! fragment before drops (up to the coarse pass); 44 bytes per entry
//! around the sort (the pass-1 entries and their copy, a slice per entry
//! locating its bins, the renumbering and the sort's buffer); one coarse
//! histogram of `num_bins / 2^F` counters per task; and per fine-pass task
//! a copy of its largest bucket, `2^F` counters and its buckets' `starts`.
//! Above F = 0 no table has a slot per bin, and no array grows by
//! doubling.

use crate::bindir;
use crate::config::SlmConfig;
use crate::slm::{SlmIndex, SpectrumEntry};
use lbe_bio::mods::{count_modforms, for_each_modform, ModSpec};
use lbe_bio::peptide::PeptideDb;
use lbe_spectra::theo::for_each_fragment;
use std::marker::PhantomData;
use std::ops::Range;

/// Widest packed bin field F. A bucket then spans 4 096 bins, whose `u32`
/// counters (16 KB) stay in L1 through the fine pass.
const MAX_PACKED_WIDTH: u32 = 12;

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

/// The coarse pass's bucket size and posting format: a bucket is the
/// `2^width` bins sharing `bin >> width`, and a packed posting carries the
/// low `width` bits of its bin above a `32 − width`-bit entry id.
#[derive(Debug, Clone, Copy)]
struct Packing {
    width: u32,
}

impl Packing {
    /// The widest packing, at most `max_width` bits, whose id field holds
    /// every id of an index with `entries` entries (`entries ≤ 2^32`).
    fn for_entries(entries: usize, max_width: u32) -> Self {
        let id_bits = usize::BITS - entries.saturating_sub(1).leading_zeros();
        Packing {
            width: max_width.min(32u32.saturating_sub(id_bits)),
        }
    }

    /// Buckets covering a `num_bins`-bin axis; the last may be partial.
    fn buckets(self, num_bins: usize) -> usize {
        (num_bins.saturating_sub(1) >> self.width) + 1
    }

    #[inline]
    fn bucket(self, bin: u32) -> usize {
        (bin >> self.width) as usize
    }

    /// `id` under the low `width` bits of `bin`. The shift is done in
    /// `u64`, so at width 0 (a shift by 32) the id is left alone.
    #[inline]
    fn pack(self, bin: u32, id: u32) -> u32 {
        let low = bin & ((1 << self.width) - 1);
        (u64::from(low) << (32 - self.width)) as u32 | id
    }

    /// The bin of a packed posting, relative to its bucket's first bin.
    #[inline]
    fn low(self, packed: u32) -> usize {
        (u64::from(packed) >> (32 - self.width)) as usize
    }

    /// The entry id of a packed posting.
    #[inline]
    fn id(self, packed: u32) -> u32 {
        packed & (u32::MAX >> self.width)
    }
}

/// Pass-1 output for one contiguous peptide range.
struct RangePass1 {
    /// Index entries, in peptide-major modform-minor order within the range.
    entries: Vec<SpectrumEntry>,
    /// The bin of every kept fragment, entry after entry: an entry's bins
    /// are the `num_fragments` following those of the entries before it.
    bins: Vec<u32>,
    /// Ions per bucket contributed by this range.
    bucket_counts: Vec<u32>,
    /// Fragments outside `max_fragment_mz`.
    dropped: usize,
}

/// Postings array shared across coarse-pass piece tasks.
///
/// Every `(piece, bucket)` pair owns a disjoint slot window `[cursor,
/// cursor + count)` carved out of the same prefix sums, so concurrent
/// writers never alias; the wrapper only exists to hand each task a raw
/// pointer with bounds checking in debug builds.
struct SharedPostings<'a> {
    ptr: *mut u32,
    len: usize,
    _marker: PhantomData<&'a mut [u32]>,
}

// SAFETY: writes go through `write`, and callers (the coarse pass below)
// only write slots inside windows that are disjoint across tasks by
// construction.
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
        // SAFETY: `slot < len` (checked in debug; guaranteed by the bucket
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

    /// Like [`IndexBuilder::build`], with every pass split `num_threads`
    /// ways on the shared work-stealing pool. The produced index is
    /// identical for every thread count.
    pub fn build_parallel(&mut self, db: &PeptideDb, num_threads: usize) -> SlmIndex {
        self.build_packed(db, num_threads, MAX_PACKED_WIDTH)
    }

    /// [`IndexBuilder::build_parallel`] with the packed bin field F at most
    /// `max_width` (≤ 12) bits wide: the seam through which tests take
    /// every F, down to 0, on inputs far smaller than a million entries.
    pub(crate) fn build_packed(
        &mut self,
        db: &PeptideDb,
        num_threads: usize,
        max_width: u32,
    ) -> SlmIndex {
        assert!(num_threads >= 1, "need at least one thread");
        assert!(max_width <= MAX_PACKED_WIDTH, "packed bin field too wide");
        self.check_fragment_counts(db);
        let num_bins = self.config.num_bins();
        let this = &*self;

        // The entry count is known before anything is generated, and with
        // it the packing.
        let forms: Vec<usize> = db
            .peptides()
            .iter()
            .map(|p| count_modforms(p.sequence(), &this.modspec))
            .collect();
        let total_entries = forms.iter().fold(0usize, |acc, &n| acc.saturating_add(n));
        assert!(
            total_entries <= u32::MAX as usize,
            "index partition exceeds u32 entry ids; partition the input"
        );
        let packing = Packing::for_entries(total_entries, max_width);
        let buckets = packing.buckets(num_bins);

        // Pass 1: per peptide range, the entries, their fragments' bins and
        // the bucket histogram.
        let ranges = split_ranges_weighted(db, &forms, num_threads);
        let mut pass1 = run_tasks(ranges, |(lo, hi)| {
            this.pass1_range(db, &forms, lo, hi, packing)
        });
        drop(forms);
        let total_ions: usize = pass1.iter().map(|r| r.bins.len()).sum();
        let dropped: usize = pass1.iter().map(|r| r.dropped).sum();
        assert_eq!(
            pass1.iter().map(|r| r.entries.len()).sum::<usize>(),
            total_entries,
            "modform count disagrees with the modform walk"
        );
        assert!(
            total_ions <= u32::MAX as usize,
            "index partition exceeds u32 posting offsets; partition the input"
        );
        // No bucket holds more than `total_ions`, so no `u32` count wrapped.
        let mut bucket_totals = std::mem::take(&mut pass1[0].bucket_counts);
        for r in &mut pass1[1..] {
            let counts = std::mem::take(&mut r.bucket_counts);
            for (total, count) in bucket_totals.iter_mut().zip(counts) {
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
        let entries: Vec<SpectrumEntry> = order
            .iter()
            .map(|&old_id| entries_old[old_id as usize])
            .collect();
        drop(entries_old);

        // The coarse pass runs over contiguous pieces of the new id range,
        // each needing its own ions per bucket: every piece but the last
        // counts them, and the last piece's are what is left of pass 1's
        // histogram (all of it when there is one piece).
        let pieces = split_balanced(entries.len(), num_threads, |id| {
            u64::from(entries[id].num_fragments)
        });
        let mut cursors = run_tasks(pieces[..pieces.len() - 1].to_vec(), |(lo, hi)| {
            let mut counts = vec![0u32; buckets];
            for &old_id in &order[lo..hi] {
                for &bin in bins_old[old_id as usize] {
                    counts[packing.bucket(bin)] += 1;
                }
            }
            counts
        });
        for counts in &cursors {
            for (left, count) in bucket_totals.iter_mut().zip(counts) {
                *left -= count;
            }
        }
        cursors.push(bucket_totals);

        // Exclusive prefix sum → bucket regions; within a bucket the slots
        // go to the pieces in piece (= id) order, turning each piece's
        // counts into its disjoint write cursors.
        let mut bucket_starts: Vec<u32> = Vec::with_capacity(buckets + 1);
        let mut next = 0u32;
        for bucket in 0..buckets {
            bucket_starts.push(next);
            for piece in &mut cursors {
                let count = piece[bucket];
                piece[bucket] = next; // now a cursor, not a count
                next += count;
            }
        }
        bucket_starts.push(next);
        debug_assert_eq!(next as usize, total_ions);

        // Coarse pass: each piece writes its packed ids, ascending, through
        // its own cursors.
        let mut postings = vec![0u32; total_ions];
        let shared = SharedPostings::new(&mut postings);
        let fills: Vec<_> = pieces.into_iter().zip(cursors).collect();
        run_tasks(fills, |((lo, hi), mut cursors)| {
            for new_id in lo..hi {
                for &bin in bins_old[order[new_id] as usize] {
                    let slot = &mut cursors[packing.bucket(bin)];
                    shared.write(*slot as usize, packing.pack(bin, new_id as u32));
                    *slot += 1;
                }
            }
        });
        // Pass 1's bins are spent: free them before the fine pass.
        drop((bins_old, order));
        drop(pass1);

        let dir = fine_pass(
            &mut postings,
            &bucket_starts,
            packing,
            num_bins,
            num_threads,
        );
        self.stats = BuildStats {
            peptides: db.len(),
            spectra: entries.len(),
            ions: postings.len(),
            dropped_fragments: dropped,
        };
        SlmIndex::from_parts(self.config.clone(), entries, dir, postings)
    }

    /// Fragments one modform of a `len`-residue peptide generates before
    /// any is dropped: `(len − 1) × series × charges`.
    fn fragments_per_form(&self, len: usize) -> usize {
        let theo = &self.config.theo;
        let series = theo.b_ions as usize + theo.y_ions as usize;
        len.saturating_sub(1)
            .saturating_mul(series * theo.charges.len())
    }

    /// Fails the build if a spectrum of `db` could hold more fragments than
    /// [`SpectrumEntry::num_fragments`] counts.
    fn check_fragment_counts(&self, db: &PeptideDb) {
        let longest = db.peptides().iter().map(|p| p.len()).max().unwrap_or(0);
        assert!(
            self.fragments_per_form(longest) <= u16::MAX as usize,
            "a {longest}-residue peptide exceeds u16 fragments per spectrum; \
             index fewer fragment charge states or shorter peptides"
        );
    }

    /// Pass 1's reservation for peptide ids `[lo, hi)`, given every
    /// peptide's modform count: its entries, exactly, and its fragments
    /// before drops, exactly — an upper bound on the bins it keeps.
    fn reservation(&self, db: &PeptideDb, forms: &[usize], lo: u32, hi: u32) -> (usize, usize) {
        let range = lo as usize..hi as usize;
        let peptides = db.peptides()[range.clone()].iter();
        peptides
            .zip(&forms[range])
            .fold((0, 0), |(entries, fragments), (p, &n)| {
                (
                    entries + n,
                    fragments + n * self.fragments_per_form(p.len()),
                )
            })
    }

    /// Pass 1 over peptide ids `[lo, hi)`: entries, the bins of their kept
    /// fragments, per-bucket ion counts, dropped-fragment count.
    fn pass1_range(
        &self,
        db: &PeptideDb,
        forms: &[usize],
        lo: u32,
        hi: u32,
        packing: Packing,
    ) -> RangePass1 {
        let (config, modspec) = (&self.config, &self.modspec);
        let (entries, fragments) = self.reservation(db, forms, lo, hi);
        let mut out = RangePass1 {
            entries: Vec::with_capacity(entries),
            bins: Vec::with_capacity(fragments),
            bucket_counts: vec![0u32; packing.buckets(config.num_bins())],
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
                                out.bucket_counts[packing.bucket(bin)] += 1;
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

/// The fine pass: counting-sorts every bucket's region of `postings` by
/// bin, unpacking the ids, and returns the sparse directory (`bitmap`,
/// `starts`) it writes on the way. Groups of whole buckets are separate
/// tasks; each group starts on a bitmap-word boundary, so it owns its
/// words (and its regions) outright.
fn fine_pass(
    postings: &mut [u32],
    bucket_starts: &[u32],
    packing: Packing,
    num_bins: usize,
    num_threads: usize,
) -> (Vec<u64>, Vec<u32>) {
    let buckets = bucket_starts.len() - 1;
    // A group is cut every `unit` buckets: one bitmap word's worth when a
    // bucket is narrower than a word.
    let unit = 1usize << 6u32.saturating_sub(packing.width);
    let cut = |u: usize| (u * unit).min(buckets);
    let groups = split_balanced(buckets.div_ceil(unit), num_threads, |u| {
        u64::from(bucket_starts[cut(u + 1)] - bucket_starts[cut(u)])
    });

    let mut bitmap = vec![0u64; bindir::bitmap_words(num_bins)];
    let first_word = |bucket: usize| (bucket << packing.width) >> 6;
    let mut tasks = Vec::with_capacity(groups.len());
    let (mut postings_left, mut words_left) = (postings, &mut bitmap[..]);
    for (i, &(lo, hi)) in groups.iter().enumerate() {
        let group = cut(lo)..cut(hi);
        let len = (bucket_starts[group.end] - bucket_starts[group.start]) as usize;
        let (own, rest) = std::mem::take(&mut postings_left).split_at_mut(len);
        postings_left = rest;
        let words = if i + 1 == groups.len() {
            words_left.len()
        } else {
            first_word(group.end) - first_word(group.start)
        };
        let (own_words, rest) = std::mem::take(&mut words_left).split_at_mut(words);
        words_left = rest;
        tasks.push((group, own, own_words));
    }
    let parts = run_tasks(tasks, |(group, postings, words)| {
        sort_buckets(group, postings, words, bucket_starts, packing)
    });

    let occupied: usize = parts.iter().map(Vec::len).sum();
    let mut starts = Vec::with_capacity(occupied + 1);
    for part in &parts {
        starts.extend_from_slice(part);
    }
    starts.push(bucket_starts[buckets]);
    (bitmap, starts)
}

/// Sorts the buckets `group` — whose regions are `postings` and whose bins'
/// bitmap words are `words` — by bin, and returns the posting offset of
/// each of their occupied bins, in bin order.
fn sort_buckets(
    group: Range<usize>,
    postings: &mut [u32],
    words: &mut [u64],
    bucket_starts: &[u32],
    packing: Packing,
) -> Vec<u32> {
    let span = 1usize << packing.width;
    let base = bucket_starts[group.start];
    let word_base = (group.start << packing.width) >> 6;
    let sizes = group
        .clone()
        .map(|b| (bucket_starts[b + 1] - bucket_starts[b]) as usize);
    let mut copy = Vec::with_capacity(sizes.clone().max().unwrap_or(0));
    // A bucket has at most `min(span, size)` occupied bins.
    let mut starts = Vec::with_capacity(sizes.map(|n| n.min(span)).sum());
    let mut cursors = vec![0u32; span];
    for bucket in group {
        let (lo, hi) = (bucket_starts[bucket], bucket_starts[bucket + 1]);
        if lo == hi {
            continue;
        }
        let region = &mut postings[(lo - base) as usize..(hi - base) as usize];
        copy.clear();
        copy.extend_from_slice(region);
        cursors.fill(0);
        for &p in &copy {
            cursors[packing.low(p)] += 1;
        }
        // Counts → cursors into the region; every occupied bin gets its
        // bit and its start.
        let first_bin = bucket << packing.width;
        let mut next = 0u32;
        for (low, cursor) in cursors.iter_mut().enumerate() {
            let count = *cursor;
            if count != 0 {
                let bin = first_bin + low;
                words[(bin >> 6) - word_base] |= 1 << (bin & 63);
                starts.push(lo + next);
            }
            *cursor = next;
            next += count;
        }
        for &p in &copy {
            let cursor = &mut cursors[packing.low(p)];
            region[*cursor as usize] = packing.id(p);
            *cursor += 1;
        }
    }
    starts
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

/// Splits `0..len` into at most `parts` contiguous ranges of near-equal
/// total `weight` (a greedy boundary at each `1/parts`-th of the total).
/// Ranges are never empty unless `len` is 0 (one empty range then).
fn split_balanced(len: usize, parts: usize, weight: impl Fn(usize) -> u64) -> Vec<(usize, usize)> {
    if len == 0 {
        return vec![(0, 0)];
    }
    let parts = parts.min(len);
    if parts == 1 {
        return vec![(0, len)];
    }
    let total: u64 = (0..len).map(&weight).sum();
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
            acc += weight(hi);
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
/// balanced by *estimated pass-1 work* (modform count `forms[id]` ×
/// sequence length, a proxy for theoretical ions) rather than by peptide
/// count — a database where modform-heavy peptides sit clustered (sorted
/// input, one protein family contiguous) must not serialize the build
/// behind one straggler range. Ranges are never empty unless `db` is (one
/// empty range then).
fn split_ranges_weighted(db: &PeptideDb, forms: &[usize], parts: usize) -> Vec<(u32, u32)> {
    // Peptide ids are `u32` (`PeptideDb` enforces it).
    let peptides = db.peptides();
    split_balanced(peptides.len(), parts, |id| {
        forms[id] as u64 * peptides[id].len().max(1) as u64
    })
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

    /// Every peptide's modform count, as the build computes it.
    fn modforms(d: &PeptideDb, spec: &ModSpec) -> Vec<usize> {
        d.peptides()
            .iter()
            .map(|p| count_modforms(p.sequence(), spec))
            .collect()
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
                    let ranges = split_ranges_weighted(&d, &modforms(&d, &spec), parts);
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
        let ranges = split_ranges_weighted(&d, &modforms(&d, &spec), 4);
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
        let dir = bindir::tests::from_dense(&bin_offsets).unwrap();
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

    /// The database of `matches_reference_on_the_awkward_inputs`.
    const AWKWARD: [&str; 9] = [
        "PEPTLDEK",
        "PEPTIDEK",
        "K",
        "PEPTIDEK",
        "MNKQMCNQK",
        "NNK",
        "PEPTLDEK",
        "GG",
        "MMMNK",
    ];

    /// Every packed width F from 0 (one bin per bucket) to 12, at 1, 2, 3
    /// and 8 threads, builds the reference index. The 1300 Da axis ends in
    /// a partial bucket at every F > 0, F = 12 puts bin bits in the top bit
    /// of a packed posting, and the 50 Da axis repeats an id within a bin.
    #[test]
    fn every_packed_width_matches_reference_on_the_awkward_inputs() {
        let awkward = db(&AWKWARD);
        let check = |config: &SlmConfig, spec: &ModSpec| {
            let (reference, ref_stats) = build_reference(config, spec, &awkward);
            for width in 0..=MAX_PACKED_WIDTH {
                for threads in [1, 2, 3, 8] {
                    let mut b = IndexBuilder::new(config.clone(), spec.clone());
                    let index = b.build_packed(&awkward, threads, width);
                    assert!(index == reference, "F = {width}, {threads} threads");
                    assert_eq!(b.stats(), ref_stats, "F = {width}, {threads} threads");
                    assert_eq!(index.heap_bytes(), reference.heap_bytes());
                }
            }
        };
        let config = |max_fragment_mz, theo| SlmConfig {
            max_fragment_mz,
            theo,
            ..SlmConfig::default()
        };
        for spec in [
            ModSpec::none(),
            ModSpec::oxidation_only(),
            ModSpec::paper_default(),
            two_mods_on_one_residue(),
        ] {
            for theo in theo_variants() {
                check(&config(1300.0, theo), &spec);
            }
            let doubly = lbe_spectra::theo::TheoParams::with_doubly_charged();
            check(&config(300.0, doubly), &spec);
        }
        let coarse = SlmConfig {
            resolution: 50.0,
            ..SlmConfig::default()
        };
        check(&coarse, &ModSpec::paper_default());
    }

    #[test]
    fn packing_width_is_read_off_the_entry_count() {
        let width = |entries| Packing::for_entries(entries, MAX_PACKED_WIDTH).width;
        assert_eq!(width(0), 12);
        assert_eq!(width(1 << 20), 12);
        assert_eq!(width((1 << 20) + 1), 11);
        assert_eq!(width(1 << 31), 1);
        assert_eq!(width((1 << 31) + 1), 0);
        assert_eq!(width(u32::MAX as usize), 0);
        // The id field of the widest packing holds the largest id, and at
        // width 0 a packed posting is its id.
        for (entries, bin) in [(1usize << 20, 0xABC_DEFu32), (u32::MAX as usize, 7)] {
            let packing = Packing::for_entries(entries, MAX_PACKED_WIDTH);
            let id = (entries - 1) as u32;
            let packed = packing.pack(bin, id);
            assert_eq!(packing.id(packed), id);
            assert_eq!(
                packing.low(packed),
                (bin & ((1 << packing.width) - 1)) as usize
            );
        }
        assert_eq!(Packing { width: 0 }.pack(u32::MAX, 5), 5);
        assert_eq!(Packing { width: 12 }.buckets(4096), 1);
        assert_eq!(Packing { width: 12 }.buckets(4097), 2);
        assert_eq!(Packing { width: 0 }.buckets(4097), 4097);
    }

    /// Pass 1 reserves exactly: Σ `count_modforms` entries — also under a
    /// modform cap below 2, where the walk still yields two forms — and
    /// every generated fragment, which is every kept one unless
    /// `max_fragment_mz` drops some.
    #[test]
    fn pass1_reservation_is_exact() {
        let d = db(&AWKWARD);
        let capped = |cap| ModSpec {
            max_modforms_per_peptide: cap,
            ..ModSpec::paper_default()
        };
        let specs = [
            ModSpec::none(),
            ModSpec::paper_default(),
            capped(1),
            capped(0),
        ];
        let theo = lbe_spectra::theo::TheoParams::with_doubly_charged();
        for (max_fragment_mz, drops) in [(5100.0, false), (300.0, true)] {
            let config = SlmConfig {
                max_fragment_mz,
                theo: theo.clone(),
                ..SlmConfig::default()
            };
            for spec in &specs {
                let forms = modforms(&d, spec);
                let mut b = IndexBuilder::new(config.clone(), spec.clone());
                let index = b.build(&d);
                assert_eq!(forms.iter().sum::<usize>(), index.num_spectra(), "{spec:?}");
                let end = d.len() as u32;
                let (entries, fragments) = b.reservation(&d, &forms, 0, end);
                let packing = Packing {
                    width: MAX_PACKED_WIDTH,
                };
                let out = b.pass1_range(&d, &forms, 0, end, packing);
                assert_eq!(entries, out.entries.len());
                assert_eq!(out.entries.capacity(), out.entries.len());
                assert_eq!(fragments, out.bins.len() + out.dropped);
                assert_eq!(out.bins.capacity(), fragments);
                assert_eq!(out.dropped > 0, drops, "{max_fragment_mz} Da");
            }
        }
        // Under a cap below 2 the walk yields two forms of a peptide with
        // a modifiable site, and the count says two.
        let forms = modforms(&db(&["MK"]), &capped(1));
        assert_eq!(forms, vec![2]);
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
