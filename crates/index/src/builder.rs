//! Index construction in cache-sized passes: every fragment generated
//! twice, once to count it and once to place it, and every posting written
//! twice, each time into a few streams that stay in cache. Nothing is kept
//! per fragment between the passes.
//!
//! **Counting pass.** It walks the peptides in id order. Per modform
//! ([`for_each_modform`]) it computes the precursor mass
//! ([`prefix_masses`]), then the fragment m/z ([`emit_fragments`]), and
//! quantizes each one to its bin. A kept fragment is only counted, in a
//! histogram over *buckets* of `2^F` adjacent bins (`bin >> F`), and its
//! bin marked in the bin directory's occupancy bitmap. There is one
//! histogram per precursor-mass *slab* (below). Per spectrum the pass keeps
//! its [`SpectrumEntry`] (precursor mass, kept-fragment count) and its mod
//! sites. Both arrays are allocated once, exactly, before the walk:
//! [`tally_modforms`] counts a peptide's modforms and their sites without
//! walking them.
//!
//! **Entry ids are assigned in ascending precursor-mass order**, by a sort
//! on `(mass, pass-1 id)` — the peptide-major modform-minor order breaks
//! ties, so equal masses keep it. The payoff is the banded query kernel — with
//! ids ordered by mass, a closed search binary-searches every bin's posting
//! list down to its precursor window instead of scanning the whole bin
//! (see [`crate::query`]). Peptide and modform ids are untouched; only the
//! internal entry numbering changes.
//!
//! **Coarse pass.** In *new* id order, each spectrum's fragments are
//! generated again ([`for_each_fragment`], from its peptide and its stored
//! sites), and every kept one is written into its bucket's contiguous
//! region of the final `postings` array, packed as `(bin mod 2^F) << (32 −
//! F) | id`. The writes form one sequential stream per bucket (≈ 125 at
//! the default axis) instead of one random store per posting, and each
//! region holds its postings in ascending id order.
//!
//! **Fine pass.** Each bucket is counting-sorted by its packed bin field
//! back into its own region: `2^F` counters (16 KB at F = 12, L1-resident)
//! over a copy of the bucket. The sort is stable, so every bin's list comes
//! out ascending — the invariant the kernel binary-searches on — and the
//! pass unpacks the ids and writes the sparse bin directory's `starts`
//! (`bindir.rs`) as it goes, one per bit of the counting pass's bitmap.
//!
//! **F is read off the input**: `F = min(12, 32 − bits(entries − 1))`, the
//! widest bin field that leaves room for every entry id (12 up to 2^20
//! entries). F = 0 makes every bucket one bin: the coarse pass is then the
//! one-scatter build, and the fine pass a copy.
//!
//! **Threads.** [`IndexBuilder::build_parallel`] splits the counting pass
//! into contiguous peptide ranges (balanced by estimated ions), the coarse
//! pass into *pieces*, and the fine pass into groups of whole buckets
//! (balanced by postings, cut on bitmap-word boundaries, so each group's
//! bins own one run of `starts`, sized by its words' popcount). A slab is
//! a run of `f32` precursor masses, 1/32 of a binade wide (see `Slabs`):
//! a monotone function of the sort key, so after the sort each slab is a
//! contiguous run of new ids. A piece is a run of whole
//! slabs (balanced by ions), and its ions per bucket are its slabs'
//! histograms summed — no piece generates anything to learn them. A
//! bucket's slots are handed out to the pieces in piece order. Piece `p`'s
//! ids are all below piece `p + 1`'s, so each region stays ascending. The
//! bins, the sort and the slot of every posting depend on none of the cuts
//! (ranges, slabs, pieces, groups), so the index is **identical for every
//! thread count** (tested). The sequential [`IndexBuilder::build`] is the
//! same code with one range, one slab, one piece and one group. Every
//! coarse-pass write is checked against its piece's own window, and every
//! window must come out exactly full: the placed fragments are the counted
//! ones, since both passes run the same pure function of a peptide and its
//! sites.
//!
//! **What the build holds.** The index is allocated exactly (capacity =
//! length: nothing distorts the memory figures), with its peptide table
//! (residues and mod spec, copied from the database last, so a closed
//! search can score its band directly; see [`crate::query`]). Besides it
//! the build
//! holds, at most:
//! - 16 bytes per peptide of modform tallies, up to the counting pass;
//! - per spectrum, its pass-1 entry (12 bytes, up to the sort), its sort
//!   key (8, during the sort), and a site offset and the renumbering (4 +
//!   4, through the coarse pass);
//! - 4 bytes per mod site, through the coarse pass;
//! - per counting task one histogram of `slabs × num_bins / 2^F` counters,
//!   at most 2^16 (256 KB) unless one slab alone is wider, and one bitmap
//!   (a bit per bin); per piece `num_bins / 2^F` windows;
//! - per fine-pass task a copy of its largest bucket and `2^F` counters.
//!
//! No table but the postings has a slot per fragment. Above F = 0 none but
//! the bitmaps has a slot per bin, and no array grows by doubling.

use crate::bindir;
use crate::config::SlmConfig;
use crate::slm::{PeptideTable, SlmIndex, SpectrumEntry};
use lbe_bio::mods::{for_each_modform, tally_modforms, ModSpec, ModformTally};
use lbe_bio::peptide::PeptideDb;
use lbe_spectra::theo::{emit_fragments, for_each_fragment, prefix_masses};
use std::marker::PhantomData;
use std::ops::Range;

/// Widest packed bin field F. A bucket then spans 4 096 bins, whose `u32`
/// counters (16 KB) stay in L1 through the fine pass.
const MAX_PACKED_WIDTH: u32 = 12;

/// Counters in one counting task's slab histograms, at most, unless a
/// single slab's histogram (one counter per bucket) is larger.
const HISTOGRAM_BUDGET: usize = 1 << 16;

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

/// `mass`'s place in [`f32::total_cmp`]'s order, as an unsigned integer:
/// the renumbering's sort key. A non-negative mass keeps its bit pattern
/// under a set sign bit; a negative one has every bit flipped, which puts
/// it below them and reverses the order of its magnitudes.
#[inline]
fn mass_key(mass: f32) -> u32 {
    let bits = mass.to_bits();
    if bits >> 31 == 1 {
        !bits
    } else {
        bits | 1 << 31
    }
}

/// Precursor-mass slabs: the keys of the counting pass's histograms and
/// the units the coarse pass is cut in.
///
/// A slab is a run of [`mass_key`]s between those of 32 Da and 16 384 Da,
/// `2^shift` keys wide: 32 slabs per binade at the finest shift (18), 289
/// in all. Masses outside that span join the end slabs. So [`Slabs::of`]
/// never decreases along the sort's order, whatever the masses.
#[derive(Debug, Clone, Copy)]
struct Slabs {
    shift: u32,
}

impl Slabs {
    /// The keys of 32 Da and of 16 384 Da.
    const SPAN: Range<u32> = 0xC200_0000..0xC680_0000;

    /// `2^18` keys per slab: 32 per binade of `2^23`.
    const FINEST: u32 = 18;

    /// The slabs for a build on `num_threads` threads whose histograms have
    /// `buckets` counters per slab: one slab on one thread (one piece needs
    /// no cut), else the finest whose histograms fit [`HISTOGRAM_BUDGET`].
    fn new(num_threads: usize, buckets: usize) -> Self {
        let mut slabs = Slabs {
            shift: if num_threads == 1 { 32 } else { Self::FINEST },
        };
        while slabs.count() > 1 && slabs.count() * buckets > HISTOGRAM_BUDGET {
            slabs.shift += 1;
        }
        slabs
    }

    /// Number of slabs.
    fn count(self) -> usize {
        (u64::from(Self::SPAN.end - Self::SPAN.start) >> self.shift) as usize + 1
    }

    /// The slab of precursor mass `mass`.
    #[inline]
    fn of(self, mass: f32) -> usize {
        let clamped = mass_key(mass).clamp(Self::SPAN.start, Self::SPAN.end);
        (u64::from(clamped - Self::SPAN.start) >> self.shift) as usize
    }
}

/// What the counting pass keeps, in pass-1 (peptide-major modform-minor)
/// order: each array allocated once, at its exact length.
struct Pass1 {
    /// Index entries, their ids still the pass-1 ones.
    entries: Vec<SpectrumEntry>,
    /// Entry `i`'s mod sites are `sites[site_starts[i]..site_starts[i +
    /// 1]]`: one start per entry and an end.
    site_starts: Vec<u32>,
    /// Every entry's `(position, mod index)` sites, entry after entry.
    sites: Vec<(u16, u8)>,
    counts: Counts,
}

/// What the counting pass counts, per peptide range and then summed.
struct Counts {
    /// Kept fragments per `(slab, bucket)`, slab-major.
    histogram: Vec<u32>,
    /// The bin directory's occupancy bitmap: a bit per bin that keeps a
    /// fragment.
    bitmap: Vec<u64>,
    /// Fragments outside `max_fragment_mz`.
    dropped: usize,
}

impl Counts {
    /// Adds `other`'s counts to these.
    fn add(&mut self, other: Counts) {
        for (total, count) in self.histogram.iter_mut().zip(other.histogram) {
            *total += count;
        }
        for (word, bits) in self.bitmap.iter_mut().zip(other.bitmap) {
            *word |= bits;
        }
        self.dropped += other.dropped;
    }
}

/// One counting task's share of [`Pass1`]'s arrays: its peptides' entries,
/// site starts and sites.
struct RangeOut<'a> {
    peptides: Range<u32>,
    entries: &'a mut [SpectrumEntry],
    site_starts: &'a mut [u32],
    sites: &'a mut [(u16, u8)],
    /// The offset of `sites[0]` in the whole sites array.
    site_base: u32,
}

/// Postings array shared across coarse-pass piece tasks.
///
/// Every `(piece, bucket)` pair owns a disjoint slot window `[cursor,
/// end)` carved out of the same prefix sums, so concurrent writers never
/// alias; the wrapper only exists to hand each task a raw pointer with
/// bounds checking in debug builds.
struct SharedPostings<'a> {
    ptr: *mut u32,
    len: usize,
    _marker: PhantomData<&'a mut [u32]>,
}

// SAFETY: writes go through `write`, and callers (the coarse pass below)
// only write slots inside windows that are disjoint across tasks by
// construction.
unsafe impl Send for SharedPostings<'_> {}
// SAFETY: as for `Send`: shared across tasks, each writes its own slots.
unsafe impl Sync for SharedPostings<'_> {}

impl<'a> SharedPostings<'a> {
    fn new(postings: &'a mut [u32]) -> Self {
        SharedPostings {
            ptr: postings.as_mut_ptr(),
            len: postings.len(),
            _marker: PhantomData,
        }
    }

    /// Writes `value` at `slot`. Caller must own `slot`'s window.
    #[inline]
    fn write(&self, slot: usize, value: u32) {
        debug_assert!(slot < self.len);
        // SAFETY: the coarse pass checks `slot` against its own window,
        // which the bucket prefix sums place inside `0..len` and apart
        // from every other task's.
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

        // The entry and site counts are known before anything is
        // generated, and with the entry count the packing.
        let tallies: Vec<ModformTally> = db
            .peptides()
            .iter()
            .map(|p| tally_modforms(p.sequence(), &this.modspec))
            .collect();
        let total = sum_tallies(&tallies);
        assert!(
            total.forms <= u32::MAX as usize,
            "index partition exceeds u32 entry ids; partition the input"
        );
        let packing = Packing::for_entries(total.forms, max_width);
        let buckets = packing.buckets(num_bins);
        let slabs = Slabs::new(num_threads, buckets);

        let pass1 = this.count_pass(db, &tallies, num_threads, packing, slabs);
        drop(tallies);
        let Pass1 {
            entries: entries_old,
            site_starts,
            sites,
            counts:
                Counts {
                    histogram,
                    bitmap,
                    dropped,
                },
        } = pass1;
        let total_ions: usize = entries_old
            .iter()
            .map(|e| usize::from(e.num_fragments))
            .sum();
        assert!(
            total_ions <= u32::MAX as usize,
            "index partition exceeds u32 posting offsets; partition the input"
        );

        // Renumber entries into ascending precursor-mass order. Equal
        // masses keep the peptide-major modform-minor pass-1 order (the
        // pass-1 id breaks the tie), so the permutation — and with it the
        // whole index — is deterministic and thread-count-independent.
        let mut keys: Vec<u64> = entries_old
            .iter()
            .zip(0u64..)
            .map(|(e, old_id)| u64::from(mass_key(e.precursor_mass)) << 32 | old_id)
            .collect();
        keys.sort_unstable();
        let order: Vec<u32> = keys.iter().map(|&key| key as u32).collect();
        drop(keys);
        let entries: Vec<SpectrumEntry> = order
            .iter()
            .map(|&old_id| entries_old[old_id as usize])
            .collect();
        drop(entries_old);

        let (pieces, counts): (Vec<_>, Vec<_>) =
            cut_pieces(&entries, &histogram, slabs, buckets, num_threads)
                .into_iter()
                .unzip();
        drop(histogram);

        // Exclusive prefix sum → bucket regions; within a bucket the slots
        // go to the pieces in piece (= id) order, turning each piece's
        // counts into its disjoint windows `[cursor, end)`.
        let mut windows: Vec<Vec<(u32, u32)>> =
            counts.iter().map(|_| Vec::with_capacity(buckets)).collect();
        let mut bucket_starts: Vec<u32> = Vec::with_capacity(buckets + 1);
        let mut next = 0u32;
        for bucket in 0..buckets {
            bucket_starts.push(next);
            for (piece, counts) in windows.iter_mut().zip(&counts) {
                let end = next + counts[bucket];
                piece.push((next, end));
                next = end;
            }
        }
        bucket_starts.push(next);
        drop(counts);
        assert_eq!(
            next as usize, total_ions,
            "histogram disagrees with the entries"
        );

        // Coarse pass: each piece regenerates its spectra's fragments in id
        // order and writes their packed ids through its own windows.
        let (config, modspec) = (&this.config, &this.modspec);
        let mut postings = vec![0u32; total_ions];
        let shared = SharedPostings::new(&mut postings);
        let fills: Vec<_> = pieces.into_iter().zip(windows).collect();
        run_tasks(fills, |(ids, mut windows)| {
            let mut prefix = Vec::new();
            for new_id in ids {
                let old_id = order[new_id] as usize;
                let own_sites = site_starts[old_id] as usize..site_starts[old_id + 1] as usize;
                let seq = db.get(entries[new_id].peptide).sequence();
                let packed_id = new_id as u32;
                for_each_fragment(
                    seq,
                    &sites[own_sites],
                    modspec,
                    &config.theo,
                    &mut prefix,
                    |mz| {
                        if let Some(bin) = config.bin_of(mz) {
                            let (cursor, end) = &mut windows[packing.bucket(bin)];
                            assert!(
                                cursor < end,
                                "a piece placed more fragments than it counted"
                            );
                            shared.write(*cursor as usize, packing.pack(bin, packed_id));
                            *cursor += 1;
                        }
                    },
                );
            }
            assert!(
                windows.iter().all(|(cursor, end)| cursor == end),
                "a piece placed fewer fragments than it counted"
            );
        });
        drop((order, site_starts, sites));

        let starts = fine_pass(&mut postings, &bucket_starts, &bitmap, packing, num_threads);
        self.stats = BuildStats {
            peptides: db.len(),
            spectra: entries.len(),
            ions: postings.len(),
            dropped_fragments: dropped,
        };
        SlmIndex::from_parts(self.config.clone(), entries, (bitmap, starts), postings)
            .with_peptides(PeptideTable::new(db, &self.modspec))
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

    /// The counting pass over all of `db`, split into `num_threads`
    /// peptide ranges: every entry and its sites, written into arrays of
    /// the exact lengths `tallies` (every peptide's) gives, and the
    /// ranges' counts summed.
    fn count_pass(
        &self,
        db: &PeptideDb,
        tallies: &[ModformTally],
        num_threads: usize,
        packing: Packing,
        slabs: Slabs,
    ) -> Pass1 {
        let total = sum_tallies(tallies);
        assert!(
            total.sites <= u32::MAX as usize,
            "index partition exceeds u32 mod-site offsets; partition the input"
        );
        let mut entries = vec![
            SpectrumEntry {
                peptide: 0,
                modform: 0,
                num_fragments: 0,
                precursor_mass: 0.0,
            };
            total.forms
        ];
        let mut site_starts = vec![0u32; total.forms + 1];
        site_starts[total.forms] = total.sites as u32;
        let mut sites = vec![(0u16, 0u8); total.sites];

        // Hand each range its share of the three arrays.
        let mut outs = Vec::new();
        let (mut entries_left, mut starts_left, mut sites_left) = (
            &mut entries[..],
            &mut site_starts[..total.forms],
            &mut sites[..],
        );
        let mut site_base = 0u32;
        for (lo, hi) in split_ranges_weighted(db, tallies, num_threads) {
            let own = sum_tallies(&tallies[lo as usize..hi as usize]);
            let (own_entries, rest) = std::mem::take(&mut entries_left).split_at_mut(own.forms);
            entries_left = rest;
            let (own_starts, rest) = std::mem::take(&mut starts_left).split_at_mut(own.forms);
            starts_left = rest;
            let (own_sites, rest) = std::mem::take(&mut sites_left).split_at_mut(own.sites);
            sites_left = rest;
            outs.push(RangeOut {
                peptides: lo..hi,
                entries: own_entries,
                site_starts: own_starts,
                sites: own_sites,
                site_base,
            });
            site_base += own.sites as u32;
        }

        let counted = run_tasks(outs, |out| self.count_range(db, out, packing, slabs));
        let mut counted = counted.into_iter();
        let mut counts = counted.next().expect("at least one range");
        for range in counted {
            counts.add(range);
        }
        Pass1 {
            entries,
            site_starts,
            sites,
            counts,
        }
    }

    /// The counting pass over one peptide range: fills `out` and returns
    /// the range's counts.
    fn count_range(
        &self,
        db: &PeptideDb,
        out: RangeOut<'_>,
        packing: Packing,
        slabs: Slabs,
    ) -> Counts {
        let (config, modspec) = (&self.config, &self.modspec);
        let buckets = packing.buckets(config.num_bins());
        let mut histogram = vec![0u32; slabs.count() * buckets];
        let mut bitmap = vec![0u64; bindir::bitmap_words(config.num_bins())];
        let mut dropped = 0usize;
        let mut entries = out.entries.iter_mut().zip(out.site_starts.iter_mut());
        let mut next_site = 0usize;
        // Scratch of the two generators, reused across the range.
        let (mut site_buf, mut prefix) = (Vec::new(), Vec::new());
        for pid in out.peptides {
            let seq = db.get(pid).sequence();
            let mut modform = 0usize;
            for_each_modform(seq, modspec, &mut site_buf, |sites, _| {
                let (entry, site_start) = entries
                    .next()
                    .expect("modform tally disagrees with the walk");
                *site_start = out.site_base + next_site as u32;
                out.sites[next_site..next_site + sites.len()].copy_from_slice(sites);
                next_site += sites.len();
                let mass = prefix_masses(seq, sites, modspec, &mut prefix) as f32;
                let row = &mut histogram[slabs.of(mass) * buckets..][..buckets];
                let mut kept = 0u16;
                emit_fragments(&prefix, &config.theo, |mz| match config.bin_of(mz) {
                    Some(bin) => {
                        row[packing.bucket(bin)] += 1;
                        bitmap[(bin >> 6) as usize] |= 1 << (bin & 63);
                        kept += 1;
                    }
                    None => dropped += 1,
                });
                *entry = SpectrumEntry {
                    peptide: pid,
                    modform: modform as u16,
                    num_fragments: kept,
                    precursor_mass: mass,
                };
                modform += 1;
            });
        }
        assert!(
            entries.next().is_none() && next_site == out.sites.len(),
            "modform tally disagrees with the walk"
        );
        Counts {
            histogram,
            bitmap,
            dropped,
        }
    }
}

/// The coarse pass's pieces: runs of whole slabs, at most `num_threads`,
/// balanced by ions. Each comes with its new ids — the run of `entries`
/// (mass-sorted) whose masses fall in its slabs — and its ions per bucket,
/// its slabs' rows of `histogram` summed.
fn cut_pieces(
    entries: &[SpectrumEntry],
    histogram: &[u32],
    slabs: Slabs,
    buckets: usize,
    num_threads: usize,
) -> Vec<(Range<usize>, Vec<u32>)> {
    let rows =
        |run: Range<usize>| histogram[run.start * buckets..run.end * buckets].chunks_exact(buckets);
    let slab_ions = |slab: usize| rows(slab..slab + 1).flatten().map(|&n| u64::from(n)).sum();
    let first_id = |slab: usize| entries.partition_point(|e| slabs.of(e.precursor_mass) < slab);
    split_balanced(slabs.count(), num_threads, slab_ions)
        .into_iter()
        .map(|(lo, hi)| {
            let mut counts = vec![0u32; buckets];
            for row in rows(lo..hi) {
                for (count, &n) in counts.iter_mut().zip(row) {
                    *count += n;
                }
            }
            (first_id(lo)..first_id(hi), counts)
        })
        .collect()
}

/// The modforms and sites of `tallies` together.
fn sum_tallies(tallies: &[ModformTally]) -> ModformTally {
    tallies
        .iter()
        .fold(ModformTally { forms: 0, sites: 0 }, |acc, t| ModformTally {
            forms: acc.forms.saturating_add(t.forms),
            sites: acc.sites.saturating_add(t.sites),
        })
}

/// The fine pass: counting-sorts every bucket's region of `postings` by
/// bin, unpacking the ids, and returns the directory's `starts`, one per
/// bit of `bitmap` (the occupied bins, which the counting pass marked)
/// and an end. Groups of whole buckets are separate tasks; each group
/// starts on a bitmap-word boundary, so its bins' starts are one slice of
/// the array, sized off its words before it runs.
fn fine_pass(
    postings: &mut [u32],
    bucket_starts: &[u32],
    bitmap: &[u64],
    packing: Packing,
    num_threads: usize,
) -> Vec<u32> {
    let buckets = bucket_starts.len() - 1;
    // A group is cut every `unit` buckets: one bitmap word's worth when a
    // bucket is narrower than a word.
    let unit = 1usize << 6u32.saturating_sub(packing.width);
    let cut = |u: usize| (u * unit).min(buckets);
    let groups = split_balanced(buckets.div_ceil(unit), num_threads, |u| {
        u64::from(bucket_starts[cut(u + 1)] - bucket_starts[cut(u)])
    });

    let occupied = |words: &[u64]| -> usize { words.iter().map(|w| w.count_ones() as usize).sum() };
    let mut starts = vec![0u32; occupied(bitmap) + 1];
    starts[occupied(bitmap)] = bucket_starts[buckets];
    // Every group but the last ends on a word boundary; the last owns
    // every word left.
    let first_word = |bucket: usize| {
        if bucket == buckets {
            bitmap.len()
        } else {
            (bucket << packing.width) >> 6
        }
    };
    let mut tasks = Vec::with_capacity(groups.len());
    let (mut postings_left, mut starts_left) = (postings, &mut starts[..]);
    for &(lo, hi) in &groups {
        let group = cut(lo)..cut(hi);
        let len = (bucket_starts[group.end] - bucket_starts[group.start]) as usize;
        let (own, rest) = std::mem::take(&mut postings_left).split_at_mut(len);
        postings_left = rest;
        let words = &bitmap[first_word(group.start)..first_word(group.end)];
        let (own_starts, rest) = std::mem::take(&mut starts_left).split_at_mut(occupied(words));
        starts_left = rest;
        tasks.push((group, own, own_starts));
    }
    run_tasks(tasks, |(group, postings, starts)| {
        sort_buckets(group, postings, starts, bucket_starts, packing)
    });
    starts
}

/// Sorts the buckets `group` — whose regions are `postings` — by bin, and
/// writes the posting offset of each of their occupied bins, in bin order,
/// to `starts`, which has exactly one slot per occupied bin.
fn sort_buckets(
    group: Range<usize>,
    postings: &mut [u32],
    starts: &mut [u32],
    bucket_starts: &[u32],
    packing: Packing,
) {
    let base = bucket_starts[group.start];
    let largest = group
        .clone()
        .map(|b| bucket_starts[b + 1] - bucket_starts[b])
        .max();
    let mut copy = Vec::with_capacity(largest.unwrap_or(0) as usize);
    let mut cursors = vec![0u32; 1 << packing.width];
    let mut occupied = starts.iter_mut();
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
        // start.
        let mut next = 0u32;
        for cursor in &mut cursors {
            let count = *cursor;
            if count != 0 {
                let start = occupied
                    .next()
                    .expect("a bin the counting pass did not mark");
                *start = lo + next;
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
    assert!(
        occupied.next().is_none(),
        "a bin the counting pass marked holds no posting"
    );
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
fn split_ranges_weighted(
    db: &PeptideDb,
    tallies: &[ModformTally],
    parts: usize,
) -> Vec<(u32, u32)> {
    // Peptide ids are `u32` (`PeptideDb` enforces it).
    let peptides = db.peptides();
    split_balanced(peptides.len(), parts, |id| {
        tallies[id].forms as u64 * peptides[id].len().max(1) as u64
    })
    .into_iter()
    .map(|(lo, hi)| (lo as u32, hi as u32))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbe_bio::mods::count_modforms;
    use lbe_bio::peptide::Peptide;

    fn db(seqs: &[&str]) -> PeptideDb {
        PeptideDb::from_vec(
            seqs.iter()
                .map(|s| Peptide::new(s.as_bytes(), 0, 0).unwrap())
                .collect(),
        )
    }

    /// Every peptide's modform tally, as the build computes it.
    fn modforms(d: &PeptideDb, spec: &ModSpec) -> Vec<ModformTally> {
        d.peptides()
            .iter()
            .map(|p| tally_modforms(p.sequence(), spec))
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
        let index = SlmIndex::from_parts(config.clone(), entries, dir, postings)
            .with_peptides(PeptideTable::new(db, spec));
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

    /// The sort key orders masses as `f32::total_cmp` does — signed zeros,
    /// negatives, infinities and NaNs included — and every slab count's
    /// `Slabs::of` never decreases along that order.
    #[test]
    fn mass_keys_and_slabs_follow_the_sort_order() {
        let mut masses = vec![
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            -1.5,
            -1000.0,
            f32::MIN_POSITIVE,
            1.0,
            31.99,
            32.0,
            147.07,
            1024.0,
            1024.001,
            2500.25,
            16383.9,
            16384.0,
            1e9,
            f32::MAX,
        ];
        masses.sort_by(f32::total_cmp);
        for w in masses.windows(2) {
            assert!(mass_key(w[0]) < mass_key(w[1]), "{} {}", w[0], w[1]);
        }
        for threads in [1, 2, 8] {
            for buckets in [1, 125, 4097] {
                let slabs = Slabs::new(threads, buckets);
                assert!(slabs.count() == 1 || slabs.count() * buckets <= HISTOGRAM_BUDGET);
                let of: Vec<usize> = masses.iter().map(|&m| slabs.of(m)).collect();
                assert!(of.windows(2).all(|w| w[0] <= w[1]), "{of:?}");
                assert!(of.iter().all(|&s| s < slabs.count()));
            }
        }
        assert_eq!(Slabs::new(1, 125).count(), 1);
        assert_eq!(Slabs::new(2, 125).count(), 289);
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

    /// The counting pass allocates exactly and counts what the build
    /// places. Its entries number Σ `count_modforms` — also under a modform
    /// cap below 2, where the walk still yields two forms — and its sites Σ
    /// `tally_modforms`' sites, each array at capacity = length. Sorted by
    /// mass, its entries are the index's; their kept fragments, and the
    /// slab histograms' total, are the index's ions; kept + dropped is
    /// every fragment generated, and only the 300 Da axis drops any. The
    /// same holds on three counting tasks.
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
            let packing = Packing {
                width: MAX_PACKED_WIDTH,
            };
            let buckets = packing.buckets(config.num_bins());
            for spec in &specs {
                let forms: usize = d
                    .peptides()
                    .iter()
                    .map(|p| count_modforms(p.sequence(), spec))
                    .sum();
                let tallies = modforms(&d, spec);
                let mut b = IndexBuilder::new(config.clone(), spec.clone());
                let index = b.build(&d);
                assert_eq!(forms, index.num_spectra(), "{spec:?}");
                let generated: usize = d
                    .peptides()
                    .iter()
                    .zip(&tallies)
                    .map(|(p, t)| t.forms * b.fragments_per_form(p.len()))
                    .sum();
                for threads in [1, 3] {
                    let slabs = Slabs::new(threads, buckets);
                    let pass1 = b.count_pass(&d, &tallies, threads, packing, slabs);
                    let sites = sum_tallies(&tallies).sites;
                    assert_eq!(pass1.entries.len(), forms);
                    assert_eq!(pass1.entries.capacity(), forms);
                    assert_eq!(pass1.site_starts.len(), forms + 1);
                    assert_eq!(pass1.site_starts.capacity(), forms + 1);
                    assert_eq!(pass1.sites.len(), sites);
                    assert_eq!(pass1.sites.capacity(), sites);
                    assert!(pass1.site_starts.windows(2).all(|w| w[0] <= w[1]));
                    assert_eq!(pass1.site_starts[forms] as usize, sites);
                    let mut sorted = pass1.entries.clone();
                    sorted.sort_by(|x, y| x.precursor_mass.total_cmp(&y.precursor_mass));
                    assert_eq!(&sorted[..], index.entries(), "{threads} threads");
                    let kept: usize = pass1
                        .entries
                        .iter()
                        .map(|e| usize::from(e.num_fragments))
                        .sum();
                    let counted: u64 = pass1.counts.histogram.iter().map(|&n| u64::from(n)).sum();
                    assert_eq!(kept, index.num_ions());
                    assert_eq!(counted as usize, kept);
                    assert_eq!(kept + pass1.counts.dropped, generated);
                    assert_eq!(pass1.counts.dropped > 0, drops, "{max_fragment_mz} Da");
                }
            }
        }
        // Under a cap below 2 the walk yields two forms of a peptide with
        // a modifiable site, and the count says two.
        let forms = modforms(&db(&["MK"]), &capped(1));
        assert_eq!(forms, vec![ModformTally { forms: 2, sites: 1 }]);
    }

    /// The coarse pass's cuts fall between slabs, so the database is built
    /// to put cuts between close masses: anagram families (equal
    /// precursor masses, peptide-major modform-minor order to keep) spread
    /// over adjacent slabs, so at 8 threads at least one piece ends in one
    /// slab and the next piece starts in the slab after it. On the 300 Da
    /// axis some of their fragments are dropped. Every build at 1–8
    /// threads writes the bytes `build` writes.
    #[test]
    fn piece_cuts_between_equal_mass_anagrams_keep_the_bytes() {
        let bases = [
            "PEPTIDEK",
            "ELVISLIVESK",
            "SAMPLERK",
            "GGAASSYYK",
            "WWYYFFHHK",
            "MNKQMGGR",
            "ACDEFGHIK",
            "LLNQTSR",
            "VVAMPNGK",
            "DDEEQRK",
            "HHMMWWCK",
            "TTSSGGAAR",
        ];
        let mut seqs = Vec::new();
        for base in bases {
            let b = base.as_bytes();
            let rotated = [&b[1..], &b[..1]].concat();
            let reversed: Vec<u8> = b.iter().rev().copied().collect();
            for s in [b.to_vec(), rotated, reversed, b.to_vec()] {
                seqs.push(String::from_utf8(s).unwrap());
            }
        }
        let refs: Vec<&str> = seqs.iter().map(String::as_str).collect();
        let d = db(&refs);
        let config = SlmConfig {
            max_fragment_mz: 300.0,
            ..SlmConfig::default()
        };
        let bytes = |index: &SlmIndex| {
            let mut out = Vec::new();
            crate::io::write_index(&mut out, index).unwrap();
            out
        };
        for spec in [ModSpec::none(), ModSpec::paper_default()] {
            let mut b = IndexBuilder::new(config.clone(), spec.clone());
            let reference = b.build(&d);
            let ref_stats = b.stats();
            assert!(ref_stats.dropped_fragments > 0);
            let want = bytes(&reference);
            // Premise: each family's members share one f32 mass.
            let mass_of = |pid: u32| {
                let e = reference.entries().iter().find(|e| e.peptide == pid);
                e.unwrap().precursor_mass
            };
            for family in 0..bases.len() as u32 {
                let masses: Vec<f32> = (0..4).map(|i| mass_of(4 * family + i)).collect();
                assert!(
                    masses.iter().all(|&m| m == masses[0]),
                    "{:?}",
                    &refs[4 * family as usize]
                );
            }
            // Premise: at 8 threads a cut separates adjacent slabs.
            let packing = Packing::for_entries(reference.num_spectra(), MAX_PACKED_WIDTH);
            let buckets = packing.buckets(config.num_bins());
            let slabs = Slabs::new(8, buckets);
            let pass1 = b.count_pass(&d, &modforms(&d, &spec), 8, packing, slabs);
            let pieces = cut_pieces(
                reference.entries(),
                &pass1.counts.histogram,
                slabs,
                buckets,
                8,
            );
            let entries = reference.entries();
            let slab = |id: usize| slabs.of(entries[id].precursor_mass);
            let adjacent_cut = pieces.windows(2).any(|w| {
                let (before, after) = (&w[0].0, &w[1].0);
                !before.is_empty()
                    && !after.is_empty()
                    && slab(after.start) == slab(before.end - 1) + 1
            });
            assert!(adjacent_cut, "{spec:?}: no cut between adjacent slabs");
            for threads in 1..=8 {
                let mut b = IndexBuilder::new(config.clone(), spec.clone());
                let index = b.build_parallel(&d, threads);
                assert!(bytes(&index) == want, "{spec:?}, {threads} threads");
                assert_eq!(b.stats(), ref_stats, "{spec:?}, {threads} threads");
            }
        }
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
