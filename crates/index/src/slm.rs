//! The SLM-style ion index structure: CSR postings over quantized fragment
//! bins, addressed through a sparse bin directory.
//!
//! Layout (all flat arrays, mirroring SLM-Transform's memory frugality):
//!
//! ```text
//! entries:     SpectrumEntry[num_spectra]  // one per indexed theoretical spectrum
//! bin_bitmap:  u64[num_bins / 64 + 1]      // bit b set ⇔ bin b holds postings
//! bin_rank:    u32[num_bins / 64 + 1]      // occupied bins before each word
//!                                          // (derived at load, never stored)
//! bin_starts:  u32[occupied_bins + 1]      // posting offset per occupied bin
//! postings:    u32[total_ions]             // entry ids, grouped by bin
//! ```
//!
//! The three `bin_*` arrays are the sparse bin directory (`bindir.rs`): a bin's
//! posting run is a bit test, a popcount and two adjacent `bin_starts`
//! loads, and empty bins — most of the axis — take no space and no loads.
//!
//! "Index size" in the paper's figures is `entries.len()` ("Million peptides
//! & spectra") and the ion count is `postings.len()`. The paper's C++ arrays
//! are `int`-indexed, capping a node at 2³¹ ions ("2 billion ions (8GB)");
//! `bin_starts` is `u32`, so a partition here holds at most 2³² − 1 ions —
//! the builder and the loaders enforce it, and LBE partitioning is what
//! keeps real partitions far below it.

use crate::bindir::{self, vector_tiered, BinDirectory};
use crate::config::SlmConfig;
use crate::format::AlignedBuf;
use lbe_bio::mods::{ModSpec, VariableMod};
use lbe_bio::peptide::PeptideDb;
use std::sync::Arc;

/// The admitted sub-run `[start, end)` of one bin's posting list for the
/// entry-id band `[entry_lo, entry_hi)` — the **fragment-bin-level band**.
///
/// Posting lists ascend by entry id, and entry ids ascend by precursor
/// mass, so before paying two binary searches the band is tested against
/// the bin's *endpoints* in O(1):
///
/// * `last < entry_lo` or `first >= entry_hi` — the whole bin lies outside
///   the precursor envelope `[ΔM_lo, ΔM_hi]` and is **pruned**;
/// * `first >= entry_lo && last < entry_hi` — the whole bin lies inside and
///   is **accepted** unsearched (the common case for wide-open bands,
///   where PR 5's per-bin binary searches were pure overhead);
/// * otherwise the band cuts the bin and the two `partition_point`s
///   resolve the exact run.
///
/// Returns `(start, end, by_endpoints)`; `by_endpoints` is `true` when the
/// O(1) test decided (callers use it to count pruned bins). An empty bin
/// reports `(0, 0, true)`.
#[inline]
pub(crate) fn admitted_run(postings: &[u32], entry_lo: u32, entry_hi: u32) -> (usize, usize, bool) {
    let (Some(&first), Some(&last)) = (postings.first(), postings.last()) else {
        return (0, 0, true);
    };
    if last < entry_lo || first >= entry_hi {
        return (0, 0, true);
    }
    if first >= entry_lo && last < entry_hi {
        return (0, postings.len(), true);
    }
    let start = postings.partition_point(|&e| e < entry_lo);
    let end = postings.partition_point(|&e| e < entry_hi);
    (start, end, false)
}

/// One indexed theoretical spectrum: a (peptide, modform) pair.
///
/// `#[repr(C)]`, 12 bytes, no padding — this exact layout (little-endian)
/// is also the on-disk record of the `entries` section, which is what
/// lets a v2 arena hand out the entry table as a zero-copy slice.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C)]
pub struct SpectrumEntry {
    /// Peptide id in the *local* peptide table of the index partition.
    /// The LBE mapping table translates local → global ids on the master.
    pub peptide: u32,
    /// Ordinal of the modform within the peptide's enumeration (0 = unmodified).
    pub modform: u16,
    /// Number of theoretical fragments this spectrum contributed.
    pub num_fragments: u16,
    /// Neutral precursor mass (f32 keeps the entry at 12 bytes; 0.5 ppm
    /// rounding at 5 kDa is far below any precursor tolerance in use).
    pub precursor_mass: f32,
}

// The on-disk format depends on this layout; a field change must bump the
// format version.
const _: () = assert!(std::mem::size_of::<SpectrumEntry>() == 12);
const _: () = assert!(std::mem::align_of::<SpectrumEntry>() == 4);

// SAFETY: `SpectrumEntry` is `#[repr(C)]` with no padding (asserted above),
// every field accepts any bit pattern, and its alignment (4) divides the
// arena alignment.
unsafe impl crate::format::Pod for SpectrumEntry {}

/// A typed slice location inside an arena: byte offset + element count.
#[derive(Debug, Clone, Copy)]
struct ArenaSlice {
    byte_off: usize,
    len: usize,
}

impl ArenaSlice {
    /// Materializes the slice. The constructor validated bounds and
    /// alignment against the arena, so this is a pointer cast.
    #[inline]
    fn get<T: crate::format::Pod>(&self, arena: &AlignedBuf) -> &[T] {
        debug_assert!(self.byte_off + self.len * std::mem::size_of::<T>() <= arena.len());
        debug_assert_eq!(
            arena.as_slice()[self.byte_off..].as_ptr() as usize % std::mem::align_of::<T>(),
            0
        );
        // SAFETY: bounds and alignment were checked with
        // `format::view_checked` when the storage was constructed, and `T:
        // Pod` accepts any bit pattern.
        unsafe {
            std::slice::from_raw_parts(
                arena.as_slice().as_ptr().add(self.byte_off) as *const T,
                self.len,
            )
        }
    }
}

/// Where the index's flat arrays live.
///
/// Freshly built indexes own their `Vec`s; indexes deserialized from a v2
/// container are *views into one aligned arena* loaded with a single
/// sequential read (O(sections) parsing instead of O(elements)) — the
/// refactor that makes load time track disk bandwidth.
#[derive(Debug, Clone)]
enum IndexStorage {
    /// Heap-owned arrays (built in memory, or deserialized on a
    /// big-endian host where zero-copy views of little-endian data are
    /// impossible).
    Owned {
        entries: Vec<SpectrumEntry>,
        bin_bitmap: Vec<u64>,
        bin_starts: Vec<u32>,
        postings: Vec<u32>,
    },
    /// Zero-copy views into a shared arena (one buffer per container).
    Arena {
        arena: Arc<AlignedBuf>,
        entries: ArenaSlice,
        bin_bitmap: ArenaSlice,
        bin_starts: ArenaSlice,
        postings: ArenaSlice,
    },
}

/// The peptides an index was built from: every peptide's residues as one
/// CSR, and the mod spec its modforms were enumerated under. With them a
/// search can regenerate any entry's fragments by the builder's own
/// arithmetic instead of reading its postings ([`crate::query`]'s direct
/// arm). [`crate::builder::IndexBuilder`] attaches it; nothing writes it,
/// so an index read from a file or a store chunk has none.
#[derive(Debug, Clone)]
pub(crate) struct PeptideTable {
    /// Every peptide's residues, in peptide-id order.
    residues: Vec<u8>,
    /// Peptide `p`'s residues are `residues[starts[p]..starts[p + 1]]`.
    starts: Vec<u32>,
    modspec: ModSpec,
}

impl PeptideTable {
    /// The table of `db` (local peptide ids) under `modspec`, allocated
    /// exactly.
    pub(crate) fn new(db: &PeptideDb, modspec: &ModSpec) -> Self {
        let total: usize = db.peptides().iter().map(|p| p.len()).sum();
        assert!(
            total <= u32::MAX as usize,
            "index partition exceeds u32 residue offsets; partition the input"
        );
        let mut residues = Vec::with_capacity(total);
        let mut starts = Vec::with_capacity(db.len() + 1);
        starts.push(0);
        for peptide in db.peptides() {
            residues.extend_from_slice(peptide.sequence());
            starts.push(residues.len() as u32);
        }
        PeptideTable {
            residues,
            starts,
            modspec: modspec.clone(),
        }
    }

    /// The residues of local peptide `peptide`.
    #[inline]
    pub(crate) fn sequence(&self, peptide: u32) -> &[u8] {
        let p = peptide as usize;
        &self.residues[self.starts[p] as usize..self.starts[p + 1] as usize]
    }

    /// The mod spec the index's modform ordinals count under.
    #[inline]
    pub(crate) fn modspec(&self) -> &ModSpec {
        &self.modspec
    }

    /// Heap bytes: the two arrays and the mod spec's rules.
    pub(crate) fn heap_bytes(&self) -> usize {
        let mods = &self.modspec.mods;
        self.residues.capacity()
            + self.starts.capacity() * std::mem::size_of::<u32>()
            + mods.capacity() * std::mem::size_of::<VariableMod>()
            + mods.iter().map(|m| m.targets.capacity()).sum::<usize>()
    }
}

/// The fragment-ion index over a set of theoretical spectra. Entry ids
/// ascend by precursor mass — the invariant the banded query kernel needs
/// to binary-search each bin's posting list down to a precursor window.
/// The builder produces it and [`SlmIndex::validate_cheap`] checks it on
/// every load.
#[derive(Debug, Clone)]
pub struct SlmIndex {
    config: SlmConfig,
    storage: IndexStorage,
    /// Per-word running popcount of the bin bitmap ([`bindir::ranks`]) —
    /// always owned: it is derived from the bitmap at construction, for
    /// arena-backed indexes too.
    bin_rank: Vec<u32>,
    /// The peptides the index was built from, when it was built in this
    /// process.
    peptides: Option<PeptideTable>,
    /// `config.tolerance_bins()` and the axis's last bin, taken once: every
    /// peak of every query asks for both ([`SlmIndex::bins_for_mz`]), and
    /// each is an `f64` divide and a libm rounding call.
    tolerance_bins: u32,
    last_bin: u32,
}

impl PartialEq for SlmIndex {
    /// Logical equality: same configuration and same flat arrays,
    /// regardless of whether they are owned or arena-backed, and whether
    /// or not a peptide table is attached (it changes no answer).
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (self.bin_directory(), other.bin_directory());
        self.config == other.config
            && self.entries() == other.entries()
            && a.bitmap == b.bitmap
            && a.starts == b.starts
            && self.postings() == other.postings()
    }
}

impl SlmIndex {
    /// Assembles an index from parts (used by [`crate::builder`]); `dir`
    /// is the stored half of the bin directory, `(bitmap, starts)`, both
    /// allocated exactly.
    pub(crate) fn from_parts(
        config: SlmConfig,
        entries: Vec<SpectrumEntry>,
        dir: (Vec<u64>, Vec<u32>),
        postings: Vec<u32>,
    ) -> Self {
        let index = Self::from_owned_unchecked(config, entries, dir, postings);
        debug_assert_eq!(index.validate_cheap(), Ok(()));
        index
    }

    /// Assembles an owned-storage index from possibly-inconsistent parts
    /// (used by [`crate::io`]'s big-endian deserializer, which validates
    /// *after* construction so corrupt files surface as clean errors rather
    /// than debug-assert panics).
    pub(crate) fn from_owned_unchecked(
        config: SlmConfig,
        entries: Vec<SpectrumEntry>,
        (bin_bitmap, bin_starts): (Vec<u64>, Vec<u32>),
        postings: Vec<u32>,
    ) -> Self {
        SlmIndex {
            tolerance_bins: config.tolerance_bins(),
            last_bin: last_bin(&config),
            config,
            bin_rank: bindir::ranks(&bin_bitmap),
            peptides: None,
            storage: IndexStorage::Owned {
                entries,
                bin_bitmap,
                bin_starts,
                postings,
            },
        }
    }

    /// Assembles an arena-backed index whose arrays are views into `arena`
    /// (used by [`crate::io`]'s reader). Each `(byte_off, len)` pair must
    /// have been validated in-bounds and aligned via
    /// [`crate::format::view_checked`].
    pub(crate) fn from_arena(
        config: SlmConfig,
        arena: Arc<AlignedBuf>,
        entries: (usize, usize),
        bin_bitmap: (usize, usize),
        bin_starts: (usize, usize),
        postings: (usize, usize),
    ) -> Self {
        let slice = |(byte_off, len): (usize, usize)| ArenaSlice { byte_off, len };
        let bin_bitmap = slice(bin_bitmap);
        SlmIndex {
            tolerance_bins: config.tolerance_bins(),
            last_bin: last_bin(&config),
            config,
            bin_rank: bindir::ranks(bin_bitmap.get(&arena)),
            peptides: None,
            storage: IndexStorage::Arena {
                arena,
                entries: slice(entries),
                bin_bitmap,
                bin_starts: slice(bin_starts),
                postings: slice(postings),
            },
        }
    }

    /// This index with `table` attached (the builder's last step).
    pub(crate) fn with_peptides(mut self, table: PeptideTable) -> Self {
        self.peptides = Some(table);
        self
    }

    /// This index with no peptide table: what a file holding the same
    /// index reads back as, for tests that need the posting walk.
    #[cfg(test)]
    pub(crate) fn without_peptides(mut self) -> Self {
        self.peptides = None;
        self
    }

    /// The peptide table, if the index was built in this process.
    #[inline]
    pub(crate) fn peptides(&self) -> Option<&PeptideTable> {
        self.peptides.as_ref()
    }

    /// Heap bytes of the attached peptide table (0 without one): the part
    /// of [`SlmIndex::heap_bytes`] that is not an index structure.
    pub(crate) fn peptide_table_bytes(&self) -> usize {
        self.peptides.as_ref().map_or(0, PeptideTable::heap_bytes)
    }

    /// `true` if this index's arrays are zero-copy views into a loaded
    /// arena (deserialized from a v2 container) rather than owned `Vec`s.
    pub fn is_arena_backed(&self) -> bool {
        matches!(self.storage, IndexStorage::Arena { .. })
    }

    /// The arena this index views, if nothing else holds it — a chunk
    /// store recycles an evicted chunk's buffer this way.
    pub(crate) fn into_unshared_arena(self) -> Option<AlignedBuf> {
        match self.storage {
            IndexStorage::Arena { arena, .. } => Arc::try_unwrap(arena).ok(),
            IndexStorage::Owned { .. } => None,
        }
    }

    /// The arena this index views, for tests that check which buffer a
    /// chunk landed in and what that buffer holds.
    #[cfg(test)]
    pub(crate) fn arena(&self) -> Option<&AlignedBuf> {
        match &self.storage {
            IndexStorage::Arena { arena, .. } => Some(arena),
            IndexStorage::Owned { .. } => None,
        }
    }

    /// The configuration this index was built with.
    #[inline]
    pub fn config(&self) -> &SlmConfig {
        &self.config
    }

    /// Number of indexed theoretical spectra (the paper's "index size").
    #[inline]
    pub fn num_spectra(&self) -> usize {
        self.entries().len()
    }

    /// Number of indexed ions (postings).
    #[inline]
    pub fn num_ions(&self) -> usize {
        self.postings().len()
    }

    /// `true` if the index holds nothing.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries().is_empty()
    }

    /// The entry table.
    #[inline]
    pub fn entries(&self) -> &[SpectrumEntry] {
        match &self.storage {
            IndexStorage::Owned { entries, .. } => entries,
            IndexStorage::Arena { arena, entries, .. } => entries.get(arena),
        }
    }

    /// The sparse bin directory (bin → posting run).
    #[inline]
    pub(crate) fn bin_directory(&self) -> BinDirectory<'_> {
        let (bitmap, starts) = match &self.storage {
            IndexStorage::Owned {
                bin_bitmap,
                bin_starts,
                ..
            } => (&bin_bitmap[..], &bin_starts[..]),
            IndexStorage::Arena {
                arena,
                bin_bitmap,
                bin_starts,
                ..
            } => (bin_bitmap.get(arena), bin_starts.get(arena)),
        };
        BinDirectory {
            bitmap,
            rank: &self.bin_rank,
            starts,
        }
    }

    /// Bytes the bin directory holds in memory: bitmap, running popcount
    /// and one `u32` per occupied bin (+ sentinel) — the per-partition
    /// cost of Fig. 5, which grows with occupancy up to a ceiling of about
    /// 4.2 bytes per bin.
    pub(crate) fn bin_directory_bytes(&self) -> usize {
        let dir = self.bin_directory();
        std::mem::size_of_val(dir.bitmap)
            + std::mem::size_of_val(dir.rank)
            + std::mem::size_of_val(dir.starts)
    }

    /// The flat posting array.
    #[inline]
    pub(crate) fn postings(&self) -> &[u32] {
        match &self.storage {
            IndexStorage::Owned { postings, .. } => postings,
            IndexStorage::Arena {
                arena, postings, ..
            } => postings.get(arena),
        }
    }

    /// Entry by id.
    #[inline]
    pub fn entry(&self, id: u32) -> &SpectrumEntry {
        &self.entries()[id as usize]
    }

    /// The posting list (entry ids) of one ion bin.
    #[inline]
    pub fn bin_postings(&self, bin: u32) -> &[u32] {
        &self.postings()[self.bin_directory().run(bin)]
    }

    /// The inclusive bin window `[lo, hi]` covering the fragment-tolerance
    /// neighborhood of `mz`, or `None` when `mz` falls outside the indexed
    /// range.
    #[inline]
    pub(crate) fn bins_for_mz(&self, mz: f64) -> Option<(u32, u32)> {
        let center = self.config.bin_of(mz)?;
        let lo = center.saturating_sub(self.tolerance_bins);
        let hi = (center + self.tolerance_bins).min(self.last_bin);
        Some((lo, hi))
    }

    /// All postings within the fragment-tolerance window of `mz`.
    /// Returns `(bins_touched, iterator)` work via a callback to avoid
    /// allocation on the hot path.
    #[inline]
    pub fn for_postings_near<F: FnMut(u32)>(&self, mz: f64, mut f: F) -> u32 {
        let Some((lo, hi)) = self.bins_for_mz(mz) else {
            return 0;
        };
        // The window's occupied bins are adjacent in the posting array.
        let runs = self.bin_directory().window(lo, hi);
        for &entry in &self.postings()[runs[0] as usize..runs[runs.len() - 1] as usize] {
            f(entry);
        }
        hi - lo + 1
    }

    /// The contiguous entry-id range `[lo, hi)` whose precursor masses fall
    /// in `[lo_mass, hi_mass]` (closed interval, matching
    /// [`SlmConfig::precursor_admits`]). Entry ids ascend by mass, so two
    /// binary searches over the entry table bound the whole admitted band.
    #[inline]
    pub fn entry_range_for_mass_band(&self, lo_mass: f64, hi_mass: f64) -> (u32, u32) {
        let entries = self.entries();
        let lo = entries.partition_point(|e| (e.precursor_mass as f64) < lo_mass) as u32;
        let hi = entries.partition_point(|e| (e.precursor_mass as f64) <= hi_mass) as u32;
        (lo, hi.max(lo))
    }

    /// Like [`SlmIndex::for_postings_near`], but restricted to postings
    /// whose entry id lies in `[entry_lo, entry_hi)` — the precursor-band
    /// fast path. Each bin's admitted run is resolved by `admitted_run`:
    /// O(1) endpoint prune/accept first, two binary searches only when the
    /// band cuts the bin. Out-of-band postings are counted but never
    /// touched. Returns `(bins_touched, postings_skipped)`; the callback
    /// itself sees only in-band postings.
    #[inline]
    pub fn for_postings_near_in_entry_band<F: FnMut(u32)>(
        &self,
        mz: f64,
        entry_lo: u32,
        entry_hi: u32,
        mut f: F,
    ) -> (u32, u64) {
        let Some((lo, hi)) = self.bins_for_mz(mz) else {
            return (0, 0);
        };
        let mut skipped = 0u64;
        let all = self.postings();
        for run in self.bin_directory().window(lo, hi).windows(2) {
            let postings = &all[run[0] as usize..run[1] as usize];
            let (start, end, _) = admitted_run(postings, entry_lo, entry_hi);
            for &entry in &postings[start..end] {
                f(entry);
            }
            skipped += (postings.len() - (end - start)) as u64;
        }
        (hi - lo + 1, skipped)
    }

    /// Exact heap bytes the index holds: its structures (entry table, bin
    /// directory, postings — Fig. 5's y-axis, which
    /// [`crate::MemoryFootprint`] reports alone) plus the peptide table
    /// that an index built in this process carries for the direct arm of
    /// [`crate::query`] (≈ 0.4 % more on a 9 M-ion build).
    ///
    /// For an arena-backed index the structures count the bytes their
    /// views span (not the whole arena — chunks of a shared arena would
    /// otherwise be multi-counted when summed) plus the owned running
    /// popcount.
    pub fn heap_bytes(&self) -> usize {
        // The directory's vectors and the peptide table are allocated
        // exactly (capacity = length).
        let directory_and_table = self.bin_directory_bytes() + self.peptide_table_bytes();
        match &self.storage {
            IndexStorage::Owned {
                entries, postings, ..
            } => {
                entries.capacity() * std::mem::size_of::<SpectrumEntry>()
                    + postings.capacity() * std::mem::size_of::<u32>()
                    + directory_and_table
            }
            IndexStorage::Arena {
                entries, postings, ..
            } => {
                entries.len * std::mem::size_of::<SpectrumEntry>()
                    + postings.len * std::mem::size_of::<u32>()
                    + directory_and_table
            }
        }
    }

    /// Full consistency check: the cheap structural invariants of
    /// [`SlmIndex::validate_cheap`] plus the O(ions) scan — postings
    /// reference valid entries and per-entry fragment counts sum to the
    /// posting count.
    pub fn validate(&self) -> Result<(), String> {
        self.validate_cheap()?;
        if any_at_or_above(self.postings(), self.entries().len() as u32) {
            return Err("posting references nonexistent entry".into());
        }
        let total = fragment_total(self.entries());
        if total != self.postings().len() {
            return Err(format!(
                "entry fragment counts ({total}) != postings ({})",
                self.postings().len()
            ));
        }
        Ok(())
    }

    /// Cheap structural invariants — O(bins / 64 + occupied bins +
    /// entries), no posting scan: the bin directory is well-formed for the
    /// configured axis (`bindir::validate` — bitmap length and range, one
    /// strictly increasing offset per set bit, final offset equal to the
    /// posting count), so no lookup can leave its arrays, and entries
    /// ascend by precursor mass. Always run by the deserializers; the full
    /// [`SlmIndex::validate`] scan sits behind a read option.
    pub fn validate_cheap(&self) -> Result<(), String> {
        let dir = self.bin_directory();
        bindir::validate(
            self.config.num_bins(),
            dir.bitmap,
            dir.starts,
            self.postings().len(),
        )?;
        if self.entries().len() > u32::MAX as usize {
            return Err("more entries than u32 ids".into());
        }
        // An unsorted (or NaN-bearing) entry table would silently mis-band
        // queries; O(entries), far below the O(ions) full scan.
        if !mass_sorted(self.entries()) {
            return Err("index claims mass-sorted entries but they are not".into());
        }
        Ok(())
    }
}

/// The last bin of `config`'s axis.
fn last_bin(config: &SlmConfig) -> u32 {
    config.num_bins() as u32 - 1
}

// The linear scans of `validate` and `validate_cheap`, at the CPU's vector
// width (see `bindir`'s module docs). Each is a fold, not `any`/`all`:
// without the early exit the scan vectorises.

vector_tiered! {
    /// `true` if some id in `postings` is `n` or more.
    fn any_at_or_above / any_at_or_above_portable(postings: &[u32], n: u32) -> bool {
        postings.iter().fold(false, |bad, &e| bad | (e >= n))
    }
}

vector_tiered! {
    /// Σ `num_fragments` over `entries`.
    fn fragment_total / fragment_total_portable(entries: &[SpectrumEntry]) -> usize {
        entries.iter().map(|e| e.num_fragments as usize).sum()
    }
}

vector_tiered! {
    /// `true` if every precursor mass is `<=` the next (a NaN is not).
    fn mass_sorted / mass_sorted_portable(entries: &[SpectrumEntry]) -> bool {
        entries
            .iter()
            .zip(entries.iter().skip(1))
            .fold(true, |ok, (a, b)| ok & (a.precursor_mass <= b.precursor_mass))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IndexBuilder;
    use lbe_bio::mods::ModSpec;
    use lbe_bio::peptide::{Peptide, PeptideDb};

    fn small_index() -> SlmIndex {
        let db = PeptideDb::from_vec(vec![
            Peptide::new(b"ELVISLIVESK", 0, 0).unwrap(),
            Peptide::new(b"PEPTIDEK", 0, 0).unwrap(),
        ]);
        IndexBuilder::new(SlmConfig::default(), ModSpec::none()).build(&db)
    }

    #[test]
    fn index_counts() {
        let idx = small_index();
        assert_eq!(idx.num_spectra(), 2);
        // b/y singly charged: (11-1)*2 + (8-1)*2 = 34 ions
        assert_eq!(idx.num_ions(), 34);
        assert!(!idx.is_empty());
    }

    #[test]
    fn the_vector_tier_of_the_scans_equals_the_portable_build() {
        if crate::bindir::tests::vector_tier_untestable() {
            return;
        }
        let mut next = crate::bindir::tests::xorshift(0x0DDB_1A5E_5BAD_5EED);
        for len in [0usize, 1, 2, 7, 8, 9, 31, 32, 33, 1000, 4097] {
            let n = (len as u32).max(1);
            let mut postings: Vec<u32> = (0..len).map(|_| next() as u32 % n).collect();
            assert_eq!(
                any_at_or_above(&postings, n),
                any_at_or_above_portable(&postings, n)
            );
            if len > 0 {
                // One stray id, at each end and in the middle.
                for at in [0, len / 2, len - 1] {
                    let keep = postings[at];
                    postings[at] = n + (next() as u32 % 3);
                    assert!(any_at_or_above(&postings, n));
                    assert!(any_at_or_above_portable(&postings, n));
                    postings[at] = keep;
                }
            }
            let mut mass = 500.0f32;
            let mut entries: Vec<SpectrumEntry> = (0..len)
                .map(|i| {
                    mass += (next() % 100) as f32 * 0.01;
                    SpectrumEntry {
                        peptide: i as u32,
                        modform: 0,
                        num_fragments: next() as u16,
                        precursor_mass: mass,
                    }
                })
                .collect();
            assert_eq!(fragment_total(&entries), fragment_total_portable(&entries));
            assert!(mass_sorted(&entries) && mass_sorted_portable(&entries));
            for at in [0, len / 2, len.saturating_sub(1)]
                .into_iter()
                .filter(|&a| a < len)
            {
                let keep = entries[at].precursor_mass;
                for bent in [f32::NAN, keep + 1e3, keep - 1e3, keep] {
                    entries[at].precursor_mass = bent;
                    assert_eq!(mass_sorted(&entries), mass_sorted_portable(&entries));
                }
                entries[at].precursor_mass = keep;
            }
        }
    }

    #[test]
    fn validates() {
        small_index().validate().unwrap();
    }

    #[test]
    fn postings_point_at_owning_entry() {
        let idx = small_index();
        // Entry ids are mass-ordered: PEPTIDEK (~899 Da) sorts before
        // ELVISLIVESK (~1213 Da). Every fragment of PEPTIDEK's entry must
        // be findable near its m/z.
        let eid = idx
            .entries()
            .iter()
            .position(|e| e.peptide == 1)
            .expect("PEPTIDEK indexed") as u32;
        assert_eq!(eid, 0, "lighter peptide gets the lower entry id");
        let theo = lbe_spectra::theo::TheoSpectrum::from_sequence(
            b"PEPTIDEK",
            &lbe_bio::mods::ModForm::unmodified(),
            &ModSpec::none(),
            &idx.config().theo,
        );
        for &mz in &theo.fragment_mzs {
            let mut found = false;
            idx.for_postings_near(mz, |e| found |= e == eid);
            assert!(found, "fragment {mz} of entry {eid} not indexed");
        }
    }

    #[test]
    fn bin_postings_out_of_range_is_empty() {
        let idx = small_index();
        assert!(idx.bin_postings(u32::MAX).is_empty());
    }

    #[test]
    fn for_postings_near_counts_bins() {
        let idx = small_index();
        let bins = idx.for_postings_near(500.0, |_| {});
        assert_eq!(bins, 2 * idx.config().tolerance_bins() + 1);
    }

    #[test]
    fn out_of_range_mz_touches_nothing() {
        let idx = small_index();
        let mut n = 0;
        let bins = idx.for_postings_near(-5.0, |_| n += 1);
        assert_eq!((bins, n), (0, 0));
    }

    #[test]
    fn heap_bytes_nonzero_and_scales() {
        let idx = small_index();
        assert!(idx.heap_bytes() > 0);
        let db = PeptideDb::from_vec(
            (0..50)
                .map(|i| {
                    let seq = format!("PEPTIDEK{}R", "A".repeat(i % 10 + 1));
                    Peptide::new(seq.as_bytes(), 0, 0).unwrap()
                })
                .collect(),
        );
        let big = IndexBuilder::new(SlmConfig::default(), ModSpec::none()).build(&db);
        assert!(big.heap_bytes() > idx.heap_bytes());
    }

    #[test]
    fn precursor_masses_recorded() {
        let idx = small_index();
        // Mass-ordered ids: entry 0 is the lighter PEPTIDEK, entry 1 the
        // heavier ELVISLIVESK.
        let m0 = lbe_bio::aa::peptide_neutral_mass(b"PEPTIDEK").unwrap();
        let m1 = lbe_bio::aa::peptide_neutral_mass(b"ELVISLIVESK").unwrap();
        assert!((idx.entry(0).precursor_mass as f64 - m0).abs() < 0.01);
        assert!((idx.entry(1).precursor_mass as f64 - m1).abs() < 0.01);
    }

    #[test]
    fn entry_range_for_mass_band_bounds_the_window() {
        let idx = small_index();
        let m = lbe_bio::aa::peptide_neutral_mass(b"PEPTIDEK").unwrap();
        // A ±1 Da band around PEPTIDEK admits exactly its entry.
        assert_eq!(idx.entry_range_for_mass_band(m - 1.0, m + 1.0), (0, 1));
        // A band over everything admits both.
        assert_eq!(idx.entry_range_for_mass_band(0.0, 1e6), (0, 2));
        // A band between the two masses admits nothing.
        let (lo, hi) = idx.entry_range_for_mass_band(m + 10.0, m + 11.0);
        assert_eq!(lo, hi);
    }

    #[test]
    fn admitted_run_endpoint_prune_accept_and_cut() {
        // Empty bin: resolved by endpoints, empty run.
        assert_eq!(admitted_run(&[], 0, 10), (0, 0, true));
        let bin = [3u32, 5, 5, 9, 14];
        // Whole bin below the band / above the band: O(1) prune.
        assert_eq!(admitted_run(&bin, 20, 30), (0, 0, true));
        assert_eq!(admitted_run(&bin, 0, 3), (0, 0, true));
        // Band covers the whole bin (inclusive lo, exclusive hi): accept.
        assert_eq!(admitted_run(&bin, 3, 15), (0, 5, true));
        assert_eq!(admitted_run(&bin, 0, 100), (0, 5, true));
        // Band cuts the bin: exact run via binary search, duplicates kept.
        assert_eq!(admitted_run(&bin, 4, 10), (1, 4, false));
        assert_eq!(admitted_run(&bin, 5, 6), (1, 3, false));
        // hi is exclusive: a band ending exactly at `last` cuts.
        assert_eq!(admitted_run(&bin, 3, 14), (0, 4, false));
        // Every resolved run must equal the filter-scan reference.
        for elo in 0u32..16 {
            for ehi in elo..17 {
                let (s, e, _) = admitted_run(&bin, elo, ehi);
                let want: Vec<u32> = bin
                    .iter()
                    .copied()
                    .filter(|&x| (elo..ehi).contains(&x))
                    .collect();
                assert_eq!(&bin[s..e], &want[..], "band [{elo},{ehi})");
            }
        }
    }

    #[test]
    fn banded_postings_match_full_scan_filtered() {
        let idx = small_index();
        for (elo, ehi) in [(0u32, 2u32), (0, 1), (1, 2), (1, 1)] {
            for mz in [200.0f64, 500.0, 800.0] {
                let mut full: Vec<u32> = Vec::new();
                let bins_full = idx.for_postings_near(mz, |e| {
                    if (elo..ehi).contains(&e) {
                        full.push(e)
                    }
                });
                let mut banded: Vec<u32> = Vec::new();
                let (bins, skipped) =
                    idx.for_postings_near_in_entry_band(mz, elo, ehi, |e| banded.push(e));
                assert_eq!(banded, full, "band [{elo},{ehi}) at {mz}");
                assert_eq!(bins, bins_full);
                let mut total = 0u64;
                idx.for_postings_near(mz, |_| total += 1);
                assert_eq!(skipped, total - banded.len() as u64);
            }
        }
    }
}
