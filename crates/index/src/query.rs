//! Shared-peak query: filtration + scoring.
//!
//! The kernel is **filtration-first** (the paper's §II-A ordering): for a
//! closed search the precursor window is applied *before* the posting scan,
//! not after it. Entry ids ascend by precursor mass (the builder's
//! renumbering), so the admitted mass band `[m − ΔM, m + ΔM]` is one
//! contiguous entry-id range found with two binary searches over the entry
//! table — and because every bin's posting list is ascending by entry id,
//! each bin's admitted run is likewise found with two binary searches.
//! The hot loop then scans only in-window postings; everything outside the
//! band is counted in [`QueryStats::postings_skipped_by_band`] but never
//! loaded. An open search (ΔM = ∞) takes the full-bin path through the
//! same code — both paths have identical semantics (proptested against
//! [`brute_force_shared_peaks`]).
//!
//! The scan itself is **two-phase SoA** (see `crate::scan`): phase one
//! first *collects* every occupied bin of the query's bin windows as a
//! `(start, end, weight)` run descriptor in structure-of-arrays scratch,
//! then (banded path only) *resolves* that table in place, cutting each
//! run to its admitted postings and dropping the empty ones. Most bins are
//! decided by the O(1) **fragment-bin-level band** ([`crate::slm`]'s
//! endpoint prune/accept; [`QueryStats::bins_pruned_by_band`] counts the
//! prunes) without any binary search. Resolution is bound by cache misses
//! in the posting array — it is ≈ 99 % of a 0.01 Da query's three phases,
//! and ≈ 4× slower cold than on a repeat of the same query — so it runs
//! *ahead*: before run *i* is resolved, run *i + 4*'s endpoints and (for
//! runs longer than a cache line) the first three levels of its
//! binary-search path are prefetched, overlapping several bins' misses.
//! Phase two streams the descriptors through the lane-chunked counter
//! accumulation, prefetching run *r + 1* while run *r* scatters. Every
//! hint is only a hint: the runs, their order and every count are what
//! they would be without it. Splitting resolution from accumulation keeps
//! the inner loop branch-light and data-parallel.
//!
//! [`ScanMode::Auto`] is a *cost decision* among **three arms**, made per
//! query from the two entry-table binary searches:
//!
//! * **Direct** — a band of at most `DIRECT_MAX_ENTRIES` entries, on an
//!   index that carries its peptide table (built in this process; a file or
//!   a store chunk carries none). Resolving a 0.01 Da query's ≈ 330
//!   occupied bins only to find a band of ≈ 3 entries costs far more than
//!   scoring those entries, so the arm regenerates each entry's fragments
//!   (peptide residues, the modform's sites, the builder's own
//!   `for_each_fragment` and `bin_of`) and counts them against the query's
//!   peak windows — Tide's way, scoring each spectrum against the few
//!   candidates in its precursor window. No posting is loaded. It reports
//!   `peaks`, `bins_touched`, `postings_scanned` (the fragment matches),
//!   `postings_skipped_by_band` (the windows' postings, from two directory
//!   offsets per peak, minus those) and `candidates` exactly as the banded
//!   walk would; `bins_pruned_by_band` is 0, because it tests no bin, and
//!   [`QueryStats::entries_scored_directly`] is the band's width.
//! * **Banded walk** — a larger band that covers less than
//!   [`AUTO_FULL_SCAN_COVERAGE`] of the entries: the two-phase scan above,
//!   every bin resolved against the band. It counts every counter but
//!   `entries_scored_directly`.
//! * **Full scan** — ΔM = ∞, or a band at or over that coverage: whole
//!   bins, no admission bookkeeping (which cannot pay for itself there —
//!   this is what keeps ΔM = ∞-adjacent searches from regressing below
//!   plain full scan). Its `postings_skipped_by_band` and
//!   `bins_pruned_by_band` are 0.
//!
//! Results are identical on every arm (each applies the same precursor
//! admission to the same shared-peak counts and intensity sums, in the
//! same order); only the work accounting and the wall clock differ.
//! [`ScanMode::FullScan`] forces the third arm.
//!
//! The per-entry counters live in a scratch arena indexed *band-relative*
//! (`entry − band_lo`), so a closed search's counter footprint is the
//! admitted band, not the whole index. The candidate pass (which also
//! resets the scratch for the next query) is a **sequential sweep** of the
//! band's counters (`scan::sweep_band`) rather than a walk of a
//! first-touch list. What that sweep may branch on was measured, not
//! assumed (numbers and phase split in `crate::scan`'s module doc): on a
//! ±500 Da band about half the slots are hit and about 2 % of the hit ones
//! reach `shared_peak_threshold`, so "was this slot hit?" is a coin flip —
//! a per-slot test of it was two thirds of such a query, and a first-touch
//! test inside the scatter would be the same coin flipped once per
//! posting — while "is it a candidate?" is rare and predictable. The sweep
//! builds a per-chunk mask of the second question without branching on the
//! first. Sub-threshold slots never reach the entry table; only the few
//! hundred candidates pay that random load, and it was never the sweep's
//! dominant cost — the branch was. Candidates arrive in ascending entry
//! id, which [`rank_cmp`]'s total order makes invisible in every ranked
//! output. Top-k selection is a bounded heap (O(candidates · log k)), not
//! a full sort.

use crate::config::SlmConfig;
use crate::scan;
use crate::slm::{admitted_run, PeptideTable, SlmIndex};
use lbe_bio::mods::{modform_sites, ModformScratch};
use lbe_spectra::spectrum::Spectrum;
use lbe_spectra::theo::{for_each_fragment, TheoSpectrum};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::ops::Range;

/// One candidate peptide-to-spectrum match.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Psm {
    /// Index entry id (local to the partition; ascending by precursor mass).
    pub entry: u32,
    /// Peptide id (local to the partition's peptide table).
    pub peptide: u32,
    /// Modform ordinal of the matched theoretical spectrum.
    pub modform: u16,
    /// Shared-peak count.
    pub shared_peaks: u16,
    /// Hyperscore-flavoured score: monotone in shared peaks and in matched
    /// intensity. Comparable only within one query.
    pub score: f32,
}

/// Ranking order of PSMs within one query: score descending, ties broken
/// by ascending `(peptide, modform)` — a *total* order (`f32::total_cmp`),
/// and one that does not mention entry ids, so the builder's mass
/// renumbering is invisible in every ranked output.
#[inline]
pub fn rank_cmp(a: &Psm, b: &Psm) -> Ordering {
    rank_key_cmp(
        (a.score, a.peptide, a.modform),
        (b.score, b.peptide, b.modform),
    )
}

/// The same ranking over bare `(score, peptide, modform)` keys — the one
/// definition every merge layer (single index, chunk merge, engine master
/// merge) must share so a ranking change cannot silently diverge between
/// them.
#[inline]
pub fn rank_key_cmp(a: (f32, u32, u16), b: (f32, u32, u16)) -> Ordering {
    b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2))
}

/// Which path [`Searcher::search_with_opts`] takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScanMode {
    /// Cost-based choice among three arms (module doc), per query from the
    /// two entry-table binary searches: when ΔM is finite, a band of at
    /// most `DIRECT_MAX_ENTRIES` entries is scored directly if the index
    /// carries its peptide table, a band covering less than
    /// [`AUTO_FULL_SCAN_COVERAGE`] of the entries is walked bin by bin;
    /// otherwise — ΔM = ∞, or a near-total band, which would make per-bin
    /// admission pure overhead — whole bins are scanned. The default
    /// everywhere. Findings are identical on every arm.
    #[default]
    Auto,
    /// Always scan whole bins (the pre-banding kernel). Results are
    /// identical to `Auto`; kept for A/B benchmarking and as the reference
    /// path in equivalence tests.
    FullScan,
}

/// Band-coverage threshold at which [`ScanMode::Auto`] abandons the banded
/// walk for the plain full scan (a band small enough for the direct arm is
/// far below it).
///
/// The banded kernel pays an O(1) endpoint test (sometimes two binary
/// searches) per bin; its payoff is the postings it never loads. When the
/// admitted entry band covers (nearly) the whole index — ΔM = ∞ desugars
/// to exactly 1.0, and very wide open-mod envelopes approach it — there is
/// nothing left to skip, so the admission bookkeeping is a pure tax (the
/// 0.91× ΔM = ∞ regression this heuristic exists to eliminate). Below the
/// threshold even a thin skipped sliver wins, because skipped postings
/// cost ~100× less than scanned ones.
pub const AUTO_FULL_SCAN_COVERAGE: f64 = 0.95;

/// How many runs ahead of the one being resolved phase one hints a bin's
/// binary-search path ([`scan::prefetch_search_path`]). Far enough that a
/// bin's misses land before it is reached; near enough that its lines are
/// still cached.
const RESOLVE_AHEAD: usize = 4;

/// The largest band, in entries, that [`ScanMode::Auto`] scores directly
/// (when the index carries its peptide table).
///
/// Measured per query on `lbe-e2e`'s 9 M-ion `batch_closed` index (each
/// query timed cold on one arm, grouped by band width): the arm costs
/// ≈ 2.5 µs plus ≈ 0.75 µs per entry, the banded walk 11–27 µs whatever
/// the width, and the two cross at 24–32 entries. At 16 the arm is still
/// ≥ 1.4× cheaper in every width it takes, a margin for entries with
/// more fragments (longer peptides, deeper modform walks); the
/// `index.query.da1` probe could not tell cuts of 8 to 32 apart.
const DIRECT_MAX_ENTRIES: u32 = 16;

/// Fraction of the entry table a band of `band_width` entries covers —
/// the [`ScanMode::Auto`] cost signal. An empty index reports full
/// coverage (there is nothing a band could skip).
#[inline]
pub(crate) fn band_coverage(band_width: u32, num_entries: u32) -> f64 {
    if num_entries == 0 {
        1.0
    } else {
        band_width as f64 / num_entries as f64
    }
}

/// Per-request overrides layered over the index's build-time [`SlmConfig`].
///
/// The one-shot CLI bakes ΔM and top-k into the index at build time; a
/// resident server answering many clients cannot. `QueryOptions` carries
/// the per-request knobs through every search entry point: `None` fields
/// fall back to the index configuration, making the default options
/// numerically indistinguishable from the pre-options API (pinned by the
/// equivalence tests below).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QueryOptions {
    /// Posting-scan path (banded vs full-bin). Findings are mode-invariant.
    pub scan_mode: ScanMode,
    /// Override of [`SlmConfig::top_k`] (`None` = the index default).
    pub top_k: Option<usize>,
    /// Override of [`SlmConfig::precursor_tolerance`] in Daltons (`None` =
    /// the index default; `Some(f64::INFINITY)` = open search).
    pub precursor_tolerance: Option<f64>,
}

impl QueryOptions {
    /// The ΔM this request searches with.
    #[inline]
    pub fn effective_tolerance(&self, cfg: &SlmConfig) -> f64 {
        self.precursor_tolerance.unwrap_or(cfg.precursor_tolerance)
    }

    /// The top-k this request keeps.
    #[inline]
    pub fn effective_top_k(&self, cfg: &SlmConfig) -> usize {
        self.top_k.unwrap_or(cfg.top_k)
    }
}

/// Work counters for one query — the inputs of the virtual-time cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryStats {
    /// Query peaks processed.
    pub peaks: u64,
    /// Ion bins inspected.
    pub bins_touched: u64,
    /// Postings scanned (the dominant compute term).
    pub postings_scanned: u64,
    /// Postings in touched bins that the precursor band excluded *without
    /// scanning them* — the work the banded kernel avoids relative to a
    /// full-bin scan. Zero on the full-scan path.
    pub postings_skipped_by_band: u64,
    /// Non-empty bins the fragment-level band dismissed with the O(1)
    /// endpoint test — no binary search, no posting load (their postings
    /// are included in `postings_skipped_by_band`). A subset of
    /// `bins_touched`; zero on the full-scan path.
    pub bins_pruned_by_band: u64,
    /// Candidate PSMs passing the shared-peak + precursor filters (cPSMs).
    pub candidates: u64,
    /// Band entries scored directly from their regenerated fragments
    /// instead of through their postings (the whole band when
    /// [`ScanMode::Auto`] takes the direct arm, else zero).
    pub entries_scored_directly: u64,
}

impl QueryStats {
    /// Accumulates another query's counters (per-rank totals).
    pub fn accumulate(&mut self, other: &QueryStats) {
        self.peaks += other.peaks;
        self.bins_touched += other.bins_touched;
        self.postings_scanned += other.postings_scanned;
        self.postings_skipped_by_band += other.postings_skipped_by_band;
        self.bins_pruned_by_band += other.bins_pruned_by_band;
        self.candidates += other.candidates;
        self.entries_scored_directly += other.entries_scored_directly;
    }
}

/// Result of searching one spectrum.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SearchResult {
    /// Top-k candidate PSMs, best first.
    pub psms: Vec<Psm>,
    /// Work counters.
    pub stats: QueryStats,
}

/// Detached searcher scratch, reusable across [`Searcher`]s (and across
/// *different* indexes — disk-backed chunk stores hand one scratch from
/// chunk to chunk instead of reallocating per query).
///
/// Invariant: between searches every counter is zero (the searcher resets
/// the entries it touched), so re-sizing for another index or band only
/// needs to extend with zeroes. [`Searcher::with_scratch`] debug-asserts
/// the invariant when recycling.
#[derive(Debug, Default)]
pub struct SearchScratch {
    /// Per-entry slots of the posting walk — shared-peak counter and
    /// matched-intensity sum packed per entry ([`scan::Slot`], one cache
    /// line touch per scatter), reset by the candidate sweep, indexed
    /// band-relative (slot `entry − band_lo`). Sized lazily per query to
    /// the admitted band (closed search) or the whole index (open search /
    /// full scan) — grow-only.
    slots: Vec<scan::Slot>,
    /// SoA run table filled in phase one of each search and drained in
    /// phase two (`run_start[i]..run_end[i]` indexes the flat posting
    /// array; `run_weight[i]` is the contributing peak's intensity).
    /// Always left empty between searches — only the capacity is recycled,
    /// so these are not part of the cleanliness invariant.
    run_start: Vec<usize>,
    run_end: Vec<usize>,
    run_weight: Vec<f32>,
    /// The direct arm's buffers: per query its peak windows that hold
    /// postings and a bitmap of the bins they cover (one bit per bin of
    /// the axis, left clear between searches); per entry its mod sites,
    /// prefix masses and matches (`(peak, intensity)` per fragment in a
    /// window). Only their capacity is recycled.
    windows: Vec<PeakWindow>,
    covered: Vec<u64>,
    mod_sites: ModformScratch,
    prefix: Vec<f64>,
    matches: Vec<(u32, f32)>,
}

impl SearchScratch {
    /// `true` if every counter slot and coverage bit is zero — the
    /// recycling invariant.
    fn is_clean(&self) -> bool {
        self.slots.iter().all(scan::Slot::is_clear) && self.covered.iter().all(|&w| w == 0)
    }
}

/// A reusable searcher over one index. Holds scratch state; create one per
/// thread (it is `Send` but deliberately not shared).
pub struct Searcher<'a> {
    index: &'a SlmIndex,
    /// When set, PSM peptide ids are translated through this local→global
    /// map *at construction* — before top-k selection — so the
    /// `(peptide, modform)` tie-break of [`rank_cmp`] operates on global
    /// ids. Chunked searches pass each chunk's mapping here; without it a
    /// per-chunk top-k could truncate on local-id tie order and diverge
    /// from a single-index (or distributed) search over the same data.
    global_ids: Option<&'a [u32]>,
    scratch: SearchScratch,
}

impl<'a> Searcher<'a> {
    /// Creates a searcher. Scratch is allocated lazily on first search,
    /// sized to the admitted band (closed search) or the index (open).
    pub fn new(index: &'a SlmIndex) -> Self {
        Self::with_scratch(index, SearchScratch::default())
    }

    /// Creates a searcher around recycled scratch. Surviving counter slots
    /// must be zero ([`SearchScratch`]'s invariant — the previous searcher
    /// reset every entry it touched); recycling across indexes is safe
    /// because searches only ever *extend* the arrays with zeroes. The
    /// invariant is debug-asserted here so a violation fails at the hand-off
    /// that caused it, not as a silently corrupt count several queries
    /// later.
    pub fn with_scratch(index: &'a SlmIndex, mut scratch: SearchScratch) -> Self {
        debug_assert!(
            scratch.is_clean(),
            "recycled SearchScratch has non-zero counters: the previous \
             searcher did not reset the entries it touched"
        );
        scratch.run_start.clear();
        scratch.run_end.clear();
        scratch.run_weight.clear();
        Searcher {
            index,
            global_ids: None,
            scratch,
        }
    }

    /// [`Searcher::with_scratch`] for a searcher whose PSMs carry *global*
    /// peptide ids: every emitted peptide id is `global_ids[local_id]`. The
    /// translation happens before top-k selection, so score ties truncate
    /// in global `(peptide, modform)` order — the property chunked search
    /// needs to agree byte-for-byte with a monolithic index over the same
    /// peptides.
    pub fn with_scratch_mapped(
        index: &'a SlmIndex,
        scratch: SearchScratch,
        global_ids: &'a [u32],
    ) -> Self {
        let mut s = Self::with_scratch(index, scratch);
        s.global_ids = Some(global_ids);
        s
    }

    /// Releases the scratch for reuse by a later searcher.
    pub fn into_scratch(self) -> SearchScratch {
        self.scratch
    }

    /// The index being searched.
    pub fn index(&self) -> &'a SlmIndex {
        self.index
    }

    /// Searches one (preprocessed) query spectrum under the index's own
    /// configuration ([`QueryOptions::default`]).
    pub fn search(&mut self, query: &Spectrum) -> SearchResult {
        self.search_with_opts(query, &QueryOptions::default())
    }

    /// Searches one query spectrum under per-request [`QueryOptions`].
    /// Default options are bit-identical to [`Searcher::search`]; a
    /// tolerance/top-k override behaves exactly as if the index had been
    /// built with that configuration (same interval expressions feed the
    /// band binary search and the admission check).
    pub fn search_with_opts(&mut self, query: &Spectrum, opts: &QueryOptions) -> SearchResult {
        self.search_with_cut(query, opts, DIRECT_MAX_ENTRIES)
    }

    /// [`Searcher::search_with_opts`] with the direct arm taken for banded
    /// queries of at most `direct_max` band entries (tests force the arm
    /// with `u32::MAX`).
    pub(crate) fn search_with_cut(
        &mut self,
        query: &Spectrum,
        opts: &QueryOptions,
        direct_max: u32,
    ) -> SearchResult {
        let cfg = self.index.config();
        let tol = opts.effective_tolerance(cfg);
        let mut stats = QueryStats {
            peaks: query.peaks.len() as u64,
            ..Default::default()
        };

        let index = self.index;
        let query_mass = query.precursor_neutral_mass();
        let num_entries = index.num_spectra() as u32;
        // Filtration first: a closed search restricts every scan to the
        // admitted entry band up front — unless the band covers (nearly)
        // everything, in which case Auto's cost heuristic drops to the
        // full-scan path (same findings, none of the per-bin admission
        // overhead).
        let want_banded = opts.scan_mode == ScanMode::Auto && !tol.is_infinite();
        let (banded, band_lo, band_hi) = if want_banded {
            let (lo, hi) = index.entry_range_for_mass_band(query_mass - tol, query_mass + tol);
            if band_coverage(hi - lo, num_entries) >= AUTO_FULL_SCAN_COVERAGE {
                (false, 0, num_entries)
            } else {
                (true, lo, hi)
            }
        } else {
            (false, 0, num_entries)
        };
        let mut found = Candidates {
            index,
            global_ids: self.global_ids,
            tol,
            query_mass,
            admitted: 0,
            topk: TopK::new(opts.effective_top_k(cfg)),
        };
        match index.peptides() {
            Some(table) if banded && band_hi - band_lo <= direct_max => {
                self.score_band_directly(table, query, band_lo..band_hi, &mut stats, &mut found)
            }
            _ => self.walk_postings(query, banded, band_lo..band_hi, &mut stats, &mut found),
        }
        stats.candidates = found.admitted;
        SearchResult {
            psms: found.topk.into_sorted(),
            stats,
        }
    }

    /// The posting walk over the band (`banded`) or the whole index: bins,
    /// scatter, sweep. Offers every entry at or over the shared-peak
    /// threshold to `found`, in ascending entry id.
    fn walk_postings(
        &mut self,
        query: &Spectrum,
        banded: bool,
        band: Range<u32>,
        stats: &mut QueryStats,
        found: &mut Candidates<'_>,
    ) {
        let index = self.index;
        let scratch = &mut self.scratch;
        let (band_lo, band_hi) = (band.start, band.end);
        let width = (band_hi - band_lo) as usize;
        if scratch.slots.len() < width {
            // Grow-only; new slots are zero, surviving slots are zero by
            // the scratch invariant.
            scratch.slots.resize(width, scan::Slot::default());
        }

        // Phase one, collect: walk every peak's tolerance window and push
        // each occupied bin's whole posting run, in (peak, bin) order. The
        // bin directory hands back only the window's occupied bins (two
        // rank lookups, then adjacent offsets) — empty bins, most of the
        // axis, are never visited. On the full-scan path this is the whole
        // run table.
        let directory = index.bin_directory();
        let postings = index.postings();
        debug_assert!(scratch.run_start.is_empty());
        for peak in &query.peaks {
            let Some((blo, bhi)) = index.bins_for_mz(peak.mz) else {
                continue;
            };
            stats.bins_touched += (bhi - blo + 1) as u64;
            let runs = directory.window(blo, bhi);
            for k in 0..runs.len() - 1 {
                scratch.run_start.push(runs[k] as usize);
                scratch.run_end.push(runs[k + 1] as usize);
                scratch.run_weight.push(peak.intensity);
            }
        }

        // Phase one, resolve ahead (banded path only): cut every collected
        // run to its admitted entries in place, dropping runs that come out
        // empty. Most bins are decided by the O(1) fragment-level band
        // (endpoint prune / whole-bin accept); band-cut bins pay two binary
        // searches. Each bin's loads are cold misses that depend on one
        // another, so before resolving run `i` its search path is hinted
        // for run `i + RESOLVE_AHEAD` — the misses of several bins then
        // overlap instead of queueing one bin at a time.
        if banded {
            let (run_start, run_end, run_weight) = (
                &mut scratch.run_start,
                &mut scratch.run_end,
                &mut scratch.run_weight,
            );
            let collected = run_start.len();
            let mut kept = 0;
            for i in 0..collected {
                if let Some(&ahead) = run_start.get(i + RESOLVE_AHEAD) {
                    scan::prefetch_search_path(&postings[ahead..run_end[i + RESOLVE_AHEAD]]);
                }
                let (o0, o1) = (run_start[i], run_end[i]);
                let (s, e, by_endpoints) = admitted_run(&postings[o0..o1], band_lo, band_hi);
                stats.postings_skipped_by_band += ((o1 - o0) - (e - s)) as u64;
                if s == e {
                    if by_endpoints {
                        stats.bins_pruned_by_band += 1;
                    }
                    continue;
                }
                run_start[kept] = o0 + s;
                run_end[kept] = o0 + e;
                run_weight[kept] = run_weight[i];
                kept += 1;
            }
            run_start.truncate(kept);
            run_end.truncate(kept);
            run_weight.truncate(kept);
        }

        // Phase two: stream the run table through the lane-chunked counter
        // accumulation, prefetching the next run's postings while the
        // current one scatters (runs are scattered across the posting
        // array; without the hint every run switch starts cold).
        let num_runs = scratch.run_start.len();
        for r in 0..num_runs {
            stats.postings_scanned += (scratch.run_end[r] - scratch.run_start[r]) as u64;
            if r + 1 < num_runs {
                scan::prefetch_postings(
                    &postings[scratch.run_start[r + 1]..scratch.run_end[r + 1]],
                );
            }
            scan::accumulate_run(
                &postings[scratch.run_start[r]..scratch.run_end[r]],
                scratch.run_weight[r],
                band_lo,
                &mut scratch.slots[..width],
            );
        }
        scratch.run_start.clear();
        scratch.run_end.clear();
        scratch.run_weight.clear();

        // Candidate pass: `scan::sweep_band` hands over the slots that
        // reach the shared-peak threshold, in ascending entry-id order, and
        // leaves the band clear for the next query.
        scan::sweep_band(
            &mut scratch.slots[..width],
            index.config().shared_peak_threshold,
            |off, shared, matched| found.offer(band_lo + off as u32, shared, matched),
        );
    }

    /// The direct arm: scores each entry of a small band from its
    /// regenerated fragments, collecting, resolving and scattering no
    /// posting run.
    ///
    /// An entry's fragments come from its peptide's residues and its
    /// modform's sites ([`modform_sites`], a walk that stops at the
    /// ordinal) through [`for_each_fragment`] and [`SlmConfig::bin_of`] —
    /// the builder's own arithmetic, so its kept bins are exactly the bins
    /// that hold its postings. A fragment whose bin no peak window covers
    /// (one bit test) is dropped; one that is covered joins the matches of
    /// every window covering it. The matches are then added in the
    /// scatter's order: peaks in query order, each peak's intensity once
    /// per matching fragment. Every count, score bit and candidate
    /// therefore equals the posting walk's, and so do the counters: a
    /// match is a posting the walk would scan, and the rest of the
    /// windows' postings (two directory offsets per peak, no posting load)
    /// are the ones it would skip. No bin is tested, so none is counted as
    /// pruned.
    fn score_band_directly(
        &mut self,
        table: &PeptideTable,
        query: &Spectrum,
        band: Range<u32>,
        stats: &mut QueryStats,
        found: &mut Candidates<'_>,
    ) {
        let index = self.index;
        let cfg = index.config();
        let directory = index.bin_directory();
        let scratch = &mut self.scratch;
        // The peak windows. A window without an occupied bin can match no
        // indexed fragment: it is counted, then dropped.
        let windows = &mut scratch.windows;
        windows.clear();
        let mut window_postings = 0u64;
        for (peak, p) in query.peaks.iter().zip(0u32..) {
            let Some((lo, hi)) = index.bins_for_mz(peak.mz) else {
                continue;
            };
            stats.bins_touched += (hi - lo + 1) as u64;
            let runs = directory.window(lo, hi);
            let postings = runs[runs.len() - 1] - runs[0];
            if postings > 0 {
                window_postings += u64::from(postings);
                windows.push(PeakWindow {
                    lo,
                    hi,
                    peak: p,
                    intensity: peak.intensity,
                });
            }
        }
        // By first bin, then last: both bounds then ascend (each is a
        // monotone function of the window's centre), so the windows
        // covering a bin are one run, found by two binary searches. A
        // preprocessed spectrum's peaks ascend in m/z, so this finds the
        // windows already sorted.
        windows.sort_unstable_by_key(|w| (w.lo, w.hi));
        let covered = &mut scratch.covered;
        let words = directory.bitmap.len();
        if covered.len() < words {
            covered.resize(words, 0);
        }
        for w in windows.iter() {
            let (first, last) = ((w.lo >> 6) as usize, (w.hi >> 6) as usize);
            let (head, tail) = (u64::MAX << (w.lo & 63), u64::MAX >> (63 - (w.hi & 63)));
            if first == last {
                covered[first] |= head & tail;
            } else {
                covered[first] |= head;
                covered[first + 1..last].fill(u64::MAX);
                covered[last] |= tail;
            }
        }

        let spec = table.modspec();
        let floor = cfg.shared_peak_threshold.max(1);
        let matches = &mut scratch.matches;
        stats.entries_scored_directly = (band.end - band.start) as u64;
        for entry in band {
            let meta = index.entry(entry);
            let seq = table.sequence(meta.peptide);
            let sites = modform_sites(seq, spec, usize::from(meta.modform), &mut scratch.mod_sites)
                .expect("the peptide table enumerates every modform the index holds");
            matches.clear();
            for_each_fragment(seq, sites, spec, &cfg.theo, &mut scratch.prefix, |mz| {
                let Some(bin) = cfg.bin_of(mz) else {
                    return;
                };
                if covered[(bin >> 6) as usize] & 1 << (bin & 63) == 0 {
                    return;
                }
                let first = windows.partition_point(|w| w.hi < bin);
                let end = windows.partition_point(|w| w.lo <= bin);
                matches.extend(windows[first..end].iter().map(|w| (w.peak, w.intensity)));
            });
            // Equal peaks add equal intensities, so an unstable sort keeps
            // every sum's bits.
            matches.sort_unstable_by_key(|&(peak, _)| peak);
            let (mut shared, mut matched) = (0u16, 0f32);
            for &(_, intensity) in matches.iter() {
                shared = shared.saturating_add(1);
                matched += intensity;
            }
            stats.postings_scanned += matches.len() as u64;
            if shared >= floor {
                found.offer(entry, shared, matched);
            }
        }
        stats.postings_skipped_by_band = window_postings - stats.postings_scanned;
        // Leave the coverage clear for the next query.
        for w in windows.iter() {
            covered[(w.lo >> 6) as usize..=(w.hi >> 6) as usize].fill(0);
        }
    }

    /// Searches a batch, returning per-query results plus total work.
    pub fn search_batch(&mut self, queries: &[Spectrum]) -> (Vec<SearchResult>, QueryStats) {
        self.search_batch_with_opts(queries, &QueryOptions::default())
    }

    /// [`Searcher::search_batch`] under per-request [`QueryOptions`].
    pub fn search_batch_with_opts(
        &mut self,
        queries: &[Spectrum],
        opts: &QueryOptions,
    ) -> (Vec<SearchResult>, QueryStats) {
        let mut total = QueryStats::default();
        let results: Vec<SearchResult> = queries
            .iter()
            .map(|q| {
                let r = self.search_with_opts(q, opts);
                total.accumulate(&r.stats);
                r
            })
            .collect();
        (results, total)
    }
}

/// One peak's fragment-tolerance window on the direct arm: its bins
/// `lo..=hi`, the peak's place in the query and its intensity.
#[derive(Debug, Clone, Copy)]
struct PeakWindow {
    lo: u32,
    hi: u32,
    peak: u32,
    intensity: f32,
}

/// What both arms do with an entry whose shared-peak count reached the
/// threshold: precursor admission, scoring and the top-k push.
struct Candidates<'a> {
    index: &'a SlmIndex,
    global_ids: Option<&'a [u32]>,
    tol: f64,
    query_mass: f64,
    /// Entries admitted so far ([`QueryStats::candidates`]).
    admitted: u64,
    topk: TopK,
}

impl Candidates<'_> {
    #[inline]
    fn offer(&mut self, entry: u32, shared: u16, matched: f32) {
        let meta = self.index.entry(entry);
        if SlmConfig::precursor_admits_with(self.tol, self.query_mass, meta.precursor_mass as f64) {
            self.admitted += 1;
            self.topk.push(Psm {
                entry,
                // Global-id translation (when mapped) happens *here*,
                // before the top-k push, so score ties truncate in global
                // (peptide, modform) order.
                peptide: match self.global_ids {
                    Some(map) => map[meta.peptide as usize],
                    None => meta.peptide,
                },
                modform: meta.modform,
                shared_peaks: shared,
                score: score(shared, matched),
            });
        }
    }
}

/// Bounded top-k selection over [`rank_cmp`]: a size-`k` binary heap whose
/// top is the *worst* kept PSM, replacing the old collect-all →
/// `sort_by` → `truncate` path. O(candidates · log k) instead of
/// O(candidates · log candidates), and memory bounded by `k` instead of by
/// the candidate count — which for an open search at paper scale is tens
/// of thousands of cPSMs per query against a `top_k` of 10.
struct TopK {
    k: usize,
    heap: BinaryHeap<HeapPsm>,
}

/// Heap ordering = [`rank_cmp`]: the max element is the worst-ranked PSM,
/// so `peek` is the eviction candidate and `into_sorted_vec` is best-first.
struct HeapPsm(Psm);

impl PartialEq for HeapPsm {
    fn eq(&self, other: &Self) -> bool {
        rank_cmp(&self.0, &other.0) == Ordering::Equal
    }
}
impl Eq for HeapPsm {}
impl PartialOrd for HeapPsm {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapPsm {
    fn cmp(&self, other: &Self) -> Ordering {
        rank_cmp(&self.0, &other.0)
    }
}

impl TopK {
    fn new(k: usize) -> Self {
        TopK {
            k,
            // `top_k` can be "unbounded" (usize::MAX in exhaustive tests);
            // cap the up-front reservation and let the heap grow.
            heap: BinaryHeap::with_capacity(k.min(1024)),
        }
    }

    #[inline]
    fn push(&mut self, p: Psm) {
        if self.k == 0 {
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push(HeapPsm(p));
        } else if let Some(mut worst) = self.heap.peek_mut() {
            if rank_cmp(&p, &worst.0) == Ordering::Less {
                *worst = HeapPsm(p);
            }
        }
    }

    fn into_sorted(self) -> Vec<Psm> {
        self.heap
            .into_sorted_vec()
            .into_iter()
            .map(|h| h.0)
            .collect()
    }
}

/// Hyperscore-flavoured score: shared-peak count weighted by log matched
/// intensity. Deterministic, monotone in both arguments.
#[inline]
fn score(shared: u16, matched_intensity: f32) -> f32 {
    shared as f32 * (1.0 + (1.0 + matched_intensity.max(0.0)).ln() / 16.0)
}

/// Reference implementation: shared-peak count of `query` against one
/// theoretical spectrum under `cfg`'s binned-tolerance semantics. O(peaks ×
/// fragments); used by tests/benches to validate the CSR fast path.
pub fn brute_force_shared_peaks(cfg: &SlmConfig, query: &Spectrum, theo: &TheoSpectrum) -> u16 {
    let tol = cfg.tolerance_bins();
    let mut shared = 0u16;
    for p in &query.peaks {
        let Some(qb) = cfg.bin_of(p.mz) else { continue };
        for &f in &theo.fragment_mzs {
            let Some(fb) = cfg.bin_of(f) else { continue };
            if qb.abs_diff(fb) <= tol {
                shared = shared.saturating_add(1);
            }
        }
    }
    shared
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IndexBuilder;
    use lbe_bio::mods::{ModForm, ModSpec};
    use lbe_bio::peptide::{Peptide, PeptideDb};
    use lbe_spectra::spectrum::Peak;
    use lbe_spectra::synthetic::{SyntheticDataset, SyntheticDatasetParams};
    use lbe_spectra::theo::TheoParams;

    /// The reference path of the banded ≡ full-scan equivalence tests.
    const FULL_SCAN: QueryOptions = QueryOptions {
        scan_mode: ScanMode::FullScan,
        top_k: None,
        precursor_tolerance: None,
    };

    fn db(seqs: &[&str]) -> PeptideDb {
        PeptideDb::from_vec(
            seqs.iter()
                .map(|s| Peptide::new(s.as_bytes(), 0, 0).unwrap())
                .collect(),
        )
    }

    fn perfect_query(seq: &[u8]) -> Spectrum {
        let theo = TheoSpectrum::from_sequence(
            seq,
            &ModForm::unmodified(),
            &ModSpec::none(),
            &TheoParams::default(),
        );
        let peaks = theo
            .fragment_mzs
            .iter()
            .map(|&m| Peak::new(m, 100.0))
            .collect();
        Spectrum::new(
            0,
            lbe_bio::aa::precursor_mz(theo.precursor_mass, 2),
            2,
            peaks,
        )
    }

    #[test]
    fn perfect_query_ranks_true_peptide_first() {
        let d = db(&["ELVISLIVESK", "PEPTIDEK", "SAMPLERK"]);
        let idx = IndexBuilder::new(SlmConfig::default(), ModSpec::none()).build(&d);
        let mut s = Searcher::new(&idx);
        let r = s.search(&perfect_query(b"PEPTIDEK"));
        assert!(!r.psms.is_empty());
        assert_eq!(r.psms[0].peptide, 1);
        assert_eq!(r.psms[0].shared_peaks, 14); // all 2*(8-1) fragments
    }

    #[test]
    fn shared_peak_threshold_filters() {
        let d = db(&["ELVISLIVESK", "PEPTIDEK"]);
        let cfg = SlmConfig {
            shared_peak_threshold: 100,
            ..Default::default()
        };
        let idx = IndexBuilder::new(cfg, ModSpec::none()).build(&d);
        let mut s = Searcher::new(&idx);
        let r = s.search(&perfect_query(b"PEPTIDEK"));
        assert!(r.psms.is_empty());
        assert_eq!(r.stats.candidates, 0);
    }

    #[test]
    fn precursor_window_filters() {
        let d = db(&["PEPTIDEK", "PEPTIDEKGGGGGGK"]);
        let cfg = SlmConfig::default().with_precursor_tolerance(1.0);
        let idx = IndexBuilder::new(cfg, ModSpec::none()).build(&d);
        let mut s = Searcher::new(&idx);
        let r = s.search(&perfect_query(b"PEPTIDEK"));
        // The longer peptide shares all of PEPTIDEK's b ions but is ~400 Da
        // heavier — excluded by the closed window.
        assert!(r.psms.iter().all(|p| p.peptide == 0));
    }

    #[test]
    fn banded_closed_search_skips_out_of_window_postings() {
        let d = db(&["PEPTIDEK", "PEPTIDEKGGGGGGK"]);
        let cfg = SlmConfig::default().with_precursor_tolerance(1.0);
        let idx = IndexBuilder::new(cfg, ModSpec::none()).build(&d);
        let mut s = Searcher::new(&idx);
        let q = perfect_query(b"PEPTIDEK");
        let banded = s.search(&q);
        let full = s.search_with_opts(&q, &FULL_SCAN);
        // Identical findings...
        assert_eq!(banded.psms, full.psms);
        assert_eq!(banded.stats.candidates, full.stats.candidates);
        // ...but the banded path scanned strictly fewer postings (the
        // heavier peptide shares PEPTIDEK's b-ion bins) and accounted for
        // every posting it skipped.
        assert!(banded.stats.postings_scanned < full.stats.postings_scanned);
        assert!(banded.stats.postings_skipped_by_band > 0);
        assert_eq!(
            banded.stats.postings_scanned + banded.stats.postings_skipped_by_band,
            full.stats.postings_scanned
        );
        assert_eq!(full.stats.postings_skipped_by_band, 0);
        assert_eq!(full.stats.bins_pruned_by_band, 0);
        // Every touched bin here holds the *shared* b-ion postings of both
        // peptides, so the band cuts bins rather than pruning them whole.
        assert_eq!(banded.stats.bins_pruned_by_band, 0);
    }

    #[test]
    fn fragment_level_band_prunes_whole_bins() {
        let d = db(&["PEPTIDEK", "PEPTIDEKGGGGGGK"]);
        let cfg = SlmConfig::default().with_precursor_tolerance(1.0);
        let idx = IndexBuilder::new(cfg, ModSpec::none()).build(&d);
        // Peaks from the heavier peptide, precursor mass of the lighter:
        // the band admits only entry 0 (PEPTIDEK), so every bin holding
        // the heavier peptide's *unique* fragments contains out-of-band
        // postings exclusively and is dismissed by the O(1) endpoint test
        // — no binary search, no posting load.
        let theo = TheoSpectrum::from_sequence(
            b"PEPTIDEKGGGGGGK",
            &ModForm::unmodified(),
            &ModSpec::none(),
            &TheoParams::default(),
        );
        let m_light = lbe_bio::aa::peptide_neutral_mass(b"PEPTIDEK").unwrap();
        let peaks = theo
            .fragment_mzs
            .iter()
            .map(|&m| Peak::new(m, 100.0))
            .collect();
        let q = Spectrum::new(0, lbe_bio::aa::precursor_mz(m_light, 2), 2, peaks);
        // Without its peptide table (as a file holds it) the index answers
        // this one-entry band with the posting walk, which tests bins.
        let walked = idx.clone().without_peptides();
        let mut s = Searcher::new(&walked);
        let banded = s.search(&q);
        let full = s.search_with_opts(&q, &FULL_SCAN);
        assert_eq!(banded.psms, full.psms);
        assert!(banded.stats.bins_pruned_by_band > 0);
        assert!(banded.stats.bins_pruned_by_band <= banded.stats.bins_touched);
        // Pruned bins' postings are still accounted as skipped, and the
        // bins themselves still count as touched — the identities the
        // cost model and equivalence proptests rest on.
        assert_eq!(banded.stats.bins_touched, full.stats.bins_touched);
        assert_eq!(
            banded.stats.postings_scanned + banded.stats.postings_skipped_by_band,
            full.stats.postings_scanned
        );
    }

    #[test]
    fn band_coverage_signal() {
        assert_eq!(band_coverage(0, 10), 0.0);
        assert_eq!(band_coverage(5, 10), 0.5);
        assert_eq!(band_coverage(10, 10), 1.0);
        // Empty index: nothing a band could skip — treated as full
        // coverage so Auto takes the trivial full-scan path.
        assert_eq!(band_coverage(0, 0), 1.0);
        assert!(band_coverage(19, 20) >= AUTO_FULL_SCAN_COVERAGE);
        assert!(band_coverage(18, 20) < AUTO_FULL_SCAN_COVERAGE);
    }

    #[test]
    fn auto_falls_back_to_full_scan_when_band_covers_everything() {
        // A finite but enormous ΔM admits every entry: the heuristic must
        // route Auto onto the full-scan path (no admission bookkeeping),
        // with findings identical to an explicit full scan.
        let d = db(&["GGGGGK", "PEPTIDEK", "ELVISLIVESK"]);
        let cfg = SlmConfig::default().with_precursor_tolerance(1e6);
        let idx = IndexBuilder::new(cfg, ModSpec::none()).build(&d);
        let mut s = Searcher::new(&idx);
        let q = perfect_query(b"PEPTIDEK");
        let auto = s.search(&q);
        let full = s.search_with_opts(&q, &FULL_SCAN);
        assert_eq!(auto, full, "heuristic full-scan is bit-identical");
        assert_eq!(auto.stats.postings_skipped_by_band, 0);
        assert_eq!(auto.stats.bins_pruned_by_band, 0);
        assert_eq!(auto.stats.postings_scanned, full.stats.postings_scanned);

        // A narrow ΔM on the same index stays banded (the heuristic is a
        // per-query decision, not a per-index one).
        let narrow = QueryOptions {
            precursor_tolerance: Some(1.0),
            ..Default::default()
        };
        let r = s.search_with_opts(&q, &narrow);
        assert!(r.stats.postings_skipped_by_band > 0);
    }

    #[test]
    fn mapped_searcher_translates_peptide_ids_before_ranking() {
        let d = db(&["ELVISLIVESK", "PEPTIDEK", "SAMPLERK"]);
        let idx = IndexBuilder::new(SlmConfig::default(), ModSpec::none()).build(&d);
        // An arbitrary injective local→global map (what a chunk of a
        // larger database would carry).
        let map: Vec<u32> = vec![107, 9, 42];
        let q = perfect_query(b"PEPTIDEK");
        let local = Searcher::new(&idx).search(&q);
        let global = Searcher::with_scratch_mapped(&idx, SearchScratch::default(), &map).search(&q);
        assert_eq!(local.stats, global.stats);
        assert_eq!(local.psms.len(), global.psms.len());
        for (l, g) in local.psms.iter().zip(&global.psms) {
            assert_eq!(g.peptide, map[l.peptide as usize]);
            assert_eq!(
                (l.entry, l.modform, l.shared_peaks),
                (g.entry, g.modform, g.shared_peaks)
            );
            assert_eq!(l.score, g.score);
        }
        // Scratch recycling carries the mapping path too.
        let via_scratch =
            Searcher::with_scratch_mapped(&idx, SearchScratch::default(), &map).search(&q);
        assert_eq!(via_scratch, global);
    }

    #[test]
    fn open_search_takes_full_bin_path() {
        let d = db(&["PEPTIDEK", "ELVISLIVESK"]);
        let idx = IndexBuilder::new(SlmConfig::default(), ModSpec::none()).build(&d);
        assert!(idx.config().is_open_search());
        let mut s = Searcher::new(&idx);
        let r = s.search(&perfect_query(b"PEPTIDEK"));
        assert_eq!(r.stats.postings_skipped_by_band, 0);
    }

    #[test]
    fn empty_band_matches_nothing_and_scans_nothing() {
        let d = db(&["PEPTIDEK"]);
        let cfg = SlmConfig::default().with_precursor_tolerance(0.1);
        let idx = IndexBuilder::new(cfg, ModSpec::none()).build(&d);
        let mut s = Searcher::new(&idx);
        // Fragment peaks overlap PEPTIDEK's bins, but the precursor is
        // 500 Da off: the band admits zero entries.
        let theo = TheoSpectrum::from_sequence(
            b"PEPTIDEK",
            &ModForm::unmodified(),
            &ModSpec::none(),
            &TheoParams::default(),
        );
        let peaks = theo
            .fragment_mzs
            .iter()
            .map(|&m| Peak::new(m, 100.0))
            .collect();
        let q = Spectrum::new(
            0,
            lbe_bio::aa::precursor_mz(theo.precursor_mass + 500.0, 2),
            2,
            peaks,
        );
        let r = s.search(&q);
        assert!(r.psms.is_empty());
        assert_eq!(r.stats.postings_scanned, 0);
        assert!(r.stats.postings_skipped_by_band > 0);
        // The full-scan path agrees on the findings.
        let full = s.search_with_opts(&q, &FULL_SCAN);
        assert!(full.psms.is_empty());
        assert!(full.stats.postings_scanned > 0);
    }

    #[test]
    fn open_search_admits_heavier_candidates() {
        let d = db(&["PEPTIDEK", "PEPTIDEKGGGGGGGGK"]);
        let idx = IndexBuilder::new(SlmConfig::default(), ModSpec::none()).build(&d);
        let mut s = Searcher::new(&idx);
        let r = s.search(&perfect_query(b"PEPTIDEK"));
        let peptides: Vec<u32> = r.psms.iter().map(|p| p.peptide).collect();
        assert!(
            peptides.contains(&0) && peptides.contains(&1),
            "{peptides:?}"
        );
    }

    #[test]
    fn scratch_resets_between_queries() {
        let d = db(&["ELVISLIVESK", "PEPTIDEK"]);
        let idx = IndexBuilder::new(SlmConfig::default(), ModSpec::none()).build(&d);
        let mut s = Searcher::new(&idx);
        let r1 = s.search(&perfect_query(b"PEPTIDEK"));
        let r2 = s.search(&perfect_query(b"PEPTIDEK"));
        assert_eq!(r1, r2);
    }

    #[test]
    fn scratch_recycles_across_band_widths() {
        // Alternating closed (narrow band) and open-ish (whole index)
        // queries through one scratch: band-relative indexing must never
        // leak counts between bands.
        let d = db(&["GGGGGK", "PEPTIDEK", "ELVISLIVESK", "WWWWWWK"]);
        let cfg = SlmConfig::default().with_precursor_tolerance(1.0);
        let idx = IndexBuilder::new(cfg, ModSpec::none()).build(&d);
        let wide_cfg = SlmConfig::default().with_precursor_tolerance(10_000.0);
        let wide = IndexBuilder::new(wide_cfg, ModSpec::none()).build(&d);
        let mut scratch = SearchScratch::default();
        for _ in 0..3 {
            for seq in [&b"PEPTIDEK"[..], b"GGGGGK", b"ELVISLIVESK"] {
                let q = perfect_query(seq);
                let mut s1 = Searcher::with_scratch(&idx, scratch);
                let narrow1 = s1.search(&q);
                let narrow2 = s1.search(&q);
                assert_eq!(narrow1, narrow2, "dirty scratch within searcher");
                scratch = s1.into_scratch();
                let mut s2 = Searcher::with_scratch(&wide, scratch);
                let fresh = Searcher::new(&wide).search(&q);
                assert_eq!(s2.search(&q), fresh, "dirty scratch across indexes");
                scratch = s2.into_scratch();
            }
        }
    }

    #[test]
    fn every_band_shape_hands_back_clean_scratch() {
        // `with_scratch` checks the recycling invariant with a
        // `debug_assert!`; this holds the sweep to it with a plain
        // `assert!`, after bands that are whole sweep chunks plus a
        // remainder (∞, ±300 Da), narrower than one chunk (±1 Da) and
        // empty — most hit slots staying below the default threshold of 4.
        const RESIDUES: &[u8] = b"ACDEFGHILMNPQSTVWY";
        let seqs: Vec<String> = (0..150usize)
            .map(|i| {
                let mut seq: Vec<u8> = (0..6 + i % 7)
                    .map(|j| RESIDUES[(i * 7 + j * (i % 5 + 1)) % RESIDUES.len()])
                    .collect();
                seq.push(b'K');
                String::from_utf8(seq).unwrap()
            })
            .collect();
        let refs: Vec<&str> = seqs.iter().map(String::as_str).collect();
        let d = db(&refs);
        let idx = IndexBuilder::new(SlmConfig::default(), ModSpec::none()).build(&d);
        let entries = idx.num_spectra() as u32;
        assert!(entries > 128, "index spans several sweep chunks");
        let mut scratch = SearchScratch::default();
        let mut widths = Vec::new();
        for seq in [&seqs[3], &seqs[77], &seqs[149]] {
            let q = perfect_query(seq.as_bytes());
            for tol in [f64::INFINITY, 1.0, 300.0, 1e-9, f64::INFINITY] {
                let m = q.precursor_neutral_mass();
                let (lo, hi) = idx.entry_range_for_mass_band(m - tol, m + tol);
                widths.push(hi - lo);
                let opts = QueryOptions {
                    precursor_tolerance: Some(tol),
                    ..Default::default()
                };
                let mut s = Searcher::with_scratch(&idx, scratch);
                let r = s.search_with_opts(&q, &opts);
                assert!(r.stats.postings_scanned > 0 || tol < 1.0);
                scratch = s.into_scratch();
                assert!(scratch.is_clean(), "{seq} at ΔM {tol} left counts behind");
            }
        }
        assert!(
            widths.iter().any(|&w| w > 32 && w < entries && w % 32 != 0),
            "no finite band wider than a sweep chunk with a remainder: {widths:?}"
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "non-zero counters")]
    fn poisoned_scratch_is_caught_on_recycle() {
        // Violate the invariant deliberately: a scratch with a leftover
        // count must be rejected at the hand-off, not silently corrupt the
        // next query's shared-peak counts.
        let d = db(&["PEPTIDEK"]);
        let idx = IndexBuilder::new(SlmConfig::default(), ModSpec::none()).build(&d);
        let poisoned = SearchScratch {
            slots: vec![
                scan::Slot::default(),
                scan::Slot::new(3, 0.0),
                scan::Slot::default(),
            ],
            ..Default::default()
        };
        let _ = Searcher::with_scratch(&idx, poisoned);
    }

    #[test]
    fn empty_spectrum_matches_nothing() {
        let d = db(&["PEPTIDEK"]);
        let idx = IndexBuilder::new(SlmConfig::default(), ModSpec::none()).build(&d);
        let mut s = Searcher::new(&idx);
        let r = s.search(&Spectrum::new(0, 500.0, 2, vec![]));
        assert!(r.psms.is_empty());
        assert_eq!(r.stats.peaks, 0);
    }

    #[test]
    fn top_k_truncates_but_candidates_counted() {
        let seqs: Vec<String> = (0..20)
            .map(|i| format!("PEPTIDEK{}K", "G".repeat(i % 3 + 1)))
            .collect();
        let refs: Vec<&str> = seqs.iter().map(String::as_str).collect();
        let d = db(&refs);
        let cfg = SlmConfig {
            top_k: 3,
            shared_peak_threshold: 2,
            ..Default::default()
        };
        let idx = IndexBuilder::new(cfg, ModSpec::none()).build(&d);
        let mut s = Searcher::new(&idx);
        let r = s.search(&perfect_query(b"PEPTIDEKGK"));
        assert!(r.psms.len() <= 3);
        assert!(r.stats.candidates >= r.psms.len() as u64);
    }

    #[test]
    fn bounded_top_k_equals_sort_and_truncate() {
        // The heap selection must reproduce the reference "sort everything,
        // truncate" ranking exactly, for every k.
        let seqs: Vec<String> = (0..30)
            .map(|i| format!("PEPTIDE{}K", "AG".repeat(i % 5 + 1)))
            .collect();
        let refs: Vec<&str> = seqs.iter().map(String::as_str).collect();
        let d = db(&refs);
        let cfg = SlmConfig {
            top_k: usize::MAX,
            shared_peak_threshold: 1,
            ..Default::default()
        };
        let idx = IndexBuilder::new(cfg.clone(), ModSpec::none()).build(&d);
        let mut s = Searcher::new(&idx);
        let q = perfect_query(b"PEPTIDEAGK");
        let all = s.search(&q).psms;
        let mut reference = all.clone();
        reference.sort_by(rank_cmp);
        assert_eq!(all, reference, "unbounded path is rank-sorted");
        for k in [0usize, 1, 2, 3, 7, all.len(), all.len() + 5] {
            let cfg_k = SlmConfig {
                top_k: k,
                ..cfg.clone()
            };
            let idx_k = IndexBuilder::new(cfg_k, ModSpec::none()).build(&d);
            let mut sk = Searcher::new(&idx_k);
            let got = sk.search(&q).psms;
            let want: Vec<Psm> = reference.iter().copied().take(k).collect();
            assert_eq!(got, want, "k = {k}");
        }
    }

    #[test]
    fn nan_intensity_peaks_cannot_panic_the_sort() {
        // Crafted/corrupt inputs can carry NaN intensities. Preprocessing
        // clamps them (see lbe_spectra::preprocess), but the kernel must
        // also survive a raw spectrum that bypassed preprocessing: the
        // ranking is a total order, so the search completes.
        let d = db(&["PEPTIDEK", "ELVISLIVESK"]);
        let idx = IndexBuilder::new(SlmConfig::default(), ModSpec::none()).build(&d);
        let mut q = perfect_query(b"PEPTIDEK");
        for p in q.peaks.iter_mut().step_by(2) {
            p.intensity = f32::NAN;
        }
        let mut s = Searcher::new(&idx);
        let r = s.search(&q); // must not panic
        assert!(!r.psms.is_empty());
        // And repeated searches stay deterministic despite the NaNs.
        assert_eq!(r, s.search(&q));
    }

    #[test]
    fn counts_match_brute_force_on_synthetic_queries() {
        let d = db(&[
            "ELVISLIVESK",
            "PEPTIDEK",
            "SAMPLERK",
            "MNKQMGGR",
            "AAAGGGKR",
        ]);
        let cfg = SlmConfig {
            shared_peak_threshold: 1,
            top_k: usize::MAX,
            ..Default::default()
        };
        let idx = IndexBuilder::new(cfg.clone(), ModSpec::none()).build(&d);
        let queries = SyntheticDataset::generate(
            &d,
            &ModSpec::none(),
            &SyntheticDatasetParams {
                num_spectra: 20,
                ..Default::default()
            },
            99,
        );
        let mut s = Searcher::new(&idx);
        for q in &queries.spectra {
            let r = s.search(q);
            for (pid, pep) in d.iter() {
                let theo = TheoSpectrum::from_sequence(
                    pep.sequence(),
                    &ModForm::unmodified(),
                    &ModSpec::none(),
                    &cfg.theo,
                );
                let expect = brute_force_shared_peaks(&cfg, q, &theo);
                let got = r
                    .psms
                    .iter()
                    .find(|p| p.peptide == pid)
                    .map(|p| p.shared_peaks)
                    .unwrap_or(0);
                assert_eq!(got, expect, "peptide {pid} on scan {}", q.scan);
            }
        }
    }

    #[test]
    fn stats_count_work() {
        let d = db(&["PEPTIDEK"]);
        let idx = IndexBuilder::new(SlmConfig::default(), ModSpec::none()).build(&d);
        let mut s = Searcher::new(&idx);
        let q = perfect_query(b"PEPTIDEK");
        let r = s.search(&q);
        assert_eq!(r.stats.peaks, q.peaks.len() as u64);
        assert!(r.stats.bins_touched >= r.stats.peaks);
        assert!(r.stats.postings_scanned >= 14);
    }

    #[test]
    fn batch_accumulates_stats() {
        let d = db(&["PEPTIDEK", "ELVISLIVESK"]);
        let idx = IndexBuilder::new(SlmConfig::default(), ModSpec::none()).build(&d);
        let mut s = Searcher::new(&idx);
        let qs = vec![perfect_query(b"PEPTIDEK"), perfect_query(b"ELVISLIVESK")];
        let (results, total) = s.search_batch(&qs);
        assert_eq!(results.len(), 2);
        let sum: u64 = results.iter().map(|r| r.stats.postings_scanned).sum();
        assert_eq!(total.postings_scanned, sum);
    }

    #[test]
    fn tolerance_override_equals_index_built_with_that_tolerance() {
        // A per-request ΔM on an open-built index must admit (and band)
        // exactly what an index *built* closed at that ΔM does — down to
        // the work counters, since both feed the same interval expressions
        // into the band binary search.
        let d = db(&["GGGGGK", "PEPTIDEK", "PEPTIDEKGGGGGGK", "ELVISLIVESK"]);
        let open = IndexBuilder::new(SlmConfig::default(), ModSpec::none()).build(&d);
        let closed = IndexBuilder::new(
            SlmConfig::default().with_precursor_tolerance(1.0),
            ModSpec::none(),
        )
        .build(&d);
        let opts = QueryOptions {
            precursor_tolerance: Some(1.0),
            ..Default::default()
        };
        let mut so = Searcher::new(&open);
        let mut sc = Searcher::new(&closed);
        for seq in [&b"PEPTIDEK"[..], b"GGGGGK", b"ELVISLIVESK"] {
            let q = perfect_query(seq);
            assert_eq!(so.search_with_opts(&q, &opts), sc.search(&q), "{seq:?}");
            // And an explicit open override on the closed index recovers
            // the open-search behaviour.
            let reopen = QueryOptions {
                precursor_tolerance: Some(f64::INFINITY),
                ..Default::default()
            };
            assert_eq!(sc.search_with_opts(&q, &reopen).psms, so.search(&q).psms);
        }
    }

    #[test]
    fn top_k_override_equals_index_built_with_that_top_k() {
        let seqs: Vec<String> = (0..20)
            .map(|i| format!("PEPTIDE{}K", "AG".repeat(i % 5 + 1)))
            .collect();
        let refs: Vec<&str> = seqs.iter().map(String::as_str).collect();
        let d = db(&refs);
        let base = SlmConfig {
            shared_peak_threshold: 1,
            ..Default::default()
        };
        let idx = IndexBuilder::new(base.clone(), ModSpec::none()).build(&d);
        let q = perfect_query(b"PEPTIDEAGK");
        for k in [0usize, 1, 3, 7] {
            let rebuilt = IndexBuilder::new(
                SlmConfig {
                    top_k: k,
                    ..base.clone()
                },
                ModSpec::none(),
            )
            .build(&d);
            let opts = QueryOptions {
                top_k: Some(k),
                ..Default::default()
            };
            assert_eq!(
                Searcher::new(&idx).search_with_opts(&q, &opts).psms,
                Searcher::new(&rebuilt).search(&q).psms,
                "k = {k}"
            );
        }
    }

    #[test]
    fn modified_spectrum_found_via_modform() {
        let spec = ModSpec::oxidation_only();
        let d = db(&["AMSAMPLEK"]);
        let idx = IndexBuilder::new(SlmConfig::default(), spec.clone()).build(&d);
        // Build a query from the oxidized form.
        let forms = lbe_bio::mods::enumerate_modforms(b"AMSAMPLEK", &spec);
        let ox = forms.iter().position(|f| f.num_mods() == 1).unwrap();
        let theo =
            TheoSpectrum::from_sequence(b"AMSAMPLEK", &forms[ox], &spec, &TheoParams::default());
        let peaks = theo
            .fragment_mzs
            .iter()
            .map(|&m| Peak::new(m, 50.0))
            .collect();
        let q = Spectrum::new(
            0,
            lbe_bio::aa::precursor_mz(theo.precursor_mass, 2),
            2,
            peaks,
        );
        let mut s = Searcher::new(&idx);
        let r = s.search(&q);
        assert_eq!(r.psms[0].modform as usize, ox);
        assert_eq!(r.psms[0].shared_peaks as usize, theo.fragment_count());
    }

    /// The counters both arms report alike: all but the two that tell
    /// them apart.
    fn shared_counters(s: QueryStats) -> QueryStats {
        QueryStats {
            bins_pruned_by_band: 0,
            entries_scored_directly: 0,
            ..s
        }
    }

    /// Every PSM field, the score as bits.
    fn psm_bits(psms: &[Psm]) -> Vec<(u32, u32, u16, u16, u32)> {
        psms.iter()
            .map(|p| {
                let bits = p.score.to_bits();
                (p.entry, p.peptide, p.modform, p.shared_peaks, bits)
            })
            .collect()
    }

    /// Peptides for the direct-arm tests: random ones rich in modifiable
    /// residues (so modform ordinals run past the first few), and
    /// positional isomers — `M` or `N` at two places, one modified — whose
    /// modforms of one modification have equal masses and different
    /// sites.
    fn direct_arm_db() -> PeptideDb {
        const RESIDUES: &[u8] = b"ACDEGHILMNPQSTVWYK";
        let mut state = 0x2545_F491u32;
        let mut next = |n: usize| {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (state >> 8) as usize % n
        };
        let mut seqs: Vec<String> = (0..90)
            .map(|_| {
                let len = 6 + next(14);
                let mut seq: Vec<u8> = (0..len).map(|_| RESIDUES[next(RESIDUES.len())]).collect();
                seq.push(b'K');
                String::from_utf8(seq).unwrap()
            })
            .collect();
        seqs.extend(["AMGGMSAK", "PEMTIDEMK", "NGASNLLK", "SAMPLERMAK"].map(String::from));
        let refs: Vec<&str> = seqs.iter().map(String::as_str).collect();
        db(&refs)
    }

    /// The direct arm, forced on bands of 0, 1, [`DIRECT_MAX_ENTRIES`],
    /// one more and 67 entries, against the posting walk (the same index
    /// without its peptide table) and the full scan: every PSM field and
    /// score bit, and every counter but the two that tell the arms apart.
    /// Shared-peak thresholds 0 (the floor of 1), 1 and 4, top-k bounded
    /// and not, peaks in m/z order and out of it, a mapped searcher, and
    /// an axis that ends inside the fragments. One searcher's scratch
    /// serves every case.
    #[test]
    fn direct_arm_equals_the_posting_walk_and_the_full_scan() {
        let d = direct_arm_db();
        let spec = ModSpec {
            max_modforms_per_peptide: 64,
            ..ModSpec::paper_default()
        };
        let gids: Vec<u32> = (0..d.len() as u32).map(|p| 5000 - 3 * p).collect();
        let (mut isomer_bands, mut arm_scored, mut edge_peaks) = (0, 0, 0);
        for max_fragment_mz in [2000.0, 650.0] {
            for threshold in [0u16, 1, 4] {
                let cfg = SlmConfig {
                    max_fragment_mz,
                    shared_peak_threshold: threshold,
                    top_k: usize::MAX,
                    ..SlmConfig::default()
                };
                let mut builder = IndexBuilder::new(cfg.clone(), spec.clone());
                let idx = builder.build(&d);
                if max_fragment_mz < 1000.0 {
                    assert!(builder.stats().dropped_fragments > 0);
                }
                let walked = idx.clone().without_peptides();
                let entries = idx.entries();
                let n = entries.len();
                assert!(n > 67 * 2, "{n} entries");
                let mass = |e: usize| entries[e].precursor_mass as f64;
                let mut arm = Searcher::new(&idx);
                let mut arm_mapped =
                    Searcher::with_scratch_mapped(&idx, SearchScratch::default(), &gids);
                for width in [
                    0usize,
                    1,
                    DIRECT_MAX_ENTRIES as usize,
                    DIRECT_MAX_ENTRIES as usize + 1,
                    67,
                ] {
                    // Bands of exactly `width` entries, at three places.
                    let starts = (1..n - width - 1).filter(|&lo| {
                        let gap_below = mass(lo) - mass(lo - 1);
                        let gap_above = mass(lo + width) - mass((lo + width).max(1) - 1);
                        gap_below > 1e-3 && gap_above > 1e-3
                    });
                    let starts: Vec<usize> = starts.collect();
                    assert!(starts.len() >= 3, "no band of {width} entries");
                    for &lo in &[
                        starts[0],
                        starts[starts.len() / 2],
                        starts[starts.len() - 1],
                    ] {
                        // The band's entries, or for an empty band the
                        // gap below `lo`: centre and half-width.
                        let (m_lo, m_hi) = match width {
                            0 => (mass(lo - 1) + 1e-4, mass(lo) - 1e-4),
                            _ => (mass(lo), mass(lo + width - 1)),
                        };
                        // Peaks: one band entry's fragments (else entry
                        // `lo`'s), intensities of varied magnitude so that
                        // the order of the adds shows in the bits, half
                        // another entry's, and a peak at the axis edge.
                        let target = entries[lo + width / 2];
                        let form = &lbe_bio::mods::enumerate_modforms(
                            d.get(target.peptide).sequence(),
                            &spec,
                        )[target.modform as usize];
                        let theo = TheoSpectrum::from_sequence(
                            d.get(target.peptide).sequence(),
                            form,
                            &spec,
                            &cfg.theo,
                        );
                        let other = entries[(lo + 7) % n];
                        let other_theo = TheoSpectrum::from_sequence(
                            d.get(other.peptide).sequence(),
                            &ModForm::unmodified(),
                            &spec,
                            &cfg.theo,
                        );
                        let mut peaks: Vec<Peak> = theo
                            .fragment_mzs
                            .iter()
                            .chain(other_theo.fragment_mzs.iter().step_by(2))
                            .enumerate()
                            .map(|(k, &mz)| Peak::new(mz, 0.1 + (k * k % 97) as f32 * 13.7))
                            .collect();
                        peaks.push(Peak::new(max_fragment_mz - 0.01, 3.3));
                        let mut sorted = peaks.clone();
                        sorted.sort_by(|a, b| a.mz.total_cmp(&b.mz));
                        for peaks in [peaks, sorted] {
                            let q = Spectrum::new(
                                0,
                                lbe_bio::aa::precursor_mz(0.5 * (m_lo + m_hi), 2),
                                2,
                                peaks,
                            );
                            let qm = q.precursor_neutral_mass();
                            let tol = (qm - m_lo).max(m_hi - qm) + 1e-6;
                            let (blo, bhi) = idx.entry_range_for_mass_band(qm - tol, qm + tol);
                            assert_eq!((blo as usize, (bhi - blo) as usize), (lo, width));
                            edge_peaks += q
                                .peaks
                                .iter()
                                .filter(|p| {
                                    cfg.bin_of(p.mz)
                                        .is_some_and(|b| b + 5 >= cfg.num_bins() as u32)
                                })
                                .count();
                            for top_k in [None, Some(3)] {
                                let opts = QueryOptions {
                                    top_k,
                                    precursor_tolerance: Some(tol),
                                    ..Default::default()
                                };
                                let at = format!(
                                    "axis {max_fragment_mz}, threshold {threshold}, band {lo}+{width}, top {top_k:?}"
                                );
                                let walk = Searcher::new(&walked).search_with_opts(&q, &opts);
                                let full = Searcher::new(&walked).search_with_opts(
                                    &q,
                                    &QueryOptions {
                                        scan_mode: ScanMode::FullScan,
                                        ..opts
                                    },
                                );
                                let got = arm.search_with_cut(&q, &opts, u32::MAX);
                                assert_eq!(psm_bits(&got.psms), psm_bits(&walk.psms), "{at}");
                                assert_eq!(psm_bits(&full.psms), psm_bits(&walk.psms), "{at}");
                                assert_eq!(
                                    shared_counters(got.stats),
                                    shared_counters(walk.stats),
                                    "{at}"
                                );
                                assert_eq!(got.stats.candidates, full.stats.candidates, "{at}");
                                assert_eq!(got.stats.entries_scored_directly, width as u64, "{at}");
                                assert_eq!(got.stats.bins_pruned_by_band, 0, "{at}");
                                assert_eq!(walk.stats.entries_scored_directly, 0, "{at}");
                                arm_scored += got.psms.len();

                                // The default cut: the arm up to
                                // DIRECT_MAX_ENTRIES entries, the walk above.
                                let auto = Searcher::new(&idx).search_with_opts(&q, &opts);
                                let chosen = if width <= DIRECT_MAX_ENTRIES as usize {
                                    got.stats
                                } else {
                                    walk.stats
                                };
                                assert_eq!(auto.stats, chosen, "{at}");
                                assert_eq!(psm_bits(&auto.psms), psm_bits(&walk.psms), "{at}");

                                let walk_mapped = Searcher::with_scratch_mapped(
                                    &walked,
                                    SearchScratch::default(),
                                    &gids,
                                )
                                .search_with_opts(&q, &opts);
                                let got_mapped = arm_mapped.search_with_cut(&q, &opts, u32::MAX);
                                assert_eq!(
                                    psm_bits(&got_mapped.psms),
                                    psm_bits(&walk_mapped.psms),
                                    "{at}, mapped"
                                );
                                assert_eq!(got_mapped.stats, got.stats, "{at}, mapped");
                            }
                        }
                        // Positional isomers in one band: equal masses,
                        // different sites, so different fragments.
                        let band = &entries[lo..lo + width];
                        isomer_bands += band
                            .windows(2)
                            .filter(|w| {
                                w[0].precursor_mass == w[1].precursor_mass
                                    && w[0].peptide == w[1].peptide
                                    && w[0].modform != w[1].modform
                            })
                            .count();
                    }
                }
                assert!(arm.into_scratch().is_clean());
                assert!(arm_mapped.into_scratch().is_clean());
            }
        }
        assert!(isomer_bands > 0, "no band held two positional isomers");
        assert!(arm_scored > 0, "the arm found no candidate");
        assert!(edge_peaks > 0, "no peak window at the axis edge");
    }

    /// Bin sizes of [`sized_bin_index`]'s occupied bins, cycled: both sides
    /// of `scan::prefetch_search_path`'s 16-posting rule, and bins far
    /// longer than its eight search-path lines.
    const BIN_SIZES: [usize; 12] = [1, 15, 16, 17, 230, 2, 40, 16, 1, 17, 15, 300];
    /// First occupied bin of the dense region (m/z 500): bins 3 apart, so
    /// an 11-bin tolerance window holds three or four of them.
    const DENSE_BIN: u32 = 50_000;
    const DENSE_BINS: u32 = 48;
    /// First occupied bin of the sparse region (m/z 1000): bins 20 apart,
    /// so a window holds exactly one.
    const SPARSE_BIN: u32 = 100_000;
    const SPARSE_BINS: u32 = 8;

    /// An index assembled from parts so that every bin's size is chosen,
    /// not left to fragment chemistry: 600 entries 2 Da apart from 800 Da
    /// (entry id = peptide id = mass rank), each bin a sorted multiset of
    /// pseudo-random entry ids.
    fn sized_bin_index() -> SlmIndex {
        let cfg = SlmConfig {
            shared_peak_threshold: 2,
            top_k: 5,
            ..SlmConfig::default()
        };
        let num_entries = 600u32;
        let bins = (0..DENSE_BINS)
            .map(|j| DENSE_BIN + 3 * j)
            .chain((0..SPARSE_BINS).map(|j| SPARSE_BIN + 20 * j));
        let mut sizes = vec![0u32; cfg.num_bins()];
        let mut postings = Vec::new();
        let mut state = 0x9E37_79B9u32;
        for (j, bin) in bins.enumerate() {
            let mut run: Vec<u32> = (0..BIN_SIZES[j % BIN_SIZES.len()])
                .map(|_| {
                    state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                    (state >> 8) % num_entries
                })
                .collect();
            run.sort_unstable();
            sizes[bin as usize] = run.len() as u32;
            postings.extend(run);
        }
        let mut dense = vec![0u32];
        dense.extend(sizes.iter().scan(0u32, |acc, &n| {
            *acc += n;
            Some(*acc)
        }));
        let dir = crate::bindir::tests::from_dense(&dense).unwrap();
        let mut fragments = vec![0u16; num_entries as usize];
        for &e in &postings {
            fragments[e as usize] += 1;
        }
        let entries = (0..num_entries)
            .map(|i| crate::slm::SpectrumEntry {
                peptide: i,
                modform: 0,
                num_fragments: fragments[i as usize],
                precursor_mass: 800.0 + 2.0 * i as f32,
            })
            .collect();
        let idx = SlmIndex::from_parts(cfg, entries, dir, postings);
        idx.validate().unwrap();
        idx
    }

    /// How the band resolved the occupied bins a reference search met:
    /// pruned whole, accepted whole, cut to a non-empty run, cut to empty;
    /// and the largest bin cut.
    #[derive(Default)]
    struct BandShapes {
        pruned: u64,
        accepted: u64,
        cut: u64,
        cut_to_empty: u64,
        largest_cut: usize,
    }

    /// Per-bin reference of the banded kernel: each peak's in-band postings
    /// from [`SlmIndex::for_postings_near_in_entry_band`], accumulated in
    /// (peak, bin, posting) order — the kernel's order, so the intensity
    /// sums and scores agree to the bit — and each occupied bin classified
    /// off its own posting list. Returns the ranked PSMs, the stats and the
    /// number of occupied bins met (the kernel's collected run count).
    fn per_bin_reference(
        idx: &SlmIndex,
        q: &Spectrum,
        tol: f64,
        shapes: &mut BandShapes,
    ) -> (Vec<Psm>, QueryStats, usize) {
        let cfg = idx.config();
        let m = q.precursor_neutral_mass();
        let (lo, hi) = idx.entry_range_for_mass_band(m - tol, m + tol);
        assert!(
            band_coverage(hi - lo, idx.num_spectra() as u32) < AUTO_FULL_SCAN_COVERAGE,
            "ΔM {tol} would leave the banded path"
        );
        let mut count = vec![0u16; idx.num_spectra()];
        let mut matched = vec![0f32; idx.num_spectra()];
        let mut stats = QueryStats {
            peaks: q.peaks.len() as u64,
            ..Default::default()
        };
        let mut runs = 0;
        for peak in &q.peaks {
            let (bins, skipped) = idx.for_postings_near_in_entry_band(peak.mz, lo, hi, |e| {
                count[e as usize] += 1;
                matched[e as usize] += peak.intensity;
                stats.postings_scanned += 1;
            });
            stats.bins_touched += bins as u64;
            stats.postings_skipped_by_band += skipped;
            let Some((blo, bhi)) = idx.bins_for_mz(peak.mz) else {
                continue;
            };
            for bin in blo..=bhi {
                let run = idx.bin_postings(bin);
                let (Some(&first), Some(&last)) = (run.first(), run.last()) else {
                    continue;
                };
                runs += 1;
                let admitted = run.iter().filter(|&&e| (lo..hi).contains(&e)).count();
                if last < lo || first >= hi {
                    stats.bins_pruned_by_band += 1;
                    shapes.pruned += 1;
                } else if first >= lo && last < hi {
                    shapes.accepted += 1;
                } else if admitted > 0 {
                    shapes.cut += 1;
                    shapes.largest_cut = shapes.largest_cut.max(run.len());
                } else {
                    shapes.cut_to_empty += 1;
                }
            }
        }
        let mut psms: Vec<Psm> = (lo..hi)
            .filter(|&e| count[e as usize] >= cfg.shared_peak_threshold)
            .filter(|&e| {
                SlmConfig::precursor_admits_with(tol, m, idx.entry(e).precursor_mass as f64)
            })
            .map(|e| {
                let meta = idx.entry(e);
                Psm {
                    entry: e,
                    peptide: meta.peptide,
                    modform: meta.modform,
                    shared_peaks: count[e as usize],
                    score: score(count[e as usize], matched[e as usize]),
                }
            })
            .collect();
        stats.candidates = psms.len() as u64;
        psms.sort_by(rank_cmp);
        psms.truncate(cfg.top_k);
        (psms, stats, runs)
    }

    #[test]
    fn resolved_runs_match_per_bin_reference() {
        let idx = sized_bin_index();
        let bin_mz = |bin: u32| bin as f64 * idx.config().resolution;
        // Intensities differ per peak, so a run resolved with another
        // peak's weight changes the score bits.
        let peak = |k: usize, bin: u32| Peak::new(bin_mz(bin), 1.0 + 0.37 * k as f32);
        let dense: Vec<Peak> = (0..DENSE_BINS)
            .step_by(2)
            .map(|j| DENSE_BIN + 3 * j)
            .chain((0..SPARSE_BINS).map(|j| SPARSE_BIN + 20 * j))
            .enumerate()
            .map(|(k, bin)| peak(k, bin))
            .collect();
        let sparse = |n: u32| -> Vec<Peak> {
            (0..n)
                .map(|j| peak(j as usize, SPARSE_BIN + 20 * j))
                .collect()
        };
        let peak_sets = [
            dense,
            vec![],
            // A window on the axis that holds no occupied bin.
            vec![Peak::new(bin_mz(DENSE_BIN - 100), 2.0)],
            sparse(1),
            sparse(2),
            sparse(RESOLVE_AHEAD as u32 - 1),
        ];
        let mut shapes = BandShapes::default();
        let mut runs_seen = Vec::new();
        let mut s = Searcher::new(&idx);
        for peaks in &peak_sets {
            for center in [0u32, 37, 150, 299, 450, 599] {
                // On an entry's mass, and halfway to the next one (so the
                // narrowest band admits no entry at all).
                for offset in [0.0, 1.0] {
                    let mass = 800.0 + 2.0 * center as f64 + offset;
                    let q = Spectrum::new(0, lbe_bio::aa::precursor_mz(mass, 2), 2, peaks.clone());
                    for tol in [0.4, 3.0, 21.0, 90.0, 400.0] {
                        let (want, want_stats, runs) =
                            per_bin_reference(&idx, &q, tol, &mut shapes);
                        runs_seen.push(runs);
                        let opts = QueryOptions {
                            precursor_tolerance: Some(tol),
                            ..Default::default()
                        };
                        let got = s.search_with_opts(&q, &opts);
                        let ctx = format!("{} peaks, mass {mass}, ΔM {tol}", peaks.len());
                        assert_eq!(got.stats, want_stats, "{ctx}");
                        let bits = |p: &[Psm]| -> Vec<(u32, u32, u16, u16, u32)> {
                            p.iter()
                                .map(|p| {
                                    (
                                        p.entry,
                                        p.peptide,
                                        p.modform,
                                        p.shared_peaks,
                                        p.score.to_bits(),
                                    )
                                })
                                .collect()
                        };
                        assert_eq!(bits(&got.psms), bits(&want), "{ctx}");
                    }
                }
            }
        }
        // The sweep met every shape it exists to hold the kernel to.
        assert!(runs_seen.iter().any(|&r| r > 3 * RESOLVE_AHEAD));
        for want in 0..RESOLVE_AHEAD {
            assert!(
                runs_seen.contains(&want),
                "no query with {want} occupied bins"
            );
        }
        assert!(shapes.pruned > 0 && shapes.accepted > 0);
        assert!(shapes.cut > 0 && shapes.cut_to_empty > 0);
        assert!(shapes.largest_cut >= 200, "no band cut a 200+ posting bin");
    }
}
