//! Criterion: banded (precursor-filtered) vs full-scan query kernel.
//!
//! The PR-5 acceptance bench, extended for the round-2 kernel: on a
//! synthetic paper-profile partition, a closed search through the banded
//! kernel must scan a small fraction of the postings the full-bin kernel
//! touches (≥ 5× fewer at 1 Da; orders of magnitude at ppm-level windows)
//! and win wall clock; an open ±500 Da search must additionally show the
//! fragment-level band dismissing whole bins in O(1); and `ScanMode::Auto`
//! must never lose to an explicit full scan — at ΔM = ∞ (same code path)
//! and at a finite-but-enormous ΔM (the coverage heuristic routes to the
//! full-scan path). Both modes return identical PSMs (asserted here on
//! every workload before timing anything).
//!
//! Timing is **interleaved min-of-rounds**: each round runs both modes
//! back to back and the per-mode minimum over rounds is reported. On a
//! noisy shared box the minimum estimates the undisturbed cost of each
//! path far more stably than independent medians — and the `open_inf`
//! no-regression assertion depends on comparing the two paths under the
//! same conditions.
//!
//! Besides the criterion timings, a run of this bench records the measured
//! counters and wall clocks in `BENCH_query.json` at the workspace root —
//! the numbers quoted in README's "Banded query kernel" table.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use lbe_bench::build_workload;
use lbe_bio::mods::ModSpec;
use lbe_index::{IndexBuilder, QueryOptions, QueryStats, ScanMode, Searcher, SlmConfig, SlmIndex};
use lbe_spectra::spectrum::Spectrum;
use std::fmt::Write as _;
use std::time::Instant;

/// One tolerance point of the sweep: label + ΔM in Daltons.
const SWEEP: &[(&str, f64)] = &[
    // ~10 ppm at 1 kDa — the ppm-style closed search of §II-A.
    ("closed_10ppm", 0.01),
    // The acceptance point: a wide-but-closed 1 Da window.
    ("closed_1da", 1.0),
    // Open-mod search à la MSFragger: ±500 Da still bands usefully (and
    // exercises the fragment-level band's whole-bin prune/accept).
    ("open_500da", 500.0),
    // Band covers every entry: the Auto coverage heuristic must route to
    // the full-scan path instead of paying admission overhead.
    ("open_10kda_heuristic", 10_000.0),
    // Fully open (ΔM = ∞): Auto takes the full-bin path outright.
    ("open_inf", f64::INFINITY),
];

/// Index-default options under an explicit scan mode.
fn opts(scan_mode: ScanMode) -> QueryOptions {
    QueryOptions {
        scan_mode,
        ..Default::default()
    }
}

fn batch_stats(index: &SlmIndex, queries: &[Spectrum], mode: ScanMode) -> QueryStats {
    let mut s = Searcher::new(index);
    s.search_batch_with_opts(queries, &opts(mode)).1
}

/// Interleaved min-of-rounds wall clock of one whole-batch search in each
/// mode, in seconds: `(auto, full_scan)`. One untimed warm-up round heats
/// the page cache and branch predictors for both paths.
fn time_batch_pair(index: &SlmIndex, queries: &[Spectrum], rounds: usize) -> (f64, f64) {
    let mut s = Searcher::new(index);
    black_box(s.search_batch_with_opts(black_box(queries), &opts(ScanMode::Auto)));
    black_box(s.search_batch_with_opts(black_box(queries), &opts(ScanMode::FullScan)));
    let (mut t_auto, mut t_full) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..rounds {
        let t0 = Instant::now();
        black_box(s.search_batch_with_opts(black_box(queries), &opts(ScanMode::Auto)));
        t_auto = t_auto.min(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        black_box(s.search_batch_with_opts(black_box(queries), &opts(ScanMode::FullScan)));
        t_full = t_full.min(t0.elapsed().as_secs_f64());
    }
    (t_auto, t_full)
}

fn bench_query_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("query_kernel");
    group.sample_size(10);

    // A paper-profile partition: variable mods multiply the entry table
    // (the paper grows its 18M→49.45M sweep exactly this way), so the
    // precursor band is a thin slice of a dense mass axis.
    let w = build_workload(4_000, ModSpec::paper_default(), 64, 55);
    let queries = &w.queries;

    let mut json = String::from("{\n  \"bench\": \"query_kernel\",\n");
    let base = IndexBuilder::new(SlmConfig::default(), ModSpec::paper_default()).build(&w.db);
    let _ = writeln!(
        json,
        "  \"workload\": {{\"peptides\": {}, \"indexed_spectra\": {}, \"ions\": {}, \"queries\": {}}},",
        w.db.len(),
        base.num_spectra(),
        base.num_ions(),
        queries.len()
    );
    println!(
        "  (kernel corpus: {} peptides -> {} spectra, {} ions, {} queries)",
        w.db.len(),
        base.num_spectra(),
        base.num_ions(),
        queries.len()
    );
    let _ = writeln!(json, "  \"tolerances\": [");

    for (ti, &(label, tol)) in SWEEP.iter().enumerate() {
        let cfg = SlmConfig {
            precursor_tolerance: tol,
            ..SlmConfig::default()
        };
        let index = IndexBuilder::new(cfg, ModSpec::paper_default()).build(&w.db);

        // Semantics first: identical PSMs on every query, both paths.
        let mut s = Searcher::new(&index);
        for q in queries {
            let banded = s.search_with_opts(q, &opts(ScanMode::Auto));
            let full = s.search_with_opts(q, &opts(ScanMode::FullScan));
            assert_eq!(banded.psms, full.psms, "{label}: mode changed findings");
            assert_eq!(banded.stats.candidates, full.stats.candidates);
        }
        drop(s);

        let banded = batch_stats(&index, queries, ScanMode::Auto);
        let full = batch_stats(&index, queries, ScanMode::FullScan);
        if label == "open_10kda_heuristic" {
            // The band admits every entry at this ΔM, so the coverage
            // heuristic must have routed every query onto the full-scan
            // path: no admission bookkeeping at all.
            assert_eq!(
                banded.postings_skipped_by_band, 0,
                "heuristic failed to take the full-scan path"
            );
            assert_eq!(banded.bins_pruned_by_band, 0);
            assert_eq!(banded.postings_scanned, full.postings_scanned);
        }
        let (t_banded, t_full) = time_batch_pair(&index, queries, 9);
        if !tol.is_finite() || label == "open_10kda_heuristic" {
            // Satellite guarantee: Auto must never lose to an explicit
            // full scan — at ΔM = ∞ it *is* the full-scan path, and at
            // full band coverage the heuristic routes onto it, so any
            // deficit is pure noise. Allow 2% of that (this build box is a
            // shared-host VM whose minima still wobble ~1%); the old
            // regression this assertion pins against was 0.91.
            let ratio = t_full / t_banded;
            assert!(
                ratio >= 0.98,
                "{label}: Auto slower than full scan ({ratio:.3}x)"
            );
        }
        let reduction = full.postings_scanned as f64 / banded.postings_scanned.max(1) as f64;
        let pruned_fraction = banded.bins_pruned_by_band as f64 / banded.bins_touched.max(1) as f64;
        println!(
            "  {label:>20}: banded {:>12} scanned (+{} skipped, {} bins pruned) {:>8.2} ms | full {:>12} scanned {:>8.2} ms | {:.1}x fewer, {:.2}x faster",
            banded.postings_scanned,
            banded.postings_skipped_by_band,
            banded.bins_pruned_by_band,
            t_banded * 1e3,
            full.postings_scanned,
            t_full * 1e3,
            reduction,
            t_full / t_banded
        );
        let _ = writeln!(
            json,
            "    {{\"label\": \"{label}\", \"precursor_tolerance_da\": {}, \
             \"banded\": {{\"postings_scanned\": {}, \"postings_skipped_by_band\": {}, \
             \"bins_pruned_by_band\": {}, \"bins_pruned_fraction\": {:.4}, \"batch_seconds\": {:.6}}}, \
             \"full_scan\": {{\"postings_scanned\": {}, \"batch_seconds\": {:.6}}}, \
             \"scan_reduction_x\": {:.2}, \"wall_clock_speedup_x\": {:.2}}}{}",
            if tol.is_infinite() {
                "null".to_string()
            } else {
                format!("{tol}")
            },
            banded.postings_scanned,
            banded.postings_skipped_by_band,
            banded.bins_pruned_by_band,
            pruned_fraction,
            t_banded,
            full.postings_scanned,
            t_full,
            reduction,
            t_full / t_banded,
            if ti + 1 == SWEEP.len() { "" } else { "," }
        );

        group.bench_with_input(BenchmarkId::new("banded", label), &index, |b, index| {
            let mut s = Searcher::new(index);
            b.iter(|| {
                let (r, stats) =
                    s.search_batch_with_opts(black_box(queries), &opts(ScanMode::Auto));
                black_box((r.len(), stats.postings_scanned))
            })
        });
        group.bench_with_input(BenchmarkId::new("full_scan", label), &index, |b, index| {
            let mut s = Searcher::new(index);
            b.iter(|| {
                let (r, stats) =
                    s.search_batch_with_opts(black_box(queries), &opts(ScanMode::FullScan));
                black_box((r.len(), stats.postings_scanned))
            })
        });
    }
    let _ = writeln!(json, "  ],");

    // Fragment-level band telemetry at the paper-relevant open-mod point:
    // how much of the ±500 Da window's bin traffic the O(1) endpoint test
    // dismisses outright. (The wall clock of this configuration is the
    // `open_500da` row above; this block isolates the prune counters.)
    {
        let cfg = SlmConfig {
            precursor_tolerance: 500.0,
            ..SlmConfig::default()
        };
        let index = IndexBuilder::new(cfg, ModSpec::paper_default()).build(&w.db);
        let banded = batch_stats(&index, queries, ScanMode::Auto);
        let fraction = banded.bins_pruned_by_band as f64 / banded.bins_touched.max(1) as f64;
        println!(
            "  open_500da fragment band: {} / {} window bins pruned in O(1) ({:.1}%)",
            banded.bins_pruned_by_band,
            banded.bins_touched,
            fraction * 1e2
        );
        let _ = writeln!(
            json,
            "  \"open_500da_fragband\": {{\"bins_touched\": {}, \"bins_pruned_by_band\": {}, \
             \"bins_pruned_fraction\": {:.4}}}",
            banded.bins_touched, banded.bins_pruned_by_band, fraction
        );
    }
    let _ = writeln!(json, "}}");
    group.finish();

    // Record the measured numbers for README / regression eyeballing. The
    // path is the workspace root (this file lives in crates/bench).
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_query.json");
    if let Err(e) = std::fs::write(out, &json) {
        eprintln!("note: could not write {out}: {e}");
    } else {
        println!("  wrote {out}");
    }
}

criterion_group!(benches, bench_query_kernel);
criterion_main!(benches);
