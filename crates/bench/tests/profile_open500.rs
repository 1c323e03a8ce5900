//! Quick wall-clock probe for the ±500 Da open-search point — the one
//! sweep row where the kernel (not the band) is still the bound. Ignored
//! by default; run it when iterating on the scan kernel:
//!
//! ```sh
//! cargo test -p lbe-bench --release --test profile_open500 -- --ignored --nocapture
//! ```
//!
//! Reports the same interleaved min-of-rounds numbers as the
//! `query_kernel` bench but in seconds flat, without criterion's warmup.

use lbe_bench::build_workload;
use lbe_bio::mods::ModSpec;
use lbe_index::{IndexBuilder, QueryOptions, ScanMode, Searcher, SlmConfig};
use std::time::Instant;

fn time_auto(index: &lbe_index::SlmIndex, queries: &[lbe_spectra::spectrum::Spectrum]) -> f64 {
    let mut s = Searcher::new(index);
    s.search_batch(queries);
    let mut t = f64::INFINITY;
    for _ in 0..10 {
        let t0 = Instant::now();
        std::hint::black_box(s.search_batch(queries));
        t = t.min(t0.elapsed().as_secs_f64());
    }
    t
}

#[test]
#[ignore = "manual profiling probe, not a regression test"]
fn probe_open_500da() {
    let w = build_workload(4_000, ModSpec::paper_default(), 64, 55);
    let base = SlmConfig {
        precursor_tolerance: 500.0,
        ..SlmConfig::default()
    };
    let index = IndexBuilder::new(base.clone(), ModSpec::paper_default()).build(&w.db);

    // Phase split, coarse: ppm tolerance on the same workload isolates the
    // per-bin admission cost; a sky-high shared-peak threshold removes the
    // candidate pass's metadata loads (scatter + sweep remain); the full
    // configuration adds candidates + top-k back in.
    let admission = {
        let cfg = SlmConfig {
            precursor_tolerance: 0.01,
            ..base.clone()
        };
        let idx = IndexBuilder::new(cfg, ModSpec::paper_default()).build(&w.db);
        time_auto(&idx, &w.queries)
    };
    let no_candidates = {
        let cfg = SlmConfig {
            shared_peak_threshold: u16::MAX,
            ..base.clone()
        };
        let idx = IndexBuilder::new(cfg, ModSpec::paper_default()).build(&w.db);
        time_auto(&idx, &w.queries)
    };
    let auto = time_auto(&index, &w.queries);
    let full = {
        let mut s = Searcher::new(&index);
        let full_scan = QueryOptions {
            scan_mode: ScanMode::FullScan,
            ..Default::default()
        };
        s.search_batch_with_opts(&w.queries, &full_scan);
        let mut t = f64::INFINITY;
        for _ in 0..10 {
            let t0 = Instant::now();
            std::hint::black_box(s.search_batch_with_opts(&w.queries, &full_scan));
            t = t.min(t0.elapsed().as_secs_f64());
        }
        t
    };
    println!(
        "open_500da: auto {:.3} ms | full {:.3} ms | {:.2}x",
        auto * 1e3,
        full * 1e3,
        full / auto
    );
    println!(
        "  split: admission-ish (ppm) {:.3} ms | no-candidates (thr=MAX) {:.3} ms | candidates+topk {:.3} ms",
        admission * 1e3,
        no_candidates * 1e3,
        (auto - no_candidates) * 1e3
    );
}
