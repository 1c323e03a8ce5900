//! Criterion: work-stealing batch scheduling on a skewed batch, and
//! sequential vs pool-parallel index build.
//!
//! The batch is deliberately **skewed**, emulating a production mix of
//! cheap closed-search spectra and expensive open-search spectra: one in
//! eight queries carries a peak list ~12× larger (so it scans ~12× the
//! postings), and the heavy queries are clustered at the front of the
//! batch — the shape a static contiguous split finishes last on, and the
//! one block-by-block stealing exists to re-balance.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use lbe_bench::build_workload;
use lbe_bio::mods::ModSpec;
use lbe_index::{search_batch_parallel, IndexBuilder, SlmConfig};
use lbe_spectra::spectrum::Spectrum;

const THREADS: usize = 4;
/// Every HEAVY_EVERY-th query is heavy.
const HEAVY_EVERY: usize = 8;
/// Peak-list multiplier of a heavy query.
const HEAVY_FACTOR: usize = 12;

/// Builds a skewed batch: heavy (concatenated-peak) queries first, light
/// queries after.
fn skewed_batch(base: &[Spectrum]) -> Vec<Spectrum> {
    let mut heavy = Vec::new();
    let mut light = Vec::new();
    for (i, q) in base.iter().enumerate() {
        if i % HEAVY_EVERY == 0 {
            let mut peaks = Vec::with_capacity(q.peaks.len() * HEAVY_FACTOR);
            for k in 0..HEAVY_FACTOR {
                peaks.extend(base[(i + k) % base.len()].peaks.iter().copied());
            }
            let mut big = Spectrum::new(q.scan, q.precursor_mz, q.charge, peaks);
            big.title = q.title.clone();
            heavy.push(big);
        } else {
            light.push(q.clone());
        }
    }
    heavy.extend(light);
    heavy
}

fn bench_scheduling(c: &mut Criterion) {
    let w = build_workload(2_000, ModSpec::none(), 64, 11);
    let index = IndexBuilder::new(SlmConfig::default(), ModSpec::none()).build(&w.db);
    let batch = skewed_batch(&w.queries);

    let mut group = c.benchmark_group("pool_scheduling");
    group.sample_size(10);
    group.bench_function("work_stealing", |b| {
        b.iter(|| {
            let (r, stats) = search_batch_parallel(&index, black_box(&batch), THREADS);
            black_box((r.len(), stats.postings_scanned))
        })
    });
    group.finish();
}

fn bench_parallel_build(c: &mut Criterion) {
    // Paper-default mods: the modform expansion puts the build where it is
    // in production — dominated by theoretical-spectrum generation, which
    // is what parallelizes (the fixed per-range bin histograms do not).
    // Built with the machine's actual parallelism: on a single-core box
    // this degenerates to the sequential path rather than reporting
    // scheduling overhead as if it were a property of the algorithm.
    let spec = ModSpec::paper_default();
    let w = build_workload(4_000, spec.clone(), 1, 11);
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let mut group = c.benchmark_group("index_build");
    group.sample_size(10);
    group.bench_function("sequential", |b| {
        b.iter(|| IndexBuilder::new(SlmConfig::default(), spec.clone()).build(black_box(&w.db)))
    });
    group.bench_function(format!("pool_{threads}_threads"), |b| {
        b.iter(|| {
            IndexBuilder::new(SlmConfig::default(), spec.clone())
                .build_parallel(black_box(&w.db), threads)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_scheduling, bench_parallel_build);
criterion_main!(benches);
