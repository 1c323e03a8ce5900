//! `batch_closed` and `batch_open`: corpus A built in-process, rounds of
//! preprocessed spectra through `search_batch_parallel_with_opts` — the
//! same index and kernel used two ways round. At ΔM = 0.01 Da the band
//! admits almost nothing and per-query overhead is the cost; at ±500 Da
//! the posting scatter is.

use super::{build_from_proteins, preprocess_all, Corpus};
use crate::check::{auto_equals_full_scan, index_equals_brute_force};
use crate::gen::{self, InputDigest};
use crate::harness::{
    measure_phases, timed_rounds, Ctx, Measured, Outcome, Sample, SetupReps, SIZED_ROUNDS,
};
use crate::stats;
use lbe_index::{search_batch_parallel_with_opts, QueryOptions, SearchResult, Searcher};

/// Which of the two batch workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Closed,
    Open,
}

/// Frozen precursor tolerances (Da).
pub const CLOSED_TOLERANCE: f64 = 0.01;
pub const OPEN_TOLERANCE: f64 = 500.0;

/// Queries the brute-force reference re-derives.
const BRUTE_QUERIES: usize = 8;

pub fn run(ctx: &Ctx, kind: Kind) -> Outcome {
    let (name, tol, round_len) = match kind {
        Kind::Closed => ("batch_closed", CLOSED_TOLERANCE, ctx.scale.closed_round),
        Kind::Open => ("batch_open", OPEN_TOLERANCE, ctx.scale.open_round),
    };
    let mut out = Outcome::default();

    // Generated inputs.
    let corpus = Corpus::generate(ctx.scale.a_ions, gen::modspec_a(), ctx.seed);
    let queries = preprocess_all(&corpus.raw_queries(round_len, gen::SKEW, ctx.seed));
    let mut digest = InputDigest::default();
    digest.proteins(&corpus.proteins);
    digest.spectra(&queries);
    digest.tolerances(&[tol]);
    out.input_digest = digest.hex();

    // The program's set-up, repeated. The first repetition's index backs
    // the output checks and the expected answers (every repetition builds
    // the same index); the last one's is the index the rounds search.
    let build = |span| {
        build_from_proteins(
            ctx.tracer,
            span,
            &corpus.proteins,
            &corpus.modspec,
            ctx.threads,
        )
    };
    let mut setup = SetupReps::new(ctx);
    let opts = QueryOptions {
        precursor_tolerance: Some(tol),
        ..Default::default()
    };
    let expected = {
        let (db, _grouping, index) = setup.rep(build);
        let checked = &queries[..ctx.scale.check_queries.min(queries.len())];
        out.add_check(auto_equals_full_scan(&index, checked, tol));
        out.add_check(index_equals_brute_force(
            &index,
            &db,
            &corpus.modspec,
            &queries[..BRUTE_QUERIES.min(queries.len())],
            tol,
        ));
        // The answers every round must reproduce: one sequential pass.
        Searcher::new(&index)
            .search_batch_with_opts(&queries, &opts)
            .0
    };
    let ((db, _grouping, index), setup) = setup.finish(build);
    out.e2e.insert("setup_s".into(), setup);
    out.e2e.insert(
        "resident_bytes_per_ion".into(),
        Sample::exact(index.heap_bytes() as f64 / index.num_ions() as f64),
    );
    out.note("peptides", db.len());
    out.note("indexed_spectra", index.num_spectra());
    out.note("ions", index.num_ions());
    out.note("index_heap_bytes", index.heap_bytes());

    let (measured, overhead) = measure_phases(ctx, |seconds, tracer| {
        let mut m = Measured {
            tail_pctile: stats::tail_percentile(SIZED_ROUNDS),
            ..Default::default()
        };
        tracer.span(&format!("workload.{name}"), None, |root| {
            let times = timed_rounds(seconds, |_| {
                let mut results: Vec<SearchResult> = Vec::new();
                let ((), secs) = tracer.span("index.parallel.search_batch", root, |_| {
                    results =
                        search_batch_parallel_with_opts(&index, &queries, ctx.threads, &opts).0;
                });
                tracer.count("index.parallel.queries", queries.len() as u64);
                m.attempted += queries.len() as u64;
                m.failed += results
                    .iter()
                    .zip(&expected)
                    .filter(|(got, want)| got.psms != want.psms)
                    .count() as u64
                    + queries.len().abs_diff(results.len()) as u64;
                secs
            });
            for secs in times {
                m.round_throughput.push(queries.len() as f64 / secs);
                m.turnaround_ms.push(secs * 1e3);
            }
        });
        m
    });
    out.set_measured(&measured, overhead);
    out
}
