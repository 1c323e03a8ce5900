//! Shared-memory parallel batch search.
//!
//! Within one node the index is immutable and shared; the query batch is
//! embarrassingly parallel. This module provides a real (not simulated)
//! multi-threaded batch searcher used by node-local deployments and by the
//! hybrid mode's intra-rank level.
//!
//! [`search_batch_parallel_with_opts`] splits the queries into **small blocks**
//! claimed dynamically by a fixed set of workers on the shared
//! work-stealing pool (`minipool`). Each worker owns one [`Searcher`]
//! (scratch state is allocated `num_threads` times total, not per block),
//! so a skewed batch — e.g. a mix of cheap closed-search and expensive
//! open-search spectra — never finishes with its slowest *contiguous*
//! slice: whichever worker goes idle claims the next block.
//!
//! Results are returned in query order and are bit-identical to the
//! sequential path — parallelism must never change what is found (tested,
//! including a proptest over batch size / thread count / skew).

use crate::query::{QueryOptions, QueryStats, SearchResult, Searcher};
use crate::slm::SlmIndex;
use lbe_spectra::spectrum::Spectrum;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One worker's output: result blocks keyed by block id, plus its share of
/// the accumulated work counters.
type WorkerOutput = (Vec<(usize, Vec<SearchResult>)>, QueryStats);

/// Queries per work-stealing block: fine-grained for small batches (so a
/// cluster of expensive queries splits across workers instead of riding in
/// one block), coarsening as the batch grows (the per-block cost — one
/// `fetch_add` and one result push — amortizes over more searches).
fn block_size(num_queries: usize, workers: usize) -> usize {
    (num_queries / (workers * 16)).clamp(1, 32)
}

/// Searches `queries` against `index` under one set of [`QueryOptions`]
/// using `num_threads` workers on the shared work-stealing pool, with
/// dynamic block scheduling — the batch entry point of node-local search,
/// cluster ranks and a resident server's query waves (one options set per
/// wave, every worker searching under it).
///
/// Returns per-query results (in input order) and the accumulated work
/// counters, bit-identical to the sequential
/// [`Searcher::search_batch_with_opts`] for any thread count.
/// `num_threads = 1` degenerates to the sequential path.
pub fn search_batch_parallel_with_opts(
    index: &SlmIndex,
    queries: &[Spectrum],
    num_threads: usize,
    opts: &QueryOptions,
) -> (Vec<SearchResult>, QueryStats) {
    assert!(num_threads >= 1, "need at least one thread");
    if num_threads == 1 || queries.len() <= 1 {
        let mut s = Searcher::new(index);
        return s.search_batch_with_opts(queries, opts);
    }

    let workers = num_threads.min(queries.len());
    let block = block_size(queries.len(), workers);
    let num_blocks = queries.len().div_ceil(block);
    let next_block = AtomicUsize::new(0);
    // Each worker pushes (block id, that block's results) here when it runs
    // out of blocks; order of arrival is scheduling-dependent, so the merge
    // below re-sorts by block id. Per-query results themselves cannot
    // differ: each search runs on freshly reset scratch.
    let collected: Mutex<Vec<WorkerOutput>> = Mutex::new(Vec::with_capacity(workers));

    minipool::scope(|s| {
        for _ in 0..workers {
            s.spawn(|_| {
                let mut searcher = Searcher::new(index);
                let mut mine: Vec<(usize, Vec<SearchResult>)> = Vec::new();
                let mut stats = QueryStats::default();
                loop {
                    let b = next_block.fetch_add(1, Ordering::Relaxed);
                    if b >= num_blocks {
                        break;
                    }
                    let lo = b * block;
                    let hi = (lo + block).min(queries.len());
                    let (results, block_stats) =
                        searcher.search_batch_with_opts(&queries[lo..hi], opts);
                    stats.accumulate(&block_stats);
                    mine.push((b, results));
                }
                collected
                    .lock()
                    .expect("search worker panicked while collecting")
                    .push((mine, stats));
            });
        }
    });

    let mut per_block: Vec<(usize, Vec<SearchResult>)> = Vec::with_capacity(num_blocks);
    let mut totals = QueryStats::default();
    for (blocks, stats) in collected.into_inner().expect("collector poisoned") {
        per_block.extend(blocks);
        // Stats are u64 sums, so accumulation order cannot change them.
        totals.accumulate(&stats);
    }
    per_block.sort_unstable_by_key(|&(b, _)| b);
    debug_assert_eq!(per_block.len(), num_blocks);
    let mut results = Vec::with_capacity(queries.len());
    for (_, r) in per_block {
        results.extend(r);
    }
    (results, totals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IndexBuilder;
    use crate::config::SlmConfig;
    use lbe_bio::mods::ModSpec;
    use lbe_bio::peptide::{Peptide, PeptideDb};
    use lbe_spectra::synthetic::{SyntheticDataset, SyntheticDatasetParams};
    use proptest::prelude::*;
    use std::sync::OnceLock;

    fn setup(nq: usize) -> (SlmIndex, Vec<Spectrum>) {
        let db = PeptideDb::from_vec(
            [
                "ELVISLIVESK",
                "PEPTIDEK",
                "MNKQMGGR",
                "SAMPLERK",
                "GGAASSYYK",
            ]
            .iter()
            .map(|s| Peptide::new(s.as_bytes(), 0, 0).unwrap())
            .collect(),
        );
        let index = IndexBuilder::new(SlmConfig::default(), ModSpec::none()).build(&db);
        let queries = SyntheticDataset::generate(
            &db,
            &ModSpec::none(),
            &SyntheticDatasetParams {
                num_spectra: nq,
                ..Default::default()
            },
            66,
        );
        (index, queries.spectra)
    }

    #[test]
    fn parallel_equals_sequential() {
        let (index, queries) = setup(37);
        let (seq, seq_stats) =
            search_batch_parallel_with_opts(&index, &queries, 1, &QueryOptions::default());
        for threads in [2usize, 3, 4, 8] {
            let (par, par_stats) = search_batch_parallel_with_opts(
                &index,
                &queries,
                threads,
                &QueryOptions::default(),
            );
            assert_eq!(par, seq, "{threads} threads");
            assert_eq!(par_stats, seq_stats);
        }
    }

    #[test]
    fn more_threads_than_queries() {
        let (index, queries) = setup(3);
        let (r, _) =
            search_batch_parallel_with_opts(&index, &queries, 16, &QueryOptions::default());
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn empty_batch() {
        let (index, _) = setup(1);
        let (r, stats) = search_batch_parallel_with_opts(&index, &[], 4, &QueryOptions::default());
        assert!(r.is_empty());
        assert_eq!(stats, QueryStats::default());
    }

    #[test]
    fn results_in_query_order() {
        let (index, queries) = setup(20);
        let (par, _) =
            search_batch_parallel_with_opts(&index, &queries, 4, &QueryOptions::default());
        let mut s = Searcher::new(&index);
        for (q, r) in queries.iter().zip(&par) {
            assert_eq!(&s.search(q), r);
        }
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let (index, queries) = setup(2);
        search_batch_parallel_with_opts(&index, &queries, 0, &QueryOptions::default());
    }

    /// Shared fixture for the proptest: building an index per case would
    /// dominate the run.
    fn fixture() -> &'static (SlmIndex, Vec<Spectrum>) {
        static FIXTURE: OnceLock<(SlmIndex, Vec<Spectrum>)> = OnceLock::new();
        FIXTURE.get_or_init(|| setup(48))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Work-stealing is bit-identical to sequential for arbitrary batch
        /// slices, thread counts, and skew (rotation + optional reversal
        /// rearranges where the expensive queries sit in the batch).
        #[test]
        fn ws_equals_sequential_any_shape(
            start in 0usize..48,
            len in 0usize..48,
            threads in 1usize..9,
            reverse in proptest::arbitrary::any::<bool>(),
        ) {
            let (index, base) = fixture();
            let mut batch: Vec<Spectrum> = (0..len)
                .map(|i| base[(start + i) % base.len()].clone())
                .collect();
            if reverse {
                batch.reverse();
            }
            let mut s = Searcher::new(index);
            let (seq, seq_stats) = s.search_batch(&batch);
            let (par, par_stats) = search_batch_parallel_with_opts(index, &batch, threads, &QueryOptions::default());
            prop_assert_eq!(par, seq);
            prop_assert_eq!(par_stats, seq_stats);
        }
    }
}
