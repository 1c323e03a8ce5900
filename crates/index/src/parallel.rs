//! Shared-memory parallel search: one block-scheduled kernel.
//!
//! Within one node the index is immutable and shared; a batch of queries
//! is embarrassingly parallel. `search_jobs` splits the jobs into
//! **small blocks** claimed dynamically by a fixed set of workers on the
//! shared work-stealing pool (`minipool`), each searching with one
//! caller-owned [`SearchScratch`], so a skewed batch — e.g. a mix of cheap
//! closed-search and expensive open-search spectra — never finishes with
//! its slowest *contiguous* slice: whichever worker goes idle claims the
//! next block. It serves node-local batches and cluster ranks
//! ([`search_batch_parallel_with_opts`]) and every chunk visit of a
//! [`crate::ChunkStore`] wave, which recycles the scratches across waves.
//!
//! Results are returned in job order and are bit-identical to searching
//! each job alone — parallelism must never change what is found (tested,
//! including a proptest over batch size / thread count / skew).

use crate::query::{QueryOptions, QueryStats, SearchResult, SearchScratch, Searcher};
use crate::slm::SlmIndex;
use lbe_spectra::spectrum::Spectrum;
use std::sync::Mutex;

/// Queries per work-stealing block: fine-grained for small batches (so a
/// cluster of expensive queries splits across workers instead of riding in
/// one block), coarsening as the batch grows (the per-block cost — one
/// lock to claim it — amortizes over more searches).
fn block_size(num_queries: usize, workers: usize) -> usize {
    (num_queries / (workers * 16)).clamp(1, 32)
}

/// Searches jobs `0..num_jobs`, `job(i)` being a spectrum and its
/// [`QueryOptions`], against `index` on one worker per scratch (at most one
/// per job and one per pool thread): one on the calling thread, the rest
/// on the pool. With `global_ids`, PSM peptide ids are translated before
/// top-k selection ([`Searcher::with_scratch_mapped`]). Returns one result
/// per job, in job order, each bit-identical to a lone [`Searcher`] run of
/// that job.
pub(crate) fn search_jobs<'q>(
    index: &SlmIndex,
    global_ids: Option<&[u32]>,
    num_jobs: usize,
    job: impl Fn(usize) -> (&'q Spectrum, &'q QueryOptions) + Sync,
    scratches: &mut [SearchScratch],
) -> Vec<SearchResult> {
    assert!(!scratches.is_empty(), "need at least one thread");
    // No more workers than the pool has threads: the caller is one of
    // them, so a process confined to one CPU searches on the calling
    // thread alone instead of waking a thread that cannot run beside it.
    let workers = match scratches.len().min(num_jobs) {
        0 | 1 => 1,
        n => n.min(minipool::current_num_threads()),
    };
    let block = block_size(num_jobs, workers);
    // Each block of jobs owns its slice of the results, claimed by
    // whichever worker asks next: results land in job order, and each
    // search runs on freshly reset scratch, so scheduling cannot change
    // them.
    let mut results: Vec<SearchResult> = Vec::new();
    results.resize_with(num_jobs, SearchResult::default);
    let blocks = Mutex::new(results.chunks_mut(block).enumerate());
    let work = |scratch: &mut SearchScratch| {
        let mut searcher = match global_ids {
            Some(ids) => Searcher::with_scratch_mapped(index, std::mem::take(scratch), ids),
            None => Searcher::with_scratch(index, std::mem::take(scratch)),
        };
        loop {
            // Claimed in its own statement, so the lock is not held while
            // the block is searched.
            let claimed = blocks.lock().expect("search worker panicked").next();
            let Some((b, out)) = claimed else { break };
            for (i, slot) in (b * block..).zip(out) {
                let (q, o) = job(i);
                *slot = searcher.search_with_opts(q, o);
            }
        }
        *scratch = searcher.into_scratch();
    };
    let (here, pooled) = scratches[..workers]
        .split_first_mut()
        .expect("at least one scratch");
    if pooled.is_empty() {
        work(here);
    } else {
        let work = &work;
        minipool::scope(|s| {
            for scratch in pooled {
                s.spawn(move |_| work(scratch));
            }
            work(here);
        });
    }
    results
}

/// Searches `queries` against `index` under one set of [`QueryOptions`]
/// on `num_threads` workers (`search_jobs`, the index's own ids): per
/// query results in input order and the accumulated work counters,
/// bit-identical to [`Searcher::search_batch_with_opts`].
pub fn search_batch_parallel_with_opts(
    index: &SlmIndex,
    queries: &[Spectrum],
    num_threads: usize,
    opts: &QueryOptions,
) -> (Vec<SearchResult>, QueryStats) {
    let workers = num_threads.min(queries.len().max(1));
    let mut scratches: Vec<SearchScratch> = (0..workers).map(|_| Default::default()).collect();
    let job = |i: usize| (&queries[i], opts);
    let results = search_jobs(index, None, queries.len(), job, &mut scratches);
    let mut totals = QueryStats::default();
    for r in &results {
        totals.accumulate(&r.stats);
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
