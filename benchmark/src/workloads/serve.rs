//! `serve_mixed` and `serve_paged`: the program's TCP server under load
//! from this process.
//!
//! `serve_mixed` fits in memory and never faults: corpus A as one resident
//! index, a frozen tolerance mix, open-loop paced slices (latency)
//! alternating with closed-loop saturate slices (throughput). `serve_paged` is its
//! counterpart whose working set is twice the program's own chunk cache:
//! one pipelined connection streams one query sequence in order, so the
//! chunk access sequence — and with it the fault and eviction counts — is
//! a pure function of the seed.

use super::{build_from_proteins, preprocess_all, Corpus};
use crate::check::{auto_equals_full_scan, Check};
use crate::client::{self, Completion, Job, RunningServer};
use crate::gen::{self, InputDigest};
use crate::harness::{measure_phases, Ctx, Measured, Outcome, Sample, SetupReps};
use crate::spec::SERVE_LATENCY_LIMIT_MS;
use crate::stats;
use crate::trace::{SpanId, Tracer};
use lbe_bio::peptide::PeptideDb;
use lbe_core::serve::{ResidentEngine, ServeConfig, ServeStats};
use lbe_index::{ChunkStore, GenerationStore, IndexBuilder, ReadOptions, SlmConfig};
use lbe_spectra::preprocess::{preprocess_spectrum, PreprocessParams};
use std::io;
use std::net::SocketAddr;
use std::path::Path;

/// `serve_mixed`'s frozen tolerance mix: `(share, ΔM in Da)`.
pub const MIXED_TOLERANCES: [(f64, f64); 4] =
    [(0.5, 0.01), (0.2, 1.0), (0.2, 500.0), (0.1, f64::INFINITY)];

/// Both mixes are dealt in strata of this many queries (see
/// [`gen::tolerance_mix`]).
pub const MIX_PERIOD: usize = 10;

/// `serve_paged`'s frozen tolerance mix.
pub const PAGED_TOLERANCES: [(f64, f64); 2] = [(0.9, 1.0), (0.1, 500.0)];

/// `serve_mixed`'s frozen paced rate in requests/s: the ladder step
/// nearest 40 % of the saturated throughput measured when the benchmark
/// was defined (see README), so every commit is offered the same load.
pub const PACED_RATE_PER_S: f64 = 2000.0;

/// Paced requests per turnaround window (half a second's worth): p50 and
/// p95 are taken per window and the median window reported, so a host
/// stall spoils the windows it falls in, not the run (see
/// `Outcome::set_measured`). 1 000 samples put 50 beyond each p95.
const PACED_WINDOW: usize = 1000;

/// Requests each closed-loop connection keeps in flight.
pub const WINDOW: usize = 32;

/// Completions per throughput sample of `serve_mixed`'s saturate phase
/// (≈ 0.2 s of work).
const MIXED_BLOCK: usize = 1024;

/// `serve_paged`: requests in flight on its one connection. Small, so the
/// server's waves — which answer a whole wave at once — stay short next
/// to a throughput slice.
pub const PAGED_WINDOW: usize = 8;

/// `serve_paged`: leading requests that fill the chunk cache and are not
/// measured.
pub const PAGED_WARMUP: u64 = 32;

/// `serve_paged`: completions per throughput sample (≈ 0.8 s of work).
const PAGED_BLOCK: usize = 64;

/// `serve_paged`: measured requests a run is sized to complete even at a
/// third of the seed commit's speed (≈ 65 a second); enough for a p95.
const PAGED_SIZED_SAMPLES: usize = 400;

/// `serve_paged`: queries of the sequence replayed straight on a
/// `ChunkStore` for the paged ≡ all-resident check.
const PAGED_DIRECT: usize = 64;

pub fn serve_config(ctx: &Ctx) -> ServeConfig {
    ServeConfig {
        threads: ctx.threads,
        ..Default::default()
    }
}

/// Builds the job pool: `raw[i]` at `tolerances[i]`, expected answers
/// from the all-resident `reference` engine.
pub fn job_pool(
    raw: Vec<lbe_spectra::spectrum::Spectrum>,
    tolerances: &[f64],
    reference: &ResidentEngine,
) -> Vec<Job> {
    raw.into_iter()
        .zip(tolerances)
        .map(|(q, &tol)| Job::new(q, tol, reference).expect("reference engine search"))
        .collect()
}

/// The server's own counters must agree with what the clients saw.
fn serve_stats_check(stats: &ServeStats) -> Check {
    let bad = stats.protocol_errors + stats.degraded + stats.requests.abs_diff(stats.responses);
    Check::new(
        "ServeStats: no protocol errors, none degraded, every request answered",
        stats.requests.max(1),
        bad,
    )
}

/// The server's counters by name.
pub fn serve_stats_fields(stats: &ServeStats) -> [(&'static str, u64); 5] {
    [
        ("connections", stats.connections),
        ("requests", stats.requests),
        ("responses", stats.responses),
        ("protocol_errors", stats.protocol_errors),
        ("degraded", stats.degraded),
    ]
}

fn record_serve_stats(out: &mut Outcome, stats: &ServeStats) {
    for (k, v) in serve_stats_fields(stats) {
        out.note(&format!("serve_stats.{k}"), v);
    }
}

/// Throughput samples from completion times: the rate of each run of
/// `block` consecutive correct completions at or after `from_ns`. Counted
/// in completions rather than in seconds so that a block always holds the
/// same requests whatever the speed, and its rate is a measured time, not
/// a count per fixed slice. With less than one whole block, the one
/// sample is the overall rate.
fn block_throughput(conns: &[Vec<Completion>], from_ns: u64, block: usize) -> Vec<f64> {
    let mut done: Vec<u64> = conns
        .iter()
        .flatten()
        .filter(|c| c.correct && c.done_ns >= from_ns)
        .map(|c| c.done_ns)
        .collect();
    done.sort_unstable();
    let rate =
        |n: usize, from: u64, to: u64| n as f64 / (to.saturating_sub(from).max(1) as f64 / 1e9);
    if done.len() <= block {
        return match (done.first(), done.last()) {
            (Some(&first), Some(&last)) if done.len() > 1 => {
                vec![rate(done.len() - 1, first, last)]
            }
            _ => Vec::new(),
        };
    }
    done.iter()
        .step_by(block)
        .zip(done.iter().skip(block).step_by(block))
        .map(|(&from, &to)| rate(block, from, to))
        .collect()
}

pub fn run_mixed(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    std::fs::create_dir_all(&ctx.work_dir).expect("work dir");
    let path = ctx.work_dir.join("serve_mixed.slm2");

    // Generated inputs.
    let corpus = Corpus::generate(ctx.scale.a_ions, gen::modspec_a(), ctx.seed);
    let raw = corpus.raw_queries(ctx.scale.serve_pool, gen::SKEW, ctx.seed);
    let tolerances = gen::tolerance_mix(&MIXED_TOLERANCES, MIX_PERIOD, raw.len(), ctx.seed);
    let mut digest = InputDigest::default();
    digest.proteins(&corpus.proteins);
    digest.spectra(&raw);
    digest.tolerances(&tolerances);
    out.input_digest = digest.hex();

    // The index file the server is pointed at (built and written by the
    // program, but before `setup_s` starts: a daemon is started on an
    // index that already exists).
    {
        let (_, _, index) = build_from_proteins(
            ctx.tracer,
            None,
            &corpus.proteins,
            &corpus.modspec,
            ctx.threads,
        );
        ctx.tracer.span("index.io.write", None, |_| {
            lbe_index::write_index_path(&path, &index).expect("write index")
        });
    }
    let stored_bytes = std::fs::metadata(&path).expect("index file").len();
    {
        // What the server will hold: the same file, read the same way.
        let loaded =
            lbe_index::read_index_path_with(&path, &ReadOptions::default()).expect("re-read index");
        out.e2e.insert(
            "resident_bytes_per_ion".into(),
            Sample::exact(loaded.heap_bytes() as f64 / loaded.num_ions() as f64),
        );
        out.note("ions", loaded.num_ions());
        out.note("indexed_spectra", loaded.num_spectra());
        out.note("stored_bytes", stored_bytes);
        out.note(
            "stored_bytes_per_ion",
            stored_bytes as f64 / loaded.num_ions() as f64,
        );
        let checked = preprocess_all(&raw[..ctx.scale.check_queries.min(raw.len())]);
        for (_, tol) in MIXED_TOLERANCES {
            out.add_check(auto_equals_full_scan(&loaded, &checked, tol));
        }
    }

    // Expected answers from an all-resident in-process engine, dropped
    // before the set-up that counts.
    let reference = ResidentEngine::open(&path, usize::MAX).expect("reference engine");
    out.add_check(Check::new(
        "serve_mixed is resident: no chunk store, so no faults",
        1,
        reference.num_chunks() as u64,
    ));
    let pool = job_pool(raw, &tolerances, &reference);
    drop(reference);

    // Set-up: open under full validation + bind, repeated.
    let cfg = serve_config(ctx);
    let (server, setup) = SetupReps::new(ctx).finish(|span| {
        ctx.tracer
            .span("core.serve.open_and_bind", span, |_| {
                client::open_and_bind(&path, usize::MAX, cfg).expect("open + bind")
            })
            .0
    });
    out.e2e.insert("setup_s".into(), setup);

    let server = RunningServer::spawn(server);
    let addr = server.addr;
    let mut lag_p95_ms = 0.0;
    let (measured, overhead) = measure_phases(ctx, |seconds, tracer| {
        let (m, lag) = mixed_phases(addr, &pool, ctx.threads, seconds, tracer);
        lag_p95_ms = lag;
        m
    });
    let stats = server.stop().expect("server run");
    out.add_check(serve_stats_check(&stats));
    record_serve_stats(&mut out, &stats);

    out.set_measured(&measured, overhead);
    out.note("paced_rate_per_s", PACED_RATE_PER_S);
    out.note("generator_lag_p95_ms", lag_p95_ms);
    out.note("latency_limit_ms", SERVE_LATENCY_LIMIT_MS);
    out.note("latency_limit_met", out.tail_ms <= SERVE_LATENCY_LIMIT_MS);
    let _ = std::fs::remove_file(&path);
    out
}

/// Paced and saturate phases alternate this many times in a run, so that
/// each kind's samples are spread over the whole run and not over one half
/// of it: the host's speed drifts by 10–20 % over tens of seconds, and a
/// throughput taken from one 10-second stretch spread twice as wide from
/// run to run as the batch workloads', which sample all 20.
const MIXED_SLICES: u64 = 4;

/// Half the time paced (turnaround), half saturated (throughput), in
/// [`MIXED_SLICES`] alternating slices each. Returns the measurement and
/// the generator's p95 lag in ms.
fn mixed_phases(
    addr: SocketAddr,
    pool: &[Job],
    connections: usize,
    seconds: f64,
    tracer: &Tracer,
) -> (Measured, f64) {
    let mut m = Measured {
        window: PACED_WINDOW,
        tail_pctile: stats::tail_percentile(PACED_WINDOW),
        ..Default::default()
    };
    let slice_s = seconds / (2 * MIXED_SLICES) as f64;
    let mut lags = Vec::new();
    tracer.span("workload.serve_mixed", None, |root| {
        for slice in 0..MIXED_SLICES {
            let id_base = slice << 48;
            let (paced, _) = tracer.span("workload.serve_mixed.paced", root, |span| {
                client::run_paced(addr, pool, PACED_RATE_PER_S, slice_s, id_base, tracer, span)
                    .expect("paced phase")
            });
            lags.extend(paced.lag_ms);
            m.attempted += paced.attempted;
            m.failed += paced.failed;
            m.turnaround_ms.extend(paced.latency_ms);

            let (conns, _) = tracer.span("workload.serve_mixed.saturate", root, |span| {
                client::run_closed(
                    addr,
                    pool,
                    connections,
                    WINDOW,
                    slice_s,
                    0,
                    id_base,
                    tracer,
                    span,
                )
                .expect("saturate phase")
            });
            let done: Vec<&Completion> = conns.iter().flatten().collect();
            m.attempted += done.len() as u64;
            m.failed += done.iter().filter(|c| !c.correct).count() as u64;
            // Blocks never straddle two slices.
            m.round_throughput
                .extend(block_throughput(&conns, 0, MIXED_BLOCK));
        }
    });
    lags.sort_by(f64::total_cmp);
    let lag = if lags.is_empty() {
        0.0
    } else {
        stats::percentile_sorted(&lags, 95.0)
    };
    m.fail_if_unanswered();
    (m, lag)
}

/// A freshly written two-generation store.
pub struct PagedStore {
    pub db: PeptideDb,
    pub store: GenerationStore,
    pub init_s: f64,
    pub append_s: f64,
}

/// The program's path from proteins to a served two-generation store:
/// digest, `init` on ¾ of the peptides, `append` the rest.
pub fn build_paged_store(
    tracer: &Tracer,
    parent: Option<SpanId>,
    corpus: &Corpus,
    chunks: usize,
    dir: &Path,
) -> io::Result<PagedStore> {
    let _ = std::fs::remove_dir_all(dir);
    let (db, _) = tracer.span("bio.digest", parent, |_| gen::digest_db(&corpus.proteins));
    let peptides = db.peptides();
    let split = peptides.len() * 3 / 4;
    let base = PeptideDb::from_vec(peptides[..split].to_vec());
    let delta = PeptideDb::from_vec(peptides[split..].to_vec());
    let chunk_size = peptides.len().div_ceil(chunks).max(1);
    let (store, init_s) = tracer.span("index.lifecycle.init", parent, |_| {
        GenerationStore::init(
            dir,
            &base,
            SlmConfig::default(),
            corpus.modspec.clone(),
            chunk_size,
        )
        .map(|(store, _)| store)
    });
    let store = store?;
    let (appended, append_s) =
        tracer.span("index.lifecycle.append", parent, |_| store.append(&delta));
    appended?;
    Ok(PagedStore {
        db,
        store,
        init_s,
        append_s,
    })
}

/// Replays `jobs` once through a `ChunkStore` opened directly on `dir`
/// with `budget` resident chunks, checking every answer against the
/// all-resident expectation. Returns the store (for its counters and
/// resident bytes) and the number of wrong answers.
pub fn replay_direct(dir: &Path, budget: usize, jobs: &[Job]) -> io::Result<(ChunkStore, u64)> {
    let mut store = ChunkStore::open_generation_dir(dir, budget)?;
    let preprocess = PreprocessParams::default();
    let mut wrong = 0;
    for job in jobs {
        let r = store.search_with_opts(
            &preprocess_spectrum(&job.raw, &preprocess),
            &client::options(job.tolerance),
        )?;
        wrong += u64::from(client::wire_psms(&r.psms) != job.expected);
    }
    Ok((store, wrong))
}

pub fn run_paged(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let dir = ctx.work_dir.join("serve_paged.store");
    std::fs::create_dir_all(&ctx.work_dir).expect("work dir");

    // Generated inputs.
    let corpus = Corpus::generate(ctx.scale.b_ions, gen::modspec_b(), ctx.seed);
    let raw = corpus.raw_queries(ctx.scale.paged_seq, gen::SKEW, ctx.seed);
    let tolerances = gen::tolerance_mix(&PAGED_TOLERANCES, MIX_PERIOD, raw.len(), ctx.seed);
    let mut digest = InputDigest::default();
    digest.proteins(&corpus.proteins);
    digest.spectra(&raw);
    digest.tolerances(&tolerances);
    out.input_digest = digest.hex();

    // Set-up: store init + append, open with half the chunks resident,
    // bind — repeated, each time from an empty directory. Every
    // repetition writes the same store, so the first one's serves the
    // scaffolding below and the last one's is the one served.
    let cfg = serve_config(ctx);
    let set_up = |span| {
        let PagedStore { db, store, .. } =
            build_paged_store(ctx.tracer, span, &corpus, ctx.scale.paged_chunks, &dir)
                .expect("init + append");
        let chunks = store.stats().expect("store stats").records.len();
        let budget = (chunks / 2).max(1);
        let (server, _) = ctx.tracer.span("core.serve.open_and_bind", span, |_| {
            client::open_and_bind(&dir, budget, cfg).expect("open + bind")
        });
        (db, store, budget, server)
    };
    let mut setup = SetupReps::new(ctx);
    let (db, store, budget, first_server) = setup.rep(set_up);
    drop(first_server);
    let store_stats = store.stats().expect("store stats");
    out.note("chunks", store_stats.records.len());
    out.note("resident_budget", budget);
    out.note("stored_bytes", store_stats.stored_bytes);
    out.note("logical_bytes", store_stats.logical_bytes);

    // Ions indexed, from one whole-corpus index that also backs the
    // kernel check.
    let ions = {
        let whole = IndexBuilder::new(SlmConfig::default(), corpus.modspec.clone()).build(&db);
        let checked = preprocess_all(&raw[..ctx.scale.check_queries.min(raw.len())]);
        for (_, tol) in PAGED_TOLERANCES {
            out.add_check(auto_equals_full_scan(&whole, &checked, tol));
        }
        whole.num_ions()
    };
    out.note("ions", ions);
    out.note(
        "stored_bytes_per_ion",
        store_stats.stored_bytes as f64 / ions as f64,
    );

    let reference = ResidentEngine::open(&dir, usize::MAX).expect("reference engine");
    let pool = job_pool(raw, &tolerances, &reference);
    drop(reference);

    // Resident bytes under the budget: the budget's share of the whole
    // store's heap bytes. (Which chunks are resident at any instant — light
    // or heavy ones — depends on the last few queries; their average does
    // not.)
    let all_heap_bytes = {
        let mut all = ChunkStore::open_generation_dir(&dir, usize::MAX).expect("open store");
        let everything = client::options(f64::INFINITY);
        let query = preprocess_spectrum(&pool[0].raw, &PreprocessParams::default());
        all.search_with_opts(&query, &everything)
            .expect("open search");
        assert_eq!(all.num_resident(), all.num_chunks());
        all.resident_heap_bytes()
    };
    let chunks = store_stats.records.len();
    out.e2e.insert(
        "resident_bytes_per_ion".into(),
        Sample::exact(all_heap_bytes as f64 * budget as f64 / chunks as f64 / ions as f64),
    );

    // Paged ≡ all-resident, straight on the chunk store.
    let head = &pool[..PAGED_DIRECT.min(pool.len())];
    let (direct, wrong) = replay_direct(&dir, budget, head).expect("direct replay");
    out.add_check(Check::new(
        "paged ChunkStore == all-resident engine",
        head.len() as u64,
        wrong,
    ));
    let first_pass = direct.stats();
    out.note("direct_replay.hits", first_pass.hits);
    out.note("direct_replay.faults", first_pass.faults);
    out.note("direct_replay.evictions", first_pass.evictions);
    drop(direct);

    let ((_, _, _, server), setup) = setup.finish(set_up);
    out.e2e.insert("setup_s".into(), setup);

    let server = RunningServer::spawn(server);
    let addr = server.addr;
    let (measured, overhead) = measure_phases(ctx, |seconds, tracer| {
        let mut m = Measured {
            tail_pctile: stats::tail_percentile(PAGED_SIZED_SAMPLES),
            ..Default::default()
        };
        tracer.span("workload.serve_paged", None, |root| {
            let conns = client::run_closed(
                addr,
                &pool,
                1,
                PAGED_WINDOW,
                seconds,
                PAGED_WARMUP + 4 * PAGED_WINDOW as u64,
                0,
                tracer,
                root,
            )
            .expect("paged phase");
            let done = &conns[0];
            m.attempted = done.len() as u64;
            m.failed = done.iter().filter(|c| !c.correct).count() as u64;
            // Measured: everything after the warm-up's last completion.
            let warm_ns = done
                .iter()
                .find(|c| c.seq == PAGED_WARMUP - 1)
                .map_or(u64::MAX, |c| c.done_ns);
            if warm_ns != u64::MAX {
                m.round_throughput = block_throughput(&conns, warm_ns, PAGED_BLOCK);
                m.turnaround_ms = done
                    .iter()
                    .filter(|c| c.correct && c.seq >= PAGED_WARMUP)
                    .map(|c| c.latency_ms)
                    .collect();
            }
        });
        m.fail_if_unanswered();
        m
    });
    let stats = server.stop().expect("server run");
    out.add_check(serve_stats_check(&stats));
    record_serve_stats(&mut out, &stats);

    out.set_measured(&measured, overhead);
    out.note("latency_limit_ms", SERVE_LATENCY_LIMIT_MS);
    out.note("latency_limit_met", out.tail_ms <= SERVE_LATENCY_LIMIT_MS);
    let _ = std::fs::remove_dir_all(&dir);
    out
}
