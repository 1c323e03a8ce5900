//! The layer probes of the traced run: one measurement per layer of the
//! program, made by calling that layer's `pub` functions directly on the
//! workloads' own corpora. Each probe runs under a span of its own, so the
//! trace file shows what the per-layer numbers were read from.
//!
//! Every traced run makes every probe, whichever workload it traces: the
//! per-layer metrics are properties of the layers, and the contract wants
//! all of them from every traced run.

use crate::check::{index_equals_brute_force, Check};
use crate::client::{self, Job, RunningServer};
use crate::gen::{self, Scale};
use crate::harness::Ctx;
use crate::spec::{LADDER_RATES, QUERY_POINTS, SERVE_LATENCY_LIMIT_MS};
use crate::stats;
use crate::trace::SpanId;
use crate::workloads::cluster::{self, JobInputs, Mesh};
use crate::workloads::serve::{self, PagedStore};
use crate::workloads::{preprocess_all, Corpus};
use lbe_cluster::{Communicator, ImbalanceSummary};
use lbe_core::engine::{run_distributed_search, SearchCostModel};
use lbe_core::grouping::{group_peptides, GroupingParams};
use lbe_core::mapping::MappingTable;
use lbe_core::partition::{partition_groups, PartitionPolicy};
use lbe_core::serve::proto::{Request, Response, WirePsm};
use lbe_core::serve::ResidentEngine;
use lbe_index::io::MAGIC_V2;
use lbe_index::{
    search_batch_parallel_with_opts, ChunkStore, IndexBuilder, QueryOptions, ReadOptions, ScanMode,
    Searcher, SlmConfig, SlmIndex,
};
use lbe_spectra::preprocess::{preprocess_spectrum, PreprocessParams};
use lbe_spectra::spectrum::Spectrum;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Queries the brute-force reference re-derives per tolerance point.
const BRUTE_QUERIES: usize = 8;

/// Queries of the paged sequence the chunk-store probe replays.
const CHUNKED_REPLAY: usize = 128;

/// Collects per-layer metrics and the probes' own output checks.
struct Probe<'a> {
    ctx: &'a Ctx<'a>,
    root: Option<SpanId>,
    metrics: BTreeMap<String, f64>,
    checks: Vec<Check>,
}

impl Probe<'_> {
    fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Runs `f` under a span named `name` (child of the probes' root) and
    /// returns its value and seconds.
    fn timed<T>(&self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        self.ctx.tracer.span(name, self.root, |_| f())
    }

    /// Median seconds of three runs of `f` (for sub-100 ms operations).
    fn median3(&self, name: &str, mut f: impl FnMut()) -> f64 {
        let times: Vec<f64> = (0..3).map(|_| self.timed(name, &mut f).1).collect();
        stats::median(&times)
    }
}

/// Runs every probe. Returns the per-layer metrics (all of
/// `spec::per_layer()` except the `trace.*` pair the caller adds) and the
/// checks made on the way.
pub fn probe_all(ctx: &Ctx) -> (BTreeMap<String, f64>, Vec<Check>) {
    let ((metrics, checks), _) = ctx.tracer.span("probes", None, |root| {
        let mut p = Probe {
            ctx,
            root,
            metrics: BTreeMap::new(),
            checks: Vec::new(),
        };
        resident_layers(&mut p);
        paged_layers(&mut p);
        cluster_layers(&mut p);
        (p.metrics, p.checks)
    });
    (metrics, checks)
}

/// Seconds per item → microseconds per item.
fn us_per(secs: f64, n: usize) -> f64 {
    secs * 1e6 / n.max(1) as f64
}

fn mb_per_s(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / 1e6 / secs.max(1e-9)
}

// ---------------------------------------------------------------------------
// Corpus A: bio, grouping, preprocess, builder, io, query kernel, parallel
// batch, cost-model calibration, serve protocol/engine/server.
// ---------------------------------------------------------------------------

fn resident_layers(p: &mut Probe) {
    let ctx = p.ctx;
    let scale: Scale = ctx.scale;
    let corpus = Corpus::generate(scale.a_ions, gen::modspec_a(), ctx.seed);
    let raw = corpus.raw_queries(
        scale.closed_round.max(scale.serve_pool),
        gen::SKEW,
        ctx.seed,
    );

    let (db, digest_s) = p.timed("bio.digest", || gen::digest_db(&corpus.proteins));
    p.set("bio.digest.s", digest_s);
    p.set("bio.digest.peptides", db.len() as f64);

    let (grouping, group_s) = p.timed("core.grouping", || {
        group_peptides(&db, &GroupingParams::default())
    });
    p.set("core.grouping.s", group_s);
    p.set("core.grouping.groups", grouping.num_groups() as f64);
    p.set("core.grouping.mean_group_size", grouping.mean_group_size());

    let (queries, pre_s) = p.timed("spectra.preprocess", || preprocess_all(&raw));
    p.set(
        "spectra.preprocess.us_per_spectrum",
        us_per(pre_s, raw.len()),
    );

    let builder = || IndexBuilder::new(SlmConfig::default(), corpus.modspec.clone());
    let (index, build_s) = p.timed("index.builder.build", || builder().build(&db));
    let (_, build_par_s) = p.timed("index.builder.build_parallel", || {
        builder().build_parallel(&db, ctx.threads)
    });
    p.set("index.builder.build_s", build_s);
    p.set("index.builder.build_parallel_s", build_par_s);
    p.set("index.builder.ions", index.num_ions() as f64);
    p.set(
        "index.builder.ions_per_s",
        index.num_ions() as f64 / build_s,
    );

    // index.io
    let path = ctx.work_dir.join("probe.slm2");
    let write_s = p.median3("index.io.write", || {
        lbe_index::write_index_path(&path, &index).expect("write index")
    });
    let file_bytes = std::fs::metadata(&path).expect("index file").len() as usize;
    let read = |opts: ReadOptions| {
        black_box(lbe_index::read_index_path_with(&path, &opts).expect("read index"));
    };
    let validate_s = p.median3("index.io.read_validate", || read(ReadOptions::default()));
    let trusted_s = p.median3("index.io.read_trusted", || read(ReadOptions::trusted()));
    p.set("index.io.write_mb_per_s", mb_per_s(file_bytes, write_s));
    p.set(
        "index.io.read_validate_mb_per_s",
        mb_per_s(file_bytes, validate_s),
    );
    p.set(
        "index.io.read_trusted_mb_per_s",
        mb_per_s(file_bytes, trusted_s),
    );

    query_kernel(
        p,
        &index,
        &db,
        &corpus,
        &queries[..scale.check_queries.min(queries.len())],
    );
    parallel_batch(p, &index, &queries);
    serve_layers(p, &path, &raw[..scale.serve_pool.min(raw.len())]);
    let _ = std::fs::remove_file(&path);
}

/// `index.query.<t>.*`, `index.scan.*` and the cost-model calibration
/// (`core.engine.*`): one `Searcher`, one thread, four tolerances, both
/// scan modes.
fn query_kernel(
    p: &mut Probe,
    index: &SlmIndex,
    db: &lbe_bio::peptide::PeptideDb,
    corpus: &Corpus,
    queries: &[Spectrum],
) {
    let n = queries.len();
    let model = SearchCostModel::default();
    let (mut model_s, mut wall_s) = (0.0, 0.0);
    let mut searcher = Searcher::new(index);
    for (label, tol) in QUERY_POINTS {
        let opts = |scan_mode| QueryOptions {
            scan_mode,
            precursor_tolerance: Some(tol),
            ..Default::default()
        };
        // One untimed pass warms caches and sizes the scratch.
        black_box(searcher.search_batch_with_opts(queries, &opts(ScanMode::Auto)));
        let ((auto, totals), auto_s) = p.timed(&format!("index.query.{label}.auto"), || {
            searcher.search_batch_with_opts(queries, &opts(ScanMode::Auto))
        });
        let ((full, full_totals), full_s) = p.timed(&format!("index.query.{label}.full"), || {
            searcher.search_batch_with_opts(queries, &opts(ScanMode::FullScan))
        });
        let disagreed = auto
            .iter()
            .zip(&full)
            .filter(|(a, f)| a.psms != f.psms || a.stats.candidates != f.stats.candidates)
            .count();
        p.checks.push(Check::new(
            format!("probe: Auto == FullScan at dM={tol}"),
            n as u64,
            disagreed as u64,
        ));
        let mut brute = index_equals_brute_force(
            index,
            db,
            &corpus.modspec,
            &queries[..BRUTE_QUERIES.min(n)],
            tol,
        );
        brute.name = format!("probe: {}", brute.name);
        p.checks.push(brute);

        let per_query = |v: u64| v as f64 / n as f64;
        let key = |m: &str| format!("index.query.{label}.{m}");
        p.set(&key("us_per_query"), us_per(auto_s, n));
        p.set(&key("fullscan_us_per_query"), us_per(full_s, n));
        p.set(
            &key("postings_scanned_per_query"),
            per_query(totals.postings_scanned),
        );
        p.set(
            &key("postings_skipped_per_query"),
            per_query(totals.postings_skipped_by_band),
        );
        p.set(
            &key("bins_touched_per_query"),
            per_query(totals.bins_touched),
        );
        p.set(
            &key("bins_pruned_per_query"),
            per_query(totals.bins_pruned_by_band),
        );
        p.set(&key("candidates_per_query"), per_query(totals.candidates));
        p.set(
            &key("candidates_per_posting"),
            totals.candidates as f64 / totals.postings_scanned.max(1) as f64,
        );
        model_s += auto
            .iter()
            .map(|r| model.query_seconds(&r.stats))
            .sum::<f64>();
        wall_s += auto_s;

        if tol.is_infinite() {
            // The full scan at ΔM = ∞ is the scatter with nothing else
            // around it: every posting of every touched bin, no band.
            p.set(
                "index.scan.ns_per_posting",
                full_s * 1e9 / full_totals.postings_scanned.max(1) as f64,
            );
            // Computed from array element sizes, not measured: a u32
            // posting read plus an 8-byte counter slot read-modify-write
            // per posting, two u64 bin offsets per bin, a 12-byte entry
            // per candidate.
            let bytes = full_totals.postings_scanned * (4 + 16)
                + full_totals.bins_touched * 16
                + full_totals.candidates * 12;
            p.set("index.scan.computed_bytes_per_query", per_query(bytes));
        }
    }
    p.set("core.engine.model_query_s", model_s);
    p.set(
        "core.engine.model_vs_wall_err_pct",
        ((model_s - wall_s) / wall_s * 100.0).abs(),
    );
}

/// `index.parallel.*`: a 1-thread round over an `nproc`-thread round, on
/// the two batch workloads' own rounds.
fn parallel_batch(p: &mut Probe, index: &SlmIndex, queries: &[Spectrum]) {
    let scale = p.ctx.scale;
    let threads = p.ctx.threads;
    for (label, tol, len) in [
        ("closed", 0.01, scale.closed_round),
        ("open500", 500.0, scale.open_round),
    ] {
        let batch = &queries[..len.min(queries.len())];
        let opts = QueryOptions {
            precursor_tolerance: Some(tol),
            ..Default::default()
        };
        let round = |t: usize| {
            p.timed(&format!("index.parallel.{label}.t{t}"), || {
                black_box(search_batch_parallel_with_opts(index, batch, t, &opts));
            })
            .1
        };
        round(threads); // warm the pool and the caches
        let (one, many) = (round(1), round(threads));
        p.set(&format!("index.parallel.speedup_x.{label}"), one / many);
    }
    p.set("index.parallel.threads", threads as f64);
}

/// `core.serve.proto.*`, `core.serve.engine.*`, `core.serve.server.*` on
/// the index file at `path`, with `serve_mixed`'s tolerance mix.
fn serve_layers(p: &mut Probe, path: &std::path::Path, raw: &[Spectrum]) {
    let ctx = p.ctx;
    let tolerances = gen::tolerance_mix(
        &serve::MIXED_TOLERANCES,
        serve::MIX_PERIOD,
        raw.len(),
        ctx.seed,
    );

    let (engine, open_s) = p.timed("core.serve.engine.open", || {
        ResidentEngine::open(path, usize::MAX).expect("open engine")
    });
    p.set("core.serve.engine.open_s", open_s);
    let pool = serve::job_pool(raw.to_vec(), &tolerances, &engine);

    // Protocol codec: each direction of each frame, on real payloads.
    {
        let requests: Vec<Vec<u8>> = pool.iter().map(|j| j.frame(7)[4..].to_vec()).collect();
        let responses: Vec<Response> = pool
            .iter()
            .map(|j| Response::Result {
                req_id: 7,
                psms: j.expected.clone(),
                flags: 0,
            })
            .collect();
        let encoded: Vec<Vec<u8>> = responses.iter().map(Response::encode).collect();
        let n = pool.len();
        let (_, s) = p.timed("core.serve.proto.request_encode", || {
            pool.iter().for_each(|j| drop(black_box(j.frame(7))));
        });
        p.set("core.serve.proto.request_encode_us", us_per(s, n));
        let (_, s) = p.timed("core.serve.proto.request_decode", || {
            requests
                .iter()
                .for_each(|r| drop(black_box(Request::decode(r).expect("own request"))));
        });
        p.set("core.serve.proto.request_decode_us", us_per(s, n));
        let (_, s) = p.timed("core.serve.proto.response_encode", || {
            responses.iter().for_each(|r| drop(black_box(r.encode())));
        });
        p.set("core.serve.proto.response_encode_us", us_per(s, n));
        let (_, s) = p.timed("core.serve.proto.response_decode", || {
            encoded
                .iter()
                .for_each(|r| drop(black_box(Response::decode(r).expect("own response"))));
        });
        p.set("core.serve.proto.response_decode_us", us_per(s, n));
    }

    // search_wave called directly on the mix, at three wave sizes.
    let jobs: Vec<(Spectrum, QueryOptions)> = pool
        .iter()
        .map(|j| (engine.preprocess(&j.raw), client::options(j.tolerance)))
        .collect();
    for w in [1usize, 8, 64] {
        let (wrong, s) = p.timed(&format!("core.serve.engine.wave.w{w}"), || {
            let mut wrong = 0u64;
            for (wave, want) in jobs.chunks(w).zip(pool.chunks(w)) {
                for (got, job) in engine.search_wave(wave, ctx.threads).into_iter().zip(want) {
                    wrong +=
                        u64::from(got.map_or(true, |r| client::wire_psms(&r.psms) != job.expected));
                }
            }
            wrong
        });
        p.set(
            &format!("core.serve.engine.wave_us_per_query.w{w}"),
            us_per(s, jobs.len()),
        );
        p.checks.push(Check::new(
            format!("probe: search_wave (w={w}) == search_one"),
            jobs.len() as u64,
            wrong,
        ));
    }

    // The same requests answered in-process, one at a time: what the
    // served path's unloaded latency is an overhead *on*.
    let unloaded: Vec<Job> = pool.iter().take(256).cloned().collect();
    let mut direct_us: Vec<f64> = unloaded
        .iter()
        .map(|j| {
            let t0 = Instant::now();
            black_box(
                engine
                    .search_one(&engine.preprocess(&j.raw), &client::options(j.tolerance))
                    .expect("search_one"),
            );
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    direct_us.sort_by(f64::total_cmp);
    drop(engine);

    // The server itself.
    let server =
        client::open_and_bind(path, usize::MAX, serve::serve_config(ctx)).expect("open + bind");
    let server = RunningServer::spawn(server);
    let addr = server.addr;
    let tracer = ctx.tracer;
    let mut failed = 0u64;
    let mut attempted = 0u64;

    let (conns, _) = p.timed("core.serve.server.unloaded", || {
        client::run_closed(
            addr,
            &unloaded,
            1,
            1,
            0.0,
            unloaded.len() as u64,
            0,
            tracer,
            None,
        )
        .expect("unloaded phase")
    });
    let mut served_ms: Vec<f64> = conns[0].iter().map(|c| c.latency_ms).collect();
    attempted += conns[0].len() as u64;
    failed += conns[0].iter().filter(|c| !c.correct).count() as u64;
    served_ms.sort_by(f64::total_cmp);
    let unloaded_p50_ms = stats::percentile_sorted(&served_ms, 50.0);
    p.set("core.serve.server.unloaded_p50_ms", unloaded_p50_ms);
    p.set(
        "core.serve.server.overhead_us",
        unloaded_p50_ms * 1e3 - stats::percentile_sorted(&direct_us, 50.0),
    );

    // The ladder: four fixed open-loop rates, lowest first.
    let step_s = (ctx.seconds / 10.0).max(0.2);
    let mut sustained = 0.0;
    for (i, rate) in LADDER_RATES.into_iter().enumerate() {
        let r = i + 1;
        let (step, _) = p.timed(&format!("core.serve.server.ladder.r{r}"), || {
            client::run_paced(addr, &pool, rate, step_s, 0, tracer, None).expect("ladder step")
        });
        attempted += step.attempted;
        failed += step.failed;
        let mut lat = step.latency_ms.clone();
        lat.sort_by(f64::total_cmp);
        if lat.is_empty() {
            lat.push(f64::MAX); // nothing answered: misses every limit
        }
        let p95 = stats::percentile_sorted(&lat, 95.0);
        p.set(
            &format!("core.serve.server.ladder.r{r}.p50_ms"),
            stats::percentile_sorted(&lat, 50.0),
        );
        p.set(&format!("core.serve.server.ladder.r{r}.p95_ms"), p95);
        if step.failed == 0 && p95 <= SERVE_LATENCY_LIMIT_MS && !step.backlog_grew() {
            sustained = rate;
        }
        if rate == serve::PACED_RATE_PER_S {
            // At the rate `serve_mixed` is paced at: how late the
            // generator ran, and the furthest tail the samples support.
            let mut lag = step.lag_ms.clone();
            lag.sort_by(f64::total_cmp);
            p.set(
                "core.serve.server.generator_lag_p95_ms",
                stats::percentile_sorted(&lag, 95.0),
            );
            let pctile = (100.0 * (1.0 - 10.0 / lat.len() as f64)).max(50.0);
            p.set("core.serve.server.tail_pctile", pctile);
            p.set(
                "core.serve.server.tail_ms",
                stats::percentile_sorted(&lat, pctile),
            );
        }
    }
    p.set("core.serve.server.sustained_rate_per_s", sustained);

    let stats = server.stop().expect("server run");
    for (k, v) in serve::serve_stats_fields(&stats) {
        p.set(&format!("core.serve.server.{k}"), v as f64);
    }
    p.checks.push(Check::new(
        "probe: every served response == in-process search_one",
        attempted,
        failed + stats.protocol_errors + stats.degraded,
    ));
}

// ---------------------------------------------------------------------------
// Corpus B: generation store lifecycle, chunk residency, compression.
// ---------------------------------------------------------------------------

fn paged_layers(p: &mut Probe) {
    let ctx = p.ctx;
    let dir = ctx.work_dir.join("probe.store");
    let corpus = Corpus::generate(ctx.scale.b_ions, gen::modspec_b(), ctx.seed);
    let n = CHUNKED_REPLAY.min(ctx.scale.paged_seq);
    let raw = corpus.raw_queries(ctx.scale.paged_seq, gen::SKEW, ctx.seed);
    let tolerances = gen::tolerance_mix(
        &serve::PAGED_TOLERANCES,
        serve::MIX_PERIOD,
        raw.len(),
        ctx.seed,
    );

    let PagedStore {
        db,
        store,
        init_s,
        append_s,
    } = serve::build_paged_store(ctx.tracer, p.root, &corpus, ctx.scale.paged_chunks, &dir)
        .expect("init + append");
    p.set("index.lifecycle.init_s", init_s);
    p.set("index.lifecycle.append_s", append_s);
    let st = store.stats().expect("store stats");
    let chunks = st.records.len();
    let budget = (chunks / 2).max(1);
    p.set("index.lifecycle.stored_bytes", st.stored_bytes as f64);
    p.set("index.lifecycle.logical_bytes", st.logical_bytes as f64);

    // Compression, on the whole corpus as one container image.
    let whole = IndexBuilder::new(SlmConfig::default(), corpus.modspec.clone()).build(&db);
    p.set(
        "index.lifecycle.stored_bytes_per_ion",
        st.stored_bytes as f64 / whole.num_ions() as f64,
    );
    let mut image = Vec::new();
    lbe_index::write_index(&mut image, &whole).expect("serialize index");
    drop(whole);
    let mut packed = Vec::new();
    let pack_s = p.median3("index.compress.compress", || {
        packed = lbe_index::compress::compress_container(&image, MAGIC_V2).expect("compress");
    });
    let unpack_s = p.median3("index.compress.decompress", || {
        black_box(
            lbe_index::compress::decompress_container(&packed, MAGIC_V2).expect("decompress"),
        );
    });
    p.set(
        "index.compress.ratio",
        image.len() as f64 / packed.len() as f64,
    );
    p.set(
        "index.compress.compress_mb_per_s",
        mb_per_s(image.len(), pack_s),
    );
    p.set(
        "index.compress.decompress_mb_per_s",
        mb_per_s(image.len(), unpack_s),
    );
    drop((image, packed));

    // Chunk residency: the head of serve_paged's sequence replayed straight
    // on a ChunkStore, from cold under the budget and then all-resident.
    let reference = ResidentEngine::open(&dir, usize::MAX).expect("reference engine");
    let head: Vec<Job> = serve::job_pool(raw[..n].to_vec(), &tolerances[..n], &reference);
    drop(reference);
    let ((paged, wrong), paged_s) = p.timed("index.chunked.replay_budgeted", || {
        serve::replay_direct(&dir, budget, &head).expect("budgeted replay")
    });
    p.checks.push(Check::new(
        "probe: paged ChunkStore == all-resident engine",
        n as u64,
        wrong,
    ));
    let r = paged.stats();
    drop(paged);
    let accesses = (r.hits + r.faults).max(1);
    p.set("index.chunked.hits", r.hits as f64);
    p.set("index.chunked.faults", r.faults as f64);
    p.set("index.chunked.evictions", r.evictions as f64);
    p.set("index.chunked.hit_rate", r.hits as f64 / accesses as f64);
    p.set("index.chunked.chunks_per_query", accesses as f64 / n as f64);
    let resident_s = {
        let mut all = ChunkStore::open_generation_dir(&dir, usize::MAX).expect("open store");
        let pre = PreprocessParams::default();
        let queries: Vec<(Spectrum, QueryOptions)> = head
            .iter()
            .map(|j| {
                (
                    preprocess_spectrum(&j.raw, &pre),
                    client::options(j.tolerance),
                )
            })
            .collect();
        let pass = |all: &mut ChunkStore| {
            for (q, opts) in &queries {
                black_box(all.search_with_opts(q, opts).expect("resident search"));
            }
        };
        pass(&mut all); // fault everything the sequence touches
        p.timed("index.chunked.replay_resident", || pass(&mut all))
            .1
    };
    p.set(
        "index.chunked.resident_search_us_per_query",
        us_per(resident_s, n),
    );
    p.set(
        "index.chunked.fault_ms",
        (paged_s - resident_s).max(0.0) * 1e3 / r.faults.max(1) as f64,
    );

    // Compaction and GC, last: they rewrite the store.
    let (compacted, compact_s) = p.timed("index.lifecycle.compact", || store.compact());
    let compacted = compacted.expect("compact");
    p.set("index.lifecycle.compact_s", compact_s);
    let rewritten: u64 = store
        .stats()
        .expect("store stats")
        .records
        .iter()
        .filter(|rec| !rec.tombstone && rec.generation == compacted.generation)
        .map(|rec| rec.stored_len)
        .sum();
    p.set("index.lifecycle.compact_bytes_rewritten", rewritten as f64);
    let (gc, gc_s) = p.timed("index.lifecycle.gc", || store.gc());
    gc.expect("gc");
    p.set("index.lifecycle.gc_s", gc_s);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// The cluster job's corpus: partition quality, the real TCP job's stage
// times, the simulator's imbalance, and the collectives under it.
// ---------------------------------------------------------------------------

fn cluster_layers(p: &mut Probe) {
    let ctx = p.ctx;
    let (corpus, queries) = cluster::job_corpus(ctx);
    let inputs = JobInputs::prepare(ctx.tracer, &corpus, queries);

    partition_quality(p, &inputs, &corpus);

    // The deterministic virtual-time imbalance of the same job at p = 16.
    let (sim, _) = p.timed("core.dist.simulate.p16", || {
        run_distributed_search(
            &inputs.db,
            &inputs.grouping,
            &inputs.queries,
            &inputs.cfg,
            16,
        )
    });
    p.set(
        "core.dist.li_sim_pct.p16",
        ImbalanceSummary::from_times(&sim.rank_query_times).load_imbalance_pct(),
    );

    // Three real jobs over the loopback mesh.
    let ranks = cluster::wall_ranks(ctx);
    let (mesh, connect_s) = p.timed("cluster.tcp.connect", || {
        Mesh::connect(ranks).expect("loopback mesh")
    });
    let mut mesh = mesh;
    p.set("cluster.tcp.connect_s", connect_s);
    let (rounds, _) = ctx.tracer.span("core.dist.jobs", p.root, |span| {
        cluster::run_jobs(&mut mesh, &inputs, |done| done < 3, ctx.tracer, span)
            .expect("cluster jobs")
    });
    let med =
        |f: fn(&cluster::JobRound) -> f64| stats::median(&rounds.iter().map(f).collect::<Vec<_>>());
    p.set("core.dist.build_s", med(|r| r.build_s));
    p.set("core.dist.query_makespan_s", med(|r| r.query_makespan_s));
    // What is left of a job once its slowest build and slowest query
    // phase are taken out: partition extraction, the barrier, the gather
    // and the master's merge — the serial part.
    p.set(
        "core.dist.gather_merge_s",
        med(|r| (r.job_s - r.build_s - r.query_makespan_s).max(0.0)),
    );
    p.set("core.dist.li_wall_pct", med(|r| r.li_wall_pct));
    p.set("core.dist.cpsms_per_query", med(|r| r.cpsms_per_query));
    p.checks.push(Check::new(
        "probe: TCP job == single index (up to exact-score ties at the cut)",
        rounds.len() as u64,
        rounds.iter().filter(|r| r.tie_divergent.is_none()).count() as u64,
    ));

    // Collectives on the same mesh, at the job's gather payload.
    let payload: Vec<Vec<WirePsm>> = inputs.expected.clone();
    let psms: usize = payload.iter().map(Vec::len).sum();
    let sim_bytes = psms * std::mem::size_of::<WirePsm>();
    // Computed wire size: 12 bytes per PSM, an 8-byte length per list.
    p.set(
        "cluster.wire.gather_bytes",
        (psms * 12 + (payload.len() + 1) * 8) as f64,
    );
    const BARRIERS: usize = 200;
    const GATHERS: usize = 20;
    let (times, _) = p.timed("cluster.collectives", || {
        mesh.run(|comm: &mut Communicator| {
            comm.try_barrier().expect("barrier");
            let t0 = Instant::now();
            for _ in 0..BARRIERS {
                comm.try_barrier().expect("barrier");
            }
            let barrier_s = t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            for _ in 0..GATHERS {
                black_box(
                    comm.try_gather(0, payload.clone(), sim_bytes)
                        .expect("gather"),
                );
            }
            comm.try_barrier().expect("barrier");
            (barrier_s, t0.elapsed().as_secs_f64())
        })
    });
    p.set(
        "cluster.collectives.barrier_us",
        us_per(times[0].0, BARRIERS),
    );
    p.set("cluster.collectives.gather_us", us_per(times[0].1, GATHERS));
}

/// `core.partition.*`: how evenly each policy spreads the job's *work*,
/// not its peptides. A rank's cost-model seconds are computed — not
/// measured — from what the single-index search did: the candidates each
/// of its peptides produced (`per_candidate_s`, the paper's dominant
/// term) and its share of the postings scanned, taken as its share of the
/// indexed ions (`per_posting_s`), plus the per-query and per-bin terms
/// every rank pays alike. Eq. 1 over those seconds, exact for a seed.
fn partition_quality(p: &mut Probe, inputs: &JobInputs, corpus: &Corpus) {
    let cost = SearchCostModel::default();
    let n = inputs.db.len();
    let mut candidates = vec![0u64; n];
    for per_query in &inputs.candidates {
        for &(peptide, _) in per_query.keys() {
            candidates[peptide as usize] += 1;
        }
    }
    let ions: Vec<u64> = inputs
        .db
        .peptides()
        .iter()
        .map(|pep| gen::peptide_ions(pep.sequence(), &corpus.modspec))
        .collect();
    let total_ions = ions.iter().sum::<u64>().max(1) as f64;
    let totals = &inputs.expected_stats;
    let shared = inputs.queries.len() as f64 * cost.per_query_s
        + totals.bins_touched as f64 * cost.per_bin_s;

    let (_, partition_s) = p.timed("core.partition", || {
        let partition = partition_groups(&inputs.grouping, 16, PartitionPolicy::Cyclic);
        black_box(MappingTable::from_partition(&partition));
    });
    p.set("core.partition.partition_s", partition_s);
    for (name, policy) in [
        ("chunk", PartitionPolicy::Chunk),
        ("cyclic", PartitionPolicy::Cyclic),
        ("random", PartitionPolicy::Random { seed: p.ctx.seed }),
    ] {
        for ranks in [4usize, 16] {
            let partition = partition_groups(&inputs.grouping, ranks, policy);
            let seconds: Vec<f64> = (0..ranks)
                .map(|m| {
                    let (c, i) = partition.rank(m).iter().fold((0u64, 0u64), |(c, i), &pep| {
                        (c + candidates[pep as usize], i + ions[pep as usize])
                    });
                    shared
                        + c as f64 * cost.per_candidate_s
                        + totals.postings_scanned as f64
                            * (i as f64 / total_ions)
                            * cost.per_posting_s
                })
                .collect();
            p.set(
                &format!("core.partition.li_work_pct.{name}.p{ranks}"),
                ImbalanceSummary::from_times(&seconds).load_imbalance_pct(),
            );
            if (name, ranks) == ("cyclic", 16) {
                let (min, max) = partition.load_spread();
                p.set("core.partition.load_spread", (max - min) as f64);
            }
        }
    }
}
