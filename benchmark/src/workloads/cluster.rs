//! `cluster_lbe`: whole `cluster_search_rank` jobs — partition, partial
//! build, barrier, full-scan open search, gather, master merge — on
//! `min(nproc, 4)` ranks run as threads over a loopback TCP mesh, with the
//! LBE (cyclic) partition policy and one thread per rank. Wall-clock ranks
//! never exceed cores; larger rank counts are reported as counts only, by
//! the layer probes.

use super::{preprocess_all, Corpus};
use crate::client::wire_psms;
use crate::gen::{self, InputDigest};
use crate::harness::{measure_phases, Ctx, Measured, Outcome, Sample, SetupReps, SIZED_ROUNDS};
use crate::json::Json;
use crate::stats;
use crate::trace::{SpanId, Tracer};
use lbe_bio::peptide::PeptideDb;
use lbe_cluster::{
    CommCostModel, CommError, Communicator, Hostfile, ImbalanceSummary, TcpConfig, TcpTransport,
};
use lbe_core::dist::cluster_search_rank;
use lbe_core::engine::{DistributedSearchReport, EngineConfig};
use lbe_core::grouping::{group_peptides, Grouping, GroupingParams};
use lbe_core::mapping::MappingTable;
use lbe_core::partition::{partition_groups, PartitionPolicy};
use lbe_core::serve::proto::WirePsm;
use lbe_index::{IndexBuilder, QueryOptions, QueryStats, Searcher};
use lbe_spectra::spectrum::Spectrum;
use std::collections::{BTreeMap, BTreeSet};
use std::net::TcpListener;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Receive timeout on the mesh: generous, so only a hung rank trips it.
const RECV_TIMEOUT: Duration = Duration::from_secs(60);

/// Tag of the master's "another round?" message (below the collectives'
/// reserved range).
const TAG_CONTINUE: u32 = 77;

/// A connected loopback TCP mesh: one communicator per rank, rank order.
pub struct Mesh {
    pub comms: Vec<Communicator>,
}

impl Mesh {
    /// Binds one ephemeral listener per rank and connects the full mesh
    /// (`TcpTransport::connect_with_listener`, one thread per rank).
    pub fn connect(ranks: usize) -> Result<Mesh, CommError> {
        let listeners: Vec<TcpListener> = (0..ranks)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback listener"))
            .collect();
        let hostfile = Hostfile::from_addrs(
            listeners
                .iter()
                .map(|l| l.local_addr().expect("listener address"))
                .collect(),
        );
        let hostfile = &hostfile;
        let comms = std::thread::scope(|scope| {
            let handles: Vec<_> = listeners
                .into_iter()
                .enumerate()
                .map(|(rank, listener)| {
                    scope.spawn(move || {
                        TcpTransport::connect_with_listener(
                            hostfile,
                            rank,
                            listener,
                            &TcpConfig::default(),
                        )
                        .map(|t| {
                            Communicator::over(Box::new(t), CommCostModel::default(), RECV_TIMEOUT)
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rank connect thread panicked"))
                .collect::<Result<Vec<_>, _>>()
        })?;
        Ok(Mesh { comms })
    }
}

/// Everything every rank of a job is given (identical on all ranks).
pub struct JobInputs {
    pub db: PeptideDb,
    pub grouping: Grouping,
    pub queries: Vec<Spectrum>,
    pub cfg: EngineConfig,
    /// The single index's answers: per query, the top-k `(peptide,
    /// modform, shared_peaks, score)` under `rank_cmp`.
    pub expected: Vec<Vec<WirePsm>>,
    /// Per query, every candidate of the single index: `(peptide,
    /// modform)` → `(shared_peaks, score bits)`.
    pub candidates: Vec<BTreeMap<(u32, u16), (u16, u32)>>,
    /// Work counters of the single-index search, summed over the queries.
    pub expected_stats: QueryStats,
}

impl JobInputs {
    /// Digest + group the corpus (the program's own preprocessing, done
    /// once before any job), and derive the single-index reference.
    pub fn prepare(tracer: &Tracer, corpus: &Corpus, queries: Vec<Spectrum>) -> JobInputs {
        let (db, _) = tracer.span("bio.digest", None, |_| gen::digest_db(&corpus.proteins));
        let (grouping, _) = tracer.span("core.grouping", None, |_| {
            group_peptides(&db, &GroupingParams::default())
        });
        let cfg = EngineConfig {
            modspec: corpus.modspec.clone(),
            threads_per_rank: 1,
            ..EngineConfig::with_policy(PartitionPolicy::Cyclic)
        };
        let single = IndexBuilder::new(cfg.slm.clone(), cfg.modspec.clone()).build(&db);
        let mut searcher = Searcher::new(&single);
        let (results, totals) = searcher.search_batch(&queries);
        let expected = results.iter().map(|r| wire_psms(&r.psms)).collect();
        let unbounded = QueryOptions {
            top_k: Some(usize::MAX),
            ..Default::default()
        };
        let candidates = queries
            .iter()
            .map(|q| {
                searcher
                    .search_with_opts(q, &unbounded)
                    .psms
                    .iter()
                    .map(|p| ((p.peptide, p.modform), (p.shared_peaks, p.score.to_bits())))
                    .collect()
            })
            .collect();
        JobInputs {
            db,
            grouping,
            queries,
            cfg,
            expected,
            candidates,
            expected_stats: totals,
        }
    }

    /// Compares a job's merged report with the single-index search.
    ///
    /// Candidate totals must be equal, and every query's merged list must
    /// be *a* top-k of the single index's candidates: the same length, the
    /// same `(shared_peaks, score)` sequence, every PSM a distinct genuine
    /// candidate carrying exactly that score. Returns how many queries
    /// nevertheless differ from the single index's own top-k — possible
    /// only where candidates tie on the exact f32 score across the k-th
    /// place: each rank cuts its top-k on rank-local peptide ids before
    /// the master re-ranks on global ids, so which of the tied candidates
    /// survive can differ (the program's known divergence, see README).
    /// `None` = a wrong answer.
    fn verify(&self, report: &DistributedSearchReport) -> Option<u64> {
        if report.total_candidates != self.expected_stats.candidates
            || report.psms.len() != self.expected.len()
        {
            return None;
        }
        let mut tie_divergent = 0;
        for ((got, want), candidates) in
            report.psms.iter().zip(&self.expected).zip(&self.candidates)
        {
            let got: Vec<WirePsm> = got
                .iter()
                .map(|g| (g.peptide, g.modform, g.shared_peaks, g.score))
                .collect();
            if got == *want {
                continue;
            }
            let same_scores = got.len() == want.len()
                && got
                    .iter()
                    .zip(want)
                    .all(|(g, w)| (g.2, g.3.to_bits()) == (w.2, w.3.to_bits()));
            let genuine = got
                .iter()
                .all(|g| candidates.get(&(g.0, g.1)) == Some(&(g.2, g.3.to_bits())));
            let distinct = got
                .iter()
                .map(|g| (g.0, g.1))
                .collect::<BTreeSet<_>>()
                .len()
                == got.len();
            if !(same_scores && genuine && distinct) {
                return None;
            }
            tie_divergent += 1;
        }
        Some(tie_divergent)
    }
}

/// What rank 0 saw of one job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobRound {
    /// Wall seconds of the whole job at rank 0.
    pub job_s: f64,
    /// Slowest rank's partial-index build (wall).
    pub build_s: f64,
    /// Slowest rank's query phase (wall): the paper's query time.
    pub query_makespan_s: f64,
    /// Eq. 1 over the ranks' wall query times.
    pub li_wall_pct: f64,
    pub cpsms_per_query: f64,
    /// Σ per-rank index footprints ÷ Σ per-rank ions.
    pub resident_bytes_per_ion: f64,
    /// Queries whose merged top-k differs from the single index's only in
    /// which exact-score ties survived the cut; `None` = a wrong answer.
    pub tie_divergent: Option<u64>,
}

impl Mesh {
    /// Runs `f` on every rank, one thread each; results in rank order.
    pub fn run<T: Send>(&mut self, f: impl Fn(&mut Communicator) -> T + Sync) -> Vec<T> {
        let f = &f;
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .comms
                .iter_mut()
                .map(|comm| scope.spawn(move || f(comm)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rank thread panicked"))
                .collect()
        })
    }
}

/// Runs jobs on `mesh` until `again(rounds_done)` says stop (asked on
/// rank 0 before every job and sent to the other ranks). Returns rank 0's
/// view of every round.
pub fn run_jobs(
    mesh: &mut Mesh,
    inputs: &JobInputs,
    again: impl FnMut(usize) -> bool + Send,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Result<Vec<JobRound>, CommError> {
    let again = Mutex::new(again);
    let per_rank = mesh.run(|comm| rank_loop(comm, inputs, &again, tracer, parent));
    let mut rounds = Vec::new();
    for r in per_rank {
        rounds.extend(r?);
    }
    Ok(rounds)
}

fn rank_loop(
    comm: &mut Communicator,
    inputs: &JobInputs,
    again: &Mutex<impl FnMut(usize) -> bool>,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Result<Vec<JobRound>, CommError> {
    let mut rounds = Vec::new();
    loop {
        let go = if comm.is_master() {
            let go = (again.lock().expect("only rank 0 locks this"))(rounds.len());
            for dest in 1..comm.size() {
                comm.try_send(dest, TAG_CONTINUE, go, 1)?;
            }
            go
        } else {
            comm.try_recv::<bool>(0, TAG_CONTINUE)?
        };
        if !go {
            return Ok(rounds);
        }
        let name = format!("core.dist.cluster_search_rank.r{}", comm.rank());
        let t0 = Instant::now();
        let (report, _) = tracer.span(&name, parent, |_| {
            cluster_search_rank(
                comm,
                &inputs.db,
                &inputs.grouping,
                &inputs.queries,
                &inputs.cfg,
            )
        });
        let job_s = t0.elapsed().as_secs_f64();
        if let Some(report) = report? {
            let max = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
            let bytes: usize = report.footprints.iter().map(|f| f.total()).sum();
            let ions: usize = report.index_ions.iter().sum();
            rounds.push(JobRound {
                job_s,
                build_s: max(&report.build_times),
                query_makespan_s: report.query_time(),
                li_wall_pct: ImbalanceSummary::from_times(&report.rank_query_times)
                    .load_imbalance_pct(),
                cpsms_per_query: report.cpsms_per_query(),
                resident_bytes_per_ion: bytes as f64 / ions.max(1) as f64,
                tie_divergent: inputs.verify(&report),
            });
        }
    }
}

/// The corpus and query set of the cluster job at `ctx`'s scale.
pub fn job_corpus(ctx: &Ctx) -> (Corpus, Vec<Spectrum>) {
    let corpus = Corpus::generate(ctx.scale.cluster_ions, gen::modspec_a(), ctx.seed);
    let queries =
        preprocess_all(&corpus.raw_queries(ctx.scale.cluster_queries, gen::SKEW, ctx.seed));
    (corpus, queries)
}

/// Ranks of the wall-clock job: never more than cores, at most 4.
pub fn wall_ranks(ctx: &Ctx) -> usize {
    ctx.threads.clamp(1, 4)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let ranks = wall_ranks(ctx);

    // Generated inputs.
    let (corpus, queries) = job_corpus(ctx);
    let mut digest = InputDigest::default();
    digest.proteins(&corpus.proteins);
    digest.spectra(&queries);
    out.input_digest = digest.hex();
    let inputs = JobInputs::prepare(ctx.tracer, &corpus, queries);
    out.note("ranks", ranks);
    out.note("peptides", inputs.db.len());
    out.note("groups", inputs.grouping.num_groups());
    out.note("queries", inputs.queries.len());

    // Set-up: mesh connect + LBE partition (+ its mapping table), repeated.
    let (mut mesh, setup) = SetupReps::new(ctx).finish(|span| {
        let (mesh, _) = ctx.tracer.span("cluster.tcp.connect", span, |_| {
            Mesh::connect(ranks).expect("loopback mesh")
        });
        ctx.tracer.span("core.partition", span, |_| {
            let partition = partition_groups(&inputs.grouping, ranks, PartitionPolicy::Cyclic);
            MappingTable::from_partition(&partition).len()
        });
        mesh
    });
    out.e2e.insert("setup_s".into(), setup);

    let mut last = Vec::new();
    let (measured, overhead) = measure_phases(ctx, |seconds, tracer| {
        let start = Instant::now();
        let (rounds, _) = tracer.span("workload.cluster_lbe", None, |root| {
            run_jobs(
                &mut mesh,
                &inputs,
                |done| done < 2 || start.elapsed().as_secs_f64() < seconds,
                tracer,
                root,
            )
            .expect("cluster job")
        });
        let n = inputs.queries.len() as u64;
        let m = Measured {
            round_throughput: rounds.iter().map(|r| n as f64 / r.job_s).collect(),
            turnaround_ms: rounds.iter().map(|r| r.job_s * 1e3).collect(),
            window: 0,
            tail_pctile: stats::tail_percentile(SIZED_ROUNDS),
            attempted: n * rounds.len() as u64,
            failed: n * rounds.iter().filter(|r| r.tie_divergent.is_none()).count() as u64,
        };
        last = rounds;
        m
    });
    out.set_measured(&measured, overhead);
    let first = last.first().expect("at least two jobs ran");
    out.e2e.insert(
        "resident_bytes_per_ion".into(),
        Sample::exact(first.resident_bytes_per_ion),
    );
    out.note("cpsms_per_query", first.cpsms_per_query);
    out.note(
        "tie_divergent_queries",
        first.tie_divergent.map_or(Json::Null, Json::from),
    );
    out
}
