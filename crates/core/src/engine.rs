//! Distributed index construction and querying (§III-D/E, Fig. 3 and 4):
//! one rank program, run by every backend.
//!
//! The paper's pipeline is one SPMD program, and it exists here once:
//!
//! * `rank_share` is a rank's **work** — extract its peptide partition
//!   from the clustered database, build its *partial* SLM index, search
//!   every query against it. It sends nothing and depends only on `(db,
//!   partition, rank, queries, cfg)`, so any process can compute any
//!   rank's share and get the same bytes.
//! * `search_program` is the **protocol** around it: charge the virtual
//!   clock for the share through [`SearchCostModel`] (serial preprocessing,
//!   extraction, build), barrier — the paper times querying separately
//!   from construction — charge the query phase, gather the per-query
//!   candidate lists (rank-local peptide ids) at the master, gather each
//!   rank's counters and clock, and on the master map local ids to
//!   original ones in O(1) each via the [`MappingTable`], merge top-k and
//!   assemble the [`DistributedSearchReport`].
//!
//! The simulator ([`run_distributed_search`]), real TCP clusters and
//! supervised runs ([`crate::dist`]) all run `search_program`; they differ
//! only in the transport under the [`Communicator`] and in whether the
//! master's collectives carry a dead-set. With one, a worker that is lost
//! costs its slot, not the run: after the gathers the master calls
//! `rank_share` for every rank in the dead-set, which *is* what the lost
//! rank would have sent, and reports the loss in
//! [`DistributedSearchReport::recovery`].
//!
//! A rank's top-k is cut on rank-local peptide ids. Partitions store each
//! rank's peptides ascending by global id ([`crate::partition`]), so that
//! cut keeps exactly the candidates a single index over the whole database
//! would — exact-score ties included.
//!
//! All figures of the paper are measurements of this program under varying
//! `(policy, ranks, index size)` — see `lbe-bench`.

use crate::grouping::Grouping;
use crate::mapping::MappingTable;
use crate::partition::{partition_groups, Partition, PartitionPolicy};
use lbe_bio::mods::ModSpec;
use lbe_bio::peptide::{Peptide, PeptideDb};
use lbe_cluster::sim::ImbalanceSummary;
use lbe_cluster::{Cluster, ClusterConfig, CommError, Communicator};
use lbe_index::footprint::MemoryFootprint;
use lbe_index::query::{Psm, QueryOptions, QueryStats};
use lbe_index::{IndexBuilder, SlmConfig, SlmIndex};
use lbe_spectra::spectrum::Spectrum;
use std::collections::BTreeSet;
use std::time::Instant;

/// Per-unit costs of the parallel phases (drive the virtual clock).
///
/// Absolute values are calibrated to commodity ~2019 Xeon cores so the
/// figure harness lands in the same order of magnitude as the paper; every
/// *comparison* in the evaluation is a ratio, so only relative magnitudes
/// matter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchCostModel {
    /// Per posting scanned during shared-peak counting.
    pub per_posting_s: f64,
    /// Per posting *skipped* by the banded kernel's precursor filter — the
    /// amortized binary-search cost of jumping over an out-of-window run
    /// instead of scanning it. Two orders of magnitude below
    /// `per_posting_s`: skipping is O(log run) pointer arithmetic per bin,
    /// spread over the whole run.
    pub per_posting_skip_s: f64,
    /// Per ion-bin lookup.
    pub per_bin_s: f64,
    /// Per bin the fragment-level band dismissed with its O(1) endpoint
    /// test — cheaper than a real bin visit (`per_bin_s`): two posting
    /// loads and two compares, no binary search, no posting scan.
    pub per_bin_pruned_s: f64,
    /// Per candidate PSM that passes filtration — this is the full
    /// spectrum-to-spectrum comparison the index exists to minimize
    /// ("computationally expensive", §I), so it dominates the per-query
    /// cost and is what the paper's load imbalance is made of.
    pub per_candidate_s: f64,
    /// Per band entry a closed query scored directly — its fragments
    /// regenerated and counted against the peak windows, no posting read
    /// (`QueryStats::entries_scored_directly`). The direct arm's measured
    /// slope on `batch_closed`: ≈ 0.75 µs an entry.
    pub per_entry_direct_s: f64,
    /// Fixed overhead per query spectrum.
    pub per_query_s: f64,
    /// Index construction cost per ion.
    pub per_ion_build_s: f64,
    /// Partition extraction cost per database peptide (each rank scans the
    /// clustered database once).
    pub per_peptide_extract_s: f64,
}

impl Default for SearchCostModel {
    fn default() -> Self {
        SearchCostModel {
            per_posting_s: 1.5e-9,
            per_posting_skip_s: 1.5e-11,
            per_bin_s: 2.0e-9,
            per_bin_pruned_s: 5.0e-10,
            per_candidate_s: 1.0e-6,
            per_entry_direct_s: 0.75e-6,
            per_query_s: 20e-6,
            per_ion_build_s: 12e-9,
            per_peptide_extract_s: 3e-9,
        }
    }
}

impl SearchCostModel {
    /// Virtual seconds of one query's search work.
    ///
    /// A query that took the direct arm (`entries_scored_directly > 0`)
    /// walked no bin and loaded no posting — its bin and posting counters
    /// are the walk's it stood in for — so it is charged its entries and
    /// candidates only.
    pub fn query_seconds(&self, stats: &QueryStats) -> f64 {
        if stats.entries_scored_directly > 0 {
            return self.per_query_s
                + stats.entries_scored_directly as f64 * self.per_entry_direct_s
                + stats.candidates as f64 * self.per_candidate_s;
        }
        // Bins the fragment-level band pruned cost `per_bin_pruned_s` each
        // instead of a full bin visit (`bins_pruned_by_band` is a subset of
        // `bins_touched`; the saturating_sub guards against degenerate
        // hand-assembled stats).
        let full_bins = stats.bins_touched.saturating_sub(stats.bins_pruned_by_band);
        self.per_query_s
            + full_bins as f64 * self.per_bin_s
            + stats.bins_pruned_by_band as f64 * self.per_bin_pruned_s
            + stats.postings_scanned as f64 * self.per_posting_s
            + stats.postings_skipped_by_band as f64 * self.per_posting_skip_s
            + stats.candidates as f64 * self.per_candidate_s
    }

    /// Virtual seconds to build an index of `ions` postings.
    pub fn build_seconds(&self, ions: usize) -> f64 {
        ions as f64 * self.per_ion_build_s
    }

    /// Scales the *index-size-linear* cost terms (posting scans, bin
    /// lookups, index build) by `factor`, leaving per-query and
    /// per-candidate costs alone.
    ///
    /// Used by the figure harness: when an experiment runs on an index
    /// `factor×` smaller than the paper's, multiplying these terms by
    /// `factor` restores the paper-scale per-query work profile — and with
    /// it the load-imbalance signal, which lives in how posting-scan work is
    /// distributed across ranks (the "data sketch" of §III).
    pub fn scaled_for_index(mut self, factor: f64) -> Self {
        assert!(factor > 0.0 && factor.is_finite());
        self.per_posting_s *= factor;
        // Skipped-posting counts grow with bin occupancy just like scanned
        // ones, so the skip term scales with index size too.
        self.per_posting_skip_s *= factor;
        self.per_ion_build_s *= factor;
        // Candidate counts are also ~linear in index size (the paper's
        // 73,723 cPSMs/query on a 49.45M index ≈ a constant ~1,490
        // candidates per query per million spectra), so the scoring term
        // scales the same way.
        self.per_candidate_s *= factor;
        // per_bin_s / per_bin_pruned_s are NOT scaled: bins touched per
        // query depend only on peak count × tolerance window, not on index
        // size.
        self
    }
}

/// Costs of the serial (non-scaling) phases — the Amdahl term of Figs. 9/10.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SerialCostModel {
    /// Query-file read + preprocessing per spectrum (every rank pays it —
    /// it does not shrink with p).
    pub per_spectrum_io_s: f64,
    /// Algorithm 1 grouping cost per peptide (preprocessing, master-side).
    pub per_peptide_grouping_s: f64,
    /// Master-side merge cost per received PSM.
    pub per_psm_merge_s: f64,
}

impl Default for SerialCostModel {
    fn default() -> Self {
        SerialCostModel {
            per_spectrum_io_s: 120e-6,
            per_peptide_grouping_s: 250e-9,
            per_psm_merge_s: 30e-9,
        }
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Index/search settings.
    pub slm: SlmConfig,
    /// Variable modifications to index.
    pub modspec: ModSpec,
    /// Data distribution policy.
    pub policy: PartitionPolicy,
    /// Parallel-phase cost model.
    pub cost: SearchCostModel,
    /// Serial-phase cost model.
    pub serial: SerialCostModel,
    /// Intra-rank threads (the paper's §VIII *hybrid OpenMP+MPI* direction):
    /// each rank dispatches its query batch through the shared
    /// work-stealing pool across this many threads (and builds its partial
    /// index with them); the rank's virtual query time is its slowest
    /// thread's under greedy least-loaded assignment. 1 = the paper's
    /// flat-MPI configuration.
    pub threads_per_rank: usize,
    /// Relative speed of each rank (1.0 = nominal), for **heterogeneous**
    /// clusters (§VIII). Compute on rank `m` takes `work / rank_speeds[m]`
    /// virtual seconds. `None` = homogeneous.
    pub rank_speeds: Option<Vec<f64>>,
    /// When `true` and `rank_speeds` is set, partition peptide counts
    /// proportionally to speed ([`crate::partition::partition_weighted_cyclic`])
    /// — the paper's "load-predicting model". When `false`, the configured
    /// policy is used unchanged (exposing the imbalance mis-prediction
    /// causes).
    pub weight_partition_by_speed: bool,
    /// Posting-scan mode for every rank's query phase:
    /// [`lbe_index::ScanMode::Auto`] (the default) lets closed searches
    /// take the banded precursor-filtered kernel;
    /// [`lbe_index::ScanMode::FullScan`] forces whole-bin scans (A/B
    /// comparisons; findings are identical either way).
    pub scan_mode: lbe_index::ScanMode,
    /// When set, each rank **streams its peptide partition** from this
    /// peptide-per-record FASTA file (record `i` = peptide id `i`, the
    /// layout of every `lbe digest`/`cluster-db` artifact) instead of
    /// cloning it out of the shared in-memory database — closing ROADMAP's
    /// "the FASTA/db pass is still whole-file per rank": a rank's resident
    /// peptide storage is its own partition, not a second copy carved from
    /// a whole-proteome pass. The file must contain the same records the
    /// `db` passed to [`run_distributed_search`] was loaded from; results
    /// are bit-identical to the in-memory extraction (tested). Mismatched
    /// files are environment errors and panic with context.
    pub stream_db_from: Option<std::path::PathBuf>,
}

impl EngineConfig {
    /// Paper-default settings with the given policy.
    pub fn with_policy(policy: PartitionPolicy) -> Self {
        EngineConfig {
            slm: SlmConfig::default(),
            modspec: ModSpec::none(),
            policy,
            cost: SearchCostModel::default(),
            serial: SerialCostModel::default(),
            threads_per_rank: 1,
            rank_speeds: None,
            weight_partition_by_speed: false,
            scan_mode: lbe_index::ScanMode::Auto,
            stream_db_from: None,
        }
    }

    /// The speed factor of rank `me` (1.0 when homogeneous).
    fn speed_of(&self, me: usize) -> f64 {
        self.rank_speeds.as_ref().map(|v| v[me]).unwrap_or(1.0)
    }
}

/// A PSM with the *global* (original database) peptide id, as produced by
/// the master after mapping-table translation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GlobalPsm {
    /// Original peptide id in the input database.
    pub peptide: u32,
    /// Modform ordinal.
    pub modform: u16,
    /// Shared peak count.
    pub shared_peaks: u16,
    /// Score (comparable within one query).
    pub score: f32,
    /// Rank that produced the match.
    pub rank: u16,
}

/// What one rank reports to the master (and to the caller).
#[derive(Debug, Clone, PartialEq)]
struct RankReturn {
    peptides: usize,
    spectra: usize,
    ions: usize,
    build_time: f64,
    query_time: f64,
    stats: QueryStats,
    footprint: MemoryFootprint,
}

/// `RankReturn` flattened into `Wire`-implementing tuples so real backends
/// can gather it at rank 0. (The `Wire` trait lives in `lbe-cluster`, which
/// cannot name index types — hence tuples at the boundary instead of trait
/// impls on foreign structs.)
type RankReturnWire = (
    (usize, usize, usize),               // peptides, spectra, ions
    (f64, f64),                          // build_time, query_time
    (u64, u64, u64, u64, u64, u64, u64), // QueryStats fields
    (usize, usize, usize, usize),        // MemoryFootprint fields
);

impl RankReturn {
    fn to_wire(&self) -> RankReturnWire {
        (
            (self.peptides, self.spectra, self.ions),
            (self.build_time, self.query_time),
            (
                self.stats.peaks,
                self.stats.bins_touched,
                self.stats.postings_scanned,
                self.stats.postings_skipped_by_band,
                self.stats.bins_pruned_by_band,
                self.stats.candidates,
                self.stats.entries_scored_directly,
            ),
            (
                self.footprint.entries,
                self.footprint.bin_directory,
                self.footprint.postings,
                self.footprint.mapping_table,
            ),
        )
    }

    fn from_wire(w: RankReturnWire) -> RankReturn {
        let ((peptides, spectra, ions), (build_time, query_time), s, f) = w;
        RankReturn {
            peptides,
            spectra,
            ions,
            build_time,
            query_time,
            stats: QueryStats {
                peaks: s.0,
                bins_touched: s.1,
                postings_scanned: s.2,
                postings_skipped_by_band: s.3,
                bins_pruned_by_band: s.4,
                candidates: s.5,
                entries_scored_directly: s.6,
            },
            footprint: MemoryFootprint {
                entries: f.0,
                bin_directory: f.1,
                postings: f.2,
                mapping_table: f.3,
            },
        }
    }
}

/// What supervised search did about failed ranks. `ranks_lost` empty means
/// the run was supervised but nothing died.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Ranks whose workers died (or became unreachable after the retry
    /// policy was exhausted) during the run, ascending.
    pub ranks_lost: Vec<usize>,
    /// Queries the master re-executed on behalf of lost ranks
    /// (`ranks_lost.len() × num_queries`).
    pub queries_reexecuted: usize,
    /// Wall-clock seconds rank 0 spent re-executing lost shares.
    pub recovery_seconds: f64,
}

/// Full report of one distributed run.
#[derive(Debug, Clone)]
pub struct DistributedSearchReport {
    /// Number of ranks.
    pub ranks: usize,
    /// Policy used.
    pub policy: PartitionPolicy,
    /// Peptides per rank.
    pub partition_sizes: Vec<usize>,
    /// Indexed theoretical spectra per rank.
    pub index_spectra: Vec<usize>,
    /// Indexed ions per rank.
    pub index_ions: Vec<usize>,
    /// Per-rank index footprints (master's includes the mapping table).
    pub footprints: Vec<MemoryFootprint>,
    /// Mapping-table bytes (master only).
    pub mapping_table_bytes: usize,
    /// Per-rank virtual index-build times.
    pub build_times: Vec<f64>,
    /// Per-rank virtual query times — Fig. 6/7/8's quantity.
    pub rank_query_times: Vec<f64>,
    /// Per-rank final clocks (total execution) — Fig. 9/10's quantity.
    pub total_times: Vec<f64>,
    /// Modelled serial preprocessing seconds included in every rank's clock.
    pub serial_seconds: f64,
    /// Imbalance summary over `rank_query_times` (Eq. 1).
    pub imbalance: ImbalanceSummary,
    /// Total candidate PSMs across ranks (the paper's cPSM count).
    pub total_candidates: u64,
    /// Per-rank work counters.
    pub per_rank_stats: Vec<QueryStats>,
    /// Master-merged top-k PSMs per query, global peptide ids.
    pub psms: Vec<Vec<GlobalPsm>>,
    /// `Some` when the run was supervised (rank-failure recovery armed);
    /// `None` for unsupervised runs. Supervision never changes `psms`: lost
    /// shares are re-executed deterministically, so the merged results are
    /// byte-identical to a failure-free run.
    pub recovery: Option<RecoveryReport>,
}

impl DistributedSearchReport {
    /// Query-phase makespan (the paper's "Query Time").
    pub fn query_time(&self) -> f64 {
        self.rank_query_times.iter().copied().fold(0.0, f64::max)
    }

    /// Total-execution makespan (the paper's "Execution Time").
    pub fn execution_time(&self) -> f64 {
        self.total_times.iter().copied().fold(0.0, f64::max)
    }

    /// Mean candidate PSMs per query.
    pub fn cpsms_per_query(&self) -> f64 {
        if self.psms.is_empty() {
            0.0
        } else {
            self.total_candidates as f64 / self.psms.len() as f64
        }
    }
}

/// Runs the full distributed pipeline on `ranks` simulated machines:
/// the rank program on every rank of a thread cluster, rank 0's report.
///
/// `grouping` is Algorithm 1's output over `db` (serial preprocessing, per
/// the paper's workflow); `queries` are preprocessed spectra searched by
/// every rank against its partition.
pub fn run_distributed_search(
    db: &PeptideDb,
    grouping: &Grouping,
    queries: &[Spectrum],
    cfg: &EngineConfig,
    ranks: usize,
) -> DistributedSearchReport {
    let partition = make_partition(grouping, cfg, ranks);
    Cluster::new(ClusterConfig::new(ranks))
        .run(|comm| {
            search_program(comm, db, &partition, queries, cfg, false)
                .unwrap_or_else(|e| panic!("{e}"))
        })
        .results
        .swap_remove(0)
        .expect("rank 0 assembles the report")
}

/// The data distribution every rank (and the report assembly) agrees on.
/// Deterministic in `(grouping, cfg, ranks)`, so multi-process backends can
/// compute it independently per rank and still agree bit-for-bit.
pub(crate) fn make_partition(grouping: &Grouping, cfg: &EngineConfig, ranks: usize) -> Partition {
    if let Some(speeds) = &cfg.rank_speeds {
        assert_eq!(speeds.len(), ranks, "rank_speeds must cover every rank");
    }
    assert!(cfg.threads_per_rank >= 1, "threads_per_rank must be >= 1");
    match (&cfg.rank_speeds, cfg.weight_partition_by_speed) {
        (Some(speeds), true) => crate::partition::partition_weighted_cyclic(grouping, speeds),
        _ => partition_groups(grouping, ranks, cfg.policy),
    }
}

/// One PSM on the cluster wire: `(local peptide id, modform, shared_peaks,
/// score)`. Entry ids are index-internal and never travel.
type PsmWire = (u32, u16, u16, f32);

/// Everything one rank contributes to a job, computed without sending a
/// message (see [`rank_share`]).
struct RankShare {
    /// Per query, the rank's top-k against its partial index.
    psms: Vec<Vec<PsmWire>>,
    /// Per query, the kernel's work counters — what the cost model charges
    /// the query phase from.
    work: Vec<QueryStats>,
    /// The rank's report row; its build and query times are the wall
    /// seconds the two phases really took.
    counters: RankReturn,
}

/// Rank `rank`'s whole share of a job: extract its partition, build the
/// partial index, search every query.
///
/// Every output except the two wall times depends only on `(db, partition,
/// rank, queries, cfg)`. The rank itself runs this at the top of
/// [`search_program`]; the master runs it again for a rank it lost, and so
/// recovers exactly what that rank would have sent.
///
/// With `threads_per_rank > 1` (hybrid mode, the paper's §VIII hybrid
/// OpenMP+MPI direction) the build and the batch go through the real
/// work-stealing pool; results are bit-identical for any thread count.
fn rank_share(
    db: &PeptideDb,
    partition: &Partition,
    rank: usize,
    queries: &[Spectrum],
    cfg: &EngineConfig,
) -> RankShare {
    let local_db = extract_local_db(db, partition, rank, cfg);
    let t_build = Instant::now();
    let index = build_partial_index(&local_db, cfg);

    let build_time = t_build.elapsed().as_secs_f64();

    // The master (rank 0) also holds the mapping table: one id per peptide
    // of the whole database.
    let mut footprint = MemoryFootprint::of_index(&index);
    if rank == 0 {
        footprint = footprint.with_mapping_table(partition.total());
    }

    let t_query = Instant::now();
    let opts = QueryOptions {
        scan_mode: cfg.scan_mode,
        ..Default::default()
    };
    let (results, stats) =
        lbe_index::search_batch_parallel_with_opts(&index, queries, cfg.threads_per_rank, &opts);
    let query_time = t_query.elapsed().as_secs_f64();

    let (psms, work) = results
        .into_iter()
        .map(|r| (r.psms.iter().map(psm_to_wire).collect(), r.stats))
        .unzip();
    RankShare {
        psms,
        work,
        counters: RankReturn {
            peptides: local_db.len(),
            spectra: index.num_spectra(),
            ions: index.num_ions(),
            build_time,
            query_time,
            stats,
            footprint,
        },
    }
}

fn psm_to_wire(p: &Psm) -> PsmWire {
    (p.peptide, p.modform, p.shared_peaks, p.score)
}

/// Builds the partial SLM index over one rank's peptides, with the rank's
/// intra-rank threads (the two-pass CSR build is embarrassingly parallel
/// per peptide range; the index is byte-identical for any thread count).
pub(crate) fn build_partial_index(local_db: &PeptideDb, cfg: &EngineConfig) -> SlmIndex {
    IndexBuilder::new(cfg.slm.clone(), cfg.modspec.clone())
        .build_parallel(local_db, cfg.threads_per_rank)
}

/// Advances the modelled clock by `modelled` seconds and returns how long
/// the phase took on this communicator's time base: the clock's own
/// advance under virtual time, the `measured` wall seconds otherwise
/// (where [`Communicator::compute`] is a no-op and the work has already
/// happened).
fn charge(comm: &mut Communicator, modelled: f64, measured: f64) -> f64 {
    let t0 = comm.now();
    comm.compute(modelled);
    if comm.is_virtual() {
        comm.now() - t0
    } else {
        measured
    }
}

/// The SPMD body every rank of a search job executes, on any backend.
/// Returns the assembled report on rank 0, `None` elsewhere.
///
/// With `supervise`, the master's collectives carry a dead-set: a worker
/// that dies (or stays unreachable after the communicator's retry policy
/// is exhausted) fails *its slot*, its share is re-executed on the master,
/// and the report's `recovery` says so. Without it the first failed
/// exchange — a dead peer, a timeout, a mis-typed message — ends the run
/// as a [`CommError`] with rank/tag context. Workers do the same thing
/// either way, so the wire pattern does not depend on `supervise`.
pub(crate) fn search_program(
    comm: &mut Communicator,
    db: &PeptideDb,
    partition: &Partition,
    queries: &[Spectrum],
    cfg: &EngineConfig,
    supervise: bool,
) -> Result<Option<DistributedSearchReport>, CommError> {
    let me = comm.rank();
    let speed = cfg.speed_of(me);
    let mut dead = supervise.then(BTreeSet::new);

    // All of this rank's real work happens here, before the first message.
    // What follows charges the virtual clock for it phase by phase (the
    // cluster sim never reads wall clocks) and moves the results.
    let share = rank_share(db, partition, me, queries, cfg);

    // 1. Serial preprocessing: grouping happened upstream; every rank reads
    //    and preprocesses the query file (does not scale with p).
    let serial_seconds = cfg.serial.per_spectrum_io_s * queries.len() as f64
        + cfg.serial.per_peptide_grouping_s * db.len() as f64;
    comm.compute(serial_seconds / speed);

    // 2. Partition extraction: one pass over all N peptides, in memory or
    //    streamed (`stream_db_from`). The master's mapping table is one
    //    more pass over N ids, folded in here.
    comm.compute(cfg.cost.per_peptide_extract_s * db.len() as f64 / speed);

    // 3. Partial index build, at the cost model's per-ion total whatever
    //    `threads_per_rank` is: the figures time the flat-MPI build.
    let build_time = charge(
        comm,
        cfg.cost.build_seconds(share.counters.ions) / speed,
        share.counters.build_time,
    );

    // 4. Construction/query separation point.
    comm.try_barrier_tolerating(dead.as_mut())?;

    // 5. The query phase. Per-query costs go greedily to the least-loaded
    //    of the rank's virtual threads, which is what dynamic block
    //    scheduling converges to, and the rank finishes with its slowest
    //    thread.
    let mut thread_times = vec![0.0f64; cfg.threads_per_rank];
    for stats in &share.work {
        let slot = thread_times
            .iter_mut()
            .min_by(|a, b| a.partial_cmp(b).expect("finite times"))
            .expect("threads >= 1");
        *slot += cfg.cost.query_seconds(stats) / speed;
    }
    let query_time = charge(
        comm,
        thread_times.iter().copied().fold(0.0, f64::max),
        share.counters.query_time,
    );

    // 6. Candidates (rank-local ids) to the master, then each rank's report
    //    row with its clock as of now. The second gather is report
    //    assembly, not a stage of the paper's pipeline, and is modelled at
    //    zero bytes so it never moves the master's virtual clock.
    let psm_count: usize = share.psms.iter().map(Vec::len).sum();
    let psm_slots = comm.try_gather_tolerating(
        0,
        share.psms,
        psm_count * std::mem::size_of::<Psm>(),
        dead.as_mut(),
    )?;
    let counters = RankReturn {
        build_time,
        query_time,
        ..share.counters
    };
    let my_clock = comm.now();
    let counter_slots =
        comm.try_gather_tolerating(0, (counters.to_wire(), my_clock), 0, dead.as_mut())?;
    let (Some(mut psm_slots), Some(counter_slots)) = (psm_slots, counter_slots) else {
        return Ok(None);
    };

    // 7. Master only from here. A rank without a report row is in the
    //    dead-set (which only grows, and the row was gathered last): redo
    //    its share here. A rank lost *between* the gathers is redone too —
    //    the recovered PSMs equal the ones it had already delivered.
    let t_recovery = Instant::now();
    let mut rank_returns = Vec::with_capacity(counter_slots.len());
    let mut total_times = Vec::with_capacity(counter_slots.len());
    for (rank, slot) in counter_slots.into_iter().enumerate() {
        let (counters, clock) = match slot {
            Some((counters, clock)) => (RankReturn::from_wire(counters), clock),
            None => {
                let share = rank_share(db, partition, rank, queries, cfg);
                psm_slots[rank] = Some(share.psms);
                (share.counters, my_clock)
            }
        };
        rank_returns.push(counters);
        total_times.push(clock);
    }
    let recovery = dead.map(|dead| RecoveryReport {
        queries_reexecuted: dead.len() * queries.len(),
        ranks_lost: dead.into_iter().collect(),
        recovery_seconds: t_recovery.elapsed().as_secs_f64(),
    });

    // 8. O(1) mapping + merge; the master's run ends with it.
    let mapping = MappingTable::from_partition(partition);
    let per_rank: Vec<Vec<Vec<PsmWire>>> = psm_slots
        .into_iter()
        .map(|s| s.expect("every slot filled by its rank or by recovery"))
        .collect();
    let total_psms: usize = per_rank.iter().flat_map(|r| r.iter().map(Vec::len)).sum();
    comm.compute(cfg.serial.per_psm_merge_s * total_psms as f64 / speed);
    let psms = merge_results(per_rank, &mapping, cfg.slm.top_k, queries.len());
    total_times[0] = comm.now();

    Ok(Some(report_from_parts(
        &mapping,
        cfg,
        serial_seconds,
        rank_returns,
        total_times,
        psms,
        recovery,
    )))
}

/// Materializes rank `me`'s peptide partition: cloned out of the shared
/// in-memory database, or streamed from disk when `stream_db_from` is set.
/// Partition order is preserved either way, so local ids (and the mapping
/// table built from them) are identical across extraction paths.
pub(crate) fn extract_local_db(
    db: &PeptideDb,
    partition: &Partition,
    me: usize,
    cfg: &EngineConfig,
) -> PeptideDb {
    match &cfg.stream_db_from {
        None => PeptideDb::from_vec(
            partition
                .rank(me)
                .iter()
                .map(|&gid| db.get(gid).clone())
                .collect(),
        ),
        Some(path) => stream_partition_db(path, partition.rank(me), me),
    }
}

/// Streams one rank's peptide partition out of a peptide-per-record FASTA
/// file: record `gid` holds peptide id `gid` (the `lbe` CLI artifact
/// layout). Only this rank's `|partition|` peptides are ever resident; the
/// rest of the file flows through the streaming reader one record at a
/// time. The result preserves partition order, so local ids (and with them
/// the mapping table) are identical to the in-memory extraction.
///
/// I/O or content mismatches here are environment errors (wrong/modified
/// file), not data-dependent conditions, so they panic with context rather
/// than silently degrading.
fn stream_partition_db(path: &std::path::Path, rank_gids: &[u32], me: usize) -> PeptideDb {
    use std::collections::HashMap;
    let slot_of: HashMap<u32, usize> = rank_gids
        .iter()
        .enumerate()
        .map(|(slot, &gid)| (gid, slot))
        .collect();
    let mut slots: Vec<Option<Peptide>> = vec![None; rank_gids.len()];
    let reader = lbe_bio::fasta::FastaReader::open(path)
        .unwrap_or_else(|e| panic!("rank {me}: cannot stream db from {}: {e}", path.display()));
    let mut filled = 0usize;
    for (gid, record) in reader.enumerate() {
        let record = record
            .unwrap_or_else(|e| panic!("rank {me}: cannot stream db from {}: {e}", path.display()));
        let Some(&slot) = (gid <= u32::MAX as usize)
            .then(|| slot_of.get(&(gid as u32)))
            .flatten()
        else {
            continue; // another rank's peptide: never materialized
        };
        let p = Peptide::new(&record.sequence, gid as u32, 0).unwrap_or_else(|| {
            panic!(
                "rank {me}: record {gid} ({}) in {} contains non-standard residues",
                record.accession(),
                path.display()
            )
        });
        slots[slot] = Some(p);
        filled += 1;
    }
    assert_eq!(
        filled,
        rank_gids.len(),
        "rank {me}: {} does not cover this rank's partition ({filled} of {} peptide ids found)",
        path.display(),
        rank_gids.len()
    );
    PeptideDb::from_vec(
        slots
            .into_iter()
            .map(|s| s.expect("all slots filled"))
            .collect(),
    )
}

/// Master-side merge: translate local ids to global, combine ranks, keep
/// top-k per query.
fn merge_results(
    per_rank: Vec<Vec<Vec<PsmWire>>>,
    mapping: &MappingTable,
    top_k: usize,
    num_queries: usize,
) -> Vec<Vec<GlobalPsm>> {
    let mut merged: Vec<Vec<GlobalPsm>> = vec![Vec::new(); num_queries];
    for (rank, rank_results) in per_rank.into_iter().enumerate() {
        assert_eq!(
            rank_results.len(),
            num_queries,
            "rank {rank} returned wrong query count"
        );
        for (qi, psms) in rank_results.into_iter().enumerate() {
            for (peptide, modform, shared_peaks, score) in psms {
                merged[qi].push(GlobalPsm {
                    peptide: mapping.global_of(rank, peptide),
                    modform,
                    shared_peaks,
                    score,
                    rank: rank as u16,
                });
            }
        }
    }
    for q in &mut merged {
        // The shared ranking order (see lbe_index::query::rank_key_cmp):
        // total (NaN-proof), tie-broken by (peptide, modform) — never
        // entry ids, so the builder's mass renumbering is invisible in
        // merged reports.
        q.sort_by(|a, b| {
            lbe_index::query::rank_key_cmp(
                (a.score, a.peptide, a.modform),
                (b.score, b.peptide, b.modform),
            )
        });
        q.truncate(top_k);
    }
    merged
}

/// Assembles the report from rank-indexed pieces, whether a rank's row
/// came off the wire or out of master-side re-execution.
fn report_from_parts(
    mapping: &MappingTable,
    cfg: &EngineConfig,
    serial_seconds: f64,
    rank_returns: Vec<RankReturn>,
    total_times: Vec<f64>,
    psms: Vec<Vec<GlobalPsm>>,
    recovery: Option<RecoveryReport>,
) -> DistributedSearchReport {
    let ranks = rank_returns.len();
    let mut partition_sizes = Vec::with_capacity(ranks);
    let mut index_spectra = Vec::with_capacity(ranks);
    let mut index_ions = Vec::with_capacity(ranks);
    let mut footprints = Vec::with_capacity(ranks);
    let mut build_times = Vec::with_capacity(ranks);
    let mut rank_query_times = Vec::with_capacity(ranks);
    let mut per_rank_stats = Vec::with_capacity(ranks);
    let mut total_candidates = 0u64;

    for rr in rank_returns {
        partition_sizes.push(rr.peptides);
        index_spectra.push(rr.spectra);
        index_ions.push(rr.ions);
        footprints.push(rr.footprint);
        build_times.push(rr.build_time);
        rank_query_times.push(rr.query_time);
        total_candidates += rr.stats.candidates;
        per_rank_stats.push(rr.stats);
    }

    let imbalance = ImbalanceSummary::from_times(&rank_query_times);
    DistributedSearchReport {
        ranks,
        policy: cfg.policy,
        partition_sizes,
        index_spectra,
        index_ions,
        footprints,
        mapping_table_bytes: mapping.heap_bytes(),
        build_times,
        rank_query_times,
        total_times,
        serial_seconds,
        imbalance,
        total_candidates,
        per_rank_stats,
        psms,
        recovery,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grouping::{group_peptides, GroupingParams};
    use lbe_index::Searcher;
    use lbe_spectra::synthetic::{SyntheticDataset, SyntheticDatasetParams};

    #[test]
    fn a_direct_arm_query_is_priced_by_its_entries_not_the_walk_it_stands_in_for() {
        // The same closed queries against the same index, once built in
        // this process (its peptide table takes the direct arm) and once
        // read back from its bytes (no table: the banded walk).
        let db = small_db();
        let built = IndexBuilder::new(SlmConfig::default(), ModSpec::none()).build(&db);
        let mut bytes = Vec::new();
        lbe_index::io::write_index(&mut bytes, &built).unwrap();
        let loaded = lbe_index::io::read_index_bytes(&bytes, &Default::default()).unwrap();
        let queries = SyntheticDataset::generate(
            &db,
            &ModSpec::none(),
            &SyntheticDatasetParams {
                num_spectra: 6,
                ..Default::default()
            },
            1,
        );
        let opts = QueryOptions {
            precursor_tolerance: Some(0.01),
            ..Default::default()
        };
        let cost = SearchCostModel::default();
        for q in &queries.spectra {
            let direct = Searcher::new(&built).search_with_opts(q, &opts).stats;
            let walk = Searcher::new(&loaded).search_with_opts(q, &opts).stats;
            assert!(direct.entries_scored_directly > 0, "{direct:?}");
            assert_eq!(walk.entries_scored_directly, 0);
            assert_eq!(direct.candidates, walk.candidates);
            assert_eq!(
                cost.query_seconds(&direct),
                cost.per_query_s
                    + direct.entries_scored_directly as f64 * cost.per_entry_direct_s
                    + direct.candidates as f64 * cost.per_candidate_s
            );
            // The walk's bin and posting counters, which the arm reports
            // too, are not charged to it.
            let no_walk = QueryStats {
                bins_touched: 0,
                postings_scanned: 0,
                postings_skipped_by_band: 0,
                ..direct
            };
            assert_eq!(cost.query_seconds(&no_walk), cost.query_seconds(&direct));
        }
    }

    #[test]
    fn a_direct_arm_query_is_priced_below_the_same_query_walked() {
        // A `batch_closed` query at its probe's means: ≈ 570 peak-window
        // bins, 127 k postings skipped by a band of 3 entries, 27 scanned,
        // one candidate. The direct arm reports the walk's counters (less
        // the pruned bins) plus its entries.
        let walk = QueryStats {
            peaks: 52,
            bins_touched: 570,
            postings_scanned: 27,
            postings_skipped_by_band: 126_748,
            bins_pruned_by_band: 1,
            candidates: 1,
            entries_scored_directly: 0,
        };
        let direct = QueryStats {
            bins_pruned_by_band: 0,
            entries_scored_directly: 3,
            ..walk
        };
        let cost = SearchCostModel::default();
        assert!(cost.query_seconds(&direct) < cost.query_seconds(&walk));
    }

    fn small_db() -> PeptideDb {
        let seqs = [
            "ELVISLIVESK",
            "ELVISLIVESR",
            "PEPTIDEK",
            "PEPTIDER",
            "SAMPLERK",
            "SAMPLERR",
            "MNKQMGGR",
            "WWYYFFHHK",
        ];
        PeptideDb::from_vec(
            seqs.iter()
                .map(|s| Peptide::new(s.as_bytes(), 0, 0).unwrap())
                .collect(),
        )
    }

    fn run(
        policy: PartitionPolicy,
        ranks: usize,
    ) -> (DistributedSearchReport, SyntheticDataset, PeptideDb) {
        let db = small_db();
        let grouping = group_peptides(&db, &GroupingParams::default());
        let queries = SyntheticDataset::generate(
            &db,
            &ModSpec::none(),
            &SyntheticDatasetParams {
                num_spectra: 12,
                ..Default::default()
            },
            5,
        );
        let cfg = EngineConfig::with_policy(policy);
        let report = run_distributed_search(&db, &grouping, &queries.spectra, &cfg, ranks);
        (report, queries, db)
    }

    /// Every field a rank returns, the direct arm's counter included,
    /// survives the wire form the gather carries, so cluster totals sum
    /// the same counters a single index reports.
    #[test]
    fn rank_return_round_trips_through_its_wire_form() {
        let sent = RankReturn {
            peptides: 1,
            spectra: 2,
            ions: 3,
            build_time: 0.5,
            query_time: 0.25,
            stats: QueryStats {
                peaks: 4,
                bins_touched: 5,
                postings_scanned: 6,
                postings_skipped_by_band: 7,
                bins_pruned_by_band: 8,
                candidates: 9,
                entries_scored_directly: 10,
            },
            footprint: MemoryFootprint {
                entries: 11,
                bin_directory: 12,
                postings: 13,
                mapping_table: 14,
            },
        };
        let bytes = lbe_cluster::wire::encode_msg(&sent.to_wire());
        let got = lbe_cluster::wire::decode_msg::<RankReturnWire>(&bytes).unwrap();
        assert_eq!(RankReturn::from_wire(got), sent);
    }

    #[test]
    fn exact_cover_across_ranks() {
        let (r, _, db) = run(PartitionPolicy::Cyclic, 4);
        assert_eq!(r.partition_sizes.iter().sum::<usize>(), db.len());
        assert_eq!(r.index_spectra.iter().sum::<usize>(), db.len()); // no mods
    }

    #[test]
    fn search_finds_truth_under_all_policies() {
        for policy in [
            PartitionPolicy::Chunk,
            PartitionPolicy::Cyclic,
            PartitionPolicy::Random { seed: 3 },
        ] {
            let (r, queries, _) = run(policy, 4);
            let mut hits = 0;
            for (qi, truth) in queries.truth.iter().enumerate() {
                if r.psms[qi].first().map(|p| p.peptide) == Some(*truth) {
                    hits += 1;
                }
            }
            // Synthetic queries are high quality; the true peptide should
            // top-rank nearly always regardless of how data is partitioned.
            assert!(hits >= 10, "{policy}: only {hits}/12 top-1 correct");
        }
    }

    #[test]
    fn distributed_equals_single_rank_results() {
        let (r1, queries, _) = run(PartitionPolicy::Cyclic, 1);
        let (r4, _, _) = run(PartitionPolicy::Cyclic, 4);
        assert_eq!(r1.psms.len(), r4.psms.len());
        for (a, b) in r1.psms.iter().zip(&r4.psms) {
            let pa: Vec<(u32, u16)> = a.iter().map(|p| (p.peptide, p.shared_peaks)).collect();
            let pb: Vec<(u32, u16)> = b.iter().map(|p| (p.peptide, p.shared_peaks)).collect();
            assert_eq!(pa, pb, "query {:?}", queries.truth);
        }
        assert_eq!(r1.total_candidates, r4.total_candidates);
    }

    #[test]
    fn deterministic_virtual_times() {
        let (a, _, _) = run(PartitionPolicy::Chunk, 4);
        let (b, _, _) = run(PartitionPolicy::Chunk, 4);
        assert_eq!(a.rank_query_times, b.rank_query_times);
        assert_eq!(a.total_times, b.total_times);
        assert_eq!(a.total_candidates, b.total_candidates);
    }

    #[test]
    fn report_quantities_consistent() {
        let (r, _, _) = run(PartitionPolicy::Cyclic, 4);
        assert_eq!(r.ranks, 4);
        assert!(r.query_time() > 0.0);
        assert!(r.execution_time() >= r.query_time());
        assert!(r.serial_seconds > 0.0);
        assert!(r.imbalance.load_imbalance >= 0.0);
        assert!(r.mapping_table_bytes >= 8 * 4);
        assert_eq!(r.footprints.len(), 4);
        // Master's footprint includes the mapping table; workers' don't.
        assert!(r.footprints[0].mapping_table > 0);
        assert!(r.footprints[1..].iter().all(|f| f.mapping_table == 0));
    }

    #[test]
    fn candidates_counted() {
        let (r, _, _) = run(PartitionPolicy::Cyclic, 2);
        assert!(r.total_candidates > 0);
        assert!(r.cpsms_per_query() > 0.0);
    }

    fn run_with_cfg(cfg: &EngineConfig, ranks: usize) -> DistributedSearchReport {
        let db = small_db();
        let grouping = group_peptides(&db, &GroupingParams::default());
        let queries = SyntheticDataset::generate(
            &db,
            &ModSpec::none(),
            &SyntheticDatasetParams {
                num_spectra: 12,
                ..Default::default()
            },
            5,
        );
        run_distributed_search(&db, &grouping, &queries.spectra, cfg, ranks)
    }

    #[test]
    fn hybrid_threads_shrink_query_time() {
        let flat = EngineConfig::with_policy(PartitionPolicy::Cyclic);
        let mut hybrid = flat.clone();
        hybrid.threads_per_rank = 4;
        let r_flat = run_with_cfg(&flat, 2);
        let r_hyb = run_with_cfg(&hybrid, 2);
        // Same results, faster (or equal) virtual query phase.
        assert_eq!(r_flat.total_candidates, r_hyb.total_candidates);
        assert!(r_hyb.query_time() < r_flat.query_time());
        // With 12 queries over 4 threads the split is near-perfect: ≥2x.
        assert!(r_flat.query_time() / r_hyb.query_time() >= 2.0);
    }

    #[test]
    fn hybrid_real_pool_results_bit_identical_to_flat() {
        let flat = EngineConfig::with_policy(PartitionPolicy::Cyclic);
        let mut hybrid = flat.clone();
        hybrid.threads_per_rank = 3;
        let r_flat = run_with_cfg(&flat, 2);
        let r_hyb = run_with_cfg(&hybrid, 2);
        // The real pool must never change what is found — per-query PSMs
        // (ids, scores, ranks) identical to the sequential per-rank path.
        assert_eq!(r_flat.psms, r_hyb.psms);
        assert_eq!(r_flat.per_rank_stats, r_hyb.per_rank_stats);
    }

    #[test]
    fn heterogeneous_slow_rank_dominates_without_weighting() {
        let mut cfg = EngineConfig::with_policy(PartitionPolicy::Cyclic);
        cfg.rank_speeds = Some(vec![1.0, 1.0, 1.0, 0.25]);
        let r = run_with_cfg(&cfg, 4);
        // The 4x-slower rank should be the makespan.
        let slowest = r
            .rank_query_times
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(slowest, 3);
        assert!(r.imbalance.load_imbalance > 0.3);
    }

    #[test]
    fn speed_weighted_partition_rebalances() {
        let mut uniform = EngineConfig::with_policy(PartitionPolicy::Cyclic);
        uniform.rank_speeds = Some(vec![1.0, 1.0, 0.5, 0.5]);
        let mut weighted = uniform.clone();
        weighted.weight_partition_by_speed = true;
        let r_u = run_with_cfg(&uniform, 4);
        let r_w = run_with_cfg(&weighted, 4);
        // Weighted partitioning gives slow ranks fewer peptides...
        assert!(r_w.partition_sizes[2] < r_w.partition_sizes[0]);
        // ...and cuts the imbalance versus speed-blind cyclic.
        assert!(
            r_w.imbalance.load_imbalance < r_u.imbalance.load_imbalance,
            "weighted {:.3} !< uniform {:.3}",
            r_w.imbalance.load_imbalance,
            r_u.imbalance.load_imbalance
        );
        // Results unchanged.
        assert_eq!(r_w.total_candidates, r_u.total_candidates);
    }

    /// Writes `db` as the peptide-per-record FASTA the streaming path
    /// expects (record `i` = peptide id `i`), then reloads it so the
    /// in-memory db matches the file byte for byte.
    fn db_on_disk(name: &str) -> (PeptideDb, std::path::PathBuf) {
        let dir = std::env::temp_dir().join("lbe_engine_stream_db_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let records: Vec<lbe_bio::fasta::Protein> = small_db()
            .iter()
            .map(|(id, p)| lbe_bio::fasta::Protein::new(format!("pep{id:07}"), p.sequence()))
            .collect();
        lbe_bio::fasta::write_fasta_path(&path, &records).unwrap();
        (crate::ingest::load_peptide_db(&path).unwrap(), path)
    }

    #[test]
    fn streamed_partition_db_matches_in_memory_run_exactly() {
        let (db, path) = db_on_disk("db.fasta");
        let grouping = group_peptides(&db, &GroupingParams::default());
        let queries = SyntheticDataset::generate(
            &db,
            &ModSpec::none(),
            &SyntheticDatasetParams {
                num_spectra: 12,
                ..Default::default()
            },
            5,
        );
        let in_mem = EngineConfig::with_policy(PartitionPolicy::Cyclic);
        let mut streamed = in_mem.clone();
        streamed.stream_db_from = Some(path.clone());
        let r_mem = run_distributed_search(&db, &grouping, &queries.spectra, &in_mem, 3);
        let r_stream = run_distributed_search(&db, &grouping, &queries.spectra, &streamed, 3);
        // Streaming each rank's partition off disk must be invisible in
        // the results: same PSMs, counters, and virtual times.
        assert_eq!(r_mem.psms, r_stream.psms);
        assert_eq!(r_mem.per_rank_stats, r_stream.per_rank_stats);
        assert_eq!(r_mem.total_candidates, r_stream.total_candidates);
        assert_eq!(r_mem.rank_query_times, r_stream.rank_query_times);
        assert_eq!(r_mem.partition_sizes, r_stream.partition_sizes);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "does not cover this rank's partition")]
    fn streamed_partition_db_rejects_truncated_file() {
        let (db, path) = db_on_disk("truncated.fasta");
        // Rewrite the file with the last record missing: a partition that
        // references it can no longer be satisfied. (Exercised directly —
        // inside a cluster run the panic surfaces as the failing rank's
        // thread dying, which the barrier turns into a timeout.)
        let records: Vec<lbe_bio::fasta::Protein> = db
            .iter()
            .take(db.len() - 1)
            .map(|(id, p)| lbe_bio::fasta::Protein::new(format!("pep{id:07}"), p.sequence()))
            .collect();
        lbe_bio::fasta::write_fasta_path(&path, &records).unwrap();
        let all_ids: Vec<u32> = (0..db.len() as u32).collect();
        stream_partition_db(&path, &all_ids, 0);
    }

    #[test]
    #[should_panic(expected = "rank_speeds must cover every rank")]
    fn mismatched_speed_vector_rejected() {
        let mut cfg = EngineConfig::with_policy(PartitionPolicy::Cyclic);
        cfg.rank_speeds = Some(vec![1.0, 1.0]);
        run_with_cfg(&cfg, 4);
    }
}
