//! Rank-callable entry points for externally-created communicators: one
//! [`Communicator`] per process (a real TCP cluster) or per thread (the
//! simulator), every rank calling the same function with the same inputs,
//! and rank 0 — only rank 0 — getting the assembled result back.
//!
//! The search entry points are the two settings of one program,
//! [`crate::engine`]'s `search_program`: [`cluster_search_rank`] fails on
//! the first lost peer, [`cluster_search_rank_supervised`] re-executes a
//! lost worker's share on the master. [`crate::engine::run_distributed_search`]
//! is the same program again on a thread cluster it creates itself, so
//! simulated, TCP and supervised runs cannot disagree. The partition is
//! recomputed deterministically per rank from the shared inputs — no
//! coordination traffic is spent on it.
//!
//! [`cluster_build_rank`] is the build-only job: the front half of a
//! rank's share (extract + build), shipped to rank 0 as container shards.
//!
//! Communication failures surface as [`CommError`] with rank/tag context;
//! nothing in this module panics on a dead or misbehaving peer.

use crate::engine::{self, DistributedSearchReport, EngineConfig};
use crate::grouping::Grouping;
use lbe_bio::peptide::PeptideDb;
use lbe_cluster::{CommError, Communicator};
use lbe_spectra::spectrum::Spectrum;
use std::io::Write;

/// One rank's partial index, shipped to rank 0 as a v2 `LBESLM2` container
/// blob — already checksummed and 64-byte-aligned, so the receiver can
/// verify and map it zero-copy.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardBlob {
    /// Producing rank.
    pub rank: usize,
    /// Peptides in this rank's partition.
    pub peptides: usize,
    /// Indexed theoretical spectra.
    pub spectra: usize,
    /// Indexed fragment ions (postings).
    pub ions: usize,
    /// The serialized v2 container.
    pub blob: Vec<u8>,
}

/// Runs one rank of the distributed batch search over an
/// externally-created communicator. Every rank must call this with
/// identical `(db, grouping, queries, cfg)`; returns `Some(report)` on
/// rank 0, `None` elsewhere.
///
/// Results are identical to [`crate::engine::run_distributed_search`] with
/// the same inputs and rank count — the same program runs; only the
/// transport underneath (and therefore whether the report's times are
/// virtual or wall-clock) differs.
pub fn cluster_search_rank(
    comm: &mut Communicator,
    db: &PeptideDb,
    grouping: &Grouping,
    queries: &[Spectrum],
    cfg: &EngineConfig,
) -> Result<Option<DistributedSearchReport>, CommError> {
    let partition = engine::make_partition(grouping, cfg, comm.size());
    engine::search_program(comm, db, &partition, queries, cfg, false)
}

/// Like [`cluster_search_rank`], but rank 0 *supervises*: a worker that
/// dies mid-run (or stays unreachable after the communicator's retry
/// policy is exhausted) is detected through typed
/// [`CommError::Disconnected`] / [`CommError::Timeout`] failures, its
/// share is re-executed on the master, and the run completes with results
/// **byte-identical** to a failure-free run. What happened is recorded in
/// [`DistributedSearchReport::recovery`](crate::engine::RecoveryReport):
/// ranks lost, queries re-executed, and recovery wall time.
///
/// Supervision is entirely master-side — workers send exactly what they
/// send to [`cluster_search_rank`], so the two can be mixed in one job. A
/// supervised run with no failures returns `recovery = Some(report)` with
/// an empty `ranks_lost`.
pub fn cluster_search_rank_supervised(
    comm: &mut Communicator,
    db: &PeptideDb,
    grouping: &Grouping,
    queries: &[Spectrum],
    cfg: &EngineConfig,
) -> Result<Option<DistributedSearchReport>, CommError> {
    let partition = engine::make_partition(grouping, cfg, comm.size());
    engine::search_program(comm, db, &partition, queries, cfg, true)
}

/// Runs one rank of the distributed index build: extracts this rank's
/// LBE-scattered peptide partition, builds the partial SLM index locally,
/// serializes it as a v2 container, and gathers all shards at rank 0.
/// Returns `Some(shards)` (rank-ordered) there, `None` elsewhere.
///
/// Deterministic in its inputs: every byte of every shard depends only on
/// `(db, grouping, cfg, ranks)`, so sim- and TCP-built shards are
/// byte-identical.
pub fn cluster_build_rank(
    comm: &mut Communicator,
    db: &PeptideDb,
    grouping: &Grouping,
    cfg: &EngineConfig,
) -> Result<Option<Vec<ShardBlob>>, CommError> {
    let ranks = comm.size();
    let me = comm.rank();
    let partition = engine::make_partition(grouping, cfg, ranks);

    let local_db = engine::extract_local_db(db, &partition, me, cfg);
    comm.compute(cfg.cost.per_peptide_extract_s * db.len() as f64);
    let index = engine::build_partial_index(&local_db, cfg);
    comm.compute(cfg.cost.build_seconds(index.num_ions()));

    let mut blob = Vec::new();
    lbe_index::write_index(&mut blob, &index).map_err(|e| CommError::Setup {
        rank: me,
        detail: format!("cannot serialize rank {me} shard: {e}"),
    })?;

    let meta = (local_db.len(), index.num_spectra(), index.num_ions());
    let sim_bytes = blob.len();
    let gathered = comm.try_gather(0, (meta, blob), sim_bytes)?;
    // Keep collective call counts identical on all ranks before returning.
    comm.try_barrier()?;

    Ok(gathered.map(|shards| {
        shards
            .into_iter()
            .enumerate()
            .map(|(rank, ((peptides, spectra, ions), blob))| ShardBlob {
                rank,
                peptides,
                spectra,
                ions,
                blob,
            })
            .collect()
    }))
}

/// Writes gathered shards to `dir` as `shard-NNNN.slm2` plus a
/// `manifest.tsv` (rank, peptides, spectra, ions, bytes per line). Returns
/// the manifest text, which is deterministic for deterministic shards.
pub fn write_shards(dir: &std::path::Path, shards: &[ShardBlob]) -> std::io::Result<String> {
    std::fs::create_dir_all(dir)?;
    let mut manifest = String::from("rank\tpeptides\tspectra\tions\tbytes\n");
    for s in shards {
        let path = dir.join(format!("shard-{:04}.slm2", s.rank));
        std::fs::write(&path, &s.blob)?;
        manifest.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\n",
            s.rank,
            s.peptides,
            s.spectra,
            s.ions,
            s.blob.len()
        ));
    }
    let mut f = std::fs::File::create(dir.join("manifest.tsv"))?;
    f.write_all(manifest.as_bytes())?;
    Ok(manifest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grouping::{group_peptides, GroupingParams};
    use crate::partition::PartitionPolicy;
    use lbe_bio::mods::ModSpec;
    use lbe_bio::peptide::Peptide;
    use lbe_cluster::{Cluster, ClusterConfig};
    use lbe_spectra::synthetic::{SyntheticDataset, SyntheticDatasetParams};

    fn fixture() -> (PeptideDb, Grouping, Vec<Spectrum>) {
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
        let db = PeptideDb::from_vec(
            seqs.iter()
                .map(|s| Peptide::new(s.as_bytes(), 0, 0).unwrap())
                .collect(),
        );
        let grouping = group_peptides(&db, &GroupingParams::default());
        let queries = SyntheticDataset::generate(
            &db,
            &ModSpec::none(),
            &SyntheticDatasetParams {
                num_spectra: 10,
                ..Default::default()
            },
            11,
        );
        (db, grouping, queries.spectra)
    }

    #[test]
    fn sim_cluster_search_matches_engine_entry_point() {
        let (db, grouping, queries) = fixture();
        let cfg = EngineConfig::with_policy(PartitionPolicy::Cyclic);
        let direct = engine::run_distributed_search(&db, &grouping, &queries, &cfg, 3);
        let via_dist = Cluster::new(ClusterConfig::new(3))
            .run(|comm| cluster_search_rank(comm, &db, &grouping, &queries, &cfg).unwrap());
        let report = via_dist.results[0].as_ref().expect("rank 0 report");
        assert!(via_dist.results[1..].iter().all(Option::is_none));
        assert_eq!(report.psms, direct.psms);
        assert_eq!(report.partition_sizes, direct.partition_sizes);
        assert_eq!(report.total_candidates, direct.total_candidates);
        assert_eq!(report.per_rank_stats, direct.per_rank_stats);
        assert_eq!(report.rank_query_times, direct.rank_query_times);
    }

    #[test]
    fn sim_cluster_build_shards_load_and_cover_db() {
        let (db, grouping, _) = fixture();
        let cfg = EngineConfig::with_policy(PartitionPolicy::Cyclic);
        let out = Cluster::new(ClusterConfig::new(3))
            .run(|comm| cluster_build_rank(comm, &db, &grouping, &cfg).unwrap());
        let shards = out.results[0].as_ref().expect("rank 0 shards");
        assert_eq!(shards.len(), 3);
        assert_eq!(shards.iter().map(|s| s.peptides).sum::<usize>(), db.len());
        for s in shards {
            let idx =
                lbe_index::read_index_bytes(&s.blob, &lbe_index::ReadOptions::default()).unwrap();
            assert_eq!(idx.num_spectra(), s.spectra);
            assert_eq!(idx.num_ions(), s.ions);
        }
    }

    #[test]
    fn build_is_deterministic_across_runs() {
        let (db, grouping, _) = fixture();
        let cfg = EngineConfig::with_policy(PartitionPolicy::Cyclic);
        let run = || {
            Cluster::new(ClusterConfig::new(2))
                .run(|comm| cluster_build_rank(comm, &db, &grouping, &cfg).unwrap())
                .results
                .remove(0)
                .expect("rank 0 shards")
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "shard bytes must be deterministic");
    }

    #[test]
    fn write_shards_produces_manifest() {
        let (db, grouping, _) = fixture();
        let cfg = EngineConfig::with_policy(PartitionPolicy::Chunk);
        let out = Cluster::new(ClusterConfig::new(2))
            .run(|comm| cluster_build_rank(comm, &db, &grouping, &cfg).unwrap());
        let shards = out.results[0].as_ref().expect("shards");
        let dir = std::env::temp_dir().join("lbe_dist_write_shards_test");
        std::fs::remove_dir_all(&dir).ok();
        let manifest = write_shards(&dir, shards).unwrap();
        assert_eq!(manifest.lines().count(), 3); // header + 2 ranks
        for rank in 0..2 {
            let p = dir.join(format!("shard-{rank:04}.slm2"));
            assert!(lbe_index::read_index_path(&p).is_ok());
        }
        assert_eq!(
            std::fs::read_to_string(dir.join("manifest.tsv")).unwrap(),
            manifest
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
