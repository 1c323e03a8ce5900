//! CLI subcommand implementations.
//!
//! Each command is a function from parsed [`Args`] to a `Result`, writing
//! human output to the supplied writer — so commands are unit-testable
//! without spawning processes.

use crate::cli::args::{ArgError, Args};
use lbe_bio::digest::DigestParams;
use lbe_bio::fasta::{write_fasta_path, Protein};
use lbe_bio::mods::ModSpec;
use lbe_bio::peptide::PeptideDb;
use lbe_bio::synthetic::{SyntheticProteome, SyntheticProteomeParams};
use lbe_cluster::{
    Cluster, ClusterConfig, CommCostModel, Communicator, Hostfile, TcpConfig, TcpTransport,
};
use lbe_core::engine::{run_distributed_search, EngineConfig};
use lbe_core::grouping::{group_peptides, GroupingCriterion, GroupingParams};
use lbe_core::ingest::{load_peptide_db, load_proteome_digested, load_queries, IngestStats};
use lbe_core::partition::PartitionPolicy;
use lbe_core::serve::proto::{self, Request, Response};
use lbe_core::serve::{serve_stdin, ResidentEngine, ServeConfig, Server};
use lbe_core::{
    cluster_build_rank, cluster_search_rank, cluster_search_rank_supervised, write_shards,
};
use lbe_index::{GenerationStore, Psm, QueryOptions, ScanMode, SlmConfig};
use lbe_spectra::mgf::write_mgf;
use lbe_spectra::ms2::write_ms2_path;
use lbe_spectra::mzml::write_mzml_path;
use lbe_spectra::preprocess::PreprocessParams;
use lbe_spectra::spectrum::Spectrum;
use lbe_spectra::synthetic::{SyntheticDataset, SyntheticDatasetParams};
use std::io::{Read, Write};

/// Any command failure (argument, I/O, or data error).
pub type CmdError = Box<dyn std::error::Error>;

/// Dispatches a parsed command, writing output to `out`.
pub fn dispatch<W: Write>(args: &Args, out: &mut W) -> Result<(), CmdError> {
    match args.command.as_str() {
        "synth-proteome" => synth_proteome(args, out),
        "digest" => digest(args, out),
        "cluster-db" => cluster_db(args, out),
        "synth-queries" => synth_queries(args, out),
        "index" => index_cmd(args, out),
        "search" => search(args, out),
        "serve" => serve(args, out),
        "query" => query_cmd(args, out),
        "simulate" => simulate(args, out),
        "cluster" => cluster_cmd(args, out),
        "help" | "" => {
            write!(out, "{}", usage())?;
            Ok(())
        }
        other => Err(Box::new(ArgError(format!(
            "unknown command {other:?}; run `lbe help`"
        )))),
    }
}

/// The top-level usage text.
pub fn usage() -> String {
    "\
lbe — LBE distributed peptide search (IPDPSW'19 reproduction)

USAGE: lbe <command> [--option value ...]

COMMANDS:
  synth-proteome  --out p.fasta [--proteins 200] [--seed 42]
                  generate a synthetic family-rich proteome
  digest          --in p.fasta --out peptides.fasta
                  [--missed-cleavages 2] [--min-len 6] [--max-len 40]
                  tryptic in-silico digestion + duplicate removal
  cluster-db      --in peptides.fasta --out clustered.fasta
                  [--criterion 1|2] [--d 2] [--d-prime 0.86] [--gsize 20]
                  Algorithm 1: sort + group, emit the clustered database
  synth-queries   --db peptides.fasta --out q.ms2 [--n 100] [--seed 7]
                  [--mods none|oxidation|paper] [--format ms2|mzml|mgf]
                  generate query spectra with ground truth in the MS2 scan
  index init      --db peptides.fasta --out DIR [--digest]
                  [--mods none|oxidation|paper] [--chunk-size 50000]
                  build a mass-chunked SLM fragment-ion index as a
                  generation store, one chunk at a time: a directory of
                  content-addressed (and, when smaller, compressed) chunk
                  blobs under an LBECHK3 manifest; --digest accepts a raw
                  proteome FASTA and streams it through tryptic digestion
                  first; `search` and `serve` take the directory as --index
  index append    --index DIR --db delta.fasta [--digest]
                  digest only the new peptides (duplicates vs the stored
                  set are skipped) into append-only delta chunks; config,
                  modspec and chunk size come from the store's manifest
  index compact   --index DIR
                  merge base + delta chunks into one fresh mass-sorted
                  generation; search output is byte-identical to a
                  from-scratch rebuild, and unchanged blobs are reused by
                  content hash
  index gc        --index DIR
                  drop tombstoned records, delete unreferenced chunk
                  blobs and superseded manifests
  index stats     --index DIR
                  per-chunk inventory (content hash, generation,
                  live/tombstone, compression, raw vs stored bytes, mass
                  range) plus store totals of a generation store directory
  search          --index DIR --queries q.{ms2|mgf|mzML} --out results.tsv
                  [--top-k 10] [--max-resident-chunks 0] [--csv] [--full-scan]
                  search an index (a generation store directory, or a
                  single-index LBESLM2 file such as a `cluster build`
                  shard), write a TSV (or CSV) of PSMs;
                  queries may be MS2, MGF, or mzML (autodetected; mzML MS1
                  survey scans are skipped and counted, msconvert 32/64-bit
                  uncompressed arrays supported); --max-resident-chunks
                  N > 0 caps how many chunks are held in memory (0 = all);
                  --full-scan disables the banded precursor-filtered
                  kernel (identical PSMs, more postings scanned — A/B aid)
  serve           --index DIR [--addr 127.0.0.1:0] [--stdin]
                  [--threads 4] [--max-resident-chunks 0]
                  [--max-inflight 256] [--max-wave 64]
                  [--per-conn-inflight 64] [--wave-deadline-ms 0]
                  [--idle-timeout-s 0]
                  long-lived query daemon: opens the index once, answers
                  length-prefixed query frames over TCP (prints a
                  parseable `listening on HOST:PORT` line) or, with
                  --stdin, over stdin/stdout for scripting; shuts down
                  cleanly on a shutdown frame (or stdin EOF);
                  --wave-deadline-ms N > 0 enables degraded mode: queries
                  not started within N ms of their wave are answered
                  immediately with a flagged partial result;
                  --idle-timeout-s N > 0 reaps connections idle that long
                  with a clean Bye frame
  query           --addr HOST:PORT [--queries q.{ms2|mgf|mzML} --out r.tsv]
                  [--top-k 10] [--csv] [--full-scan] [--tolerance DA]
                  [--shutdown]
                  client for `serve`: streams the query file to a running
                  daemon and writes the same report `search` would
                  (byte-identical for identical inputs); --tolerance
                  overrides the index's precursor window per request;
                  --shutdown asks the daemon to exit (alone or after the
                  queries); degraded (partial) results from a server in
                  degraded mode are counted and warned about
  simulate        --db peptides.fasta --queries q.{ms2|mgf|mzML}
                  [--out report.txt] [--ranks 16]
                  [--policy chunk|cyclic|random]
                  [--mods none|oxidation|paper] [--threads-per-rank 1]
                  [--spill-dir DIR] [--stream-db] [--digest] [--csv]
                  [--full-scan]
                  run the distributed engine, report times and imbalance;
                  --out writes the report to a file (created only after a
                  successful run) instead of stdout,
                  --spill-dir stores each rank's index on disk (v2) instead
                  of holding every partition in memory, --stream-db makes
                  each rank stream its peptide partition from the --db file
                  (no per-rank copy of the whole database), --digest accepts
                  a raw proteome FASTA, --csv emits the report as one
                  machine-readable CSV row
  cluster         build|search --db peptides.fasta [--digest]
                  [--mods none|oxidation|paper] [--policy chunk|cyclic|random]
                  [--seed 7] [--gsize 20] [--threads-per-rank 1]
                  backend (exactly one):
                    --sim [--ranks 4]          in-process threaded simulator
                    --hostfile H --rank R      this process is rank R of a
                                               real TCP cluster (one line
                                               per rank: `host:port` or
                                               `rank host:port`; --ranks
                                               cross-checks the file)
                    --launch [--ranks 4]       spawn N local rank processes
                                               over loopback TCP (testing)
                  cluster search: --queries q.{ms2|mgf|mzML} --out results.tsv
                    [--top-k 10] [--csv] [--full-scan] [--bench-out b.json]
                    [--timeout-s 60] [--supervise] [--fault-plan SPEC]
                    distributed batch search; rank 0 writes the same report
                    `search` would, --bench-out records measured per-rank
                    times and load imbalance as JSON (wall-clock on TCP,
                    virtual seconds under --sim); --supervise arms
                    rank-failure recovery: a worker that dies mid-run is
                    detected, its query share is re-executed on rank 0, and
                    results stay byte-identical to a failure-free run (a
                    `recovery:` line reports ranks lost); --fault-plan
                    injects deterministic faults for testing (e.g.
                    'rank=2;die=3' kills rank 2 at its 3rd transport op;
                    see the lbe-cluster fault docs; real transports only)
                  cluster build: --out DIR [--timeout-s 60]
                    distributed index build; every rank builds its
                    LBE-scattered partition locally and ships it to rank 0
                    as a v2 container shard; rank 0 writes
                    DIR/shard-NNNN.slm2 + DIR/manifest.tsv (byte-identical
                    across backends)
  help            this text
"
    .to_string()
}

fn parse_mods(args: &Args) -> Result<ModSpec, CmdError> {
    match args.get("mods").unwrap_or("none") {
        "none" => Ok(ModSpec::none()),
        "oxidation" => Ok(ModSpec::oxidation_only()),
        "paper" => Ok(ModSpec::paper_default()),
        other => Err(Box::new(ArgError(format!(
            "unknown --mods {other:?} (none|oxidation|paper)"
        )))),
    }
}

fn parse_policy(args: &Args) -> Result<PartitionPolicy, CmdError> {
    let seed = args.get_parsed::<u64>("seed", 7)?;
    match args.get("policy").unwrap_or("cyclic") {
        "chunk" => Ok(PartitionPolicy::Chunk),
        "cyclic" => Ok(PartitionPolicy::Cyclic),
        "random" => Ok(PartitionPolicy::Random { seed }),
        other => Err(Box::new(ArgError(format!(
            "unknown --policy {other:?} (chunk|cyclic|random)"
        )))),
    }
}

/// Streams query spectra of any supported format — `.ms2`/`.mgf`/`.mzML`
/// by extension, content-sniffed otherwise — preprocessing each spectrum
/// as it is read. Prints a note when non-MS2 (survey) scans were skipped.
fn read_queries<W: Write>(
    path: &str,
    out: &mut W,
) -> Result<(Vec<Spectrum>, IngestStats), CmdError> {
    let (queries, stats) = load_queries(path, &PreprocessParams::default())?;
    if stats.skipped_non_ms2 > 0 {
        writeln!(
            out,
            "note: skipped {} non-MS2 spectra in {path} ({} input)",
            stats.skipped_non_ms2, stats.format
        )?;
    }
    Ok((queries, stats))
}

/// Streams a peptide-per-record FASTA into a [`PeptideDb`]; with
/// `--digest`, treats the file as a raw proteome and streams it through
/// tryptic digestion + duplicate removal first (paper-default settings).
fn read_db<W: Write>(args: &Args, path: &str, out: &mut W) -> Result<PeptideDb, CmdError> {
    if args.has("digest") {
        let (db, stats) = load_proteome_digested(path, &DigestParams::default())?;
        writeln!(
            out,
            "digested {path} -> {} unique peptides ({:.1}% redundant)",
            db.len(),
            stats.redundancy() * 100.0
        )?;
        Ok(db)
    } else {
        Ok(load_peptide_db(path)?)
    }
}

fn write_peptide_fasta(
    path: &str,
    db: &PeptideDb,
    header: impl Fn(u32) -> String,
) -> Result<(), CmdError> {
    let records: Vec<Protein> = db
        .iter()
        .map(|(id, p)| Protein::new(header(id), p.sequence()))
        .collect();
    write_fasta_path(path, &records)?;
    Ok(())
}

fn synth_proteome<W: Write>(args: &Args, out: &mut W) -> Result<(), CmdError> {
    args.reject_unknown(&["out", "proteins", "seed", "mean-len", "family-fraction"])?;
    let path = args.require("out")?;
    let params = SyntheticProteomeParams {
        num_proteins: args.get_parsed("proteins", 200)?,
        mean_protein_len: args.get_parsed("mean-len", 450)?,
        family_fraction: args.get_parsed("family-fraction", 0.4)?,
        ..Default::default()
    };
    let seed = args.get_parsed("seed", 42u64)?;
    let proteome = SyntheticProteome::generate(params, seed);
    write_fasta_path(path, &proteome.proteins)?;
    writeln!(
        out,
        "wrote {} proteins ({} residues) to {path}",
        proteome.proteins.len(),
        proteome.total_residues()
    )?;
    Ok(())
}

fn digest<W: Write>(args: &Args, out: &mut W) -> Result<(), CmdError> {
    args.reject_unknown(&["in", "out", "missed-cleavages", "min-len", "max-len"])?;
    let input = args.require("in")?;
    let output = args.require("out")?;
    let params = DigestParams {
        max_missed_cleavages: args.get_parsed("missed-cleavages", 2u8)?,
        min_len: args.get_parsed("min-len", 6usize)?,
        max_len: args.get_parsed("max-len", 40usize)?,
        ..Default::default()
    };
    // Stream the proteome: one protein resident at a time, counted as
    // records flow through the digest.
    let mut proteins = 0usize;
    let counted = lbe_bio::fasta::FastaReader::open(input)?.inspect(|r| {
        if r.is_ok() {
            proteins += 1;
        }
    });
    let digested: Vec<lbe_bio::peptide::Peptide> =
        lbe_bio::digest::digest_stream(counted, &params)?.collect::<Result<_, _>>()?;
    let before = digested.len();
    let (db, stats) = lbe_bio::dedup::dedup_peptides(PeptideDb::from_vec(digested));
    write_peptide_fasta(output, &db, |id| format!("pep{:07}", id))?;
    writeln!(
        out,
        "digested {proteins} proteins -> {before} peptides -> {} unique ({:.1}% redundant), wrote {output}",
        db.len(),
        stats.redundancy() * 100.0
    )?;
    Ok(())
}

fn cluster_db<W: Write>(args: &Args, out: &mut W) -> Result<(), CmdError> {
    args.reject_unknown(&["in", "out", "criterion", "d", "d-prime", "gsize"])?;
    let input = args.require("in")?;
    let output = args.require("out")?;
    let criterion = match args.get_parsed("criterion", 2u8)? {
        1 => GroupingCriterion::Absolute {
            d: args.get_parsed("d", 2usize)?,
        },
        2 => GroupingCriterion::Normalized {
            d_prime: args.get_parsed("d-prime", 0.86f64)?,
        },
        other => {
            return Err(Box::new(ArgError(format!(
                "--criterion must be 1 or 2, got {other}"
            ))))
        }
    };
    let params = GroupingParams {
        criterion,
        gsize: args.get_parsed("gsize", 20usize)?,
    };
    let db = load_peptide_db(input)?;
    let grouping = group_peptides(&db, &params);
    // Emit the clustered database: groups concatenated in grouped order
    // (§III-C.2), group id recorded in each header.
    let records: Vec<Protein> = grouping
        .iter_groups()
        .enumerate()
        .flat_map(|(gi, group)| group.iter().map(move |&pid| (gi, pid)))
        .map(|(gi, pid)| {
            Protein::new(
                format!("group{:06}|pep{:07}", gi, pid),
                db.get(pid).sequence(),
            )
        })
        .collect();
    write_fasta_path(output, &records)?;
    writeln!(
        out,
        "grouped {} peptides into {} groups (mean size {:.2}), wrote {output}",
        grouping.num_peptides(),
        grouping.num_groups(),
        grouping.mean_group_size()
    )?;
    Ok(())
}

fn synth_queries<W: Write>(args: &Args, out: &mut W) -> Result<(), CmdError> {
    args.reject_unknown(&["db", "out", "n", "seed", "mods", "skew", "format"])?;
    let db_path = args.require("db")?;
    let output = args.require("out")?;
    let db = load_peptide_db(db_path)?;
    let modspec = parse_mods(args)?;
    let params = SyntheticDatasetParams {
        num_spectra: args.get_parsed("n", 100usize)?,
        abundance_skew: args.get_parsed("skew", 0.0f64)?,
        ..Default::default()
    };
    let seed = args.get_parsed("seed", 7u64)?;
    let dataset = SyntheticDataset::generate(&db, &modspec, &params, seed);
    match args.get("format").unwrap_or("ms2") {
        "ms2" => write_ms2_path(output, &dataset.spectra)?,
        "mzml" => write_mzml_path(output, &dataset.spectra)?,
        "mgf" => write_mgf(
            std::fs::File::create(output).map_err(lbe_bio::error::BioError::Io)?,
            &dataset.spectra,
        )?,
        other => {
            return Err(Box::new(ArgError(format!(
                "unknown --format {other:?} (ms2|mzml|mgf)"
            ))))
        }
    }
    writeln!(
        out,
        "wrote {} query spectra to {output} (ground truth: scan i <- peptide {{truth[i]}})",
        dataset.len()
    )?;
    Ok(())
}

fn index_cmd<W: Write>(args: &Args, out: &mut W) -> Result<(), CmdError> {
    let sub = match args.positional.as_slice() {
        [sub] => sub.as_str(),
        _ => {
            return Err(Box::new(ArgError(
                "usage: lbe index init|append|compact|gc|stats --option value ...".into(),
            )))
        }
    };
    match sub {
        "init" => index_init(args, out),
        "append" => index_append(args, out),
        "compact" => index_compact(args, out),
        "gc" => index_gc(args, out),
        "stats" => index_stats(args, out),
        other => Err(Box::new(ArgError(format!(
            "unknown index subcommand {other:?} (init|append|compact|gc|stats)"
        )))),
    }
}

/// `lbe index init`: creates a generation-store directory (LBECHK3).
fn index_init<W: Write>(args: &Args, out: &mut W) -> Result<(), CmdError> {
    args.reject_unknown(&["db", "out", "mods", "chunk-size", "digest"])?;
    let db_path = args.require("db")?;
    let output = args.require("out")?;
    let chunk_size = args.get_parsed("chunk-size", 50_000usize)?;
    if chunk_size == 0 {
        return Err(Box::new(ArgError("--chunk-size must be at least 1".into())));
    }
    let db = read_db(args, db_path, out)?;
    let modspec = parse_mods(args)?;
    let (store, o) = GenerationStore::init(output, &db, SlmConfig::default(), modspec, chunk_size)?;
    let stats = store.stats()?;
    writeln!(
        out,
        "initialized generation store {output}: {} peptides in {} chunk(s) \
         (generation {}, {} stored of {} logical bytes)",
        o.total_peptides, o.new_chunks, o.generation, stats.stored_bytes, stats.logical_bytes
    )?;
    Ok(())
}

/// `lbe index append`: digests only the new peptides into delta chunks.
fn index_append<W: Write>(args: &Args, out: &mut W) -> Result<(), CmdError> {
    args.reject_unknown(&["index", "db", "digest"])?;
    let index_dir = args.require("index")?;
    let db_path = args.require("db")?;
    let store = GenerationStore::open(index_dir)?;
    let delta = read_db(args, db_path, out)?;
    let o = store.append(&delta)?;
    writeln!(
        out,
        "appended {} new peptides ({} duplicates skipped) as {} delta chunk(s) \
         in generation {}; store now holds {} peptides",
        o.peptides_added, o.duplicates_skipped, o.new_chunks, o.generation, o.total_peptides
    )?;
    Ok(())
}

/// `lbe index compact`: rewrites the store as one fresh generation,
/// byte-identical in search output to a from-scratch rebuild.
fn index_compact<W: Write>(args: &Args, out: &mut W) -> Result<(), CmdError> {
    args.reject_unknown(&["index"])?;
    let index_dir = args.require("index")?;
    let store = GenerationStore::open(index_dir)?;
    let o = store.compact()?;
    writeln!(
        out,
        "compacted {} chunk(s) into {} (generation {}, {} blob(s) reused by content hash)",
        o.chunks_before, o.chunks_after, o.generation, o.blobs_reused
    )?;
    Ok(())
}

/// `lbe index gc`: deletes unreferenced blobs and superseded manifests.
fn index_gc<W: Write>(args: &Args, out: &mut W) -> Result<(), CmdError> {
    args.reject_unknown(&["index"])?;
    let index_dir = args.require("index")?;
    let store = GenerationStore::open(index_dir)?;
    let o = store.gc()?;
    writeln!(
        out,
        "gc: deleted {} blob(s) ({} bytes) and {} old manifest(s), dropped {} tombstone(s)",
        o.blobs_deleted, o.bytes_reclaimed, o.manifests_deleted, o.tombstones_dropped
    )?;
    Ok(())
}

/// `lbe index stats`: per-chunk inventory of a generation store directory.
fn index_stats<W: Write>(args: &Args, out: &mut W) -> Result<(), CmdError> {
    args.reject_unknown(&["index"])?;
    let index_path = args.require("index")?;
    if !std::path::Path::new(index_path).is_dir() {
        return Err(not_a_store(index_path));
    }
    let stats = GenerationStore::open(index_path)?.stats()?;
    writeln!(
        out,
        "{:>5}  {:<16}  {:>3}  {:<4}  {:<4}  {:>12}  {:>12}  mass range",
        "chunk", "hash", "gen", "live", "comp", "raw", "stored"
    )?;
    for (i, r) in stats.records.iter().enumerate() {
        writeln!(
            out,
            "{i:>5}  {:016x}  {:>3}  {:<4}  {:<4}  {:>12}  {:>12}  [{}, {}]",
            r.hash,
            r.generation,
            if r.tombstone { "tomb" } else { "live" },
            if r.compressed { "yes" } else { "no" },
            r.raw_len,
            r.stored_len,
            r.lo_mass,
            r.hi_mass
        )?;
    }
    let live = stats.records.iter().filter(|r| !r.tombstone).count();
    writeln!(
        out,
        "{} peptides in {} live chunk(s) (+{} tombstone(s)); \
         {} bytes stored of {} logical (ratio {:.3}); next generation {}",
        stats.num_peptides,
        live,
        stats.records.len() - live,
        stats.stored_bytes,
        stats.logical_bytes,
        stats.stored_bytes as f64 / stats.logical_bytes.max(1) as f64,
        stats.next_generation
    )?;
    Ok(())
}

/// Why `index stats` refuses the file at `path`: a single-index file has
/// no chunks to list, and any other file is what the index reader makes of
/// its magic — an `LBECHK2` chunked container is below the format floor.
fn not_a_store(path: &str) -> CmdError {
    let mut magic = [0u8; 8];
    if let Err(e) = std::fs::File::open(path).and_then(|mut f| f.read_exact(&mut magic)) {
        return e.into();
    }
    let msg = match &magic == lbe_index::io::MAGIC_V2 {
        true => format!(
            "{path} is a single-index LBESLM2 file with no chunks to list; \
             chunk statistics read a generation store directory"
        ),
        false => match lbe_index::read_index(&magic[..]) {
            Err(e) => format!("{path}: {e}"),
            Ok(_) => unreachable!("a magic alone is no index"),
        },
    };
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg).into()
}

/// Writes the PSM table of one query to the results file.
fn write_result_rows<W: Write>(
    sink: &mut W,
    scan: u32,
    psms: &[Psm],
    top_k: usize,
    sep: char,
) -> Result<usize, CmdError> {
    let mut rows = 0;
    for (rank, p) in psms.iter().take(top_k).enumerate() {
        writeln!(
            sink,
            "{scan}{sep}{}{sep}{}{sep}{}{sep}{}{sep}{:.4}",
            rank + 1,
            p.peptide,
            p.modform,
            p.shared_peaks,
            p.score
        )?;
        rows += 1;
    }
    Ok(rows)
}

fn search<W: Write>(args: &Args, out: &mut W) -> Result<(), CmdError> {
    args.reject_unknown(&[
        "index",
        "queries",
        "out",
        "top-k",
        "max-resident-chunks",
        "csv",
        "full-scan",
    ])?;
    let index_path = args.require("index")?;
    let queries_path = args.require("queries")?;
    let output = args.require("out")?;
    let csv = args.has("csv");
    let sep = if csv { ',' } else { '\t' };
    let query_opts = QueryOptions {
        scan_mode: if args.has("full-scan") {
            ScanMode::FullScan
        } else {
            ScanMode::Auto
        },
        ..Default::default()
    };
    // 0 = no budget (all chunks resident); N > 0 caps residency.
    let max_resident = match args.get_parsed("max-resident-chunks", 0usize)? {
        0 => usize::MAX,
        n => n,
    };
    let (queries, _stats) = read_queries(queries_path, out)?;

    // The index's own top_k is fixed at build time; the CLI flag clamps
    // the emitted rows.
    let top_k = args.get_parsed("top-k", 10usize)?;

    // Open the index BEFORE creating/truncating the results file: a typo'd
    // --index must not destroy a previous run's output. The engine always
    // runs the full validation scan — index files handed to it are
    // untrusted input.
    let engine = ResidentEngine::open(index_path, max_resident)?;

    let mut sink = std::io::BufWriter::new(std::fs::File::create(output)?);
    writeln!(sink, "{}", result_header(sep))?;

    // The whole file is one wave: a generation store visits each chunk
    // once for all the queries. Rows go out in query order up to the
    // first failed query, whose error ends the command.
    let jobs: Vec<(Spectrum, QueryOptions)> =
        queries.into_iter().map(|q| (q, query_opts)).collect();
    let mut total_psms = 0usize;
    for ((q, _), r) in jobs.iter().zip(engine.search_wave(&jobs, 1)) {
        total_psms += write_result_rows(&mut sink, q.scan, &r?.psms, top_k, sep)?;
    }
    sink.flush()?;
    let backend = engine.backend_summary();
    match engine.num_indexed() {
        Some(n) => writeln!(
            out,
            "searched {} spectra against {n} indexed spectra ({backend}), wrote {total_psms} PSMs to {output}",
            jobs.len(),
        )?,
        None => writeln!(
            out,
            "searched {} spectra ({backend}), wrote {total_psms} PSMs to {output}",
            jobs.len(),
        )?,
    }
    Ok(())
}

/// The report header row (`search`, `query`, and the goldens share it).
fn result_header(sep: char) -> String {
    [
        "scan",
        "rank",
        "peptide",
        "modform",
        "shared_peaks",
        "score",
    ]
    .join(&sep.to_string())
}

fn serve<W: Write>(args: &Args, out: &mut W) -> Result<(), CmdError> {
    args.reject_unknown(&[
        "index",
        "addr",
        "stdin",
        "threads",
        "max-resident-chunks",
        "max-inflight",
        "max-wave",
        "per-conn-inflight",
        "wave-deadline-ms",
        "idle-timeout-s",
    ])?;
    let index_path = args.require("index")?;
    let max_resident = match args.get_parsed("max-resident-chunks", 0usize)? {
        0 => usize::MAX,
        n => n,
    };
    let cfg = ServeConfig {
        threads: args.get_parsed("threads", 4usize)?.max(1),
        max_resident_chunks: max_resident,
        max_inflight: args.get_parsed("max-inflight", 256usize)?.max(1),
        max_wave: args.get_parsed("max-wave", 64usize)?.max(1),
        per_conn_inflight: args.get_parsed("per-conn-inflight", 64usize)?.max(1),
        wave_deadline: match args.get_parsed("wave-deadline-ms", 0u64)? {
            0 => None,
            ms => Some(std::time::Duration::from_millis(ms)),
        },
        idle_timeout: match args.get_parsed("idle-timeout-s", 0u64)? {
            0 => None,
            s => Some(std::time::Duration::from_secs(s)),
        },
    };
    // Open (and fully validate) the index before any transport exists: a
    // bad --index is an ordinary CLI error, never a half-started server.
    let engine = ResidentEngine::open(index_path, cfg.max_resident_chunks)?;

    if args.has("stdin") {
        // Frames go over real stdin/stdout; human chatter must not
        // contaminate the binary response stream, so it goes to stderr.
        eprintln!(
            "serving {index_path} over stdin/stdout (EOF or a shutdown frame ends the session)"
        );
        let stats = serve_stdin(
            &engine,
            &mut std::io::stdin().lock(),
            &mut std::io::stdout().lock(),
        )?;
        eprintln!(
            "served {} requests, {} responses ({} protocol errors, {} degraded)",
            stats.requests, stats.responses, stats.protocol_errors, stats.degraded
        );
        return Ok(());
    }

    let addr = match args.get("addr") {
        Some("") => return Err(Box::new(ArgError("--addr needs host:port".into()))),
        Some(a) => a,
        None => "127.0.0.1:0",
    };
    let server = Server::bind(engine, addr, cfg)?;
    // Parseable banner: scripts (and the CI smoke test) scrape the bound
    // address from this line, so flush it before blocking in run().
    writeln!(out, "listening on {}", server.local_addr())?;
    out.flush()?;
    let stats = server.run()?;
    writeln!(
        out,
        "served {} connections, {} requests, {} responses ({} protocol errors, {} degraded)",
        stats.connections, stats.requests, stats.responses, stats.protocol_errors, stats.degraded
    )?;
    Ok(())
}

/// Reads raw (unpreprocessed) query spectra for the wire: the *server*
/// preprocesses, so file-fed and socket-fed spectra take the identical
/// pipeline. Prints the same skipped-MS1 note as [`read_queries`].
fn read_raw_queries<W: Write>(path: &str, out: &mut W) -> Result<Vec<Spectrum>, CmdError> {
    let mut reader = lbe_spectra::reader::SpectrumReader::open(path)?;
    let mut spectra = Vec::new();
    for s in &mut reader {
        spectra.push(s?);
    }
    if reader.skipped_non_ms2() > 0 {
        writeln!(
            out,
            "note: skipped {} non-MS2 spectra in {path} ({} input)",
            reader.skipped_non_ms2(),
            reader.format()
        )?;
    }
    Ok(spectra)
}

fn query_cmd<W: Write>(args: &Args, out: &mut W) -> Result<(), CmdError> {
    args.reject_unknown(&[
        "addr",
        "queries",
        "out",
        "top-k",
        "csv",
        "full-scan",
        "tolerance",
        "shutdown",
    ])?;
    let addr = args.require("addr")?;
    let shutdown = args.has("shutdown");
    let queries_path = match args.get("queries") {
        Some("") => return Err(Box::new(ArgError("--queries needs a file path".into()))),
        other => other,
    };
    if queries_path.is_none() && !shutdown {
        return Err(Box::new(ArgError(
            "query needs --queries (and --out), or --shutdown".into(),
        )));
    }
    let csv = args.has("csv");
    let sep = if csv { ',' } else { '\t' };
    let top_k = args.get_parsed("top-k", 10usize)?;
    let full_scan = args.has("full-scan");
    let tolerance = match args.get("tolerance") {
        None => None,
        Some(s) => Some(
            s.parse::<f64>()
                .map_err(|_| ArgError(format!("--tolerance {s:?} is not a number (Daltons)")))?,
        ),
    };

    // Read queries and connect BEFORE touching --out: a dead server or a
    // typo'd queries file must not destroy a previous run's results.
    let mut sent = Vec::new();
    let output = if let Some(qp) = queries_path {
        let output = args.require("out")?;
        sent = read_raw_queries(qp, out)?;
        Some(output)
    } else {
        None
    };
    let mut stream = std::net::TcpStream::connect(addr)
        .map_err(|e| ArgError(format!("cannot connect to {addr}: {e}")))?;
    let mut rd = std::io::BufReader::new(stream.try_clone()?);

    let scans: Vec<u32> = sent.iter().map(|s| s.scan).collect();
    let mut results: Vec<Option<Vec<proto::WirePsm>>> = vec![None; sent.len()];
    let mut degraded = 0usize;
    if !sent.is_empty() {
        // Requests go out on a separate thread while this one drains
        // responses: the server caps per-connection in-flight queries, so
        // a one-threaded client pushing a large batch without reading
        // would deadlock against its own backlog.
        let send_stream = stream.try_clone()?;
        let sender = std::thread::spawn(move || -> std::io::Result<()> {
            let mut w = std::io::BufWriter::new(send_stream);
            for (i, s) in sent.iter().enumerate() {
                let request = Request::Query {
                    req_id: i as u64,
                    full_scan,
                    tolerance,
                    top_k: None, // emitted rows are clamped client-side
                    scan: s.scan,
                    precursor_mz: s.precursor_mz,
                    charge: s.charge,
                    peaks: s.peaks.iter().map(|p| (p.mz, p.intensity)).collect(),
                };
                proto::write_frame(&mut w, &request.encode())?;
            }
            w.flush()
        });
        let mut received = 0usize;
        while received < results.len() {
            let payload = proto::read_frame(&mut rd)?
                .ok_or_else(|| ArgError("server closed the connection early".into()))?;
            match Response::decode(&payload)? {
                Response::Result {
                    req_id,
                    psms,
                    flags,
                } => {
                    if flags & proto::RESULT_FLAG_DEGRADED != 0 {
                        degraded += 1;
                    }
                    let slot = results
                        .get_mut(req_id as usize)
                        .ok_or_else(|| ArgError(format!("unknown request id {req_id}")))?;
                    if slot.replace(psms).is_some() {
                        return Err(Box::new(ArgError(format!(
                            "duplicate response for request id {req_id}"
                        ))));
                    }
                    received += 1;
                }
                Response::Error {
                    req_id,
                    code,
                    message,
                } => {
                    return Err(Box::new(ArgError(format!(
                        "server error (code {code}) for request {req_id}: {message}"
                    ))));
                }
                other => {
                    return Err(Box::new(ArgError(format!(
                        "unexpected response frame: {other:?}"
                    ))));
                }
            }
        }
        sender
            .join()
            .map_err(|_| ArgError("request sender thread panicked".into()))??;
    }

    if shutdown {
        proto::write_frame(
            &mut stream,
            &Request::Shutdown { req_id: u64::MAX }.encode(),
        )?;
        let payload = proto::read_frame(&mut rd)?
            .ok_or_else(|| ArgError("server closed before acknowledging shutdown".into()))?;
        match Response::decode(&payload)? {
            Response::Bye { .. } => writeln!(out, "server at {addr} acknowledged shutdown")?,
            other => {
                return Err(Box::new(ArgError(format!(
                    "unexpected shutdown response: {other:?}"
                ))));
            }
        }
    }

    // Only now — every response in hand — is the results file created, so
    // a mid-run failure can never leave a truncated report behind.
    if let Some(output) = output {
        let mut sink = std::io::BufWriter::new(std::fs::File::create(output)?);
        writeln!(sink, "{}", result_header(sep))?;
        let mut total_psms = 0usize;
        for (scan, psms) in scans.iter().zip(&results) {
            let psms: Vec<Psm> = psms
                .as_ref()
                .expect("all responses received")
                .iter()
                .map(|&(peptide, modform, shared_peaks, score)| Psm {
                    entry: 0,
                    peptide,
                    modform,
                    shared_peaks,
                    score,
                })
                .collect();
            total_psms += write_result_rows(&mut sink, *scan, &psms, top_k, sep)?;
        }
        sink.flush()?;
        writeln!(
            out,
            "queried {} spectra against {addr}, wrote {total_psms} PSMs to {output}",
            scans.len(),
        )?;
        if degraded > 0 {
            writeln!(
                out,
                "warning: {degraded} of {} results are DEGRADED (partial — the \
                 server's wave deadline expired before they were searched)",
                scans.len(),
            )?;
        }
    }
    Ok(())
}

fn simulate<W: Write>(args: &Args, out: &mut W) -> Result<(), CmdError> {
    args.reject_unknown(&[
        "db",
        "queries",
        "out",
        "ranks",
        "policy",
        "seed",
        "mods",
        "threads-per-rank",
        "gsize",
        "cost-scale",
        "spill-dir",
        "stream-db",
        "digest",
        "csv",
        "full-scan",
    ])?;
    let db_path = args.require("db")?;
    let queries_path = args.require("queries")?;
    // Optional report file, validated up front but created only after a
    // successful run (see the write at the end).
    let report_path = match args.get("out") {
        Some("") => return Err(Box::new(ArgError("--out needs a file path".into()))),
        other => other,
    };
    let ranks = args.get_parsed("ranks", 16usize)?;
    let policy = parse_policy(args)?;
    if args.has("stream-db") && args.has("digest") {
        return Err(Box::new(ArgError(
            "--stream-db requires a peptide-per-record --db file and cannot \
             be combined with --digest (the digested ids have no on-disk \
             record alignment)"
                .into(),
        )));
    }
    // In --csv mode stdout is one machine-readable header + row; the
    // human-readable ingest notes (skipped-MS1 counts, --digest summary)
    // must not contaminate it.
    let mut discarded_notes = Vec::new();
    let mut notes: &mut dyn Write = if args.has("csv") {
        &mut discarded_notes
    } else {
        out
    };
    let db = read_db(args, db_path, &mut notes)?;
    let (queries, _stats) = read_queries(queries_path, &mut notes)?;

    let grouping = group_peptides(
        &db,
        &GroupingParams {
            criterion: GroupingCriterion::normalized_default(),
            gsize: args.get_parsed("gsize", 20usize)?,
        },
    );
    let mut cfg = EngineConfig::with_policy(policy);
    cfg.modspec = parse_mods(args)?;
    cfg.threads_per_rank = args.get_parsed("threads-per-rank", 1usize)?;
    cfg.cost = cfg
        .cost
        .scaled_for_index(args.get_parsed("cost-scale", 1.0f64)?);
    if args.has("full-scan") {
        cfg.scan_mode = ScanMode::FullScan;
    }
    cfg.spill_dir = match args.get("spill-dir") {
        Some("") => return Err(Box::new(ArgError("--spill-dir needs a directory".into()))),
        other => other.map(std::path::PathBuf::from),
    };
    // Validate the spill directory up front: an unwritable path must be an
    // ordinary CLI error here, not a panic from inside a rank thread.
    if let Some(dir) = &cfg.spill_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| ArgError(format!("--spill-dir {}: {e}", dir.display())))?;
        let probe = dir.join(".lbe-spill-probe");
        std::fs::write(&probe, b"").map_err(|e| {
            ArgError(format!(
                "--spill-dir {} is not writable: {e}",
                dir.display()
            ))
        })?;
        std::fs::remove_file(&probe).ok();
    }
    // --stream-db: ranks stream their peptide partition straight from the
    // --db file instead of cloning it out of the shared in-memory database.
    if args.has("stream-db") {
        cfg.stream_db_from = Some(std::path::PathBuf::from(db_path));
    }
    let report = run_distributed_search(&db, &grouping, &queries, &cfg, ranks);

    // With --out the report is buffered and hits the disk only after the
    // run succeeded — same open-before-truncate discipline as `search`:
    // a failed run must never destroy a previous report.
    let mut report_buf = Vec::new();
    {
        let sink: &mut dyn Write = if report_path.is_some() {
            &mut report_buf
        } else {
            out
        };
        if args.has("csv") {
            // One machine-readable row for the figure harnesses.
            writeln!(
                sink,
                "policy,ranks,peptides,indexed_spectra,queries,candidate_psms,\
                 query_time_s,execution_time_s,load_imbalance_pct,wasted_cpu_s"
            )?;
            writeln!(
                sink,
                "{policy},{ranks},{},{},{},{},{:.6},{:.6},{:.3},{:.6}",
                db.len(),
                report.index_spectra.iter().sum::<usize>(),
                queries.len(),
                report.total_candidates,
                report.query_time(),
                report.execution_time(),
                report.imbalance.load_imbalance_pct(),
                report.imbalance.wasted_cpu_time(ranks)
            )?;
        } else {
            writeln!(sink, "policy            : {policy}")?;
            writeln!(sink, "ranks             : {ranks}")?;
            writeln!(sink, "peptides          : {}", db.len())?;
            writeln!(
                sink,
                "indexed spectra   : {}",
                report.index_spectra.iter().sum::<usize>()
            )?;
            writeln!(sink, "queries           : {}", queries.len())?;
            writeln!(sink, "candidate PSMs    : {}", report.total_candidates)?;
            writeln!(sink, "query time (s)    : {:.4}", report.query_time())?;
            writeln!(sink, "execution time (s): {:.4}", report.execution_time())?;
            writeln!(
                sink,
                "load imbalance    : {:.1}%",
                report.imbalance.load_imbalance_pct()
            )?;
            writeln!(
                sink,
                "wasted CPU time   : {:.4}s",
                report.imbalance.wasted_cpu_time(ranks)
            )?;
        }
    }
    if let Some(path) = report_path {
        std::fs::write(path, &report_buf)?;
        writeln!(out, "wrote simulation report to {path}")?;
    }
    Ok(())
}

/// Which transport a `cluster` invocation runs on.
enum ClusterBackend {
    /// In-process threaded simulator (virtual time).
    Sim { ranks: usize },
    /// This process is one rank of a real TCP cluster.
    Tcp { hostfile: Hostfile, rank: usize },
    /// Parent process: spawn N local rank processes over loopback TCP.
    Launch { ranks: usize },
}

/// Resolves the backend flags (`--sim` / `--hostfile`+`--rank` / `--launch`)
/// — exactly one must be given. Hostfile problems (bad addresses, duplicate
/// ranks, `--ranks` mismatch) become ordinary CLI errors here, before any
/// socket is opened or input file read.
fn cluster_backend(args: &Args) -> Result<ClusterBackend, CmdError> {
    let picked = [args.has("sim"), args.has("hostfile"), args.has("launch")]
        .iter()
        .filter(|&&b| b)
        .count();
    if picked != 1 {
        return Err(Box::new(ArgError(
            "cluster needs exactly one backend: --sim, --hostfile H --rank R, \
             or --launch"
                .into(),
        )));
    }
    if args.has("sim") || args.has("launch") {
        if args.has("rank") {
            return Err(Box::new(ArgError(
                "--rank only makes sense with --hostfile".into(),
            )));
        }
        let ranks = args.get_parsed("ranks", 4usize)?;
        if ranks == 0 {
            return Err(Box::new(ArgError("--ranks must be at least 1".into())));
        }
        return Ok(if args.has("sim") {
            ClusterBackend::Sim { ranks }
        } else {
            ClusterBackend::Launch { ranks }
        });
    }
    let path = args.require("hostfile")?;
    let hostfile = Hostfile::load(std::path::Path::new(path))
        .map_err(|e| ArgError(format!("--hostfile {path}: {e}")))?;
    if args.has("ranks") {
        let expected = args.get_parsed("ranks", 0usize)?;
        hostfile
            .expect_ranks(expected)
            .map_err(|e| ArgError(format!("--hostfile {path}: {e}")))?;
    }
    let rank_s = args
        .require("rank")
        .map_err(|_| ArgError("--hostfile needs --rank R (this process's rank)".into()))?;
    let rank: usize = rank_s
        .parse()
        .map_err(|_| ArgError(format!("invalid value for --rank: {rank_s:?}")))?;
    if rank >= hostfile.ranks() {
        return Err(Box::new(ArgError(format!(
            "--rank {rank} out of range: hostfile names {} ranks",
            hostfile.ranks()
        ))));
    }
    Ok(ClusterBackend::Tcp { hostfile, rank })
}

fn cluster_cmd<W: Write>(args: &Args, out: &mut W) -> Result<(), CmdError> {
    let sub = args.positional.first().map(String::as_str).unwrap_or("");
    if !matches!(sub, "build" | "search") || args.positional.len() != 1 {
        return Err(Box::new(ArgError(
            "cluster needs a mode: `lbe cluster build ...` or \
             `lbe cluster search ...` (run `lbe help`)"
                .into(),
        )));
    }
    args.reject_unknown(&[
        "db",
        "digest",
        "mods",
        "policy",
        "seed",
        "gsize",
        "threads-per-rank",
        "sim",
        "hostfile",
        "rank",
        "ranks",
        "launch",
        "timeout-s",
        "queries",
        "out",
        "top-k",
        "csv",
        "full-scan",
        "bench-out",
        "supervise",
        "fault-plan",
    ])?;
    let backend = cluster_backend(args)?;
    let supervise = args.has("supervise");
    if supervise && sub != "search" {
        return Err(Box::new(ArgError(
            "--supervise applies to `cluster search` only".into(),
        )));
    }
    let fault_plan = match args.get("fault-plan") {
        None => None,
        Some(spec) => {
            if matches!(backend, ClusterBackend::Sim { .. }) {
                return Err(Box::new(ArgError(
                    "--fault-plan needs a real transport (--hostfile or --launch); \
                     the in-process simulator shares one address space with rank 0"
                        .into(),
                )));
            }
            Some(
                lbe_cluster::FaultPlan::parse(spec)
                    .map_err(|e| ArgError(format!("--fault-plan: {e}")))?,
            )
        }
    };

    // The launcher never loads any data itself — it only spawns the rank
    // processes (which re-parse this command line with --hostfile/--rank)
    // and waits for them.
    if let ClusterBackend::Launch { ranks } = backend {
        return launch_local_cluster(args, sub, ranks, out);
    }

    let db_path = args.require("db")?;
    args.require("out")?; // validated before any expensive work
    let timeout_s = args.get_parsed("timeout-s", 60.0f64)?;
    if !(timeout_s > 0.0 && timeout_s.is_finite()) {
        return Err(Box::new(ArgError(
            "--timeout-s must be a positive number of seconds".into(),
        )));
    }
    let timeout = std::time::Duration::from_secs_f64(timeout_s);

    let db = read_db(args, db_path, out)?;
    let grouping = group_peptides(
        &db,
        &GroupingParams {
            criterion: GroupingCriterion::normalized_default(),
            gsize: args.get_parsed("gsize", 20usize)?,
        },
    );
    let mut cfg = EngineConfig::with_policy(parse_policy(args)?);
    cfg.modspec = parse_mods(args)?;
    cfg.threads_per_rank = args.get_parsed("threads-per-rank", 1usize)?;
    if args.has("full-scan") {
        cfg.scan_mode = ScanMode::FullScan;
    }

    match (sub, backend) {
        ("search", ClusterBackend::Sim { ranks }) => {
            let (queries, _stats) = read_queries(args.require("queries")?, out)?;
            let outcome = Cluster::new(ClusterConfig::new(ranks)).run(|comm| {
                if supervise {
                    cluster_search_rank_supervised(comm, &db, &grouping, &queries, &cfg)
                        .unwrap_or_else(|e| panic!("{e}"))
                } else {
                    cluster_search_rank(comm, &db, &grouping, &queries, &cfg)
                        .unwrap_or_else(|e| panic!("{e}"))
                }
            });
            let report = outcome
                .results
                .into_iter()
                .next()
                .flatten()
                .expect("rank 0 returns the report");
            write_cluster_search_outputs(args, "sim", "virtual", &queries, db.len(), &report, out)
        }
        ("search", ClusterBackend::Tcp { hostfile, rank }) => {
            let (queries, _stats) = read_queries(args.require("queries")?, out)?;
            let mut comm =
                tcp_communicator(&hostfile, rank, timeout, supervise, fault_plan.as_ref())?;
            let report = if supervise {
                cluster_search_rank_supervised(&mut comm, &db, &grouping, &queries, &cfg)?
            } else {
                cluster_search_rank(&mut comm, &db, &grouping, &queries, &cfg)?
            };
            match report {
                Some(report) => write_cluster_search_outputs(
                    args,
                    "tcp",
                    "wall",
                    &queries,
                    db.len(),
                    &report,
                    out,
                ),
                None => {
                    writeln!(out, "rank {rank}/{}: search complete", comm.size())?;
                    Ok(())
                }
            }
        }
        ("build", ClusterBackend::Sim { ranks }) => {
            let outcome = Cluster::new(ClusterConfig::new(ranks)).run(|comm| {
                cluster_build_rank(comm, &db, &grouping, &cfg).unwrap_or_else(|e| panic!("{e}"))
            });
            let shards = outcome
                .results
                .into_iter()
                .next()
                .flatten()
                .expect("rank 0 returns the shards");
            write_cluster_build_outputs(args, "sim", ranks, &shards, out)
        }
        ("build", ClusterBackend::Tcp { hostfile, rank }) => {
            let mut comm = tcp_communicator(&hostfile, rank, timeout, false, fault_plan.as_ref())?;
            let size = comm.size();
            match cluster_build_rank(&mut comm, &db, &grouping, &cfg)? {
                Some(shards) => write_cluster_build_outputs(args, "tcp", size, &shards, out),
                None => {
                    writeln!(out, "rank {rank}/{size}: shard shipped")?;
                    Ok(())
                }
            }
        }
        _ => unreachable!("launch handled above"),
    }
}

/// Connects this process into the TCP mesh and wraps it in a wall-clock
/// [`Communicator`]. With a `--fault-plan`, the transport is wrapped in a
/// [`lbe_cluster::FaultyTransport`] (the plan's own `rank=` filter decides
/// which rank actually misbehaves); with `--supervise`, transient-failure
/// retries are switched on.
fn tcp_communicator(
    hostfile: &Hostfile,
    rank: usize,
    timeout: std::time::Duration,
    supervise: bool,
    fault_plan: Option<&lbe_cluster::FaultPlan>,
) -> Result<Communicator, CmdError> {
    let tcfg = TcpConfig {
        connect_timeout: timeout,
        ..TcpConfig::default()
    };
    let transport = TcpTransport::connect(hostfile, rank, &tcfg)?;
    let transport: Box<dyn lbe_cluster::Transport> = match fault_plan {
        Some(plan) => Box::new(lbe_cluster::FaultyTransport::wrap(
            Box::new(transport),
            plan.for_rank(rank),
        )),
        None => Box::new(transport),
    };
    let mut comm = Communicator::over(transport, CommCostModel::default(), timeout);
    if supervise {
        comm = comm.with_retry(lbe_cluster::RetryPolicy::standard());
    }
    Ok(comm)
}

/// Rank 0's `cluster search` output: the same TSV/CSV report `search`
/// writes (so reports diff cleanly against the single-process goldens),
/// plus the optional `--bench-out` JSON of measured per-rank times.
fn write_cluster_search_outputs<W: Write>(
    args: &Args,
    backend: &str,
    time_base: &str,
    queries: &[Spectrum],
    peptides: usize,
    report: &lbe_core::DistributedSearchReport,
    out: &mut W,
) -> Result<(), CmdError> {
    let output = args.require("out")?;
    let sep = if args.has("csv") { ',' } else { '\t' };
    let top_k = args.get_parsed("top-k", 10usize)?;
    let mut sink = std::io::BufWriter::new(std::fs::File::create(output)?);
    writeln!(sink, "{}", result_header(sep))?;
    let mut total_psms = 0usize;
    for (q, merged) in queries.iter().zip(&report.psms) {
        let rows: Vec<Psm> = merged
            .iter()
            .map(|g| Psm {
                entry: 0,
                peptide: g.peptide,
                modform: g.modform,
                shared_peaks: g.shared_peaks,
                score: g.score,
            })
            .collect();
        total_psms += write_result_rows(&mut sink, q.scan, &rows, top_k, sep)?;
    }
    sink.flush()?;
    writeln!(
        out,
        "cluster search ({backend}, {} ranks): {} queries, wrote {total_psms} PSMs to {output}",
        report.ranks,
        queries.len(),
    )?;
    if let Some(rec) = &report.recovery {
        writeln!(
            out,
            "recovery: ranks_lost={} {:?}, queries_reexecuted={}, recovery_seconds={:.3}",
            rec.ranks_lost.len(),
            rec.ranks_lost,
            rec.queries_reexecuted,
            rec.recovery_seconds,
        )?;
    }
    if let Some(bench) = args.get("bench-out") {
        if bench.is_empty() {
            return Err(Box::new(ArgError("--bench-out needs a file path".into())));
        }
        write_bench_json(bench, backend, time_base, peptides, queries.len(), report)?;
        writeln!(out, "wrote cluster bench to {bench}")?;
    }
    Ok(())
}

/// Serializes the measured (or simulated) per-rank timing profile as JSON —
/// the paper-figure quantities (per-rank query times, makespans, load
/// imbalance) on whichever clock the backend runs.
fn write_bench_json(
    path: &str,
    backend: &str,
    time_base: &str,
    peptides: usize,
    queries: usize,
    report: &lbe_core::DistributedSearchReport,
) -> Result<(), CmdError> {
    fn floats(v: &[f64]) -> String {
        v.iter()
            .map(|x| format!("{x:.6}"))
            .collect::<Vec<_>>()
            .join(", ")
    }
    let json = format!(
        "{{\n  \"backend\": \"{backend}\",\n  \"time_base\": \"{time_base}\",\n  \
         \"ranks\": {},\n  \"policy\": \"{}\",\n  \"peptides\": {peptides},\n  \
         \"queries\": {queries},\n  \"candidate_psms\": {},\n  \
         \"rank_query_seconds\": [{}],\n  \"rank_total_seconds\": [{}],\n  \
         \"query_makespan_seconds\": {:.6},\n  \"execution_makespan_seconds\": {:.6},\n  \
         \"load_imbalance_pct\": {:.3}\n}}\n",
        report.ranks,
        report.policy,
        report.total_candidates,
        floats(&report.rank_query_times),
        floats(&report.total_times),
        report.query_time(),
        report.execution_time(),
        report.imbalance.load_imbalance_pct(),
    );
    std::fs::write(path, json)?;
    Ok(())
}

/// Rank 0's `cluster build` output: the shard files plus manifest.
fn write_cluster_build_outputs<W: Write>(
    args: &Args,
    backend: &str,
    ranks: usize,
    shards: &[lbe_core::ShardBlob],
    out: &mut W,
) -> Result<(), CmdError> {
    let dir = std::path::PathBuf::from(args.require("out")?);
    write_shards(&dir, shards)?;
    let spectra: usize = shards.iter().map(|s| s.spectra).sum();
    let ions: usize = shards.iter().map(|s| s.ions).sum();
    let bytes: usize = shards.iter().map(|s| s.blob.len()).sum();
    writeln!(
        out,
        "cluster build ({backend}, {ranks} ranks): {} shards, {spectra} spectra, \
         {ions} ions, {bytes} bytes -> {}",
        shards.len(),
        dir.display(),
    )?;
    Ok(())
}

/// `--launch`: spawn `ranks` local copies of this binary, one per rank,
/// talking over loopback TCP — the multi-process test/benchmark driver.
/// Each child re-runs this exact command line with `--launch` swapped for
/// `--hostfile`/`--rank`; rank 0's stdout is passed through, other ranks
/// are silenced (stderr stays visible for errors everywhere).
fn launch_local_cluster<W: Write>(
    args: &Args,
    sub: &str,
    ranks: usize,
    out: &mut W,
) -> Result<(), CmdError> {
    use std::process::{Command, Stdio};

    // Pick N free loopback ports by binding ephemeral listeners, then
    // release them just before the children bind. (A tiny bind race in
    // exchange for a hostfile the children can open themselves.)
    let mut addrs = Vec::with_capacity(ranks);
    {
        let listeners: Vec<std::net::TcpListener> = (0..ranks)
            .map(|_| std::net::TcpListener::bind("127.0.0.1:0"))
            .collect::<std::io::Result<_>>()?;
        for l in &listeners {
            addrs.push(l.local_addr()?);
        }
    }
    let dir = std::env::temp_dir().join(format!("lbe-cluster-launch-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let hostfile_path = dir.join("hostfile");
    let text: String = addrs
        .iter()
        .enumerate()
        .map(|(r, a)| format!("{r} {a}\n"))
        .collect();
    std::fs::write(&hostfile_path, text)?;

    let exe = std::env::current_exe()?;
    let mut base: Vec<String> = vec!["cluster".into(), sub.into()];
    for key in args.option_keys() {
        if key == "launch" {
            continue;
        }
        base.push(format!("--{key}"));
        match args.get(key) {
            Some("") | None => {}
            Some(v) => base.push(v.to_string()),
        }
    }

    let mut children = Vec::with_capacity(ranks);
    for r in 0..ranks {
        let mut cmd = Command::new(&exe);
        cmd.args(&base)
            .arg("--hostfile")
            .arg(&hostfile_path)
            .arg("--rank")
            .arg(r.to_string())
            .stdout(if r == 0 {
                Stdio::inherit()
            } else {
                Stdio::null()
            })
            .stderr(Stdio::inherit());
        children.push((r, cmd.spawn()?));
    }
    // Under --supervise, a worker (never rank 0) dying is an *expected*
    // outcome the master recovers from — fault-injection kills exit with
    // FAULT_DEATH_EXIT_CODE, and any other worker failure is survivable.
    let supervising = args.has("supervise");
    let mut failed = Vec::new();
    let mut lost = Vec::new();
    for (r, mut child) in children {
        let status = child.wait()?;
        if !status.success() {
            if supervising && r != 0 {
                lost.push(format!("rank {r} ({status})"));
            } else {
                failed.push(format!("rank {r} exited with {status}"));
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    if !failed.is_empty() {
        return Err(Box::new(ArgError(format!(
            "cluster launch failed: {}",
            failed.join("; ")
        ))));
    }
    if lost.is_empty() {
        writeln!(out, "launched {ranks} local ranks; all exited cleanly")?;
    } else {
        writeln!(
            out,
            "launched {ranks} local ranks; rank 0 recovered from lost worker(s): {}",
            lost.join(", ")
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::args::Args;

    fn run(cmdline: &str) -> Result<String, CmdError> {
        let args = Args::parse(cmdline.split_whitespace().map(String::from))?;
        let mut out = Vec::new();
        dispatch(&args, &mut out)?;
        Ok(String::from_utf8(out).unwrap())
    }

    /// Fresh (pre-cleaned) test directory: `index init` refuses a
    /// directory that already holds a store.
    fn tmpdir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join("lbe_cli_tests").join(name);
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn help_prints_usage() {
        let text = run("help").unwrap();
        assert!(text.contains("USAGE"));
        assert!(text.contains("cluster-db"));
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run("frobnicate").is_err());
    }

    #[test]
    fn full_file_pipeline() {
        let d = tmpdir("pipeline");
        let p = |n: &str| d.join(n).to_string_lossy().to_string();

        let msg = run(&format!(
            "synth-proteome --out {} --proteins 25 --seed 3",
            p("prot.fasta")
        ))
        .unwrap();
        assert!(msg.contains("25 proteins"));

        let msg = run(&format!(
            "digest --in {} --out {}",
            p("prot.fasta"),
            p("pep.fasta")
        ))
        .unwrap();
        assert!(msg.contains("unique"));

        let msg = run(&format!(
            "cluster-db --in {} --out {} --criterion 2",
            p("pep.fasta"),
            p("clustered.fasta")
        ))
        .unwrap();
        assert!(msg.contains("groups"));

        let msg = run(&format!(
            "synth-queries --db {} --out {} --n 12 --seed 9",
            p("pep.fasta"),
            p("q.ms2")
        ))
        .unwrap();
        assert!(msg.contains("12 query spectra"));

        let msg = run(&format!(
            "index init --db {} --out {}",
            p("clustered.fasta"),
            p("idx")
        ))
        .unwrap();
        assert!(msg.contains("initialized generation store"));
        assert!(msg.contains("chunk(s)"));
        // The index on disk is a generation store: a manifest and its blobs.
        assert_eq!(
            &std::fs::read(p("idx/MANIFEST-000001")).unwrap()[..8],
            lbe_index::io::MAGIC_MANIFEST
        );

        let msg = run(&format!(
            "search --index {} --queries {} --out {} --top-k 3",
            p("idx"),
            p("q.ms2"),
            p("results.tsv")
        ))
        .unwrap();
        assert!(msg.contains("PSMs"));
        let tsv = std::fs::read_to_string(p("results.tsv")).unwrap();
        assert!(tsv.starts_with("scan\trank\tpeptide"));
        assert!(tsv.lines().count() > 1);

        let msg = run(&format!(
            "simulate --db {} --queries {} --ranks 4 --policy cyclic",
            p("pep.fasta"),
            p("q.ms2")
        ))
        .unwrap();
        assert!(msg.contains("load imbalance"));
        assert!(msg.contains("candidate PSMs"));
    }

    #[test]
    fn index_lifecycle_pipeline() {
        let d = tmpdir("lifecycle");
        let p = |n: &str| d.join(n).to_string_lossy().to_string();
        let _ = std::fs::remove_dir_all(d.join("store"));

        run(&format!(
            "synth-proteome --out {} --proteins 30 --seed 11",
            p("prot.fasta")
        ))
        .unwrap();
        run(&format!(
            "digest --in {} --out {}",
            p("prot.fasta"),
            p("pep.fasta")
        ))
        .unwrap();

        // Split the peptide FASTA into halves on a record (2-line)
        // boundary; the delta re-includes the first record so the append
        // path has a duplicate to skip.
        let all = std::fs::read_to_string(p("pep.fasta")).unwrap();
        let lines: Vec<&str> = all.lines().collect();
        let half = lines.len() / 4 * 2;
        assert!(half >= 2 && half < lines.len());
        std::fs::write(p("base.fasta"), lines[..half].join("\n") + "\n").unwrap();
        let delta = [&lines[..2], &lines[half..]].concat().join("\n") + "\n";
        std::fs::write(p("delta.fasta"), delta).unwrap();

        let msg = run(&format!(
            "index init --db {} --out {} --chunk-size 64",
            p("base.fasta"),
            p("store")
        ))
        .unwrap();
        assert!(msg.contains("initialized generation store"));

        let msg = run(&format!(
            "index append --index {} --db {}",
            p("store"),
            p("delta.fasta")
        ))
        .unwrap();
        assert!(msg.contains("appended"));
        assert!(msg.contains("1 duplicates skipped"));

        let msg = run(&format!("index compact --index {}", p("store"))).unwrap();
        assert!(msg.contains("compacted"));
        let msg = run(&format!("index gc --index {}", p("store"))).unwrap();
        assert!(msg.contains("gc: deleted"));

        let msg = run(&format!("index stats --index {}", p("store"))).unwrap();
        assert!(msg.contains("stored"));
        assert!(msg.contains("live"));
        assert!(!msg.contains("tomb "));

        // The compacted store must search identically to a from-scratch
        // store over the same peptide set.
        run(&format!(
            "index init --db {} --out {}",
            p("pep.fasta"),
            p("full")
        ))
        .unwrap();
        run(&format!(
            "synth-queries --db {} --out {} --n 10 --seed 5",
            p("pep.fasta"),
            p("q.ms2")
        ))
        .unwrap();
        run(&format!(
            "search --index {} --queries {} --out {} --top-k 5",
            p("store"),
            p("q.ms2"),
            p("gen.tsv")
        ))
        .unwrap();
        run(&format!(
            "search --index {} --queries {} --out {} --top-k 5",
            p("full"),
            p("q.ms2"),
            p("full.tsv")
        ))
        .unwrap();
        assert_eq!(
            std::fs::read(p("gen.tsv")).unwrap(),
            std::fs::read(p("full.tsv")).unwrap()
        );

        // `index` builds only through its subcommands: the bare build of
        // the single-file container is gone, and writes nothing.
        let err = run(&format!(
            "index --db {} --out {}",
            p("pep.fasta"),
            p("bare")
        ))
        .unwrap_err();
        assert!(
            err.to_string().contains("init|append|compact|gc|stats"),
            "{err}"
        );
        assert!(!std::path::Path::new(&p("bare")).exists());
        assert!(run(&format!("index bogus --index {}", p("store"))).is_err());
        assert!(run(&format!(
            "index init --db {} --out {}",
            p("base.fasta"),
            p("store")
        ))
        .is_err());
    }

    #[test]
    fn digest_rejects_missing_files() {
        assert!(run("digest --in /nonexistent/x.fasta --out /tmp/y.fasta").is_err());
    }

    #[test]
    fn unknown_option_rejected() {
        assert!(run("digest --in a --out b --bogus 1").is_err());
    }

    #[test]
    fn bad_policy_rejected() {
        let d = tmpdir("badpol");
        let p = |n: &str| d.join(n).to_string_lossy().to_string();
        run(&format!(
            "synth-proteome --out {} --proteins 5",
            p("p.fasta")
        ))
        .unwrap();
        run(&format!(
            "digest --in {} --out {}",
            p("p.fasta"),
            p("pep.fasta")
        ))
        .unwrap();
        run(&format!(
            "synth-queries --db {} --out {} --n 2",
            p("pep.fasta"),
            p("q.ms2")
        ))
        .unwrap();
        let err = run(&format!(
            "simulate --db {} --queries {} --policy zigzag",
            p("pep.fasta"),
            p("q.ms2")
        ));
        assert!(err.is_err());
    }

    #[test]
    fn mzml_query_path() {
        let d = tmpdir("mzml");
        let p = |n: &str| d.join(n).to_string_lossy().to_string();
        run(&format!(
            "synth-proteome --out {} --proteins 8",
            p("p.fasta")
        ))
        .unwrap();
        run(&format!(
            "digest --in {} --out {}",
            p("p.fasta"),
            p("pep.fasta")
        ))
        .unwrap();
        run(&format!(
            "synth-queries --db {} --out {} --n 5 --format mzml",
            p("pep.fasta"),
            p("q.mzML")
        ))
        .unwrap();
        run(&format!(
            "index init --db {} --out {}",
            p("pep.fasta"),
            p("i")
        ))
        .unwrap();
        let msg = run(&format!(
            "search --index {} --queries {} --out {}",
            p("i"),
            p("q.mzML"),
            p("r.tsv")
        ))
        .unwrap();
        assert!(msg.contains("searched 5 spectra"));
        assert!(run(&format!(
            "synth-queries --db {} --out {} --format bogus",
            p("pep.fasta"),
            p("x")
        ))
        .is_err());
    }

    #[test]
    fn cluster_db_criterion_variants() {
        let d = tmpdir("criterion");
        let p = |n: &str| d.join(n).to_string_lossy().to_string();
        run(&format!(
            "synth-proteome --out {} --proteins 10 --seed 5",
            p("p.fasta")
        ))
        .unwrap();
        run(&format!(
            "digest --in {} --out {}",
            p("p.fasta"),
            p("pep.fasta")
        ))
        .unwrap();
        // Criterion 1 (absolute edit distance) with an explicit d.
        let msg = run(&format!(
            "cluster-db --in {} --out {} --criterion 1 --d 3",
            p("pep.fasta"),
            p("c1.fasta")
        ))
        .unwrap();
        assert!(msg.contains("groups"));
        // Criterion 3 does not exist.
        let err = run(&format!(
            "cluster-db --in {} --out {} --criterion 3",
            p("pep.fasta"),
            p("c3.fasta")
        ))
        .unwrap_err();
        assert!(err.to_string().contains("--criterion must be 1 or 2"));
    }

    #[test]
    fn mgf_query_path() {
        let d = tmpdir("mgf");
        let p = |n: &str| d.join(n).to_string_lossy().to_string();
        run(&format!(
            "synth-proteome --out {} --proteins 8 --seed 2",
            p("p.fasta")
        ))
        .unwrap();
        run(&format!(
            "digest --in {} --out {}",
            p("p.fasta"),
            p("pep.fasta")
        ))
        .unwrap();
        run(&format!(
            "synth-queries --db {} --out {} --n 4",
            p("pep.fasta"),
            p("q.ms2")
        ))
        .unwrap();
        // Convert to MGF so `search` exercises its extension dispatch.
        let spectra = lbe_spectra::ms2::read_ms2_path(p("q.ms2")).unwrap();
        let f = std::fs::File::create(p("q.mgf")).unwrap();
        lbe_spectra::mgf::write_mgf(f, &spectra).unwrap();
        run(&format!(
            "index init --db {} --out {}",
            p("pep.fasta"),
            p("i")
        ))
        .unwrap();
        let msg = run(&format!(
            "search --index {} --queries {} --out {}",
            p("i"),
            p("q.mgf"),
            p("r.tsv")
        ))
        .unwrap();
        assert!(msg.contains("searched 4 spectra"));
    }

    #[test]
    fn bad_mods_message_lists_choices() {
        let d = tmpdir("badmods");
        let p = |n: &str| d.join(n).to_string_lossy().to_string();
        run(&format!(
            "synth-proteome --out {} --proteins 5",
            p("p.fasta")
        ))
        .unwrap();
        run(&format!(
            "digest --in {} --out {}",
            p("p.fasta"),
            p("pep.fasta")
        ))
        .unwrap();
        let err = run(&format!(
            "index init --db {} --out {} --mods sumo",
            p("pep.fasta"),
            p("i")
        ))
        .unwrap_err();
        assert!(err.to_string().contains("none|oxidation|paper"));
    }

    /// Builds the proteome → peptides → queries → index fixture shared by
    /// the disk-backed search tests.
    fn search_fixture(dir: &str) -> impl Fn(&str) -> String {
        let d = tmpdir(dir);
        let p = move |n: &str| d.join(n).to_string_lossy().to_string();
        run(&format!(
            "synth-proteome --out {} --proteins 12 --seed 11",
            p("p.fasta")
        ))
        .unwrap();
        run(&format!(
            "digest --in {} --out {}",
            p("p.fasta"),
            p("pep.fasta")
        ))
        .unwrap();
        run(&format!(
            "synth-queries --db {} --out {} --n 8 --seed 12",
            p("pep.fasta"),
            p("q.ms2")
        ))
        .unwrap();
        p
    }

    #[test]
    fn search_with_resident_budget_matches_unbounded() {
        let p = search_fixture("resident_budget");
        // Small chunks so the container really has several.
        let msg = run(&format!(
            "index init --db {} --out {} --chunk-size 25",
            p("pep.fasta"),
            p("i")
        ))
        .unwrap();
        assert!(msg.contains("chunk(s)"));
        run(&format!(
            "search --index {} --queries {} --out {}",
            p("i"),
            p("q.ms2"),
            p("all.tsv")
        ))
        .unwrap();
        let msg = run(&format!(
            "search --index {} --queries {} --out {} --max-resident-chunks 1",
            p("i"),
            p("q.ms2"),
            p("one.tsv")
        ))
        .unwrap();
        // The query file is one wave: each chunk is faulted once, even
        // with one resident at a time.
        let counts: Vec<&str> = msg.split(['(', ' ', ',']).collect();
        let chunks = counts[counts.iter().position(|&w| w == "chunks").unwrap() - 1];
        assert!(
            msg.contains(&format!("({chunks} chunks, {chunks} faults,")),
            "{msg}"
        );
        // Identical result files: residency is invisible in the output.
        assert_eq!(
            std::fs::read_to_string(p("all.tsv")).unwrap(),
            std::fs::read_to_string(p("one.tsv")).unwrap()
        );
        assert!(run(&format!(
            "search --index {} --queries {} --out {} --max-resident-chunks -1",
            p("i"),
            p("q.ms2"),
            p("bad.tsv")
        ))
        .is_err());
    }

    #[test]
    fn search_csv_output_shape() {
        let p = search_fixture("csv_search");
        run(&format!(
            "index init --db {} --out {}",
            p("pep.fasta"),
            p("i")
        ))
        .unwrap();
        run(&format!(
            "search --index {} --queries {} --out {} --csv --top-k 2",
            p("i"),
            p("q.ms2"),
            p("r.csv")
        ))
        .unwrap();
        let csv = std::fs::read_to_string(p("r.csv")).unwrap();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "scan,rank,peptide,modform,shared_peaks,score"
        );
        let first = lines.next().expect("at least one PSM row");
        assert_eq!(first.split(',').count(), 6, "row: {first}");
        // Every data row parses: scan, rank, peptide, modform, shared as
        // integers; score as a float.
        for row in csv.lines().skip(1) {
            let cols: Vec<&str> = row.split(',').collect();
            assert_eq!(cols.len(), 6, "row: {row}");
            for c in &cols[..5] {
                c.parse::<u64>()
                    .unwrap_or_else(|_| panic!("bad int {c} in {row}"));
            }
            cols[5].parse::<f64>().unwrap();
        }
    }

    /// Re-emits the single-index file `current` with each section mapped
    /// through `edit` to a renamed or rewritten section, or dropped
    /// (`None`), checksums recomputed.
    fn rewrite(
        current: &[u8],
        edit: impl Fn([u8; 8], &[u8]) -> Option<([u8; 8], Vec<u8>)>,
    ) -> Vec<u8> {
        use lbe_index::format::{crc32, write_container, ParsedContainer, SectionPlan};
        let parsed = ParsedContainer::parse(current, 0, None, lbe_index::io::MAGIC_V2).unwrap();
        let payloads: Vec<([u8; 8], Vec<u8>)> = parsed
            .sections()
            .iter()
            .filter_map(|s| {
                edit(
                    s.name,
                    &current[s.offset as usize..(s.offset + s.len) as usize],
                )
            })
            .collect();
        let plans: Vec<SectionPlan> = payloads
            .iter()
            .map(|(name, p)| SectionPlan {
                name: *name,
                len: p.len() as u64,
                crc: crc32(p),
            })
            .collect();
        let mut out = Vec::new();
        write_container(&mut out, lbe_index::io::MAGIC_V2, &plans, |i, w| {
            w.write_all(&payloads[i].1)
        })
        .unwrap();
        out
    }

    /// Every layout below the format floor, each made from the current
    /// single-index file `current` with valid checksums, as `(what the
    /// error names, bytes)`.
    fn below_the_floor(current: &[u8]) -> Vec<(&'static str, Vec<u8>)> {
        use lbe_index::format::section_name;
        let idx = lbe_index::read_index(current).unwrap();
        let mut binoffs = 0u64.to_le_bytes().to_vec();
        let mut at = 0u64;
        for bin in 0..idx.config().num_bins() as u32 {
            at += idx.bin_postings(bin).len() as u64;
            binoffs.extend(at.to_le_bytes());
        }
        const FLAGS: [u8; 8] = section_name("flags");
        const BINMAP: [u8; 8] = section_name("binmap");
        const BINPTR: [u8; 8] = section_name("binptr");
        vec![
            ("an LBESLM1 index file", b"LBESLM1\0".to_vec()),
            ("an LBECHK2 chunked container", b"LBECHK2\0".to_vec()),
            (
                "without a binmap + binptr bin directory",
                rewrite(current, |name, p| match name {
                    BINMAP => Some((section_name("binoffs"), binoffs.clone())),
                    BINPTR => None,
                    _ => Some((name, p.to_vec())),
                }),
            ),
            (
                "without a flags section",
                rewrite(current, |name, p| {
                    (name != FLAGS).then(|| (name, p.to_vec()))
                }),
            ),
            (
                "not flagged mass-sorted",
                rewrite(current, |name, p| {
                    Some((name, if name == FLAGS { &[0; 8] } else { p }.to_vec()))
                }),
            ),
        ]
    }

    #[test]
    fn search_and_stats_refuse_every_layout_below_the_floor() {
        // Each old layout through `search --index` (no results file is
        // left behind) and `index stats`: an error, never a search.
        let p = shards_fixture("below_the_floor");
        let current = std::fs::read(p("shards/shard-0000.slm2")).unwrap();
        for (layout, image) in below_the_floor(&current) {
            let file = p("old.slm");
            std::fs::write(&file, &image).unwrap();
            let out = p("r.tsv");
            let err = run(&format!(
                "search --index {file} --queries {} --out {out}",
                p("q.ms2")
            ))
            .unwrap_err()
            .to_string();
            assert!(
                err.contains(layout) && err.contains("no longer read; rebuild with `lbe index"),
                "{layout}: {err}"
            );
            assert!(!std::path::Path::new(&out).exists(), "{layout}");
            let err = run(&format!("index stats --index {file}"))
                .unwrap_err()
                .to_string();
            let what = match image.starts_with(lbe_index::io::MAGIC_V2) {
                true => format!("{file} is a single-index LBESLM2 file"),
                false => format!("{file}: {layout} is no longer read"),
            };
            assert!(err.contains(&what), "{layout}: {err}");
        }
    }

    /// [`search_fixture`] plus `shards/`, a 2-rank `cluster build` output:
    /// a directory that is no generation store, holding single-index files.
    fn shards_fixture(dir: &str) -> impl Fn(&str) -> String {
        let p = search_fixture(dir);
        run(&format!(
            "cluster build --sim --ranks 2 --db {} --out {}",
            p("pep.fasta"),
            p("shards")
        ))
        .unwrap();
        p
    }

    #[test]
    fn a_directory_that_is_no_generation_store_is_named_as_such() {
        let p = shards_fixture("not_a_store");
        for cmd in [
            format!(
                "search --index {} --queries {} --out {}",
                p("shards"),
                p("q.ms2"),
                p("r.tsv")
            ),
            format!("index stats --index {}", p("shards")),
        ] {
            let err = run(&cmd).unwrap_err().to_string();
            assert!(
                err.contains(&p("shards"))
                    && err.contains("is not a generation store (no CURRENT file)"),
                "{cmd}: {err}"
            );
        }
        assert!(!std::path::Path::new(&p("r.tsv")).exists());
    }

    #[test]
    fn index_stats_on_a_single_index_file_says_what_it_found_and_what_it_reads() {
        let p = shards_fixture("stats_single");
        let file = p("shards/shard-0000.slm2");
        let err = run(&format!("index stats --index {file}"))
            .unwrap_err()
            .to_string();
        assert!(
            err.contains(&format!("{file} is a single-index LBESLM2 file"))
                && err.contains("chunk statistics read a generation store directory"),
            "{err}"
        );
    }

    #[test]
    fn simulate_csv_output_shape_and_spill_dir() {
        let p = search_fixture("sim_csv");
        let spill = tmpdir("sim_csv_spill");
        let msg = run(&format!(
            "simulate --db {} --queries {} --ranks 3 --csv --spill-dir {}",
            p("pep.fasta"),
            p("q.ms2"),
            spill.to_string_lossy()
        ))
        .unwrap();
        let mut lines = msg.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("policy,ranks,peptides,"));
        let row = lines.next().unwrap();
        assert_eq!(row.split(',').count(), header.split(',').count());
        let cols: Vec<&str> = row.split(',').collect();
        assert_eq!(cols[0], "cyclic");
        assert_eq!(cols[1], "3");
        assert!(cols[6].parse::<f64>().unwrap() > 0.0); // query_time_s
        assert!(lines.next().is_none(), "csv mode prints exactly two lines");
        // The spill directory holds one v2 container per rank.
        for rank in 0..3 {
            let f = spill.join(format!("rank{rank:04}.slm2"));
            assert!(f.exists(), "{f:?} missing");
            assert_eq!(&std::fs::read(&f).unwrap()[..8], lbe_index::io::MAGIC_V2);
        }
        std::fs::remove_dir_all(&spill).ok();
    }

    #[test]
    fn index_rejects_zero_chunk_size() {
        let p = search_fixture("zero_chunk");
        let err = run(&format!(
            "index init --db {} --out {} --chunk-size 0",
            p("pep.fasta"),
            p("i")
        ))
        .unwrap_err();
        assert!(err.to_string().contains("chunk-size"));
        // Refused on the command line, before a directory is made.
        assert!(!std::path::Path::new(&p("i")).exists());
    }

    #[test]
    fn mods_variants_accepted() {
        let d = tmpdir("mods");
        let p = |n: &str| d.join(n).to_string_lossy().to_string();
        run(&format!(
            "synth-proteome --out {} --proteins 5",
            p("p.fasta")
        ))
        .unwrap();
        run(&format!(
            "digest --in {} --out {}",
            p("p.fasta"),
            p("pep.fasta")
        ))
        .unwrap();
        for mods in ["none", "oxidation", "paper"] {
            run(&format!(
                "index init --db {} --out {} --mods {mods}",
                p("pep.fasta"),
                p(&format!("i_{mods}"))
            ))
            .unwrap();
        }
        assert!(run(&format!(
            "index init --db {} --out {} --mods bogus",
            p("pep.fasta"),
            p("i")
        ))
        .is_err());
    }

    #[test]
    fn index_and_simulate_accept_raw_proteome_with_digest_flag() {
        let d = tmpdir("digest_flag");
        let p = |n: &str| d.join(n).to_string_lossy().to_string();
        run(&format!(
            "synth-proteome --out {} --proteins 10 --seed 4",
            p("prot.fasta")
        ))
        .unwrap();
        // `index --digest` takes the raw proteome directly...
        let msg = run(&format!(
            "index init --db {} --out {} --digest",
            p("prot.fasta"),
            p("i")
        ))
        .unwrap();
        assert!(msg.contains("unique peptides"));
        assert!(msg.contains("initialized generation store"));
        // ...and produces the same chunks as the two-step path (the
        // manifests differ: only a streamed digest knows each peptide's
        // protein and missed cleavages).
        run(&format!(
            "digest --in {} --out {}",
            p("prot.fasta"),
            p("pep.fasta")
        ))
        .unwrap();
        run(&format!(
            "index init --db {} --out {}",
            p("pep.fasta"),
            p("i2")
        ))
        .unwrap();
        let stats = |dir: &str| run(&format!("index stats --index {}", p(dir))).unwrap();
        assert_eq!(
            stats("i"),
            stats("i2"),
            "--digest index differs from digest-then-index"
        );
        // `simulate --digest` runs end-to-end on the raw proteome too.
        run(&format!(
            "synth-queries --db {} --out {} --n 4",
            p("pep.fasta"),
            p("q.ms2")
        ))
        .unwrap();
        let msg = run(&format!(
            "simulate --db {} --queries {} --ranks 2 --digest",
            p("prot.fasta"),
            p("q.ms2")
        ))
        .unwrap();
        assert!(msg.contains("load imbalance"));
    }

    #[test]
    fn simulate_stream_db_matches_in_memory_run() {
        let p = search_fixture("stream_db");
        let base = format!(
            "simulate --db {} --queries {} --ranks 3 --csv",
            p("pep.fasta"),
            p("q.ms2")
        );
        let in_mem = run(&base).unwrap();
        let streamed = run(&format!("{base} --stream-db")).unwrap();
        assert_eq!(in_mem, streamed, "--stream-db changed the report");
        // --stream-db needs record/id alignment, which --digest destroys.
        let err = run(&format!("{base} --stream-db --digest")).unwrap_err();
        assert!(err.to_string().contains("--stream-db"));
    }

    #[test]
    fn synth_queries_mgf_format_searchable() {
        let p = search_fixture("mgf_format");
        run(&format!(
            "synth-queries --db {} --out {} --n 6 --seed 12 --format mgf",
            p("pep.fasta"),
            p("q.mgf")
        ))
        .unwrap();
        run(&format!(
            "index init --db {} --out {}",
            p("pep.fasta"),
            p("i")
        ))
        .unwrap();
        let msg = run(&format!(
            "search --index {} --queries {} --out {}",
            p("i"),
            p("q.mgf"),
            p("r.tsv")
        ))
        .unwrap();
        assert!(msg.contains("searched 6 spectra"));
    }

    #[test]
    fn search_sniffs_extensionless_query_files() {
        let p = search_fixture("sniff");
        // Same spectra, no extension: content sniffing must kick in.
        std::fs::copy(p("q.ms2"), p("queries_noext")).unwrap();
        run(&format!(
            "index init --db {} --out {}",
            p("pep.fasta"),
            p("i")
        ))
        .unwrap();
        let msg = run(&format!(
            "search --index {} --queries {} --out {}",
            p("i"),
            p("queries_noext"),
            p("r.tsv")
        ))
        .unwrap();
        assert!(msg.contains("searched 8 spectra"));
    }

    #[test]
    fn simulate_csv_stays_machine_readable_with_ms1_and_digest() {
        // Ingest notes (skipped-MS1 count, --digest summary) must not
        // precede the CSV header: csv mode prints exactly two lines even
        // when both note sources fire.
        let d = tmpdir("csv_notes");
        let p = |n: &str| d.join(n).to_string_lossy().to_string();
        run(&format!(
            "synth-proteome --out {} --proteins 10 --seed 6",
            p("prot.fasta")
        ))
        .unwrap();
        run(&format!(
            "digest --in {} --out {}",
            p("prot.fasta"),
            p("pep.fasta")
        ))
        .unwrap();
        run(&format!(
            "synth-queries --db {} --out {} --n 3 --format mzml",
            p("pep.fasta"),
            p("q.mzML")
        ))
        .unwrap();
        let text = std::fs::read_to_string(p("q.mzML")).unwrap();
        let ms1 = "<spectrum id=\"scan=9999\"><cvParam accession=\"MS:1000511\" name=\"ms level\" value=\"1\"/></spectrum>\n";
        std::fs::write(
            p("q.mzML"),
            text.replacen("      <spectrum ", &format!("{ms1}      <spectrum "), 1),
        )
        .unwrap();
        let msg = run(&format!(
            "simulate --db {} --queries {} --ranks 2 --csv --digest",
            p("prot.fasta"),
            p("q.mzML")
        ))
        .unwrap();
        let lines: Vec<&str> = msg.lines().collect();
        assert_eq!(
            lines.len(),
            2,
            "csv mode must print exactly two lines: {msg}"
        );
        assert!(lines[0].starts_with("policy,ranks,"), "{msg}");
        // Without --csv the notes do appear.
        let msg = run(&format!(
            "simulate --db {} --queries {} --ranks 2 --digest",
            p("prot.fasta"),
            p("q.mzML")
        ))
        .unwrap();
        assert!(msg.contains("skipped 1 non-MS2 spectra"), "{msg}");
        assert!(msg.contains("unique peptides"), "{msg}");
    }

    #[test]
    fn search_reports_skipped_ms1_scans() {
        let p = search_fixture("ms1_note");
        run(&format!(
            "synth-queries --db {} --out {} --n 3 --seed 12 --format mzml",
            p("pep.fasta"),
            p("q.mzML")
        ))
        .unwrap();
        // Interleave an MS1 survey scan (no precursor) like a default
        // msconvert conversion would contain.
        let text = std::fs::read_to_string(p("q.mzML")).unwrap();
        let ms1 = r#"<spectrum id="scan=9999"><cvParam accession="MS:1000511" name="ms level" value="1"/></spectrum>
"#;
        let text = text.replacen("      <spectrum ", &format!("{ms1}      <spectrum "), 1);
        std::fs::write(p("q.mzML"), text).unwrap();
        run(&format!(
            "index init --db {} --out {}",
            p("pep.fasta"),
            p("i")
        ))
        .unwrap();
        let msg = run(&format!(
            "search --index {} --queries {} --out {}",
            p("i"),
            p("q.mzML"),
            p("r.tsv")
        ))
        .unwrap();
        assert!(msg.contains("skipped 1 non-MS2 spectra"), "message: {msg}");
        assert!(msg.contains("searched 3 spectra"));
    }

    #[test]
    fn query_failure_preserves_existing_out_file() {
        let p = search_fixture("query_out_preserved");
        std::fs::write(p("r.tsv"), "precious previous results\n").unwrap();
        // A typo'd queries file fails before the results file is touched…
        assert!(run(&format!(
            "query --addr 127.0.0.1:1 --queries {} --out {}",
            p("nonexistent.ms2"),
            p("r.tsv")
        ))
        .is_err());
        assert_eq!(
            std::fs::read_to_string(p("r.tsv")).unwrap(),
            "precious previous results\n"
        );
        // …and so does a dead server (port 1 is never listening).
        let err = run(&format!(
            "query --addr 127.0.0.1:1 --queries {} --out {}",
            p("q.ms2"),
            p("r.tsv")
        ))
        .unwrap_err();
        assert!(err.to_string().contains("cannot connect"), "{err}");
        assert_eq!(
            std::fs::read_to_string(p("r.tsv")).unwrap(),
            "precious previous results\n"
        );
    }

    #[test]
    fn simulate_out_written_on_success_preserved_on_failure() {
        let p = search_fixture("sim_out_preserved");
        // Success: the report lands in the file, stdout gets only the
        // confirmation line (plus ingest notes) — not the report itself.
        let msg = run(&format!(
            "simulate --db {} --queries {} --ranks 3 --out {}",
            p("pep.fasta"),
            p("q.ms2"),
            p("report.txt")
        ))
        .unwrap();
        assert!(msg.contains("wrote simulation report to"), "{msg}");
        assert!(!msg.contains("load imbalance"), "report leaked to stdout");
        let report = std::fs::read_to_string(p("report.txt")).unwrap();
        assert!(report.contains("load imbalance"));
        assert!(report.contains("candidate PSMs"));
        // --csv --out: machine row in the file, confirmation on stdout.
        let msg = run(&format!(
            "simulate --db {} --queries {} --ranks 3 --csv --out {}",
            p("pep.fasta"),
            p("q.ms2"),
            p("report.csv")
        ))
        .unwrap();
        assert_eq!(msg.lines().count(), 1, "stdout is one confirmation line");
        let csv = std::fs::read_to_string(p("report.csv")).unwrap();
        assert!(csv.starts_with("policy,ranks,peptides,"));
        assert_eq!(csv.lines().count(), 2);
        // Failure: a bad queries path must leave the previous report alone.
        std::fs::write(p("report.txt"), "precious previous report\n").unwrap();
        assert!(run(&format!(
            "simulate --db {} --queries {} --ranks 3 --out {}",
            p("pep.fasta"),
            p("missing.ms2"),
            p("report.txt")
        ))
        .is_err());
        assert_eq!(
            std::fs::read_to_string(p("report.txt")).unwrap(),
            "precious previous report\n"
        );
        // A valueless --out is rejected up front.
        let err = run(&format!(
            "simulate --db {} --queries {} --out",
            p("pep.fasta"),
            p("q.ms2")
        ))
        .unwrap_err();
        assert!(err.to_string().contains("--out needs a file path"), "{err}");
    }
}
