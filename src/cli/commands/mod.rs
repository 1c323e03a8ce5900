//! CLI subcommand implementations.
//!
//! `COMMANDS` is the one place a command and its flags are defined: a
//! `Command` names itself, says what it does, lists the [`Flag`]s it
//! takes and the function that runs it. [`dispatch`] finds the command,
//! checks the parsed [`Args`] against its flags before anything runs, and
//! [`usage`] renders the same table as `lbe help`. Each command is a
//! function from checked [`Args`] to a `Result`, writing human output to
//! the supplied writer — so commands are unit-testable without spawning
//! processes. The bodies live one file per command family.

use crate::cli::args::{ArgError, Args, Flag, FlagKind};
use lbe_bio::digest::DigestParams;
use lbe_bio::mods::ModSpec;
use lbe_bio::peptide::PeptideDb;
use lbe_core::engine::EngineConfig;
use lbe_core::grouping::{GroupingCriterion, GroupingParams};
use lbe_core::ingest::{load_peptide_db, load_proteome_digested, load_queries, IngestStats};
use lbe_core::partition::PartitionPolicy;
use lbe_index::ScanMode;
use lbe_spectra::preprocess::PreprocessParams;
use lbe_spectra::spectrum::Spectrum;
use std::io::Write;

mod cluster;
mod corpus;
mod index;
mod search;
mod serve;
mod simulate;
#[cfg(test)]
mod tests;

/// Any command failure (argument, I/O, or data error).
pub type CmdError = Box<dyn std::error::Error>;

// Inputs and outputs.
const IN: Flag = Flag::value("in", "FILE", None);
const OUT: Flag = Flag::value("out", "FILE", None);
const OUT_DIR: Flag = Flag::value("out", "DIR", None);
const DB: Flag = Flag::value("db", "FILE", None);
const INDEX: Flag = Flag::value("index", "DIR", None);
const QUERIES: Flag = Flag::value("queries", "FILE", None);
const DIGEST: Flag = Flag::switch("digest");
const MODS: Flag = Flag::value("mods", "none|oxidation|paper", Some("none"));
const SEED: Flag = Flag::value("seed", "N", Some("7"));
const GSIZE: Flag = Flag::value("gsize", "N", Some("20"));

// Corpus tools.
const PROTEINS: Flag = Flag::value("proteins", "N", Some("200"));
const PROTEOME_SEED: Flag = Flag::value("seed", "N", Some("42"));
const MEAN_LEN: Flag = Flag::value("mean-len", "N", Some("450"));
const FAMILY_FRACTION: Flag = Flag::value("family-fraction", "X", Some("0.4"));
const MISSED_CLEAVAGES: Flag = Flag::value("missed-cleavages", "N", Some("2"));
const MIN_LEN: Flag = Flag::value("min-len", "N", Some("6"));
const MAX_LEN: Flag = Flag::value("max-len", "N", Some("40"));
const CRITERION: Flag = Flag::value("criterion", "1|2", Some("2"));
const D: Flag = Flag::value("d", "N", Some("2"));
const D_PRIME: Flag = Flag::value("d-prime", "X", Some("0.86"));
const N: Flag = Flag::value("n", "N", Some("100"));
const SKEW: Flag = Flag::value("skew", "X", Some("0"));
const FORMAT: Flag = Flag::value("format", "ms2|mzml|mgf", Some("ms2"));
const CHUNK_SIZE: Flag = Flag::value("chunk-size", "N", Some("50000"));

// Search, the daemon and its client.
const TOP_K: Flag = Flag::value("top-k", "N", Some("10"));
const CSV: Flag = Flag::switch("csv");
const FULL_SCAN: Flag = Flag::switch("full-scan");
const MAX_RESIDENT_CHUNKS: Flag = Flag::value("max-resident-chunks", "N", Some("0"));
const LISTEN: Flag = Flag::value("addr", "HOST:PORT", Some("127.0.0.1:0"));
const STDIN: Flag = Flag::switch("stdin");
const THREADS: Flag = Flag::value("threads", "N", Some("4"));
const MAX_INFLIGHT: Flag = Flag::value("max-inflight", "N", Some("256"));
const MAX_WAVE: Flag = Flag::value("max-wave", "N", Some("64"));
const PER_CONN_INFLIGHT: Flag = Flag::value("per-conn-inflight", "N", Some("64"));
const WAVE_DEADLINE_MS: Flag = Flag::value("wave-deadline-ms", "MS", Some("0"));
const IDLE_TIMEOUT_S: Flag = Flag::value("idle-timeout-s", "S", Some("0"));
const ADDR: Flag = Flag::value("addr", "HOST:PORT", None);
const TOLERANCE: Flag = Flag::value("tolerance", "DA", None);
const SHUTDOWN: Flag = Flag::switch("shutdown");

// The rank program.
const POLICY: Flag = Flag::value("policy", "chunk|cyclic|random", Some("cyclic"));
const THREADS_PER_RANK: Flag = Flag::value("threads-per-rank", "N", Some("1"));
const RANKS: Flag = Flag::value("ranks", "N", Some("16"));
const COST_SCALE: Flag = Flag::value("cost-scale", "X", Some("1"));
const STREAM_DB: Flag = Flag::switch("stream-db");
const SIM: Flag = Flag::switch("sim");
const HOSTFILE: Flag = Flag::value("hostfile", "FILE", None);
const RANK: Flag = Flag::value("rank", "R", None);
const CLUSTER_RANKS: Flag = Flag::value("ranks", "N", Some("4"));
const LAUNCH: Flag = Flag::switch("launch");
const TIMEOUT_S: Flag = Flag::value("timeout-s", "S", Some("60"));
const BENCH_OUT: Flag = Flag::value("bench-out", "FILE", None);
const SUPERVISE: Flag = Flag::switch("supervise");
const FAULT_PLAN: Flag = Flag::value("fault-plan", "SPEC", None);

/// The report every search writes (parsed by [`search::Report::parse`]).
const REPORT: &[&Flag] = &[&QUERIES, &OUT, &TOP_K, &CSV, &FULL_SCAN];
/// The rank program's set-up (parsed by [`engine`]).
const ENGINE: &[&Flag] = &[
    &DB,
    &DIGEST,
    &MODS,
    &POLICY,
    &SEED,
    &GSIZE,
    &THREADS_PER_RANK,
];
/// Where a `cluster` job runs: one of `--sim`, `--hostfile` + `--rank`,
/// `--launch`.
const BACKEND: &[&Flag] = &[&SIM, &HOSTFILE, &RANK, &CLUSTER_RANKS, &LAUNCH];

/// One command: everything `dispatch`, the flag checks and `lbe help`
/// know about it.
struct Command {
    /// How the command line spells it: `search`, `index init`.
    path: &'static str,
    about: &'static str,
    required: &'static [&'static Flag],
    /// Flag groups it takes besides the required flags.
    flags: &'static [&'static [&'static Flag]],
    run: fn(&Args, &mut dyn Write) -> Result<(), CmdError>,
}

/// Every command, in `lbe help` order.
static COMMANDS: &[Command] = &[
    Command {
        path: "synth-proteome",
        about: "generate a synthetic proteome, --family-fraction of it mutated copies",
        required: &[&OUT],
        flags: &[&[&PROTEINS, &PROTEOME_SEED, &MEAN_LEN, &FAMILY_FRACTION]],
        run: corpus::synth_proteome,
    },
    Command {
        path: "digest",
        about: "tryptic in-silico digestion + duplicate removal",
        required: &[&IN, &OUT],
        flags: &[&[&MISSED_CLEAVAGES, &MIN_LEN, &MAX_LEN]],
        run: corpus::digest,
    },
    Command {
        path: "cluster-db",
        about: "Algorithm 1: sort + group, emit the clustered database",
        required: &[&IN, &OUT],
        flags: &[&[&CRITERION, &D, &D_PRIME, &GSIZE]],
        run: corpus::cluster_db,
    },
    Command {
        path: "synth-queries",
        about: "generate query spectra (--skew X: Zipf-like peptide abundance)",
        required: &[&DB, &OUT],
        flags: &[&[&N, &SEED, &MODS, &SKEW, &FORMAT]],
        run: corpus::synth_queries,
    },
    Command {
        path: "index init",
        about: "build a generation store (--digest: from a raw proteome FASTA)",
        required: &[&DB, &OUT_DIR],
        flags: &[&[&DIGEST, &MODS, &CHUNK_SIZE]],
        run: index::init,
    },
    Command {
        path: "index append",
        about: "add the peptides the store lacks as delta chunks",
        required: &[&INDEX, &DB],
        flags: &[&[&DIGEST]],
        run: index::append,
    },
    Command {
        path: "index compact",
        about: "merge all chunks into one fresh generation, reusing unchanged blobs",
        required: &[&INDEX],
        flags: &[],
        run: index::compact,
    },
    Command {
        path: "index gc",
        about: "drop tombstones, delete unreferenced blobs and superseded manifests",
        required: &[&INDEX],
        flags: &[],
        run: index::gc,
    },
    Command {
        path: "index stats",
        about: "per-chunk inventory and totals of a generation store",
        required: &[&INDEX],
        flags: &[],
        run: index::stats,
    },
    Command {
        path: "search",
        about: "search a store or a shard with MS2/MGF/mzML queries, write a PSM report; \
                --max-resident-chunks 0 holds every chunk",
        required: &[&INDEX, &QUERIES, &OUT],
        flags: &[REPORT, &[&MAX_RESIDENT_CHUNKS]],
        run: search::search,
    },
    Command {
        path: "serve",
        about: "query daemon over TCP (prints `listening on HOST:PORT`) or --stdin; a \
                wave deadline or idle timeout of 0 is none",
        required: &[&INDEX],
        flags: &[&[
            &LISTEN,
            &STDIN,
            &THREADS,
            &MAX_RESIDENT_CHUNKS,
            &MAX_INFLIGHT,
            &MAX_WAVE,
            &PER_CONN_INFLIGHT,
            &WAVE_DEADLINE_MS,
            &IDLE_TIMEOUT_S,
        ]],
        run: serve::serve,
    },
    Command {
        path: "query",
        about: "client for `serve`: writes the report `search` would, or --shutdown",
        required: &[&ADDR],
        flags: &[REPORT, &[&TOLERANCE, &SHUTDOWN]],
        run: search::query,
    },
    Command {
        path: "simulate",
        about: "run the distributed engine on simulated ranks, report times and imbalance; \
                --cost-scale X multiplies the index-size-linear costs",
        required: &[&DB, &QUERIES],
        flags: &[
            ENGINE,
            &[&OUT, &RANKS, &COST_SCALE, &STREAM_DB, &CSV, &FULL_SCAN],
        ],
        run: simulate::simulate,
    },
    Command {
        path: "cluster build",
        about: "distributed index build on one backend (--sim, --hostfile + --rank, or \
                --launch); rank 0 writes DIR/shard-NNNN.slm2 + DIR/manifest.tsv",
        required: &[&DB, &OUT_DIR],
        flags: &[ENGINE, BACKEND, &[&TIMEOUT_S, &FAULT_PLAN]],
        run: |args, out| cluster::run(args, "build", out),
    },
    Command {
        path: "cluster search",
        about: "distributed batch search on those backends; rank 0 writes the report \
                `search` would; --supervise recovers lost workers",
        required: &[&DB, &QUERIES, &OUT],
        flags: &[
            ENGINE,
            BACKEND,
            REPORT,
            &[&TIMEOUT_S, &BENCH_OUT, &SUPERVISE, &FAULT_PLAN],
        ],
        run: |args, out| cluster::run(args, "search", out),
    },
    Command {
        path: "help",
        about: "this text",
        required: &[],
        flags: &[],
        run: |_, out| Ok(write!(out, "{}", usage())?),
    },
];

impl Command {
    /// The second word of [`Command::path`], for the commands of a family.
    fn sub(&self) -> Option<&'static str> {
        self.path.split_once(' ').map(|(_, sub)| sub)
    }

    /// Every flag it takes, required first, each once.
    fn all_flags(&self) -> Vec<&'static Flag> {
        let mut all: Vec<&'static Flag> = Vec::new();
        for &flag in self.required.iter().chain(self.flags.concat().iter()) {
            if !all.iter().any(|f| f.name == flag.name) {
                all.push(flag);
            }
        }
        all
    }
}

/// Dispatches a parsed command, writing output to `out`. Before the
/// command runs, its table entry is checked: no positional it does not
/// take, no flag it does not take, no switch with a value, no valued flag
/// without one, every required flag given.
pub fn dispatch<W: Write>(args: &Args, out: &mut W) -> Result<(), CmdError> {
    let cmd = find(args)?;
    if let Some(stray) = args.positional.get(usize::from(cmd.sub().is_some())) {
        let msg = format!("{}: unexpected argument {stray:?}", cmd.path);
        return Err(Box::new(ArgError(msg)));
    }
    args.check_flags(cmd.path, &cmd.all_flags())?;
    for flag in cmd.required {
        args.require(flag)
            .map_err(|e| ArgError(format!("{}: {e}", cmd.path)))?;
    }
    (cmd.run)(args, out)
}

/// The command `args` names: by its first word, and in a family by its
/// second (`lbe` alone is `lbe help`).
fn find(args: &Args) -> Result<&'static Command, ArgError> {
    let name = match args.command.as_str() {
        "" => "help",
        name => name,
    };
    let sub = args.positional.first().map(String::as_str);
    let family: Vec<&'static Command> = COMMANDS
        .iter()
        .filter(|c| c.path.split(' ').next() == Some(name))
        .collect();
    if let Some(cmd) = family.iter().find(|c| c.sub().is_none() || c.sub() == sub) {
        return Ok(cmd);
    }
    let subs: Vec<&str> = family.iter().filter_map(|c| c.sub()).collect();
    Err(ArgError(match subs.is_empty() {
        true => format!("unknown command {name:?}; run `lbe help`"),
        false => format!(
            "{name} needs a mode: `lbe {name} {} ...` (run `lbe help`)",
            subs.join("|")
        ),
    }))
}

/// The top-level usage text, rendered from the command table.
pub fn usage() -> String {
    let mut text = String::from(
        "lbe — LBE distributed peptide search (IPDPSW'19 reproduction)\n\n\
         USAGE: lbe <command> [--option value ...]\n       \
         --flag VALUE is required, [--flag VALUE=default] and [--switch] are not\n\n\
         COMMANDS:\n",
    );
    for cmd in COMMANDS {
        let flags: Vec<String> = cmd
            .all_flags()
            .iter()
            .map(|f| match f.kind {
                FlagKind::Switch => format!("[--{}]", f.name),
                FlagKind::Value { placeholder, .. } if cmd.required.contains(f) => {
                    format!("--{} {placeholder}", f.name)
                }
                FlagKind::Value {
                    placeholder,
                    default,
                } => {
                    let default = default.map(|d| format!("={d}")).unwrap_or_default();
                    format!("[--{} {placeholder}{default}]", f.name)
                }
            })
            .collect();
        let mut lines = wrap(flags.iter().map(String::as_str));
        lines.extend(wrap(cmd.about.split_whitespace()));
        for (i, line) in lines.iter().enumerate() {
            let head = if i == 0 { cmd.path } else { "" };
            text.push_str(&format!("  {head:<16}{line}\n"));
        }
    }
    text
}

/// Packs `words` into the 60-column lines right of the command names.
fn wrap<'a>(words: impl Iterator<Item = &'a str>) -> Vec<String> {
    let mut lines: Vec<String> = Vec::new();
    for word in words {
        match lines.last_mut() {
            Some(line) if line.len() + 1 + word.len() <= 60 => {
                line.push(' ');
                line.push_str(word);
            }
            _ => lines.push(word.to_string()),
        }
    }
    lines
}

fn parse_mods(args: &Args) -> Result<ModSpec, CmdError> {
    match args.require(&MODS)? {
        "none" => Ok(ModSpec::none()),
        "oxidation" => Ok(ModSpec::oxidation_only()),
        "paper" => Ok(ModSpec::paper_default()),
        other => Err(Box::new(ArgError(format!(
            "unknown --mods {other:?} (none|oxidation|paper)"
        )))),
    }
}

/// The [`ENGINE`] group — and `--full-scan`, where the command takes it —
/// as the rank program's configuration and the grouping it partitions.
fn engine(args: &Args) -> Result<(EngineConfig, GroupingParams), CmdError> {
    let seed = args.value::<u64>(&SEED)?;
    let policy = match args.require(&POLICY)? {
        "chunk" => PartitionPolicy::Chunk,
        "cyclic" => PartitionPolicy::Cyclic,
        "random" => PartitionPolicy::Random { seed },
        other => {
            return Err(Box::new(ArgError(format!(
                "unknown --policy {other:?} (chunk|cyclic|random)"
            ))))
        }
    };
    let mut cfg = EngineConfig::with_policy(policy);
    cfg.modspec = parse_mods(args)?;
    cfg.threads_per_rank = args.value(&THREADS_PER_RANK)?;
    if args.has(&FULL_SCAN) {
        cfg.scan_mode = ScanMode::FullScan;
    }
    let grouping = GroupingParams {
        criterion: GroupingCriterion::normalized_default(),
        gsize: args.value(&GSIZE)?,
    };
    Ok((cfg, grouping))
}

/// `--max-resident-chunks`: 0 = no budget (every chunk resident).
fn max_resident_chunks(args: &Args) -> Result<usize, ArgError> {
    Ok(match args.value(&MAX_RESIDENT_CHUNKS)? {
        0 => usize::MAX,
        n => n,
    })
}

/// Streams query spectra of any supported format — `.ms2`/`.mgf`/`.mzML`
/// by extension, content-sniffed otherwise — preprocessing each spectrum
/// as it is read. Prints a note when non-MS2 (survey) scans were skipped.
fn read_queries(path: &str, out: &mut dyn Write) -> Result<(Vec<Spectrum>, IngestStats), CmdError> {
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
fn read_db(args: &Args, path: &str, out: &mut dyn Write) -> Result<PeptideDb, CmdError> {
    if args.has(&DIGEST) {
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
