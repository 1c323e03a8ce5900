//! `cluster build|search`: the rank program on a simulator, a TCP mesh,
//! or local processes this one launches.

use super::search::{psm, Report};
use super::*;
use lbe_cluster::{
    Cluster, ClusterConfig, CommCostModel, Communicator, Hostfile, TcpConfig, TcpTransport,
};
use lbe_core::grouping::group_peptides;
use lbe_core::{
    cluster_build_rank, cluster_search_rank, cluster_search_rank_supervised, write_shards,
};

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
    let picked = [args.has(&SIM), args.has(&HOSTFILE), args.has(&LAUNCH)]
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
    if args.has(&SIM) || args.has(&LAUNCH) {
        if args.has(&RANK) {
            return Err(Box::new(ArgError(
                "--rank only makes sense with --hostfile".into(),
            )));
        }
        let ranks = args.value::<usize>(&CLUSTER_RANKS)?;
        if ranks == 0 {
            return Err(Box::new(ArgError("--ranks must be at least 1".into())));
        }
        return Ok(if args.has(&SIM) {
            ClusterBackend::Sim { ranks }
        } else {
            ClusterBackend::Launch { ranks }
        });
    }
    let path = args.require(&HOSTFILE)?;
    let hostfile = Hostfile::load(std::path::Path::new(path))
        .map_err(|e| ArgError(format!("--hostfile {path}: {e}")))?;
    if args.has(&CLUSTER_RANKS) {
        hostfile
            .expect_ranks(args.value(&CLUSTER_RANKS)?)
            .map_err(|e| ArgError(format!("--hostfile {path}: {e}")))?;
    }
    if !args.has(&RANK) {
        return Err(Box::new(ArgError(
            "--hostfile needs --rank R (this process's rank)".into(),
        )));
    }
    let rank = args.value::<usize>(&RANK)?;
    if rank >= hostfile.ranks() {
        return Err(Box::new(ArgError(format!(
            "--rank {rank} out of range: hostfile names {} ranks",
            hostfile.ranks()
        ))));
    }
    Ok(ClusterBackend::Tcp { hostfile, rank })
}

/// `lbe cluster build` or `lbe cluster search` (`sub`).
pub(super) fn run(args: &Args, sub: &str, out: &mut dyn Write) -> Result<(), CmdError> {
    let backend = cluster_backend(args)?;
    let supervise = args.has(&SUPERVISE);
    let fault_plan = match args.text(&FAULT_PLAN) {
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

    let db_path = args.require(&DB)?;
    let timeout_s = args.value::<f64>(&TIMEOUT_S)?;
    if !(timeout_s > 0.0 && timeout_s.is_finite()) {
        return Err(Box::new(ArgError(
            "--timeout-s must be a positive number of seconds".into(),
        )));
    }
    let timeout = std::time::Duration::from_secs_f64(timeout_s);

    let db = read_db(args, db_path, out)?;
    let (cfg, grouping_params) = engine(args)?;
    let grouping = group_peptides(&db, &grouping_params);

    match (sub, backend) {
        ("search", ClusterBackend::Sim { ranks }) => {
            let (queries, _stats) = read_queries(args.require(&QUERIES)?, out)?;
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
            let (queries, _stats) = read_queries(args.require(&QUERIES)?, out)?;
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
fn write_cluster_search_outputs(
    args: &Args,
    backend: &str,
    time_base: &str,
    queries: &[Spectrum],
    peptides: usize,
    report: &lbe_core::DistributedSearchReport,
    out: &mut dyn Write,
) -> Result<(), CmdError> {
    let output = args.require(&OUT)?;
    let total_psms = Report::parse(args)?.write(
        output,
        queries.iter().zip(&report.psms).map(|(q, merged)| {
            let rows = merged
                .iter()
                .map(|g| psm(g.peptide, g.modform, g.shared_peaks, g.score));
            Ok((q.scan, rows.collect()))
        }),
    )?;
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
    if let Some(bench) = args.text(&BENCH_OUT) {
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
fn write_cluster_build_outputs(
    args: &Args,
    backend: &str,
    ranks: usize,
    shards: &[lbe_core::ShardBlob],
    out: &mut dyn Write,
) -> Result<(), CmdError> {
    let dir = std::path::PathBuf::from(args.require(&OUT_DIR)?);
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
fn launch_local_cluster(
    args: &Args,
    sub: &str,
    ranks: usize,
    out: &mut dyn Write,
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
    for flag in find(args)?.all_flags() {
        if *flag == LAUNCH || !args.has(flag) {
            continue;
        }
        base.push(format!("--{}", flag.name));
        match args.text(flag) {
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
    let supervising = args.has(&SUPERVISE);
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
