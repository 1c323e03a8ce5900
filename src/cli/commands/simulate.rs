//! `simulate`: the distributed engine on the in-process simulator.

use super::*;
use lbe_core::engine::run_distributed_search;
use lbe_core::grouping::group_peptides;

pub(super) fn simulate(args: &Args, out: &mut dyn Write) -> Result<(), CmdError> {
    let db_path = args.require(&DB)?;
    let queries_path = args.require(&QUERIES)?;
    // Optional report file, created only after a successful run (see the
    // write at the end).
    let report_path = args.text(&OUT);
    let ranks = args.value::<usize>(&RANKS)?;
    let (mut cfg, grouping_params) = engine(args)?;
    let policy = cfg.policy;
    if args.has(&STREAM_DB) && args.has(&DIGEST) {
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
    let notes: &mut dyn Write = if args.has(&CSV) {
        &mut discarded_notes
    } else {
        &mut *out
    };
    let db = read_db(args, db_path, notes)?;
    let (queries, _stats) = read_queries(queries_path, notes)?;

    let grouping = group_peptides(&db, &grouping_params);
    cfg.cost = cfg.cost.scaled_for_index(args.value(&COST_SCALE)?);
    // --stream-db: ranks stream their peptide partition straight from the
    // --db file instead of cloning it out of the shared in-memory database.
    if args.has(&STREAM_DB) {
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
            &mut *out
        };
        if args.has(&CSV) {
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
