//! `serve`: the long-lived query daemon.

use super::*;
use lbe_core::serve::{serve_stdin, ResidentEngine, ServeConfig, Server};

pub(super) fn serve(args: &Args, out: &mut dyn Write) -> Result<(), CmdError> {
    let index_path = args.require(&INDEX)?;
    let cfg = ServeConfig {
        threads: args.value::<usize>(&THREADS)?.max(1),
        max_resident_chunks: max_resident_chunks(args)?,
        max_inflight: args.value::<usize>(&MAX_INFLIGHT)?.max(1),
        max_wave: args.value::<usize>(&MAX_WAVE)?.max(1),
        per_conn_inflight: args.value::<usize>(&PER_CONN_INFLIGHT)?.max(1),
        wave_deadline: match args.value(&WAVE_DEADLINE_MS)? {
            0 => None,
            ms => Some(std::time::Duration::from_millis(ms)),
        },
        idle_timeout: match args.value(&IDLE_TIMEOUT_S)? {
            0 => None,
            s => Some(std::time::Duration::from_secs(s)),
        },
    };
    // Open (and fully validate) the index before any transport exists: a
    // bad --index is an ordinary CLI error, never a half-started server.
    let engine = ResidentEngine::open(index_path, cfg.max_resident_chunks)?;

    if args.has(&STDIN) {
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

    let server = Server::bind(engine, args.require(&LISTEN)?, cfg)?;
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
