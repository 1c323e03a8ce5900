//! `search` and `query`, and the PSM report both of them and `cluster
//! search` write.

use super::*;
use lbe_core::serve::proto::{self, Request, Response};
use lbe_core::serve::ResidentEngine;
use lbe_index::{Psm, QueryOptions};

/// The [`super::REPORT`] group's output shape: how many rows per query,
/// which separator, which kernel.
pub(super) struct Report {
    top_k: usize,
    sep: char,
    /// `--full-scan`: disable the banded kernel (same rows).
    pub(super) full_scan: bool,
}

impl Report {
    pub(super) fn parse(args: &Args) -> Result<Report, ArgError> {
        Ok(Report {
            top_k: args.value(&TOP_K)?,
            sep: if args.has(&CSV) { ',' } else { '\t' },
            full_scan: args.has(&FULL_SCAN),
        })
    }

    /// Creates `path` and writes the header row, then each query's PSMs
    /// (at most `top_k`) in order, up to the first error; returns how many
    /// PSM rows it wrote.
    pub(super) fn write<I>(&self, path: &str, queries: I) -> Result<usize, CmdError>
    where
        I: IntoIterator<Item = Result<(u32, Vec<Psm>), CmdError>>,
    {
        let sep = self.sep;
        let mut sink = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            sink,
            "scan{sep}rank{sep}peptide{sep}modform{sep}shared_peaks{sep}score"
        )?;
        let mut rows = 0;
        for query in queries {
            let (scan, psms) = query?;
            for (rank, p) in psms.iter().take(self.top_k).enumerate() {
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
        }
        sink.flush()?;
        Ok(rows)
    }
}

/// A report row as the wire and the cluster merge carry it: no entry id.
pub(super) fn psm(peptide: u32, modform: u16, shared_peaks: u16, score: f32) -> Psm {
    Psm {
        entry: 0,
        peptide,
        modform,
        shared_peaks,
        score,
    }
}

pub(super) fn search(args: &Args, out: &mut dyn Write) -> Result<(), CmdError> {
    let index_path = args.require(&INDEX)?;
    let queries_path = args.require(&QUERIES)?;
    let output = args.require(&OUT)?;
    let report = Report::parse(args)?;
    let query_opts = QueryOptions {
        scan_mode: if report.full_scan {
            ScanMode::FullScan
        } else {
            ScanMode::Auto
        },
        ..Default::default()
    };
    let max_resident = max_resident_chunks(args)?;
    let (queries, _stats) = read_queries(queries_path, out)?;

    // Open the index BEFORE creating/truncating the results file: a typo'd
    // --index must not destroy a previous run's output. The engine always
    // runs the full validation scan — index files handed to it are
    // untrusted input.
    let engine = ResidentEngine::open(index_path, max_resident)?;

    // The whole file is one wave: a generation store visits each chunk
    // once for all the queries. Rows go out in query order up to the
    // first failed query, whose error ends the command. The index's own
    // top_k is fixed at build time; --top-k clamps the emitted rows.
    let jobs: Vec<(Spectrum, QueryOptions)> =
        queries.into_iter().map(|q| (q, query_opts)).collect();
    let total_psms = report.write(
        output,
        jobs.iter()
            .zip(engine.search_wave(&jobs, 1))
            .map(|((q, _), r)| Ok((q.scan, r?.psms))),
    )?;
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

/// Reads raw (unpreprocessed) query spectra for the wire: the *server*
/// preprocesses, so file-fed and socket-fed spectra take the identical
/// pipeline. Prints the same skipped-MS1 note as [`read_queries`].
fn read_raw_queries(path: &str, out: &mut dyn Write) -> Result<Vec<Spectrum>, CmdError> {
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

pub(super) fn query(args: &Args, out: &mut dyn Write) -> Result<(), CmdError> {
    let addr = args.require(&ADDR)?;
    let shutdown = args.has(&SHUTDOWN);
    let queries_path = args.text(&QUERIES);
    if queries_path.is_none() && !shutdown {
        return Err(Box::new(ArgError(
            "query needs --queries (and --out), or --shutdown".into(),
        )));
    }
    let report = Report::parse(args)?;
    let full_scan = report.full_scan;
    let tolerance = match args.has(&TOLERANCE) {
        false => None,
        true => Some(args.value::<f64>(&TOLERANCE)?),
    };

    // Read queries and connect BEFORE touching --out: a dead server or a
    // typo'd queries file must not destroy a previous run's results.
    let mut sent = Vec::new();
    let output = if let Some(qp) = queries_path {
        let output = args.require(&OUT)?;
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
        let total_psms = report.write(
            output,
            scans.iter().zip(&results).map(|(&scan, psms)| {
                let psms = psms.as_ref().expect("all responses received");
                Ok((
                    scan,
                    psms.iter().map(|&(p, m, s, sc)| psm(p, m, s, sc)).collect(),
                ))
            }),
        )?;
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
