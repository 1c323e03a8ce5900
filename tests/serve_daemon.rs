//! `lbe serve` end-to-end: concurrent clients against one daemon must
//! reproduce the one-shot CLI golden reports byte for byte, responses
//! must match their request ids under interleaving, and the lifecycle
//! must be clean — bad indexes never half-start a server, shutdown
//! drains in-flight queries, and one client's disconnect cannot poison
//! another's session.

use lbe::cli::args::Args;
use lbe::cli::commands::dispatch;
use lbe::core::serve::proto::{self, Request, Response};
use lbe::core::serve::{serve_stdin, ResidentEngine, ServeConfig, Server, ShutdownHandle};
use lbe::index::{QueryOptions, ScanMode};
use lbe::spectra::reader::SpectrumReader;
use lbe::spectra::spectrum::Spectrum;
use std::io::{BufReader, Cursor, Read, Write};
use std::net::TcpStream;
use std::sync::OnceLock;

fn data(name: &str) -> String {
    format!("{}/tests/data/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn tmpdir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join("lbe_serve_daemon").join(name);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn cli(cmdline: &str) -> String {
    let args = Args::parse(cmdline.split_whitespace().map(String::from)).unwrap();
    let mut out = Vec::new();
    dispatch(&args, &mut out).unwrap_or_else(|e| panic!("{cmdline}: {e}"));
    String::from_utf8(out).unwrap()
}

/// Builds the corpus index once for the whole suite (digest → index over
/// the checked-in `tests/data/` corpus, exactly like the golden CLI
/// pipeline).
fn corpus_index() -> &'static str {
    static INDEX: OnceLock<String> = OnceLock::new();
    INDEX.get_or_init(|| {
        let d = tmpdir("fixture");
        let pep = d.join("pep.fasta").to_string_lossy().to_string();
        let idx = d.join("corpus_store").to_string_lossy().to_string();
        std::fs::remove_dir_all(&idx).ok();
        cli(&format!("digest --in {} --out {pep}", data("corpus.fasta")));
        cli(&format!("index init --db {pep} --out {idx}"));
        idx
    })
}

/// Starts an in-process daemon over the corpus index; returns the bound
/// address, a shutdown handle, and the join handle for `run()`.
fn start_daemon(
    cfg: ServeConfig,
) -> (
    std::net::SocketAddr,
    ShutdownHandle,
    std::thread::JoinHandle<lbe::core::ServeStats>,
) {
    start_daemon_on(corpus_index(), cfg)
}

/// [`start_daemon`] over the index at `index`.
fn start_daemon_on(
    index: &str,
    cfg: ServeConfig,
) -> (
    std::net::SocketAddr,
    ShutdownHandle,
    std::thread::JoinHandle<lbe::core::ServeStats>,
) {
    let engine = ResidentEngine::open(index, usize::MAX).unwrap();
    let server = Server::bind(engine, "127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr();
    let handle = server.shutdown_handle();
    let runner = std::thread::spawn(move || server.run().unwrap());
    (addr, handle, runner)
}

/// Encodes one wire query from a raw (unpreprocessed) spectrum.
fn query_frame(req_id: u64, s: &Spectrum) -> Vec<u8> {
    let mut wire = Vec::new();
    proto::write_frame(
        &mut wire,
        &Request::Query {
            req_id,
            full_scan: false,
            tolerance: None,
            top_k: None,
            scan: s.scan,
            precursor_mz: s.precursor_mz,
            charge: s.charge,
            peaks: s.peaks.iter().map(|p| (p.mz, p.intensity)).collect(),
        }
        .encode(),
    )
    .unwrap();
    wire
}

fn read_response(rd: &mut impl Read) -> Response {
    let payload = proto::read_frame(rd).unwrap().expect("connection open");
    Response::decode(&payload).unwrap()
}

/// Tentpole acceptance: ≥ 4 concurrent CLI clients, covering all three
/// query formats, each get a report byte-identical to the committed
/// one-shot CLI goldens from a single running daemon — and two more ask
/// for ±500 Da (bands of whole sweep chunks plus a remainder), banded and
/// full-scan, against the golden the pre-`sweep_band` binary wrote.
#[test]
fn concurrent_clients_match_cli_goldens() {
    let (addr, handle, runner) = start_daemon(ServeConfig::default());
    let d = tmpdir("concurrent");
    let clients: Vec<(&str, &str, &str, &str)> = vec![
        ("a", "corpus.ms2", "", "expected_search_text.tsv"),
        ("b", "corpus.mgf", "", "expected_search_text.tsv"),
        ("c", "corpus.mzML", "", "expected_search_mzml.tsv"),
        ("d", "corpus.ms2", "", "expected_search_text.tsv"),
        ("e", "corpus.mgf", "", "expected_search_text.tsv"),
        (
            "f",
            "corpus.ms2",
            "--tolerance 500",
            "expected_query_tol500.tsv",
        ),
        (
            "g",
            "corpus.mgf",
            "--tolerance 500 --full-scan",
            "expected_query_tol500.tsv",
        ),
    ];
    let n_clients = clients.len() as u64;
    let threads: Vec<_> = clients
        .into_iter()
        .map(|(tag, queries, flags, expected)| {
            let out = d.join(format!("{tag}.tsv")).to_string_lossy().to_string();
            std::thread::spawn(move || {
                cli(&format!(
                    "query --addr {addr} --queries {} --out {out} {flags}",
                    data(queries)
                ));
                let got = std::fs::read_to_string(&out).unwrap();
                let want = std::fs::read_to_string(data(expected)).unwrap();
                assert_eq!(
                    got, want,
                    "client {tag} ({queries} {flags}) diverged from {expected}"
                );
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    handle.shutdown();
    let stats = runner.join().unwrap();
    assert_eq!(stats.connections, n_clients);
    assert_eq!(stats.requests, n_clients * 24);
    assert_eq!(stats.responses, n_clients * 24);
    assert_eq!(stats.protocol_errors, 0);
}

/// Interleaving: one connection sends the whole corpus in *reverse* with
/// shuffled request ids; every response must carry the result belonging
/// to its id (pinned against the engine's own sequential answers).
#[test]
fn responses_match_request_ids_under_interleaving() {
    let (addr, handle, runner) = start_daemon(ServeConfig::default());
    let spectra: Vec<Spectrum> = SpectrumReader::open(data("corpus.ms2"))
        .unwrap()
        .map(|s| s.unwrap())
        .collect();

    // Expected answers, computed sequentially through the same engine API
    // the daemon uses.
    let engine = ResidentEngine::open(corpus_index(), usize::MAX).unwrap();
    let opts = QueryOptions::default();
    let expected: Vec<Vec<(u32, u16, u16, f32)>> = spectra
        .iter()
        .map(|s| {
            engine
                .search_one(&engine.preprocess(s), &opts)
                .unwrap()
                .psms
                .iter()
                .map(|p| (p.peptide, p.modform, p.shared_peaks, p.score))
                .collect()
        })
        .collect();

    let mut stream = TcpStream::connect(addr).unwrap();
    let mut rd = BufReader::new(stream.try_clone().unwrap());
    // Reverse order, ids offset by 9000: id 9000+i still means spectrum i.
    for (i, s) in spectra.iter().enumerate().rev() {
        stream.write_all(&query_frame(9000 + i as u64, s)).unwrap();
    }
    let mut seen = vec![false; spectra.len()];
    for _ in 0..spectra.len() {
        match read_response(&mut rd) {
            Response::Result { req_id, psms, .. } => {
                let i = (req_id - 9000) as usize;
                assert!(!seen[i], "duplicate response for id {req_id}");
                seen[i] = true;
                assert_eq!(psms, expected[i], "wrong payload for request id {req_id}");
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert!(seen.iter().all(|&s| s));
    drop(stream);
    handle.shutdown();
    runner.join().unwrap();
}

/// A pipelined burst — 64 queries written in one go, all in flight on one
/// connection (the per-connection cap) — comes back whole: the writer
/// thread frames whatever replies are queued and flushes once per drained
/// queue, so a wave's replies share segments, and still every reply is a
/// complete frame, in request order, with the payload of its own query, and
/// the run counts one response per request.
#[test]
fn pipelined_burst_is_answered_completely_and_in_request_order() {
    let (addr, handle, runner) = start_daemon(ServeConfig::default());
    let spectra: Vec<Spectrum> = SpectrumReader::open(data("corpus.ms2"))
        .unwrap()
        .map(|s| s.unwrap())
        .collect();
    let engine = ResidentEngine::open(corpus_index(), usize::MAX).unwrap();
    let opts = QueryOptions::default();
    let expected: Vec<Vec<(u32, u16, u16, f32)>> = spectra
        .iter()
        .map(|s| {
            engine
                .search_one(&engine.preprocess(s), &opts)
                .unwrap()
                .psms
                .iter()
                .map(|p| (p.peptide, p.modform, p.shared_peaks, p.score))
                .collect()
        })
        .collect();

    const BURST: usize = 64;
    assert_eq!(ServeConfig::default().per_conn_inflight, BURST);
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut rd = BufReader::new(stream.try_clone().unwrap());
    let mut burst = Vec::new();
    for i in 0..BURST {
        burst.extend_from_slice(&query_frame(i as u64, &spectra[i % spectra.len()]));
    }
    stream.write_all(&burst).unwrap();
    for i in 0..BURST {
        match read_response(&mut rd) {
            Response::Result {
                req_id,
                psms,
                flags,
            } => {
                assert_eq!(req_id, i as u64, "replies left out of request order");
                assert_eq!(flags, 0);
                assert_eq!(psms, expected[i % spectra.len()], "request {i}");
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    drop(stream);
    handle.shutdown();
    let stats = runner.join().unwrap();
    assert_eq!(stats.requests, BURST as u64);
    assert_eq!(stats.responses, stats.requests);
    assert_eq!((stats.protocol_errors, stats.degraded), (0, 0));
}

/// The stdin transport answers the same frames sequentially: ping →
/// queries (with per-request overrides) → shutdown, over an in-memory
/// stream, with results identical to the TCP/dispatcher path.
#[test]
fn stdin_transport_equivalent_and_honours_overrides() {
    let engine = ResidentEngine::open(corpus_index(), usize::MAX).unwrap();
    let spectra: Vec<Spectrum> = SpectrumReader::open(data("corpus.ms2"))
        .unwrap()
        .map(|s| s.unwrap())
        .collect();
    let s = &spectra[0];

    let mut input = Vec::new();
    proto::write_frame(&mut input, &Request::Ping { req_id: 1 }.encode()).unwrap();
    // Default, full-scan, top-k 2, and tolerance 1.0 Da variants of the
    // same spectrum, plus a bad tolerance that must error cleanly.
    let variants: Vec<(u64, bool, Option<f64>, Option<u32>)> = vec![
        (10, false, None, None),
        (11, true, None, None),
        (12, false, None, Some(2)),
        (13, false, Some(1.0), None),
        (14, false, Some(-3.0), None),
    ];
    for &(req_id, full_scan, tolerance, top_k) in &variants {
        proto::write_frame(
            &mut input,
            &Request::Query {
                req_id,
                full_scan,
                tolerance,
                top_k,
                scan: s.scan,
                precursor_mz: s.precursor_mz,
                charge: s.charge,
                peaks: s.peaks.iter().map(|p| (p.mz, p.intensity)).collect(),
            }
            .encode(),
        )
        .unwrap();
    }
    proto::write_frame(&mut input, &Request::Shutdown { req_id: 99 }.encode()).unwrap();

    let mut output = Vec::new();
    let stats = serve_stdin(&engine, &mut Cursor::new(input), &mut output).unwrap();
    assert_eq!(stats.requests, 7);
    assert_eq!(stats.responses, 7);
    assert_eq!(stats.protocol_errors, 0);

    let mut rd = Cursor::new(output);
    match read_response(&mut rd) {
        Response::Pong {
            req_id,
            protocol_version,
            num_chunks,
        } => {
            assert_eq!(req_id, 1);
            assert_eq!(protocol_version, proto::PROTOCOL_VERSION);
            assert_eq!(num_chunks, engine.num_chunks() as u32);
        }
        other => panic!("expected pong, got {other:?}"),
    }
    let baseline = engine
        .search_one(&engine.preprocess(s), &QueryOptions::default())
        .unwrap()
        .psms;
    let expect_psms = |r: Response, want_id: u64| match r {
        Response::Result { req_id, psms, .. } => {
            assert_eq!(req_id, want_id);
            psms
        }
        other => panic!("expected result for {want_id}, got {other:?}"),
    };
    let default_psms = expect_psms(read_response(&mut rd), 10);
    assert_eq!(default_psms.len(), baseline.len());
    // Full scan finds the identical PSMs.
    assert_eq!(expect_psms(read_response(&mut rd), 11), default_psms);
    // top-k 2 is a strict truncation of the default ranking.
    assert_eq!(expect_psms(read_response(&mut rd), 12), default_psms[..2]);
    // A 1 Da closed window matches the engine under the same override.
    let narrowed = engine
        .search_one(
            &engine.preprocess(s),
            &QueryOptions {
                scan_mode: ScanMode::Auto,
                top_k: None,
                precursor_tolerance: Some(1.0),
            },
        )
        .unwrap()
        .psms;
    let got = expect_psms(read_response(&mut rd), 13);
    assert_eq!(
        got,
        narrowed
            .iter()
            .map(|p| (p.peptide, p.modform, p.shared_peaks, p.score))
            .collect::<Vec<_>>()
    );
    match read_response(&mut rd) {
        Response::Error { req_id, code, .. } => {
            assert_eq!(req_id, 14);
            assert_eq!(code, proto::CODE_BAD_REQUEST);
        }
        other => panic!("expected bad-request error, got {other:?}"),
    }
    match read_response(&mut rd) {
        Response::Bye { req_id } => assert_eq!(req_id, 99),
        other => panic!("expected bye, got {other:?}"),
    }
}

/// EOF on the input stream (no shutdown frame) ends a stdin session
/// cleanly, answering everything that arrived.
#[test]
fn stdin_eof_is_clean_shutdown() {
    let engine = ResidentEngine::open(corpus_index(), usize::MAX).unwrap();
    let mut input = Vec::new();
    proto::write_frame(&mut input, &Request::Ping { req_id: 5 }.encode()).unwrap();
    let mut output = Vec::new();
    let stats = serve_stdin(&engine, &mut Cursor::new(input), &mut output).unwrap();
    assert_eq!(stats.requests, 1);
    assert_eq!(stats.responses, 1);
    assert!(matches!(
        read_response(&mut Cursor::new(output)),
        Response::Pong { req_id: 5, .. }
    ));
}

/// A malformed frame on the stdin transport is answered with an error
/// frame, then the session ends (framing is lost).
#[test]
fn stdin_malformed_frame_errors_cleanly() {
    let engine = ResidentEngine::open(corpus_index(), usize::MAX).unwrap();
    let mut input = Vec::new();
    proto::write_frame(&mut input, &[0x55, 1, 2, 3]).unwrap(); // unknown kind
    proto::write_frame(&mut input, &Request::Ping { req_id: 6 }.encode()).unwrap();
    let mut output = Vec::new();
    let stats = serve_stdin(&engine, &mut Cursor::new(input), &mut output).unwrap();
    assert_eq!(stats.protocol_errors, 1);
    assert_eq!(stats.requests, 0, "session ends at the poisoned frame");
    match read_response(&mut Cursor::new(output)) {
        Response::Error { code, .. } => assert_eq!(code, proto::CODE_UNSUPPORTED),
        other => panic!("expected error frame, got {other:?}"),
    }
}

/// Lifecycle: a missing, truncated, or corrupt index path is an ordinary
/// error from `open` — a server can never half-start on one, because
/// binding happens only after the engine validated.
#[test]
fn bad_index_paths_are_clean_errors() {
    assert!(ResidentEngine::open("/nonexistent/index.lbe", usize::MAX).is_err());

    let d = tmpdir("bad_index");
    // Garbage magic.
    let garbage = d.join("garbage.lbe");
    std::fs::write(&garbage, b"NOTANIDX________").unwrap();
    assert!(ResidentEngine::open(&garbage, usize::MAX).is_err());

    // A real store whose manifest is truncated in half fails validation.
    let store = std::path::Path::new(corpus_index());
    let whole = std::fs::read(store.join("MANIFEST-000001")).unwrap();
    let truncated = d.join("truncated_store");
    std::fs::create_dir_all(&truncated).unwrap();
    std::fs::copy(store.join("CURRENT"), truncated.join("CURRENT")).unwrap();
    std::fs::write(truncated.join("MANIFEST-000001"), &whole[..whole.len() / 2]).unwrap();
    assert!(ResidentEngine::open(&truncated, usize::MAX).is_err());

    // The CLI surfaces the same failure without ever printing a banner.
    let args = Args::parse(
        format!("serve --index {}", truncated.display())
            .split_whitespace()
            .map(String::from),
    )
    .unwrap();
    let mut out = Vec::new();
    assert!(dispatch(&args, &mut out).is_err());
    assert!(out.is_empty(), "no listening banner before the failure");
}

/// Lifecycle: a shutdown frame arriving behind five pipelined queries is
/// acknowledged only after every query was answered — Bye is the final
/// frame on the wire.
#[test]
fn graceful_shutdown_drains_inflight_queries() {
    let (addr, _handle, runner) = start_daemon(ServeConfig::default());
    let spectra: Vec<Spectrum> = SpectrumReader::open(data("corpus.ms2"))
        .unwrap()
        .map(|s| s.unwrap())
        .collect();

    let mut stream = TcpStream::connect(addr).unwrap();
    let mut rd = BufReader::new(stream.try_clone().unwrap());
    let mut batch = Vec::new();
    for (i, s) in spectra.iter().take(5).enumerate() {
        batch.extend_from_slice(&query_frame(100 + i as u64, s));
    }
    proto::write_frame(&mut batch, &Request::Shutdown { req_id: 777 }.encode()).unwrap();
    stream.write_all(&batch).unwrap();

    let mut result_ids = Vec::new();
    loop {
        match read_response(&mut rd) {
            Response::Result { req_id, .. } => result_ids.push(req_id),
            Response::Bye { req_id } => {
                assert_eq!(req_id, 777);
                break;
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    result_ids.sort_unstable();
    assert_eq!(result_ids, vec![100, 101, 102, 103, 104]);
    // And the frame after Bye is a clean EOF: the server sent nothing
    // more and run() has wound down.
    assert!(proto::read_frame(&mut rd).unwrap().is_none());
    let stats = runner.join().unwrap();
    assert_eq!(stats.requests, 6);
    assert_eq!(stats.responses, 6);
}

/// Lifecycle: one client disconnecting with queries still in flight must
/// not poison other connections — a second client's full run still
/// matches the golden report.
#[test]
fn client_disconnect_mid_batch_does_not_poison_others() {
    let (addr, handle, runner) = start_daemon(ServeConfig::default());
    let spectra: Vec<Spectrum> = SpectrumReader::open(data("corpus.ms2"))
        .unwrap()
        .map(|s| s.unwrap())
        .collect();

    // Client A: pipeline queries, then vanish without reading a byte.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        for (i, s) in spectra.iter().take(8).enumerate() {
            stream.write_all(&query_frame(i as u64, s)).unwrap();
        }
        // dropped here: mid-batch disconnect
    }

    // Client B: the full corpus through the real CLI client must still
    // be byte-identical to the golden.
    let d = tmpdir("disconnect");
    let out = d.join("b.tsv").to_string_lossy().to_string();
    cli(&format!(
        "query --addr {addr} --queries {} --out {out}",
        data("corpus.ms2")
    ));
    assert_eq!(
        std::fs::read_to_string(&out).unwrap(),
        std::fs::read_to_string(data("expected_search_text.tsv")).unwrap()
    );

    handle.shutdown();
    let stats = runner.join().unwrap();
    assert_eq!(stats.connections, 2);
    assert_eq!(stats.protocol_errors, 0);
}

/// A protocol error on one connection closes that connection (after an
/// error frame) without touching the server or other clients.
#[test]
fn malformed_frame_closes_only_its_connection() {
    let (addr, handle, runner) = start_daemon(ServeConfig::default());

    let mut bad = TcpStream::connect(addr).unwrap();
    let mut bad_rd = BufReader::new(bad.try_clone().unwrap());
    // Oversized declared length: rejected before any payload is read.
    bad.write_all(&(proto::MAX_FRAME_LEN + 1).to_le_bytes())
        .unwrap();
    match read_response(&mut bad_rd) {
        Response::Error { code, .. } => assert_eq!(code, proto::CODE_OVERSIZED),
        other => panic!("expected oversized error, got {other:?}"),
    }
    // The server hangs up on us afterwards...
    assert!(proto::read_frame(&mut bad_rd).unwrap().is_none());

    // ...but a healthy client is unaffected.
    let mut good = TcpStream::connect(addr).unwrap();
    let mut good_rd = BufReader::new(good.try_clone().unwrap());
    let mut wire = Vec::new();
    proto::write_frame(&mut wire, &Request::Ping { req_id: 8 }.encode()).unwrap();
    good.write_all(&wire).unwrap();
    assert!(matches!(
        read_response(&mut good_rd),
        Response::Pong { req_id: 8, .. }
    ));

    handle.shutdown();
    let stats = runner.join().unwrap();
    assert_eq!(stats.protocol_errors, 1);
}

/// The CLI `serve` command itself: banner, golden equivalence through the
/// CLI client, `--shutdown`, and the final summary line.
#[test]
fn serve_cli_command_roundtrip() {
    #[derive(Clone, Default)]
    struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);
    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let buf = SharedBuf::default();
    let server_buf = buf.clone();
    let index = corpus_index().to_string();
    let server = std::thread::spawn(move || {
        let args = Args::parse(
            format!("serve --index {index} --addr 127.0.0.1:0 --threads 2")
                .split_whitespace()
                .map(String::from),
        )
        .unwrap();
        let mut out = server_buf;
        dispatch(&args, &mut out).unwrap();
    });

    // Scrape the parseable banner for the bound address.
    let addr = loop {
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        if let Some(line) = text.lines().find(|l| l.starts_with("listening on ")) {
            break line.trim_start_matches("listening on ").to_string();
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    };

    let d = tmpdir("cli_serve");
    let out = d.join("r.tsv").to_string_lossy().to_string();
    let msg = cli(&format!(
        "query --addr {addr} --queries {} --out {out}",
        data("corpus.ms2")
    ));
    assert!(msg.contains("queried 24 spectra"), "{msg}");
    assert_eq!(
        std::fs::read_to_string(&out).unwrap(),
        std::fs::read_to_string(data("expected_search_text.tsv")).unwrap()
    );
    let msg = cli(&format!("query --addr {addr} --shutdown"));
    assert!(msg.contains("acknowledged shutdown"), "{msg}");
    server.join().unwrap();
    let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    assert!(text.contains("served 2 connections"), "{text}");
}

/// `query --csv` and `--top-k` produce byte-identical reports to the
/// one-shot `search` under the same flags, over the same daemon — on a
/// generation store and on a single index file, which the engine serves as
/// a one-chunk store that still reports itself as a single index.
#[test]
fn query_flags_match_one_shot_search() {
    let d = tmpdir("flags");
    let p = |n: &str| d.join(n).to_string_lossy().to_string();
    // A single index file over the whole corpus: the shard of a one-rank
    // cluster build.
    let pep = std::path::Path::new(corpus_index()).with_file_name("pep.fasta");
    cli(&format!(
        "cluster build --sim --ranks 1 --db {} --out {}",
        pep.display(),
        p("shards")
    ));
    let file = p("shards/shard-0000.slm2");
    for index in [corpus_index(), file.as_str()] {
        let (addr, handle, runner) = start_daemon_on(index, ServeConfig::default());
        for flags in ["--csv", "--top-k 3", "--top-k 1 --csv", "--full-scan"] {
            let summary = cli(&format!(
                "search --index {index} --queries {} --out {} {flags}",
                data("corpus.ms2"),
                p("one_shot.tsv")
            ));
            assert_eq!(
                summary.contains("(single index)"),
                index == file,
                "{summary}"
            );
            cli(&format!(
                "query --addr {addr} --queries {} --out {} {flags}",
                data("corpus.ms2"),
                p("served.tsv")
            ));
            assert_eq!(
                std::fs::read_to_string(p("served.tsv")).unwrap(),
                std::fs::read_to_string(p("one_shot.tsv")).unwrap(),
                "{index}: flags {flags:?} diverged"
            );
        }
        handle.shutdown();
        runner.join().unwrap();
    }

    // What a file-backed engine says of itself: no chunks (the Pong frame
    // reads this), its indexed spectra, and a refresh that reads no file —
    // the file is gone by then.
    let engine = ResidentEngine::open(&file, usize::MAX).unwrap();
    assert_eq!(engine.num_chunks(), 0);
    assert_eq!(engine.backend_summary(), "single index");
    let indexed = lbe::index::read_index_path(&file).unwrap().num_spectra();
    assert_eq!(engine.num_indexed(), Some(indexed));
    std::fs::remove_file(&file).unwrap();
    assert!(matches!(engine.refresh(), Ok(false)));
}

/// A daemon serving a generation store picks up appended generations
/// between waves: the same connection that searched the base index finds
/// the appended peptide after `append`, with no reconnect.
#[test]
fn serve_reopens_latest_generation_without_dropping_connections() {
    use lbe::bio::mods::ModSpec;
    use lbe::bio::peptide::{Peptide, PeptideDb};
    use lbe::index::{GenerationStore, SlmConfig};
    use lbe::spectra::spectrum::Peak;
    use lbe::spectra::theo::{TheoParams, TheoSpectrum};

    fn perfect_query(seq: &[u8]) -> Spectrum {
        let theo = TheoSpectrum::from_sequence(
            seq,
            &lbe::bio::mods::ModForm::unmodified(),
            &ModSpec::none(),
            &TheoParams::default(),
        );
        let peaks = theo
            .fragment_mzs
            .iter()
            .map(|&m| Peak::new(m, 100.0))
            .collect();
        Spectrum::new(
            7,
            lbe::bio::aa::precursor_mz(theo.precursor_mass, 2),
            2,
            peaks,
        )
    }
    fn pep_db(seqs: &[&str]) -> PeptideDb {
        PeptideDb::from_vec(
            seqs.iter()
                .map(|s| Peptide::new(s.as_bytes(), 0, 0).unwrap())
                .collect(),
        )
    }

    let dir = tmpdir("gen_reopen").join("store");
    std::fs::remove_dir_all(&dir).ok();
    let (writer, _) = GenerationStore::init(
        &dir,
        &pep_db(&["GGGGGK", "AAAGGK", "PEPTIDEK", "ELVISLIVESK"]),
        SlmConfig::default(),
        ModSpec::none(),
        2,
    )
    .unwrap();

    let engine = ResidentEngine::open(&dir, usize::MAX).unwrap();
    let server = Server::bind(engine, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.local_addr();
    let handle = server.shutdown_handle();
    let runner = std::thread::spawn(move || server.run().unwrap());

    let mut conn = TcpStream::connect(addr).unwrap();
    let top_peptide = |conn: &mut TcpStream, seq: &[u8], req_id: u64| -> u32 {
        conn.write_all(&query_frame(req_id, &perfect_query(seq)))
            .unwrap();
        match read_response(&mut BufReader::new(conn.try_clone().unwrap())) {
            Response::Result {
                req_id: rid, psms, ..
            } => {
                assert_eq!(rid, req_id);
                assert!(!psms.is_empty(), "no PSMs for {:?}", seq);
                psms[0].0
            }
            other => panic!("unexpected response: {other:?}"),
        }
    };

    // Base generation answers on this connection…
    assert_eq!(top_peptide(&mut conn, b"PEPTIDEK", 1), 2);
    // …a writer appends a new generation behind the daemon's back…
    let out = writer.append(&pep_db(&["WWWWWWK", "SAMPLERK"])).unwrap();
    assert_eq!(out.peptides_added, 2);
    // …and the SAME connection finds the appended peptide: the dispatcher
    // refreshed to the new generation between waves.
    assert_eq!(top_peptide(&mut conn, b"WWWWWWK", 2), 4);
    // The base generation still answers too (its chunks carried over).
    assert_eq!(top_peptide(&mut conn, b"GGGGGK", 3), 0);

    drop(conn);
    handle.shutdown();
    runner.join().unwrap();
}

/// Degraded mode: a zero wave deadline means no query is ever *started*
/// in time, so every response is an empty, DEGRADED-flagged partial
/// result (wire kind 0x84), counted in the server stats — and the
/// connection stays healthy throughout.
#[test]
fn zero_wave_deadline_degrades_every_query() {
    let cfg = ServeConfig {
        wave_deadline: Some(std::time::Duration::ZERO),
        ..ServeConfig::default()
    };
    let (addr, handle, runner) = start_daemon(cfg);
    let spectra: Vec<Spectrum> = SpectrumReader::open(data("corpus.ms2"))
        .unwrap()
        .map(|s| s.unwrap())
        .collect();

    let mut stream = TcpStream::connect(addr).unwrap();
    let mut rd = BufReader::new(stream.try_clone().unwrap());
    for (i, s) in spectra.iter().enumerate() {
        stream.write_all(&query_frame(500 + i as u64, s)).unwrap();
    }
    let mut seen = vec![false; spectra.len()];
    for _ in 0..spectra.len() {
        match read_response(&mut rd) {
            Response::Result {
                req_id,
                psms,
                flags,
            } => {
                let i = (req_id - 500) as usize;
                assert!(!seen[i], "duplicate response for id {req_id}");
                seen[i] = true;
                assert_eq!(
                    flags & proto::RESULT_FLAG_DEGRADED,
                    proto::RESULT_FLAG_DEGRADED,
                    "id {req_id} must be flagged degraded"
                );
                assert!(psms.is_empty(), "degraded results carry no PSMs");
            }
            other => panic!("expected degraded result, got {other:?}"),
        }
    }
    assert!(seen.iter().all(|&s| s));
    drop(stream);
    handle.shutdown();
    let stats = runner.join().unwrap();
    assert_eq!(stats.degraded, spectra.len() as u64);
    assert_eq!(stats.responses, spectra.len() as u64);
}

/// A generous wave deadline never trips: results are byte-identical to
/// the no-deadline server's (legacy 0x81 frames — flags stay zero on the
/// wire) and the degraded counter stays at zero.
#[test]
fn generous_wave_deadline_never_degrades() {
    let cfg = ServeConfig {
        wave_deadline: Some(std::time::Duration::from_secs(300)),
        ..ServeConfig::default()
    };
    let (addr, handle, runner) = start_daemon(cfg);
    let engine = ResidentEngine::open(corpus_index(), usize::MAX).unwrap();
    let spectra: Vec<Spectrum> = SpectrumReader::open(data("corpus.ms2"))
        .unwrap()
        .map(|s| s.unwrap())
        .collect();

    let mut stream = TcpStream::connect(addr).unwrap();
    let mut rd = BufReader::new(stream.try_clone().unwrap());
    for (i, s) in spectra.iter().take(4).enumerate() {
        stream.write_all(&query_frame(600 + i as u64, s)).unwrap();
        match read_response(&mut rd) {
            Response::Result {
                req_id,
                psms,
                flags,
            } => {
                assert_eq!(req_id, 600 + i as u64);
                assert_eq!(flags, 0);
                let want = engine
                    .search_one(&engine.preprocess(s), &QueryOptions::default())
                    .unwrap()
                    .psms;
                let want: Vec<_> = want
                    .iter()
                    .map(|p| (p.peptide, p.modform, p.shared_peaks, p.score))
                    .collect();
                assert_eq!(psms, want, "id {req_id} differs from direct search");
            }
            other => panic!("expected result, got {other:?}"),
        }
    }
    drop(stream);
    handle.shutdown();
    let stats = runner.join().unwrap();
    assert_eq!(stats.degraded, 0);
}

/// A deadline that passes mid-wave on a generation store degrades exactly
/// the jobs none of whose chunks had been searched by then: every other
/// job finishes with its full result — the open job that started on the
/// first chunk included, though most of its chunks come after the
/// deadline.
#[test]
fn a_deadline_mid_wave_degrades_only_jobs_not_started() {
    use lbe::index::{ChunkStore, GenerationStore, SlmConfig};
    use std::time::{Duration, Instant};
    corpus_index();
    let db = lbe::core::ingest::load_peptide_db(tmpdir("fixture").join("pep.fasta")).unwrap();
    let dir = tmpdir("mid_wave").join("store");
    std::fs::remove_dir_all(&dir).ok();
    // 0.01 Da by the store's own configuration; 16 peptides a chunk.
    let closed = SlmConfig::default().with_precursor_tolerance(0.01);
    GenerationStore::init(&dir, &db, closed, lbe::bio::mods::ModSpec::none(), 16).unwrap();

    // Budget 1, so every wave starts cold but for one chunk: a fresh
    // engine has none resident and visits the chunks in ascending order,
    // so a job starts at its lowest chunk.
    let open = || ResidentEngine::open(&dir, 1).unwrap();
    let engine = open();
    let raw: Vec<Spectrum> = SpectrumReader::open(data("corpus.ms2"))
        .unwrap()
        .map(|s| s.unwrap())
        .collect();
    let everything = QueryOptions {
        precursor_tolerance: Some(f64::INFINITY),
        ..Default::default()
    };
    let mut jobs = vec![(engine.preprocess(&raw[0]), everything)];
    jobs.extend(
        raw.iter()
            .map(|s| (engine.preprocess(s), QueryOptions::default())),
    );
    let store = ChunkStore::open_generation_dir(&dir, 1).unwrap();
    let first: Vec<Option<usize>> = std::iter::once(Some(0))
        .chain(jobs[1..].iter().map(|(q, _)| {
            store
                .chunks_for_query(q.precursor_neutral_mass())
                .first()
                .copied()
        }))
        .collect();
    assert!(store.num_chunks() > 8, "{}", store.num_chunks());

    let start = Instant::now();
    let full: Vec<_> = engine
        .search_wave(&jobs, 1)
        .into_iter()
        .map(|r| r.unwrap())
        .collect();
    let whole = start.elapsed();

    let mut mid_wave = 0;
    for attempt in 0..40u32 {
        let engine = open();
        let share = [0.5, 0.3, 0.7, 0.4, 0.6][attempt as usize % 5];
        let deadline = Instant::now() + Duration::from_secs_f64(whole.as_secs_f64() * share);
        let got = engine.search_wave_deadline(&jobs, 1, Some(deadline));
        // The first chunk the deadline stopped: no job starting there or
        // later ran, every job starting earlier finished.
        let cut = (0..jobs.len())
            .filter(|&j| got[j].is_none())
            .filter_map(|j| first[j])
            .min()
            .unwrap_or(usize::MAX);
        for (j, r) in got.iter().enumerate() {
            let case = format!(
                "attempt {attempt}, job {j} from chunk {:?}, cut {cut}",
                first[j]
            );
            match r {
                Some(r) => {
                    assert!(first[j].is_none_or(|c| c < cut), "{case}");
                    assert_eq!(r.as_ref().unwrap(), &full[j], "{case}");
                }
                None => assert!(first[j].is_none_or(|c| c >= cut), "{case}"),
            }
        }
        let degraded = got.iter().filter(|r| r.is_none()).count();
        if degraded > 0 && degraded < jobs.len() - 1 {
            mid_wave += 1;
            if mid_wave == 3 {
                break;
            }
        }
    }
    assert!(mid_wave > 0, "no deadline fell inside a wave of {whole:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Idle reap: a connection that goes quiet past the idle timeout gets a
/// clean `Bye` and an orderly close — while an *active* connection on the
/// same server keeps working, and the reap is not a protocol error.
#[test]
fn idle_connections_are_reaped_with_a_clean_bye() {
    let cfg = ServeConfig {
        idle_timeout: Some(std::time::Duration::from_millis(300)),
        ..ServeConfig::default()
    };
    let (addr, handle, runner) = start_daemon(cfg);
    let spectra: Vec<Spectrum> = SpectrumReader::open(data("corpus.ms2"))
        .unwrap()
        .map(|s| s.unwrap())
        .collect();

    // The idle victim: one query, then silence.
    let mut idle = TcpStream::connect(addr).unwrap();
    let mut idle_rd = BufReader::new(idle.try_clone().unwrap());
    idle.write_all(&query_frame(900, &spectra[0])).unwrap();
    match read_response(&mut idle_rd) {
        Response::Result { req_id: 900, .. } => {}
        other => panic!("expected result, got {other:?}"),
    }
    // The server reaps us after ~300 ms of quiet: a Bye, then EOF.
    match read_response(&mut idle_rd) {
        Response::Bye { req_id } => assert_eq!(req_id, 0, "unsolicited Bye uses id 0"),
        other => panic!("expected reap Bye, got {other:?}"),
    }
    assert!(proto::read_frame(&mut idle_rd).unwrap().is_none());

    // A fresh connection still gets answers after the reap.
    let mut live = TcpStream::connect(addr).unwrap();
    let mut live_rd = BufReader::new(live.try_clone().unwrap());
    live.write_all(&query_frame(901, &spectra[1])).unwrap();
    match read_response(&mut live_rd) {
        Response::Result { req_id: 901, .. } => {}
        other => panic!("expected result, got {other:?}"),
    }
    drop(live);
    drop(idle);
    handle.shutdown();
    let stats = runner.join().unwrap();
    assert_eq!(stats.connections, 2);
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(stats.requests, 2);
    // Two query results plus the reap Bye, which goes out as an ordinary
    // response frame.
    assert_eq!(stats.responses, 3);
}

/// The most bytes one direction of a loopback TCP connection can hold
/// unread: the sender's send buffer plus the receiver's receive buffer,
/// each at most its autotuning maximum (`tcp_wmem`, `tcp_rmem`; neither
/// side sets `SO_SNDBUF`/`SO_RCVBUF`). 64 MiB each where the limits cannot
/// be read.
fn socket_buffer_bound() -> u64 {
    let max = |name: &str| {
        std::fs::read_to_string(format!("/proc/sys/net/ipv4/{name}"))
            .ok()
            .and_then(|s| s.split_whitespace().nth(2)?.parse().ok())
            .unwrap_or(64 << 20)
    };
    max("tcp_wmem") + max("tcp_rmem")
}

/// Lifecycle: a client that pipelines queries and never reads cannot hold
/// up shutdown. Its replies fill the socket buffers, the server's writer
/// for it blocks in `write`, its per-connection gate fills and its reader
/// stops taking queries. A `Shutdown` from a second connection must still
/// end `run`, which joins that writer: the accepted socket's write timeout
/// breaks it.
///
/// The premise — the writer blocks — is established, not assumed: the
/// client keeps sending until the replies the server must already have
/// produced exceed what the socket buffers can hold (or the server gives
/// up on the connection first). That takes large replies: an index whose
/// 2 000 peptides share a six-residue prefix, so a full scan of one of
/// them ranks the whole top 1 000.
#[test]
fn shutdown_completes_behind_a_client_that_never_reads() {
    use lbe::bio::mods::{ModForm, ModSpec};
    use lbe::spectra::spectrum::Peak;
    use lbe::spectra::theo::{TheoParams, TheoSpectrum};
    use std::io::ErrorKind;
    use std::time::{Duration, Instant};

    let residues = b"ADEFGHNPQSTVWY";
    let peptide = |i: usize| {
        let mut seq = b"GASPVT".to_vec();
        seq.extend([i / 196, i / 14 % 14, i % 14].map(|r| residues[r]));
        seq.push(b'K');
        seq
    };
    let dir = tmpdir("never_reads");
    let fasta = dir.join("shared_prefix.fasta");
    let fasta_text: String = (0..2000)
        .map(|i| format!(">p{i}\n{}\n", String::from_utf8(peptide(i)).unwrap()))
        .collect();
    std::fs::write(&fasta, fasta_text).unwrap();
    let store = dir.join("store").to_string_lossy().to_string();
    std::fs::remove_dir_all(&store).ok();
    cli(&format!(
        "index init --db {} --out {store}",
        fasta.display()
    ));
    let cfg = ServeConfig::default();
    let (addr, _handle, runner) = start_daemon_on(&store, cfg);

    // One query, sent over and over: peptide 0's fragments, padded with
    // faint peaks that match nothing (preprocessing keeps the top 100) so
    // that a request is about as large as its reply.
    let theo = TheoSpectrum::from_sequence(
        &peptide(0),
        &ModForm::unmodified(),
        &ModSpec::none(),
        &TheoParams::default(),
    );
    let mut peaks: Vec<Peak> = theo
        .fragment_mzs
        .iter()
        .map(|&mz| Peak {
            mz,
            intensity: 100.0,
        })
        .collect();
    peaks.extend((0..1500).map(|k| Peak {
        mz: 4000.0 + 0.25 * k as f64,
        intensity: 1.0,
    }));
    let query = Spectrum {
        scan: 1,
        precursor_mz: theo.precursor_mass + 1.007_276,
        charge: 1,
        peaks,
        title: String::new(),
    };
    let frame = |req_id: u64| {
        let mut wire = Vec::new();
        let request = Request::Query {
            req_id,
            full_scan: true,
            tolerance: None,
            top_k: Some(1000),
            scan: query.scan,
            precursor_mz: query.precursor_mz,
            charge: query.charge,
            peaks: query.peaks.iter().map(|p| (p.mz, p.intensity)).collect(),
        };
        proto::write_frame(&mut wire, &request.encode()).unwrap();
        wire
    };

    // The sizes, measured on a connection that reads.
    let request_bytes = frame(0).len() as u64;
    let reply_bytes = {
        let mut probe = TcpStream::connect(addr).unwrap();
        probe.write_all(&frame(0)).unwrap();
        let payload = proto::read_frame(&mut probe).unwrap().unwrap();
        match Response::decode(&payload).unwrap() {
            Response::Result { psms, .. } => assert_eq!(psms.len(), 1000),
            other => panic!("expected a result, got {other:?}"),
        }
        payload.len() as u64 + 4
    };
    // After `n` requests, at most `bound / request_bytes` whole ones (and
    // a part of one more) are still unread in the socket buffers, one sits
    // in the reader and `per_conn_inflight` are admitted but unanswered:
    // the replies to the rest exist. Once those outgrow the buffers, by
    // more than the writer's 8 KB `BufWriter` and the frame in its hands,
    // the writer is blocked.
    let bound = socket_buffer_bound();
    let unanswered = bound / request_bytes + 2 + cfg.per_conn_inflight as u64;
    let needed = unanswered + bound / reply_bytes + 3;

    let stalled = TcpStream::connect(addr).unwrap();
    stalled
        .set_write_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    let start = Instant::now();
    let (mut sent, mut request, mut at) = (0u64, frame(0), 0usize);
    loop {
        assert!(
            start.elapsed() < Duration::from_secs(120),
            "the server kept reading ({sent} of {needed} queries sent)"
        );
        match (&stalled).write(&request[at..]) {
            Ok(n) => {
                at += n;
                if at == request.len() {
                    sent += 1;
                    (request, at) = (frame(sent), 0);
                }
            }
            // Stalled: done once the premise holds, else the server is
            // only slow and the next write goes through.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if sent >= needed {
                    break;
                }
            }
            // The server closed the connection: its writer already broke.
            Err(_) => break,
        }
    }

    let mut control = TcpStream::connect(addr).unwrap();
    let mut shutdown = Vec::new();
    proto::write_frame(&mut shutdown, &Request::Shutdown { req_id: 5 }.encode()).unwrap();
    control.write_all(&shutdown).unwrap();
    // The bound: one poll interval for the reader to see the stop flag,
    // the 2 s write timeout, and the queries already admitted.
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || done_tx.send(runner.join().unwrap()));
    let stats = done_rx
        .recv_timeout(Duration::from_secs(15))
        .expect("shutdown hung behind a client that never reads");
    match read_response(&mut BufReader::new(&control)) {
        Response::Bye { req_id } => assert_eq!(req_id, 5),
        other => panic!("expected Bye, got {other:?}"),
    }
    assert!(stats.write_failures >= 1, "{stats:?}");
    assert!(stats.responses < stats.requests, "{stats:?}");
    drop(stalled);
}
