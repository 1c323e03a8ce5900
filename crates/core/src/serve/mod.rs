//! `lbe serve` — a long-lived query daemon over a resident index.
//!
//! The paper's motivating deployment ("millions of users" querying one
//! load-balanced index) amortizes the expensive index build/load across
//! many queries. This module is that runtime: a [`ResidentEngine`] opened
//! once, a TCP listener speaking the length-prefixed [`proto`] protocol,
//! and a dispatcher that batches concurrently-arriving queries into
//! [`search_wave`] calls on the shared `minipool` runtime.
//!
//! Architecture (one process):
//!
//! ```text
//! client ──TCP──▶ reader thread ──bounded job channel──▶ dispatcher ─┐
//! client ──TCP──▶ reader thread ──────────────┘ (admission control)  │
//!                      ▲                                  waves on   │
//!                      │ per-conn reply channel ◀─────── minipool ◀──┘
//!                 writer thread
//! ```
//!
//! Admission control is two-level: a bounded `sync_channel` caps total
//! in-flight queries across the server (readers block on `send` when the
//! backlog is full), and a per-connection gate caps how many queries one
//! connection may have outstanding (fairness: one greedy client cannot
//! monopolize the backlog). Shutdown — via [`Request::Shutdown`] or a
//! [`ShutdownHandle`] — stops admission, drains queries already accepted,
//! answers them, and joins every thread before [`Server::run`] returns.
//!
//! There is also a socket-free transport: [`serve_stdin`] runs the same
//! protocol over any `Read`/`Write` pair, for scripting and tests.
//!
//! [`search_wave`]: ResidentEngine::search_wave
//! [`Request::Shutdown`]: proto::Request::Shutdown

pub mod engine;
pub mod proto;

pub use engine::ResidentEngine;

use lbe_index::{QueryOptions, ScanMode};
use lbe_spectra::spectrum::{Peak, Spectrum};
use proto::{ProtoError, Request, Response};
use std::io::{self, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

/// How long a blocked reader/waiter sleeps between checks of the stop
/// flag. Bounds shutdown latency for idle connections.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// How long one reply write may block on a client that has stopped
/// reading (its socket buffers full) before the connection counts as
/// broken: the writer thread then closes the socket and drains its queue
/// without writing, still releasing admission slots. Without it the writer
/// would park in `write` for good, and shutdown, which joins every
/// connection's writer, with it. The same patience a client caught
/// mid-frame gets at shutdown.
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// How many poll intervals a reader keeps waiting for the *rest* of a
/// frame after shutdown begins (a client caught mid-frame gets ~2 s of
/// patience, then the frame counts as truncated).
const MID_FRAME_PATIENCE: u32 = 40;

/// Server tuning knobs. The defaults suit tests and small deployments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker threads every search wave fans each chunk visit's jobs over
    /// (at most one per `minipool` thread).
    pub threads: usize,
    /// Resident-chunk budget for a generation store (`usize::MAX` = all).
    pub max_resident_chunks: usize,
    /// Total queries admitted server-wide before readers block.
    pub max_inflight: usize,
    /// Most queries batched into one search wave.
    pub max_wave: usize,
    /// Most queries one connection may have outstanding (fairness cap).
    pub per_conn_inflight: usize,
    /// Degraded-mode wall-clock budget per search wave: queries not
    /// *started* by the deadline are answered immediately with a partial
    /// result flagged [`proto::RESULT_FLAG_DEGRADED`] instead of stalling
    /// the wave. `None` (the default) never degrades.
    pub wave_deadline: Option<Duration>,
    /// Reap connections idle (no frame started) this long: the server
    /// sends a clean [`proto::Response::Bye`] and closes. `None` (the
    /// default) keeps idle connections forever.
    pub idle_timeout: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: 4,
            max_resident_chunks: usize::MAX,
            max_inflight: 256,
            max_wave: 64,
            per_conn_inflight: 64,
            wave_deadline: None,
            idle_timeout: None,
        }
    }
}

/// Counters a serve run reports on exit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Connections accepted.
    pub connections: u64,
    /// Frames that decoded into a valid request.
    pub requests: u64,
    /// Response frames successfully written.
    pub responses: u64,
    /// Frames (or byte streams) rejected as protocol errors.
    pub protocol_errors: u64,
    /// Queries answered with a degraded (partial) result because their
    /// wave's deadline expired before they were searched.
    pub degraded: u64,
    /// Connections whose reply write failed or timed out (a client that
    /// stopped reading, or went away): each counted once, after which its
    /// remaining replies are dropped unsent.
    pub write_failures: u64,
}

#[derive(Default)]
struct StatsInner {
    connections: AtomicU64,
    requests: AtomicU64,
    responses: AtomicU64,
    protocol_errors: AtomicU64,
    degraded: AtomicU64,
    write_failures: AtomicU64,
}

impl StatsInner {
    fn snapshot(&self) -> ServeStats {
        ServeStats {
            connections: self.connections.load(Ordering::SeqCst),
            requests: self.requests.load(Ordering::SeqCst),
            responses: self.responses.load(Ordering::SeqCst),
            protocol_errors: self.protocol_errors.load(Ordering::SeqCst),
            degraded: self.degraded.load(Ordering::SeqCst),
            write_failures: self.write_failures.load(Ordering::SeqCst),
        }
    }
}

/// Per-connection fairness gate: a counted semaphore capping outstanding
/// queries, with a condvar so releases wake blocked readers.
struct ConnGate {
    count: Mutex<usize>,
    released: Condvar,
}

impl ConnGate {
    fn new() -> Self {
        ConnGate {
            count: Mutex::new(0),
            released: Condvar::new(),
        }
    }

    /// Takes one slot, waiting while `cap` are outstanding. Returns
    /// `false` (without taking a slot) if the server stops first.
    fn acquire(&self, cap: usize, stop: &AtomicBool) -> bool {
        let mut n = self.count.lock().expect("conn gate poisoned");
        while *n >= cap {
            if stop.load(Ordering::SeqCst) {
                return false;
            }
            let (guard, _) = self
                .released
                .wait_timeout(n, POLL_INTERVAL)
                .expect("conn gate poisoned");
            n = guard;
        }
        *n += 1;
        true
    }

    fn release(&self) {
        let mut n = self.count.lock().expect("conn gate poisoned");
        *n = n.saturating_sub(1);
        self.released.notify_all();
    }

    /// Waits (bounded) until no queries are outstanding — the drain step
    /// before acknowledging a shutdown request.
    fn wait_idle(&self, max_polls: u32) {
        let mut n = self.count.lock().expect("conn gate poisoned");
        let mut polls = 0;
        while *n > 0 && polls < max_polls {
            let (guard, _) = self
                .released
                .wait_timeout(n, POLL_INTERVAL)
                .expect("conn gate poisoned");
            n = guard;
            polls += 1;
        }
    }
}

/// A query admitted into the dispatch queue.
struct Job {
    spectrum: Spectrum,
    opts: QueryOptions,
    req_id: u64,
    reply: Sender<Reply>,
    gate: Arc<ConnGate>,
}

/// `(release_gate_slot, response)` — dispatcher replies release the slot
/// their job held; reader-direct replies (pong, errors) never held one.
type Reply = (bool, Response);

/// Remotely stops a running [`Server`]: sets the stop flag and nudges the
/// acceptor awake with a throwaway connection.
#[derive(Clone)]
pub struct ShutdownHandle {
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl ShutdownHandle {
    /// Begins graceful shutdown: no new queries are admitted, in-flight
    /// queries drain and are answered, then [`Server::run`] returns.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the acceptor if it is blocked in accept().
        let _ = TcpStream::connect(self.addr);
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }
}

/// A bound TCP server around a [`ResidentEngine`]. Construct with
/// [`Server::bind`], then call [`Server::run`] (which blocks until
/// shutdown and returns the run's [`ServeStats`]).
pub struct Server {
    engine: Arc<ResidentEngine>,
    listener: TcpListener,
    addr: SocketAddr,
    cfg: ServeConfig,
    stop: Arc<AtomicBool>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) over an
    /// already-opened engine. Binding after the engine opens means a bad
    /// index path can never produce a half-started server: the listener
    /// does not exist until the index fully validated.
    pub fn bind(engine: ResidentEngine, addr: &str, cfg: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            engine: Arc::new(engine),
            listener,
            addr,
            cfg,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (resolves the actual port for `:0` binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle that can stop this server from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            stop: Arc::clone(&self.stop),
            addr: self.addr,
        }
    }

    /// Runs the accept → dispatch → reply loops until shutdown, then
    /// drains and joins every thread. Returns the run's counters.
    pub fn run(self) -> io::Result<ServeStats> {
        let Server {
            engine,
            listener,
            addr,
            cfg,
            stop,
        } = self;
        let stats = Arc::new(StatsInner::default());
        let (job_tx, job_rx) = mpsc::sync_channel::<Job>(cfg.max_inflight.max(1));

        let dispatcher = {
            let engine = Arc::clone(&engine);
            let stats = Arc::clone(&stats);
            thread::spawn(move || dispatch_loop(&engine, &job_rx, cfg, &stats))
        };

        let mut conns: Vec<thread::JoinHandle<()>> = Vec::new();
        for incoming in listener.incoming() {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let stream = match incoming {
                Ok(s) => s,
                Err(_) => continue,
            };
            stats.connections.fetch_add(1, Ordering::SeqCst);
            let engine = Arc::clone(&engine);
            let job_tx = job_tx.clone();
            let stop = Arc::clone(&stop);
            let stats = Arc::clone(&stats);
            conns.push(thread::spawn(move || {
                handle_connection(stream, &engine, &job_tx, &stop, addr, cfg, &stats);
            }));
        }
        drop(listener);
        drop(job_tx);
        for h in conns {
            let _ = h.join();
        }
        let _ = dispatcher.join();
        Ok(stats.snapshot())
    }
}

/// Dispatcher: pulls admitted jobs, opportunistically batches up to
/// `max_wave` of them, searches the wave, and queues one reply per job.
/// Exits when every job sender (acceptor + connections) is gone.
fn dispatch_loop(
    engine: &ResidentEngine,
    job_rx: &Receiver<Job>,
    cfg: ServeConfig,
    stats: &StatsInner,
) {
    while let Ok(first) = job_rx.recv() {
        let mut wave: Vec<(Spectrum, QueryOptions)> = Vec::new();
        let mut meta: Vec<(u64, Sender<Reply>, Arc<ConnGate>)> = Vec::new();
        let push = |j: Job, wave: &mut Vec<_>, meta: &mut Vec<_>| {
            wave.push((j.spectrum, j.opts));
            meta.push((j.req_id, j.reply, j.gate));
        };
        push(first, &mut wave, &mut meta);
        while wave.len() < cfg.max_wave.max(1) {
            match job_rx.try_recv() {
                Ok(j) => push(j, &mut wave, &mut meta),
                Err(_) => break,
            }
        }
        // A generation store reopens the latest generation between
        // waves (one small CURRENT read when nothing changed) — connections
        // never drop, and only chunks whose content hashes moved re-fault.
        // A transient error (e.g. a concurrent gc) leaves the wave on the
        // already-loaded generation; the next wave retries.
        let _ = engine.refresh();
        let deadline = cfg.wave_deadline.map(|d| std::time::Instant::now() + d);
        let results = engine.search_wave_deadline(&wave, cfg.threads.max(1), deadline);
        for ((req_id, reply, _gate), result) in meta.into_iter().zip(results) {
            let response = match result {
                Some(Ok(r)) => Response::Result {
                    req_id,
                    psms: r
                        .psms
                        .iter()
                        .map(|p| (p.peptide, p.modform, p.shared_peaks, p.score))
                        .collect(),
                    flags: 0,
                },
                Some(Err(e)) => Response::Error {
                    req_id,
                    code: proto::CODE_SEARCH_FAILED,
                    message: e.to_string(),
                },
                // Deadline expired before this query was searched: answer
                // *now* with a flagged partial result instead of making
                // every client in the wave wait out the stall.
                None => {
                    stats.degraded.fetch_add(1, Ordering::SeqCst);
                    Response::Result {
                        req_id,
                        psms: Vec::new(),
                        flags: proto::RESULT_FLAG_DEGRADED,
                    }
                }
            };
            // A dead connection dropped its receiver; its gate no longer
            // has waiters, so dropping the reply is safe and must not
            // disturb other connections.
            let _ = reply.send((true, response));
        }
    }
}

/// Outcome of one interruptible frame read (see
/// [`read_frame_interruptible`]).
enum ReadOutcome {
    /// A complete frame payload arrived.
    Frame(Vec<u8>),
    /// Clean end: EOF at a frame boundary, or shutdown while idle.
    Closed,
    /// No frame *started* within the server's idle timeout — the caller
    /// reaps the connection with a clean `Bye`.
    IdleExpired,
}

/// What one interruptible exact-read step produced.
enum Step {
    /// The buffer is full.
    Got,
    /// Clean EOF at a frame boundary (or shutdown while idle).
    CleanEof,
    /// Idle timeout expired before the first byte of a frame.
    Idle,
}

/// Reads one frame, returning to check the stop flag every
/// [`POLL_INTERVAL`] while idle. With an `idle_timeout`, a connection
/// that does not *start* a frame within it yields
/// [`ReadOutcome::IdleExpired`]; mid-frame bytes reset nothing — the
/// timeout only ever fires between frames.
fn read_frame_interruptible(
    stream: &mut TcpStream,
    stop: &AtomicBool,
    idle_timeout: Option<Duration>,
) -> Result<ReadOutcome, ProtoError> {
    let mut patience = MID_FRAME_PATIENCE;
    // Idle budget in polls; the read timeout below ticks one poll each.
    let mut idle_polls =
        idle_timeout.map(|t| (t.as_millis() / POLL_INTERVAL.as_millis()).max(1) as u64);
    let mut read_exact_interruptible =
        |buf: &mut [u8], stream: &mut TcpStream, started: &mut bool| -> Result<Step, ProtoError> {
            let mut got = 0;
            while got < buf.len() {
                match stream.read(&mut buf[got..]) {
                    Ok(0) => {
                        return if got == 0 && !*started {
                            Ok(Step::CleanEof) // clean EOF at a frame boundary
                        } else {
                            Err(ProtoError::Truncated)
                        };
                    }
                    Ok(n) => {
                        got += n;
                        *started = true;
                    }
                    Err(e)
                        if e.kind() == io::ErrorKind::WouldBlock
                            || e.kind() == io::ErrorKind::TimedOut =>
                    {
                        if stop.load(Ordering::SeqCst) {
                            if !*started {
                                return Ok(Step::CleanEof); // idle at shutdown
                            }
                            patience = patience.saturating_sub(1);
                            if patience == 0 {
                                return Err(ProtoError::Truncated);
                            }
                        } else if !*started {
                            if let Some(left) = idle_polls.as_mut() {
                                *left = left.saturating_sub(1);
                                if *left == 0 {
                                    return Ok(Step::Idle);
                                }
                            }
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(ProtoError::Io(e)),
                }
            }
            Ok(Step::Got)
        };

    let mut started = false;
    let mut hdr = [0u8; 4];
    match read_exact_interruptible(&mut hdr, stream, &mut started)? {
        Step::Got => {}
        Step::CleanEof => return Ok(ReadOutcome::Closed),
        Step::Idle => return Ok(ReadOutcome::IdleExpired),
    }
    let len = u32::from_le_bytes(hdr);
    if len == 0 {
        return Err(ProtoError::Malformed("zero-length frame"));
    }
    if len > proto::MAX_FRAME_LEN {
        return Err(ProtoError::Oversized { declared: len });
    }
    let len = len as usize;
    // Preallocation capped exactly like the blocking reader: a forged
    // length buys at most PREALLOC_CAP up front.
    let mut payload = Vec::with_capacity(len.min(proto::PREALLOC_CAP));
    let mut chunk = [0u8; 8192];
    while payload.len() < len {
        let want = (len - payload.len()).min(chunk.len());
        match read_exact_interruptible(&mut chunk[..want], stream, &mut started)? {
            Step::Got => {}
            // `started` is true by now, so these arms are unreachable in
            // practice; treat either as a truncated frame defensively.
            Step::CleanEof | Step::Idle => return Err(ProtoError::Truncated),
        }
        payload.extend_from_slice(&chunk[..want]);
    }
    Ok(ReadOutcome::Frame(payload))
}

/// Socket options of every accepted connection. `TCP_NODELAY`: replies are
/// small frames a client is waiting on, and under Nagle a reply written
/// while the previous one is unacknowledged sits in the kernel until the
/// client's delayed ACK arrives — which pinned a paced client's median
/// latency to one pacing period (the cluster links in `tcp.rs` set it for
/// the same reason). The writer thread flushes once per drained reply queue,
/// so disabling Nagle does not mean a segment per frame. The read timeout is
/// what lets the reader poll the stop flag and the idle clock; the write
/// timeout ([`WRITE_TIMEOUT`]) is what frees the writer from a client that
/// stopped reading.
fn configure_accepted(stream: &TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))
}

/// One connection: a reader loop on this thread plus a writer thread, so
/// responses stream back while the reader keeps admitting queries.
fn handle_connection(
    mut stream: TcpStream,
    engine: &Arc<ResidentEngine>,
    job_tx: &SyncSender<Job>,
    stop: &Arc<AtomicBool>,
    addr: SocketAddr,
    cfg: ServeConfig,
    stats: &Arc<StatsInner>,
) {
    if configure_accepted(&stream).is_err() {
        return;
    }
    let writer_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let (reply_tx, reply_rx) = mpsc::channel::<Reply>();
    let gate = Arc::new(ConnGate::new());

    let writer = {
        let gate = Arc::clone(&gate);
        let stats = Arc::clone(stats);
        thread::spawn(move || {
            let mut sink = BufWriter::new(writer_stream);
            let mut broken = false;
            // Keep draining after a write error: gate slots must still be
            // released so the dispatcher and reader are never wedged by
            // one dead client.
            while let Ok(first) = reply_rx.recv() {
                // Frame everything already queued, then flush once: a
                // wave's replies to this connection leave in one write (one
                // segment, one client wake-up) instead of one per frame —
                // and with `TCP_NODELAY` set, the flush is when they leave.
                let (mut framed, was_broken) = (0u64, broken);
                for (release, response) in std::iter::once(first).chain(reply_rx.try_iter()) {
                    if release {
                        gate.release();
                    }
                    if !broken {
                        match proto::write_frame(&mut sink, &response.encode()) {
                            Ok(()) => framed += 1,
                            Err(_) => broken = true,
                        }
                    }
                }
                if !broken {
                    match sink.flush() {
                        Ok(()) => {
                            stats.responses.fetch_add(framed, Ordering::SeqCst);
                        }
                        Err(_) => broken = true,
                    }
                }
                if broken && !was_broken {
                    // A failed or timed-out write may have left half a
                    // frame: close the socket, so the client sees the end,
                    // the reader stops admitting, and dropping `sink` does
                    // not wait out another timeout flushing the rest.
                    stats.write_failures.fetch_add(1, Ordering::SeqCst);
                    let _ = sink.get_ref().shutdown(Shutdown::Both);
                }
            }
        })
    };

    loop {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let frame = match read_frame_interruptible(&mut stream, stop, cfg.idle_timeout) {
            Ok(ReadOutcome::Frame(f)) => f,
            Ok(ReadOutcome::Closed) => break,
            Ok(ReadOutcome::IdleExpired) => {
                // Reap: tell the client why with a clean Bye, then close.
                let _ = reply_tx.send((false, Response::Bye { req_id: 0 }));
                break;
            }
            Err(e) => {
                stats.protocol_errors.fetch_add(1, Ordering::SeqCst);
                let _ = reply_tx.send((
                    false,
                    Response::Error {
                        req_id: 0,
                        code: e.code(),
                        message: e.to_string(),
                    },
                ));
                break; // framing is lost; close this connection only
            }
        };
        let request = match Request::decode(&frame) {
            Ok(r) => r,
            Err(e) => {
                stats.protocol_errors.fetch_add(1, Ordering::SeqCst);
                let _ = reply_tx.send((
                    false,
                    Response::Error {
                        req_id: 0,
                        code: e.code(),
                        message: e.to_string(),
                    },
                ));
                break;
            }
        };
        stats.requests.fetch_add(1, Ordering::SeqCst);
        match request {
            Request::Ping { req_id } => {
                let _ = reply_tx.send((
                    false,
                    Response::Pong {
                        req_id,
                        protocol_version: proto::PROTOCOL_VERSION,
                        num_chunks: engine.num_chunks() as u32,
                    },
                ));
            }
            Request::Shutdown { req_id } => {
                stop.store(true, Ordering::SeqCst);
                let _ = TcpStream::connect(addr); // wake the acceptor
                                                  // Drain this connection's in-flight queries so Bye is
                                                  // the final frame the client sees.
                gate.wait_idle(MID_FRAME_PATIENCE * 30);
                let _ = reply_tx.send((false, Response::Bye { req_id }));
                break;
            }
            Request::Query {
                req_id,
                full_scan,
                tolerance,
                top_k,
                scan,
                precursor_mz,
                charge,
                peaks,
            } => {
                if let Some(t) = tolerance {
                    if t.is_nan() || t <= 0.0 {
                        let _ = reply_tx.send((
                            false,
                            Response::Error {
                                req_id,
                                code: proto::CODE_BAD_REQUEST,
                                message: format!("precursor tolerance must be positive (got {t})"),
                            },
                        ));
                        continue;
                    }
                }
                if !gate.acquire(cfg.per_conn_inflight.max(1), stop) {
                    let _ = reply_tx.send((
                        false,
                        Response::Error {
                            req_id,
                            code: proto::CODE_SHUTTING_DOWN,
                            message: "server is shutting down".into(),
                        },
                    ));
                    break;
                }
                let raw = Spectrum::new(
                    scan,
                    precursor_mz,
                    charge,
                    peaks
                        .iter()
                        .map(|&(mz, intensity)| Peak { mz, intensity })
                        .collect(),
                );
                let job = Job {
                    spectrum: engine.preprocess(&raw),
                    opts: QueryOptions {
                        scan_mode: if full_scan {
                            ScanMode::FullScan
                        } else {
                            ScanMode::Auto
                        },
                        top_k: top_k.map(|k| k as usize),
                        precursor_tolerance: tolerance,
                    },
                    req_id,
                    reply: reply_tx.clone(),
                    gate: Arc::clone(&gate),
                };
                if job_tx.send(job).is_err() {
                    gate.release();
                    let _ = reply_tx.send((
                        false,
                        Response::Error {
                            req_id,
                            code: proto::CODE_SHUTTING_DOWN,
                            message: "server is shutting down".into(),
                        },
                    ));
                    break;
                }
            }
        }
    }
    drop(reply_tx);
    let _ = writer.join();
}

/// Runs the serve protocol sequentially over an arbitrary byte stream —
/// the stdin/stdout transport (`lbe serve --stdin`), also handy in tests
/// with in-memory readers.
///
/// Requests are answered strictly in order; EOF at a frame boundary (or a
/// [`Request::Shutdown`]) ends the session cleanly. A protocol error is
/// answered with an error frame and ends the session (framing is lost).
///
/// [`Request::Shutdown`]: proto::Request::Shutdown
pub fn serve_stdin<R: Read, W: Write>(
    engine: &ResidentEngine,
    input: &mut R,
    output: &mut W,
) -> io::Result<ServeStats> {
    let mut stats = ServeStats {
        connections: 1,
        ..Default::default()
    };
    let mut sink = BufWriter::new(output);
    let respond = |sink: &mut BufWriter<&mut W>,
                   stats: &mut ServeStats,
                   response: &Response|
     -> io::Result<()> {
        proto::write_frame(sink, &response.encode())?;
        sink.flush()?;
        stats.responses += 1;
        Ok(())
    };
    loop {
        let frame = match proto::read_frame(input) {
            Ok(Some(f)) => f,
            Ok(None) => break,
            Err(ProtoError::Io(e)) => return Err(e),
            Err(e) => {
                stats.protocol_errors += 1;
                respond(
                    &mut sink,
                    &mut stats,
                    &Response::Error {
                        req_id: 0,
                        code: e.code(),
                        message: e.to_string(),
                    },
                )?;
                break;
            }
        };
        let request = match Request::decode(&frame) {
            Ok(r) => r,
            Err(e) => {
                stats.protocol_errors += 1;
                respond(
                    &mut sink,
                    &mut stats,
                    &Response::Error {
                        req_id: 0,
                        code: e.code(),
                        message: e.to_string(),
                    },
                )?;
                break;
            }
        };
        stats.requests += 1;
        match request {
            Request::Ping { req_id } => {
                respond(
                    &mut sink,
                    &mut stats,
                    &Response::Pong {
                        req_id,
                        protocol_version: proto::PROTOCOL_VERSION,
                        num_chunks: engine.num_chunks() as u32,
                    },
                )?;
            }
            Request::Shutdown { req_id } => {
                respond(&mut sink, &mut stats, &Response::Bye { req_id })?;
                break;
            }
            Request::Query {
                req_id,
                full_scan,
                tolerance,
                top_k,
                scan,
                precursor_mz,
                charge,
                peaks,
            } => {
                if let Some(t) = tolerance {
                    if t.is_nan() || t <= 0.0 {
                        respond(
                            &mut sink,
                            &mut stats,
                            &Response::Error {
                                req_id,
                                code: proto::CODE_BAD_REQUEST,
                                message: format!("precursor tolerance must be positive (got {t})"),
                            },
                        )?;
                        continue;
                    }
                }
                let raw = Spectrum::new(
                    scan,
                    precursor_mz,
                    charge,
                    peaks
                        .iter()
                        .map(|&(mz, intensity)| Peak { mz, intensity })
                        .collect(),
                );
                let opts = QueryOptions {
                    scan_mode: if full_scan {
                        ScanMode::FullScan
                    } else {
                        ScanMode::Auto
                    },
                    top_k: top_k.map(|k| k as usize),
                    precursor_tolerance: tolerance,
                };
                let response = match engine.search_one(&engine.preprocess(&raw), &opts) {
                    Ok(r) => Response::Result {
                        req_id,
                        psms: r
                            .psms
                            .iter()
                            .map(|p| (p.peptide, p.modform, p.shared_peaks, p.score))
                            .collect(),
                        flags: 0,
                    },
                    Err(e) => Response::Error {
                        req_id,
                        code: proto::CODE_SEARCH_FAILED,
                        message: e.to_string(),
                    },
                };
                respond(&mut sink, &mut stats, &response)?;
            }
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepted_sockets_get_nodelay_and_the_poll_read_timeout() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        assert!(!accepted.nodelay().unwrap(), "Nagle is the OS default");
        assert_eq!(accepted.read_timeout().unwrap(), None);
        assert_eq!(accepted.write_timeout().unwrap(), None);
        configure_accepted(&accepted).unwrap();
        assert!(accepted.nodelay().unwrap());
        // The kernel keeps a timeout in clock ticks: 50 ms reads back as
        // 52 ms at 250 Hz.
        let ticks = |set: Duration, got: Option<Duration>| {
            let got = got.expect("a timeout");
            assert!(
                (set..set + Duration::from_millis(10)).contains(&got),
                "{got:?}"
            );
        };
        ticks(POLL_INTERVAL, accepted.read_timeout().unwrap());
        ticks(WRITE_TIMEOUT, accepted.write_timeout().unwrap());
        // The options belong to the socket, so the writer thread's clone of
        // the stream has them too.
        let writer = accepted.try_clone().unwrap();
        assert!(writer.nodelay().unwrap());
        ticks(WRITE_TIMEOUT, writer.write_timeout().unwrap());
        drop(client);
    }
}
