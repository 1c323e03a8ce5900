//! The load generator for the served workloads: a client of the program's
//! wire protocol (`lbe_core::serve::proto`) with an open-loop (paced) and
//! a closed-loop (windowed) mode, plus the handle that runs `Server` on a
//! thread of its own.
//!
//! Open loop: requests go out on a fixed schedule whatever the server
//! does — independent users — and each is timed from when it was *due*,
//! so a stall is charged to every request it delays. Closed loop: each
//! connection keeps `window` requests in flight and sends the next only
//! when one completes — callers that wait for replies.

use crate::trace::{SpanId, Tracer};
use lbe_core::serve::proto::{self, Request, Response, WirePsm};
use lbe_core::serve::{ResidentEngine, ServeConfig, ServeStats, Server, ShutdownHandle};
use lbe_index::{Psm, QueryOptions};
use lbe_spectra::spectrum::Spectrum;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a client waits for one response before giving the rest up as
/// failed (a hung server must fail the run, not hang it).
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(20);

/// One query the generator can send, with the answer it must get.
#[derive(Debug, Clone)]
pub struct Job {
    /// Raw (un-preprocessed) spectrum: the server preprocesses.
    pub raw: Spectrum,
    /// Per-request precursor tolerance in Da (`INFINITY` = open).
    pub tolerance: f64,
    /// What an all-resident in-process engine answers.
    pub expected: Vec<WirePsm>,
}

impl Job {
    /// Builds the job and computes its expected answer on `reference`.
    pub fn new(raw: Spectrum, tolerance: f64, reference: &ResidentEngine) -> io::Result<Job> {
        let result = reference.search_one(&reference.preprocess(&raw), &options(tolerance))?;
        Ok(Job {
            raw,
            tolerance,
            expected: wire_psms(&result.psms),
        })
    }

    /// The framed QUERY request carrying `req_id`.
    pub fn frame(&self, req_id: u64) -> Vec<u8> {
        let payload = Request::Query {
            req_id,
            full_scan: false,
            tolerance: Some(self.tolerance),
            top_k: None,
            scan: self.raw.scan,
            precursor_mz: self.raw.precursor_mz,
            charge: self.raw.charge,
            peaks: self.raw.peaks.iter().map(|p| (p.mz, p.intensity)).collect(),
        }
        .encode();
        let mut frame = Vec::with_capacity(payload.len() + 4);
        proto::write_frame(&mut frame, &payload).expect("writing to a Vec cannot fail");
        frame
    }
}

/// Ranked PSMs as they travel on the wire (and as every expected answer
/// here is kept): `(peptide, modform, shared_peaks, score)`.
pub fn wire_psms(psms: &[Psm]) -> Vec<WirePsm> {
    psms.iter()
        .map(|p| (p.peptide, p.modform, p.shared_peaks, p.score))
        .collect()
}

/// The query options a job's tolerance stands for.
pub fn options(tolerance: f64) -> QueryOptions {
    QueryOptions {
        precursor_tolerance: Some(tolerance),
        ..Default::default()
    }
}

/// `true` if `response` is the complete, unflagged, correct answer to `job`.
fn answers(response: &Response, job: &Job) -> bool {
    matches!(response, Response::Result { psms, flags: 0, .. } if *psms == job.expected)
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
    Ok(stream)
}

fn read_response(reader: &mut BufReader<TcpStream>) -> Option<Response> {
    let payload = proto::read_frame(reader).ok()??;
    Response::decode(&payload).ok()
}

/// A fixed-rate send schedule. Due times are computed from the request
/// index, never accumulated, so they cannot drift; a request's latency is
/// counted from its due time, not from when the generator got round to
/// sending it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoop {
    pub rate_per_s: f64,
}

impl OpenLoop {
    /// Nanoseconds after the start at which request `i` is due.
    pub fn due_ns(&self, i: u64) -> u64 {
        (i as f64 * 1e9 / self.rate_per_s).round() as u64
    }

    /// Requests due within `seconds` (at least one).
    pub fn count_for(&self, seconds: f64) -> u64 {
        ((seconds * self.rate_per_s).floor() as u64).max(1)
    }

    /// How late the generator was sending request `i`, in ns.
    pub fn lag_ns(&self, i: u64, sent_ns: u64) -> u64 {
        sent_ns.saturating_sub(self.due_ns(i))
    }

    /// Request `i`'s latency in ns given when its last response byte
    /// arrived: measured from the due time.
    pub fn latency_ns(&self, i: u64, done_ns: u64) -> u64 {
        done_ns.saturating_sub(self.due_ns(i))
    }
}

/// What one paced step measured.
#[derive(Debug, Clone, Default)]
pub struct PacedResult {
    /// Per-request latency from due time, in send order, for requests
    /// answered correctly.
    pub latency_ms: Vec<f64>,
    /// Per-request generator lag (sent − due).
    pub lag_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

impl PacedResult {
    /// `true` if latency kept rising through the step: the last quarter's
    /// median more than twice the first quarter's (plus 1 ms of slack) —
    /// a queue that grows, not a rate the server sustains.
    pub fn backlog_grew(&self) -> bool {
        let n = self.latency_ms.len();
        if n < 8 {
            return true;
        }
        let first = crate::stats::median(&self.latency_ms[..n / 4]);
        let last = crate::stats::median(&self.latency_ms[n - n / 4..]);
        last > 2.0 * first + 1.0
    }
}

/// Offers `pool` (cycled) at `rate_per_s` for `seconds` over one
/// connection: a sender thread keeps the schedule, this thread reads.
/// Request `i` travels as `id_base + i`, so a workload that calls this
/// more than once keeps its request identifiers apart.
pub fn run_paced(
    addr: SocketAddr,
    pool: &[Job],
    rate_per_s: f64,
    seconds: f64,
    id_base: u64,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> io::Result<PacedResult> {
    let schedule = OpenLoop { rate_per_s };
    let total = schedule.count_for(seconds);
    let stream = connect(addr)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let start = Instant::now();

    let mut result = PacedResult {
        attempted: total,
        ..Default::default()
    };
    let lag_ms = std::thread::scope(|scope| -> io::Result<Vec<f64>> {
        let sender = scope.spawn(move || -> io::Result<Vec<f64>> {
            let mut lag_ms = Vec::with_capacity(total as usize);
            for i in 0..total {
                let due = start + Duration::from_nanos(schedule.due_ns(i));
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let sent_ns = start.elapsed().as_nanos() as u64;
                lag_ms.push(schedule.lag_ns(i, sent_ns) as f64 / 1e6);
                writer.write_all(&pool[i as usize % pool.len()].frame(id_base + i))?;
            }
            Ok(lag_ms)
        });
        let mut answered = 0u64;
        let mut latency: Vec<Option<f64>> = vec![None; total as usize];
        while answered < total {
            let Some(response) = read_response(&mut reader) else {
                break; // timeout or closed: the rest stay failed
            };
            let done_ns = start.elapsed().as_nanos() as u64;
            answered += 1;
            let Response::Result { req_id, .. } = response else {
                continue;
            };
            let Some(i) = req_id.checked_sub(id_base) else {
                continue;
            };
            let Some(slot) = latency.get_mut(i as usize) else {
                continue;
            };
            if answers(&response, &pool[i as usize % pool.len()]) {
                let ns = schedule.latency_ns(i, done_ns);
                *slot = Some(ns as f64 / 1e6);
                let due = tracer.ns_of(start) + schedule.due_ns(i);
                tracer.request("core.serve.request", parent, req_id + 1, due, due + ns);
            }
        }
        result.latency_ms = latency.into_iter().flatten().collect();
        sender.join().expect("sender thread panicked")
    })?;
    result.failed = total - result.latency_ms.len() as u64;
    result.lag_ms = lag_ms;
    Ok(result)
}

/// One completed request of a closed-loop connection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// Position in this connection's send order.
    pub seq: u64,
    /// Nanoseconds after the phase start at which the response arrived.
    pub done_ns: u64,
    /// Send-to-last-byte latency.
    pub latency_ms: f64,
    pub correct: bool,
}

/// Closed loop: `connections` connections (one thread each), each keeping
/// `window` requests in flight for `seconds`, then draining. Connection
/// `c` starts at `pool[c * pool.len() / connections]` and cycles. A
/// connection keeps sending until `seconds` have passed *and* it has sent
/// `min_per_conn` requests. Request identifiers are `id_base` plus the
/// connection number in bits 40–47 and the send position below. Returns
/// each connection's completions in arrival order.
#[allow(clippy::too_many_arguments)]
pub fn run_closed(
    addr: SocketAddr,
    pool: &[Job],
    connections: usize,
    window: usize,
    seconds: f64,
    min_per_conn: u64,
    id_base: u64,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> io::Result<Vec<Vec<Completion>>> {
    let start = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                scope.spawn(move || -> io::Result<Vec<Completion>> {
                    let stream = connect(addr)?;
                    let mut writer = stream.try_clone()?;
                    let mut reader = BufReader::new(stream);
                    let offset = c * pool.len() / connections;
                    let job = |seq: u64| &pool[(offset + seq as usize) % pool.len()];
                    let req_id = |seq: u64| id_base + (((c as u64 + 1) << 40) | seq);
                    // Send times of the requests in flight, by seq modulo
                    // the window (responses come back in order per
                    // connection, but nothing here depends on it).
                    let mut sent_ns = vec![0u64; window];
                    let mut next = 0u64;
                    let mut done = Vec::new();
                    let mut send = |seq: u64, sent_ns: &mut Vec<u64>| -> io::Result<()> {
                        sent_ns[seq as usize % window] = start.elapsed().as_nanos() as u64;
                        writer.write_all(&job(seq).frame(req_id(seq)))
                    };
                    while next < window as u64 {
                        send(next, &mut sent_ns)?;
                        next += 1;
                    }
                    let mut in_flight = next;
                    while in_flight > 0 {
                        let Some(response) = read_response(&mut reader) else {
                            break;
                        };
                        let done_ns = start.elapsed().as_nanos() as u64;
                        in_flight -= 1;
                        let seq = match &response {
                            Response::Result { req_id, .. } | Response::Error { req_id, .. } => {
                                req_id.wrapping_sub(id_base) & ((1 << 40) - 1)
                            }
                            _ => continue,
                        };
                        let began = sent_ns[seq as usize % window];
                        done.push(Completion {
                            seq,
                            done_ns,
                            latency_ms: done_ns.saturating_sub(began) as f64 / 1e6,
                            correct: answers(&response, job(seq)),
                        });
                        let epoch = tracer.ns_of(start);
                        tracer.request(
                            "core.serve.request",
                            parent,
                            req_id(seq),
                            epoch + began,
                            epoch + done_ns,
                        );
                        if start.elapsed().as_secs_f64() < seconds || next < min_per_conn {
                            send(next, &mut sent_ns)?;
                            next += 1;
                            in_flight += 1;
                        }
                    }
                    // Requests sent but never answered are failures.
                    for seq in done.len() as u64..next {
                        done.push(Completion {
                            seq,
                            done_ns: u64::MAX,
                            latency_ms: f64::INFINITY,
                            correct: false,
                        });
                    }
                    Ok(done)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// A `Server` running on its own thread.
pub struct RunningServer {
    pub addr: SocketAddr,
    handle: ShutdownHandle,
    join: JoinHandle<io::Result<ServeStats>>,
}

/// The program's path from an index on disk to a bound (not yet running)
/// server: `ResidentEngine::open` under full validation, then `bind` on an
/// ephemeral loopback port. This is what `setup_s` times on `serve_*`.
pub fn open_and_bind(
    path: &std::path::Path,
    max_resident: usize,
    cfg: ServeConfig,
) -> io::Result<Server> {
    Server::bind(
        ResidentEngine::open(path, max_resident)?,
        "127.0.0.1:0",
        cfg,
    )
}

impl RunningServer {
    /// Starts `server` on a thread of its own.
    pub fn spawn(server: Server) -> RunningServer {
        RunningServer {
            addr: server.local_addr(),
            handle: server.shutdown_handle(),
            join: std::thread::spawn(move || server.run()),
        }
    }

    /// Graceful shutdown; returns the run's counters once every server
    /// thread has been joined.
    pub fn stop(self) -> io::Result<ServeStats> {
        self.handle.shutdown();
        self.join.join().expect("server thread panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_do_not_drift() {
        let s = OpenLoop { rate_per_s: 3000.0 };
        assert_eq!(s.due_ns(0), 0);
        // 3000/s: request 3000·k is due at exactly k seconds, however many
        // rounding steps lie between.
        assert_eq!(s.due_ns(3000), 1_000_000_000);
        assert_eq!(s.due_ns(3_000_000), 1_000_000_000_000);
        assert!((s.due_ns(1) as i64 - 333_333).abs() <= 1);
        assert_eq!(s.count_for(2.0), 6000);
        assert_eq!(s.count_for(0.0001), 1);
    }

    #[test]
    fn latency_counts_from_due_time_not_send_time() {
        let s = OpenLoop { rate_per_s: 1000.0 };
        // Request 5 is due at 5 ms. The generator stalled and sent it at
        // 9 ms; the answer arrived at 10 ms. The caller waited 5 ms, of
        // which 4 ms is generator lag — not the 1 ms a send-time clock
        // would claim.
        assert_eq!(s.due_ns(5), 5_000_000);
        assert_eq!(s.lag_ns(5, 9_000_000), 4_000_000);
        assert_eq!(s.latency_ns(5, 10_000_000), 5_000_000);
        // An early send has no lag.
        assert_eq!(s.lag_ns(5, 4_999_000), 0);
    }

    #[test]
    fn growing_backlog_is_recognised() {
        let flat = PacedResult {
            latency_ms: vec![1.0; 100],
            ..Default::default()
        };
        assert!(!flat.backlog_grew());
        let ramp = PacedResult {
            latency_ms: (0..100).map(|i| 1.0 + i as f64).collect(),
            ..Default::default()
        };
        assert!(ramp.backlog_grew());
        assert!(
            PacedResult::default().backlog_grew(),
            "no answers is not sustained"
        );
    }
}
