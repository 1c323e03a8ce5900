//! Point-to-point messaging between ranks.
//!
//! Semantics mirror MPI's matched send/receive: a receive names its source
//! rank and tag; messages from other `(src, tag)` pairs are buffered until a
//! matching receive posts. Payloads are typed end-to-end: every backend
//! carries the same [`crate::wire`]-encoded bytes, and a receive that names
//! the wrong type is a typed [`CommError::Codec`].
//!
//! ## The frame check
//!
//! Each frame is `[seq u32 LE][check u32 LE][encode_msg bytes]`. `seq`
//! counts the sends on one `(dest, tag)` pair from 0, and `check` is
//! FNV-1a-32's step taken a `u32` word at a time over `seq` and the
//! message (any single changed byte changes it). The receiver verifies
//! both before it decodes:
//!
//! * a checksum mismatch is a [`CommError::Codec`] (the frame was
//!   corrupted in flight);
//! * a `seq` below the expected one is a duplicate, dropped while the
//!   receive goes on waiting within its deadline;
//! * a `seq` above the expected one means a frame on that `(src, tag)` was
//!   lost (a corrupted one counts as lost), a [`CommError::Codec`] rather
//!   than the next frame read in its place.
//!
//! The communicator itself is a thin handle over a [`Transport`]: all
//! policy that engine code sees — typed messaging, the frame check,
//! timeouts with rank/tag context, virtual-vs-wall time — lives here, so
//! SPMD programs run unchanged on either backend.

use crate::clock::{CommCostModel, VirtualClock};
use crate::retry::RetryPolicy;
use crate::transport::{Frame, Transport};
use crate::wire::{self, Wire, WireError};
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::fmt;
use std::time::{Duration, Instant};

/// Message tag, as in MPI.
pub type Tag = u32;

/// Errors surfaced by the communicator, always carrying enough rank/tag
/// context to locate the failing exchange in an SPMD program.
#[derive(Debug)]
pub enum CommError {
    /// A blocking receive waited longer than the configured wall-clock
    /// timeout — a deadlock, or a dead/stalled peer.
    Timeout {
        /// Receiving rank.
        rank: usize,
        /// Source rank the receive was waiting on.
        src: usize,
        /// Tag the receive was waiting on.
        tag: Tag,
    },
    /// The peer went away: its thread exited (sim) or its socket closed
    /// (wire backends).
    Disconnected {
        /// Rank observing the failure.
        rank: usize,
        /// The peer that disappeared.
        peer: usize,
        /// Tag of the exchange in progress, when one was.
        tag: Option<Tag>,
    },
    /// A socket-level failure on a wire backend.
    Io {
        /// Rank observing the failure.
        rank: usize,
        /// Peer on the other end of the socket.
        peer: usize,
        /// Tag of the exchange in progress, when one was.
        tag: Option<Tag>,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// Received bytes failed to decode as the requested type.
    Codec {
        /// Receiving rank.
        rank: usize,
        /// Source rank of the bad message.
        src: usize,
        /// Tag of the bad message.
        tag: Tag,
        /// The decode failure.
        err: WireError,
    },
    /// Cluster startup failed before any exchange (bind, handshake,
    /// rendezvous).
    Setup {
        /// Rank observing the failure.
        rank: usize,
        /// What went wrong.
        detail: String,
    },
}

impl CommError {
    /// Transient-vs-fatal classification, the contract every retry site
    /// ([`Communicator`] point-to-point ops, the `try_*` collective cores
    /// built on them, and [`crate::TcpTransport`] socket healing) follows:
    ///
    /// | Variant        | Class     | Rationale                                          |
    /// |----------------|-----------|----------------------------------------------------|
    /// | `Timeout`      | transient | peer may be slow/stalled; waiting again can succeed |
    /// | `Io`           | transient | socket hiccup; a reconnect can heal it             |
    /// | `Disconnected` | fatal     | surfaced only after reconnect attempts exhausted   |
    /// | `Codec`        | fatal     | the bytes are wrong; retrying re-reads the same bytes |
    /// | `Setup`        | fatal     | the cluster never formed; retrying is a new launch |
    pub fn is_transient(&self) -> bool {
        matches!(self, CommError::Timeout { .. } | CommError::Io { .. })
    }
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::Timeout { rank, src, tag } => write!(
                f,
                "rank {rank}: receive from rank {src} tag {tag} timed out (deadlock?)"
            ),
            CommError::Disconnected { rank, peer, tag } => match tag {
                Some(tag) => write!(
                    f,
                    "rank {rank}: peer rank {peer} disconnected during exchange tag {tag} (peer died?)"
                ),
                None => write!(f, "rank {rank}: peer rank {peer} disconnected (peer died?)"),
            },
            CommError::Io {
                rank,
                peer,
                tag,
                source,
            } => match tag {
                Some(tag) => write!(
                    f,
                    "rank {rank}: I/O error with rank {peer} during exchange tag {tag}: {source}"
                ),
                None => write!(f, "rank {rank}: I/O error with rank {peer}: {source}"),
            },
            CommError::Codec {
                rank,
                src,
                tag,
                err,
            } => write!(
                f,
                "rank {rank}: bad message from rank {src} tag {tag}: {err}"
            ),
            CommError::Setup { rank, detail } => {
                write!(f, "rank {rank}: cluster setup failed: {detail}")
            }
        }
    }
}

impl std::error::Error for CommError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CommError::Io { source, .. } => Some(source),
            CommError::Codec { err, .. } => Some(err),
            _ => None,
        }
    }
}

/// How a communicator experiences time: the sim backend drives a virtual
/// clock through the cost model; wire backends just read the wall clock.
enum TimeBase {
    Virtual(VirtualClock),
    Wall(Instant),
}

/// One rank's endpoint: its identity, transport, and clock.
///
/// Not `Clone` — exactly one communicator exists per rank, as in MPI.
pub struct Communicator {
    transport: Box<dyn Transport>,
    time: TimeBase,
    cost: CommCostModel,
    /// Wall-clock guard against deadlocks.
    recv_timeout: Duration,
    /// Retry policy for transient point-to-point failures (default: none).
    retry: RetryPolicy,
    /// Jitter stream for retry backoff.
    retry_rng: ChaCha8Rng,
    /// The `seq` the next send to each `(dest, tag)` carries.
    send_seq: HashMap<(usize, Tag), u32>,
    /// The `seq` the next frame from each `(src, tag)` must carry.
    recv_seq: HashMap<(usize, Tag), u32>,
}

impl Communicator {
    /// Wraps a transport endpoint. Virtual transports get a virtual clock
    /// driven by `cost`; wire transports measure wall time and ignore it.
    pub fn over(
        transport: Box<dyn Transport>,
        cost: CommCostModel,
        recv_timeout: Duration,
    ) -> Self {
        let time = if transport.is_virtual() {
            TimeBase::Virtual(VirtualClock::new())
        } else {
            TimeBase::Wall(Instant::now())
        };
        let retry = RetryPolicy::none();
        let retry_rng = retry.jitter_rng();
        Communicator {
            transport,
            time,
            cost,
            recv_timeout,
            retry,
            retry_rng,
            send_seq: HashMap::new(),
            recv_seq: HashMap::new(),
        }
    }

    /// Opts this communicator into retrying **transient** failures (see
    /// [`CommError::is_transient`]) of point-to-point operations — and with
    /// them every `try_*` collective, which are built from those primitives.
    /// The default is [`RetryPolicy::none`]: fail fast, exactly the
    /// pre-retry semantics.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry_rng = retry.jitter_rng();
        self.retry = retry;
        self
    }

    /// The retry policy in effect for point-to-point operations.
    pub fn retry_policy(&self) -> &RetryPolicy {
        &self.retry
    }

    /// This rank's id, `0 ≤ rank < size`. Rank 0 is the master by convention.
    #[inline]
    pub fn rank(&self) -> usize {
        self.transport.rank()
    }

    /// Number of ranks in the cluster.
    #[inline]
    pub fn size(&self) -> usize {
        self.transport.size()
    }

    /// `true` on rank 0.
    #[inline]
    pub fn is_master(&self) -> bool {
        self.rank() == 0
    }

    /// `true` when time is modelled (sim backend) rather than measured.
    #[inline]
    pub fn is_virtual(&self) -> bool {
        self.transport.is_virtual()
    }

    /// Current time of this rank: virtual seconds on the sim backend,
    /// wall-clock seconds since construction on wire backends.
    #[inline]
    pub fn now(&self) -> f64 {
        match &self.time {
            TimeBase::Virtual(clock) => clock.now(),
            TimeBase::Wall(start) => start.elapsed().as_secs_f64(),
        }
    }

    /// The communication cost model in effect (meaningful on the sim
    /// backend; wire backends pay real costs).
    #[inline]
    pub fn cost_model(&self) -> CommCostModel {
        self.cost
    }

    /// Advances this rank's virtual clock by `seconds` of modelled compute.
    /// No-op under wall time, where compute advances the clock by itself.
    #[inline]
    pub fn compute(&mut self, seconds: f64) {
        if let TimeBase::Virtual(clock) = &mut self.time {
            clock.advance(seconds);
        }
    }

    /// Moves this rank's clock forward to `t` if later (never backwards).
    /// Used by collectives to model synchronization points; no-op under
    /// wall time.
    #[inline]
    pub fn sync_clock_to(&mut self, t: f64) {
        if let TimeBase::Virtual(clock) = &mut self.time {
            clock.sync_to(t);
        }
    }

    /// Sends `value` to `dest` with `tag`. `sim_bytes` is the modelled wire
    /// size used by the cost model (the real encoded size applies on wire
    /// backends). Sends are non-blocking (buffered), as with an MPI eager
    /// send. Self-sends are legal. A transient failure is retried under the
    /// [`RetryPolicy`] with the same frame, `seq` included.
    pub fn try_send<T: Wire>(
        &mut self,
        dest: usize,
        tag: Tag,
        value: T,
        sim_bytes: usize,
    ) -> Result<(), CommError> {
        assert!(dest < self.size(), "send to nonexistent rank {dest}");
        let next = self.send_seq.entry((dest, tag)).or_insert(0);
        let seq = *next;
        *next = seq.wrapping_add(1);
        let msg = wire::encode_msg(&value);
        let mut bytes = Vec::with_capacity(ENVELOPE_LEN + msg.len());
        bytes.extend_from_slice(&seq.to_le_bytes());
        bytes.extend_from_slice(&frame_check(seq, &msg).to_le_bytes());
        bytes.extend_from_slice(&msg);
        let frame = Frame {
            bytes,
            sent_at: self.now(),
            sim_bytes,
        };
        self.with_transient_retry(|t| t.send(dest, tag, frame.clone()))
    }

    /// Blocking receive of a `T` from rank `src` with tag `tag`. On the sim
    /// backend, advances the virtual clock to the message's modelled
    /// arrival time. Timeout, disconnect, I/O, a failed frame check and a
    /// failed decode are typed [`CommError`]s with rank/tag context.
    pub fn try_recv<T: Wire>(&mut self, src: usize, tag: Tag) -> Result<T, CommError> {
        assert!(src < self.size(), "receive from nonexistent rank {src}");
        let rank = self.rank();
        let codec = |err| CommError::Codec {
            rank,
            src,
            tag,
            err,
        };
        let deadline = Instant::now() + self.recv_timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let frame = self.with_transient_retry(|t| t.recv(src, tag, left))?;
            let (seq, msg) = open_envelope(&frame.bytes).map_err(codec)?;
            let next = self.recv_seq.entry((src, tag)).or_insert(0);
            if seq < *next {
                continue; // a duplicate of a frame already received
            }
            let lost = seq > *next;
            *next = seq.wrapping_add(1);
            if lost {
                return Err(codec(WireError::Malformed("an earlier frame was lost")));
            }
            self.sync_clock_to(frame.sent_at + self.cost.transfer_time(frame.sim_bytes));
            return wire::decode_msg::<T>(msg).map_err(codec);
        }
    }

    /// Runs `op` against the transport, retrying transient failures under
    /// the communicator's [`RetryPolicy`]. With the default
    /// [`RetryPolicy::none`] this is exactly one attempt.
    fn with_transient_retry<T>(
        &mut self,
        mut op: impl FnMut(&mut dyn Transport) -> Result<T, CommError>,
    ) -> Result<T, CommError> {
        let started = Instant::now();
        let mut attempt = 0u32;
        loop {
            match op(self.transport.as_mut()) {
                Ok(v) => return Ok(v),
                Err(e) => {
                    attempt += 1;
                    let out_of_budget = attempt >= self.retry.max_attempts
                        || started.elapsed() >= self.retry.deadline;
                    if !e.is_transient() || out_of_budget {
                        return Err(e);
                    }
                    let pause = self
                        .retry
                        .backoff(attempt, &mut self.retry_rng)
                        .min(self.retry.deadline.saturating_sub(started.elapsed()));
                    std::thread::sleep(pause);
                }
            }
        }
    }
}

/// Bytes of the `[seq][check]` envelope ahead of each message.
const ENVELOPE_LEN: usize = 8;

/// The check over a frame's `seq` and message bytes: FNV-1a-32's step
/// `h = (h ^ w) · P`, taken a little-endian `u32` word `w` at a time
/// (`seq`, then the message's whole words) and byte-wise over the
/// message's last `len % 4` bytes. For a fixed word each step is a
/// bijection of the state, and for a fixed state a bijection of the word,
/// so a frame that differs in any single byte has a different check. It is
/// a quarter of byte-wise FNV-1a's serial multiplies.
fn frame_check(seq: u32, msg: &[u8]) -> u32 {
    let step = |h: u32, w: u32| (h ^ w).wrapping_mul(wire::FNV_PRIME);
    let mut words = msg.chunks_exact(4);
    let h = words.by_ref().fold(step(wire::FNV_OFFSET, seq), |h, w| {
        step(h, u32::from_le_bytes([w[0], w[1], w[2], w[3]]))
    });
    wire::fnv1a(h, words.remainder())
}

/// Verifies a frame's envelope: its `seq` and the message behind it.
fn open_envelope(bytes: &[u8]) -> Result<(u32, &[u8]), WireError> {
    let (head, msg) = bytes
        .split_first_chunk::<ENVELOPE_LEN>()
        .ok_or(WireError::Truncated)?;
    let seq = u32::from_le_bytes([head[0], head[1], head[2], head[3]]);
    let check = u32::from_le_bytes([head[4], head[5], head[6], head[7]]);
    if check != frame_check(seq, msg) {
        return Err(WireError::Malformed("frame checksum mismatch"));
    }
    Ok((seq, msg))
}

impl fmt::Debug for Communicator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Communicator")
            .field("rank", &self.rank())
            .field("size", &self.size())
            .field("virtual", &self.is_virtual())
            .field("now", &self.now())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultyTransport};
    use crate::threaded::{Cluster, ClusterConfig};
    use crate::transport::SimTransport;

    /// Two communicators over one sim mesh, driven from one thread (sends
    /// are eager), rank 0's transport wearing `plan`.
    fn pair(plan: &str) -> (Communicator, Communicator) {
        let mut mesh = SimTransport::mesh(2).into_iter();
        let plan = FaultPlan::parse(plan).unwrap();
        let t0 = FaultyTransport::wrap(Box::new(mesh.next().unwrap()), plan);
        let over = |t: Box<dyn Transport>| {
            Communicator::over(t, CommCostModel::default(), Duration::from_millis(100))
        };
        (over(Box::new(t0)), over(Box::new(mesh.next().unwrap())))
    }

    fn is_codec(r: Result<impl fmt::Debug, CommError>) -> bool {
        matches!(
            r,
            Err(CommError::Codec {
                rank: 1,
                src: 0,
                ..
            })
        )
    }

    #[test]
    fn send_recv_round_trip() {
        let out = Cluster::new(ClusterConfig::new(2)).run(|comm| {
            if comm.rank() == 0 {
                comm.try_send(1, 7, String::from("hello"), 5).unwrap();
                String::new()
            } else {
                comm.try_recv::<String>(0, 7).unwrap()
            }
        });
        assert_eq!(out.results[1], "hello");
    }

    #[test]
    fn out_of_order_tags_buffered() {
        let out = Cluster::new(ClusterConfig::new(2)).run(|comm| {
            if comm.rank() == 0 {
                comm.try_send(1, 1, 111u32, 4).unwrap();
                comm.try_send(1, 2, 222u32, 4).unwrap();
                (0, 0)
            } else {
                // Receive tag 2 first even though tag 1 was sent first.
                let b = comm.try_recv::<u32>(0, 2).unwrap();
                let a = comm.try_recv::<u32>(0, 1).unwrap();
                (a, b)
            }
        });
        assert_eq!(out.results[1], (111, 222));
    }

    #[test]
    fn self_send_works() {
        let out = Cluster::new(ClusterConfig::new(1)).run(|comm| {
            let me = comm.rank();
            comm.try_send(me, 0, 42u64, 8).unwrap();
            comm.try_recv::<u64>(me, 0).unwrap()
        });
        assert_eq!(out.results[0], 42);
    }

    #[test]
    fn recv_advances_virtual_clock() {
        let cfg = ClusterConfig::new(2).with_cost(CommCostModel {
            latency_s: 1.0,
            per_byte_s: 0.0,
        });
        let out = Cluster::new(cfg).run(|comm| {
            if comm.rank() == 0 {
                comm.compute(5.0); // sender is at t=5 when it sends
                comm.try_send(1, 0, (), 0).unwrap();
            } else {
                comm.try_recv::<()>(0, 0).unwrap(); // arrival at 5 + 1 latency
            }
            comm.now()
        });
        assert!((out.results[1] - 6.0).abs() < 1e-12);
    }

    #[test]
    fn clock_does_not_rewind_on_early_message() {
        let cfg = ClusterConfig::new(2).with_cost(CommCostModel::free());
        let out = Cluster::new(cfg).run(|comm| {
            if comm.rank() == 0 {
                comm.try_send(1, 0, (), 0).unwrap(); // sent at t=0
                0.0
            } else {
                comm.compute(10.0);
                comm.try_recv::<()>(0, 0).unwrap(); // arrival t=0 < local t=10
                comm.now()
            }
        });
        assert_eq!(out.results[1], 10.0);
    }

    #[test]
    fn type_mismatch_is_a_typed_codec_error() {
        let out = Cluster::new(ClusterConfig::new(1)).run(|comm| {
            comm.try_send(0, 0, 1u32, 4).unwrap();
            comm.try_recv::<String>(0, 0).unwrap_err()
        });
        assert!(
            matches!(
                out.results[0],
                CommError::Codec {
                    rank: 0,
                    src: 0,
                    tag: 0,
                    err: WireError::TypeMismatch { .. },
                }
            ),
            "{}",
            out.results[0]
        );
    }

    #[test]
    fn timeout_is_reported() {
        let cfg = ClusterConfig::new(1).with_recv_timeout(Duration::from_millis(50));
        let out = Cluster::new(cfg).run(|comm| {
            // Nothing was sent; try_recv should time out.
            match comm.try_recv::<u32>(0, 9) {
                Err(CommError::Timeout {
                    rank: 0,
                    src: 0,
                    tag: 9,
                }) => true,
                other => panic!("expected Timeout, got {other:?}"),
            }
        });
        assert!(out.results[0]);
    }

    #[test]
    fn messages_from_different_sources_matched_correctly() {
        let out = Cluster::new(ClusterConfig::new(3)).run(|comm| match comm.rank() {
            0 => {
                // Receive from 2 first, then 1 — regardless of arrival order.
                let from2 = comm.try_recv::<usize>(2, 0).unwrap();
                let from1 = comm.try_recv::<usize>(1, 0).unwrap();
                vec![from1, from2]
            }
            r => {
                comm.try_send(0, 0, r * 100, 8).unwrap();
                vec![]
            }
        });
        assert_eq!(out.results[0], vec![100, 200]);
    }

    #[test]
    fn duplicated_frames_are_dropped() {
        // Every frame rank 0 sends arrives twice. Without the seq check the
        // second all-reduce would read the first one's duplicate (3).
        let plan = FaultPlan::parse("dup=1").unwrap();
        let results: Vec<(u64, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = SimTransport::mesh(2)
                .into_iter()
                .map(|t| {
                    let plan = plan.clone();
                    scope.spawn(move || {
                        let me = t.rank() as u64;
                        let t: Box<dyn Transport> = if me == 0 {
                            Box::new(FaultyTransport::wrap(Box::new(t), plan))
                        } else {
                            Box::new(t)
                        };
                        let mut comm =
                            Communicator::over(t, CommCostModel::default(), Duration::from_secs(5));
                        let first = comm.try_all_reduce(me + 1, |a, b| a + b, 8).unwrap();
                        let second = comm.try_all_reduce(11 * (me + 1), |a, b| a + b, 8).unwrap();
                        (first, second)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(results, vec![(3, 33), (3, 33)]);
    }

    #[test]
    fn a_lost_frame_is_a_typed_error_not_the_next_value() {
        let (mut c0, mut c1) = pair("");
        c0.try_send(1, 5, 1u32, 4).unwrap();
        c0.try_send(1, 5, 2u32, 4).unwrap();
        // Lose the first frame beneath rank 1's communicator.
        c1.transport.recv(0, 5, Duration::ZERO).unwrap();
        assert!(is_codec(c1.try_recv::<u32>(0, 5)));
        // The check resynchronizes: the next frame is read as sent.
        c0.try_send(1, 5, 3u32, 4).unwrap();
        assert_eq!(c1.try_recv::<u32>(0, 5).unwrap(), 3);
    }

    /// Every single-byte change to a frame — in `seq` or anywhere in the
    /// message, whole words and the byte-wise tail alike — changes its
    /// check, and so fails [`open_envelope`].
    #[test]
    fn every_single_byte_change_changes_the_check() {
        for len in (0..=13).chain([64, 67]) {
            let msg: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let seq = 0x0102_0304u32 ^ len as u32;
            let mut frame = seq.to_le_bytes().to_vec();
            frame.extend_from_slice(&frame_check(seq, &msg).to_le_bytes());
            frame.extend_from_slice(&msg);
            assert_eq!(open_envelope(&frame), Ok((seq, &msg[..])));
            let want = frame_check(seq, &msg);
            for at in (0..4).chain(ENVELOPE_LEN..frame.len()) {
                for flip in 1..=255u8 {
                    let mut bad = frame.clone();
                    bad[at] ^= flip;
                    let (bad_seq, bad_msg) = (
                        u32::from_le_bytes([bad[0], bad[1], bad[2], bad[3]]),
                        &bad[ENVELOPE_LEN..],
                    );
                    assert_ne!(
                        frame_check(bad_seq, bad_msg),
                        want,
                        "len {len}, byte {at} ^ {flip}"
                    );
                    assert!(
                        open_envelope(&bad).is_err(),
                        "len {len}, byte {at} ^ {flip}"
                    );
                }
            }
        }
    }

    #[test]
    fn one_flipped_bit_is_a_typed_error() {
        for seed in 0..40 {
            let (mut c0, mut c1) = pair(&format!("seed={seed};corrupt=1"));
            c0.try_send(1, 5, (0x0123_4567_89ab_cdefu64, 42u32), 12)
                .unwrap();
            let got = c1.try_recv::<(u64, u32)>(0, 5);
            assert!(is_codec(got), "seed {seed}");
        }
    }
}
