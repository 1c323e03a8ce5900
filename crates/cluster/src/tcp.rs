//! Real-socket cluster backend over `std::net::TcpStream`.
//!
//! ## Topology and rendezvous
//!
//! Every rank binds the listener named by its hostfile entry, then builds a
//! full mesh: rank `r` actively connects to every lower rank and accepts
//! connections from every higher rank, so each unordered pair shares exactly
//! one socket. Each connection starts with a 16-byte handshake (magic,
//! protocol version, cluster size, connector rank, intended acceptor rank)
//! answered by an 8-byte acknowledgement, so a socket from a stray client or
//! a mis-sized cluster is refused before any traffic flows. Once the mesh is
//! up, all ranks rendezvous through rank 0 (READY up, GO down) so no rank
//! starts its program against a half-built cluster.
//!
//! ## Frame discipline
//!
//! Messages travel as `[len u32 LE][tag u32 LE][payload]` where `len` counts
//! the tag and payload, mirroring the serve protocol (PR 6): the length is
//! checked against a cap before any allocation, payload buffers preallocate
//! at most 64 KiB regardless of the claimed length, and all failures are
//! typed [`CommError`]s. Payloads are the communicator's checked frames,
//! the same bytes the simulator carries, so its frame check and type
//! fingerprints catch lost, duplicated, corrupted and cross-typed frames.
//!
//! Frames from a peer that arrive while a receive waits on a different tag
//! are buffered per-peer and never dropped; self-sends go through an
//! in-memory loopback queue.
//!
//! ## Reconnect with epochs
//!
//! A socket that dies mid-run (reset, broken pipe, EOF) is not immediately
//! fatal: the transport keeps its listener and every peer's address, so
//! under the configured [`RetryPolicy`] it *heals* the link — the
//! connector-side rank redials and handshakes with an incremented
//! **epoch**, and the acceptor-side rank (noticing its own read fail)
//! polls the listener for that reconnect and swaps the socket in. Frames
//! in flight when the old socket died are lost (they surface as a typed
//! `Timeout` on the receiver, never as corruption — framing restarts
//! clean on the new socket); healing restores the *link*, and callers
//! decide what to re-send. Only when healing exhausts its budget does the
//! failure surface as a fatal [`CommError::Disconnected`].

use crate::comm::{CommError, Tag};
use crate::hostfile::Hostfile;
use crate::retry::RetryPolicy;
use crate::transport::{Frame, Transport};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Connection handshake magic ("LBEc" little-endian).
const HANDSHAKE_MAGIC: u32 = u32::from_le_bytes(*b"LBEc");
/// Wire protocol version; bumped on incompatible changes (v2 added the
/// connection epoch for reconnect healing).
const HANDSHAKE_VERSION: u16 = 2;

/// Rendezvous tags, at the very top of the reserved collective range.
const TAG_READY: Tag = 0xFFFF_FFFE;
const TAG_GO: Tag = 0xFFFF_FFFD;

/// Cap on `Vec` preallocation from a length field that has passed the frame
/// cap but is not yet backed by received bytes (same figure as the serve
/// protocol).
const PREALLOC_CAP: usize = 64 * 1024;

/// Tuning knobs for [`TcpTransport::connect`].
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// How long to keep retrying `connect(2)` to peers that have not bound
    /// their listener yet, and to wait in `accept` for higher ranks.
    pub connect_timeout: Duration,
    /// Delay between connect retries / accept polls.
    pub retry_interval: Duration,
    /// Maximum accepted frame length (tag + payload). Index shards travel
    /// as single frames, so the default is generous.
    pub max_frame_len: u32,
    /// Budget for healing a socket that died mid-run (reconnect with
    /// epochs). [`RetryPolicy::none`] disables healing: the first socket
    /// death is surfaced immediately.
    pub reconnect: RetryPolicy,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            connect_timeout: Duration::from_secs(30),
            retry_interval: Duration::from_millis(25),
            max_frame_len: 1 << 30, // 1 GiB
            reconnect: RetryPolicy {
                max_attempts: 3,
                base_backoff: Duration::from_millis(50),
                max_backoff: Duration::from_millis(400),
                jitter: 0.5,
                deadline: Duration::from_secs(1),
                seed: 0,
            },
        }
    }
}

/// A TCP endpoint for one rank of a real cluster.
pub struct TcpTransport {
    rank: usize,
    size: usize,
    /// One socket per peer; `peers[rank]` is `None` (self uses `loopback`).
    /// A `None` for another peer means the link is down (heal or fail).
    peers: Vec<Option<TcpStream>>,
    /// Per-peer frames that arrived while a receive waited on another tag.
    stashed: Vec<VecDeque<(Tag, Vec<u8>)>>,
    /// Self-send queue.
    loopback: VecDeque<(Tag, Vec<u8>)>,
    max_frame_len: u32,
    /// Retained after setup so dead links can be re-accepted (reconnect
    /// with epochs); always in nonblocking mode.
    listener: TcpListener,
    /// Every rank's address, for redialing lower-rank peers.
    addrs: Vec<SocketAddr>,
    /// Current connection epoch per peer (0 = the setup-time socket).
    epochs: Vec<u32>,
    /// Healing budget for dead sockets.
    reconnect: RetryPolicy,
    /// Jitter stream for reconnect backoff.
    reconnect_rng: rand_chacha::ChaCha8Rng,
    /// Listener poll interval while awaiting a peer's redial.
    retry_interval: Duration,
}

impl TcpTransport {
    /// Binds this rank's listener from the hostfile and joins the cluster.
    /// Blocks until the full mesh is up and rank 0 has released everyone,
    /// or fails with a typed setup error.
    pub fn connect(hostfile: &Hostfile, rank: usize, cfg: &TcpConfig) -> Result<Self, CommError> {
        assert!(rank < hostfile.ranks(), "rank {rank} not in hostfile");
        let addr = hostfile.addr(rank);
        let listener = TcpListener::bind(addr).map_err(|e| CommError::Setup {
            rank,
            detail: format!("cannot bind {addr}: {e}"),
        })?;
        Self::connect_with_listener(hostfile, rank, listener, cfg)
    }

    /// Like [`TcpTransport::connect`] but with a pre-bound listener, letting
    /// tests and launchers pick ports race-free (bind `:0`, read the port,
    /// write the hostfile, connect).
    pub fn connect_with_listener(
        hostfile: &Hostfile,
        rank: usize,
        listener: TcpListener,
        cfg: &TcpConfig,
    ) -> Result<Self, CommError> {
        let size = hostfile.ranks();
        assert!(rank < size, "rank {rank} not in hostfile");
        let deadline = Instant::now() + cfg.connect_timeout;
        let mut peers: Vec<Option<TcpStream>> = (0..size).map(|_| None).collect();

        // Actively connect to every lower rank, retrying while their
        // listeners come up. (Indexing by `dest` is the point: slot `dest`
        // of the mesh gets rank `dest`'s stream.)
        #[allow(clippy::needless_range_loop)]
        for dest in 0..rank {
            let stream =
                connect_retry(hostfile.addr(dest), deadline, cfg.retry_interval).map_err(|e| {
                    CommError::Setup {
                        rank,
                        detail: format!(
                            "cannot connect to rank {dest} at {}: {e}",
                            hostfile.addr(dest)
                        ),
                    }
                })?;
            handshake_connector(&stream, rank, dest, size, 0, deadline).map_err(|detail| {
                CommError::Setup {
                    rank,
                    detail: format!("handshake with rank {dest} failed: {detail}"),
                }
            })?;
            peers[dest] = Some(stream);
        }

        // Accept one connection from every higher rank, in whatever order
        // they arrive; the handshake tells us who is calling.
        listener
            .set_nonblocking(true)
            .map_err(|e| CommError::Setup {
                rank,
                detail: format!("listener configuration failed: {e}"),
            })?;
        let mut expected: usize = size - rank - 1;
        while expected > 0 {
            match listener.accept() {
                Ok((stream, _)) => {
                    stream
                        .set_nonblocking(false)
                        .map_err(|e| CommError::Setup {
                            rank,
                            detail: format!("socket configuration failed: {e}"),
                        })?;
                    // The handshake honours the setup deadline too: a stray
                    // client that connects and goes silent cannot wedge the
                    // accept loop (it times out and fails setup instead).
                    let (src, epoch) =
                        handshake_acceptor(&stream, rank, size, deadline).map_err(|detail| {
                            CommError::Setup {
                                rank,
                                detail: format!("inbound handshake failed: {detail}"),
                            }
                        })?;
                    if src <= rank || peers[src].is_some() || epoch != 0 {
                        return Err(CommError::Setup {
                            rank,
                            detail: format!("unexpected connection claiming rank {src}"),
                        });
                    }
                    peers[src] = Some(stream);
                    expected -= 1;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(CommError::Setup {
                            rank,
                            detail: format!(
                                "timed out waiting for {expected} higher rank(s) to connect"
                            ),
                        });
                    }
                    std::thread::sleep(cfg.retry_interval);
                }
                Err(e) => {
                    return Err(CommError::Setup {
                        rank,
                        detail: format!("accept failed: {e}"),
                    })
                }
            }
        }

        for stream in peers.iter().flatten() {
            let _ = stream.set_nodelay(true);
        }

        let reconnect = cfg.reconnect.clone().with_seed(
            cfg.reconnect
                .seed
                .wrapping_add((rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        let reconnect_rng = reconnect.jitter_rng();
        let mut t = TcpTransport {
            rank,
            size,
            peers,
            stashed: (0..size).map(|_| VecDeque::new()).collect(),
            loopback: VecDeque::new(),
            max_frame_len: cfg.max_frame_len,
            listener,
            addrs: (0..size).map(|r| hostfile.addr(r)).collect(),
            epochs: vec![0; size],
            reconnect,
            reconnect_rng,
            retry_interval: cfg.retry_interval,
        };
        t.rendezvous(cfg.connect_timeout)?;
        Ok(t)
    }

    /// Barrier through rank 0 before any program traffic: catches a peer
    /// whose mesh construction failed after ours succeeded.
    fn rendezvous(&mut self, timeout: Duration) -> Result<(), CommError> {
        if self.size == 1 {
            return Ok(());
        }
        if self.rank == 0 {
            for src in 1..self.size {
                self.recv(src, TAG_READY, timeout)?;
            }
            for dest in 1..self.size {
                self.send(dest, TAG_GO, Frame::default())?;
            }
        } else {
            self.send(0, TAG_READY, Frame::default())?;
            self.recv(0, TAG_GO, timeout)?;
        }
        Ok(())
    }

    fn stream(&self, peer: usize) -> Result<&TcpStream, CommError> {
        self.peers[peer].as_ref().ok_or(CommError::Disconnected {
            rank: self.rank,
            peer,
            tag: None,
        })
    }

    /// Fault-injection hook: forcibly shuts down and drops the socket to
    /// `peer`, simulating a transiently dead link. The next operation
    /// against `peer` heals it under the reconnect policy (or surfaces
    /// [`CommError::Disconnected`] when healing is disabled or fails).
    pub fn sever(&mut self, peer: usize) {
        if let Some(s) = self.peers[peer].take() {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
    }

    /// Re-establishes a dead link to `peer` under the reconnect policy:
    /// redial (lower-rank peers) or await their redial on our listener
    /// (higher-rank peers), handshaking with the next epoch so both sides
    /// agree the old stream — and anything buffered in it — is gone.
    fn heal(&mut self, peer: usize) -> Result<(), CommError> {
        self.peers[peer] = None;
        let fail = CommError::Disconnected {
            rank: self.rank,
            peer,
            tag: None,
        };
        if !self.reconnect.enabled() {
            return Err(fail);
        }
        let started = Instant::now();
        let budget = self.reconnect.deadline.min(Duration::from_secs(3600));
        let deadline = started + budget;
        for attempt in 1..=self.reconnect.max_attempts {
            let healed = if peer < self.rank {
                self.redial(peer, deadline)
            } else {
                self.await_redial(peer, deadline)
            };
            if healed {
                if let Some(s) = &self.peers[peer] {
                    let _ = s.set_nodelay(true);
                }
                return Ok(());
            }
            if Instant::now() >= deadline || attempt == self.reconnect.max_attempts {
                break;
            }
            let pause = self
                .reconnect
                .backoff(attempt, &mut self.reconnect_rng)
                .min(deadline.saturating_duration_since(Instant::now()));
            std::thread::sleep(pause);
        }
        Err(fail)
    }

    /// Connector side of healing: dial `peer` and handshake with the next
    /// epoch. Returns `true` when the link is back.
    fn redial(&mut self, peer: usize, deadline: Instant) -> bool {
        let epoch = self.epochs[peer].wrapping_add(1);
        let Ok(stream) = TcpStream::connect(self.addrs[peer]) else {
            return false;
        };
        if handshake_connector(&stream, self.rank, peer, self.size, epoch, deadline).is_err() {
            return false;
        }
        self.epochs[peer] = epoch;
        self.peers[peer] = Some(stream);
        true
    }

    /// Acceptor side of healing: poll our retained listener for the peer's
    /// redial. Valid reconnects from *other* higher-rank peers arriving in
    /// the meantime are swapped in opportunistically, not dropped.
    fn await_redial(&mut self, peer: usize, deadline: Instant) -> bool {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(false).is_err() {
                        continue;
                    }
                    let Ok((src, epoch)) =
                        handshake_acceptor(&stream, self.rank, self.size, deadline)
                    else {
                        continue;
                    };
                    if src <= self.rank || epoch != self.epochs[src].wrapping_add(1) {
                        continue; // stale or nonsensical reconnect
                    }
                    let _ = stream.set_nodelay(true);
                    self.epochs[src] = epoch;
                    self.peers[src] = Some(stream);
                    if src == peer {
                        return true;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return false;
                    }
                    std::thread::sleep(self.retry_interval.min(Duration::from_millis(10)));
                }
                Err(_) => return false,
            }
        }
    }

    /// Reads one `[len][tag][payload]` frame from `peer`, honouring
    /// `deadline` across partial reads.
    fn read_frame(&mut self, peer: usize, deadline: Instant) -> Result<(Tag, Vec<u8>), CommError> {
        let rank = self.rank;
        let max_len = self.max_frame_len;
        let err_io = |tag: Option<Tag>, e: std::io::Error| match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                // Mapped to Timeout by the caller, which knows the tag the
                // receive was actually waiting on.
                CommError::Timeout {
                    rank,
                    src: peer,
                    tag: tag.unwrap_or(0),
                }
            }
            std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe => CommError::Disconnected { rank, peer, tag },
            _ => CommError::Io {
                rank,
                peer,
                tag,
                source: e,
            },
        };

        let stream = self.stream(peer)?;
        let mut header = [0u8; 8];
        set_deadline(stream, deadline).map_err(|e| err_io(None, e))?;
        (&mut &*stream)
            .read_exact(&mut header)
            .map_err(|e| err_io(None, e))?;
        let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
        let tag = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        if len < 4 || len > max_len {
            return Err(CommError::Codec {
                rank,
                src: peer,
                tag,
                err: crate::wire::WireError::Malformed("frame length out of bounds"),
            });
        }
        let payload_len = (len - 4) as usize;
        // Preallocation is capped: a forged length costs at most 64 KiB
        // until real bytes actually arrive.
        let mut payload = Vec::with_capacity(payload_len.min(PREALLOC_CAP));
        set_deadline(stream, deadline).map_err(|e| err_io(Some(tag), e))?;
        let n = (&mut &*stream)
            .take(payload_len as u64)
            .read_to_end(&mut payload)
            .map_err(|e| err_io(Some(tag), e))?;
        if n != payload_len {
            return Err(CommError::Disconnected {
                rank,
                peer,
                tag: Some(tag),
            });
        }
        Ok((tag, payload))
    }
}

/// Arms the stream's read timeout with the time left until `deadline`.
fn set_deadline(stream: &TcpStream, deadline: Instant) -> std::io::Result<()> {
    let remaining = deadline.saturating_duration_since(Instant::now());
    if remaining.is_zero() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::TimedOut,
            "deadline passed",
        ));
    }
    stream.set_read_timeout(Some(remaining))
}

/// Dials `addr` until `deadline`, pausing with exponential backoff
/// (starting at `interval`, capped at 1 s) between attempts — a worker
/// that starts before its peers bind must not fail the launch.
fn connect_retry(
    addr: std::net::SocketAddr,
    deadline: Instant,
    interval: Duration,
) -> std::io::Result<TcpStream> {
    let mut pause = interval;
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => {
                let now = Instant::now();
                if now >= deadline {
                    return Err(e);
                }
                std::thread::sleep(pause.min(deadline.saturating_duration_since(now)));
                pause = pause.saturating_mul(2).min(Duration::from_secs(1));
            }
        }
    }
}

/// Arms both socket timeouts with the time left until `deadline`, so a
/// stalled peer cannot wedge a handshake.
fn handshake_deadline(stream: &TcpStream, deadline: Instant) -> Result<(), String> {
    let remaining = deadline.saturating_duration_since(Instant::now());
    if remaining.is_zero() {
        return Err("handshake deadline passed".to_string());
    }
    stream
        .set_read_timeout(Some(remaining))
        .and_then(|()| stream.set_write_timeout(Some(remaining)))
        .map_err(|e| e.to_string())
}

/// Connector side: announce `[magic][version][size u16][my_rank u32]
/// [dest u32][epoch u32]`, expect `[magic][peer_rank u32]` back. Epoch 0
/// is the setup-time connection; heals use successive epochs.
fn handshake_connector(
    mut stream: &TcpStream,
    my_rank: usize,
    dest: usize,
    size: usize,
    epoch: u32,
    deadline: Instant,
) -> Result<(), String> {
    handshake_deadline(stream, deadline)?;
    let mut hello = [0u8; 20];
    hello[0..4].copy_from_slice(&HANDSHAKE_MAGIC.to_le_bytes());
    hello[4..6].copy_from_slice(&HANDSHAKE_VERSION.to_le_bytes());
    hello[6..8].copy_from_slice(&(size as u16).to_le_bytes());
    hello[8..12].copy_from_slice(&(my_rank as u32).to_le_bytes());
    hello[12..16].copy_from_slice(&(dest as u32).to_le_bytes());
    hello[16..20].copy_from_slice(&epoch.to_le_bytes());
    stream.write_all(&hello).map_err(|e| e.to_string())?;
    let mut ack = [0u8; 8];
    stream.read_exact(&mut ack).map_err(|e| e.to_string())?;
    if u32::from_le_bytes([ack[0], ack[1], ack[2], ack[3]]) != HANDSHAKE_MAGIC {
        return Err("bad acknowledgement magic".to_string());
    }
    let peer = u32::from_le_bytes([ack[4], ack[5], ack[6], ack[7]]) as usize;
    if peer != dest {
        return Err(format!("connected to rank {peer}, expected rank {dest}"));
    }
    let _ = stream.set_read_timeout(None);
    let _ = stream.set_write_timeout(None);
    Ok(())
}

/// Acceptor side: validate the connector's announcement against our own
/// identity and acknowledge. Returns the connector's rank and epoch.
fn handshake_acceptor(
    mut stream: &TcpStream,
    my_rank: usize,
    size: usize,
    deadline: Instant,
) -> Result<(usize, u32), String> {
    handshake_deadline(stream, deadline)?;
    let mut hello = [0u8; 20];
    stream.read_exact(&mut hello).map_err(|e| e.to_string())?;
    if u32::from_le_bytes([hello[0], hello[1], hello[2], hello[3]]) != HANDSHAKE_MAGIC {
        return Err("bad magic (not an lbe cluster peer?)".to_string());
    }
    let version = u16::from_le_bytes([hello[4], hello[5]]);
    if version != HANDSHAKE_VERSION {
        return Err(format!(
            "protocol version mismatch: peer {version}, ours {HANDSHAKE_VERSION}"
        ));
    }
    let peer_size = u16::from_le_bytes([hello[6], hello[7]]) as usize;
    if peer_size != size {
        return Err(format!(
            "cluster size mismatch: peer says {peer_size}, hostfile says {size}"
        ));
    }
    let src = u32::from_le_bytes([hello[8], hello[9], hello[10], hello[11]]) as usize;
    let dest = u32::from_le_bytes([hello[12], hello[13], hello[14], hello[15]]) as usize;
    if dest != my_rank {
        return Err(format!(
            "peer rank {src} meant to reach rank {dest}, not us"
        ));
    }
    if src >= size {
        return Err(format!("peer claims out-of-range rank {src}"));
    }
    let epoch = u32::from_le_bytes([hello[16], hello[17], hello[18], hello[19]]);
    let mut ack = [0u8; 8];
    ack[0..4].copy_from_slice(&HANDSHAKE_MAGIC.to_le_bytes());
    ack[4..8].copy_from_slice(&(my_rank as u32).to_le_bytes());
    stream.write_all(&ack).map_err(|e| e.to_string())?;
    let _ = stream.set_read_timeout(None);
    let _ = stream.set_write_timeout(None);
    Ok((src, epoch))
}

impl Transport for TcpTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn is_virtual(&self) -> bool {
        false
    }

    fn send(&mut self, dest: usize, tag: Tag, frame: Frame) -> Result<(), CommError> {
        let bytes = frame.bytes;
        if dest == self.rank {
            self.loopback.push_back((tag, bytes));
            return Ok(());
        }
        let len = bytes.len() as u64 + 4;
        if len > self.max_frame_len as u64 {
            return Err(CommError::Codec {
                rank: self.rank,
                src: dest,
                tag,
                err: crate::wire::WireError::Malformed("message exceeds frame cap"),
            });
        }
        let mut header = [0u8; 8];
        header[0..4].copy_from_slice(&(len as u32).to_le_bytes());
        header[4..8].copy_from_slice(&tag.to_le_bytes());
        // A send that hits a dead socket heals the link and rewrites the
        // whole frame on the fresh stream (framing restarts clean), bounded
        // by the reconnect policy. Each loop iteration is one full attempt.
        let rank = self.rank;
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            if self.peers[dest].is_none() {
                self.heal(dest).map_err(|_| CommError::Disconnected {
                    rank,
                    peer: dest,
                    tag: Some(tag),
                })?;
            }
            let mut stream = self.stream(dest)?;
            let map_err = |e: std::io::Error| match e.kind() {
                std::io::ErrorKind::BrokenPipe
                | std::io::ErrorKind::ConnectionReset
                | std::io::ErrorKind::ConnectionAborted => CommError::Disconnected {
                    rank,
                    peer: dest,
                    tag: Some(tag),
                },
                _ => CommError::Io {
                    rank,
                    peer: dest,
                    tag: Some(tag),
                    source: e,
                },
            };
            let result = stream
                .write_all(&header)
                .and_then(|()| stream.write_all(&bytes))
                .map_err(map_err);
            match result {
                Ok(()) => return Ok(()),
                Err(e) => {
                    let heal_worthy =
                        matches!(e, CommError::Disconnected { .. } | CommError::Io { .. });
                    if !heal_worthy || attempts > self.reconnect.max_attempts {
                        return Err(e);
                    }
                    // Drop the dead stream; the next iteration heals it.
                    self.peers[dest] = None;
                }
            }
        }
    }

    fn recv(&mut self, src: usize, tag: Tag, timeout: Duration) -> Result<Frame, CommError> {
        let bytes = if src == self.rank {
            // Single-threaded rank: a self-receive can only be satisfied by
            // an already-queued self-send; nothing else can arrive later.
            match self.loopback.iter().position(|(t, _)| *t == tag) {
                Some(pos) => self.loopback.remove(pos).expect("position valid").1,
                None => {
                    return Err(CommError::Timeout {
                        rank: self.rank,
                        src,
                        tag,
                    })
                }
            }
        } else if let Some(pos) = self.stashed[src].iter().position(|(t, _)| *t == tag) {
            self.stashed[src].remove(pos).expect("position valid").1
        } else {
            let deadline = Instant::now() + timeout;
            loop {
                match self.read_frame(src, deadline) {
                    Ok((got_tag, payload)) => {
                        if got_tag == tag {
                            break payload;
                        }
                        self.stashed[src].push_back((got_tag, payload));
                    }
                    // Rewrite the placeholder tag from header-read timeouts
                    // with the tag this receive was actually waiting on.
                    Err(CommError::Timeout { rank, src, .. }) => {
                        return Err(CommError::Timeout { rank, src, tag })
                    }
                    // A dead socket mid-receive: heal the link and resume
                    // reading (framing restarts on the new stream). A frame
                    // that died in flight surfaces as Timeout later — the
                    // caller's retry/supervision decides what to re-send.
                    Err(CommError::Disconnected { .. } | CommError::Io { .. }) => {
                        self.peers[src] = None;
                        self.heal(src).map_err(|_| CommError::Disconnected {
                            rank: self.rank,
                            peer: src,
                            tag: Some(tag),
                        })?;
                    }
                    Err(other) => return Err(other),
                }
            }
        };
        Ok(Frame {
            bytes,
            ..Frame::default()
        })
    }
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("rank", &self.rank)
            .field("size", &self.size)
            .field("max_frame_len", &self.max_frame_len)
            .finish()
    }
}
