//! The pluggable byte mover under [`crate::Communicator`].
//!
//! A [`Transport`] knows how to move a tagged [`Frame`] from one rank to
//! another and nothing else: no clocks, no cost models, no typed payloads.
//! The communicator encodes every message with [`crate::wire`] and layers
//! MPI-style matched typed messaging, the frame check and (for the sim
//! backend) virtual time on top, so engine code is backend-agnostic.
//!
//! Two backends exist, and both carry the same encoded bytes:
//!
//! * [`SimTransport`] — the original in-process backend: ranks are threads,
//!   frames move over crossbeam channels, and each frame carries the
//!   sender's virtual timestamp and a modelled wire size for the cost
//!   model. Deterministic; still the default.
//! * [`crate::TcpTransport`] — real sockets between OS processes, with
//!   length-prefixed frames.

use crate::comm::{CommError, Tag};
use crossbeam_channel::{Receiver, RecvTimeoutError, Sender};
use std::time::Duration;

/// One message as a transport sees it.
#[derive(Debug, Clone, Default)]
pub struct Frame {
    /// The communicator's envelope and the [`crate::wire`]-encoded message.
    pub bytes: Vec<u8>,
    /// Sender's clock at the moment of send. Only the sim backend carries
    /// it; a TCP frame arrives with 0.0, since real time passes by itself.
    pub sent_at: f64,
    /// Modelled wire size in bytes for the cost model (sim backend only).
    pub sim_bytes: usize,
}

/// A cluster interconnect endpoint for one rank.
///
/// Implementations must deliver frames between `(src, dest)` pairs in send
/// order; the communicator handles tag matching and buffering of
/// out-of-order tags above this interface where the backend does not
/// (backends buffer internally so `recv` can match on tag).
pub trait Transport: Send {
    /// This endpoint's rank.
    fn rank(&self) -> usize;
    /// Number of ranks in the cluster.
    fn size(&self) -> usize;
    /// `true` if this backend models time virtually (frames move in-process
    /// and clocks must be driven by the cost model); `false` if real wall
    /// time applies.
    fn is_virtual(&self) -> bool;
    /// Sends `frame` to `dest` under `tag`. Non-blocking/eager.
    fn send(&mut self, dest: usize, tag: Tag, frame: Frame) -> Result<(), CommError>;
    /// Blocking receive of the next frame from `src` under `tag`, waiting at
    /// most `timeout` wall-clock time. Frames from the same source with
    /// other tags are buffered for later receives, never dropped.
    fn recv(&mut self, src: usize, tag: Tag, timeout: Duration) -> Result<Frame, CommError>;
}

/// A frame in flight inside the sim backend, stamped with its source.
pub(crate) struct Envelope {
    pub src: usize,
    pub tag: Tag,
    pub frame: Frame,
}

/// The in-process simulator backend: one mailbox per rank, full mesh of
/// senders, frames handed between threads.
pub struct SimTransport {
    rank: usize,
    size: usize,
    senders: Vec<Sender<Envelope>>,
    receiver: Receiver<Envelope>,
    /// Frames that arrived but did not match the receive being serviced.
    pending: Vec<Envelope>,
}

impl SimTransport {
    /// Builds the full mailbox mesh for a `ranks`-rank cluster and returns
    /// one endpoint per rank, indexed by rank.
    pub fn mesh(ranks: usize) -> Vec<SimTransport> {
        assert!(ranks >= 1, "a cluster needs at least one rank");
        let (senders, receivers): (Vec<_>, Vec<_>) = (0..ranks)
            .map(|_| crossbeam_channel::unbounded::<Envelope>())
            .unzip();
        receivers
            .into_iter()
            .enumerate()
            .map(|(rank, receiver)| SimTransport {
                rank,
                size: ranks,
                senders: senders.clone(),
                receiver,
                pending: Vec::new(),
            })
            .collect()
    }
}

impl Transport for SimTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn is_virtual(&self) -> bool {
        true
    }

    fn send(&mut self, dest: usize, tag: Tag, frame: Frame) -> Result<(), CommError> {
        let env = Envelope {
            src: self.rank,
            tag,
            frame,
        };
        self.senders[dest]
            .send(env)
            .map_err(|_| CommError::Disconnected {
                rank: self.rank,
                peer: dest,
                tag: Some(tag),
            })
    }

    fn recv(&mut self, src: usize, tag: Tag, timeout: Duration) -> Result<Frame, CommError> {
        // Check the pending buffer first (frames that arrived out of order).
        if let Some(pos) = self
            .pending
            .iter()
            .position(|e| e.src == src && e.tag == tag)
        {
            return Ok(self.pending.remove(pos).frame);
        }
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            match self.receiver.recv_timeout(remaining) {
                Ok(env) => {
                    if env.src == src && env.tag == tag {
                        return Ok(env.frame);
                    }
                    self.pending.push(env);
                }
                Err(RecvTimeoutError::Timeout) => {
                    return Err(CommError::Timeout {
                        rank: self.rank,
                        src,
                        tag,
                    })
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(CommError::Disconnected {
                        rank: self.rank,
                        peer: src,
                        tag: Some(tag),
                    })
                }
            }
        }
    }
}

impl std::fmt::Debug for SimTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimTransport")
            .field("rank", &self.rank)
            .field("size", &self.size)
            .field("pending", &self.pending.len())
            .finish()
    }
}
