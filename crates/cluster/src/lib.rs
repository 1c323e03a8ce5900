//! # lbe-cluster — distributed-memory cluster simulator
//!
//! The paper runs LBE on an MPI cluster (4 machines × 4 cores). This crate
//! reproduces that execution model without an MPI runtime:
//!
//! * **Ranks are OS threads** with no shared mutable state; they communicate
//!   only through typed point-to-point messages ([`Communicator::try_send`]
//!   / [`Communicator::try_recv`]) and MPI-style collectives (barrier,
//!   broadcast, gather, scatter, reduce, all-gather, all-reduce).
//! * **Virtual time**: every rank carries a [`VirtualClock`]. Compute work
//!   advances the clock through an explicit cost model, and messages carry
//!   their send timestamp so a receive advances the receiver to
//!   `max(local, sent_at + latency + bytes × per_byte)` — the standard
//!   LogP-flavoured reasoning. Because the clock math depends only on the
//!   communication structure of the program (never on host scheduling),
//!   per-rank times are **deterministic**, which is what makes the paper's
//!   load-imbalance measurements reproducible here.
//!
//! Why not rayon? Work stealing would re-balance whatever we hand it —
//! masking exactly the phenomenon (static partitioning imbalance) the paper
//! measures. Why not rsmpi? It binds a system MPI that this environment (and
//! most CI) lacks; nothing in the paper's results depends on real network
//! hardware.
//!
//! Since PR 7 the communicator is a thin handle over a pluggable
//! [`Transport`]: the threaded simulator above remains the default backend,
//! and [`TcpTransport`] runs the same SPMD programs across real OS
//! processes over length-prefixed TCP frames (rank discovery via
//! [`Hostfile`], rendezvous at rank 0). Both backends carry the same
//! bytes: each message is [`wire`]-encoded and sealed in a checked
//! `[seq][check]` envelope, so a mistyped, lost, duplicated or corrupted
//! frame is caught the same way on either. Engine code never names a
//! backend — it sees only [`Communicator`].
//!
//! ## Fault tolerance
//!
//! PR 10 adds a robustness layer. [`CommError::is_transient`] classifies
//! every error as transient (worth retrying: timeouts, raw I/O hiccups) or
//! fatal (peer truly gone, codec/setup bugs) — see its docs for the full
//! table. A [`RetryPolicy`] drives bounded, seeded-jitter retries inside
//! [`Communicator`] and reconnect-with-epoch healing inside
//! [`TcpTransport`]. [`FaultyTransport`] wraps any backend with a
//! deterministic [`FaultPlan`] (drop / delay / duplicate / corrupt /
//! kill-at-Nth-op) so the whole stack can be chaos-tested reproducibly;
//! every rule but the process-fatal `die` runs in-process on the simulator.
//!
//! ```
//! use lbe_cluster::{Cluster, ClusterConfig};
//!
//! let outcome = Cluster::new(ClusterConfig::new(4)).run(|comm| {
//!     // Unequal virtual work: rank r costs (r+1) seconds.
//!     comm.compute((comm.rank() + 1) as f64);
//!     let total = comm
//!         .try_all_reduce(comm.rank() as f64, |a, b| a + b, 8)
//!         .unwrap();
//!     assert_eq!(total, 0.0 + 1.0 + 2.0 + 3.0);
//!     comm.rank()
//! });
//! assert_eq!(outcome.results, vec![0, 1, 2, 3]);
//! // Times are deterministic and reflect the imbalance before the collective.
//! assert!(outcome.times[3] >= 4.0);
//! ```

#![deny(missing_docs)]

pub mod clock;
pub mod collectives;
pub mod comm;
pub mod fault;
pub mod hostfile;
pub mod retry;
pub mod sim;
pub mod tcp;
pub mod threaded;
pub mod transport;
pub mod wire;

pub use clock::{CommCostModel, VirtualClock};
pub use comm::{CommError, Communicator, Tag};
pub use fault::{
    FaultAction, FaultPlan, FaultPlanError, FaultRule, FaultyTransport, FAULT_DEATH_EXIT_CODE,
};
pub use hostfile::{Hostfile, HostfileError};
pub use retry::RetryPolicy;
pub use sim::{rank_times_from_work, ImbalanceSummary};
pub use tcp::{TcpConfig, TcpTransport};
pub use threaded::{Cluster, ClusterConfig, RunOutcome};
pub use transport::{Frame, SimTransport, Transport};
pub use wire::{Wire, WireError};
