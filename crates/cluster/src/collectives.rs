//! MPI-style collectives built on matched point-to-point messages.
//!
//! All collectives use a star topology through the root (rank 0 unless
//! stated): O(p) messages, which is what a small cluster of workstations —
//! the paper's setting — actually does for small payloads. On the sim
//! backend, virtual-time semantics fall out of the message timestamps: a
//! barrier releases every rank at `max(arrival times) + transfer`, so clocks
//! converge exactly the way wall clocks do on a real cluster. The same code
//! runs unchanged over the TCP backend, where real time does the same job.
//!
//! Collectives must be called by **all ranks in the same order** (standard
//! SPMD contract). Tags in `0xFFFF_FF00..=0xFFFF_FFFF` are reserved for
//! collective and transport-internal traffic; user code should stay below
//! that range.
//!
//! Every collective is fallible: a dead peer, a timeout or a mis-typed
//! exchange comes back as a [`CommError`] naming the rank, peer and tag.
//! None panics on a communication failure; a caller that cannot continue
//! without the collective unwraps the result itself.
//!
//! ## Fault tolerance
//!
//! The collectives are built from [`Communicator::try_send`] /
//! [`Communicator::try_recv`], so a communicator configured with
//! [`crate::RetryPolicy`] (via [`Communicator::with_retry`]) transparently
//! retries transient failures *inside* every collective — a delayed frame
//! that missed one receive window is picked up by the next bounded
//! attempt.
//!
//! The barrier and the gather — the two collectives the search program is
//! made of — additionally take an optional **dead-set** on the root
//! ([`Communicator::try_barrier_tolerating`],
//! [`Communicator::try_gather_tolerating`]). Without one, the first failed
//! exchange is returned and the collective is over. With one, a peer whose
//! exchange fails (after the retry policy is exhausted) is recorded in the
//! set and skipped from then on, and the collective completes among the
//! survivors; that is what supervised distributed search uses to outlive a
//! killed worker. Non-root ranks only ever talk to the root, so their side
//! is the same either way. [`Communicator::try_barrier`] and
//! [`Communicator::try_gather`] are the no-dead-set case.

use crate::comm::{CommError, Communicator, Tag};
use crate::wire::Wire;
use std::collections::BTreeSet;

/// Reserved tag range base for collectives.
pub const COLLECTIVE_TAG_BASE: Tag = 0xFFFF_FF00;
const TAG_BARRIER_UP: Tag = COLLECTIVE_TAG_BASE;
const TAG_BARRIER_DOWN: Tag = COLLECTIVE_TAG_BASE + 1;
const TAG_GATHER: Tag = COLLECTIVE_TAG_BASE + 2;
const TAG_BCAST: Tag = COLLECTIVE_TAG_BASE + 3;
const TAG_REDUCE: Tag = COLLECTIVE_TAG_BASE + 4;
const TAG_SCATTER: Tag = COLLECTIVE_TAG_BASE + 5;

impl Communicator {
    /// The root's side of one exchange with `peer` inside a collective.
    /// A peer already in `dead` is skipped (`Ok(None)`); a failed exchange
    /// adds the peer to `dead` when there is a dead-set and is returned
    /// otherwise.
    fn exchange_with<T>(
        &mut self,
        peer: usize,
        dead: &mut Option<&mut BTreeSet<usize>>,
        op: impl FnOnce(&mut Self) -> Result<T, CommError>,
    ) -> Result<Option<T>, CommError> {
        if dead.as_ref().is_some_and(|d| d.contains(&peer)) {
            return Ok(None);
        }
        match (op(self), dead) {
            (Ok(v), _) => Ok(Some(v)),
            (Err(_), Some(d)) => {
                d.insert(peer);
                Ok(None)
            }
            (Err(e), None) => Err(e),
        }
    }

    /// Synchronizes all ranks. On return, every rank's virtual clock is at
    /// the same value (the latest arrival plus the release transfer).
    pub fn try_barrier(&mut self) -> Result<(), CommError> {
        self.try_barrier_tolerating(None)
    }

    /// [`Communicator::try_barrier`] with an optional dead-set on rank 0
    /// (see the module docs): ranks in `dead` are neither waited for nor
    /// released, and a rank whose check-in or release fails joins the set
    /// instead of failing the barrier. Other ranks ignore `dead`.
    pub fn try_barrier_tolerating(
        &mut self,
        mut dead: Option<&mut BTreeSet<usize>>,
    ) -> Result<(), CommError> {
        let p = self.size();
        if p == 1 {
            return Ok(());
        }
        if !self.is_master() {
            self.try_send(0, TAG_BARRIER_UP, (), 0)?;
            return self.try_recv::<()>(0, TAG_BARRIER_DOWN);
        }
        for src in 1..p {
            self.exchange_with(src, &mut dead, |c| c.try_recv::<()>(src, TAG_BARRIER_UP))?;
        }
        for dest in 1..p {
            self.exchange_with(dest, &mut dead, |c| {
                c.try_send(dest, TAG_BARRIER_DOWN, (), 0)
            })?;
        }
        // Align the root with the released ranks: they exit at
        // release + transfer, so the barrier leaves *all* clocks equal —
        // the invariant imbalance measurements rely on.
        let release_arrival = self.now() + self.cost_model().transfer_time(0);
        self.sync_clock_to(release_arrival);
        Ok(())
    }

    /// Gathers one `T` per rank at `root`. Returns `Some(values)` (indexed
    /// by rank) on the root, `None` elsewhere. `sim_bytes` models each
    /// contribution's wire size.
    pub fn try_gather<T: Wire>(
        &mut self,
        root: usize,
        value: T,
        sim_bytes: usize,
    ) -> Result<Option<Vec<T>>, CommError> {
        let slots = self.try_gather_tolerating(root, value, sim_bytes, None)?;
        Ok(slots.map(|slots| {
            slots
                .into_iter()
                .map(|s| s.expect("without a dead-set every slot is filled"))
                .collect()
        }))
    }

    /// [`Communicator::try_gather`] with an optional dead-set on the root
    /// (see the module docs). The root gets one slot per rank: `Some` for
    /// every rank that contributed (its own included), `None` for ranks in
    /// `dead` on entry or whose receive failed — those join the set.
    /// Other ranks ignore `dead` and get `None`.
    pub fn try_gather_tolerating<T: Wire>(
        &mut self,
        root: usize,
        value: T,
        sim_bytes: usize,
        mut dead: Option<&mut BTreeSet<usize>>,
    ) -> Result<Option<Vec<Option<T>>>, CommError> {
        assert!(root < self.size(), "gather root out of range");
        if self.rank() != root {
            self.try_send(root, TAG_GATHER, value, sim_bytes)?;
            return Ok(None);
        }
        let mut slots: Vec<Option<T>> = (0..self.size()).map(|_| None).collect();
        slots[root] = Some(value);
        // Receives are matched by source rank, so indexing by `src` is
        // the point here, not an iteration smell.
        #[allow(clippy::needless_range_loop)]
        for src in 0..self.size() {
            if src != root {
                slots[src] =
                    self.exchange_with(src, &mut dead, |c| c.try_recv::<T>(src, TAG_GATHER))?;
            }
        }
        Ok(Some(slots))
    }

    /// Broadcasts the root's value to all ranks. The root passes
    /// `Some(value)`, others `None`; every rank returns the value.
    pub fn try_broadcast<T: Wire + Clone>(
        &mut self,
        root: usize,
        value: Option<T>,
        sim_bytes: usize,
    ) -> Result<T, CommError> {
        assert!(root < self.size(), "broadcast root out of range");
        if self.rank() == root {
            let v = value.expect("broadcast root must supply a value");
            for dest in 0..self.size() {
                if dest != root {
                    self.try_send(dest, TAG_BCAST, v.clone(), sim_bytes)?;
                }
            }
            Ok(v)
        } else {
            assert!(
                value.is_none(),
                "non-root ranks must pass None to broadcast"
            );
            self.try_recv::<T>(root, TAG_BCAST)
        }
    }

    /// Reduces one `T` per rank with `op` at `root` (returns `Some` there,
    /// `None` elsewhere). `op` must be associative; the fold is performed in
    /// rank order so non-commutative effects are at least deterministic.
    pub fn try_reduce<T, F>(
        &mut self,
        root: usize,
        value: T,
        op: F,
        sim_bytes: usize,
    ) -> Result<Option<T>, CommError>
    where
        T: Wire,
        F: Fn(T, T) -> T,
    {
        assert!(root < self.size(), "reduce root out of range");
        if self.rank() == root {
            let mut slots: Vec<Option<T>> = (0..self.size()).map(|_| None).collect();
            slots[root] = Some(value);
            #[allow(clippy::needless_range_loop)]
            for src in 0..self.size() {
                if src != root {
                    slots[src] = Some(self.try_recv::<T>(src, TAG_REDUCE)?);
                }
            }
            Ok(slots
                .into_iter()
                .map(|s| s.expect("reduce slot"))
                .reduce(op))
        } else {
            self.try_send(root, TAG_REDUCE, value, sim_bytes)?;
            Ok(None)
        }
    }

    /// Reduce + broadcast: every rank gets the reduced value.
    pub fn try_all_reduce<T, F>(
        &mut self,
        value: T,
        op: F,
        sim_bytes: usize,
    ) -> Result<T, CommError>
    where
        T: Wire + Clone,
        F: Fn(T, T) -> T,
    {
        let reduced = self.try_reduce(0, value, op, sim_bytes)?;
        self.try_broadcast(0, reduced, sim_bytes)
    }

    /// Gather + broadcast: every rank gets the full rank-indexed vector.
    pub fn try_all_gather<T: Wire + Clone>(
        &mut self,
        value: T,
        sim_bytes: usize,
    ) -> Result<Vec<T>, CommError> {
        let p = self.size();
        let gathered = self.try_gather(0, value, sim_bytes)?;
        self.try_broadcast(0, gathered, sim_bytes * p)
    }

    /// Scatters one `T` to each rank from the root's rank-indexed vector.
    pub fn try_scatter<T: Wire>(
        &mut self,
        root: usize,
        values: Option<Vec<T>>,
        sim_bytes: usize,
    ) -> Result<T, CommError> {
        assert!(root < self.size(), "scatter root out of range");
        if self.rank() == root {
            let values = values.expect("scatter root must supply values");
            assert_eq!(
                values.len(),
                self.size(),
                "scatter needs exactly one value per rank"
            );
            let mut own: Option<T> = None;
            for (dest, v) in values.into_iter().enumerate() {
                if dest == root {
                    own = Some(v);
                } else {
                    self.try_send(dest, TAG_SCATTER, v, sim_bytes)?;
                }
            }
            Ok(own.expect("root's own scatter slot"))
        } else {
            assert!(values.is_none(), "non-root ranks must pass None to scatter");
            self.try_recv::<T>(root, TAG_SCATTER)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::CommCostModel;
    use crate::threaded::{Cluster, ClusterConfig};

    fn cluster(p: usize) -> Cluster {
        Cluster::new(ClusterConfig::new(p))
    }

    #[test]
    fn barrier_aligns_clocks() {
        let cfg = ClusterConfig::new(4).with_cost(CommCostModel {
            latency_s: 0.001,
            per_byte_s: 0.0,
        });
        let out = Cluster::new(cfg).run(|c| {
            c.compute(c.rank() as f64); // rank r at t=r
            c.try_barrier().unwrap();
            c.now()
        });
        // All ranks released at the same virtual instant.
        let t0 = out.results[0];
        assert!(out.results.iter().all(|&t| (t - t0).abs() < 1e-12));
        // Release must be after the slowest rank's arrival (t=3).
        assert!(t0 >= 3.0);
    }

    #[test]
    fn barrier_on_single_rank_is_noop() {
        let out = cluster(1).run(|c| {
            c.try_barrier().unwrap();
            c.now()
        });
        assert_eq!(out.results[0], 0.0);
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let out = cluster(4).run(|c| c.try_gather(0, c.rank() * 11, 8).unwrap());
        assert_eq!(out.results[0], Some(vec![0, 11, 22, 33]));
        assert!(out.results[1..].iter().all(Option::is_none));
    }

    #[test]
    fn gather_to_nonzero_root() {
        let out = cluster(3).run(|c| c.try_gather(2, c.rank(), 8).unwrap());
        assert_eq!(out.results[2], Some(vec![0, 1, 2]));
        assert!(out.results[0].is_none() && out.results[1].is_none());
    }

    #[test]
    fn broadcast_delivers_to_all() {
        let out = cluster(4).run(|c| {
            let v = if c.is_master() {
                Some("payload".to_string())
            } else {
                None
            };
            c.try_broadcast(0, v, 7).unwrap()
        });
        assert!(out.results.iter().all(|r| r == "payload"));
    }

    #[test]
    fn reduce_folds_in_rank_order() {
        let out = cluster(4).run(|c| {
            c.try_reduce(
                0,
                vec![c.rank()],
                |mut a, b| {
                    a.extend(b);
                    a
                },
                8,
            )
            .unwrap()
        });
        assert_eq!(out.results[0], Some(vec![0, 1, 2, 3]));
    }

    #[test]
    fn all_reduce_sum() {
        let out = cluster(5).run(|c| c.try_all_reduce(c.rank() as u64, |a, b| a + b, 8).unwrap());
        assert!(out.results.iter().all(|&r| r == 10));
    }

    #[test]
    fn all_gather_full_vector_everywhere() {
        let out = cluster(3).run(|c| c.try_all_gather(c.rank() as u8, 1).unwrap());
        assert!(out.results.iter().all(|r| r == &vec![0u8, 1, 2]));
    }

    #[test]
    fn scatter_distributes_per_rank() {
        let out = cluster(4).run(|c| {
            let v = if c.is_master() {
                Some(vec![100, 101, 102, 103])
            } else {
                None
            };
            c.try_scatter(0, v, 8).unwrap()
        });
        assert_eq!(out.results, vec![100, 101, 102, 103]);
    }

    #[test]
    fn sequence_of_collectives_does_not_cross_talk() {
        let out = cluster(3).run(|c| {
            let s1 = c.try_all_reduce(1u32, |a, b| a + b, 4).unwrap();
            c.try_barrier().unwrap();
            let s2 = c.try_all_reduce(10u32, |a, b| a + b, 4).unwrap();
            let g = c.try_all_gather(c.rank() as u32, 4).unwrap();
            (s1, s2, g)
        });
        for r in &out.results {
            assert_eq!(r.0, 3);
            assert_eq!(r.1, 30);
            assert_eq!(r.2, vec![0, 1, 2]);
        }
    }

    #[test]
    fn bytes_drive_broadcast_cost() {
        let cfg = ClusterConfig::new(2).with_cost(CommCostModel {
            latency_s: 0.0,
            per_byte_s: 1.0,
        });
        let out = Cluster::new(cfg).run(|c| {
            let v = if c.is_master() { Some(0u8) } else { None };
            c.try_broadcast(0, v, 3).unwrap();
            c.now()
        });
        assert!((out.results[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "exactly one value per rank")]
    fn scatter_wrong_length_panics() {
        // Short recv timeout: rank 1 blocks on a scatter that will never
        // arrive because the root panics; don't hold the test for 30 s.
        let cfg = ClusterConfig::new(2).with_recv_timeout(std::time::Duration::from_millis(100));
        Cluster::new(cfg).run(|c| {
            let v = if c.is_master() { Some(vec![1]) } else { None };
            let _ = c.try_scatter(0, v, 8);
        });
    }

    #[test]
    fn makespan_is_max_time() {
        let out = cluster(3).run(|c| c.compute(c.rank() as f64));
        assert_eq!(out.makespan(), 2.0);
    }

    /// One row of the dead-set tables below: the root's dead-set on entry
    /// (`None` = the strict collective) and whether rank 2 fails
    /// mid-collective by never taking part.
    struct Case {
        name: &'static str,
        dead_on_entry: Option<&'static [usize]>,
        rank2_silent: bool,
    }

    impl Case {
        /// The root's dead-set on exit: rank 2 joins it exactly when it is
        /// silent and there is a set to join.
        fn dead_after(&self) -> Option<Vec<usize>> {
            self.dead_on_entry?;
            Some(if self.rank2_silent { vec![2] } else { vec![] })
        }
    }

    const CASES: [Case; 5] = [
        Case {
            name: "no dead-set",
            dead_on_entry: None,
            rank2_silent: false,
        },
        Case {
            name: "empty dead-set",
            dead_on_entry: Some(&[]),
            rank2_silent: false,
        },
        Case {
            name: "pre-marked dead rank",
            dead_on_entry: Some(&[2]),
            rank2_silent: true,
        },
        Case {
            name: "rank fails mid-collective, no dead-set",
            dead_on_entry: None,
            rank2_silent: true,
        },
        Case {
            name: "rank fails mid-collective, dead-set",
            dead_on_entry: Some(&[]),
            rank2_silent: true,
        },
    ];

    /// What one rank saw: the collective's value, or the timeout it was
    /// failed with as `(rank, src, tag)`; plus the dead-set it ended with.
    type Seen<T> = (Result<T, (usize, usize, Tag)>, Option<Vec<usize>>);

    /// Runs `collective` on 3 ranks under `case`; rank 2, when silent,
    /// returns `None` without touching its communicator. The root gives up
    /// on a peer well before the workers give up on the root, so whether
    /// rank 1 is released never depends on which timer fires first.
    fn run_case<T: Send>(
        case: &Case,
        collective: impl Fn(&mut Communicator, Option<&mut BTreeSet<usize>>) -> Result<T, CommError>
            + Sync,
    ) -> Vec<Option<Seen<T>>> {
        use std::time::Duration;
        let collective = &collective;
        std::thread::scope(|scope| {
            let handles: Vec<_> = crate::transport::SimTransport::mesh(3)
                .into_iter()
                .enumerate()
                .map(|(rank, t)| {
                    scope.spawn(move || {
                        if rank == 2 && case.rank2_silent {
                            return None;
                        }
                        let timeout = Duration::from_millis(if rank == 0 { 100 } else { 1500 });
                        let mut c =
                            Communicator::over(Box::new(t), CommCostModel::default(), timeout);
                        let mut dead: Option<BTreeSet<usize>> =
                            case.dead_on_entry.map(|d| d.iter().copied().collect());
                        let seen = collective(&mut c, dead.as_mut()).map_err(|e| match e {
                            CommError::Timeout { rank, src, tag } => (rank, src, tag),
                            other => panic!("{}: expected a timeout, got {other}", case.name),
                        });
                        Some((seen, dead.map(|d| d.into_iter().collect())))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    #[test]
    fn barrier_core_over_dead_set_table() {
        for case in &CASES {
            let seen = run_case(case, |c, dead| c.try_barrier_tolerating(dead));
            let tolerant = case.dead_on_entry.is_some();
            let (root, root_dead) = seen[0].clone().expect("root takes part");
            let (worker, _) = seen[1].clone().expect("rank 1 takes part");
            if case.rank2_silent && !tolerant {
                // Strict: the root fails on the missing check-in and never
                // releases rank 1, which times out on the release.
                assert_eq!(root, Err((0, 2, TAG_BARRIER_UP)), "{}", case.name);
                assert_eq!(worker, Err((1, 0, TAG_BARRIER_DOWN)), "{}", case.name);
            } else {
                assert_eq!(root, Ok(()), "{}", case.name);
                assert_eq!(worker, Ok(()), "{}", case.name);
            }
            assert_eq!(root_dead, case.dead_after(), "{}", case.name);
        }
    }

    #[test]
    fn gather_core_over_dead_set_table() {
        for case in &CASES {
            let seen = run_case(case, |c, dead| {
                c.try_gather_tolerating(0, c.rank() as u32 * 11, 4, dead)
            });
            let tolerant = case.dead_on_entry.is_some();
            let (root, root_dead) = seen[0].clone().expect("root takes part");
            let (worker, _) = seen[1].clone().expect("rank 1 takes part");
            // A worker's side is one eager send: it succeeds regardless.
            assert_eq!(worker, Ok(None), "{}", case.name);
            let want_root = match (case.rank2_silent, tolerant) {
                (false, _) => Ok(Some(vec![Some(0), Some(11), Some(22)])),
                (true, true) => Ok(Some(vec![Some(0), Some(11), None])),
                (true, false) => Err((0, 2, TAG_GATHER)),
            };
            assert_eq!(root, want_root, "{}", case.name);
            assert_eq!(root_dead, case.dead_after(), "{}", case.name);
            // The strict spelling is the no-dead-set case, slots unwrapped.
            if !tolerant && !case.rank2_silent {
                let strict = run_case(case, |c, _| c.try_gather(0, c.rank() as u32 * 11, 4));
                let (root, _) = strict[0].clone().expect("root takes part");
                assert_eq!(root, Ok(Some(vec![0, 11, 22])), "{}", case.name);
            }
        }
    }
}
