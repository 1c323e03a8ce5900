//! Cluster construction and SPMD execution.

use crate::clock::CommCostModel;
use crate::comm::Communicator;
use crate::transport::SimTransport;
use std::time::Duration;

/// Cluster configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of ranks (the paper calls these "MPI processes (CPUs)").
    pub ranks: usize,
    /// Communication cost model driving virtual time.
    pub cost: CommCostModel,
    /// Wall-clock receive timeout (deadlock guard). Default 30 s.
    pub recv_timeout: Duration,
}

impl ClusterConfig {
    /// A cluster of `ranks` ranks with the default cost model.
    pub fn new(ranks: usize) -> Self {
        assert!(ranks >= 1, "a cluster needs at least one rank");
        ClusterConfig {
            ranks,
            cost: CommCostModel::default(),
            recv_timeout: Duration::from_secs(30),
        }
    }

    /// Replaces the communication cost model.
    pub fn with_cost(mut self, cost: CommCostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Replaces the deadlock-guard receive timeout.
    pub fn with_recv_timeout(mut self, t: Duration) -> Self {
        self.recv_timeout = t;
        self
    }
}

/// Results of one SPMD run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome<R> {
    /// Per-rank return values, indexed by rank.
    pub results: Vec<R>,
    /// Per-rank final virtual times (seconds), indexed by rank. This is the
    /// quantity the paper's load-imbalance metric is computed from.
    pub times: Vec<f64>,
}

impl<R> RunOutcome<R> {
    /// The slowest rank's virtual time — the run's makespan, i.e. what a
    /// wall clock would show on a real cluster.
    pub fn makespan(&self) -> f64 {
        self.times.iter().copied().fold(0.0, f64::max)
    }
}

/// A simulated cluster. Construct once, run SPMD programs on it.
#[derive(Debug, Clone)]
pub struct Cluster {
    config: ClusterConfig,
}

impl Cluster {
    /// Creates a cluster from `config`.
    pub fn new(config: ClusterConfig) -> Self {
        Cluster { config }
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.config.ranks
    }

    /// Runs `f` on every rank concurrently (one OS thread each) and returns
    /// per-rank results and final virtual times.
    ///
    /// A panic on any rank propagates (aborting the run), mirroring
    /// `MPI_Abort` semantics.
    pub fn run<F, R>(&self, f: F) -> RunOutcome<R>
    where
        F: Fn(&mut Communicator) -> R + Sync,
        R: Send,
    {
        let p = self.config.ranks;
        // Build the full mailbox mesh up front, then wrap each endpoint in a
        // communicator carrying the virtual clock and cost model.
        let mut comms: Vec<Communicator> = SimTransport::mesh(p)
            .into_iter()
            .map(|t| Communicator::over(Box::new(t), self.config.cost, self.config.recv_timeout))
            .collect();

        let f = &f;
        let mut slots: Vec<Option<(R, f64)>> = (0..p).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = comms
                .iter_mut()
                .map(|comm| {
                    scope.spawn(move || {
                        let r = f(comm);
                        (r, comm.now())
                    })
                })
                .collect();
            for (rank, h) in handles.into_iter().enumerate() {
                match h.join() {
                    Ok(pair) => slots[rank] = Some(pair),
                    Err(e) => std::panic::resume_unwind(e),
                }
            }
        });

        let (results, times) = slots
            .into_iter()
            .map(|s| s.expect("every rank reported"))
            .unzip();
        RunOutcome { results, times }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_indexed_by_rank() {
        let out = Cluster::new(ClusterConfig::new(5)).run(|c| c.rank() * 10);
        assert_eq!(out.results, vec![0, 10, 20, 30, 40]);
        assert_eq!(out.times.len(), 5);
    }

    #[test]
    fn single_rank_cluster() {
        let out = Cluster::new(ClusterConfig::new(1)).run(|c| {
            assert!(c.is_master());
            assert_eq!(c.size(), 1);
            7
        });
        assert_eq!(out.results, vec![7]);
    }

    #[test]
    fn times_reflect_compute() {
        let out = Cluster::new(ClusterConfig::new(3)).run(|c| {
            c.compute(c.rank() as f64 * 2.0);
        });
        assert_eq!(out.times, vec![0.0, 2.0, 4.0]);
        assert_eq!(out.makespan(), 4.0);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        ClusterConfig::new(0);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn rank_panic_propagates() {
        Cluster::new(ClusterConfig::new(2)).run(|c| {
            if c.rank() == 1 {
                panic!("boom");
            }
        });
    }

    #[test]
    fn deterministic_times_across_runs() {
        let cluster = Cluster::new(ClusterConfig::new(4));
        let prog = |c: &mut crate::comm::Communicator| {
            c.compute((c.rank() + 1) as f64 * 0.25);
            let v = c.try_all_gather(c.now(), 8).unwrap();
            v.iter().sum::<f64>()
        };
        let a = cluster.run(prog);
        let b = cluster.run(prog);
        assert_eq!(a.times, b.times);
        assert_eq!(a.results, b.results);
    }
}
