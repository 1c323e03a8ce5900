//! Integration tests of the cluster substrate under realistic usage: mixed
//! point-to-point and collective traffic, virtual-time reasoning, and the
//! engine's communication pattern in isolation.

use lbe::cluster::{Cluster, ClusterConfig, CommCostModel};

#[test]
fn master_worker_result_return_pattern() {
    // The engine's shape: workers compute unequal work, send results to the
    // master, master merges.
    let out = Cluster::new(ClusterConfig::new(6)).run(|comm| {
        let me = comm.rank();
        let work = (me as f64 + 1.0) * 0.1;
        comm.compute(work);
        let local_result = vec![me * 10, me * 10 + 1];
        let gathered = comm.try_gather(0, local_result, 16).unwrap();
        match gathered {
            Some(all) => all.into_iter().flatten().sum::<usize>(),
            None => 0,
        }
    });
    // Sum of {0,1,10,11,...,50,51}
    let expect: usize = (0..6).map(|m| m * 10 + m * 10 + 1).sum();
    assert_eq!(out.results[0], expect);
    assert!(out.results[1..].iter().all(|&r| r == 0));
    // Master finished no earlier than the slowest worker's send.
    assert!(out.times[0] >= 0.6);
}

#[test]
fn virtual_makespan_tracks_critical_path() {
    let cfg = ClusterConfig::new(4).with_cost(CommCostModel {
        latency_s: 0.01,
        per_byte_s: 0.0,
    });
    let out = Cluster::new(cfg).run(|comm| {
        comm.compute(if comm.rank() == 2 { 5.0 } else { 1.0 });
        comm.try_barrier().unwrap();
        comm.now()
    });
    // Everyone waits for rank 2 (plus two message hops through the barrier).
    for t in &out.results {
        assert!(*t >= 5.0 && *t <= 5.1, "{t}");
    }
}

#[test]
fn pipelined_rounds_accumulate_time() {
    let cfg = ClusterConfig::new(3).with_cost(CommCostModel::free());
    let rounds = 5;
    let out = Cluster::new(cfg).run(|comm| {
        for _ in 0..rounds {
            comm.compute(1.0);
            comm.try_barrier().unwrap();
        }
        comm.now()
    });
    for t in &out.results {
        assert!((*t - rounds as f64).abs() < 1e-9);
    }
}

#[test]
fn ring_communication() {
    // Each rank sends to its right neighbour and receives from its left —
    // exercises matched sends with distinct sources.
    let p = 5;
    let out = Cluster::new(ClusterConfig::new(p)).run(|comm| {
        let me = comm.rank();
        let right = (me + 1) % p;
        let left = (me + p - 1) % p;
        comm.try_send(right, 1, me, 8).unwrap();
        comm.try_recv::<usize>(left, 1).unwrap()
    });
    for (me, &got) in out.results.iter().enumerate() {
        assert_eq!(got, (me + p - 1) % p);
    }
}

#[test]
fn reduction_tree_of_vectors() {
    let out = Cluster::new(ClusterConfig::new(4)).run(|comm| {
        let local = vec![comm.rank() as u64; 3];
        comm.try_all_reduce(
            local,
            |a, b| a.iter().zip(&b).map(|(x, y)| x + y).collect(),
            24,
        )
        .unwrap()
    });
    assert!(out.results.iter().all(|r| r == &vec![6u64, 6, 6]));
}

#[test]
fn repeated_runs_on_same_cluster_are_independent() {
    let cluster = Cluster::new(ClusterConfig::new(3));
    let a = cluster.run(|c| {
        c.compute(1.0);
        c.now()
    });
    let b = cluster.run(|c| c.now());
    assert!(a.results.iter().all(|&t| t == 1.0));
    assert!(
        b.results.iter().all(|&t| t == 0.0),
        "clocks must reset per run"
    );
}

#[test]
fn large_rank_counts() {
    let out = Cluster::new(ClusterConfig::new(32))
        .run(|comm| comm.try_all_reduce(1u64, |a, b| a + b, 8).unwrap());
    assert!(out.results.iter().all(|&r| r == 32));
}

#[test]
fn imbalance_summary_of_cluster_times() {
    use lbe::cluster::sim::ImbalanceSummary;
    let out = Cluster::new(ClusterConfig::new(8)).run(|comm| {
        comm.compute(if comm.rank() == 7 { 2.0 } else { 1.0 });
    });
    let s = ImbalanceSummary::from_times(&out.times);
    assert!(s.load_imbalance > 0.0);
    assert_eq!(s.t_max, 2.0);
    assert!((s.t_avg - 9.0 / 8.0).abs() < 1e-12);
}
