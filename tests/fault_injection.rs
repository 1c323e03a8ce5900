//! PR 10's fault-tolerance surface, tested from the outside:
//!
//! * **fault-plan fuzzing** — arbitrary strings fed to `FaultPlan::parse`
//!   produce a plan or a typed error, never a panic; valid plans
//!   round-trip through their canonical `Display` form; and the seeded
//!   fault stream replays bit-identically, whatever the plan;
//! * the **chaos matrix** — the collective gauntlet run over an
//!   in-process mesh whose master wears a [`FaultyTransport`] with random
//!   drop/delay/dup/corrupt plans: every run either matches the clean run
//!   bit-for-bit or surfaces typed `CommError`s, and always terminates
//!   (bounded by receive timeouts, so the test completing *is* the
//!   no-hang assertion);
//! * **supervised recovery** — `cluster_search_rank_supervised` with a
//!   worker severed mid-protocol produces PSMs byte-identical to the
//!   clean run, with the loss recorded in the report;
//! * **TCP self-healing** — a severed link heals transparently under the
//!   reconnect policy (next-epoch handshake), and healing a truly dead
//!   peer fails as a typed `Disconnected`.

use lbe::cluster::collectives::COLLECTIVE_TAG_BASE;
use lbe::cluster::{
    CommCostModel, CommError, Communicator, FaultPlan, FaultRule, FaultyTransport, Hostfile,
    RetryPolicy, SimTransport, Tag, TcpConfig, TcpTransport, Transport,
};
use lbe::core::{
    cluster_search_rank, cluster_search_rank_supervised, DistributedSearchReport, EngineConfig,
};
use lbe::prelude::*;
use proptest::prelude::*;
use std::net::TcpListener;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Fault-plan fuzzing
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary printable input never panics the plan parser — any
    /// outcome is a clean `Ok`/`Err`.
    #[test]
    fn fault_plan_parser_survives_garbage(s in "[ -~]{0,60}") {
        let _ = FaultPlan::parse(&s);
    }

    /// Near-miss grammar (right keys, junk values, stray separators) also
    /// parses or rejects cleanly.
    #[test]
    fn fault_plan_parser_survives_near_grammar(
        parts in prop::collection::vec((0usize..8, "[0-9.:x-]{0,8}"), 0..6)
    ) {
        let keys = ["seed", "rank", "drop", "delay", "dup", "corrupt", "kill", "die"];
        let s: String = parts
            .iter()
            .map(|(k, v)| format!("{}={v};", keys[*k]))
            .collect();
        let _ = FaultPlan::parse(&s);
    }

    /// Every representable plan round-trips through its canonical
    /// `Display` form.
    #[test]
    fn fault_plan_display_round_trips(
        seed in any::<u64>(),
        rank in (any::<bool>(), 0usize..32),
        drop_prob in (any::<bool>(), 0.001f64..1.0),
        delay in (any::<bool>(), 0.001f64..1.0, 0u64..500),
        dup_prob in (any::<bool>(), 0.001f64..1.0),
        corrupt_prob in (any::<bool>(), 0.001f64..1.0),
        kills in prop::collection::vec((0usize..32, any::<bool>(), 0u32..1000, 1u64..100), 0..4),
        dies in prop::collection::vec(1u64..100, 0..2),
    ) {
        let mut plan = FaultPlan::none();
        plan.seed = seed;
        plan.rank = rank.0.then_some(rank.1);
        plan.drop_prob = if drop_prob.0 { drop_prob.1 } else { 0.0 };
        if delay.0 {
            plan.delay_prob = delay.1;
            plan.delay = Duration::from_millis(delay.2);
        }
        plan.dup_prob = if dup_prob.0 { dup_prob.1 } else { 0.0 };
        plan.corrupt_prob = if corrupt_prob.0 { corrupt_prob.1 } else { 0.0 };
        for (peer, tagged, tag, nth) in kills {
            plan.rules.push(FaultRule {
                peer: Some(peer),
                tag: tagged.then_some(tag),
                nth,
                action: lbe::cluster::FaultAction::KillPeer,
            });
        }
        for nth in dies {
            plan.rules.push(FaultRule {
                peer: None,
                tag: None,
                nth,
                action: lbe::cluster::FaultAction::Die,
            });
        }
        let reparsed = FaultPlan::parse(&plan.to_string()).unwrap();
        prop_assert_eq!(plan, reparsed);
    }
}

proptest! {
    // Each case builds a mesh and pushes up to 48 frames twice; keep the
    // case count modest so the whole property stays sub-second.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Whatever the plan, the seeded fault schedule is a pure function of
    /// `(plan, op sequence)`: two identical runs deliver identical frames.
    #[test]
    fn any_plan_replays_bit_identically_from_its_seed(
        seed in any::<u64>(),
        drop_prob in 0.0f64..0.6,
        dup_prob in 0.0f64..0.4,
        corrupt_prob in 0.0f64..0.4,
        frames in 1usize..48,
    ) {
        let run = || {
            let mut endpoints = SimTransport::mesh(2).into_iter();
            let t0 = endpoints.next().unwrap();
            let mut t1 = endpoints.next().unwrap();
            let mut plan = FaultPlan::none();
            plan.seed = seed;
            plan.drop_prob = drop_prob;
            plan.dup_prob = dup_prob;
            plan.corrupt_prob = corrupt_prob;
            let mut faulty = FaultyTransport::wrap(Box::new(t0), plan);
            for i in 0..frames {
                let bytes = vec![i as u8, (i as u8) ^ 0xA5, 0x5A];
                let frame = lbe::cluster::Frame {
                    bytes,
                    sent_at: 0.0,
                    sim_bytes: 3,
                };
                faulty.send(1, 9, frame).unwrap();
            }
            let mut delivered = Vec::new();
            while let Ok(f) = t1.recv(0, 9, Duration::from_millis(20)) {
                delivered.push(f.bytes);
            }
            delivered
        };
        prop_assert_eq!(run(), run());
    }
}

// ---------------------------------------------------------------------------
// Chaos matrix: collectives under random drop/delay/dup/corrupt plans
// ---------------------------------------------------------------------------

/// A compact gauntlet over the fallible collective surface; any injected
/// fault anywhere changes (or errors) the output.
type GauntletOut = (String, u64, Vec<u16>, i64);

fn try_gauntlet(comm: &mut Communicator) -> Result<GauntletOut, CommError> {
    let me = comm.rank();
    let p = comm.size();
    comm.try_send((me + 1) % p, 7, me as u32, 4)?;
    let left = comm.try_recv::<u32>((me + p - 1) % p, 7)?;
    let bcast = comm.try_broadcast(0, (me == 0).then(|| format!("go:{left}")), 8)?;
    let reduced = comm.try_all_reduce((me as u64 + 1) * 100, |a, b| a + b, 8)?;
    let all = comm.try_all_gather(me as u16, 2)?;
    let scattered = comm.try_scatter(0, (me == 0).then(|| (0..p as i64).collect()), 8)?;
    comm.try_barrier()?;
    Ok((bcast, reduced, all, scattered))
}

/// Runs the gauntlet on a `p`-rank mesh, the master's transport wrapped
/// with `plan`. Short receive timeouts bound every blocking point, so a
/// lost frame degrades into a typed error instead of a hang.
fn chaos_run(
    p: usize,
    plan: &FaultPlan,
    retry: RetryPolicy,
) -> Vec<Result<GauntletOut, CommError>> {
    let endpoints = SimTransport::mesh(p);
    std::thread::scope(|scope| {
        let handles: Vec<_> = endpoints
            .into_iter()
            .enumerate()
            .map(|(rank, t)| {
                let plan = plan.clone();
                let retry = retry.clone();
                scope.spawn(move || {
                    let transport: Box<dyn Transport> = if rank == 0 {
                        Box::new(FaultyTransport::wrap(Box::new(t), plan))
                    } else {
                        Box::new(t)
                    };
                    let mut comm = Communicator::over(
                        transport,
                        CommCostModel::default(),
                        Duration::from_millis(200),
                    )
                    .with_retry(retry);
                    try_gauntlet(&mut comm)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

#[test]
fn chaos_matrix_is_bit_identical_or_typed_error() {
    let p = 4;
    let clean = chaos_run(p, &FaultPlan::none(), RetryPolicy::none());
    let clean: Vec<GauntletOut> = clean.into_iter().map(|r| r.unwrap()).collect();

    let mut plans: Vec<String> = [
        "seed=1;delay=0.6:2",           // delays only: must still succeed exactly
        "seed=2;delay=0.9:1",           // heavier delays, still lossless
        "seed=3;drop=0.15",             // occasional loss
        "seed=4;drop=0.4",              // heavy loss
        "seed=5;drop=0.9",              // almost nothing gets through
        "seed=6;drop=0.2;delay=0.3:2",  // loss and delay together
        "seed=7;dup=0.5",               // duplicates are dropped: lossless
        "seed=8;dup=1",                 // every frame twice
        "seed=9;corrupt=0.3",           // corrupted frames are typed errors
        "seed=10;drop=0.2;dup=0.3",     // duplicates on top of loss
        "seed=11;drop=0.2;corrupt=0.2", // corruption on top of loss
        "seed=12;drop=0.1;dup=0.3;corrupt=0.2",
    ]
    .map(String::from)
    .to_vec();
    // A corrupted frame usually ends its run in timeouts, which would hide
    // a wrong value. At a low rate, some of these seeds damage one late
    // frame and nothing else, so the damage could only show as a value.
    plans.extend((0..6).map(|seed| format!("seed={seed};corrupt=0.1")));
    let mut saw_error = false;
    let mut saw_codec = false;
    for spec in &plans {
        let plan = FaultPlan::parse(spec).unwrap();
        let lossless = plan.drop_prob == 0.0 && plan.corrupt_prob == 0.0;
        let out = chaos_run(p, &plan, RetryPolicy::none());
        let mut ok_results = Vec::new();
        for (rank, r) in out.into_iter().enumerate() {
            match r {
                Ok(v) => ok_results.push((rank, v)),
                Err(e) => {
                    saw_error = true;
                    saw_codec |= plan.drop_prob == 0.0 && matches!(e, CommError::Codec { .. });
                    // Typed by construction; spot-check the context too.
                    match e {
                        CommError::Timeout { .. }
                        | CommError::Disconnected { .. }
                        | CommError::Io { .. }
                        | CommError::Codec { .. }
                        | CommError::Setup { .. } => {}
                    }
                    assert!(
                        !lossless,
                        "{spec}: a plan without loss or corruption must not error at rank {rank}"
                    );
                }
            }
        }
        if lossless {
            assert_eq!(
                ok_results.len(),
                p,
                "{spec}: a plan without loss or corruption must succeed everywhere"
            );
        }
        // Any rank that *did* finish must have computed exactly the clean
        // answer: faults may kill a run, never silently skew it.
        for (rank, v) in ok_results {
            assert_eq!(
                v, clean[rank],
                "{spec}: rank {rank} diverged from the clean run"
            );
        }
    }
    assert!(
        saw_error,
        "the drop and corrupt plans must produce at least one typed error"
    );
    assert!(
        saw_codec,
        "the corrupt plans must produce at least one Codec error"
    );
}

#[test]
fn chaos_with_retry_policy_still_terminates_cleanly() {
    // The retry policy multiplies each blocking point by its attempt
    // budget; the invariant (identical or typed error, bounded time) must
    // survive retries too.
    let p = 3;
    let clean: Vec<GauntletOut> = chaos_run(p, &FaultPlan::none(), RetryPolicy::none())
        .into_iter()
        .map(|r| r.unwrap())
        .collect();
    let plan = FaultPlan::parse("seed=11;drop=0.3").unwrap();
    let retry = RetryPolicy {
        max_attempts: 2,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(4),
        jitter: 0.5,
        deadline: Duration::from_millis(600),
        seed: 7,
    };
    for (rank, r) in chaos_run(p, &plan, retry).into_iter().enumerate() {
        if let Ok(v) = r {
            assert_eq!(v, clean[rank], "rank {rank} diverged under retries");
        }
    }
}

// ---------------------------------------------------------------------------
// Supervised recovery: lost ranks re-executed bit-identically
// ---------------------------------------------------------------------------

fn fixture() -> (PeptideDb, Grouping, Vec<Spectrum>) {
    use lbe::bio::mods::ModSpec;
    use lbe::bio::peptide::Peptide;
    use lbe::spectra::synthetic::{SyntheticDataset, SyntheticDatasetParams};
    let seqs = [
        "ELVISLIVESK",
        "ELVISLIVESR",
        "PEPTIDEK",
        "PEPTIDER",
        "SAMPLERK",
        "SAMPLERR",
        "MNKQMGGR",
        "WWYYFFHHK",
    ];
    let db = PeptideDb::from_vec(
        seqs.iter()
            .map(|s| Peptide::new(s.as_bytes(), 0, 0).unwrap())
            .collect(),
    );
    let grouping = group_peptides(&db, &GroupingParams::default());
    let queries = SyntheticDataset::generate(
        &db,
        &ModSpec::none(),
        &SyntheticDatasetParams {
            num_spectra: 10,
            ..Default::default()
        },
        11,
    );
    (db, grouping, queries.spectra)
}

/// The gather collective's tag (`collectives.rs` reserves the tags from
/// `COLLECTIVE_TAG_BASE` up: barrier up, barrier down, gather, ...).
const TAG_GATHER: Tag = COLLECTIVE_TAG_BASE + 2;

/// Clean (unsupervised) sim run, the byte-exact baseline.
fn clean_report(
    db: &PeptideDb,
    grouping: &Grouping,
    queries: &[Spectrum],
    cfg: &EngineConfig,
    ranks: usize,
) -> DistributedSearchReport {
    let out = Cluster::new(ClusterConfig::new(ranks))
        .run(|comm| cluster_search_rank(comm, db, grouping, queries, cfg).unwrap());
    out.results
        .into_iter()
        .next()
        .flatten()
        .expect("rank 0 report")
}

/// Supervised run over a hand-built mesh with `plan` on the master's
/// transport. Returns the master's report and each worker's outcome.
#[allow(clippy::type_complexity)]
fn supervised_run(
    db: &PeptideDb,
    grouping: &Grouping,
    queries: &[Spectrum],
    cfg: &EngineConfig,
    ranks: usize,
    plan: &FaultPlan,
) -> (
    DistributedSearchReport,
    Vec<Result<Option<DistributedSearchReport>, CommError>>,
) {
    let endpoints = SimTransport::mesh(ranks);
    let mut results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = endpoints
            .into_iter()
            .enumerate()
            .map(|(rank, t)| {
                let plan = plan.clone();
                scope.spawn(move || {
                    if rank == 0 {
                        let transport = FaultyTransport::wrap(Box::new(t), plan);
                        let mut comm = Communicator::over(
                            Box::new(transport),
                            CommCostModel::default(),
                            Duration::from_millis(500),
                        )
                        .with_retry(RetryPolicy::standard());
                        cluster_search_rank_supervised(&mut comm, db, grouping, queries, cfg)
                    } else {
                        let mut comm = Communicator::over(
                            Box::new(t),
                            CommCostModel::default(),
                            Duration::from_millis(500),
                        );
                        cluster_search_rank(&mut comm, db, grouping, queries, cfg)
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let workers = results.split_off(1);
    let report = results
        .pop()
        .unwrap()
        .expect("supervised master must not error")
        .expect("master returns the report");
    (report, workers)
}

#[test]
fn supervised_clean_run_matches_unsupervised() {
    let (db, grouping, queries) = fixture();
    let cfg = EngineConfig::with_policy(PartitionPolicy::Cyclic);
    let plain = clean_report(&db, &grouping, &queries, &cfg, 3);
    let sup = Cluster::new(ClusterConfig::new(3))
        .run(|comm| cluster_search_rank_supervised(comm, &db, &grouping, &queries, &cfg).unwrap());
    let sup = sup
        .results
        .into_iter()
        .next()
        .flatten()
        .expect("rank 0 report");
    assert_eq!(sup.psms, plain.psms);
    assert_eq!(sup.total_candidates, plain.total_candidates);
    assert_eq!(sup.per_rank_stats, plain.per_rank_stats);
    assert_eq!(sup.partition_sizes, plain.partition_sizes);
    // Supervision is recorded even when nothing went wrong; the plain run
    // records nothing.
    let rec = sup
        .recovery
        .as_ref()
        .expect("supervised runs record recovery");
    assert!(rec.ranks_lost.is_empty());
    assert_eq!(rec.queries_reexecuted, 0);
    assert!(plain.recovery.is_none());
}

#[test]
fn worker_lost_mid_gather_is_recovered_bit_identically() {
    let (db, grouping, queries) = fixture();
    let cfg = EngineConfig::with_policy(PartitionPolicy::Cyclic);
    let want = clean_report(&db, &grouping, &queries, &cfg, 3);

    // Master ops against peer 2: barrier-up recv (1), barrier-down send
    // (2), PSM-gather recv (3). Severing at op 3 models a worker that died
    // after searching but before delivering results.
    let plan = FaultPlan::parse("kill=2:3").unwrap();
    let (report, workers) = supervised_run(&db, &grouping, &queries, &cfg, 3, &plan);
    assert_eq!(
        report.psms, want.psms,
        "recovered PSMs must be byte-identical"
    );
    assert_eq!(report.total_candidates, want.total_candidates);
    let rec = report.recovery.as_ref().expect("recovery recorded");
    assert_eq!(rec.ranks_lost, vec![2]);
    assert_eq!(rec.queries_reexecuted, queries.len());
    // Rank 1 was untouched. Rank 2 searched its share, but its gather send
    // races the master's sever: it either lands before the link goes
    // (rank 2 returns `Ok`) or finds it gone, and nothing else.
    assert!(workers[0].is_ok());
    match &workers[1] {
        Ok(_) => {}
        Err(CommError::Disconnected {
            rank: 2,
            peer: 0,
            tag: Some(tag),
        }) if *tag == TAG_GATHER => {}
        Err(e) => panic!("rank 2 may only lose its gather send, not fail with {e:?}"),
    }
}

#[test]
fn worker_lost_at_barrier_is_recovered_bit_identically() {
    let (db, grouping, queries) = fixture();
    let cfg = EngineConfig::with_policy(PartitionPolicy::Cyclic);
    let want = clean_report(&db, &grouping, &queries, &cfg, 3);

    // Severed at the very first op against it: the master never even
    // completes the opening barrier with rank 2 and must re-execute its
    // whole share.
    let plan = FaultPlan::parse("kill=2:1").unwrap();
    let (report, workers) = supervised_run(&db, &grouping, &queries, &cfg, 3, &plan);
    assert_eq!(
        report.psms, want.psms,
        "recovered PSMs must be byte-identical"
    );
    let rec = report.recovery.as_ref().expect("recovery recorded");
    assert_eq!(rec.ranks_lost, vec![2]);
    assert_eq!(rec.queries_reexecuted, queries.len());
    // Rank 1 finishes; the abandoned rank 2 times out waiting for the
    // barrier release it will never get — a typed error, not a hang.
    assert!(workers[0].is_ok());
    assert!(matches!(
        workers[1],
        Err(CommError::Timeout { .. }) | Err(CommError::Disconnected { .. })
    ));
}

// ---------------------------------------------------------------------------
// TCP self-healing
// ---------------------------------------------------------------------------

/// Two raw TCP transports over loopback (no Communicator), so the test
/// can drive `sever` directly.
fn tcp_pair() -> (TcpTransport, TcpTransport) {
    let listeners: Vec<TcpListener> = (0..2)
        .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    let hostfile =
        Hostfile::from_addrs(listeners.iter().map(|l| l.local_addr().unwrap()).collect());
    let hf = &hostfile;
    let mut ts = std::thread::scope(|scope| {
        let handles: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(rank, listener)| {
                scope.spawn(move || {
                    TcpTransport::connect_with_listener(hf, rank, listener, &TcpConfig::default())
                        .unwrap()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect::<Vec<_>>()
    });
    let t1 = ts.pop().unwrap();
    let t0 = ts.pop().unwrap();
    (t0, t1)
}

fn byte_frame(bytes: &[u8]) -> lbe::cluster::Frame {
    lbe::cluster::Frame {
        bytes: bytes.to_vec(),
        sent_at: 0.0,
        sim_bytes: bytes.len(),
    }
}

#[test]
fn tcp_severed_link_heals_transparently_with_next_epoch() {
    let (t0, t1) = tcp_pair();
    std::thread::scope(|scope| {
        let a = scope.spawn(move || {
            let mut t0 = t0;
            // Before the cut.
            let got = t0.recv(1, 5, Duration::from_secs(5)).unwrap().bytes;
            assert_eq!(got, b"one");
            // Rank 1 severs now; our next receive trips over the dead
            // socket, heals on our retained listener (epoch 1), and still
            // delivers the frame sent on the fresh stream.
            let got = t0.recv(1, 5, Duration::from_secs(5)).unwrap().bytes;
            assert_eq!(got, b"two");
            t0.send(1, 6, byte_frame(b"ack")).unwrap();
        });
        let b = scope.spawn(move || {
            let mut t1 = t1;
            t1.send(0, 5, byte_frame(b"one")).unwrap();
            // Give rank 0 a moment to finish reading "one" on the old
            // stream before we tear it down under it.
            std::thread::sleep(Duration::from_millis(100));
            t1.sever(0);
            // The dialing side of the heal: this send redials rank 0 and
            // handshakes with the next epoch before writing.
            t1.send(0, 5, byte_frame(b"two")).unwrap();
            let got = t1.recv(0, 6, Duration::from_secs(5)).unwrap().bytes;
            assert_eq!(got, b"ack");
        });
        a.join().unwrap();
        b.join().unwrap();
    });
}

#[test]
fn tcp_healing_a_dead_peer_fails_as_typed_disconnect() {
    let (t0, t1) = tcp_pair();
    drop(t0); // rank 0 is gone: listener and sockets closed
    let mut t1 = t1;
    t1.sever(0);
    let err = t1.send(0, 5, byte_frame(b"hello")).unwrap_err();
    assert!(
        matches!(
            err,
            CommError::Disconnected {
                rank: 1,
                peer: 0,
                ..
            }
        ),
        "{err}"
    );
}
