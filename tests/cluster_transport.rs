//! PR 7's transport contract, tested from the outside:
//!
//! * the **collectives equivalence suite** — one SPMD program exercising
//!   every collective with mixed payload types, run on both the threaded
//!   simulator and a real loopback-TCP mesh, asserting bit-identical
//!   results;
//! * **typed failure surfaces** — timeouts and codec mismatches on the TCP
//!   backend (and a mistyped receive on the simulator too) come back as
//!   `CommError` values with rank/tag context, never panics;
//! * **codec fuzzing** — garbage bytes, truncations, and forged length
//!   prefixes fed to the wire decoder produce typed errors, never panics
//!   or huge allocations;
//! * the **CLI layer** — `lbe cluster` hostfile validation errors, and the
//!   end-to-end distributed build + search over both backends diffed
//!   against the committed goldens.

use lbe::cluster::wire::{decode_msg, encode_msg};
use lbe::cluster::{
    Cluster, ClusterConfig, CommCostModel, CommError, Communicator, Hostfile, TcpConfig,
    TcpTransport, WireError,
};
use proptest::prelude::*;
use std::net::TcpListener;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Harness: run the same rank program on both backends
// ---------------------------------------------------------------------------

/// Runs `f` on every rank of a real TCP mesh over loopback, one OS thread
/// per rank (race-free port handoff: the listeners are bound first and
/// passed in, so no other process can steal a port between hostfile
/// generation and connect). Returns results in rank order.
fn tcp_cluster<T, F>(ranks: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&mut Communicator) -> T + Sync,
{
    let listeners: Vec<TcpListener> = (0..ranks)
        .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    let hostfile =
        Hostfile::from_addrs(listeners.iter().map(|l| l.local_addr().unwrap()).collect());
    let f = &f;
    let hf = &hostfile;
    std::thread::scope(|scope| {
        let handles: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(rank, listener)| {
                scope.spawn(move || {
                    let transport = TcpTransport::connect_with_listener(
                        hf,
                        rank,
                        listener,
                        &TcpConfig::default(),
                    )
                    .unwrap();
                    let mut comm = Communicator::over(
                        Box::new(transport),
                        CommCostModel::default(),
                        Duration::from_secs(30),
                    );
                    f(&mut comm)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// The equivalence program: every collective, mixed payload types, with
/// data flowing through each rank so a single wrong byte anywhere changes
/// the output. Returns everything it computed.
#[allow(clippy::type_complexity)]
fn collective_gauntlet(
    comm: &mut Communicator,
) -> (
    String,
    Option<Vec<(u32, String)>>,
    u64,
    Vec<(u16, Vec<u8>)>,
    (i64, f64),
    Option<u64>,
    f64,
    Vec<f64>,
) {
    let me = comm.rank();
    let p = comm.size();

    // Point-to-point ring warm-up: me -> right, recv from left.
    comm.try_send((me + 1) % p, 7, (me as u32, format!("from-{me}")), 16)
        .unwrap();
    let (left_rank, left_msg) = comm.try_recv::<(u32, String)>((me + p - 1) % p, 7).unwrap();
    assert_eq!(left_rank as usize, (me + p - 1) % p);

    let bcast = comm
        .try_broadcast(
            0,
            (me == 0).then(|| format!("root says: {left_msg}")),
            left_msg.len(),
        )
        .unwrap();
    let gathered = comm
        .try_gather(0, (me as u32, bcast.clone()), bcast.len() + 4)
        .unwrap();
    let reduced = comm
        .try_all_reduce((me as u64 + 1) * 100, |a, b| a + b, 8)
        .unwrap();
    let all = comm
        .try_all_gather((me as u16, vec![me as u8; me + 1]), me + 3)
        .unwrap();
    let scattered = comm
        .try_scatter(
            0,
            (me == 0).then(|| (0..p).map(|r| (-(r as i64), r as f64 * 0.5)).collect()),
            16,
        )
        .unwrap();
    let max_at_root = comm
        .try_reduce(0, reduced + me as u64, u64::max, 8)
        .unwrap();
    let sum = comm.try_all_reduce(scattered.1, |a, b| a + b, 8).unwrap();
    let times = comm.try_all_gather(me as f64, 8).unwrap();
    comm.try_barrier().unwrap();
    (
        bcast,
        gathered,
        reduced,
        all,
        scattered,
        max_at_root,
        sum,
        times,
    )
}

#[test]
fn collectives_bit_identical_across_backends() {
    let p = 4;
    let sim = Cluster::new(ClusterConfig::new(p)).run(collective_gauntlet);
    let tcp = tcp_cluster(p, collective_gauntlet);
    assert_eq!(sim.results.len(), tcp.len());
    for (rank, (s, t)) in sim.results.iter().zip(&tcp).enumerate() {
        // Everything except the clock samples (virtual vs wall) must agree
        // bit-for-bit.
        assert_eq!(s.0, t.0, "broadcast differs at rank {rank}");
        assert_eq!(s.1, t.1, "gather differs at rank {rank}");
        assert_eq!(s.2, t.2, "all_reduce differs at rank {rank}");
        assert_eq!(s.3, t.3, "all_gather differs at rank {rank}");
        assert_eq!(s.4, t.4, "scatter differs at rank {rank}");
        assert_eq!(s.5, t.5, "reduce differs at rank {rank}");
        assert_eq!(s.6, t.6, "all_reduce_f64 differs at rank {rank}");
        assert_eq!(s.7, t.7, "all_gather_f64 differs at rank {rank}");
    }
    // Spot-check the sim values themselves so an agreeing-but-wrong pair
    // of backends cannot pass.
    let (_, gathered, reduced, ..) = &sim.results[0];
    assert_eq!(gathered.as_ref().unwrap().len(), p);
    assert_eq!(*reduced, (1..=p as u64).map(|r| r * 100).sum::<u64>());
    for (rank, r) in sim.results.iter().enumerate() {
        assert_eq!(r.4, (-(rank as i64), rank as f64 * 0.5), "scatter payload");
    }
}

#[test]
fn tcp_large_payload_round_trip() {
    // Bigger than the 64 KiB preallocation cap, so the capped-prealloc
    // read path is exercised with a genuine multi-chunk payload.
    let blob: Vec<u8> = (0..200_000u32)
        .map(|i| (i.wrapping_mul(2654435761)) as u8)
        .collect();
    let out = tcp_cluster(2, |comm| {
        if comm.rank() == 0 {
            let n = blob.len();
            comm.try_send(1, 42, blob.clone(), n).unwrap();
            comm.try_recv::<u64>(1, 43).unwrap()
        } else {
            let got = comm.try_recv::<Vec<u8>>(0, 42).unwrap();
            assert_eq!(got, blob);
            comm.try_send(0, 43, got.len() as u64, 8).unwrap();
            0
        }
    });
    assert_eq!(out[0], blob.len() as u64);
}

// ---------------------------------------------------------------------------
// Typed failure surfaces
// ---------------------------------------------------------------------------

#[test]
fn tcp_self_recv_miss_is_typed_timeout() {
    // A rank is single-threaded: a self-receive with nothing in the
    // loopback queue can never be satisfied, so it must fail fast as a
    // typed Timeout carrying the (rank, src, tag) context — not block for
    // the full deadline, and never panic.
    let out = tcp_cluster(2, |comm| {
        let me = comm.rank();
        let err = comm.try_recv::<u64>(me, 99).unwrap_err();
        let shape = match err {
            CommError::Timeout { rank, src, tag } => (rank, src, tag),
            other => panic!("expected Timeout, got {other}"),
        };
        comm.try_barrier().unwrap();
        shape
    });
    assert_eq!(out, vec![(0, 0, 99), (1, 1, 99)]);
}

#[test]
fn tcp_peer_death_is_typed_disconnect() {
    // Rank 0 exits immediately; rank 1's pending receive must surface the
    // closed socket as a typed Disconnected naming the dead peer.
    let out = tcp_cluster(2, |comm| {
        if comm.rank() == 0 {
            return (0, 0); // drop the transport: sockets close
        }
        let err = comm.try_recv::<u64>(0, 5).unwrap_err();
        match err {
            CommError::Disconnected { rank, peer, .. } => (rank, peer),
            other => panic!("expected Disconnected, got {other}"),
        }
    });
    assert_eq!(out[1], (1, 0));
}

#[test]
fn tcp_type_mismatch_is_typed_codec_error() {
    // Both backends carry the same bytes, so the simulator gives the same
    // typed error for the same fault.
    let program = |comm: &mut Communicator| {
        if comm.rank() == 0 {
            comm.try_send(1, 5, 123u32, 4).unwrap();
        } else {
            let err = comm.try_recv::<String>(0, 5).unwrap_err();
            match err {
                CommError::Codec {
                    rank,
                    src,
                    tag,
                    err,
                } => {
                    assert_eq!((rank, src, tag), (1, 0, 5));
                    assert!(matches!(err, WireError::TypeMismatch { .. }), "{err}");
                }
                other => panic!("expected Codec, got {other}"),
            }
        }
        comm.try_barrier().unwrap();
    };
    Cluster::new(ClusterConfig::new(2)).run(program);
    tcp_cluster(2, program);
}

// ---------------------------------------------------------------------------
// Codec fuzzing
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary bytes never panic the typed decoder — any outcome must be
    /// a clean `Ok`/`Err`.
    #[test]
    fn decoder_survives_garbage(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_msg::<u64>(&bytes);
        let _ = decode_msg::<String>(&bytes);
        let _ = decode_msg::<Vec<u32>>(&bytes);
        let _ = decode_msg::<(u32, String, Vec<f64>)>(&bytes);
        let _ = decode_msg::<Option<Vec<(u16, u16)>>>(&bytes);
    }

    /// Every strict prefix of a valid message fails with a typed error —
    /// truncation can never be mistaken for a shorter valid value.
    #[test]
    fn truncation_always_errors(v in prop::collection::vec(any::<u32>(), 0..20), s in "[a-zA-Z0-9 ]{0,40}") {
        let msg = encode_msg(&(v, s));
        for cut in 0..msg.len() {
            prop_assert!(decode_msg::<(Vec<u32>, String)>(&msg[..cut]).is_err(), "cut={cut}");
        }
    }

    /// A forged element count in a `Vec` length prefix is rejected before
    /// any allocation of that size can happen.
    #[test]
    fn forged_vec_length_errors(n in 257u64..u64::MAX) {
        // Hand-build: fingerprint of Vec<u64> + forged count + 256 bytes.
        let mut msg = encode_msg(&vec![0u64; 4]);
        let fake = encode_msg(&n);
        // Overwrite the count field (bytes 4..12) with the forged one —
        // the payload still holds only 4 elements (32 bytes).
        msg[4..12].copy_from_slice(&fake[4..12]);
        prop_assert!(matches!(
            decode_msg::<Vec<u64>>(&msg),
            Err(WireError::Truncated) | Err(WireError::Malformed(_))
        ));
    }

    /// Round trip: encode → decode is the identity for a composite type.
    #[test]
    fn round_trip_composite(
        a in any::<u64>(),
        b in "[a-zA-Z0-9 ]{0,32}",
        c in prop::collection::vec(any::<f32>(), 0..16),
        d_val in any::<i64>(),
        d_flag in any::<bool>(),
        d_some in any::<bool>(),
    ) {
        let v = (a, b, c, d_some.then_some((d_val, d_flag)));
        let decoded = decode_msg::<(u64, String, Vec<f32>, Option<(i64, bool)>)>(&encode_msg(&v)).unwrap();
        // NaN-safe comparison: compare bit patterns for the float payload.
        prop_assert_eq!(decoded.0, v.0);
        prop_assert_eq!(&decoded.1, &v.1);
        prop_assert_eq!(
            decoded.2.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
            v.2.iter().map(|f| f.to_bits()).collect::<Vec<_>>()
        );
        prop_assert_eq!(decoded.3, v.3);
    }
}

// ---------------------------------------------------------------------------
// CLI layer: hostfile validation + end-to-end build/search over both backends
// ---------------------------------------------------------------------------

fn run_cli(cmdline: &[String]) -> Result<String, String> {
    let args = lbe::cli::Args::parse(cmdline.iter().cloned()).map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    lbe::cli::dispatch(&args, &mut out)
        .map_err(|e| e.to_string())
        .map(|()| String::from_utf8(out).unwrap())
}

fn cli(line: &str) -> Result<String, String> {
    run_cli(
        &line
            .split_whitespace()
            .map(String::from)
            .collect::<Vec<_>>(),
    )
}

fn tmpdir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir()
        .join("lbe_cluster_cli_tests")
        .join(name);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Digests the checked-in corpus once per test dir and returns the peptide
/// FASTA path.
fn corpus_db(dir: &std::path::Path) -> String {
    let db = dir.join("corpus_pep.fasta").to_string_lossy().to_string();
    cli(&format!("digest --in tests/data/corpus.fasta --out {db}")).unwrap();
    db
}

#[test]
fn cluster_cli_rejects_backend_misuse() {
    let err = cli("cluster search --db x --queries y --out z").unwrap_err();
    assert!(err.contains("exactly one backend"), "{err}");
    let err = cli("cluster search --sim --launch --db x --queries y --out z").unwrap_err();
    assert!(err.contains("exactly one backend"), "{err}");
    let err = cli("cluster search --sim --rank 1 --db x --queries y --out z").unwrap_err();
    assert!(
        err.contains("--rank only makes sense with --hostfile"),
        "{err}"
    );
    let err = cli("cluster frobnicate --sim").unwrap_err();
    assert!(err.contains("cluster needs a mode"), "{err}");
    let err = cli("cluster search --sim --ranks 0 --db x --queries y --out z").unwrap_err();
    assert!(err.contains("--ranks must be at least 1"), "{err}");
    // `cluster build` takes none of the search flags: they are refused
    // before any work, and no bench file is written.
    let bench = tmpdir("build_flags").join("b.json");
    std::fs::remove_file(&bench).ok();
    let err = cli(&format!(
        "cluster build --sim --db x --out y --top-k 3 --queries nope.ms2 --bench-out {}",
        bench.display()
    ))
    .unwrap_err();
    assert!(err.starts_with("cluster build: unknown option --"), "{err}");
    assert!(!bench.exists());
    let err = cli("cluster build --sim --supervise --db x --out y").unwrap_err();
    assert!(
        err.starts_with("cluster build: unknown option --supervise"),
        "{err}"
    );
}

#[test]
fn cluster_cli_hostfile_errors_are_clean() {
    let d = tmpdir("hostfile_errors");
    let hf = |name: &str, text: &str| {
        let p = d.join(name);
        std::fs::write(&p, text).unwrap();
        p.to_string_lossy().to_string()
    };

    // Duplicate rank.
    let path = hf("dup", "0 127.0.0.1:9001\n0 127.0.0.1:9002\n");
    let err = cli(&format!(
        "cluster search --hostfile {path} --rank 0 --db x --queries y --out z"
    ))
    .unwrap_err();
    assert!(err.contains("duplicate rank"), "{err}");

    // Unparseable address.
    let path = hf("badaddr", "not-an-address\n");
    let err = cli(&format!(
        "cluster search --hostfile {path} --rank 0 --db x --queries y --out z"
    ))
    .unwrap_err();
    assert!(err.contains(&path), "{err}");

    // --ranks cross-check mismatch.
    let path = hf("two", "127.0.0.1:9001\n127.0.0.1:9002\n");
    let err = cli(&format!(
        "cluster search --hostfile {path} --rank 0 --ranks 4 --db x --queries y --out z"
    ))
    .unwrap_err();
    assert!(err.contains("2 ranks but 4 were requested"), "{err}");

    // --rank out of range.
    let err = cli(&format!(
        "cluster search --hostfile {path} --rank 5 --db x --queries y --out z"
    ))
    .unwrap_err();
    assert!(err.contains("out of range"), "{err}");

    // Missing --rank.
    let err = cli(&format!(
        "cluster search --hostfile {path} --db x --queries y --out z"
    ))
    .unwrap_err();
    assert!(err.contains("--rank"), "{err}");

    // Missing file.
    let err = cli(&format!(
        "cluster search --hostfile {} --rank 0 --db x --queries y --out z",
        d.join("nope").display()
    ))
    .unwrap_err();
    assert!(err.contains("hostfile"), "{err}");
}

#[test]
fn cluster_search_sim_matches_committed_golden() {
    let d = tmpdir("search_sim");
    let db = corpus_db(&d);
    let out = d.join("r.tsv").to_string_lossy().to_string();
    let bench = d.join("b.json").to_string_lossy().to_string();
    let msg = cli(&format!(
        "cluster search --sim --ranks 4 --db {db} --queries tests/data/corpus.ms2 \
         --out {out} --bench-out {bench}"
    ))
    .unwrap();
    assert!(msg.contains("cluster search (sim, 4 ranks)"), "{msg}");
    assert_eq!(
        std::fs::read_to_string(&out).unwrap(),
        std::fs::read_to_string("tests/data/expected_cluster_search_text.tsv").unwrap()
    );
    let bench_json = std::fs::read_to_string(&bench).unwrap();
    assert!(bench_json.contains("\"backend\": \"sim\""), "{bench_json}");
    assert!(
        bench_json.contains("\"time_base\": \"virtual\""),
        "{bench_json}"
    );
    assert!(
        bench_json.contains("\"load_imbalance_pct\""),
        "{bench_json}"
    );
}

/// The distributed report and the single-process chunked-index report are
/// **byte-identical**: both rank score ties on *global* `(peptide,
/// modform)` ids before any top-k truncation — the chunked path translates
/// chunk-local ids inside the searcher (pre-heap), the distributed merge
/// translates via the mapping table before its sort. A regression in
/// either layer (e.g. truncating on local-id order again) shows up here as
/// a divergence at an exact-score tie crossing the top-k boundary, which
/// the corpus deliberately contains (scan 7, slot 10).
#[test]
fn cluster_golden_is_byte_identical_to_search_golden() {
    let single = std::fs::read_to_string("tests/data/expected_search_text.tsv").unwrap();
    let cluster = std::fs::read_to_string("tests/data/expected_cluster_search_text.tsv").unwrap();
    for (ln, (s, c)) in single.lines().zip(cluster.lines()).enumerate() {
        assert_eq!(s, c, "goldens diverge at line {}", ln + 1);
    }
    assert_eq!(single, cluster);
}

#[test]
fn cluster_search_tcp_matches_sim_byte_for_byte() {
    let d = tmpdir("search_tcp");
    let db = corpus_db(&d);
    let sim_out = d.join("sim.tsv").to_string_lossy().to_string();
    cli(&format!(
        "cluster search --sim --ranks 3 --db {db} --queries tests/data/corpus.ms2 --out {sim_out}"
    ))
    .unwrap();

    // Real TCP mesh: one thread per rank, each going through the full CLI
    // path with a pre-written hostfile.
    let ranks = 3;
    let addrs: Vec<_> = {
        let ls: Vec<TcpListener> = (0..ranks)
            .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
            .collect();
        ls.iter().map(|l| l.local_addr().unwrap()).collect()
    };
    let hostfile = d.join("hostfile");
    std::fs::write(
        &hostfile,
        addrs
            .iter()
            .enumerate()
            .map(|(r, a)| format!("{r} {a}\n"))
            .collect::<String>(),
    )
    .unwrap();
    let outs: Vec<String> = (0..ranks)
        .map(|r| d.join(format!("tcp-{r}.tsv")).to_string_lossy().to_string())
        .collect();
    std::thread::scope(|scope| {
        for (r, out) in outs.iter().enumerate() {
            let db = &db;
            let hostfile = &hostfile;
            scope.spawn(move || {
                cli(&format!(
                    "cluster search --hostfile {} --rank {r} --ranks 3 --db {db} \
                     --queries tests/data/corpus.ms2 --out {out}",
                    hostfile.display()
                ))
                .unwrap();
            });
        }
    });
    assert_eq!(
        std::fs::read_to_string(&outs[0]).unwrap(),
        std::fs::read_to_string(&sim_out).unwrap(),
        "TCP report must be byte-identical to the simulator report"
    );
    // Non-root ranks write nothing.
    for out in &outs[1..] {
        assert!(!std::path::Path::new(out).exists());
    }
}

#[test]
fn cluster_build_tcp_shards_byte_identical_to_sim() {
    let d = tmpdir("build_both");
    let db = corpus_db(&d);
    let sim_dir = d.join("shards_sim");
    cli(&format!(
        "cluster build --sim --ranks 2 --db {db} --out {}",
        sim_dir.display()
    ))
    .unwrap();

    let ranks = 2;
    let addrs: Vec<_> = {
        let ls: Vec<TcpListener> = (0..ranks)
            .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
            .collect();
        ls.iter().map(|l| l.local_addr().unwrap()).collect()
    };
    let hostfile = d.join("hostfile");
    std::fs::write(
        &hostfile,
        addrs
            .iter()
            .enumerate()
            .map(|(r, a)| format!("{r} {a}\n"))
            .collect::<String>(),
    )
    .unwrap();
    let tcp_dir = d.join("shards_tcp");
    std::thread::scope(|scope| {
        for r in 0..ranks {
            let db = &db;
            let hostfile = &hostfile;
            let tcp_dir = &tcp_dir;
            scope.spawn(move || {
                cli(&format!(
                    "cluster build --hostfile {} --rank {r} --db {db} --out {}",
                    hostfile.display(),
                    tcp_dir.display()
                ))
                .unwrap();
            });
        }
    });

    for name in ["manifest.tsv", "shard-0000.slm2", "shard-0001.slm2"] {
        let a = std::fs::read(sim_dir.join(name)).unwrap();
        let b = std::fs::read(tcp_dir.join(name)).unwrap();
        assert_eq!(a, b, "{name} differs between sim and TCP builds");
    }
    // The shards are loadable, validated v2 containers covering the db.
    let manifest = std::fs::read_to_string(sim_dir.join("manifest.tsv")).unwrap();
    assert!(manifest.starts_with("rank\tpeptides\tspectra\tions\tbytes\n"));
    for rank in 0..ranks {
        lbe::index::read_index_path(sim_dir.join(format!("shard-{rank:04}.slm2"))).unwrap();
    }
}
