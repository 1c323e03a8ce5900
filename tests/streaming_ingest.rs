//! Streaming real-data ingest: golden-file regression tests over the
//! checked-in `tests/data/` corpus, streamed == eager reader equivalence,
//! proptest round trips through every format, and the hand-built msconvert
//! regression file pinning the two former mzML reader bugs (hardcoded
//! binary precision; whole-file failure on MS1 survey scans).

use lbe::cli::args::Args;
use lbe::cli::commands::dispatch;
use lbe::spectra::reader::{SpectrumFormat, SpectrumReader};
use lbe::spectra::spectrum::{Peak, Spectrum};
use lbe::spectra::{read_mgf, read_ms2, read_mzml_with_stats, write_mgf, write_ms2, write_mzml};
use proptest::prelude::*;

fn data(name: &str) -> String {
    format!("{}/tests/data/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn tmpdir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join("lbe_streaming_ingest").join(name);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn cli(cmdline: &str) -> String {
    let args = Args::parse(cmdline.split_whitespace().map(String::from)).unwrap();
    let mut out = Vec::new();
    dispatch(&args, &mut out).unwrap_or_else(|e| panic!("{cmdline}: {e}"));
    String::from_utf8(out).unwrap()
}

/// The full CLI pipeline over the checked-in corpus must reproduce the
/// committed reports byte for byte — the in-process twin of the CI job's
/// `diff` step.
#[test]
fn golden_corpus_cli_reports_match_committed() {
    let d = tmpdir("golden");
    let p = |n: &str| d.join(n).to_string_lossy().to_string();
    let msg = cli(&format!(
        "digest --in {} --out {}",
        data("corpus.fasta"),
        p("pep.fasta")
    ));
    assert!(msg.contains("6 proteins"), "{msg}");
    std::fs::remove_dir_all(d.join("store")).ok();
    cli(&format!(
        "index init --db {} --out {}",
        p("pep.fasta"),
        p("store")
    ));
    for (queries, expected) in [
        ("corpus.ms2", "expected_search_text.tsv"),
        ("corpus.mgf", "expected_search_text.tsv"),
        ("corpus.mzML", "expected_search_mzml.tsv"),
    ] {
        cli(&format!(
            "search --index {} --queries {} --out {}",
            p("store"),
            data(queries),
            p("report.tsv")
        ));
        let got = std::fs::read_to_string(p("report.tsv")).unwrap();
        let want = std::fs::read_to_string(data(expected)).unwrap();
        assert_eq!(got, want, "{queries} report drifted from {expected}");
    }
}

/// `lbe index init` over the checked-in corpus must write the exact store
/// the committed rows describe — one chunk and many, with and without
/// modforms: per configuration, the length and CRC-32 of `MANIFEST-000001`,
/// then each chunk's raw image length and content hash (its blob's name) as
/// `lbe index stats` prints them. The search goldens above only pin what a
/// search *finds*; this pins entry order, posting order, the bin directory
/// and the layout of every chunk, and the manifest around them.
#[test]
fn golden_corpus_index_bytes_match_committed() {
    let d = tmpdir("index_crc");
    let p = |n: &str| d.join(n).to_string_lossy().to_string();
    cli(&format!(
        "digest --in {} --out {}",
        data("corpus.fasta"),
        p("pep.fasta")
    ));
    let mut got = Vec::new();
    for mods in ["none", "paper"] {
        for chunk in ["default", "64"] {
            let chunk_flag = match chunk {
                "default" => String::new(),
                n => format!(" --chunk-size {n}"),
            };
            let store = p(&format!("{mods}_{chunk}"));
            std::fs::remove_dir_all(&store).ok();
            cli(&format!(
                "index init --db {} --out {store} --mods {mods}{chunk_flag}",
                p("pep.fasta")
            ));
            let manifest = std::fs::read(format!("{store}/MANIFEST-000001")).unwrap();
            got.push(format!(
                "{mods}\t{chunk}\tMANIFEST-000001\t{}\t{:08x}",
                manifest.len(),
                lbe::index::format::crc32(&manifest)
            ));
            // Chunk rows: `chunk hash gen live comp raw stored [lo, hi]`.
            let stats = cli(&format!("index stats --index {store}"));
            got.extend(
                stats
                    .lines()
                    .map(|l| l.split_whitespace().collect::<Vec<_>>())
                    .filter(|f| f.len() > 7 && f[1].len() == 16 && f[0].parse::<usize>().is_ok())
                    .map(|f| format!("{mods}\t{chunk}\tchunk{}\t{}\t{}", f[0], f[5], f[1])),
            );
        }
    }
    let want = std::fs::read_to_string(data("expected_index.crc")).unwrap();
    let want: Vec<&str> = want.lines().filter(|l| !l.starts_with('#')).collect();
    assert_eq!(want.len(), 28, "expected_index.crc lost a row");
    assert_eq!(got, want, "index bytes drifted");
}

/// The generation store CI's lifecycle step builds — `init --chunk-size 64`
/// on the first half of the digested corpus, `append` the rest, `compact`,
/// `gc` — must list exactly the committed blobs: content hash (the blob's
/// file name), generation, liveness, whether it is stored compressed, raw
/// and stored byte counts, as `lbe index stats` prints them. The hash names
/// a file on disk and is a function of the chunk's CRC-32 and length; the
/// stored size is the compressor's output. Neither may move without a
/// format revision, whatever is done to how they are *computed*.
#[test]
fn golden_corpus_store_blob_names_and_sizes_match_committed() {
    let d = tmpdir("store_hashes");
    let p = |n: &str| d.join(n).to_string_lossy().to_string();
    std::fs::remove_dir_all(d.join("store")).ok();
    cli(&format!(
        "digest --in {} --out {}",
        data("corpus.fasta"),
        p("pep.fasta")
    ));
    // Split on a 2-line FASTA record boundary, as the CI step does.
    let pep = std::fs::read_to_string(p("pep.fasta")).unwrap();
    let lines: Vec<&str> = pep.lines().collect();
    let half = lines.len() / 4 * 2;
    let join = |ls: &[&str]| ls.iter().map(|l| format!("{l}\n")).collect::<String>();
    std::fs::write(p("base.fasta"), join(&lines[..half])).unwrap();
    std::fs::write(p("delta.fasta"), join(&lines[half..])).unwrap();
    cli(&format!(
        "index init --db {} --out {} --chunk-size 64",
        p("base.fasta"),
        p("store")
    ));
    cli(&format!(
        "index append --index {} --db {}",
        p("store"),
        p("delta.fasta")
    ));
    cli(&format!("index compact --index {}", p("store")));
    cli(&format!("index gc --index {}", p("store")));
    let stats = cli(&format!("index stats --index {}", p("store")));
    // Chunk rows: `chunk hash gen live comp raw stored [lo, hi]`.
    let got: Vec<String> = stats
        .lines()
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .filter(|f| f.len() > 7 && f[1].len() == 16 && f[0].parse::<usize>().is_ok())
        .map(|f| f[1..7].join("\t"))
        .collect();
    let want = std::fs::read_to_string(data("expected_store_hashes.tsv")).unwrap();
    let want: Vec<&str> = want.lines().filter(|l| !l.starts_with('#')).collect();
    assert_eq!(want.len(), 11, "expected_store_hashes.tsv lost a row");
    assert_eq!(got, want, "store blobs drifted:\n{stats}");
    // The names are the files: one blob per row, nothing else, each as
    // large as its `stored` column says.
    let mut on_disk: Vec<(String, u64)> = std::fs::read_dir(d.join("store").join("chunks"))
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().to_string_lossy().into_owned(),
                e.metadata().unwrap().len(),
            )
        })
        .collect();
    let mut listed: Vec<(String, u64)> = want
        .iter()
        .map(|row| {
            let f: Vec<&str> = row.split('\t').collect();
            (format!("{}.chk", f[0]), f[5].parse().unwrap())
        })
        .collect();
    on_disk.sort();
    listed.sort();
    assert_eq!(on_disk, listed);
}

/// `lbe simulate --csv` over the checked-in corpus must reproduce the
/// committed virtual-time report byte for byte: query and execution
/// makespans, load imbalance and cPSMs are deterministic outputs of the
/// cost model over the rank program, so any drift is a behaviour change
/// in partitioning, the kernel's work counters, or the program's clock
/// accounting. One golden row per flag set, in this order.
#[test]
fn golden_corpus_simulate_csv_matches_committed() {
    let want = std::fs::read_to_string(data("expected_simulate.csv")).unwrap();
    let (header, rows) = want.split_once('\n').unwrap();
    let flag_sets = [
        "--policy chunk",
        "--policy cyclic",
        "--policy random",
        "--policy cyclic --threads-per-rank 2",
        "--policy cyclic --cost-scale 1000",
    ];
    assert_eq!(rows.lines().count(), flag_sets.len());
    for (flags, row) in flag_sets.iter().zip(rows.lines()) {
        let got = cli(&format!(
            "simulate --db {} --digest --queries {} --ranks 4 --csv {flags}",
            data("corpus.fasta"),
            data("corpus.ms2"),
        ));
        assert_eq!(got, format!("{header}\n{row}\n"), "simulate {flags}");
    }
}

/// Every corpus file reads identically through the streaming reader and
/// the eager per-format reader.
#[test]
fn corpus_streamed_equals_eager_in_all_formats() {
    for (file, format) in [
        ("corpus.ms2", SpectrumFormat::Ms2),
        ("corpus.mgf", SpectrumFormat::Mgf),
        ("corpus.mzML", SpectrumFormat::MzMl),
    ] {
        let path = data(file);
        let reader = SpectrumReader::open(&path).unwrap();
        assert_eq!(reader.format(), format, "{file}");
        let streamed: Vec<Spectrum> = reader.collect::<Result<_, _>>().unwrap();
        let bytes = std::fs::File::open(&path).unwrap();
        let eager = match format {
            SpectrumFormat::Ms2 => read_ms2(bytes).unwrap(),
            SpectrumFormat::Mgf => read_mgf(bytes).unwrap(),
            SpectrumFormat::MzMl => read_mzml_with_stats(bytes).unwrap().0,
        };
        assert_eq!(streamed, eager, "{file}: streamed != eager");
        assert_eq!(streamed.len(), 24, "{file}");
    }
}

/// The three formats carry the same 24 spectra (same scans, charges, peak
/// counts; peak values agree to text-format precision).
#[test]
fn corpus_formats_agree() {
    let ms2: Vec<Spectrum> = SpectrumReader::read_all(data("corpus.ms2")).unwrap();
    let mgf: Vec<Spectrum> = SpectrumReader::read_all(data("corpus.mgf")).unwrap();
    let mzml: Vec<Spectrum> = SpectrumReader::read_all(data("corpus.mzML")).unwrap();
    for other in [&mgf, &mzml] {
        assert_eq!(ms2.len(), other.len());
        for (a, b) in ms2.iter().zip(other.iter()) {
            assert_eq!(a.scan, b.scan);
            assert_eq!(a.charge, b.charge);
            assert_eq!(a.peak_count(), b.peak_count());
            assert!((a.precursor_mz - b.precursor_mz).abs() < 1e-4);
            for (pa, pb) in a.peaks.iter().zip(&b.peaks) {
                assert!((pa.mz - pb.mz).abs() < 1e-4);
            }
        }
    }
}

/// The hand-built msconvert regression file: interleaved MS1 survey scans
/// are skipped (and counted), a 64-bit intensity array decodes to its real
/// values (not garbage f32 pairs), and a 32-bit m/z array is honored.
#[test]
fn msconvert_regression_file_parses_correctly() {
    let path = data("msconvert_64bit_ms1.mzML");
    let bytes = std::fs::File::open(&path).unwrap();
    let (eager, stats) = read_mzml_with_stats(bytes).unwrap();
    assert_eq!(stats.skipped_non_ms2, 2, "two MS1 survey scans");
    assert_eq!(stats.spectra, 2);
    assert_eq!(eager.len(), 2);

    // Spectrum scan=2: 64-bit m/z AND 64-bit intensity arrays.
    assert_eq!(eager[0].scan, 2);
    assert_eq!(eager[0].charge, 2);
    let mzs: Vec<f64> = eager[0].peaks.iter().map(|p| p.mz).collect();
    let ints: Vec<f32> = eager[0].peaks.iter().map(|p| p.intensity).collect();
    assert_eq!(mzs, vec![175.118952, 276.166631, 389.250695]);
    assert_eq!(ints, vec![1234.5, 77.125, 3001.25]);

    // Spectrum scan=4: 32-bit m/z and 32-bit intensity arrays.
    assert_eq!(eager[1].scan, 4);
    let mzs: Vec<f64> = eager[1].peaks.iter().map(|p| p.mz).collect();
    let ints: Vec<f32> = eager[1].peaks.iter().map(|p| p.intensity).collect();
    assert_eq!(mzs, vec![147.125, 260.1875]); // exactly representable in f32
    assert_eq!(ints, vec![55.5, 44.25]);

    // The streaming reader agrees bit for bit, including the skip counter.
    let mut reader = SpectrumReader::open(&path).unwrap();
    let streamed: Vec<Spectrum> = reader.by_ref().collect::<Result<_, _>>().unwrap();
    assert_eq!(streamed, eager);
    assert_eq!(reader.skipped_non_ms2(), 2);
}

/// `simulate --stream-db` over the corpus produces the identical report to
/// the in-memory run (the engine's streamed partition extraction is
/// invisible end to end).
#[test]
fn corpus_simulate_stream_db_is_invisible() {
    let d = tmpdir("stream_db");
    let p = |n: &str| d.join(n).to_string_lossy().to_string();
    cli(&format!(
        "digest --in {} --out {}",
        data("corpus.fasta"),
        p("pep.fasta")
    ));
    let base = format!(
        "simulate --db {} --queries {} --ranks 4 --csv",
        p("pep.fasta"),
        data("corpus.mzML")
    );
    assert_eq!(cli(&base), cli(&format!("{base} --stream-db")));
}

static CASE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary spectra, written through each format writer and read back
    /// both eagerly and through the streaming reader: streamed == eager,
    /// bit-identical, in every format.
    #[test]
    fn round_trip_streamed_equals_eager(
        raw in prop::collection::vec(
            (
                0u32..40,
                100.0f64..2000.0,
                1u8..=4,
                prop::collection::vec((50.0f64..2000.0, 0.0f32..100_000.0), 0..30),
            ),
            0..10,
        )
    ) {
        let spectra: Vec<Spectrum> = raw
            .into_iter()
            .map(|(scan, premz, charge, peaks)| {
                Spectrum::new(
                    scan,
                    premz,
                    charge,
                    peaks.into_iter().map(|(m, i)| Peak::new(m, i)).collect(),
                )
            })
            .collect();
        let case = CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let d = tmpdir("proptest");

        // MS2.
        let path = d.join(format!("case{case}.ms2"));
        let mut buf = Vec::new();
        write_ms2(&mut buf, &spectra).unwrap();
        std::fs::write(&path, &buf).unwrap();
        let eager = read_ms2(&buf[..]).unwrap();
        let streamed: Vec<Spectrum> =
            SpectrumReader::open(&path).unwrap().collect::<Result<_, _>>().unwrap();
        prop_assert_eq!(&streamed, &eager, "ms2");
        std::fs::remove_file(&path).ok();

        // MGF (duplicate scan ids are legal input; both readers must agree).
        let path = d.join(format!("case{case}.mgf"));
        let mut buf = Vec::new();
        write_mgf(&mut buf, &spectra).unwrap();
        std::fs::write(&path, &buf).unwrap();
        let eager = read_mgf(&buf[..]).unwrap();
        let streamed: Vec<Spectrum> =
            SpectrumReader::open(&path).unwrap().collect::<Result<_, _>>().unwrap();
        prop_assert_eq!(&streamed, &eager, "mgf");
        std::fs::remove_file(&path).ok();

        // mzML (binary arrays: the round trip itself is bit-exact too).
        let path = d.join(format!("case{case}.mzML"));
        let mut buf = Vec::new();
        write_mzml(&mut buf, &spectra).unwrap();
        std::fs::write(&path, &buf).unwrap();
        let eager = read_mzml_with_stats(&buf[..]).unwrap().0;
        let streamed: Vec<Spectrum> =
            SpectrumReader::open(&path).unwrap().collect::<Result<_, _>>().unwrap();
        prop_assert_eq!(&streamed, &eager, "mzml");
        for (orig, back) in spectra.iter().zip(&eager) {
            for (po, pb) in orig.peaks.iter().zip(&back.peaks) {
                prop_assert_eq!(po.mz.to_bits(), pb.mz.to_bits());
                prop_assert_eq!(po.intensity.to_bits(), pb.intensity.to_bits());
            }
        }
        std::fs::remove_file(&path).ok();
    }
}
