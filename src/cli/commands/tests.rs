use super::*;
use crate::cli::args::Args;

fn run(cmdline: &str) -> Result<String, CmdError> {
    let args = Args::parse(cmdline.split_whitespace().map(String::from))?;
    let mut out = Vec::new();
    dispatch(&args, &mut out)?;
    Ok(String::from_utf8(out).unwrap())
}

/// Fresh (pre-cleaned) test directory: `index init` refuses a
/// directory that already holds a store.
fn tmpdir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join("lbe_cli_tests").join(name);
    std::fs::remove_dir_all(&d).ok();
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn help_prints_usage() {
    let text = run("help").unwrap();
    assert!(text.contains("USAGE"));
    assert!(text.contains("cluster-db"));
    assert_eq!(run("").unwrap(), text);
    for flag in ["--cost-scale", "--skew", "--mean-len", "--family-fraction"] {
        assert!(text.contains(flag), "{flag} missing from help");
    }
    // Help is the table: each command's entry (its path at column 2, the
    // rest indented under it) shows every flag the command takes, and
    // an unknown flag is answered with exactly that list.
    for cmd in COMMANDS {
        let path = cmd.path;
        let head = format!("  {path:<16}");
        let entry: Vec<&str> = text
            .lines()
            .skip_while(|l| !l.starts_with(&head))
            .enumerate()
            .take_while(|(i, l)| *i == 0 || l.starts_with(&" ".repeat(18)))
            .map(|(_, l)| l)
            .collect();
        assert!(!entry.is_empty(), "{path} missing from help");
        let entry = entry.join("\n");
        let names: Vec<String> = cmd
            .all_flags()
            .iter()
            .map(|f| format!("--{}", f.name))
            .collect();
        for name in &names {
            assert!(
                entry.contains(&format!("{name} ")) || entry.contains(&format!("{name}]")),
                "{path}: {name} missing from\n{entry}"
            );
        }
        let line = format!("{path} --bogus");
        let err = run(&line).unwrap_err().to_string();
        assert_eq!(
            err,
            format!(
                "{path}: unknown option --bogus (allowed: {})",
                names.join(", ")
            )
        );
    }
}

#[test]
fn flag_checks_fail_before_any_work() {
    let p = search_fixture("flag_checks");
    run(&format!(
        "index init --db {} --out {}",
        p("pep.fasta"),
        p("i")
    ))
    .unwrap();
    let (db, q, i, out, bench) = (p("pep.fasta"), p("q.ms2"), p("i"), p("r.tsv"), p("b.json"));
    let search = ["search", "--index", &i, "--queries", &q];
    let cluster = ["cluster", "search", "--sim", "--db", &db, "--queries", &q];
    // One row per class: the command line, the command and what the
    // message says of the flag.
    let rows: [(Vec<&str>, &str, &str); 6] = [
        (
            [&search[..], &["--out", &out, "--csv", "nonsense"]].concat(),
            "search",
            "--csv is a switch and takes no value (got \"nonsense\")",
        ),
        (
            [&search[..], &["--out", "--csv"]].concat(),
            "search",
            "--out needs a value (FILE)",
        ),
        (
            [&search[..1], &["stray"], &search[1..], &["--out", &out]].concat(),
            "search",
            "unexpected argument \"stray\"",
        ),
        (
            [&search[..], &["--out", &out, "--bogus", "1"]].concat(),
            "search",
            "unknown option --bogus (allowed: ",
        ),
        // Checked before the search runs, not after its report is written.
        (
            [&cluster[..], &["--out", &out, "--bench-out", ""]].concat(),
            "cluster search",
            "--bench-out needs a value (FILE)",
        ),
        (
            vec!["simulate", "--db", &db, "--queries", &q, "--spill-dir", "x"],
            "simulate",
            "unknown option --spill-dir (allowed: ",
        ),
    ];
    for (line, path, what) in rows {
        let args = Args::parse(line.iter().map(|t| t.to_string())).unwrap();
        let mut stdout = Vec::new();
        let err = dispatch(&args, &mut stdout).unwrap_err().to_string();
        assert!(
            err.starts_with(&format!("{path}: ")) && err.contains(what),
            "{line:?}: {err}"
        );
        assert!(stdout.is_empty(), "{line:?}");
        assert!(!std::path::Path::new(&out).exists(), "{line:?}");
        assert!(!std::path::Path::new(&bench).exists(), "{line:?}");
    }
}

#[test]
fn unknown_command_errors() {
    assert!(run("frobnicate").is_err());
}

#[test]
fn full_file_pipeline() {
    let d = tmpdir("pipeline");
    let p = |n: &str| d.join(n).to_string_lossy().to_string();

    let msg = run(&format!(
        "synth-proteome --out {} --proteins 25 --seed 3",
        p("prot.fasta")
    ))
    .unwrap();
    assert!(msg.contains("25 proteins"));

    let msg = run(&format!(
        "digest --in {} --out {}",
        p("prot.fasta"),
        p("pep.fasta")
    ))
    .unwrap();
    assert!(msg.contains("unique"));

    let msg = run(&format!(
        "cluster-db --in {} --out {} --criterion 2",
        p("pep.fasta"),
        p("clustered.fasta")
    ))
    .unwrap();
    assert!(msg.contains("groups"));

    let msg = run(&format!(
        "synth-queries --db {} --out {} --n 12 --seed 9",
        p("pep.fasta"),
        p("q.ms2")
    ))
    .unwrap();
    assert!(msg.contains("12 query spectra"));

    let msg = run(&format!(
        "index init --db {} --out {}",
        p("clustered.fasta"),
        p("idx")
    ))
    .unwrap();
    assert!(msg.contains("initialized generation store"));
    assert!(msg.contains("chunk(s)"));
    // The index on disk is a generation store: a manifest and its blobs.
    assert_eq!(
        &std::fs::read(p("idx/MANIFEST-000001")).unwrap()[..8],
        lbe_index::io::MAGIC_MANIFEST
    );

    let msg = run(&format!(
        "search --index {} --queries {} --out {} --top-k 3",
        p("idx"),
        p("q.ms2"),
        p("results.tsv")
    ))
    .unwrap();
    assert!(msg.contains("PSMs"));
    let tsv = std::fs::read_to_string(p("results.tsv")).unwrap();
    assert!(tsv.starts_with("scan\trank\tpeptide"));
    assert!(tsv.lines().count() > 1);

    let msg = run(&format!(
        "simulate --db {} --queries {} --ranks 4 --policy cyclic",
        p("pep.fasta"),
        p("q.ms2")
    ))
    .unwrap();
    assert!(msg.contains("load imbalance"));
    assert!(msg.contains("candidate PSMs"));
}

#[test]
fn index_lifecycle_pipeline() {
    let d = tmpdir("lifecycle");
    let p = |n: &str| d.join(n).to_string_lossy().to_string();
    let _ = std::fs::remove_dir_all(d.join("store"));

    run(&format!(
        "synth-proteome --out {} --proteins 30 --seed 11",
        p("prot.fasta")
    ))
    .unwrap();
    run(&format!(
        "digest --in {} --out {}",
        p("prot.fasta"),
        p("pep.fasta")
    ))
    .unwrap();

    // Split the peptide FASTA into halves on a record (2-line)
    // boundary; the delta re-includes the first record so the append
    // path has a duplicate to skip.
    let all = std::fs::read_to_string(p("pep.fasta")).unwrap();
    let lines: Vec<&str> = all.lines().collect();
    let half = lines.len() / 4 * 2;
    assert!(half >= 2 && half < lines.len());
    std::fs::write(p("base.fasta"), lines[..half].join("\n") + "\n").unwrap();
    let delta = [&lines[..2], &lines[half..]].concat().join("\n") + "\n";
    std::fs::write(p("delta.fasta"), delta).unwrap();

    let msg = run(&format!(
        "index init --db {} --out {} --chunk-size 64",
        p("base.fasta"),
        p("store")
    ))
    .unwrap();
    assert!(msg.contains("initialized generation store"));

    let msg = run(&format!(
        "index append --index {} --db {}",
        p("store"),
        p("delta.fasta")
    ))
    .unwrap();
    assert!(msg.contains("appended"));
    assert!(msg.contains("1 duplicates skipped"));

    let msg = run(&format!("index compact --index {}", p("store"))).unwrap();
    assert!(msg.contains("compacted"));
    let msg = run(&format!("index gc --index {}", p("store"))).unwrap();
    assert!(msg.contains("gc: deleted"));

    let msg = run(&format!("index stats --index {}", p("store"))).unwrap();
    assert!(msg.contains("stored"));
    assert!(msg.contains("live"));
    assert!(!msg.contains("tomb "));

    // The compacted store must search identically to a from-scratch
    // store over the same peptide set.
    run(&format!(
        "index init --db {} --out {}",
        p("pep.fasta"),
        p("full")
    ))
    .unwrap();
    run(&format!(
        "synth-queries --db {} --out {} --n 10 --seed 5",
        p("pep.fasta"),
        p("q.ms2")
    ))
    .unwrap();
    run(&format!(
        "search --index {} --queries {} --out {} --top-k 5",
        p("store"),
        p("q.ms2"),
        p("gen.tsv")
    ))
    .unwrap();
    run(&format!(
        "search --index {} --queries {} --out {} --top-k 5",
        p("full"),
        p("q.ms2"),
        p("full.tsv")
    ))
    .unwrap();
    assert_eq!(
        std::fs::read(p("gen.tsv")).unwrap(),
        std::fs::read(p("full.tsv")).unwrap()
    );

    // `index` builds only through its subcommands: the bare build of
    // the single-file container is gone, and writes nothing.
    let err = run(&format!(
        "index --db {} --out {}",
        p("pep.fasta"),
        p("bare")
    ))
    .unwrap_err();
    assert!(
        err.to_string().contains("init|append|compact|gc|stats"),
        "{err}"
    );
    assert!(!std::path::Path::new(&p("bare")).exists());
    assert!(run(&format!("index bogus --index {}", p("store"))).is_err());
    assert!(run(&format!(
        "index init --db {} --out {}",
        p("base.fasta"),
        p("store")
    ))
    .is_err());
}

#[test]
fn digest_rejects_missing_files() {
    assert!(run("digest --in /nonexistent/x.fasta --out /tmp/y.fasta").is_err());
}

#[test]
fn unknown_option_rejected() {
    assert!(run("digest --in a --out b --bogus 1").is_err());
}

#[test]
fn bad_policy_rejected() {
    let d = tmpdir("badpol");
    let p = |n: &str| d.join(n).to_string_lossy().to_string();
    run(&format!(
        "synth-proteome --out {} --proteins 5",
        p("p.fasta")
    ))
    .unwrap();
    run(&format!(
        "digest --in {} --out {}",
        p("p.fasta"),
        p("pep.fasta")
    ))
    .unwrap();
    run(&format!(
        "synth-queries --db {} --out {} --n 2",
        p("pep.fasta"),
        p("q.ms2")
    ))
    .unwrap();
    let err = run(&format!(
        "simulate --db {} --queries {} --policy zigzag",
        p("pep.fasta"),
        p("q.ms2")
    ));
    assert!(err.is_err());
}

#[test]
fn mzml_query_path() {
    let d = tmpdir("mzml");
    let p = |n: &str| d.join(n).to_string_lossy().to_string();
    run(&format!(
        "synth-proteome --out {} --proteins 8",
        p("p.fasta")
    ))
    .unwrap();
    run(&format!(
        "digest --in {} --out {}",
        p("p.fasta"),
        p("pep.fasta")
    ))
    .unwrap();
    run(&format!(
        "synth-queries --db {} --out {} --n 5 --format mzml",
        p("pep.fasta"),
        p("q.mzML")
    ))
    .unwrap();
    run(&format!(
        "index init --db {} --out {}",
        p("pep.fasta"),
        p("i")
    ))
    .unwrap();
    let msg = run(&format!(
        "search --index {} --queries {} --out {}",
        p("i"),
        p("q.mzML"),
        p("r.tsv")
    ))
    .unwrap();
    assert!(msg.contains("searched 5 spectra"));
    assert!(run(&format!(
        "synth-queries --db {} --out {} --format bogus",
        p("pep.fasta"),
        p("x")
    ))
    .is_err());
}

#[test]
fn cluster_db_criterion_variants() {
    let d = tmpdir("criterion");
    let p = |n: &str| d.join(n).to_string_lossy().to_string();
    run(&format!(
        "synth-proteome --out {} --proteins 10 --seed 5",
        p("p.fasta")
    ))
    .unwrap();
    run(&format!(
        "digest --in {} --out {}",
        p("p.fasta"),
        p("pep.fasta")
    ))
    .unwrap();
    // Criterion 1 (absolute edit distance) with an explicit d.
    let msg = run(&format!(
        "cluster-db --in {} --out {} --criterion 1 --d 3",
        p("pep.fasta"),
        p("c1.fasta")
    ))
    .unwrap();
    assert!(msg.contains("groups"));
    // Criterion 3 does not exist.
    let err = run(&format!(
        "cluster-db --in {} --out {} --criterion 3",
        p("pep.fasta"),
        p("c3.fasta")
    ))
    .unwrap_err();
    assert!(err.to_string().contains("--criterion must be 1 or 2"));
}

#[test]
fn mgf_query_path() {
    let d = tmpdir("mgf");
    let p = |n: &str| d.join(n).to_string_lossy().to_string();
    run(&format!(
        "synth-proteome --out {} --proteins 8 --seed 2",
        p("p.fasta")
    ))
    .unwrap();
    run(&format!(
        "digest --in {} --out {}",
        p("p.fasta"),
        p("pep.fasta")
    ))
    .unwrap();
    run(&format!(
        "synth-queries --db {} --out {} --n 4",
        p("pep.fasta"),
        p("q.ms2")
    ))
    .unwrap();
    // Convert to MGF so `search` exercises its extension dispatch.
    let spectra = lbe_spectra::ms2::read_ms2_path(p("q.ms2")).unwrap();
    let f = std::fs::File::create(p("q.mgf")).unwrap();
    lbe_spectra::mgf::write_mgf(f, &spectra).unwrap();
    run(&format!(
        "index init --db {} --out {}",
        p("pep.fasta"),
        p("i")
    ))
    .unwrap();
    let msg = run(&format!(
        "search --index {} --queries {} --out {}",
        p("i"),
        p("q.mgf"),
        p("r.tsv")
    ))
    .unwrap();
    assert!(msg.contains("searched 4 spectra"));
}

#[test]
fn bad_mods_message_lists_choices() {
    let d = tmpdir("badmods");
    let p = |n: &str| d.join(n).to_string_lossy().to_string();
    run(&format!(
        "synth-proteome --out {} --proteins 5",
        p("p.fasta")
    ))
    .unwrap();
    run(&format!(
        "digest --in {} --out {}",
        p("p.fasta"),
        p("pep.fasta")
    ))
    .unwrap();
    let err = run(&format!(
        "index init --db {} --out {} --mods sumo",
        p("pep.fasta"),
        p("i")
    ))
    .unwrap_err();
    assert!(err.to_string().contains("none|oxidation|paper"));
}

/// Builds the proteome → peptides → queries → index fixture shared by
/// the disk-backed search tests.
fn search_fixture(dir: &str) -> impl Fn(&str) -> String {
    let d = tmpdir(dir);
    let p = move |n: &str| d.join(n).to_string_lossy().to_string();
    run(&format!(
        "synth-proteome --out {} --proteins 12 --seed 11",
        p("p.fasta")
    ))
    .unwrap();
    run(&format!(
        "digest --in {} --out {}",
        p("p.fasta"),
        p("pep.fasta")
    ))
    .unwrap();
    run(&format!(
        "synth-queries --db {} --out {} --n 8 --seed 12",
        p("pep.fasta"),
        p("q.ms2")
    ))
    .unwrap();
    p
}

#[test]
fn search_with_resident_budget_matches_unbounded() {
    let p = search_fixture("resident_budget");
    // Small chunks so the container really has several.
    let msg = run(&format!(
        "index init --db {} --out {} --chunk-size 25",
        p("pep.fasta"),
        p("i")
    ))
    .unwrap();
    assert!(msg.contains("chunk(s)"));
    run(&format!(
        "search --index {} --queries {} --out {}",
        p("i"),
        p("q.ms2"),
        p("all.tsv")
    ))
    .unwrap();
    let msg = run(&format!(
        "search --index {} --queries {} --out {} --max-resident-chunks 1",
        p("i"),
        p("q.ms2"),
        p("one.tsv")
    ))
    .unwrap();
    // The query file is one wave: each chunk is faulted once, even
    // with one resident at a time.
    let counts: Vec<&str> = msg.split(['(', ' ', ',']).collect();
    let chunks = counts[counts.iter().position(|&w| w == "chunks").unwrap() - 1];
    assert!(
        msg.contains(&format!("({chunks} chunks, {chunks} faults,")),
        "{msg}"
    );
    // Identical result files: residency is invisible in the output.
    assert_eq!(
        std::fs::read_to_string(p("all.tsv")).unwrap(),
        std::fs::read_to_string(p("one.tsv")).unwrap()
    );
    assert!(run(&format!(
        "search --index {} --queries {} --out {} --max-resident-chunks -1",
        p("i"),
        p("q.ms2"),
        p("bad.tsv")
    ))
    .is_err());
}

#[test]
fn search_csv_output_shape() {
    let p = search_fixture("csv_search");
    run(&format!(
        "index init --db {} --out {}",
        p("pep.fasta"),
        p("i")
    ))
    .unwrap();
    run(&format!(
        "search --index {} --queries {} --out {} --csv --top-k 2",
        p("i"),
        p("q.ms2"),
        p("r.csv")
    ))
    .unwrap();
    let csv = std::fs::read_to_string(p("r.csv")).unwrap();
    let mut lines = csv.lines();
    assert_eq!(
        lines.next().unwrap(),
        "scan,rank,peptide,modform,shared_peaks,score"
    );
    let first = lines.next().expect("at least one PSM row");
    assert_eq!(first.split(',').count(), 6, "row: {first}");
    // Every data row parses: scan, rank, peptide, modform, shared as
    // integers; score as a float.
    for row in csv.lines().skip(1) {
        let cols: Vec<&str> = row.split(',').collect();
        assert_eq!(cols.len(), 6, "row: {row}");
        for c in &cols[..5] {
            c.parse::<u64>()
                .unwrap_or_else(|_| panic!("bad int {c} in {row}"));
        }
        cols[5].parse::<f64>().unwrap();
    }
}

/// Re-emits the single-index file `current` with each section mapped
/// through `edit` to a renamed or rewritten section, or dropped
/// (`None`), checksums recomputed.
fn rewrite(current: &[u8], edit: impl Fn([u8; 8], &[u8]) -> Option<([u8; 8], Vec<u8>)>) -> Vec<u8> {
    use lbe_index::format::{crc32, write_container, ParsedContainer, SectionPlan};
    let parsed = ParsedContainer::parse(current, 0, None, lbe_index::io::MAGIC_V2).unwrap();
    let payloads: Vec<([u8; 8], Vec<u8>)> = parsed
        .sections()
        .iter()
        .filter_map(|s| {
            edit(
                s.name,
                &current[s.offset as usize..(s.offset + s.len) as usize],
            )
        })
        .collect();
    let plans: Vec<SectionPlan> = payloads
        .iter()
        .map(|(name, p)| SectionPlan {
            name: *name,
            len: p.len() as u64,
            crc: crc32(p),
        })
        .collect();
    let mut out = Vec::new();
    write_container(&mut out, lbe_index::io::MAGIC_V2, &plans, |i, w| {
        w.write_all(&payloads[i].1)
    })
    .unwrap();
    out
}

/// Every layout below the format floor, each made from the current
/// single-index file `current` with valid checksums, as `(what the
/// error names, bytes)`.
fn below_the_floor(current: &[u8]) -> Vec<(&'static str, Vec<u8>)> {
    use lbe_index::format::section_name;
    let idx = lbe_index::read_index(current).unwrap();
    let mut binoffs = 0u64.to_le_bytes().to_vec();
    let mut at = 0u64;
    for bin in 0..idx.config().num_bins() as u32 {
        at += idx.bin_postings(bin).len() as u64;
        binoffs.extend(at.to_le_bytes());
    }
    const FLAGS: [u8; 8] = section_name("flags");
    const BINMAP: [u8; 8] = section_name("binmap");
    const BINPTR: [u8; 8] = section_name("binptr");
    vec![
        ("an LBESLM1 index file", b"LBESLM1\0".to_vec()),
        ("an LBECHK2 chunked container", b"LBECHK2\0".to_vec()),
        (
            "without a binmap + binptr bin directory",
            rewrite(current, |name, p| match name {
                BINMAP => Some((section_name("binoffs"), binoffs.clone())),
                BINPTR => None,
                _ => Some((name, p.to_vec())),
            }),
        ),
        (
            "without a flags section",
            rewrite(current, |name, p| {
                (name != FLAGS).then(|| (name, p.to_vec()))
            }),
        ),
        (
            "not flagged mass-sorted",
            rewrite(current, |name, p| {
                Some((name, if name == FLAGS { &[0; 8] } else { p }.to_vec()))
            }),
        ),
    ]
}

#[test]
fn search_and_stats_refuse_every_layout_below_the_floor() {
    // Each old layout through `search --index` (no results file is
    // left behind) and `index stats`: an error, never a search.
    let p = shards_fixture("below_the_floor");
    let current = std::fs::read(p("shards/shard-0000.slm2")).unwrap();
    for (layout, image) in below_the_floor(&current) {
        let file = p("old.slm");
        std::fs::write(&file, &image).unwrap();
        let out = p("r.tsv");
        let err = run(&format!(
            "search --index {file} --queries {} --out {out}",
            p("q.ms2")
        ))
        .unwrap_err()
        .to_string();
        assert!(
            err.contains(layout) && err.contains("no longer read; rebuild with `lbe index"),
            "{layout}: {err}"
        );
        assert!(!std::path::Path::new(&out).exists(), "{layout}");
        let err = run(&format!("index stats --index {file}"))
            .unwrap_err()
            .to_string();
        let what = match image.starts_with(lbe_index::io::MAGIC_V2) {
            true => format!("{file} is a single-index LBESLM2 file"),
            false => format!("{file}: {layout} is no longer read"),
        };
        assert!(err.contains(&what), "{layout}: {err}");
    }
}

/// [`search_fixture`] plus `shards/`, a 2-rank `cluster build` output:
/// a directory that is no generation store, holding single-index files.
fn shards_fixture(dir: &str) -> impl Fn(&str) -> String {
    let p = search_fixture(dir);
    run(&format!(
        "cluster build --sim --ranks 2 --db {} --out {}",
        p("pep.fasta"),
        p("shards")
    ))
    .unwrap();
    p
}

#[test]
fn a_directory_that_is_no_generation_store_is_named_as_such() {
    let p = shards_fixture("not_a_store");
    for cmd in [
        format!(
            "search --index {} --queries {} --out {}",
            p("shards"),
            p("q.ms2"),
            p("r.tsv")
        ),
        format!("index stats --index {}", p("shards")),
    ] {
        let err = run(&cmd).unwrap_err().to_string();
        assert!(
            err.contains(&p("shards"))
                && err.contains("is not a generation store (no CURRENT file)"),
            "{cmd}: {err}"
        );
    }
    assert!(!std::path::Path::new(&p("r.tsv")).exists());
}

#[test]
fn index_stats_on_a_single_index_file_says_what_it_found_and_what_it_reads() {
    let p = shards_fixture("stats_single");
    let file = p("shards/shard-0000.slm2");
    let err = run(&format!("index stats --index {file}"))
        .unwrap_err()
        .to_string();
    assert!(
        err.contains(&format!("{file} is a single-index LBESLM2 file"))
            && err.contains("chunk statistics read a generation store directory"),
        "{err}"
    );
}

#[test]
fn simulate_csv_output_shape() {
    let p = search_fixture("sim_csv");
    let msg = run(&format!(
        "simulate --db {} --queries {} --ranks 3 --csv",
        p("pep.fasta"),
        p("q.ms2"),
    ))
    .unwrap();
    let mut lines = msg.lines();
    let header = lines.next().unwrap();
    assert!(header.starts_with("policy,ranks,peptides,"));
    let row = lines.next().unwrap();
    assert_eq!(row.split(',').count(), header.split(',').count());
    let cols: Vec<&str> = row.split(',').collect();
    assert_eq!(cols[0], "cyclic");
    assert_eq!(cols[1], "3");
    assert!(cols[6].parse::<f64>().unwrap() > 0.0); // query_time_s
    assert!(lines.next().is_none(), "csv mode prints exactly two lines");
}

#[test]
fn index_rejects_zero_chunk_size() {
    let p = search_fixture("zero_chunk");
    let err = run(&format!(
        "index init --db {} --out {} --chunk-size 0",
        p("pep.fasta"),
        p("i")
    ))
    .unwrap_err();
    assert!(err.to_string().contains("chunk-size"));
    // Refused on the command line, before a directory is made.
    assert!(!std::path::Path::new(&p("i")).exists());
}

#[test]
fn mods_variants_accepted() {
    let d = tmpdir("mods");
    let p = |n: &str| d.join(n).to_string_lossy().to_string();
    run(&format!(
        "synth-proteome --out {} --proteins 5",
        p("p.fasta")
    ))
    .unwrap();
    run(&format!(
        "digest --in {} --out {}",
        p("p.fasta"),
        p("pep.fasta")
    ))
    .unwrap();
    for mods in ["none", "oxidation", "paper"] {
        run(&format!(
            "index init --db {} --out {} --mods {mods}",
            p("pep.fasta"),
            p(&format!("i_{mods}"))
        ))
        .unwrap();
    }
    assert!(run(&format!(
        "index init --db {} --out {} --mods bogus",
        p("pep.fasta"),
        p("i")
    ))
    .is_err());
}

#[test]
fn index_and_simulate_accept_raw_proteome_with_digest_flag() {
    let d = tmpdir("digest_flag");
    let p = |n: &str| d.join(n).to_string_lossy().to_string();
    run(&format!(
        "synth-proteome --out {} --proteins 10 --seed 4",
        p("prot.fasta")
    ))
    .unwrap();
    // `index --digest` takes the raw proteome directly...
    let msg = run(&format!(
        "index init --db {} --out {} --digest",
        p("prot.fasta"),
        p("i")
    ))
    .unwrap();
    assert!(msg.contains("unique peptides"));
    assert!(msg.contains("initialized generation store"));
    // ...and produces the same chunks as the two-step path (the
    // manifests differ: only a streamed digest knows each peptide's
    // protein and missed cleavages).
    run(&format!(
        "digest --in {} --out {}",
        p("prot.fasta"),
        p("pep.fasta")
    ))
    .unwrap();
    run(&format!(
        "index init --db {} --out {}",
        p("pep.fasta"),
        p("i2")
    ))
    .unwrap();
    let stats = |dir: &str| run(&format!("index stats --index {}", p(dir))).unwrap();
    assert_eq!(
        stats("i"),
        stats("i2"),
        "--digest index differs from digest-then-index"
    );
    // `simulate --digest` runs end-to-end on the raw proteome too.
    run(&format!(
        "synth-queries --db {} --out {} --n 4",
        p("pep.fasta"),
        p("q.ms2")
    ))
    .unwrap();
    let msg = run(&format!(
        "simulate --db {} --queries {} --ranks 2 --digest",
        p("prot.fasta"),
        p("q.ms2")
    ))
    .unwrap();
    assert!(msg.contains("load imbalance"));
}

#[test]
fn simulate_stream_db_matches_in_memory_run() {
    let p = search_fixture("stream_db");
    let base = format!(
        "simulate --db {} --queries {} --ranks 3 --csv",
        p("pep.fasta"),
        p("q.ms2")
    );
    let in_mem = run(&base).unwrap();
    let streamed = run(&format!("{base} --stream-db")).unwrap();
    assert_eq!(in_mem, streamed, "--stream-db changed the report");
    // --stream-db needs record/id alignment, which --digest destroys.
    let err = run(&format!("{base} --stream-db --digest")).unwrap_err();
    assert!(err.to_string().contains("--stream-db"));
}

#[test]
fn synth_queries_mgf_format_searchable() {
    let p = search_fixture("mgf_format");
    run(&format!(
        "synth-queries --db {} --out {} --n 6 --seed 12 --format mgf",
        p("pep.fasta"),
        p("q.mgf")
    ))
    .unwrap();
    run(&format!(
        "index init --db {} --out {}",
        p("pep.fasta"),
        p("i")
    ))
    .unwrap();
    let msg = run(&format!(
        "search --index {} --queries {} --out {}",
        p("i"),
        p("q.mgf"),
        p("r.tsv")
    ))
    .unwrap();
    assert!(msg.contains("searched 6 spectra"));
}

#[test]
fn search_sniffs_extensionless_query_files() {
    let p = search_fixture("sniff");
    // Same spectra, no extension: content sniffing must kick in.
    std::fs::copy(p("q.ms2"), p("queries_noext")).unwrap();
    run(&format!(
        "index init --db {} --out {}",
        p("pep.fasta"),
        p("i")
    ))
    .unwrap();
    let msg = run(&format!(
        "search --index {} --queries {} --out {}",
        p("i"),
        p("queries_noext"),
        p("r.tsv")
    ))
    .unwrap();
    assert!(msg.contains("searched 8 spectra"));
}

#[test]
fn simulate_csv_stays_machine_readable_with_ms1_and_digest() {
    // Ingest notes (skipped-MS1 count, --digest summary) must not
    // precede the CSV header: csv mode prints exactly two lines even
    // when both note sources fire.
    let d = tmpdir("csv_notes");
    let p = |n: &str| d.join(n).to_string_lossy().to_string();
    run(&format!(
        "synth-proteome --out {} --proteins 10 --seed 6",
        p("prot.fasta")
    ))
    .unwrap();
    run(&format!(
        "digest --in {} --out {}",
        p("prot.fasta"),
        p("pep.fasta")
    ))
    .unwrap();
    run(&format!(
        "synth-queries --db {} --out {} --n 3 --format mzml",
        p("pep.fasta"),
        p("q.mzML")
    ))
    .unwrap();
    let text = std::fs::read_to_string(p("q.mzML")).unwrap();
    let ms1 = "<spectrum id=\"scan=9999\"><cvParam accession=\"MS:1000511\" name=\"ms level\" value=\"1\"/></spectrum>\n";
    std::fs::write(
        p("q.mzML"),
        text.replacen("      <spectrum ", &format!("{ms1}      <spectrum "), 1),
    )
    .unwrap();
    let msg = run(&format!(
        "simulate --db {} --queries {} --ranks 2 --csv --digest",
        p("prot.fasta"),
        p("q.mzML")
    ))
    .unwrap();
    let lines: Vec<&str> = msg.lines().collect();
    assert_eq!(
        lines.len(),
        2,
        "csv mode must print exactly two lines: {msg}"
    );
    assert!(lines[0].starts_with("policy,ranks,"), "{msg}");
    // Without --csv the notes do appear.
    let msg = run(&format!(
        "simulate --db {} --queries {} --ranks 2 --digest",
        p("prot.fasta"),
        p("q.mzML")
    ))
    .unwrap();
    assert!(msg.contains("skipped 1 non-MS2 spectra"), "{msg}");
    assert!(msg.contains("unique peptides"), "{msg}");
}

#[test]
fn search_reports_skipped_ms1_scans() {
    let p = search_fixture("ms1_note");
    run(&format!(
        "synth-queries --db {} --out {} --n 3 --seed 12 --format mzml",
        p("pep.fasta"),
        p("q.mzML")
    ))
    .unwrap();
    // Interleave an MS1 survey scan (no precursor) like a default
    // msconvert conversion would contain.
    let text = std::fs::read_to_string(p("q.mzML")).unwrap();
    let ms1 = r#"<spectrum id="scan=9999"><cvParam accession="MS:1000511" name="ms level" value="1"/></spectrum>
"#;
    let text = text.replacen("      <spectrum ", &format!("{ms1}      <spectrum "), 1);
    std::fs::write(p("q.mzML"), text).unwrap();
    run(&format!(
        "index init --db {} --out {}",
        p("pep.fasta"),
        p("i")
    ))
    .unwrap();
    let msg = run(&format!(
        "search --index {} --queries {} --out {}",
        p("i"),
        p("q.mzML"),
        p("r.tsv")
    ))
    .unwrap();
    assert!(msg.contains("skipped 1 non-MS2 spectra"), "message: {msg}");
    assert!(msg.contains("searched 3 spectra"));
}

#[test]
fn query_failure_preserves_existing_out_file() {
    let p = search_fixture("query_out_preserved");
    std::fs::write(p("r.tsv"), "precious previous results\n").unwrap();
    // A typo'd queries file fails before the results file is touched…
    assert!(run(&format!(
        "query --addr 127.0.0.1:1 --queries {} --out {}",
        p("nonexistent.ms2"),
        p("r.tsv")
    ))
    .is_err());
    assert_eq!(
        std::fs::read_to_string(p("r.tsv")).unwrap(),
        "precious previous results\n"
    );
    // …and so does a dead server (port 1 is never listening).
    let err = run(&format!(
        "query --addr 127.0.0.1:1 --queries {} --out {}",
        p("q.ms2"),
        p("r.tsv")
    ))
    .unwrap_err();
    assert!(err.to_string().contains("cannot connect"), "{err}");
    assert_eq!(
        std::fs::read_to_string(p("r.tsv")).unwrap(),
        "precious previous results\n"
    );
}

#[test]
fn simulate_out_written_on_success_preserved_on_failure() {
    let p = search_fixture("sim_out_preserved");
    // Success: the report lands in the file, stdout gets only the
    // confirmation line (plus ingest notes) — not the report itself.
    let msg = run(&format!(
        "simulate --db {} --queries {} --ranks 3 --out {}",
        p("pep.fasta"),
        p("q.ms2"),
        p("report.txt")
    ))
    .unwrap();
    assert!(msg.contains("wrote simulation report to"), "{msg}");
    assert!(!msg.contains("load imbalance"), "report leaked to stdout");
    let report = std::fs::read_to_string(p("report.txt")).unwrap();
    assert!(report.contains("load imbalance"));
    assert!(report.contains("candidate PSMs"));
    // --csv --out: machine row in the file, confirmation on stdout.
    let msg = run(&format!(
        "simulate --db {} --queries {} --ranks 3 --csv --out {}",
        p("pep.fasta"),
        p("q.ms2"),
        p("report.csv")
    ))
    .unwrap();
    assert_eq!(msg.lines().count(), 1, "stdout is one confirmation line");
    let csv = std::fs::read_to_string(p("report.csv")).unwrap();
    assert!(csv.starts_with("policy,ranks,peptides,"));
    assert_eq!(csv.lines().count(), 2);
    // Failure: a bad queries path must leave the previous report alone.
    std::fs::write(p("report.txt"), "precious previous report\n").unwrap();
    assert!(run(&format!(
        "simulate --db {} --queries {} --ranks 3 --out {}",
        p("pep.fasta"),
        p("missing.ms2"),
        p("report.txt")
    ))
    .is_err());
    assert_eq!(
        std::fs::read_to_string(p("report.txt")).unwrap(),
        "precious previous report\n"
    );
    // A valueless --out is rejected up front.
    let err = run(&format!(
        "simulate --db {} --queries {} --out",
        p("pep.fasta"),
        p("q.ms2")
    ))
    .unwrap_err();
    assert!(err.to_string().contains("--out needs a value"), "{err}");
}
