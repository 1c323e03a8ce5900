//! `lbe-e2e`: the repo's end-to-end and per-layer benchmark (README.md).
//!
//! Three ways in:
//!
//! * `lbe-e2e --workload W --seed N --seconds S --trace 0|1` — one
//!   workload in this process; the last line of stdout is the contract's
//!   JSON result (this is what `BENCHMARK.json`'s command runs);
//! * `lbe-e2e run|trace [--seed N] [--repeat K] …` — every workload, each
//!   in a process of its own so peak memory and allocator state are per
//!   workload, gathered into `benchmark/results/`;
//! * `lbe-e2e compare A.json B.json` — the verdict table.

mod check;
mod client;
mod compare;
mod gen;
mod harness;
mod json;
mod layers;
mod report;
mod spec;
mod stats;
mod sys;
mod trace;
mod workloads;

use gen::Scale;
use harness::Ctx;
use json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use trace::Tracer;

const USAGE: &str = "\
usage:
  lbe-e2e --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale default|smoke] [--out <file>]
  lbe-e2e run   [--seed <n>] [--seconds <s>] [--scale default|smoke] [--repeat <k>] [--out <file>]
  lbe-e2e trace [--seed <n>] [--seconds <s>] [--scale default|smoke] [--out <file>]
  lbe-e2e compare <parent.json> <change.json>
  lbe-e2e emit-spec
workloads: batch_closed batch_open serve_mixed serve_paged cluster_lbe";

/// Where result and trace files go: `benchmark/results/` (git-ignored).
fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// `--key value` options after the subcommand.
struct Opts(Vec<(String, String)>);

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let name = key
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {key:?}"))?;
            let value = it
                .next()
                .ok_or_else(|| format!("option --{name} needs a value"))?;
            out.push((name.to_string(), value.clone()));
        }
        Ok(Opts(out))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value {v:?} for --{name}")),
        }
    }

    fn scale(&self) -> Result<Scale, String> {
        let name = self.get("scale").unwrap_or("default");
        Scale::by_name(name).ok_or_else(|| format!("unknown scale {name:?}"))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => suite("run", &args[1..]),
        Some("trace") => suite("trace", &args[1..]),
        Some("compare") => compare::main(&args[1..]),
        Some("emit-spec") => {
            print!("{}", spec::benchmark_json().pretty());
            Ok(true)
        }
        Some(a) if a.starts_with("--") => one_workload(&args),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("lbe-e2e: {message}");
            ExitCode::from(2)
        }
    }
}

/// Driver mode: one workload, in this process.
fn one_workload(args: &[String]) -> Result<bool, String> {
    // `nproc` — what sizes worker threads, ranks and client connections —
    // is read before the process confines itself to one CPU, and that
    // happens before any thread exists, so the pool, the server and the
    // ranks all inherit it (see `sys::pin_to_one_cpu` for why).
    let nproc = sys::nproc();
    let pinned_cpu = sys::pin_to_one_cpu();
    let opts = Opts::parse(args)?;
    let name = opts.get("workload").ok_or(USAGE)?.to_string();
    let seed: u64 = opts.parsed("seed", 1)?;
    let seconds: f64 = opts.parsed("seconds", spec::RUN_SECONDS as f64)?;
    let traced = match opts.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    let seconds = if traced {
        seconds.min(spec::TRACED_SECONDS_CAP)
    } else {
        seconds
    };
    let scale = opts.scale()?;
    let results = results_dir();
    let work_dir = results.join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;

    let tracer = Tracer::new(traced);
    let ctx = Ctx {
        scale,
        seed,
        seconds,
        threads: nproc,
        tracer: &tracer,
        work_dir: work_dir.clone(),
    };
    let stamps = sys::stamps(scale.name, seed, seconds, nproc, pinned_cpu);
    println!("lbe-e2e {name} stamps {}", stamps.compact());

    let Some(mut out) = workloads::run(&name, &ctx) else {
        let _ = std::fs::remove_dir_all(&work_dir);
        return Err(format!("unknown workload {name:?}\n{USAGE}"));
    };
    // Read before the probes run: the mark covers the workload's final
    // set-up and measurement (see `SetupReps::finish`), nothing after.
    out.e2e.insert(
        "peak_rss_mb".into(),
        harness::Sample::exact(sys::peak_rss_mb()),
    );
    let mut layers = BTreeMap::new();
    if traced {
        let (probed, checks) = layers::probe_all(&ctx);
        layers = probed;
        if let Some(pct) = out.trace_overhead_pct {
            layers.insert("trace.overhead_pct".into(), pct);
        }
        layers.insert("workload.turnaround_tail_ms".into(), out.tail_ms);
        layers.insert("workload.turnaround_tail_pctile".into(), out.tail_pctile);
        for check in checks {
            out.add_check(check);
        }
        let (spans, counts) = tracer.snapshot();
        trace::check_nesting(&spans)?;
        layers.insert("trace.spans".into(), spans.len() as f64);
        let file = results.join(format!("trace-{name}.json"));
        let doc = trace::to_json(stamps.clone(), &name, &spans, &counts);
        std::fs::write(&file, doc.pretty()).map_err(|e| format!("{}: {e}", file.display()))?;
        println!("wrote {}", file.display());
    }
    let _ = std::fs::remove_dir_all(&work_dir);

    report::print_human(&name, &out, &layers);
    if let Some(path) = opts.get("out") {
        let record = report::workload_record(&name, &out, &layers);
        std::fs::write(path, record.pretty()).map_err(|e| format!("{path}: {e}"))?;
    }
    let line = report::contract_line(&out, traced, &layers)?;
    println!("{}", line.compact());
    Ok(true)
}

/// `run` / `trace`: every workload, one child process each, `--repeat`
/// times over, gathered into one run file.
fn suite(kind: &str, args: &[String]) -> Result<bool, String> {
    let opts = Opts::parse(args)?;
    let seed: u64 = opts.parsed("seed", 1)?;
    let seconds: f64 = opts.parsed("seconds", spec::RUN_SECONDS as f64)?;
    let repeat: usize = opts.parsed("repeat", 1)?;
    let scale = opts.scale()?;
    let results = results_dir();
    std::fs::create_dir_all(&results).map_err(|e| format!("{}: {e}", results.display()))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;

    let mut all_correct = true;
    let mut runs = Vec::new();
    for rep in 0..repeat.max(1) {
        let mut workloads = Vec::new();
        for (name, _) in spec::WORKLOADS {
            let record_path = results.join(format!("record-{}-{name}.json", std::process::id()));
            let status = Command::new(&exe)
                .args(["--workload", name, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--scale", scale.name])
                .args(["--trace", if kind == "trace" { "1" } else { "0" }])
                .arg("--out")
                .arg(&record_path)
                .status()
                .map_err(|e| format!("cannot re-execute {}: {e}", exe.display()))?;
            if !status.success() {
                return Err(format!(
                    "workload {name} (repeat {rep}) exited with {status}"
                ));
            }
            let text = std::fs::read_to_string(&record_path)
                .map_err(|e| format!("{}: {e}", record_path.display()))?;
            let _ = std::fs::remove_file(&record_path);
            let record = Json::parse(&text)?;
            all_correct &= record.get("correct").and_then(Json::as_bool) == Some(true);
            workloads.push((name.to_string(), record));
        }
        runs.push(workloads);
    }
    let default_out = results.join(format!("{kind}-seed{seed}.json"));
    let out_path = opts.get("out").map_or(default_out, PathBuf::from);
    let doc = report::run_file(
        kind,
        sys::stamps(
            scale.name,
            seed,
            seconds,
            sys::nproc(),
            // The CPU every child confines itself to.
            sys::allowed_cpus().last().copied(),
        ),
        runs,
    );
    std::fs::write(&out_path, doc.pretty()).map_err(|e| format!("{}: {e}", out_path.display()))?;
    println!("wrote {}", out_path.display());
    if !all_correct {
        eprintln!("lbe-e2e: at least one workload failed its checks");
    }
    Ok(all_correct)
}
