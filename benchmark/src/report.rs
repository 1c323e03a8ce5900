//! One schema for everything the benchmark writes: the per-workload
//! record, the run file that holds them with their stamps, the contract's
//! one-line result, and the table printed for people.

use crate::harness::Outcome;
use crate::json::{obj, Json};
use crate::spec::{self, MetricDef};
use std::collections::BTreeMap;

/// Version of the result-file layout; `compare` refuses anything else.
pub const SCHEMA: u64 = 1;

/// The full record of one workload's run.
pub fn workload_record(name: &str, out: &Outcome, layers: &BTreeMap<String, f64>) -> Json {
    let units = |defs: Vec<MetricDef>| -> BTreeMap<String, &'static str> {
        defs.into_iter().map(|m| (m.name, m.unit)).collect()
    };
    let e2e_units = units(spec::end_to_end());
    let layer_units = units(spec::per_layer());
    let failed_share = if out.attempted == 0 {
        1.0
    } else {
        out.failed as f64 / out.attempted as f64
    };
    obj([
        ("workload", name.into()),
        ("input_digest", out.input_digest.as_str().into()),
        ("correct", out.correct().into()),
        ("attempted", out.attempted.into()),
        ("failed", out.failed.into()),
        ("failed_share", failed_share.into()),
        (
            "checks",
            Json::Arr(out.checks.iter().map(|c| c.to_json()).collect()),
        ),
        (
            "end_to_end",
            Json::Obj(
                out.e2e
                    .iter()
                    .map(|(k, s)| {
                        (
                            k.clone(),
                            s.to_json(e2e_units.get(k).copied().unwrap_or("")),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Obj(
                layers
                    .iter()
                    .map(|(k, &v)| {
                        let unit = layer_units.get(k).copied().unwrap_or("");
                        (k.clone(), obj([("value", v.into()), ("unit", unit.into())]))
                    })
                    .collect(),
            ),
        ),
        ("notes", Json::Obj(out.notes.clone())),
    ])
}

/// A run file: stamps plus one or more runs, each a map of workload
/// records. `compare` pairs run *i* of one file with run *i* of another.
pub fn run_file(kind: &str, stamps: Json, runs: Vec<Vec<(String, Json)>>) -> Json {
    obj([
        ("benchmark", "lbe-e2e".into()),
        ("kind", kind.into()),
        ("schema", SCHEMA.into()),
        ("stamps", stamps),
        (
            "runs",
            Json::Arr(
                runs.into_iter()
                    .map(|workloads| obj([("workloads", Json::Obj(workloads))]))
                    .collect(),
            ),
        ),
    ])
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, the metrics being every end-to-end metric (untraced) or
/// every per-layer metric (traced). A metric the run did not produce is a
/// bug in the benchmark, reported as an error rather than papered over.
pub fn contract_line(
    out: &Outcome,
    traced: bool,
    layers: &BTreeMap<String, f64>,
) -> Result<Json, String> {
    let defs = if traced {
        spec::per_layer()
    } else {
        spec::end_to_end()
    };
    let mut metrics = Vec::with_capacity(defs.len());
    for m in defs {
        let value = if traced {
            layers.get(&m.name).copied()
        } else {
            out.e2e.get(&m.name).map(|s| s.value)
        };
        let value = value
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("metric {} was not measured", m.name))?;
        metrics.push((
            m.name,
            obj([("value", value.into()), ("unit", m.unit.into())]),
        ));
    }
    Ok(obj([
        ("correct", out.correct().into()),
        ("attempted", out.attempted.max(1).into()),
        ("failed", out.failed.into()),
        ("metrics", Json::Obj(metrics)),
    ]))
}

/// Prints the workload's numbers for a person: every metric by name with
/// its unit, median, quartiles and sample count, then checks and notes.
pub fn print_human(name: &str, out: &Outcome, layers: &BTreeMap<String, f64>) {
    println!("== {name}  (input digest {})", out.input_digest);
    for m in spec::end_to_end() {
        if let Some(s) = out.e2e.get(&m.name) {
            println!(
                "  {:<26} {:>14.4} {:<10} q1 {:.4}  q3 {:.4}  n {}",
                m.name, s.value, m.unit, s.q1, s.q3, s.n
            );
        }
    }
    for m in spec::per_layer() {
        if let Some(v) = layers.get(&m.name) {
            println!("  {:<52} {:>16.4} {}", m.name, v, m.unit);
        }
    }
    for c in &out.checks {
        println!(
            "  check {:<62} {} ({} compared, {} disagreed)",
            c.name,
            if c.passed() { "ok" } else { "FAILED" },
            c.compared,
            c.disagreed
        );
    }
    for (k, v) in &out.notes {
        println!("  note  {k} = {}", v.compact());
    }
    println!(
        "  attempted {}  failed {}  failed_share {}  correct {}",
        out.attempted,
        out.failed,
        if out.attempted == 0 {
            1.0
        } else {
            out.failed as f64 / out.attempted as f64
        },
        out.correct()
    );
}
