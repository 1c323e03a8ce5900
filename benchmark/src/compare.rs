//! `lbe-e2e compare <parent.json> <change.json>`: the verdict table.
//!
//! Each file is a run file (`run`/`trace` with `--repeat K` holds K runs);
//! run *i* of the parent pairs with run *i* of the change. One row per
//! (workload, end-to-end metric): both sides' median and quartiles, the
//! ratio with its base, and a verdict by the rules of the choosing-metrics
//! guide. Exact metrics — counts and computed sizes that must repeat
//! bit-for-bit — are checked for equality instead. Exits non-zero on any
//! regression or any rise in a workload's failed share.

use crate::json::Json;
use crate::report::SCHEMA;
use crate::spec::{self, Better, MetricDef};
use crate::stats;

/// What a row concludes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change's median is worse than the parent's by more than the
    /// metric's bound.
    Regressed,
    /// Not regressed, but one side's own run-to-run spread is wider than
    /// the bound, so "no worse" cannot be told from noise.
    Unresolved,
    /// The change wins at least nine tenths of at least ten pairs and the
    /// medians are apart by more than the parent's interquartile range.
    Improved,
    /// Within the bound, with spreads narrower than it.
    Unchanged,
    /// A timing with fewer than [`MIN_RUNS`] runs on a side: one run says
    /// nothing about a distribution, so no verdict is given (and none
    /// counts against the exit status).
    TooFewRuns,
    /// Exact metric, identical on every run of both sides.
    Equal,
    /// Exact metric whose value moved (reported with its direction; a move
    /// for the worse beyond the bound is `Regressed` instead).
    Changed,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::TooFewRuns => "too few runs",
            Verdict::Equal => "equal",
            Verdict::Changed => "changed",
        }
    }
}

/// Runs a side needs before a timing gets a verdict (the guide asks ten
/// pairs for a *claim*; five is the least that has quartiles worth the
/// name).
pub const MIN_RUNS: usize = 5;

/// How much worse `change` is than `parent`, as a share of `parent`
/// (negative = better), in the metric's own direction.
fn worse_share(better: Better, parent: f64, change: f64) -> f64 {
    if parent == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (change - parent) / parent.abs(),
        Better::Higher => (parent - change) / parent.abs(),
    }
}

/// The verdict for one metric given each side's per-run values (paired by
/// position).
pub fn verdict(def: &MetricDef, parent: &[f64], change: &[f64]) -> Verdict {
    let bound = def.bound.unwrap_or(0.0);
    let (p_q1, p_med, p_q3) = stats::quartiles(parent);
    let (_, c_med, _) = stats::quartiles(change);
    let worse = worse_share(def.better, p_med, c_med);
    if def.exact {
        let constant = |v: &[f64]| v.iter().all(|x| x.to_bits() == v[0].to_bits());
        if constant(parent) && constant(change) {
            return if parent[0].to_bits() == change[0].to_bits() {
                Verdict::Equal
            } else if def.bound.is_some() && worse > bound {
                Verdict::Regressed
            } else {
                Verdict::Changed
            };
        }
        // An "exact" metric that wobbles within one side is judged like
        // any other (and the table shows its quartiles apart).
    }
    if parent.len().min(change.len()) < MIN_RUNS {
        return Verdict::TooFewRuns;
    }
    if def.bound.is_some() && worse > bound {
        return Verdict::Regressed;
    }
    let is_better = |p: f64, c: f64| worse_share(def.better, p, c) < 0.0;
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs)
        .filter(|&i| is_better(parent[i], change[i]))
        .count();
    if pairs >= 10 && wins * 10 >= pairs * 9 && (c_med - p_med).abs() > (p_q3 - p_q1).abs() {
        return Verdict::Improved;
    }
    let spread = stats::spread_share(parent).max(stats::spread_share(change));
    if def.bound.is_some() && spread > bound {
        // …unless every run of the change reads better than every run of
        // the parent: then "no worse" holds whatever the spread.
        let all_better = change
            .iter()
            .all(|&c| parent.iter().all(|&p| is_better(p, c)));
        if !all_better {
            return Verdict::Unresolved;
        }
    }
    Verdict::Unchanged
}

/// One side's runs: per run, the workload records by name.
struct Side {
    kind: String,
    runs: Vec<Json>,
}

fn load(path: &str) -> Result<Side, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("benchmark").and_then(Json::as_str) != Some("lbe-e2e") {
        return Err(format!("{path}: not an lbe-e2e run file"));
    }
    if doc.get("schema").and_then(Json::as_f64) != Some(SCHEMA as f64) {
        return Err(format!("{path}: schema is not {SCHEMA}"));
    }
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .filter(|r| !r.is_empty())
        .ok_or_else(|| format!("{path}: no runs"))?
        .iter()
        .map(|r| r.get("workloads").cloned().unwrap_or(Json::Null))
        .collect();
    let kind = doc
        .get("kind")
        .and_then(Json::as_str)
        .unwrap_or("run")
        .to_string();
    Ok(Side { kind, runs })
}

impl Side {
    /// Per-run values of `section.metric` on `workload` (runs lacking it
    /// are skipped).
    fn values(&self, workload: &str, section: &str, metric: &str) -> Vec<f64> {
        self.runs
            .iter()
            .filter_map(|run| {
                run.get(workload)?
                    .get(section)?
                    .get(metric)?
                    .get("value")?
                    .as_f64()
            })
            .collect()
    }

    fn failed_share(&self, workload: &str) -> Option<f64> {
        self.runs
            .iter()
            .filter_map(|run| run.get(workload)?.get("failed_share")?.as_f64())
            .reduce(f64::max)
    }

    fn digests(&self, workload: &str) -> Vec<String> {
        self.runs
            .iter()
            .filter_map(|run| {
                Some(
                    run.get(workload)?
                        .get("input_digest")?
                        .as_str()?
                        .to_string(),
                )
            })
            .collect()
    }
}

fn fmt_side(values: &[f64]) -> String {
    let (q1, med, q3) = stats::quartiles(values);
    format!("{med:>12.5} [{q1:.5}, {q3:.5}] n={}", values.len())
}

pub fn main(args: &[String]) -> Result<bool, String> {
    let [parent_path, change_path] = args else {
        return Err("usage: lbe-e2e compare <parent.json> <change.json>".into());
    };
    let parent = load(parent_path)?;
    let change = load(change_path)?;
    if parent.kind != change.kind {
        return Err(format!(
            "cannot compare a {:?} file with a {:?} file",
            parent.kind, change.kind
        ));
    }
    println!(
        "parent {parent_path} ({} runs)  vs  change {change_path} ({} runs); ratio = change / parent",
        parent.runs.len(),
        change.runs.len()
    );
    let (section, defs) = if parent.kind == "trace" {
        ("per_layer", spec::per_layer())
    } else {
        ("end_to_end", spec::end_to_end())
    };

    let mut regressions = 0;
    let mut unresolved = 0;
    for (workload, _) in spec::WORKLOADS {
        if parent.digests(workload) != change.digests(workload) {
            println!("{workload}: input digests differ — the two sides were fed different inputs");
        }
        for def in &defs {
            let p = parent.values(workload, section, &def.name);
            let c = change.values(workload, section, &def.name);
            if p.is_empty() || c.is_empty() {
                continue;
            }
            let v = verdict(def, &p, &c);
            regressions += usize::from(v == Verdict::Regressed);
            unresolved += usize::from(v == Verdict::Unresolved);
            // A trace file has ~117 rows per workload: show only the ones
            // that say something.
            if section == "per_layer" && matches!(v, Verdict::Equal | Verdict::Unchanged) {
                continue;
            }
            let (p_med, c_med) = (stats::median(&p), stats::median(&c));
            println!(
                "{workload:<13} {:<28} {:<10} parent {}  change {}  ratio {:.4} (base {:.5})  bound {}  {}",
                def.name,
                def.unit,
                fmt_side(&p),
                fmt_side(&c),
                if p_med == 0.0 { f64::NAN } else { c_med / p_med },
                p_med,
                def.bound.map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
                v.as_str()
            );
        }
        match (parent.failed_share(workload), change.failed_share(workload)) {
            (Some(p), Some(c)) if c > p => {
                println!("{workload:<13} failed_share rose from {p} to {c}  REGRESSED");
                regressions += 1;
            }
            (Some(p), Some(c)) => println!("{workload:<13} failed_share parent {p}  change {c}"),
            _ => {}
        }
    }
    println!("{regressions} regressed, {unresolved} unresolved");
    Ok(regressions == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(better: Better, bound: f64, exact: bool) -> MetricDef {
        MetricDef {
            name: "m".into(),
            unit: "u",
            better,
            bound: Some(bound),
            exact,
        }
    }

    fn around(center: f64, step: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| center + step * (i as f64 - n as f64 / 2.0))
            .collect()
    }

    #[test]
    fn regression_is_a_median_worse_by_more_than_the_bound() {
        let d = def(Better::Lower, 0.10, false);
        let parent = around(100.0, 0.1, 10);
        assert_eq!(
            verdict(&d, &parent, &around(112.0, 0.1, 10)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&d, &parent, &around(105.0, 0.1, 10)),
            Verdict::Unchanged
        );
        let h = def(Better::Higher, 0.10, false);
        assert_eq!(
            verdict(&h, &parent, &around(88.0, 0.1, 10)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&h, &parent, &around(95.0, 0.1, 10)),
            Verdict::Unchanged
        );
    }

    #[test]
    fn improvement_needs_ten_pairs_nine_wins_and_medians_apart_by_the_parents_iqr() {
        let d = def(Better::Lower, 0.10, false);
        let parent = around(100.0, 0.5, 10);
        assert_eq!(
            verdict(&d, &parent, &around(90.0, 0.5, 10)),
            Verdict::Improved
        );
        // Too few pairs: no claim, however good it looks.
        assert_eq!(
            verdict(&d, &around(100.0, 0.5, 5), &around(90.0, 0.5, 5)),
            Verdict::Unchanged
        );
        // And below five runs a side, no verdict at all — not even
        // "regressed": one run says nothing about a distribution.
        assert_eq!(verdict(&d, &[100.0], &[150.0]), Verdict::TooFewRuns);
        assert_eq!(
            verdict(&d, &around(100.0, 0.5, 4), &around(150.0, 0.5, 10)),
            Verdict::TooFewRuns
        );
        // Wins every pair but by less than the parent's own IQR.
        let nudged: Vec<f64> = parent.iter().map(|v| v - 0.01).collect();
        assert_eq!(verdict(&d, &parent, &nudged), Verdict::Unchanged);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let d = def(Better::Lower, 0.05, false);
        let noisy = around(100.0, 3.0, 10); // IQR ≈ 16 % of the median
        assert_eq!(verdict(&d, &noisy, &noisy), Verdict::Unresolved);
        // …unless every run of the change beats every run of the parent.
        let far_better = around(50.0, 3.0, 5);
        assert_eq!(
            verdict(&d, &around(100.0, 3.0, 5), &far_better),
            Verdict::Unchanged
        );
    }

    #[test]
    fn exact_metrics_are_compared_for_equality() {
        let d = def(Better::Lower, 0.02, true);
        assert_eq!(verdict(&d, &[4.5; 5], &[4.5; 5]), Verdict::Equal);
        assert_eq!(verdict(&d, &[4.5; 5], &[4.4; 5]), Verdict::Changed);
        assert_eq!(verdict(&d, &[4.5; 5], &[4.55; 5]), Verdict::Changed);
        assert_eq!(verdict(&d, &[4.5; 5], &[4.7; 5]), Verdict::Regressed);
    }

    #[test]
    fn ties_count_for_neither_side() {
        let d = def(Better::Higher, 0.10, false);
        let parent = around(100.0, 0.5, 10);
        // Two exact ties and eight wins: 8/10 < 9/10.
        let mut change: Vec<f64> = parent.iter().map(|v| v + 20.0).collect();
        change[0] = parent[0];
        change[1] = parent[1];
        assert_eq!(verdict(&d, &parent, &change), Verdict::Unchanged);
    }
}
