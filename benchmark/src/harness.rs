//! What every workload shares: its context, the shape of what it
//! measured, and the helpers that turn samples into the contract's
//! end-to-end metrics.

use crate::check::Check;
use crate::gen::Scale;
use crate::json::{obj, Json};
use crate::stats;
use crate::sys;
use crate::trace::{SpanId, Tracer};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Everything a workload is given.
pub struct Ctx<'a> {
    pub scale: Scale,
    pub seed: u64,
    /// Timed length of the untraced measurement.
    pub seconds: f64,
    /// `nproc`: worker threads handed to the program, and the cap on the
    /// benchmark's own generator threads and client connections.
    pub threads: usize,
    /// Enabled only in the traced run.
    pub tracer: &'a Tracer,
    /// Scratch directory inside the checkout; removed when the run ends.
    pub work_dir: PathBuf,
}

/// A reported number with the spread of the samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Sample {
    /// A single exact value (a count, a size).
    pub fn exact(value: f64) -> Self {
        Sample {
            value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// The median of `samples`, with their quartiles.
    pub fn median_of(samples: &[f64]) -> Self {
        let (q1, med, q3) = stats::quartiles(samples);
        Sample {
            value: med,
            q1,
            q3,
            n: samples.len(),
        }
    }

    pub fn to_json(self, unit: &str) -> Json {
        obj([
            ("value", self.value.into()),
            ("unit", unit.into()),
            ("q1", self.q1.into()),
            ("q3", self.q3.into()),
            ("n", self.n.into()),
        ])
    }
}

/// Rounds the round-based workloads (`batch_*`, `cluster_lbe`: ≈ 0.2 s a
/// round) are sized to complete in a run even at half speed; their frozen
/// tail percentile is what the rule allows that many samples — p75.
pub const SIZED_ROUNDS: usize = 40;

/// What one timed phase of a workload produced.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Completed, verified spectra per second, one sample per round.
    pub round_throughput: Vec<f64>,
    /// What one caller waited, in ms (a batch round, one served spectrum,
    /// one cluster job), in the order the calls were made or due.
    pub turnaround_ms: Vec<f64>,
    /// Consecutive turnaround samples per window; 0 = the whole phase is
    /// one window. `turnaround_p50_ms` and `turnaround_tail_ms` are taken
    /// per window and the median window is reported (see
    /// [`Outcome::set_measured`]).
    pub window: usize,
    /// The workload's frozen tail percentile (see
    /// [`stats::tail_percentile`]).
    pub tail_pctile: f64,
    /// Operations attempted and failed (refused, errored, degraded or
    /// wrong answers).
    pub attempted: u64,
    pub failed: u64,
}

impl Measured {
    /// A served phase in which nothing measurable was answered has no
    /// samples to take a median of: it is recorded as a failure with a
    /// throughput of (almost) nothing and a turnaround that misses every
    /// limit.
    pub fn fail_if_unanswered(&mut self) {
        if self.round_throughput.is_empty() || self.turnaround_ms.is_empty() {
            self.round_throughput = vec![f64::MIN_POSITIVE];
            self.turnaround_ms = vec![f64::INFINITY];
            self.failed = self.failed.max(1);
        }
    }

    /// `(p50, tail)` of each window of turnaround samples. A trailing
    /// part-window is left out unless it is all there is.
    fn window_percentiles(&self) -> Vec<(f64, f64)> {
        let n = self.turnaround_ms.len();
        let window = if self.window == 0 {
            n
        } else {
            self.window.min(n)
        };
        self.turnaround_ms
            .chunks_exact(window.max(1))
            .map(|w| {
                let mut v = w.to_vec();
                v.sort_by(f64::total_cmp);
                (
                    stats::percentile_sorted(&v, 50.0),
                    stats::percentile_sorted(&v, self.tail_pctile),
                )
            })
            .collect()
    }
}

/// What a workload hands back.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub input_digest: String,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// End-to-end metrics by name.
    pub e2e: BTreeMap<String, Sample>,
    /// Traced run only: how much slower the traced phase ran than the
    /// untraced one, in percent of throughput.
    pub trace_overhead_pct: Option<f64>,
    /// The turnaround tail and the percentile it is (per-layer metrics
    /// `workload.turnaround_tail_ms` / `_pctile`; see README for why the
    /// tail is not an end-to-end metric).
    pub tail_ms: f64,
    pub tail_pctile: f64,
    /// Sizes, percentiles and counts worth printing and recording.
    pub notes: Vec<(String, Json)>,
}

impl Outcome {
    pub fn note(&mut self, key: &str, value: impl Into<Json>) {
        self.notes.push((key.to_string(), value.into()));
    }

    /// Every check passed and nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.checks.iter().all(Check::passed)
    }

    /// Folds a failed check into the failure count: its operations count
    /// as failed, so a wrong answer can never hide behind a good speed.
    pub fn add_check(&mut self, check: Check) {
        if !check.passed() {
            self.attempted += check.compared.max(1);
            self.failed += check.disagreed.max(1);
        }
        self.checks.push(check);
    }

    /// Records the timing metrics of the final measured phase, and the
    /// tracing overhead [`measure_phases`] found (traced run only).
    ///
    /// Throughput is the median round. Turnaround is the median
    /// *window's* p50, and its tail the median window's tail percentile: a
    /// served phase is cut into windows of consecutive requests, so a
    /// stall of the host — this sandbox's vCPU stops for 100–300 ms now
    /// and then, and an open loop charges that to every request due
    /// meanwhile — spoils the windows it falls in and not the run's
    /// number. Rounds and jobs (tens to a hundred samples) are one window.
    pub fn set_measured(&mut self, m: &Measured, trace_overhead_pct: Option<f64>) {
        self.trace_overhead_pct = trace_overhead_pct;
        self.attempted += m.attempted;
        self.failed += m.failed;
        self.e2e.insert(
            "throughput_per_s".into(),
            Sample::median_of(&m.round_throughput),
        );
        let (p50s, tails): (Vec<f64>, Vec<f64>) = m.window_percentiles().into_iter().unzip();
        // Quartiles are across windows; `n` is the samples behind them.
        let over_windows = |v: &[f64]| Sample {
            n: m.turnaround_ms.len(),
            ..Sample::median_of(v)
        };
        self.e2e
            .insert("turnaround_p50_ms".into(), over_windows(&p50s));
        self.tail_ms = stats::median(&tails);
        self.tail_pctile = m.tail_pctile;
        self.note("turnaround_tail_ms", self.tail_ms);
        self.note("turnaround_tail_pctile", m.tail_pctile);
        self.note("turnaround_windows", p50s.len());
        self.note("rounds", m.round_throughput.len());
    }
}

/// Runs the workload's timed phase. Untraced run: once, for
/// `ctx.seconds`. Traced run: a short discarded warm-up (so the first
/// measured phase is not also the cold one), a quarter of `ctx.seconds`
/// untraced, then a quarter traced (the layer probes take the rest of the
/// time); the drop in throughput between the two is the tracing overhead
/// in percent.
pub fn measure_phases(
    ctx: &Ctx,
    mut measure: impl FnMut(f64, &Tracer) -> Measured,
) -> (Measured, Option<f64>) {
    if !ctx.tracer.enabled() {
        return (measure(ctx.seconds, ctx.tracer), None);
    }
    let off = Tracer::new(false);
    measure(ctx.seconds / 10.0, &off);
    let plain = measure(ctx.seconds / 4.0, &off);
    let traced = measure(ctx.seconds / 4.0, ctx.tracer);
    let thr = |m: &Measured| stats::median(&m.round_throughput);
    let overhead = (1.0 - thr(&traced) / thr(&plain)) * 100.0;
    (traced, Some(overhead))
}

/// Cheap set-ups (tens of ms) repeat beyond `setup_reps`, until this many
/// seconds are spent or [`MAX_SETUP_REPS`] are done: the shorter a timing,
/// the more samples its median needs to sit still.
const SETUP_BUDGET_S: f64 = 1.5;
const MAX_SETUP_REPS: usize = 25;

/// The program's set-up, repeated and timed; the median is `setup_s`.
///
/// A workload may take early repetitions' products for its own
/// scaffolding (checks, expected answers) via [`SetupReps::rep`]; the
/// product of the *last* repetition, from [`SetupReps::finish`], is what
/// gets measured. Just before that last repetition the allocator's freed
/// memory is returned and the peak-RSS mark reset, so `peak_rss_mb` covers
/// the program's final set-up and the measurement — not the benchmark's
/// reference engines, and not whatever the allocator happened to keep.
pub struct SetupReps<'a> {
    ctx: &'a Ctx<'a>,
    times: Vec<f64>,
}

impl<'a> SetupReps<'a> {
    pub fn new(ctx: &'a Ctx<'a>) -> Self {
        SetupReps {
            ctx,
            times: Vec::new(),
        }
    }

    /// One timed repetition under a `setup` span that `f` hangs its
    /// per-layer spans from.
    pub fn rep<T>(&mut self, f: impl FnOnce(Option<SpanId>) -> T) -> T {
        let (product, secs) = self.ctx.tracer.span("setup", None, f);
        self.times.push(secs);
        product
    }

    /// Runs the remaining repetitions — at least `scale.setup_reps` in
    /// all (the traced run, which reports no end-to-end metric, does only
    /// the final one) — and returns the last one's product with the
    /// `setup_s` sample.
    pub fn finish<T>(mut self, mut f: impl FnMut(Option<SpanId>) -> T) -> (T, Sample) {
        let (min_reps, max_reps) = if self.ctx.tracer.enabled() {
            (1, 1)
        } else {
            (self.ctx.scale.setup_reps, MAX_SETUP_REPS)
        };
        // One repetition is always still to come after this loop.
        while self.times.len() + 1 < min_reps
            || (self.times.len() + 1 < max_reps && self.times.iter().sum::<f64>() < SETUP_BUDGET_S)
        {
            drop(self.rep(&mut f));
        }
        sys::settle_memory();
        let product = self.rep(&mut f);

        (product, Sample::median_of(&self.times))
    }
}

/// Calls `round` until `seconds` of wall clock have passed (at least
/// twice), collecting the seconds each call reports for its timed part —
/// a round times the program's work and leaves its own verification out.
pub fn timed_rounds(seconds: f64, mut round: impl FnMut(usize) -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        times.push(round(times.len()));
    }
    times
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stall_spoils_its_window_not_the_run() {
        // Five windows of 100 requests at 1 ms; a stall makes 30 requests
        // of the third window wait 200 ms. Over the whole phase that is
        // 6 % of the samples — p95 would read 200 ms — but only one window
        // in five, so the median window still reads 1 ms.
        let mut turnaround_ms = vec![1.0; 520];
        turnaround_ms[210..240].fill(200.0);
        let m = Measured {
            round_throughput: vec![1000.0],
            turnaround_ms,
            window: 100,
            tail_pctile: 95.0,
            attempted: 520,
            failed: 0,
        };
        let windows = m.window_percentiles();
        // The trailing 20 samples are not a window.
        assert_eq!(windows.len(), 5);
        assert_eq!(windows[2], (1.0, 200.0));
        let mut out = Outcome::default();
        out.set_measured(&m, None);
        assert_eq!(out.e2e["turnaround_p50_ms"].value, 1.0);
        assert_eq!(out.tail_ms, 1.0);

        // One window (rounds, jobs): plain percentiles of all samples.
        let rounds = Measured {
            turnaround_ms: (1..=40).map(f64::from).collect(),
            window: 0,
            tail_pctile: stats::tail_percentile(SIZED_ROUNDS),
            ..m
        };
        assert_eq!(rounds.window_percentiles(), vec![(20.0, 30.0)]);
    }
}
