//! The benchmark's own tracer: spans and counts recorded in memory at
//! every call the benchmark makes into a layer of the program, written out
//! once the workload ends. Spans *inside* the program are a later issue;
//! until then a layer's time is what the caller can see around its `pub`
//! entry points.
//!
//! A disabled tracer records nothing, so the untraced run — the only
//! source of end-to-end metrics — pays one branch per call.

use crate::json::{obj, Json};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span, used as the `parent` of its children.
pub type SpanId = u32;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.operation`, e.g. `index.builder.build_parallel`.
    pub name: String,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Spans of one request share an identifier; 0 = not request-scoped.
    pub request_id: u64,
}

/// Per-request spans are sampled so one trace stays under ~10 MB: this
/// many spans at ~120 bytes of JSON each.
const MAX_REQUEST_SPANS: usize = 60_000;

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    counts: BTreeMap<String, u64>,
    request_spans: usize,
}

/// In-memory span and count recorder, shareable across client threads.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the tracer's epoch.
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the tracer's epoch to `t`.
    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("a tracing thread panicked")
    }

    /// Runs `f` inside a span named `name` under `parent`, handing `f` the
    /// new span's id for its own children. Returns `f`'s value and the
    /// span's duration in seconds (measured whether or not tracing is on,
    /// so probes can use one code path for both).
    pub fn span<T>(
        &self,
        name: &str,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> (T, f64) {
        let id = self.enabled.then(|| {
            let start = self.now_ns();
            let mut inner = self.lock();
            inner.spans.push(Span {
                name: name.to_string(),
                start_ns: start,
                end_ns: start,
                parent,
                request_id: 0,
            });
            (inner.spans.len() - 1) as SpanId
        });
        let t0 = Instant::now();
        let value = f(id);
        let secs = t0.elapsed().as_secs_f64();
        if let Some(id) = id {
            let end = self.now_ns();
            self.lock().spans[id as usize].end_ns = end;
        }
        (value, secs)
    }

    /// Records an already-measured request span (a response that arrived
    /// on a client thread). Sampled: once the request budget is spent,
    /// further request spans are dropped and only counted.
    pub fn request(
        &self,
        name: &str,
        parent: Option<SpanId>,
        request_id: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        if !self.enabled {
            return;
        }
        let mut inner = self.lock();
        inner.request_spans += 1;
        if inner.request_spans <= MAX_REQUEST_SPANS {
            inner.spans.push(Span {
                name: name.to_string(),
                start_ns,
                end_ns: end_ns.max(start_ns),
                parent,
                request_id,
            });
        } else {
            *inner.counts.entry(format!("{name}.unsampled")).or_insert(0) += 1;
        }
    }

    /// Adds `n` to the counter `name` (work done at a boundary).
    pub fn count(&self, name: &str, n: u64) {
        if self.enabled {
            *self.lock().counts.entry(name.to_string()).or_insert(0) += n;
        }
    }

    /// Everything recorded so far.
    pub fn snapshot(&self) -> (Vec<Span>, BTreeMap<String, u64>) {
        let inner = self.lock();
        (inner.spans.clone(), inner.counts.clone())
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover. Children may overlap each other (requests
/// in flight together), so the covered part is the *union* of the child
/// intervals, clipped to the parent.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Checks the trace is well-formed: every span ends no earlier than it
/// starts, every parent exists and was recorded before its child, and
/// every child lies inside its parent.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        if let Some(p) = s.parent {
            let Some(parent) = spans.get(p as usize).filter(|_| (p as usize) < i) else {
                return Err(format!(
                    "span {i} ({}) names a later or missing parent",
                    s.name
                ));
            };
            if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                return Err(format!(
                    "span {i} ({}) [{}, {}] escapes its parent {} [{}, {}]",
                    s.name, s.start_ns, s.end_ns, parent.name, parent.start_ns, parent.end_ns
                ));
            }
        }
    }
    Ok(())
}

/// Per-name totals: `(spans, total ns, self ns)`, by span name.
pub fn layer_summary(spans: &[Span]) -> BTreeMap<String, (u64, u64, u64)> {
    let selfs = self_times_ns(spans);
    let mut out: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let e = out.entry(s.name.clone()).or_insert((0, 0, 0));
        e.0 += 1;
        e.1 += s.end_ns - s.start_ns;
        e.2 += self_ns;
    }
    out
}

/// The trace file: stamps, per-layer summary, counts, then every span.
pub fn to_json(
    stamps: Json,
    workload: &str,
    spans: &[Span],
    counts: &BTreeMap<String, u64>,
) -> Json {
    let summary = layer_summary(spans)
        .into_iter()
        .map(|(name, (n, total, self_ns))| {
            (
                name,
                obj([
                    ("spans", n.into()),
                    ("total_ns", total.into()),
                    ("self_ns", self_ns.into()),
                ]),
            )
        })
        .collect();
    let counts = counts
        .iter()
        .map(|(k, &v)| (k.clone(), Json::from(v)))
        .collect();
    let spans = spans
        .iter()
        .map(|s| {
            obj([
                ("name", s.name.as_str().into()),
                ("start_ns", s.start_ns.into()),
                ("end_ns", s.end_ns.into()),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::from(u64::from(p))),
                ),
                ("request_id", s.request_id.into()),
            ])
        })
        .collect();
    obj([
        ("benchmark", "lbe-e2e".into()),
        ("kind", "trace".into()),
        ("workload", workload.into()),
        ("stamps", stamps),
        ("layers", Json::Obj(summary)),
        ("counts", Json::Obj(counts)),
        ("spans", Json::Arr(spans)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: name.into(),
            start_ns: start,
            end_ns: end,
            parent,
            request_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Overlaps `a`: the union [10, 60] covers 50 ns, not 30 + 40.
            span("b", 20, 60, Some(0)),
            span("c", 80, 90, Some(0)),
            span("leaf", 25, 30, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 30, 35, 10, 5]);
        assert!(check_nesting(&spans).is_ok());
        let summary = layer_summary(&spans);
        assert_eq!(summary["root"], (1, 100, 40));
    }

    #[test]
    fn self_time_is_never_negative() {
        // Children that (wrongly) stick out are clipped to the parent.
        let spans = vec![span("root", 10, 20, None), span("kid", 0, 50, Some(0))];
        assert_eq!(self_times_ns(&spans)[0], 0);
        assert!(check_nesting(&spans).is_err());
    }

    #[test]
    fn nesting_rejects_forward_parents_and_reversed_spans() {
        assert!(check_nesting(&[span("x", 5, 4, None)]).is_err());
        assert!(check_nesting(&[span("x", 0, 4, Some(1)), span("y", 0, 9, None)]).is_err());
    }

    #[test]
    fn disabled_tracer_records_nothing_but_still_times() {
        let t = Tracer::new(false);
        let (v, secs) = t.span("a.b", None, |id| {
            assert!(id.is_none());
            7
        });
        t.count("n", 3);
        t.request("r", None, 1, 0, 5);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        let (spans, counts) = t.snapshot();
        assert!(spans.is_empty() && counts.is_empty());
    }

    #[test]
    fn enabled_tracer_nests_closures() {
        let t = Tracer::new(true);
        t.span("outer", None, |outer| {
            t.span("inner", outer, |_| ());
            t.count("calls", 2);
        });
        let (spans, counts) = t.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(counts["calls"], 2);
        check_nesting(&spans).unwrap();
    }
}
