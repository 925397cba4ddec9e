//! Spans recorded by the benchmark itself, around its calls into each
//! layer of the program (in-program spans are a later change).
//!
//! Every span carries a name `layer.function`, its start and end on the
//! benchmark's monotonic clock, the span that caused it, and the id of
//! the operation it belongs to. Two kinds exist:
//!
//! * **direct** spans wrap a call the benchmark makes on the measured
//!   path (`parse.parse_query`, `engine.run`, `service.serve`, …); they
//!   nest in time inside their parent;
//! * **replayed** spans wrap a direct call into a lower layer
//!   (`kernels.scan_interval`, `bitmap.query`, …) on the exact inputs an
//!   `engine.run` touched. They run *after* the parent returned, so they
//!   carry the parent's id but not its time interval.
//!
//! A span's self time is its duration minus the part of its interval its
//! direct children cover. Replayed children never cover their parent's
//! interval; their summed duration is instead compared with the parent's
//! duration to give the unattributed share.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.function`.
    pub name: &'static str,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Operation id shared by all spans of one benchmark operation.
    pub op: u64,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Replayed after the fact (see module docs).
    pub replayed: bool,
    /// Calls into the layer function this span wraps (a replayed span
    /// usually loops over the regions a query touched).
    pub calls: u64,
    /// Work those calls processed, in the function's natural unit
    /// (elements, runs, words or bytes); 0 where only time per call matters.
    pub units: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer: the part of the name before the first dot
    /// (`"kernels.scan_interval"` → `"kernels"`).
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Operation id of standalone probes: spans outside any measured operation.
pub const STANDALONE_OP: u64 = 0;

/// Summed duration, calls and work of a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Summed duration, ns.
    pub dur_ns: u64,
    /// Summed layer calls.
    pub calls: u64,
    /// Summed work units.
    pub units: u64,
}

impl Totals {
    /// Mean nanoseconds per call; 0 without calls.
    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.dur_ns as f64 / self.calls as f64
        }
    }

    /// Work units per microsecond (= millions per second); 0 without time.
    pub fn units_per_us(&self) -> f64 {
        if self.dur_ns == 0 {
            0.0
        } else {
            self.units as f64 * 1e3 / self.dur_ns as f64
        }
    }

    /// The sum of two totals.
    pub fn plus(self, other: Totals) -> Totals {
        Totals {
            dur_ns: self.dur_ns + other.dur_ns,
            calls: self.calls + other.calls,
            units: self.units + other.units,
        }
    }
}

/// In-memory span recorder; written out once, when the run ends.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer; its clock starts now.
    pub fn new() -> Self {
        Self { t0: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Self::end`].
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        replayed: bool,
    ) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            op,
            start_ns: now,
            end_ns: now,
            replayed,
            calls: 1,
            units: 0,
        });
        self.spans.len() - 1
    }

    /// Close a span, recording how many layer calls it wrapped and how
    /// much work they processed.
    pub fn end(&mut self, id: SpanId, calls: u64, units: u64) {
        let now = self.now_ns();
        let s = &mut self.spans[id];
        s.end_ns = now;
        s.calls = calls;
        s.units = units;
    }

    /// Record a replayed span around `f`, which returns its result, the
    /// number of layer calls it made, and the work they processed.
    pub fn replay<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        f: impl FnOnce() -> (R, u64, u64),
    ) -> R {
        let op = self.spans[parent].op;
        let id = self.begin(name, Some(parent), op, true);
        let (r, calls, units) = f();
        self.end(id, calls, units);
        r
    }

    /// All spans, in creation order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append a span with explicit times.
    #[cfg(test)]
    pub fn push_raw(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Self time of every span: duration minus the length of the union of
    /// its direct (non-replayed) children's intervals, clipped to the span.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let (Some(p), false) = (s.parent, s.replayed) {
                let parent = &self.spans[p];
                let lo = s.start_ns.max(parent.start_ns);
                let hi = s.end_ns.min(parent.end_ns);
                if lo < hi {
                    children[p].push((lo, hi));
                }
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = 0u64;
                for &(lo, hi) in kids.iter() {
                    let lo = lo.max(reach);
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
                s.dur_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Busy nanoseconds per layer over the operations with ids from
    /// `ops_from` on: the summed self time of the layer's spans, replayed
    /// and direct alike. Standalone probes — operation id 0 — are left out.
    pub fn busy_ns_by_layer(&self, ops_from: u64) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times_ns()) {
            if s.op != STANDALONE_OP && s.op >= ops_from {
                *out.entry(s.layer()).or_insert(0) += own;
            }
        }
        out
    }

    /// Summed duration, calls and work of the spans called `name`.
    pub fn total_of(&self, name: &str) -> Totals {
        self.spans.iter().filter(|s| s.name == name).fold(Totals::default(), |t, s| Totals {
            dur_ns: t.dur_ns + s.dur_ns(),
            calls: t.calls + s.calls,
            units: t.units + s.units,
        })
    }

    /// The timeline in Chrome trace format (`chrome://tracing`, Perfetto):
    /// direct spans on thread 1, replayed spans on thread 2, each with its
    /// operation id, parent index, self time and call count as arguments.
    pub fn to_chrome(&self, workload: &str) -> Json {
        let own = self.self_times_ns();
        let mut events = vec![
            thread_name(1, &format!("{workload}: measured path")),
            thread_name(2, &format!("{workload}: replayed layer calls")),
        ];
        for (i, s) in self.spans.iter().enumerate() {
            events.push(Json::obj(vec![
                ("name", Json::str(s.name)),
                ("cat", Json::str(s.layer())),
                ("ph", Json::str("X")),
                ("pid", Json::Int(1)),
                ("tid", Json::Int(if s.replayed { 2 } else { 1 })),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num(s.dur_ns() as f64 / 1e3)),
                (
                    "args",
                    Json::obj(vec![
                        ("span", Json::Int(i as i64)),
                        ("parent", s.parent.map_or(Json::Int(-1), |p| Json::Int(p as i64))),
                        ("op", Json::Int(s.op as i64)),
                        ("replayed", Json::Bool(s.replayed)),
                        ("calls", Json::Int(s.calls as i64)),
                        ("units", Json::Int(s.units as i64)),
                        ("self_us", Json::Num(own[i] as f64 / 1e3)),
                    ]),
                ),
            ]));
        }
        Json::obj(vec![("displayTimeUnit", Json::str("ms")), ("traceEvents", Json::Arr(events))])
    }
}

/// The spans of one benchmark operation: a root span plus one direct
/// child per call into the program. Without a tracer every method is a
/// plain call, so the measured path is the same code either way.
pub struct OpTrace<'t> {
    tracer: Option<&'t mut Tracer>,
    op: u64,
    root: Option<SpanId>,
}

impl<'t> OpTrace<'t> {
    /// Open the operation's root span (when tracing).
    pub fn begin(mut tracer: Option<&'t mut Tracer>, root_name: &'static str, op: u64) -> Self {
        let root = tracer.as_mut().map(|t| t.begin(root_name, None, op, false));
        Self { tracer, op, root }
    }

    /// Run `f` — which returns its result and the work it processed —
    /// inside a direct child span called `name`. Returns the span's id.
    pub fn child<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce() -> (R, u64),
    ) -> (R, Option<SpanId>) {
        let span = self.tracer.as_mut().map(|t| t.begin(name, self.root, self.op, false));
        let (r, units) = f();
        if let (Some(t), Some(s)) = (self.tracer.as_mut(), span) {
            t.end(s, 1, units);
        }
        (r, span)
    }

    /// Close the root span.
    pub fn finish(mut self) {
        if let (Some(t), Some(r)) = (self.tracer.as_mut(), self.root) {
            t.end(r, 1, 0);
        }
    }
}

fn thread_name(tid: i64, name: &str) -> Json {
    Json::obj(vec![
        ("name", Json::str("thread_name")),
        ("ph", Json::str("M")),
        ("pid", Json::Int(1)),
        ("tid", Json::Int(tid)),
        ("args", Json::obj(vec![("name", Json::str(name))])),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(
        name: &'static str,
        parent: Option<SpanId>,
        start: u64,
        end: u64,
        replayed: bool,
    ) -> Span {
        Span { name, parent, op: 7, start_ns: start, end_ns: end, replayed, calls: 1, units: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_direct_children() {
        let mut t = Tracer::new();
        let root = t.push_raw(raw("bench.op", None, 0, 100, false));
        // Two overlapping children cover [10, 50); a third covers [60, 70).
        t.push_raw(raw("parse.parse_query", Some(root), 10, 40, false));
        let run = t.push_raw(raw("engine.run", Some(root), 30, 50, false));
        t.push_raw(raw("engine.get_data", Some(root), 60, 70, false));
        // A grandchild only reduces its own parent's self time.
        t.push_raw(raw("plan.build", Some(run), 35, 45, false));
        let own = t.self_times_ns();
        assert_eq!(own[root], 100 - 40 - 10);
        assert_eq!(own[run], 20 - 10);
        assert_eq!(own[1], 30);
        assert_eq!(own[4], 10);
    }

    #[test]
    fn children_are_clipped_to_the_parent_interval() {
        let mut t = Tracer::new();
        let root = t.push_raw(raw("bench.op", None, 100, 200, false));
        t.push_raw(raw("engine.run", Some(root), 50, 120, false));
        t.push_raw(raw("engine.get_data", Some(root), 190, 400, false));
        assert_eq!(t.self_times_ns()[root], 100 - 20 - 10);
    }

    #[test]
    fn replayed_children_do_not_cover_their_parent() {
        let mut t = Tracer::new();
        let run = t.push_raw(raw("engine.run", None, 0, 100, false));
        t.push_raw(raw("kernels.scan_interval", Some(run), 500, 560, true));
        t.push_raw(raw("selection.union_many", Some(run), 560, 570, true));
        let own = t.self_times_ns();
        assert_eq!(own[run], 100);
        let busy = t.busy_ns_by_layer(1);
        assert_eq!(busy["engine"], 100);
        assert_eq!(busy["kernels"], 60);
        assert_eq!(busy["selection"], 10);
        assert_eq!(t.total_of("kernels.scan_interval"), Totals { dur_ns: 60, calls: 1, units: 0 });
        // A standalone probe (operation 0) is timed but never counted busy.
        t.push_raw(Span {
            op: STANDALONE_OP,
            ..raw("kernels.count_matches", None, 600, 650, false)
        });
        assert_eq!(t.busy_ns_by_layer(1)["kernels"], 60);
        assert!(t.busy_ns_by_layer(8).is_empty());
        assert_eq!(t.total_of("kernels.count_matches").dur_ns, 50);
    }

    #[test]
    fn recorded_spans_nest_and_share_the_op_id() {
        let mut t = Tracer::new();
        let root = t.begin("bench.op", None, 42, false);
        let run = t.begin("engine.run", Some(root), 42, false);
        t.end(run, 1, 0);
        t.replay("kernels.scan_interval", run, || ((), 5, 640));
        t.end(root, 1, 0);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert!(s[root].start_ns <= s[run].start_ns && s[run].end_ns <= s[root].end_ns);
        assert_eq!((s[2].op, s[2].replayed, s[2].calls, s[2].parent), (42, true, 5, Some(run)));
        assert_eq!((s[2].units, s[2].layer()), (640, "kernels"));
        let totals = Totals { dur_ns: 2_000, calls: 4, units: 6_000 };
        assert_eq!((totals.ns_per_call(), totals.units_per_us()), (500.0, 3_000.0));
    }

    #[test]
    fn op_trace_is_transparent_without_a_tracer() {
        let mut none = OpTrace::begin(None, "bench.op", 1);
        assert_eq!(none.child("engine.run", || (7, 0)), (7, None));
        none.finish();
        let mut t = Tracer::new();
        let mut some = OpTrace::begin(Some(&mut t), "bench.op", 9);
        let (v, span) = some.child("engine.get_data", || ("x", 12));
        some.finish();
        assert_eq!((v, span), ("x", Some(1)));
        assert_eq!((t.spans()[1].parent, t.spans()[1].op, t.spans()[1].units), (Some(0), 9, 12));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
    }

    #[test]
    fn chrome_trace_has_one_complete_event_per_span() {
        let mut t = Tracer::new();
        t.push_raw(raw("engine.run", None, 1000, 3000, false));
        let line = t.to_chrome("scan_wide").to_line();
        assert!(line.contains(r#""name":"engine.run","cat":"engine","ph":"X""#));
        assert!(line.contains(r#""ts":1,"dur":2"#));
        assert!(line.contains(r#""self_us":2"#));
    }
}
