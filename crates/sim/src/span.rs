//! Hierarchical span tracing: causal, sim-time-stamped latency attribution.
//!
//! The flat [`TraceRing`](crate::TraceRing) answers *what happened*; spans
//! answer *where a task's time went*. A [`SpanTracer`] records a forest of
//! begin/end intervals: each span carries the sim-time it covers, an
//! optional parent (establishing causality), a [`TraceId`] correlating it
//! with the task it serves, and key=value attributes. Ids are dense indexes
//! assigned in begin order, so two runs of a deterministic simulation
//! produce byte-identical span trees — the property the trace artifact's
//! `cmp` check in CI pins.
//!
//! On top of the tree, [`CriticalPath`] decomposes every completed task's
//! end-to-end latency into its phase buckets (queue wait, compute,
//! migration, ...). Phases are recorded contiguously in integer picoseconds,
//! so the buckets sum *exactly* to the task's total latency — no float
//! residue — and the dominant phase at the p50/p95/p99 latency quantiles
//! falls out directly.
//!
//! ```
//! use vfpga_sim::{SimTime, SpanTracer, TraceId};
//!
//! let mut spans = SpanTracer::new();
//! let task = spans.begin("task", TraceId(0), None, SimTime::ZERO);
//! let wait = spans.begin("queue_wait", TraceId(0), Some(task), SimTime::ZERO);
//! spans.end(wait, SimTime::from_us(3.0));
//! let compute = spans.begin("compute", TraceId(0), Some(task), SimTime::from_us(3.0));
//! spans.end(compute, SimTime::from_us(10.0));
//! spans.attr(task, "outcome", "completed");
//! spans.end(task, SimTime::from_us(10.0));
//! let cp = vfpga_sim::CriticalPath::analyze(&spans);
//! assert_eq!(cp.tasks.len(), 1);
//! assert_eq!(cp.tasks[0].dominant().0, "compute");
//! ```

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::json::{JsonDoc, JsonWriter, WriteJson};
use crate::time::SimTime;

/// Identifies one span within its [`SpanTracer`]: a dense index assigned in
/// begin order (deterministic for a deterministic simulation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The id a [disabled](SpanTracer::disabled) tracer hands out: every
    /// operation on it is a no-op, so callers thread span ids through
    /// unconditionally and never branch on whether tracing is on.
    pub const DISCARDED: SpanId = SpanId(u64::MAX);
}

/// Correlates spans serving the same task across layers. The cloud
/// simulator uses the task's arrival index; control-plane work that serves
/// no particular task uses [`TraceId::NONE`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

impl TraceId {
    /// Control-plane spans not attributable to one task (device-failure
    /// handling, offline compilation).
    pub const NONE: TraceId = TraceId(u64::MAX);
}

/// One attribute value. `Str` covers the common static labels without
/// allocating; `Text` carries dynamic strings, and `Shared` one string
/// many spans carry (a tenant name) behind a single allocation.
#[derive(Debug, Clone, PartialEq)]
pub enum SpanValue {
    /// Unsigned integer attribute.
    U64(u64),
    /// Floating-point attribute.
    F64(f64),
    /// Static string attribute (no allocation).
    Str(&'static str),
    /// Owned string attribute.
    Text(String),
    /// Shared string attribute; serializes exactly like `Text`.
    Shared(Arc<str>),
}

impl From<u64> for SpanValue {
    fn from(v: u64) -> Self {
        SpanValue::U64(v)
    }
}

impl From<usize> for SpanValue {
    fn from(v: usize) -> Self {
        SpanValue::U64(v as u64)
    }
}

impl From<u32> for SpanValue {
    fn from(v: u32) -> Self {
        SpanValue::U64(v as u64)
    }
}

impl From<f64> for SpanValue {
    fn from(v: f64) -> Self {
        SpanValue::F64(v)
    }
}

impl From<&'static str> for SpanValue {
    fn from(v: &'static str) -> Self {
        SpanValue::Str(v)
    }
}

impl From<String> for SpanValue {
    fn from(v: String) -> Self {
        SpanValue::Text(v)
    }
}

impl From<Arc<str>> for SpanValue {
    fn from(v: Arc<str>) -> Self {
        SpanValue::Shared(v)
    }
}

impl WriteJson for SpanValue {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        match self {
            SpanValue::U64(v) => w.u64(*v),
            SpanValue::F64(v) => w.num(*v),
            SpanValue::Str(v) => w.str(v),
            SpanValue::Text(v) => w.str(v),
            SpanValue::Shared(v) => w.str(v),
        };
    }
}

/// One recorded span: a named sim-time interval with causal links.
#[derive(Debug, Clone)]
pub struct Span {
    /// This span's id (its index in the tracer).
    pub id: SpanId,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// The task this span serves ([`TraceId::NONE`] for control-plane
    /// work).
    pub trace: TraceId,
    /// Phase name (`"queue_wait"`, `"deploy"`, `"reconfigure"`, ...).
    pub name: &'static str,
    /// When the span opened.
    pub begin: SimTime,
    /// When the span closed; `None` while still open.
    pub end: Option<SimTime>,
    /// Export lane override `(pid, tid)` for the Chrome trace exporter
    /// (process = FPGA device, thread = virtual-block slot). Spans without
    /// one land on the scheduler process, one row per task.
    pub lane: Option<(u64, u64)>,
    /// Key=value attributes in recording order.
    pub attrs: Vec<(&'static str, SpanValue)>,
}

impl Span {
    /// The span's duration; `None` while open.
    pub fn duration(&self) -> Option<SimTime> {
        self.end.map(|e| e.saturating_sub(self.begin))
    }

    /// First attribute recorded under `key`.
    pub fn attr(&self, key: &str) -> Option<&SpanValue> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Whether the span carries `key` = `value` (as a string attribute).
    pub fn attr_is(&self, key: &str, value: &str) -> bool {
        match self.attr(key) {
            Some(SpanValue::Str(s)) => *s == value,
            Some(SpanValue::Text(s)) => s == value,
            Some(SpanValue::Shared(s)) => **s == *value,
            _ => false,
        }
    }
}

/// Records a forest of spans with deterministic ids.
///
/// The tracer is append-only: `begin` pushes a span and returns its index,
/// `end` closes it in place. Nothing is ever dropped — the cloud simulator
/// produces O(events) spans, which the runs the harness drives keep
/// comfortably bounded.
///
/// A tracer can be constructed [`disabled`](SpanTracer::disabled) for runs
/// that only care about throughput (the admission benchmark): `begin` then
/// returns [`SpanId::DISCARDED`] without recording, and every other
/// operation on that id is a no-op, so instrumented code needs no
/// `if traced` branches.
#[derive(Debug, Clone)]
pub struct SpanTracer {
    spans: Vec<Span>,
    open: usize,
    enabled: bool,
}

impl Default for SpanTracer {
    // Deliberately manual: a derived Default would set `enabled: false`
    // and silently drop every span recorded through it.
    fn default() -> Self {
        SpanTracer {
            spans: Vec::new(),
            open: 0,
            enabled: true,
        }
    }
}

impl SpanTracer {
    /// Creates an empty tracer.
    pub fn new() -> Self {
        SpanTracer::default()
    }

    /// Creates a tracer that records nothing: `begin` returns
    /// [`SpanId::DISCARDED`] and `end`/`attr`/`set_lane` on that id are
    /// no-ops. Used by benchmark runs to measure the scheduler without
    /// span-recording overhead.
    pub fn disabled() -> Self {
        SpanTracer {
            spans: Vec::new(),
            open: 0,
            enabled: false,
        }
    }

    /// Whether this tracer records spans.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// A context for an instrumented layer call, or `None` when this
    /// tracer is disabled — so an untraced run skips the callee's span
    /// work, including the attribute values it would build.
    pub fn ctx(
        &mut self,
        trace: TraceId,
        parent: Option<SpanId>,
        at: SimTime,
    ) -> Option<SpanCtx<'_>> {
        if !self.enabled {
            return None;
        }
        Some(SpanCtx {
            spans: self,
            trace,
            parent,
            at,
        })
    }

    /// Opens a span at `at`. `parent` must be an id this tracer issued.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `parent` is unknown or begins after `at` —
    /// a child cannot causally precede its parent.
    pub fn begin(
        &mut self,
        name: &'static str,
        trace: TraceId,
        parent: Option<SpanId>,
        at: SimTime,
    ) -> SpanId {
        if !self.enabled {
            return SpanId::DISCARDED;
        }
        if let Some(p) = parent {
            debug_assert!(
                (p.0 as usize) < self.spans.len(),
                "parent span {p:?} was never issued"
            );
            debug_assert!(
                self.spans[p.0 as usize].begin <= at,
                "child at {at:?} precedes parent begin {:?}",
                self.spans[p.0 as usize].begin
            );
        }
        let id = SpanId(self.spans.len() as u64);
        self.spans.push(Span {
            id,
            parent,
            trace,
            name,
            begin: at,
            end: None,
            lane: None,
            attrs: Vec::new(),
        });
        self.open += 1;
        id
    }

    /// Closes a span at `at`.
    ///
    /// # Panics
    ///
    /// Panics if the span is already closed or `at` precedes its begin.
    pub fn end(&mut self, id: SpanId, at: SimTime) {
        if id == SpanId::DISCARDED {
            return;
        }
        let span = &mut self.spans[id.0 as usize];
        assert!(
            span.end.is_none(),
            "span {id:?} ({}) ended twice",
            span.name
        );
        assert!(
            at >= span.begin,
            "span {id:?} ({}) ends at {at:?} before its begin {:?}",
            span.name,
            span.begin
        );
        span.end = Some(at);
        self.open -= 1;
    }

    /// Records an attribute on a span (allowed before or after `end`).
    pub fn attr(&mut self, id: SpanId, key: &'static str, value: impl Into<SpanValue>) {
        if id == SpanId::DISCARDED {
            return;
        }
        self.spans[id.0 as usize].attrs.push((key, value.into()));
    }

    /// Pins a span to an export lane: Chrome-trace process `pid` (device)
    /// and thread `tid` (virtual-block slot).
    pub fn set_lane(&mut self, id: SpanId, pid: u64, tid: u64) {
        if id == SpanId::DISCARDED {
            return;
        }
        self.spans[id.0 as usize].lane = Some((pid, tid));
    }

    /// Closes every still-open span at `at` (spans whose end never arrived,
    /// e.g. tasks still queued when the simulation drained). Ends that
    /// would precede a begin clamp to the begin.
    pub fn end_all_open(&mut self, at: SimTime) {
        for span in &mut self.spans {
            if span.end.is_none() {
                span.end = Some(at.max(span.begin));
                self.open -= 1;
            }
        }
    }

    /// Number of spans recorded (open and closed).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Spans still open.
    pub fn open_count(&self) -> usize {
        self.open
    }

    /// All spans in id (begin) order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One span by id.
    pub fn span(&self, id: SpanId) -> &Span {
        &self.spans[id.0 as usize]
    }
}

/// One completed task's end-to-end latency, decomposed into phase buckets.
///
/// Buckets are the durations of the root span's direct children grouped by
/// name, in integer picoseconds. Because the cloud simulator records phases
/// contiguously (each phase opens the instant the previous one closes),
/// the buckets sum exactly to the end-to-end latency.
#[derive(Debug, Clone)]
pub struct PhaseBuckets {
    /// The task (trace) these buckets describe.
    pub trace: TraceId,
    /// End-to-end latency (root span duration).
    pub total: SimTime,
    /// `(phase name, summed duration)`, sorted by name.
    pub phases: Vec<(&'static str, SimTime)>,
}

impl PhaseBuckets {
    /// Sum of all buckets (equals [`total`](PhaseBuckets::total) when the
    /// phases partition the root interval, which the property tests
    /// assert).
    pub fn phase_sum(&self) -> SimTime {
        self.phases
            .iter()
            .fold(SimTime::ZERO, |acc, &(_, d)| acc + d)
    }

    /// The phase holding the most time (first by name on exact ties);
    /// `("idle", total)` if the task recorded no phases at all.
    pub fn dominant(&self) -> (&'static str, SimTime) {
        let mut best: Option<(&'static str, SimTime)> = None;
        for &(name, d) in &self.phases {
            if best.is_none_or(|(_, bd)| d > bd) {
                best = Some((name, d));
            }
        }
        best.unwrap_or(("idle", self.total))
    }
}

/// Serializes as `{trace, total_s, dominant_phase, phases_s: {...}}`.
impl WriteJson for PhaseBuckets {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.obj(|w| {
            w.field("trace", self.trace.0)
                .field("total_s", self.total.as_secs())
                .field("dominant_phase", self.dominant().0);
            w.key("phases_s").obj(|w| {
                for &(name, d) in &self.phases {
                    w.field(name, d.as_secs());
                }
            });
        });
    }
}

/// Critical-path profile over a span tree: one [`PhaseBuckets`] per
/// *completed* task, plus quantile views.
///
/// A task is a root span (no parent) named `"task"` whose `outcome`
/// attribute is `"completed"`; interrupted-then-lost and never-deployed
/// tasks are excluded since they have no end-to-end latency to decompose.
#[derive(Debug, Clone, Default)]
pub struct CriticalPath {
    /// Per-task buckets in ascending trace order.
    pub tasks: Vec<PhaseBuckets>,
}

impl CriticalPath {
    /// Builds the profile from a tracer's span forest in O(spans).
    ///
    /// The parent → children index is a flat CSR built in one pass over
    /// the forest: `offsets[p]..offsets[p + 1]` slices `children` for span
    /// `p`. Spans are pushed in id order, so each slice lists a parent's
    /// children in ascending id order.
    pub fn analyze(spans: &SpanTracer) -> CriticalPath {
        let all = spans.spans();
        let n = all.len();
        let parent_of = |span: &Span| span.parent.map(|p| p.0 as usize).filter(|&p| p < n);
        // Count each parent's children two slots ahead, so the prefix sum
        // leaves `offsets[p + 1]` at the start of `p`'s slice; filling then
        // advances it to the slice's end, which is where `p + 1` starts.
        let mut offsets = vec![0usize; n + 2];
        for span in all {
            if let Some(p) = parent_of(span) {
                offsets[p + 2] += 1;
            }
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut children = vec![0usize; offsets[n + 1]];
        for (id, span) in all.iter().enumerate() {
            if let Some(p) = parent_of(span) {
                children[offsets[p + 1]] = id;
                offsets[p + 1] += 1;
            }
        }

        let mut tasks = Vec::new();
        for (id, root) in all.iter().enumerate() {
            if root.parent.is_some() || root.name != "task" {
                continue;
            }
            let Some(end) = root.end else { continue };
            if !root.attr_is("outcome", "completed") {
                continue;
            }
            let mut buckets: BTreeMap<&'static str, SimTime> = BTreeMap::new();
            for &c in &children[offsets[id]..offsets[id + 1]] {
                let child = &all[c];
                let d = child.duration().unwrap_or(SimTime::ZERO);
                *buckets.entry(child.name).or_insert(SimTime::ZERO) += d;
            }
            tasks.push(PhaseBuckets {
                trace: root.trace,
                total: end.saturating_sub(root.begin),
                phases: buckets.into_iter().collect(),
            });
        }
        tasks.sort_by_key(|t| t.trace);
        CriticalPath { tasks }
    }

    /// The task at latency quantile `q` (same rank rule as the metrics
    /// timers: ceil(q*n), clamped); `None` if no task completed.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `0.0..=1.0`.
    pub fn quantile_task(&self, q: f64) -> Option<&PhaseBuckets> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.tasks.is_empty() {
            return None;
        }
        let mut order: Vec<usize> = (0..self.tasks.len()).collect();
        // Ties break by trace id (the vec is already in trace order), so
        // the pick is deterministic.
        order.sort_by_key(|&i| (self.tasks[i].total, self.tasks[i].trace));
        let rank = ((q * order.len() as f64).ceil() as usize).clamp(1, order.len());
        Some(&self.tasks[order[rank - 1]])
    }

    /// Total time per phase across all completed tasks, sorted by name.
    pub fn phase_totals(&self) -> Vec<(&'static str, SimTime)> {
        let mut totals: BTreeMap<&'static str, SimTime> = BTreeMap::new();
        for t in &self.tasks {
            for &(name, d) in &t.phases {
                *totals.entry(name).or_insert(SimTime::ZERO) += d;
            }
        }
        totals.into_iter().collect()
    }

    /// The profile as a JSON document.
    pub fn to_json(&self) -> JsonDoc<&Self> {
        JsonDoc(self)
    }
}

/// Serializes the profile: task count, cross-task phase totals, and the
/// p50/p95/p99 task breakdowns.
impl WriteJson for CriticalPath {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.obj(|w| {
            w.field("completed_tasks", self.tasks.len());
            w.key("phase_totals_s").obj(|w| {
                for (name, d) in self.phase_totals() {
                    w.field(name, d.as_secs());
                }
            });
            w.field("p50", self.quantile_task(0.50))
                .field("p95", self.quantile_task(0.95))
                .field("p99", self.quantile_task(0.99));
        });
    }
}

/// Borrowed span context threaded through layer boundaries: the tracer plus
/// the trace/parent/time a callee should attach its spans to. Layers that
/// can be called both traced and untraced take an `Option<SpanCtx>`.
#[derive(Debug)]
pub struct SpanCtx<'a> {
    /// The tracer recording the run.
    pub spans: &'a mut SpanTracer,
    /// The task being served.
    pub trace: TraceId,
    /// The span the callee's spans nest under.
    pub parent: Option<SpanId>,
    /// The sim time of the enclosing operation (layer calls are
    /// instantaneous in sim time; their spans are zero-duration markers).
    pub at: SimTime,
}

impl SpanCtx<'_> {
    /// Reborrows the context for a nested call without consuming it.
    pub fn reborrow(&mut self) -> SpanCtx<'_> {
        SpanCtx {
            spans: self.spans,
            trace: self.trace,
            parent: self.parent,
            at: self.at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_ids_are_dense() {
        let mut s = SpanTracer::new();
        let root = s.begin("task", TraceId(3), None, SimTime::from_us(1.0));
        let child = s.begin("queue_wait", TraceId(3), Some(root), SimTime::from_us(1.0));
        assert_eq!(root, SpanId(0));
        assert_eq!(child, SpanId(1));
        assert_eq!(s.open_count(), 2);
        s.end(child, SimTime::from_us(4.0));
        s.end(root, SimTime::from_us(4.0));
        assert_eq!(s.open_count(), 0);
        assert_eq!(s.span(child).parent, Some(root));
        assert_eq!(s.span(child).duration(), Some(SimTime::from_us(3.0)));
        assert_eq!(s.span(root).trace, TraceId(3));
    }

    #[test]
    fn disabled_tracer_discards_everything() {
        let mut s = SpanTracer::disabled();
        assert!(!s.is_enabled());
        let id = s.begin("task", TraceId(0), None, SimTime::ZERO);
        assert_eq!(id, SpanId::DISCARDED);
        s.attr(id, "outcome", "completed");
        s.set_lane(id, 1, 2);
        s.end(id, SimTime::from_us(5.0));
        s.end_all_open(SimTime::from_us(9.0));
        assert!(s.is_empty());
        assert_eq!(s.open_count(), 0);
        // The default construction records (a derived Default would not).
        assert!(SpanTracer::default().is_enabled());
    }

    #[test]
    fn attrs_record_in_order_and_lookup_first() {
        let mut s = SpanTracer::new();
        let id = s.begin("deploy", TraceId(0), None, SimTime::ZERO);
        s.attr(id, "outcome", "rejected");
        s.attr(id, "units", 4u64);
        s.attr(id, "share", 0.5);
        s.end(id, SimTime::ZERO);
        let span = s.span(id);
        assert!(span.attr_is("outcome", "rejected"));
        assert_eq!(span.attr("units"), Some(&SpanValue::U64(4)));
        assert_eq!(span.attr("share"), Some(&SpanValue::F64(0.5)));
        assert_eq!(span.attr("missing"), None);
    }

    #[test]
    #[should_panic(expected = "ended twice")]
    fn double_end_panics() {
        let mut s = SpanTracer::new();
        let id = s.begin("x", TraceId(0), None, SimTime::ZERO);
        s.end(id, SimTime::ZERO);
        s.end(id, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "before its begin")]
    fn end_before_begin_panics() {
        let mut s = SpanTracer::new();
        let id = s.begin("x", TraceId(0), None, SimTime::from_us(2.0));
        s.end(id, SimTime::from_us(1.0));
    }

    #[test]
    fn end_all_open_closes_leftovers() {
        let mut s = SpanTracer::new();
        let a = s.begin("task", TraceId(0), None, SimTime::ZERO);
        let b = s.begin("queue_wait", TraceId(0), Some(a), SimTime::from_us(1.0));
        s.end_all_open(SimTime::from_us(5.0));
        assert_eq!(s.open_count(), 0);
        assert_eq!(s.span(a).end, Some(SimTime::from_us(5.0)));
        assert_eq!(s.span(b).end, Some(SimTime::from_us(5.0)));
        // Idempotent.
        s.end_all_open(SimTime::from_us(9.0));
        assert_eq!(s.span(a).end, Some(SimTime::from_us(5.0)));
    }

    fn completed_task(
        s: &mut SpanTracer,
        trace: u64,
        at_us: f64,
        wait_us: f64,
        compute_us: f64,
    ) -> SpanId {
        let t0 = SimTime::from_us(at_us);
        let t1 = SimTime::from_us(at_us + wait_us);
        let t2 = SimTime::from_us(at_us + wait_us + compute_us);
        let root = s.begin("task", TraceId(trace), None, t0);
        let w = s.begin("queue_wait", TraceId(trace), Some(root), t0);
        s.end(w, t1);
        let c = s.begin("compute", TraceId(trace), Some(root), t1);
        s.end(c, t2);
        s.attr(root, "outcome", "completed");
        s.end(root, t2);
        root
    }

    #[test]
    fn critical_path_buckets_sum_exactly() {
        let mut s = SpanTracer::new();
        completed_task(&mut s, 0, 0.0, 3.0, 7.0);
        completed_task(&mut s, 1, 5.0, 0.0, 20.0);
        // An incomplete task must be excluded.
        let lost = s.begin("task", TraceId(2), None, SimTime::ZERO);
        s.attr(lost, "outcome", "lost");
        s.end(lost, SimTime::from_us(1.0));
        let cp = CriticalPath::analyze(&s);
        assert_eq!(cp.tasks.len(), 2);
        for t in &cp.tasks {
            assert_eq!(t.phase_sum(), t.total, "buckets must sum exactly");
        }
        assert_eq!(cp.tasks[0].total, SimTime::from_us(10.0));
        assert_eq!(cp.tasks[0].dominant().0, "compute");
        // p50 is the faster task, p99 the slower one.
        assert_eq!(cp.quantile_task(0.50).unwrap().trace, TraceId(0));
        assert_eq!(cp.quantile_task(0.99).unwrap().trace, TraceId(1));
        let totals = cp.phase_totals();
        assert_eq!(
            totals,
            vec![
                ("compute", SimTime::from_us(27.0)),
                ("queue_wait", SimTime::from_us(3.0)),
            ]
        );
    }

    #[test]
    fn critical_path_serializes_with_quantiles() {
        let mut s = SpanTracer::new();
        completed_task(&mut s, 0, 0.0, 1.0, 2.0);
        let text = CriticalPath::analyze(&s).to_json().compact();
        assert!(text.contains(r#""completed_tasks":1"#), "{text}");
        assert!(text.contains(r#""dominant_phase":"compute""#), "{text}");
        assert!(text.contains(r#""p99""#), "{text}");
        let empty = CriticalPath::analyze(&SpanTracer::new())
            .to_json()
            .compact();
        assert!(empty.contains(r#""p50":null"#), "{empty}");
    }

    #[test]
    fn dominant_ties_break_by_name() {
        let b = PhaseBuckets {
            trace: TraceId(0),
            total: SimTime::from_us(2.0),
            phases: vec![
                ("compute", SimTime::from_us(1.0)),
                ("queue_wait", SimTime::from_us(1.0)),
            ],
        };
        assert_eq!(b.dominant().0, "compute");
    }

    type Profile = Vec<(TraceId, SimTime, Vec<(&'static str, SimTime)>)>;

    fn profile(cp: &CriticalPath) -> Profile {
        cp.tasks
            .iter()
            .map(|t| (t.trace, t.total, t.phases.clone()))
            .collect()
    }

    /// The analyzer before the child index: for every completed root
    /// task, scan every span for its children. O(roots × spans).
    fn naive_profile(spans: &SpanTracer) -> Profile {
        let mut tasks = Vec::new();
        for root in spans.spans() {
            if root.parent.is_some() || root.name != "task" {
                continue;
            }
            let Some(end) = root.end else { continue };
            if !root.attr_is("outcome", "completed") {
                continue;
            }
            let mut buckets: BTreeMap<&'static str, SimTime> = BTreeMap::new();
            for child in spans.spans() {
                if child.parent == Some(root.id) {
                    let d = child.duration().unwrap_or(SimTime::ZERO);
                    *buckets.entry(child.name).or_insert(SimTime::ZERO) += d;
                }
            }
            tasks.push((
                root.trace,
                end.saturating_sub(root.begin),
                buckets.into_iter().collect(),
            ));
        }
        tasks.sort_by_key(|t| t.0);
        tasks
    }

    /// A random forest of `n` spans: roots named `task` and not, deep
    /// chains and grandchildren, repeated trace ids, `completed` as a
    /// static, owned and shared string next to other outcomes and none,
    /// and spans (roots and children) left open.
    fn random_forest(rng: &mut crate::Rng, n: usize) -> SpanTracer {
        const NAMES: [&str; 5] = ["task", "queue_wait", "compute", "migrate", "deploy"];
        let mut s = SpanTracer::new();
        let mut open: Vec<SpanId> = Vec::new();
        let mut now = 0u64;
        for _ in 0..n {
            now += rng.below(1_000) as u64;
            let at = SimTime::from_ps(now);
            while !open.is_empty() && rng.below(3) == 0 {
                let id = open.swap_remove(rng.below(open.len()));
                s.end(id, at);
            }
            let len = s.len();
            let parent = match rng.below(4) {
                _ if len == 0 => None,
                0 => None,
                // Recent spans: deep chains and grandchildren.
                1 => Some(SpanId((len - 1 - rng.below(len.min(4))) as u64)),
                _ => Some(SpanId(rng.below(len) as u64)),
            };
            let name = if parent.is_none() && rng.below(4) > 0 {
                "task"
            } else {
                NAMES[rng.below(NAMES.len())]
            };
            let id = s.begin(name, TraceId(rng.below(n / 4 + 1) as u64), parent, at);
            match rng.below(6) {
                0 => s.attr(id, "outcome", "completed"),
                1 => s.attr(id, "outcome", "completed".to_string()),
                2 => s.attr(id, "outcome", Arc::<str>::from("completed")),
                3 => s.attr(id, "outcome", "lost"),
                4 => s.attr(id, "units", 3u64),
                _ => {}
            }
            open.push(id);
        }
        s
    }

    #[test]
    fn indexed_analysis_matches_the_naive_scan_on_random_forests() {
        let mut rng = crate::Rng::seed_from_u64(0xC5_2024);
        let mut completed = 0;
        for case in 0..200 {
            let n = 1 + rng.below(120);
            let spans = random_forest(&mut rng, n);
            let cp = CriticalPath::analyze(&spans);
            assert_eq!(
                profile(&cp),
                naive_profile(&spans),
                "case {case}, {n} spans"
            );
            completed += cp.tasks.len();
        }
        assert!(completed > 200, "forests too sparse: {completed} tasks");
    }

    #[test]
    fn two_hundred_thousand_spans_analyze_in_well_under_a_second() {
        // 40k completed tasks of one root and four phases each: the old
        // O(roots × spans) scan would visit 8e9 spans here.
        let tasks = 40_000u64;
        let mut s = SpanTracer::new();
        for trace in 0..tasks {
            let t0 = trace * 1_000;
            let root = s.begin("task", TraceId(trace), None, SimTime::from_ps(t0));
            for (i, name) in ["queue_wait", "deploy", "compute", "compute"]
                .into_iter()
                .enumerate()
            {
                let begin = SimTime::from_ps(t0 + 100 * i as u64);
                let phase = s.begin(name, TraceId(trace), Some(root), begin);
                s.end(phase, begin + SimTime::from_ps(100));
            }
            s.attr(root, "outcome", "completed");
            s.end(root, SimTime::from_ps(t0 + 400));
        }
        assert_eq!(s.len(), 200_000);
        let started = std::time::Instant::now();
        let cp = CriticalPath::analyze(&s);
        let took = started.elapsed();
        assert!(took.as_secs_f64() < 1.0, "analysis took {took:?}");
        assert_eq!(cp.tasks.len(), tasks as usize);
        for t in &cp.tasks {
            assert_eq!(t.phase_sum(), t.total);
            assert_eq!(t.dominant(), ("compute", SimTime::from_ps(200)));
        }
    }
}
