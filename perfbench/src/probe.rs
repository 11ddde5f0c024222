//! Host-side instrumentation around the benchmark's calls into the stack.
//!
//! Every call into a layer goes through [`Probe::enter`] / [`Probe::exit`],
//! which always sample the counting allocator (deterministic per-layer
//! allocation counters) and, in a traced run, record a host-time span with
//! the existing [`SpanTracer`] (host nanoseconds stored as [`SimTime`]).
//! Callbacks the simulator invokes from inside — millions of times per
//! run — are not spans: [`CallTimer`] aggregates their count and, when
//! traced, their total host time.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::time::Instant;

use vfpga_sim::{SimTime, SpanId, SpanTracer, TraceId};

use crate::alloc::{self, AllocCount};

/// An open layer call, returned by [`Probe::enter`].
#[must_use = "pass the guard to Probe::exit"]
pub struct Open {
    layer: &'static str,
    span: SpanId,
    allocs: AllocCount,
}

/// Per-layer instrumentation for one process.
pub struct Probe {
    origin: Instant,
    traced: bool,
    spans: SpanTracer,
    stack: Vec<SpanId>,
    trace: TraceId,
    allocs: BTreeMap<&'static str, AllocCount>,
}

impl Default for Probe {
    fn default() -> Self {
        Probe {
            origin: Instant::now(),
            traced: false,
            spans: SpanTracer::new(),
            stack: Vec::new(),
            trace: TraceId::NONE,
            allocs: BTreeMap::new(),
        }
    }
}

impl Probe {
    /// Whether calls opened now record spans.
    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Starts or stops recording spans; allocation counters always run.
    pub fn set_traced(&mut self, traced: bool) {
        self.traced = traced;
    }

    /// Host time since the probe was created, as a span timestamp.
    fn now(&self) -> SimTime {
        SimTime::from_ps(self.origin.elapsed().as_nanos() as u64 * 1000)
    }

    /// Sets the trace id that spans opened from now on carry (one per
    /// sample: a cloud round, a compile, a co-sim point).
    pub fn set_trace(&mut self, trace: u64) {
        self.trace = TraceId(trace);
    }

    /// Opens a call into `layer`.
    pub fn enter(&mut self, layer: &'static str) -> Open {
        let span = if self.traced {
            let at = self.now();
            let span = self
                .spans
                .begin(layer, self.trace, self.stack.last().copied(), at);
            self.stack.push(span);
            span
        } else {
            SpanId::DISCARDED
        };
        Open {
            layer,
            span,
            allocs: alloc::snapshot(),
        }
    }

    /// Closes a call opened by [`enter`](Probe::enter): adds the
    /// allocations made since to the layer's counters and ends its span.
    pub fn exit(&mut self, open: Open) {
        let allocs = alloc::snapshot().since(open.allocs);
        *self.allocs.entry(open.layer).or_default() += allocs;
        if open.span != SpanId::DISCARDED {
            let at = self.now();
            self.spans.end(open.span, at);
            self.stack.pop();
        }
    }

    /// Takes the allocation counters accumulated per layer (including
    /// nested calls) and starts new ones.
    pub fn take_allocs(&mut self) -> BTreeMap<&'static str, AllocCount> {
        std::mem::take(&mut self.allocs)
    }

    /// The recorded spans.
    pub fn into_spans(self) -> SpanTracer {
        self.spans
    }
}

/// Per-layer host time and self time (span duration minus the part its
/// child spans cover), in seconds, summed over every span of `spans`.
pub fn layer_times(spans: &SpanTracer) -> BTreeMap<&'static str, LayerTime> {
    let spans = spans.spans();
    let mut child_ps = vec![0u64; spans.len()];
    for s in spans {
        if let (Some(p), Some(d)) = (s.parent, s.duration()) {
            child_ps[p.0 as usize] += d.as_ps();
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, child) in spans.iter().zip(child_ps) {
        let Some(d) = s.duration() else { continue };
        let t = out.entry(s.name).or_default();
        t.host_s += d.as_secs();
        t.self_s += d.as_ps().saturating_sub(child) as f64 * 1e-12;
    }
    out
}

/// Host time of one layer across a traced run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Total span duration.
    pub host_s: f64,
    /// Span duration not covered by child spans.
    pub self_s: f64,
}

/// Aggregate count and host time of a callback the simulator invokes from
/// inside a layer call. Usable from the `&dyn Fn` callbacks the simulator
/// takes, hence the cells.
#[derive(Debug, Default)]
pub struct CallTimer {
    calls: Cell<u64>,
    nanos: Cell<u64>,
}

impl CallTimer {
    /// Counts one call of `f`, timing it when `timed`.
    pub fn call<R>(&self, timed: bool, f: impl FnOnce() -> R) -> R {
        self.calls.set(self.calls.get() + 1);
        if !timed {
            return f();
        }
        let start = Instant::now();
        let r = f();
        self.nanos
            .set(self.nanos.get() + start.elapsed().as_nanos() as u64);
        r
    }

    /// Calls so far.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Host seconds spent in timed calls so far.
    pub fn host_s(&self) -> f64 {
        self.nanos.get() as f64 * 1e-9
    }
}
