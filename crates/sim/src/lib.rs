//! # vfpga-sim — discrete-event simulation substrate
//!
//! A small, deterministic discrete-event simulation (DES) engine used by the
//! vfpga runtime system to model the custom-built FPGA cluster of the paper:
//! task arrivals, accelerator service times, inter-FPGA ring transfers and
//! host PCIe transfers.
//!
//! The engine is deliberately single-threaded and fully deterministic: events
//! scheduled at the same timestamp are delivered in scheduling order, so every
//! experiment in the benchmark harness is exactly reproducible.
//!
//! ## Example
//!
//! ```
//! use vfpga_sim::{EventQueue, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Arrive(u32), Finish(u32) }
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::from_us(5.0), Ev::Arrive(1));
//! q.schedule(SimTime::from_us(2.0), Ev::Arrive(0));
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(t, SimTime::from_us(2.0));
//! assert_eq!(ev, Ev::Arrive(0));
//! ```

mod engine;
mod export;
mod fault;
mod json;
mod link;
mod metrics;
mod rng;
mod rollup;
mod sketch;
mod slo;
mod span;
mod stats;
mod time;
mod trace;

pub use engine::EventQueue;
pub use export::{
    chrome_trace_events, prometheus_rollup_text, prometheus_text, ChromeTrace, CONTROL_TID,
    SCHEDULER_PID,
};
pub use fault::{
    FaultEvent, FaultPlan, FaultPlanParams, LinkFaultEvent, LinkFaultKind, LinkFaultParams,
};
pub use json::{Json, JsonDoc, JsonWriter, WriteJson};
pub use link::{DegradedMode, LinkParamError, LinkParams, RetransmitPolicy};
pub use metrics::{CounterId, GaugeId, MetricsRegistry, TimeSeries, TimerId, TIMESERIES_POINT_CAP};
pub use rng::Rng;
pub use rollup::{RollupKey, RollupSet, WindowStats};
pub use sketch::{QuantileSketch, SketchDigest};
pub use slo::{evaluate_slo, Alert, AlertState, SloOutcome, SloSpec};
pub use span::{CriticalPath, PhaseBuckets, Span, SpanCtx, SpanId, SpanTracer, SpanValue, TraceId};
pub use stats::Summary;
pub use time::SimTime;
pub use trace::{TraceEvent, TraceRing};
