//! The run recorder: the one place a cloud simulation books what happened.
//!
//! The scheduler describes each state transition once, as a [`SimEvent`].
//! `Recorder::emit` folds that event into every sink: the metrics
//! registry, the trace ring, the span forest, the streaming monitor and
//! the report-only tallies. The sinks agree by construction, and
//! `Recorder::finish` assembles the [`CloudReport`] from them. The trace
//! ring stores the emitted events themselves, minus the ones listed on
//! [`CloudReport::trace`].

use std::sync::Arc;

use vfpga_sim::{
    CounterId, CriticalPath, GaugeId, Json, LinkFaultKind, MetricsRegistry, SimTime, SpanCtx,
    SpanId, SpanTracer, Summary, TimerId, TraceId, TraceRing, CONTROL_TID,
};

use crate::cloudsim::{AdmissionTuning, CloudReport};
use crate::controller::{InstanceId, RejectReason, SystemController};
use crate::monitor::RunMonitor;

/// What interrupted a running deployment; decides only the bookkeeping
/// that differs between the three interruption paths.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Interruption {
    /// The device at this index failed under the deployment.
    Device(usize),
    /// Failures on the ring left no path between the deployment's units;
    /// this segment's failure was the last straw.
    Link(usize),
    /// A preemptive scale-down lost every smaller variant mid-commit.
    Displaced,
}

/// The Chrome-trace `(pid, tid)` a compute phase renders on: its first
/// unit's device (plus one) and virtual-block slot.
pub type Lane = Option<(u64, u64)>;

/// One state transition of a cloud simulation, at the instant it is
/// emitted with; each variant's doc names its fields and, for the events
/// the trace ring keeps, its export label. Events carry task indices,
/// instance ids and counts only, so emitting or storing one allocates
/// nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimEvent {
    /// `(task, instance)`: a task arrived and joined the admission queue
    /// (`arrival`).
    Arrival(usize, InstanceId),
    /// `(task, reason, queued)`: a deployment attempt, from the admission
    /// queue when `queued` (else from migration), was turned down
    /// (`deploy_rejected`).
    Rejected(usize, RejectReason, bool),
    /// `(task, reason)`: a queued task was not attempted because its
    /// instance is known to be rejected for `reason` at this capacity
    /// epoch. It books what a rejected queued attempt books per task, but
    /// counts no attempt (`deploy_rejected`).
    Blocked(usize, RejectReason),
    /// `(task, instance, waited, units, lane)`: a first deployment
    /// (`deploy`).
    Deployed(usize, InstanceId, SimTime, u32, Lane),
    /// `(task, since, old_units, units, lane)`: the redeployment of a task
    /// interrupted at `since` while holding `old_units`
    /// (`migration_completed`).
    Recovered(usize, SimTime, u32, u32, Lane),
    /// `(task, instance, device, latency)`: a task finished; `device` is
    /// its first unit's (`completion`).
    Completed(usize, InstanceId, Option<u64>, SimTime),
    /// `(task)`: a finished task's deployment was released (`release`).
    Released(usize),
    /// `(task, device, cause)`: a running task lost its deployment on (or
    /// first placed on) `device` (`migration_started`).
    Interrupted(usize, u64, Interruption),
    /// `(task, attempt, delay)`: a migration attempt failed; the next
    /// follows `delay` later.
    Backoff(usize, u32, SimTime),
    /// `(task, dropped)`: migration retries ran out; the task is lost or
    /// requeued (`retry_exhausted`).
    RetryExhausted(usize, bool),
    /// `(task, link, attempts, bytes)`: re-sends of a task's state over a
    /// ring segment (`retransmit`).
    Retransmit(usize, usize, u32, u64),
    /// `(task, link, extra_hops)`: a route detoured around a failed segment
    /// (`link_rerouted`).
    Rerouted(usize, usize, u64),
    /// `(device)`: a device failed (`device_failed`).
    DeviceFailed(usize),
    /// `(device)`: a failed device came back (`device_recovered`).
    DeviceRecovered(usize),
    /// `(link, kind)`: a ring segment changed state (`link_degraded`,
    /// `link_failed` or `link_recovered`).
    Link(usize, LinkFaultKind),
    /// `(rerouted, severed)`: what the last segment failure did to the
    /// deployments crossing it.
    LinkHandled(u64, u64),
    /// `(task, kind)`: the reprovisioner offers a task a `"preempt"` or
    /// `"promote"` resize; `Resized` or `ReprovisionEnded` follows.
    Reprovision(usize, &'static str),
    /// `(task, from_units, to_units, old_remaining, new_remaining, lane)`:
    /// a running task was resized, a promotion (`scale_up`) when it grew,
    /// else a preemption (`preemptive_scale_down`).
    Resized(usize, u32, u32, SimTime, SimTime, Lane),
    /// `(outcome)`: the open reprovision kept or displaced its task.
    ReprovisionEnded(&'static str),
    /// `(depth)`: the admission queue once an event settled
    /// (`queue_depth`).
    QueueDepth(usize),
    /// `(occupancy, failed_devices, links_impaired)`: the cluster once an
    /// event settled, held until the next (`occupancy`).
    Occupancy(f64, usize, bool),
    /// The clock reached the next scheduled event.
    Tick,
}

impl SimEvent {
    /// The event's stable export label: the one its variant's doc names,
    /// or the variant's name for events the trace ring never keeps.
    pub fn label(&self) -> &'static str {
        match self {
            SimEvent::Arrival(..) => "arrival",
            SimEvent::Rejected(..) | SimEvent::Blocked(..) => "deploy_rejected",
            SimEvent::Deployed(..) => "deploy",
            SimEvent::Recovered(..) => "migration_completed",
            SimEvent::Completed(..) => "completion",
            SimEvent::Released(_) => "release",
            SimEvent::Interrupted(..) => "migration_started",
            SimEvent::Backoff(..) => "backoff",
            SimEvent::RetryExhausted(..) => "retry_exhausted",
            SimEvent::Retransmit(..) => "retransmit",
            SimEvent::Rerouted(..) => "link_rerouted",
            SimEvent::DeviceFailed(_) => "device_failed",
            SimEvent::DeviceRecovered(_) => "device_recovered",
            SimEvent::Link(_, LinkFaultKind::Degraded) => "link_degraded",
            SimEvent::Link(_, LinkFaultKind::Failed) => "link_failed",
            SimEvent::Link(_, LinkFaultKind::Recovered) => "link_recovered",
            SimEvent::LinkHandled(..) => "link_handled",
            SimEvent::Reprovision(..) => "reprovision",
            SimEvent::Resized(_, from, to, ..) if to > from => "scale_up",
            SimEvent::Resized(..) => "preemptive_scale_down",
            SimEvent::ReprovisionEnded(_) => "reprovision_ended",
            SimEvent::QueueDepth(_) => "queue_depth",
            SimEvent::Occupancy(..) => "occupancy",
            SimEvent::Tick => "tick",
        }
    }

    /// Appends the event's label and exported fields to `entry`; the
    /// renderer [`TraceRing::to_json`] takes for [`CloudReport::trace`].
    pub fn render(&self, entry: Json) -> Json {
        let entry = entry.with("event", self.label());
        match *self {
            SimEvent::Arrival(task, _)
            | SimEvent::Completed(task, ..)
            | SimEvent::Released(task)
            | SimEvent::RetryExhausted(task, _) => entry.with("task", task),
            SimEvent::Deployed(task, _, _, units, _)
            | SimEvent::Recovered(task, _, _, units, _) => {
                entry.with("task", task).with("units", u64::from(units))
            }
            SimEvent::Rejected(task, reason, _) | SimEvent::Blocked(task, reason) => {
                entry.with("task", task).with("reason", reason.as_str())
            }
            SimEvent::Interrupted(task, device, _) => {
                entry.with("task", task).with("device", device)
            }
            SimEvent::DeviceFailed(device) | SimEvent::DeviceRecovered(device) => {
                entry.with("device", device)
            }
            SimEvent::Link(link, _) => entry.with("link", link),
            SimEvent::Retransmit(task, link, attempts, bytes) => entry
                .with("task", task)
                .with("link", link)
                .with("attempts", u64::from(attempts))
                .with("bytes", bytes),
            SimEvent::Rerouted(task, link, extra_hops) => entry
                .with("task", task)
                .with("link", link)
                .with("extra_hops", extra_hops),
            SimEvent::Resized(task, from, to, ..) => entry
                .with("task", task)
                .with("from_units", u64::from(from))
                .with("to_units", u64::from(to)),
            SimEvent::QueueDepth(depth) => entry.with("depth", depth),
            SimEvent::Occupancy(fraction, ..) => entry.with("fraction", fraction),
            SimEvent::Backoff(..)
            | SimEvent::LinkHandled(..)
            | SimEvent::Reprovision(..)
            | SimEvent::ReprovisionEnded(_)
            | SimEvent::Tick => entry,
        }
    }
}

/// Metric ids of the run. The registry is the only store of the run's
/// counters and timers; `finish` reads the report's totals back from it.
struct Meters {
    arrivals: CounterId,
    deploys: CounterId,
    completions: CounterId,
    releases: CounterId,
    rejects: [CounterId; 4],
    device_failures: CounterId,
    device_recoveries: CounterId,
    interrupted: CounterId,
    migrations: CounterId,
    redeployments: CounterId,
    lost: CounterId,
    promotions: CounterId,
    preemptions: CounterId,
    latency: TimerId,
    queue_wait: TimerId,
    requeue_wait: TimerId,
    service: TimerId,
    time_to_recovery: TimerId,
    depth: GaugeId,
    occupancy: GaugeId,
    failed_devices: GaugeId,
    /// Present only when the run's fault plan covers ring segments, so a
    /// device-only run's exposition carries no idle link families (and,
    /// since link events outside the plan are skipped, no link events
    /// fire without it).
    links: Option<LinkMeters>,
}

/// Link metric ids: per-event counters plus one
/// `vfpga_link_state{segment="i"}` gauge per ring segment (0 healthy,
/// 1 degraded, 2 failed) — the exposition's label-family example.
struct LinkMeters {
    failures: CounterId,
    degradations: CounterId,
    recoveries: CounterId,
    retransmits: CounterId,
    retransmit_bytes: CounterId,
    reroutes: CounterId,
    severed: CounterId,
    state: Vec<GaugeId>,
}

/// Metric help texts, registered in this order (the last eight only
/// when the plan covers links).
#[rustfmt::skip]
const HELP: [(&str, &str); 16] = [
    ("arrivals", "Tasks that arrived."),
    ("deploys", "First admissions deployed."),
    ("completions", "Tasks completed."),
    ("latency_s", "End-to-end latency, arrival to completion."),
    ("queue_wait_s", "Queueing delay, arrival to first deployment."),
    ("queue_depth", "Admission queue depth."),
    ("occupancy", "Fraction of cluster units busy."),
    ("failed_devices", "Devices currently failed."),
    ("link.failures", "Ring-segment hard failures injected."),
    ("link.degradations", "Ring-segment degradations injected."),
    ("link.recoveries", "Ring segments returned to service."),
    ("link.retransmits", "Transfers re-sent over the ring."),
    ("link.retransmit_bytes", "Bytes carried by ring retransmissions."),
    ("link.reroutes", "Deployments re-routed around a failed segment."),
    ("link.severed", "Deployments left with no surviving ring path."),
    ("vfpga_link_state", "Ring segment health: 0 healthy, 1 degraded, 2 failed."),
];

/// Per-task span ids and report-only marks.
#[derive(Debug, Clone, Copy, Default)]
struct TaskMarks {
    /// The root `task` span; `None` once closed.
    root: Option<SpanId>,
    /// The open phase child (`queue_wait`, `compute` or `migrate`).
    phase: Option<SpanId>,
    /// When the current deployment started serving.
    deployed_at: SimTime,
    /// `Some(when)` while a task demoted after retry exhaustion waits in
    /// the admission queue (its second queue wait).
    requeued_at: Option<SimTime>,
    /// [`RejectReason::index`] bits already counted into `rejected_tasks`.
    rejected: u8,
    /// Whether a queued rejection was traced (only the first one is).
    traced_reject: bool,
}

/// Report-only state: per-reason distinct rejected tasks, resize and
/// recovery tallies, and the degraded-mode integrals.
#[derive(Debug, Default)]
struct Tally {
    rejected_tasks: [u64; 4],
    requeued: u64,
    scale_down_redeployments: u64,
    units_gained: u64,
    units_lost: u64,
    promotion_saved: Summary,
    preemption_added: Summary,
    never_deployed: u64,
    last_completion: SimTime,
    /// The last event's time, and the `(occupancy, failed_devices,
    /// links_impaired)` the cluster held since the last `Occupancy`.
    last_tick: SimTime,
    held: (f64, usize, bool),
    /// Sim time with a device failed and occupancy integrated over it.
    degraded_time: SimTime,
    degraded_occ: f64,
    /// Sim time with a ring segment degraded or failed.
    link_degraded_time: SimTime,
}

/// The recording half of a cloud simulation (see the module docs).
pub(crate) struct Recorder {
    metrics: MetricsRegistry,
    m: Meters,
    trace: TraceRing<SimEvent>,
    /// The causal span forest. Per task the phase children of its root
    /// span are kept *contiguous* — at any moment exactly one of
    /// `queue_wait`, `compute`, or `migrate` is open — so the direct
    /// children partition `[arrival, end]` and the critical-path buckets
    /// sum exactly.
    spans: SpanTracer,
    /// Streaming telemetry; `Some` only when the monitor is enabled.
    monitor: Option<RunMonitor>,
    tasks: Vec<TaskMarks>,
    /// The open `reprovision` span and its task.
    reprovision: Option<(usize, SpanId)>,
    /// The open `link_failure` span.
    link_failure: Option<SpanId>,
    /// Instance names by [`InstanceId`] index, one shared allocation per
    /// instance for every `task` span that carries it; empty when spans
    /// are off.
    names: Vec<Arc<str>>,
    /// Report-only tallies the registry does not carry.
    t: Tally,
}

impl Recorder {
    /// A recorder for `tasks` arrivals served by `controller`; link
    /// metrics register only when the fault plan covers links.
    pub(crate) fn new(
        controller: &SystemController,
        tasks: usize,
        link_faults: bool,
        trace_capacity: usize,
        tuning: &AdmissionTuning,
    ) -> Self {
        let segments = controller.cluster().ring().segments();
        let instances = || controller.database().iter().map(|e| e.name.as_str());
        let mut metrics = MetricsRegistry::new();
        let help = if link_faults { &HELP[..] } else { &HELP[..8] };
        for (name, text) in help {
            metrics.describe(name, text);
        }
        let links = link_faults.then(|| LinkMeters {
            failures: metrics.counter("link.failures"),
            degradations: metrics.counter("link.degradations"),
            recoveries: metrics.counter("link.recoveries"),
            retransmits: metrics.counter("link.retransmits"),
            retransmit_bytes: metrics.counter("link.retransmit_bytes"),
            reroutes: metrics.counter("link.reroutes"),
            severed: metrics.counter("link.severed"),
            state: (0..segments)
                .map(|s| metrics.gauge(&format!("vfpga_link_state{{segment=\"{s}\"}}")))
                .collect(),
        });
        let m = Meters {
            arrivals: metrics.counter("arrivals"),
            deploys: metrics.counter("deploys"),
            completions: metrics.counter("completions"),
            releases: metrics.counter("releases"),
            rejects: [
                metrics.counter("rejected.policy_excluded"),
                metrics.counter("rejected.no_free_device"),
                metrics.counter("rejected.insufficient_capacity"),
                metrics.counter("rejected.transient_fault"),
            ],
            device_failures: metrics.counter("device_failures"),
            device_recoveries: metrics.counter("device_recoveries"),
            interrupted: metrics.counter("interrupted"),
            migrations: metrics.counter("migrations"),
            redeployments: metrics.counter("redeployments"),
            lost: metrics.counter("lost"),
            promotions: metrics.counter("promotions"),
            preemptions: metrics.counter("preemptions"),
            latency: metrics.timer("latency_s"),
            queue_wait: metrics.timer("queue_wait_s"),
            requeue_wait: metrics.timer("requeue_wait_s"),
            service: metrics.timer("service_s"),
            time_to_recovery: metrics.timer("time_to_recovery_s"),
            depth: metrics.gauge("queue_depth"),
            occupancy: metrics.gauge("occupancy"),
            failed_devices: metrics.gauge("failed_devices"),
            links,
        };
        let monitor = &tuning.monitor;
        Recorder {
            metrics,
            m,
            trace: TraceRing::new(trace_capacity),
            spans: if tuning.trace_spans {
                SpanTracer::new()
            } else {
                SpanTracer::disabled()
            },
            monitor: monitor
                .enabled
                .then(|| RunMonitor::new(monitor.clone(), instances())),
            tasks: vec![TaskMarks::default(); tasks],
            reprovision: None,
            link_failure: None,
            names: if tuning.trace_spans {
                instances().map(Arc::from).collect()
            } else {
                Vec::new()
            },
            t: Tally::default(),
        }
    }

    /// A span context for a controller call made on behalf of `task` (or
    /// of no task, for cluster-wide handling): it nests under the task's
    /// open `reprovision` span, else under its current phase. `None` when
    /// spans are off.
    pub(crate) fn ctx(&mut self, task: Option<usize>, now: SimTime) -> Option<SpanCtx<'_>> {
        let Some(task) = task else {
            return self.spans.ctx(TraceId::NONE, None, now);
        };
        let parent = match self.reprovision {
            Some((t, span)) if t == task => Some(span),
            _ => self.tasks[task].phase,
        };
        self.spans.ctx(TraceId(task as u64), parent, now)
    }

    /// Folds one transition into every sink.
    #[inline]
    pub(crate) fn emit(&mut self, now: SimTime, event: SimEvent) {
        if let Some(monitor) = self.monitor.as_mut() {
            monitor.fold(now, &event);
        }
        // The ring keeps every event but these; rejections and samples
        // decide in their own arms.
        if !matches!(
            event,
            SimEvent::Tick
                | SimEvent::Backoff(..)
                | SimEvent::LinkHandled(..)
                | SimEvent::Reprovision(..)
                | SimEvent::ReprovisionEnded(_)
                | SimEvent::Rejected(..)
                | SimEvent::Blocked(..)
                | SimEvent::QueueDepth(_)
                | SimEvent::Occupancy(..)
        ) {
            self.trace.push(now, event);
        }
        match event {
            SimEvent::Arrival(task, instance) => {
                self.metrics.inc(self.m.arrivals);
                let root = self.spans.begin("task", TraceId(task as u64), None, now);
                if self.spans.is_enabled() {
                    let name = Arc::clone(&self.names[instance.index() as usize]);
                    self.spans.attr(root, "instance", name);
                }
                self.tasks[task].root = Some(root);
                self.next_phase(task, "queue_wait", now);
            }
            SimEvent::Rejected(task, reason, queued) => {
                self.metrics.inc(self.m.rejects[reason.index()]);
                if self.book_rejection(task, reason, queued) {
                    self.trace.push(now, event);
                }
            }
            SimEvent::Blocked(task, reason) => {
                if self.book_rejection(task, reason, true) {
                    self.trace.push(now, event);
                }
            }
            SimEvent::Deployed(i, _, waited, units, lane) => {
                self.time(self.m.queue_wait, waited);
                self.metrics.inc(self.m.deploys);
                self.compute(i, units, lane, now);
                self.tasks[i].deployed_at = now;
            }
            SimEvent::Recovered(i, since, old_units, units, lane) => {
                // The task's second stint in the admission queue (demotion
                // after retry exhaustion), if any, ends here; the one-shot
                // `queue_wait` summary covers only the first.
                if let Some(requeued) = self.tasks[i].requeued_at.take() {
                    self.time(self.m.requeue_wait, now.saturating_sub(requeued));
                }
                self.time(self.m.time_to_recovery, now.saturating_sub(since));
                self.metrics.inc(self.m.migrations);
                // A recovery is not a first admission: `deploys` never
                // ticks for it, so `deploys + redeployments` equals the
                // controller's lifetime deploy count.
                self.metrics.inc(self.m.redeployments);
                self.t.scale_down_redeployments += u64::from(units > old_units);
                self.compute(i, units, lane, now);
                self.tasks[i].deployed_at = now;
            }
            SimEvent::Completed(i, _, _, latency) => {
                self.metrics.inc(self.m.completions);
                self.time(self.m.latency, latency);
                self.time(
                    self.m.service,
                    now.saturating_sub(self.tasks[i].deployed_at),
                );
                self.end_task(i, "completed", now);
                self.t.last_completion = now;
            }
            SimEvent::Released(_) => self.metrics.inc(self.m.releases),
            SimEvent::Interrupted(i, device, cause) => {
                if let Interruption::Link(_) = cause {
                    // The units are healthy but cut off from each other;
                    // the scheduler released the footprint itself, and the
                    // ring keeps no `release` entry for it.
                    self.link_add(|lm| lm.severed, 1);
                    self.metrics.inc(self.m.releases);
                }
                self.metrics.inc(self.m.interrupted);
                if let Some(phase) = self.tasks[i].phase {
                    match cause {
                        Interruption::Device(d) => self.spans.attr(phase, "interrupted_by", d),
                        Interruption::Link(s) => self.spans.attr(phase, "interrupted_by_link", s),
                        Interruption::Displaced => {}
                    }
                }
                let migrate = self.next_phase(i, "migrate", now);
                match cause {
                    Interruption::Link(seg) => self.spans.attr(migrate, "link", seg),
                    _ => self.spans.attr(migrate, "device", device),
                }
            }
            SimEvent::Backoff(task, attempt, delay) => {
                // The wait until the retry renders as a `backoff` span
                // nested in the migrate phase, ending when the retry is due.
                let parent = self.tasks[task].phase;
                let span = self
                    .spans
                    .begin("backoff", TraceId(task as u64), parent, now);
                self.spans.attr(span, "attempt", attempt);
                self.spans.attr(span, "delay_us", delay.as_us());
                self.spans.end(span, now.saturating_add(delay));
            }
            SimEvent::RetryExhausted(task, dropped) => {
                if let Some(span) = self.tasks[task].phase {
                    let outcome = if dropped { "exhausted" } else { "requeued" };
                    self.spans.attr(span, "outcome", outcome);
                }
                if dropped {
                    self.metrics.inc(self.m.lost);
                    self.end_task(task, "lost", now);
                } else {
                    // The task waits like a fresh arrival: the migrate
                    // phase hands over to a new queue_wait phase.
                    self.t.requeued += 1;
                    self.tasks[task].requeued_at = Some(now);
                    self.next_phase(task, "queue_wait", now);
                }
            }
            SimEvent::Retransmit(_, _, attempts, bytes) => {
                self.link_add(|lm| lm.retransmits, u64::from(attempts));
                self.link_add(|lm| lm.retransmit_bytes, bytes);
            }
            SimEvent::Rerouted(..) => self.link_add(|lm| lm.reroutes, 1),
            SimEvent::DeviceFailed(_) => self.metrics.inc(self.m.device_failures),
            SimEvent::DeviceRecovered(_) => self.metrics.inc(self.m.device_recoveries),
            SimEvent::Link(link, kind) => self.link(link, kind, now),
            SimEvent::LinkHandled(rerouted, severed) => {
                if let Some(span) = self.link_failure.take() {
                    self.spans.attr(span, "rerouted", rerouted);
                    self.spans.attr(span, "severed", severed);
                    self.spans.end(span, now);
                }
            }
            SimEvent::Reprovision(task, kind) => {
                let parent = self.tasks[task].phase;
                let span = self
                    .spans
                    .begin("reprovision", TraceId(task as u64), parent, now);
                self.spans.attr(span, "kind", kind);
                self.reprovision = Some((task, span));
            }
            SimEvent::Resized(task, from_units, to_units, old_rem, new_rem, lane) => {
                let grew = to_units > from_units;
                let (old, new) = (old_rem.as_secs(), new_rem.as_secs());
                if let Some((_, span)) = self.reprovision.take() {
                    let outcome = if grew { "promoted" } else { "demoted" };
                    self.spans.attr(span, "outcome", outcome);
                    self.spans.attr(span, "from_units", from_units as u64);
                    self.spans.attr(span, "to_units", to_units as u64);
                    self.spans.end(span, now);
                }
                if grew {
                    self.metrics.inc(self.m.promotions);
                    self.t.units_gained += (to_units - from_units) as u64;
                    self.t.promotion_saved.record(old - new);
                } else {
                    self.metrics.inc(self.m.preemptions);
                    self.t.units_lost += (from_units - to_units) as u64;
                    self.t.preemption_added.record(new - old);
                }
                // The compute phase closes and reopens at the same instant
                // so the span partition stays gapless.
                self.compute(task, to_units, lane, now);
            }
            SimEvent::ReprovisionEnded(outcome) => {
                if let Some((_, span)) = self.reprovision.take() {
                    self.spans.attr(span, "outcome", outcome);
                    self.spans.end(span, now);
                }
            }
            // The series coalesce repeats; the ring keeps changes only.
            SimEvent::QueueDepth(depth) => {
                let depth = depth as f64;
                if self.metrics.gauge_series(self.m.depth).last() != Some(depth) {
                    self.trace.push(now, event);
                }
                self.metrics.set_gauge(self.m.depth, now, depth);
            }
            SimEvent::Occupancy(fraction, failed, impaired) => {
                self.t.held = (fraction, failed, impaired);
                if self.metrics.gauge_series(self.m.occupancy).last() != Some(fraction) {
                    self.trace.push(now, event);
                }
                self.metrics.set_gauge(self.m.occupancy, now, fraction);
                let failed = failed as f64;
                self.metrics.set_gauge(self.m.failed_devices, now, failed);
            }
            SimEvent::Tick => {
                // Degraded-mode integrals: the cluster held its last
                // sampled state since the previous event.
                let interval = now.saturating_sub(self.t.last_tick);
                let (occupancy, failed, impaired) = self.t.held;
                if interval > SimTime::ZERO && failed > 0 {
                    self.t.degraded_time += interval;
                    self.t.degraded_occ += occupancy * interval.as_secs();
                }
                if interval > SimTime::ZERO && impaired {
                    self.t.link_degraded_time += interval;
                }
                self.t.last_tick = now;
            }
        }
    }

    /// Books a rejection into the task's per-task view: its reason counts
    /// into `rejected_tasks` once per task. Returns whether to trace it:
    /// only a task's first queued rejection is, since under saturation a
    /// queued task is turned down at every wave and the ring would
    /// otherwise hold nothing else.
    fn book_rejection(&mut self, task: usize, reason: RejectReason, queued: bool) -> bool {
        let marks = &mut self.tasks[task];
        let bit = 1u8 << reason.index();
        if marks.rejected & bit == 0 {
            marks.rejected |= bit;
            self.t.rejected_tasks[reason.index()] += 1;
        }
        let first = queued && !marks.traced_reject;
        marks.traced_reject |= queued;
        first
    }

    /// Records one duration sample into a timer, in seconds.
    fn time(&mut self, timer: TimerId, duration: SimTime) {
        self.metrics.record_timer(timer, duration.as_secs());
    }

    /// Adds `n` to a link counter (link events fire only when the plan
    /// covers links, which is when the counters exist).
    fn link_add(&mut self, counter: fn(&LinkMeters) -> CounterId, n: u64) {
        if let Some(lm) = self.m.links.as_ref() {
            self.metrics.add(counter(lm), n);
        }
    }

    /// A ring segment's transition: its counter and health gauge, and a
    /// marker span on the segment's control lane. A failure's span stays
    /// open until `LinkHandled` reports what it did.
    fn link(&mut self, link: usize, kind: LinkFaultKind, now: SimTime) {
        let (state, name) = match kind {
            LinkFaultKind::Degraded => (1.0, "link_degraded"),
            LinkFaultKind::Failed => (2.0, "link_failure"),
            LinkFaultKind::Recovered => (0.0, "link_recovery"),
        };
        if let Some(lm) = self.m.links.as_ref() {
            let counter = match kind {
                LinkFaultKind::Degraded => lm.degradations,
                LinkFaultKind::Failed => lm.failures,
                LinkFaultKind::Recovered => lm.recoveries,
            };
            self.metrics.inc(counter);
            self.metrics.set_gauge(lm.state[link], now, state);
        }
        let span = self.spans.begin(name, TraceId::NONE, None, now);
        self.spans.set_lane(span, link as u64 + 1, CONTROL_TID);
        self.spans.attr(span, "segment", link);
        if kind == LinkFaultKind::Failed {
            self.link_failure = Some(span);
        } else {
            self.spans.end(span, now);
        }
    }

    /// Hands the task's current phase over to `compute`, rendered on its
    /// lane so Perfetto shows which FPGA slots the task occupied.
    fn compute(&mut self, task: usize, units: u32, lane: Lane, now: SimTime) {
        let compute = self.next_phase(task, "compute", now);
        self.spans.attr(compute, "units", units);
        if let Some((pid, tid)) = lane {
            self.spans.set_lane(compute, pid, tid);
        }
    }

    /// Closes the task's open phase (if any) and opens `name` under its
    /// root at the same instant, keeping the phase partition contiguous.
    fn next_phase(&mut self, task: usize, name: &'static str, now: SimTime) -> SpanId {
        if let Some(span) = self.tasks[task].phase.take() {
            self.spans.end(span, now);
        }
        let root = self.tasks[task].root;
        let span = self.spans.begin(name, TraceId(task as u64), root, now);
        self.tasks[task].phase = Some(span);
        span
    }

    /// Closes the task's open phase and then its root span, with a final
    /// `outcome` attribute.
    fn end_task(&mut self, task: usize, outcome: &'static str, now: SimTime) {
        if let Some(span) = self.tasks[task].phase.take() {
            self.spans.end(span, now);
        }
        if let Some(span) = self.tasks[task].root.take() {
            self.spans.attr(span, "outcome", outcome);
            self.spans.end(span, now);
        }
    }

    /// Assembles the report once the run drained. The `stranded` tasks
    /// never deployed: their spans close at the last event's time, so
    /// every span in the forest is complete before export.
    pub(crate) fn finish(mut self, stranded: impl Iterator<Item = usize>) -> CloudReport {
        let end = self.t.last_tick;
        for task in stranded {
            self.t.never_deployed += 1;
            self.end_task(task, "never_deployed", end);
        }
        debug_assert_eq!(self.spans.open_count(), 0, "span leaked past the run");
        let monitor = self.monitor.take().map(|mon| mon.finish(end, &self.trace));
        let critical_path = CriticalPath::analyze(&self.spans);
        let occupancy_series = self.metrics.gauge_series(self.m.occupancy).clone();
        let queue_depth_series = self.metrics.gauge_series(self.m.depth).clone();
        let elapsed = self.t.last_completion;
        let metrics = &self.metrics;
        let count = |id| metrics.counter_value(id);
        let link_count =
            |id: fn(&LinkMeters) -> CounterId| self.m.links.as_ref().map_or(0, |lm| count(id(lm)));
        let summary = |id| metrics.timer_summary(id).clone();
        let completed = count(self.m.completions);
        let report = CloudReport {
            arrivals: count(self.m.arrivals),
            completed,
            never_deployed: self.t.never_deployed,
            lost: count(self.m.lost),
            elapsed,
            throughput_per_s: if elapsed == SimTime::ZERO {
                0.0
            } else {
                completed as f64 / elapsed.as_secs()
            },
            latency: summary(self.m.latency),
            latency_p50: metrics.timer_quantile(self.m.latency, 0.50),
            latency_p95: metrics.timer_quantile(self.m.latency, 0.95),
            latency_p99: metrics.timer_quantile(self.m.latency, 0.99),
            queue_wait: summary(self.m.queue_wait),
            requeue_wait: summary(self.m.requeue_wait),
            mean_occupancy: occupancy_series.mean_until(elapsed).unwrap_or(0.0),
            peak_occupancy: occupancy_series.max().unwrap_or(0.0),
            peak_queue_depth: queue_depth_series.max().unwrap_or(0.0) as u64,
            rejections: self.m.rejects.map(count),
            rejected_tasks: self.t.rejected_tasks,
            device_failures: count(self.m.device_failures),
            device_recoveries: count(self.m.device_recoveries),
            interrupted: count(self.m.interrupted),
            migrated: count(self.m.migrations),
            redeployments: count(self.m.redeployments),
            requeued: self.t.requeued,
            scale_down_redeployments: self.t.scale_down_redeployments,
            time_to_recovery: summary(self.m.time_to_recovery),
            promotions: count(self.m.promotions),
            preemptions: count(self.m.preemptions),
            units_gained: self.t.units_gained,
            units_lost: self.t.units_lost,
            promotion_saved: self.t.promotion_saved,
            preemption_added: self.t.preemption_added,
            degraded_time: self.t.degraded_time,
            degraded_mean_occupancy: if self.t.degraded_time > SimTime::ZERO {
                self.t.degraded_occ / self.t.degraded_time.as_secs()
            } else {
                0.0
            },
            link_failures: link_count(|lm| lm.failures),
            link_degradations: link_count(|lm| lm.degradations),
            link_recoveries: link_count(|lm| lm.recoveries),
            link_retransmits: link_count(|lm| lm.retransmits),
            link_retransmit_bytes: link_count(|lm| lm.retransmit_bytes),
            link_reroutes: link_count(|lm| lm.reroutes),
            link_severed: link_count(|lm| lm.severed),
            link_degraded_time: self.t.link_degraded_time,
            link_faults_planned: self.m.links.is_some(),
            monitor,
            occupancy_series,
            queue_depth_series,
            metrics: self.metrics,
            trace: self.trace,
            spans: self.spans,
            critical_path,
        };
        debug_assert!(
            report.accounts_for_all_arrivals(),
            "arrivals unaccounted for: {} completed + {} never deployed + {} lost != {}",
            report.completed,
            report.never_deployed,
            report.lost,
            report.arrivals
        );
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::Policy;
    use vfpga_core::MappingDatabase;
    use vfpga_fabric::Cluster;

    /// The compact JSON of one ring entry of each of the 19 exported kinds
    /// (plus `Blocked`, which exports as `Rejected` does), at `t` = 2.5 us.
    #[test]
    fn every_ring_kind_renders_its_pinned_fields() {
        let db = MappingDatabase::new();
        let instance =
            SystemController::new(Cluster::paper_cluster(), db, Policy::Full).instance_at(0);
        let (us, lane) = (SimTime::from_us, Some((2, 1)));
        let no_free = RejectReason::NoFreeDevice;
        #[rustfmt::skip]
        let table = [
            (SimEvent::Arrival(3, instance), r#""event":"arrival","task":3"#),
            (SimEvent::Deployed(3, instance, us(1.0), 2, lane), r#""event":"deploy","task":3,"units":2"#),
            (SimEvent::Rejected(4, no_free, true), r#""event":"deploy_rejected","task":4,"reason":"no_free_device""#),
            (SimEvent::Blocked(4, no_free), r#""event":"deploy_rejected","task":4,"reason":"no_free_device""#),
            (SimEvent::Completed(3, instance, Some(1), us(2.0)), r#""event":"completion","task":3"#),
            (SimEvent::Released(3), r#""event":"release","task":3"#),
            (SimEvent::DeviceFailed(1), r#""event":"device_failed","device":1"#),
            (SimEvent::DeviceRecovered(1), r#""event":"device_recovered","device":1"#),
            (SimEvent::Interrupted(5, 1, Interruption::Device(1)), r#""event":"migration_started","task":5,"device":1"#),
            (SimEvent::Recovered(5, us(1.0), 2, 4, None), r#""event":"migration_completed","task":5,"units":4"#),
            (SimEvent::RetryExhausted(6, true), r#""event":"retry_exhausted","task":6"#),
            (SimEvent::Resized(7, 1, 2, us(3.0), us(2.0), lane), r#""event":"scale_up","task":7,"from_units":1,"to_units":2"#),
            (SimEvent::Resized(8, 4, 2, us(1.0), us(2.0), lane), r#""event":"preemptive_scale_down","task":8,"from_units":4,"to_units":2"#),
            (SimEvent::Link(2, LinkFaultKind::Degraded), r#""event":"link_degraded","link":2"#),
            (SimEvent::Link(2, LinkFaultKind::Failed), r#""event":"link_failed","link":2"#),
            (SimEvent::Link(2, LinkFaultKind::Recovered), r#""event":"link_recovered","link":2"#),
            (SimEvent::Retransmit(9, 2, 3, 1920), r#""event":"retransmit","task":9,"link":2,"attempts":3,"bytes":1920"#),
            (SimEvent::Rerouted(9, 2, 4), r#""event":"link_rerouted","task":9,"link":2,"extra_hops":4"#),
            (SimEvent::QueueDepth(12), r#""event":"queue_depth","depth":12"#),
            (SimEvent::Occupancy(0.625, 1, true), r#""event":"occupancy","fraction":0.625"#),
        ];
        for (event, fields) in table {
            let mut ring = TraceRing::new(1);
            ring.push(us(2.5), event);
            assert_eq!(
                ring.to_json(SimEvent::render).compact(),
                format!(r#"{{"dropped":0,"events":[{{"t":0.0000025,{fields}}}]}}"#),
            );
        }
    }
}
