//! Discrete-event simulation of the cluster serving a workload set,
//! optionally under an injected fault plan (device fail/recover waves and
//! flaky partial reconfiguration).

use std::collections::{BTreeSet, VecDeque};

use vfpga_fabric::DeviceId;
use vfpga_sim::{
    CriticalPath, EventQueue, FaultPlan, JsonDoc, JsonWriter, LinkFaultKind, MetricsRegistry,
    RetransmitPolicy, Rng, SimTime, SpanTracer, Summary, TimeSeries, TraceRing, WriteJson,
};
use vfpga_workload::{RnnTask, TaskArrival};

use crate::controller::{Deployment, InstanceId, RejectReason, ScaleDown, SystemController};
use crate::monitor::{MonitorConfig, MonitorReport};
use crate::record::{Interruption, Lane, Recorder, SimEvent};
use crate::RuntimeError;

/// Default capacity of the scheduler-event trace ring kept by
/// [`run_cloud_sim`]. Sized so a full Fig. 12 workload set traces without
/// evictions while bounding memory for longer runs.
pub const DEFAULT_TRACE_CAPACITY: usize = 8192;

/// How many queued tasks one admission wave scans. Bounded so a deep
/// backlog keeps arrival order roughly fair without making every wave
/// O(queue). A wave skips the window positions whose outcome cannot
/// change: a task whose instance is known rejected at the current capacity
/// epoch, and which is already booked for that reason, would only be
/// booked again. One bit per position in a `u64` tracks them
/// ([`WindowMasks`]), so the window is exactly 64 wide.
const SCAN_WINDOW: usize = 64;

#[cfg(test)]
thread_local! {
    /// Window positions admission waves examined on this thread.
    static EXAMINED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Which of the first [`SCAN_WINDOW`] queue positions (bit `p` for
/// position `p`) hold each instance's tasks, and which hold a task already
/// booked for each rejection reason: its reason bit counted and its first
/// queued rejection traced, so booking that reason again changes nothing.
#[derive(Debug)]
struct WindowMasks {
    /// Indexed by [`InstanceId::index`].
    instance: Vec<u64>,
    /// Indexed by [`RejectReason::index`].
    booked: [u64; 4],
}

impl WindowMasks {
    /// Enters the task of `instance` at `pos`, booked for the reasons in
    /// `booked` ([`RejectReason::index`] bits).
    fn enter(&mut self, pos: usize, instance: u32, booked: u8) {
        self.instance[instance as usize] |= 1 << pos;
        self.book(pos, booked);
    }

    /// Marks the task at `pos` booked for the reasons in `booked`; a
    /// task's bookings only ever grow.
    fn book(&mut self, pos: usize, booked: u8) {
        for (r, mask) in self.booked.iter_mut().enumerate() {
            *mask |= u64::from((booked >> r) & 1) << pos;
        }
    }

    /// The positions whose outcome can change: every task of an instance
    /// with no rejection known at the current capacity epoch (it is
    /// probed), and every task of a known-rejected instance not yet booked
    /// for that reason.
    fn pending(&self, controller: &SystemController) -> u64 {
        let mut pending = 0;
        for (index, &mask) in self.instance.iter().enumerate() {
            if mask != 0 {
                pending |= match controller.known_rejection(controller.instance_at(index as u32)) {
                    Some(reason) => mask & !self.booked[reason.index()],
                    None => mask,
                };
            }
        }
        pending
    }

    /// Drops the positions in `taken`; each position above a dropped one
    /// moves down by one.
    fn remove(&mut self, taken: u64) {
        for mask in self.instance.iter_mut().chain(&mut self.booked) {
            let mut rest = taken;
            while *mask != 0 && rest != 0 {
                let below = (1u64 << (63 - rest.leading_zeros())) - 1;
                *mask = (*mask & below) | ((*mask >> 1) & !below);
                rest &= below;
            }
        }
    }
}

/// Consecutive retry-nudge waves that deploy nothing before the nudge
/// stops re-arming. Each such wave saw only transient faults on the
/// placements that fit, so at any configure-failure probability short of
/// certainty a retry admits something long before this; at certainty the
/// queued work ends as `never_deployed` instead of livelocking the run.
const MAX_IDLE_NUDGES: u32 = 256;

/// Dynamic-elasticity knobs for the reprovisioner: whether the scheduler
/// may resize *running* deployments in response to capacity-epoch
/// movement. Both off by default — unlike the [`AdmissionTuning`]
/// fast-path knobs, elasticity changes *what* the scheduler does, so it
/// is an explicit opt-in, and every run with it off stays byte-identical
/// to the pre-elasticity scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ElasticityPolicy {
    /// Promote running deployments to higher-unit mapping variants when
    /// idle capacity appears (and no task is queued for it), preferring
    /// co-located / low-ring-hop placements. A promotion only happens
    /// when the candidate's service time beats the current one, so it
    /// strictly shortens the task's remaining work.
    pub promote: bool,
    /// Preemptively scale down the cheapest running victim (fewest lost
    /// units, least remaining work) when queued tasks cannot be admitted,
    /// so they stop starving behind grown tenants. Only *borrowed* units
    /// are ever reclaimed: a deployment can be demoted back toward the
    /// shape admission gave it, never below — promotion is a revocable
    /// loan of idle capacity, not a transfer.
    pub preempt: bool,
}

impl ElasticityPolicy {
    /// No resizing — the default, byte-identical to the pre-elasticity
    /// scheduler.
    pub const DISABLED: ElasticityPolicy = ElasticityPolicy {
        promote: false,
        preempt: false,
    };

    /// Both promotion and preemptive scale-down.
    pub const FULL: ElasticityPolicy = ElasticityPolicy {
        promote: true,
        preempt: true,
    };

    /// Whether any reprovisioning is enabled.
    pub fn any(self) -> bool {
        self.promote || self.preempt
    }
}

/// Knobs for the admission scheduler. `trace_spans` changes how much
/// work a run records — never *what* it admits — and defaults on.
/// `elasticity` opts into the reprovisioner and `monitor` into streaming
/// telemetry; both default off.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionTuning {
    /// Record the causal span forest. Disabling skips span bookkeeping
    /// entirely — the report's `spans` and `critical_path` come out empty
    /// — for benchmark-scale workloads where the forest would dominate
    /// memory.
    pub trace_spans: bool,
    /// Dynamic reprovisioning of running deployments (off by default).
    pub elasticity: ElasticityPolicy,
    /// Streaming telemetry: windowed rollups and SLO burn-rate alerting
    /// (off by default; see [`MonitorConfig`]). A run with the monitor off
    /// performs no monitor work and serializes no `monitor` section, so
    /// pre-monitor artifacts stay byte-identical.
    pub monitor: MonitorConfig,
}

impl Default for AdmissionTuning {
    fn default() -> Self {
        AdmissionTuning {
            trace_spans: true,
            elasticity: ElasticityPolicy::DISABLED,
            monitor: MonitorConfig::default(),
        }
    }
}

/// How the simulator recovers deployments interrupted by a device failure.
///
/// An interrupted task immediately attempts to redeploy on the surviving
/// devices (the greedy option scan naturally falls back to a deeper
/// partition variant — more, smaller units — when the original footprint no
/// longer fits). Each failed attempt backs off exponentially in sim time;
/// after `max_retries` failed backoff retries the task is demoted: requeued
/// into the admission queue by default, or dropped (counted as lost) when
/// `drop_on_exhaustion` is set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Backoff retries after the immediate attempt (retry `k`, 0-based,
    /// waits `base_backoff * 2^k`).
    pub max_retries: u32,
    /// First backoff delay.
    pub base_backoff: SimTime,
    /// When retries exhaust: `true` drops the task (lost), `false` demotes
    /// it to the admission queue where it waits like a fresh arrival.
    pub drop_on_exhaustion: bool,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 5,
            base_backoff: SimTime::from_us(50.0),
            drop_on_exhaustion: false,
        }
    }
}

impl RecoveryPolicy {
    /// Delay before retry number `attempt` (0-based): `base * 2^attempt`,
    /// saturating.
    pub fn backoff(&self, attempt: u32) -> SimTime {
        self.base_backoff.doubled(attempt)
    }
}

/// Results of one cloud simulation run, including the observability
/// artifacts the run accumulated: streaming summaries, tail percentiles,
/// occupancy/queue-depth time series, the rejection-reason breakdown, the
/// full metrics registry, the scheduler-event trace, and — for chaos runs —
/// the failure-recovery accounting.
///
/// Accounting invariant: every arrival either completed, is reported in
/// [`never_deployed`](CloudReport::never_deployed), or was classified
/// [`lost`](CloudReport::lost) after exhausting migration retries — the
/// simulator never silently drops a task.
#[derive(Debug, Clone)]
pub struct CloudReport {
    /// Tasks that arrived.
    pub arrivals: u64,
    /// Tasks completed.
    pub completed: u64,
    /// Tasks still waiting in the queue when the simulation drained: they
    /// could never be deployed (e.g. the policy excludes every mapping
    /// option, or capacity never freed up).
    pub never_deployed: u64,
    /// Tasks dropped after a device failure exhausted their migration
    /// retries (only under [`RecoveryPolicy::drop_on_exhaustion`]).
    pub lost: u64,
    /// Time of the last completion.
    pub elapsed: SimTime,
    /// Aggregated system throughput in tasks per second (Fig. 12's
    /// metric).
    pub throughput_per_s: f64,
    /// End-to-end latency statistics (arrival to completion).
    pub latency: Summary,
    /// Median end-to-end latency in seconds; `None` if nothing completed.
    pub latency_p50: Option<f64>,
    /// 95th-percentile end-to-end latency in seconds.
    pub latency_p95: Option<f64>,
    /// 99th-percentile end-to-end latency in seconds.
    pub latency_p99: Option<f64>,
    /// Queueing delay statistics (arrival to first deployment). One-shot
    /// per task by design; the *second* wait of a task demoted back to
    /// the queue after exhausting migration retries is reported
    /// separately in [`requeue_wait`](CloudReport::requeue_wait).
    pub queue_wait: Summary,
    /// Queueing delay of requeued tasks (demotion after retry exhaustion
    /// to redeployment from the admission queue), in seconds.
    pub requeue_wait: Summary,
    /// Time-weighted mean cluster occupancy over the run (utilization).
    pub mean_occupancy: f64,
    /// Highest sampled cluster occupancy.
    pub peak_occupancy: f64,
    /// Deepest the admission queue ever got.
    pub peak_queue_depth: u64,
    /// Deployment attempts actually made and rejected, indexed by
    /// [`RejectReason::index`]; one task attempted many times counts each
    /// attempt. A queued task whose instance is already known to be
    /// rejected at the current capacity epoch is skipped, not attempted,
    /// and counts here not at all: skips book only
    /// [`rejected_tasks`](CloudReport::rejected_tasks), so that per-task
    /// view can exceed this one.
    pub rejections: [u64; 4],
    /// Distinct tasks rejected at least once per reason, indexed by
    /// [`RejectReason::index`], whether by an attempt or by a skip; a task
    /// counts once per reason however many waves visited it.
    pub rejected_tasks: [u64; 4],
    /// Device failures injected during the run.
    pub device_failures: u64,
    /// Device recoveries during the run.
    pub device_recoveries: u64,
    /// Deployment interruptions (a task interrupted by two failures counts
    /// twice).
    pub interrupted: u64,
    /// Interruptions recovered by redeployment (via the migration retry
    /// path or later, from the admission queue after demotion).
    pub migrated: u64,
    /// Successful redeployments of interrupted tasks — the controller
    /// deploys that served a recovery rather than a first admission.
    /// Counts both recovery paths, so the `deploys` metric (first
    /// admissions) plus this equals the controller's lifetime deploy
    /// count. Currently equal to [`migrated`](CloudReport::migrated) by
    /// construction; kept separate so the deploy-side accounting closes
    /// without reference to the interruption bookkeeping.
    pub redeployments: u64,
    /// Interruptions demoted to the admission queue after exhausting
    /// migration retries.
    pub requeued: u64,
    /// Recoveries that fell back to a deeper partition variant (more,
    /// smaller units than the interrupted deployment — the paper's
    /// scale-out machinery in reverse).
    pub scale_down_redeployments: u64,
    /// Time from interruption to successful redeployment, in seconds.
    pub time_to_recovery: Summary,
    /// Running deployments the reprovisioner grew to a higher-unit
    /// variant (zero unless [`ElasticityPolicy::promote`] is on).
    pub promotions: u64,
    /// Running deployments the reprovisioner preemptively shrank to admit
    /// queued work (zero unless [`ElasticityPolicy::preempt`] is on).
    pub preemptions: u64,
    /// Units gained across all promotions.
    pub units_gained: u64,
    /// Units lost across all preemptive scale-downs.
    pub units_lost: u64,
    /// Remaining-service time each promotion saved its task, in seconds
    /// (old remaining minus new remaining; positive by construction).
    pub promotion_saved: Summary,
    /// Remaining-service time each preemption added to its victim, in
    /// seconds (new remaining minus old remaining).
    pub preemption_added: Summary,
    /// Sim time spent with at least one device failed.
    pub degraded_time: SimTime,
    /// Time-weighted mean occupancy of the surviving devices while
    /// degraded (0 when the run never degraded).
    pub degraded_mean_occupancy: f64,
    /// Ring-segment failures injected during the run (link fault events
    /// whose segment index fit the cluster's ring).
    pub link_failures: u64,
    /// Ring-segment degradations injected during the run.
    pub link_degradations: u64,
    /// Ring-segment recoveries during the run.
    pub link_recoveries: u64,
    /// Transfers re-sent over the ring: corruption bursts on degraded
    /// segments plus the one re-send each reroute performs.
    pub link_retransmits: u64,
    /// Bytes those retransmissions re-sent. Each burst's `Retransmit`
    /// trace event carries its share, so with no trace evictions the
    /// event bytes sum to exactly this counter.
    pub link_retransmit_bytes: u64,
    /// Multi-device deployments re-routed the other way around the
    /// bidirectional ring after a segment failure lengthened their path
    /// (hop counts recomputed over the surviving segments).
    pub link_reroutes: u64,
    /// Deployments interrupted because segment failures severed every
    /// ring path between their units; they recover through the same
    /// migration machinery a device failure uses.
    pub link_severed: u64,
    /// Sim time with at least one ring segment degraded or failed.
    pub link_degraded_time: SimTime,
    /// Whether the run's fault plan covered ring segments. Gates the
    /// `links` block of [`CloudReport::to_json`], so device-only runs
    /// serialize exactly as they did before the interconnect fault model
    /// existed.
    pub link_faults_planned: bool,
    /// Streaming-telemetry section — windowed rollups and SLO burn-rate
    /// outcomes — present only when [`MonitorConfig::enabled`] was set on
    /// the run's [`AdmissionTuning`].
    pub monitor: Option<MonitorReport>,
    /// Cluster occupancy over time (step function, coalesced).
    pub occupancy_series: TimeSeries,
    /// Queue depth over time (step function, coalesced).
    pub queue_depth_series: TimeSeries,
    /// Every metric the run recorded, exportable via
    /// [`MetricsRegistry::to_json`].
    pub metrics: MetricsRegistry,
    /// The most recent scheduler events (ring buffer): every emitted
    /// [`SimEvent`] except `Tick`, `Backoff`, `LinkHandled`, `Reprovision`
    /// and `ReprovisionEnded`, a migration's rejections, a queued task's
    /// rejections after its first, and samples that left their gauge
    /// unchanged. Export with `trace.to_json(SimEvent::render)`.
    pub trace: TraceRing<SimEvent>,
    /// The causal span forest of the run: one `task` root per arrival with
    /// contiguous phase children (`queue_wait`, `compute`, `migrate`) plus
    /// nested control-plane markers (`deploy`, `reconfigure`, `backoff`,
    /// `device_failure`). Export via
    /// [`chrome_trace_events`](vfpga_sim::chrome_trace_events).
    pub spans: SpanTracer,
    /// Critical-path decomposition of every completed task's end-to-end
    /// latency: per-task phase buckets that sum exactly to the total, with
    /// the dominant phase at p50/p95/p99.
    pub critical_path: CriticalPath,
}

impl CloudReport {
    /// Rejected attempts for one reason.
    pub fn rejections_for(&self, reason: RejectReason) -> u64 {
        self.rejections[reason.index()]
    }

    /// Total rejected attempts across all reasons.
    pub fn total_rejections(&self) -> u64 {
        self.rejections.iter().sum()
    }

    /// Distinct tasks rejected at least once for one reason.
    pub fn rejected_tasks_for(&self, reason: RejectReason) -> u64 {
        self.rejected_tasks[reason.index()]
    }

    /// Whether every arrival is accounted for (completed, reported as
    /// never deployed, or classified lost) — the invariant all cloudsim
    /// and chaos tests pin.
    pub fn accounts_for_all_arrivals(&self) -> bool {
        self.completed + self.never_deployed + self.lost == self.arrivals
    }

    /// Mean time from interruption to redeployment in seconds; `None` if
    /// nothing recovered.
    pub fn mean_time_to_recovery_s(&self) -> Option<f64> {
        if self.time_to_recovery.count() == 0 {
            None
        } else {
            Some(self.time_to_recovery.mean())
        }
    }

    /// The report as a JSON document (without raw trace events; those
    /// stay available programmatically via [`CloudReport::trace`]).
    pub fn to_json(&self) -> JsonDoc<&Self> {
        JsonDoc(self)
    }
}

/// `{count, mean, min, max}` of a summary.
fn write_summary(w: &mut JsonWriter<'_>, key: &str, s: &Summary) {
    w.key(key).obj(|w| {
        w.field("count", s.count())
            .field("mean", s.mean())
            .field("min", s.min())
            .field("max", s.max());
    });
}

/// A step-function series and its downsampling accounting, which appears
/// only when the point cap actually folded samples, so short runs
/// serialize exactly as they did before the cap existed.
fn write_series(w: &mut JsonWriter<'_>, series: &TimeSeries) {
    w.field("series", series);
    if series.points_folded() > 0 {
        w.field("points_kept", series.points_kept())
            .field("points_folded", series.points_folded());
    }
}

impl WriteJson for CloudReport {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.obj(|w| {
            w.field("arrivals", self.arrivals)
                .field("completed", self.completed)
                .field("never_deployed", self.never_deployed)
                .field("lost", self.lost)
                .field("elapsed_s", self.elapsed.as_secs())
                .field("throughput_per_s", self.throughput_per_s);
            w.key("latency_s").obj(|w| {
                w.field("count", self.latency.count())
                    .field("mean", self.latency.mean())
                    .field("p50", self.latency_p50)
                    .field("p95", self.latency_p95)
                    .field("p99", self.latency_p99)
                    .field("min", self.latency.min())
                    .field("max", self.latency.max());
            });
            write_summary(w, "queue_wait_s", &self.queue_wait);
            write_summary(w, "requeue_wait_s", &self.requeue_wait);
            w.key("occupancy").obj(|w| {
                w.field("mean", self.mean_occupancy)
                    .field("peak", self.peak_occupancy);
                write_series(w, &self.occupancy_series);
            });
            w.key("queue_depth").obj(|w| {
                w.field("peak", self.peak_queue_depth);
                write_series(w, &self.queue_depth_series);
            });
            w.key("rejections").obj(|w| {
                for (key, counts) in [
                    ("attempts", &self.rejections),
                    ("tasks", &self.rejected_tasks),
                ] {
                    w.key(key).obj(|w| {
                        for reason in RejectReason::ALL {
                            w.field(reason.as_str(), counts[reason.index()]);
                        }
                    });
                }
            });
            w.key("recovery").obj(|w| {
                w.field("device_failures", self.device_failures)
                    .field("device_recoveries", self.device_recoveries)
                    .field("interrupted", self.interrupted)
                    .field("migrated", self.migrated)
                    .field("redeployments", self.redeployments)
                    .field("requeued", self.requeued)
                    .field("lost", self.lost)
                    .field("scale_down_redeployments", self.scale_down_redeployments)
                    .field("mean_time_to_recovery_s", self.mean_time_to_recovery_s())
                    .field("degraded_time_s", self.degraded_time.as_secs())
                    .field("degraded_mean_occupancy", self.degraded_mean_occupancy);
            });
            if self.link_faults_planned {
                w.key("links").obj(|w| {
                    w.field("failures", self.link_failures)
                        .field("degradations", self.link_degradations)
                        .field("recoveries", self.link_recoveries)
                        .field("retransmits", self.link_retransmits)
                        .field("bytes_retransmitted", self.link_retransmit_bytes)
                        .field("reroutes", self.link_reroutes)
                        .field("severed", self.link_severed)
                        .field("degraded_time_s", self.link_degraded_time.as_secs());
                });
            }
            w.key("elasticity").obj(|w| {
                w.field("promotions", self.promotions)
                    .field("preemptions", self.preemptions)
                    .field("units_gained", self.units_gained)
                    .field("units_lost", self.units_lost);
                write_summary(w, "promotion_saved_s", &self.promotion_saved);
                write_summary(w, "preemption_added_s", &self.preemption_added);
            });
            if let Some(monitor) = &self.monitor {
                w.field("monitor", monitor);
            }
            w.key("trace").obj(|w| {
                w.field("retained", self.trace.len())
                    .field("dropped", self.trace.dropped());
            });
            w.field("spans", self.spans.len())
                .field("critical_path", &self.critical_path);
        });
    }
}

enum Event {
    Arrival(usize),
    Completion {
        task_index: usize,
        epoch: u64,
    },
    DeviceFailed(usize),
    DeviceRecovered(usize),
    LinkDegraded(usize),
    LinkFailed(usize),
    LinkRecovered(usize),
    MigrationRetry {
        task_index: usize,
        epoch: u64,
        attempt: u32,
    },
    /// Re-runs the admission wave after a transient configure failure left
    /// queued work with no other future event to retry on.
    RetryNudge,
}

/// Runs a workload through the controller with the default trace capacity
/// and no injected faults.
///
/// * `instance_for` names the accelerator instance (a mapping-database key)
///   serving a task — the deployment catalog is sized per model class —
///   as a `&'static str`, so naming a task allocates nothing. It is called
///   once per arrival, where the name is interned; from then on the run
///   works with the [`InstanceId`] alone, and an unknown name fails the
///   run at that arrival.
/// * `service_time` gives the task's execution latency on a given
///   deployment (built from the cycle-level timing simulations).
///
/// Tasks that cannot deploy on arrival wait in a FIFO queue; every
/// completion retries the queue head. Tasks that never fit (policy
/// exclusion, permanent capacity shortfall) are reported in
/// [`CloudReport::never_deployed`] rather than silently dropped.
///
/// # Errors
///
/// Propagates controller errors ([`RuntimeError::UnknownInstance`] etc.).
pub fn run_cloud_sim(
    controller: &mut SystemController,
    arrivals: &[TaskArrival],
    instance_for: &dyn Fn(&RnnTask) -> &'static str,
    service_time: &dyn Fn(&RnnTask, &Deployment) -> SimTime,
) -> Result<CloudReport, RuntimeError> {
    run_cloud_sim_tuned(
        controller,
        arrivals,
        instance_for,
        service_time,
        &FaultPlan::none(),
        RecoveryPolicy::default(),
        DEFAULT_TRACE_CAPACITY,
        AdmissionTuning::default(),
    )
}

/// [`run_cloud_sim`] interleaving the workload with a fault plan's device
/// fail/recover waves — and, when the plan carries them, its ring-segment
/// link waves — recovering interrupted deployments per `recovery`, with
/// an explicit trace-ring capacity and [`AdmissionTuning`] (span
/// recording, elasticity and streaming telemetry). A zero trace capacity
/// keeps no events and counts every one as dropped. `instance_for` and
/// `service_time` are as in [`run_cloud_sim`]: the instance name is
/// asked for once per arrival and interned there.
///
/// Link degradations corrupt in-flight transfers of the multi-device
/// deployments routed over the segment (retransmitted under the plan's
/// bounded-backoff budget); link failures re-route affected deployments
/// the other way around the bidirectional ring, or interrupt them into the
/// migration path when the failure severs every path between their units.
///
/// The plan's transient configure-failure probability is installed on the
/// controller's fault injector for the duration of the run (and left in
/// place afterwards — rebuild the controller between runs, as the chaos
/// experiments do). Fault-plan device indices beyond the cluster size are
/// ignored, as are link indices beyond the ring's segment count or the
/// plan's own [`FaultPlan::links`]. Two runs
/// from identical seeds and inputs produce byte-identical reports.
///
/// # Errors
///
/// Propagates controller errors ([`RuntimeError::UnknownInstance`] etc.).
#[allow(clippy::too_many_arguments)]
pub fn run_cloud_sim_tuned(
    controller: &mut SystemController,
    arrivals: &[TaskArrival],
    instance_for: &dyn Fn(&RnnTask) -> &'static str,
    service_time: &dyn Fn(&RnnTask, &Deployment) -> SimTime,
    faults: &FaultPlan,
    recovery: RecoveryPolicy,
    trace_capacity: usize,
    tuning: AdmissionTuning,
) -> Result<CloudReport, RuntimeError> {
    let segments = controller.cluster().ring().segments();
    let instances = controller.database().len();
    let n = arrivals.len();
    let rec = Recorder::new(controller, n, faults.links() > 0, trace_capacity, &tuning);
    let mut sim = CloudSim {
        controller,
        arrivals,
        instance_for,
        service_time,
        recovery,
        faults,
        instance: vec![u32::MAX; n],
        queue: VecDeque::new(),
        window: WindowMasks {
            instance: vec![0; instances],
            booked: [0; 4],
        },
        wave_admitted: Vec::new(),
        idle_nudges: 0,
        events: EventQueue::new(),
        running: vec![None; n],
        live: BTreeSet::new(),
        live_snapshot: Vec::new(),
        epoch: vec![0; n],
        interrupted_pending: vec![None; n],
        elasticity: tuning.elasticity,
        service_total: vec![SimTime::ZERO; n],
        completion_at: vec![SimTime::ZERO; n],
        base_units: vec![0; n],
        last_promo_epoch: None,
        last_preempt_epoch: None,
        link_failed: vec![false; segments],
        link_degraded: vec![false; segments],
        link_rng: Rng::seed_from_u64(faults.seed() ^ 0x4c49_4e4b_434f_5252),
        rec,
    };
    sim.run()?;
    Ok(sim.finish())
}

/// The simulation state machine: one instance per run. It decides what
/// happens; every transition is described once to the [`Recorder`], which
/// books it.
struct CloudSim<'a> {
    controller: &'a mut SystemController,
    arrivals: &'a [TaskArrival],
    instance_for: &'a dyn Fn(&RnnTask) -> &'static str,
    service_time: &'a dyn Fn(&RnnTask, &Deployment) -> SimTime,
    recovery: RecoveryPolicy,
    faults: &'a FaultPlan,

    /// Each task's instance, interned once on arrival and kept as its
    /// database index ([`InstanceId::index`]); `u32::MAX` until then.
    instance: Vec<u32>,
    queue: VecDeque<usize>,
    /// The scan window's instances and bookings, kept by [`enqueue`] and
    /// [`leave_window`].
    ///
    /// [`enqueue`]: CloudSim::enqueue
    /// [`leave_window`]: CloudSim::leave_window
    window: WindowMasks,
    /// Per-wave scratch reused across admission waves: the admitted
    /// tasks' deployments.
    wave_admitted: Vec<(usize, Deployment)>,
    /// Consecutive `RetryNudge` waves that deployed nothing; the nudge
    /// stops re-arming at [`MAX_IDLE_NUDGES`].
    idle_nudges: u32,
    events: EventQueue<Event>,
    running: Vec<Option<Deployment>>,
    /// The indices of the tasks holding a deployment in `running`, in
    /// ascending order; passes over the running tasks walk this, not every
    /// arrival. Changed only where `running` is: `start_service` and
    /// `resize_running` insert, `take_running` removes.
    live: BTreeSet<usize>,
    /// Reused buffer for a pass that may change the live set while it
    /// walks it.
    live_snapshot: Vec<usize>,
    /// Bumped whenever a task's deployment changes or is interrupted;
    /// pending `Completion`/`MigrationRetry` events carrying an older epoch
    /// are stale and ignored.
    epoch: Vec<u64>,
    /// `Some((when, old_units))` while a task's interruption awaits
    /// redeployment.
    interrupted_pending: Vec<Option<(SimTime, u32)>>,

    /// Elastic reprovisioning (from [`AdmissionTuning`]).
    elasticity: ElasticityPolicy,
    /// Each running task's full service time under its current deployment
    /// (denominator of the work-fraction model on resize).
    service_total: Vec<SimTime>,
    /// When each running task's scheduled `Completion` will fire; the
    /// remaining work at any instant is `completion_at - now`.
    completion_at: Vec<SimTime>,
    /// Units each running task was *admitted* with (its last non-elastic
    /// deployment). Units above this watermark are borrowed via promotion
    /// and are the only ones preemption may reclaim.
    base_units: Vec<u32>,
    /// Capacity epoch of the last promotion pass; a pass runs at most once
    /// per epoch (capacity unchanged means the scan would repeat).
    last_promo_epoch: Option<u64>,
    /// Capacity epoch of the last *unproductive* preemption pass; while it
    /// matches, preemption is skipped so a saturated queue cannot demote
    /// more than one victim per capacity change.
    last_preempt_epoch: Option<u64>,

    /// Per-ring-segment hard-failure state (`true` while the segment is
    /// down), sized to the cluster's ring.
    link_failed: Vec<bool>,
    /// Per-ring-segment degraded state (`true` while degraded).
    link_degraded: Vec<bool>,
    /// Corruption-burst stream, salted off the plan seed on a channel
    /// disjoint from the schedule generators. Drawn only when the plan
    /// carries a nonzero corruption probability, so quiescent runs never
    /// touch it.
    link_rng: Rng,

    /// Books every transition into the metrics, trace, spans and monitor.
    rec: Recorder,
}

impl<'a> CloudSim<'a> {
    fn run(&mut self) -> Result<(), RuntimeError> {
        if self.faults.configure_failure_prob() > 0.0 {
            // Distinct stream from the plan's own fail/recover schedule.
            self.controller.enable_transient_faults(
                self.faults.configure_failure_prob(),
                self.faults.seed() ^ 0x7452_414e_5349_454e,
            );
        }
        for (i, a) in self.arrivals.iter().enumerate() {
            self.events.schedule(a.at, Event::Arrival(i));
        }
        let devices = self.controller.cluster().len();
        for ev in self.faults.events() {
            if ev.device >= devices {
                continue;
            }
            let event = if ev.fail {
                Event::DeviceFailed(ev.device)
            } else {
                Event::DeviceRecovered(ev.device)
            };
            self.events.schedule(ev.at, event);
        }
        // Link transitions ride the same event queue; segment indices
        // beyond the cluster's ring are ignored, mirroring the device rule,
        // and so are segments the plan does not cover (a plan with no
        // link coverage registers no link metrics to book them into).
        let segments = self.link_failed.len().min(self.faults.links());
        for ev in self.faults.link_events() {
            if ev.link >= segments {
                continue;
            }
            let event = match ev.kind {
                LinkFaultKind::Degraded => Event::LinkDegraded(ev.link),
                LinkFaultKind::Failed => Event::LinkFailed(ev.link),
                LinkFaultKind::Recovered => Event::LinkRecovered(ev.link),
            };
            self.events.schedule(ev.at, event);
        }

        while let Some((now, event)) = self.events.pop() {
            self.rec.emit(now, SimEvent::Tick);
            let nudged = matches!(event, Event::RetryNudge);
            let deploys = self.controller.stats().deploys;
            match event {
                Event::Arrival(i) => {
                    let tenant = (self.instance_for)(&self.arrivals[i].task);
                    let instance = self.controller.instance_id(tenant)?;
                    self.instance[i] = instance.index();
                    self.rec.emit(now, SimEvent::Arrival(i, instance));
                    self.enqueue(i);
                }
                Event::Completion { task_index, epoch } => {
                    if self.epoch[task_index] != epoch {
                        // The deployment this completion belonged to was
                        // interrupted; the task has moved on.
                        continue;
                    }
                    self.on_completion(now, task_index)?;
                }
                Event::DeviceFailed(device) => self.on_device_failed(now, device)?,
                Event::DeviceRecovered(device) => {
                    self.controller.handle_device_recovery(DeviceId(device));
                    self.rec.emit(now, SimEvent::DeviceRecovered(device));
                }
                Event::LinkDegraded(seg) => self.on_link_degraded(now, seg),
                Event::LinkFailed(seg) => self.on_link_failed(now, seg)?,
                Event::LinkRecovered(seg) => self.on_link_recovered(now, seg),
                Event::MigrationRetry {
                    task_index,
                    epoch,
                    attempt,
                } => {
                    if self.epoch[task_index] != epoch {
                        continue;
                    }
                    self.attempt_migration(now, task_index, attempt)?;
                }
                Event::RetryNudge => {}
            }
            let saw_transient = self.admission_wave(now)?;
            if self.elasticity.any() {
                self.reprovision(now)?;
            }
            let (c, depth) = (&self.controller, self.queue.len());
            let impaired = self
                .link_failed
                .iter()
                .chain(&self.link_degraded)
                .any(|&l| l);
            let occupancy = SimEvent::Occupancy(c.occupancy(), c.failed_devices(), impaired);
            self.rec.emit(now, SimEvent::QueueDepth(depth));
            self.rec.emit(now, occupancy);
            self.idle_nudges = if nudged && self.controller.stats().deploys == deploys {
                self.idle_nudges + 1
            } else {
                0
            };
            if saw_transient
                && self.events.is_empty()
                && !self.queue.is_empty()
                && self.idle_nudges < MAX_IDLE_NUDGES
            {
                // Without a nudge the run would drain here and strand
                // retryable work; transient faults only ever delay, up to
                // the idle-nudge bound.
                self.events
                    .schedule_in(self.recovery.base_backoff, Event::RetryNudge);
            }
        }
        match self.live.first() {
            Some(&task) => Err(RuntimeError::RunningAfterDrain {
                task,
                running: self.live.len(),
            }),
            None => Ok(()),
        }
    }

    fn on_completion(&mut self, now: SimTime, task_index: usize) -> Result<(), RuntimeError> {
        let deployment = self.take_running(task_index)?;
        self.controller.release(&deployment)?;
        let instance = self.instance_of(task_index);
        let device = deployment.placements.first().map(|p| p.device.0 as u64);
        let latency = now.saturating_sub(self.arrivals[task_index].at);
        let completed = SimEvent::Completed(task_index, instance, device, latency);
        self.rec.emit(now, completed);
        self.rec.emit(now, SimEvent::Released(task_index));
        Ok(())
    }

    fn on_device_failed(&mut self, now: SimTime, device: usize) -> Result<(), RuntimeError> {
        self.rec.emit(now, SimEvent::DeviceFailed(device));
        let interrupted = self
            .controller
            .handle_device_failure(DeviceId(device), self.rec.ctx(None, now));
        for id in interrupted {
            let task_index = self
                .live
                .iter()
                .copied()
                .find(|&i| self.running[i].as_ref().is_some_and(|d| d.id == id))
                .ok_or(RuntimeError::UntrackedDeployment { deployment: id.0 })?;
            self.interrupt(now, task_index, Interruption::Device(device))?;
        }
        Ok(())
    }

    /// Interrupts a running task and sends it down the migration path:
    /// the deployment is torn down, its pending completion goes stale,
    /// and the compute phase hands over to a `migrate` phase at the same
    /// instant so the span partition stays gapless. The immediate
    /// migration attempt follows; failures back off from there.
    /// Migrating tasks get first claim on the capacity their surviving
    /// units just freed, ahead of the admission queue.
    fn interrupt(
        &mut self,
        now: SimTime,
        task_index: usize,
        cause: Interruption,
    ) -> Result<(), RuntimeError> {
        let old = self.take_running(task_index)?;
        if let Interruption::Link(_) = cause {
            // The units themselves are healthy but can no longer exchange
            // state: release the footprint explicitly (no device failure
            // evicted it).
            self.controller.release(&old)?;
        }
        self.epoch[task_index] += 1;
        self.interrupted_pending[task_index] = Some((now, old.num_units() as u32));
        let device = match cause {
            Interruption::Device(d) => d as u64,
            _ => old.placements.first().map_or(0, |p| p.device.0 as u64),
        };
        let interrupted = SimEvent::Interrupted(task_index, device, cause);
        self.rec.emit(now, interrupted);
        self.attempt_migration(now, task_index, 0)
    }

    /// The plan's retransmission model as a [`RetransmitPolicy`]
    /// (bounded budget, backoff doubling per attempt).
    fn retransmit_policy(&self) -> RetransmitPolicy {
        let p = self.faults.link_params();
        RetransmitPolicy {
            max_retransmits: p.max_retransmits,
            base_backoff: p.retransmit_backoff,
        }
    }

    /// Whether a running deployment's minimum-hop ring routes use segment
    /// `seg`: knocking out just that segment changes (or severs) some
    /// pairwise distance between its devices.
    fn crosses_segment(&self, d: &Deployment, seg: usize) -> bool {
        if d.num_devices() < 2 {
            return false;
        }
        let cluster = self.controller.cluster();
        let ring = cluster.ring();
        let only = |s: usize| s == seg;
        for a in &d.placements {
            for b in &d.placements {
                let base = cluster.ring_hops(a.device, b.device);
                if ring.hops_avoiding(a.device.0, b.device.0, &only) != Some(base) {
                    return true;
                }
            }
        }
        false
    }

    /// Largest pairwise hop count of `d` routed around the currently
    /// failed segments; `None` when some pair is severed (no surviving
    /// direction connects it).
    fn max_hops_avoiding(&self, d: &Deployment) -> Option<usize> {
        let cluster = self.controller.cluster();
        let mut max = 0;
        for a in &d.placements {
            for b in &d.placements {
                max = max.max(cluster.ring_hops_avoiding(a.device, b.device, &self.link_failed)?);
            }
        }
        Some(max)
    }

    /// Pushes a running task's completion out by `delay`, bumping its
    /// epoch so the previously scheduled completion goes stale.
    fn delay_completion(&mut self, task_index: usize, delay: SimTime) {
        if delay == SimTime::ZERO {
            return;
        }
        let at = self.completion_at[task_index].saturating_add(delay);
        self.schedule_completion(task_index, at);
    }

    /// Schedules the task's completion at `at`, bumping its epoch so any
    /// previously scheduled completion goes stale.
    fn schedule_completion(&mut self, task_index: usize, at: SimTime) {
        self.epoch[task_index] += 1;
        self.completion_at[task_index] = at;
        let epoch = self.epoch[task_index];
        self.events
            .schedule(at, Event::Completion { task_index, epoch });
    }

    /// A ring segment drops to degraded service. Running multi-device
    /// deployments routed over it see a corruption burst: queued
    /// transfers are re-sent under the plan's bounded-backoff budget,
    /// pushing their completions out by the backoff sum.
    fn on_link_degraded(&mut self, now: SimTime, seg: usize) {
        self.link_degraded[seg] = true;
        self.rec
            .emit(now, SimEvent::Link(seg, LinkFaultKind::Degraded));
        let corruption = self.faults.corruption_prob();
        if corruption <= 0.0 {
            return;
        }
        let policy = self.retransmit_policy();
        let tasks = self.snapshot_live();
        for &i in &tasks {
            let Some(d) = &self.running[i] else {
                continue;
            };
            if !self.crosses_segment(d, seg) {
                continue;
            }
            // Geometric burst, capped by the retransmission budget: each
            // re-send is itself corrupted with the same probability.
            let mut attempts = 0u32;
            while attempts < policy.max_retransmits && self.link_rng.next_f64() < corruption {
                attempts += 1;
            }
            if attempts == 0 {
                continue;
            }
            self.rec.emit(now, resend(i, seg, d, attempts));
            let mut delay = SimTime::ZERO;
            for k in 0..attempts {
                delay = delay.saturating_add(policy.backoff(k));
            }
            self.delay_completion(i, delay);
        }
        self.live_snapshot = tasks;
    }

    /// A ring segment fails outright. Every running multi-device
    /// deployment whose route lengthened re-routes the other way around
    /// the bidirectional ring (hop counts recomputed over the surviving
    /// segments, the in-flight transfer re-sent); a deployment left with
    /// *no* surviving path between its units is interrupted and recovered
    /// through the same migration machinery a device failure uses — which
    /// prefers co-located placements, immune to further ring failures.
    fn on_link_failed(&mut self, now: SimTime, seg: usize) -> Result<(), RuntimeError> {
        self.link_failed[seg] = true;
        self.rec
            .emit(now, SimEvent::Link(seg, LinkFaultKind::Failed));
        let policy = self.retransmit_policy();
        let mut rerouted = 0u64;
        let mut severed = 0u64;
        let tasks = self.snapshot_live();
        for &i in &tasks {
            let Some(d) = &self.running[i] else {
                continue;
            };
            if d.num_devices() < 2 {
                continue;
            }
            match self.max_hops_avoiding(d) {
                None => {
                    severed += 1;
                    self.interrupt(now, i, Interruption::Link(seg))?;
                }
                Some(hops) => {
                    if hops <= d.max_ring_hops {
                        continue;
                    }
                    rerouted += 1;
                    let extra_hops = (hops - d.max_ring_hops) as u64;
                    self.rec.emit(now, SimEvent::Rerouted(i, seg, extra_hops));
                    // The transfer caught on the dead segment is re-sent
                    // along the detour, one backoff per extra hop plus
                    // the re-send itself.
                    self.rec.emit(now, resend(i, seg, d, 1));
                    let delay = SimTime::from_ps(
                        policy.base_backoff.as_ps().saturating_mul(extra_hops + 1),
                    );
                    self.delay_completion(i, delay);
                    if let Some(slot) = self.running[i].as_mut() {
                        slot.max_ring_hops = hops;
                    }
                }
            }
        }
        self.live_snapshot = tasks;
        self.rec.emit(now, SimEvent::LinkHandled(rerouted, severed));
        Ok(())
    }

    /// A ring segment returns to service. Detoured routes silently
    /// shorten back: each running multi-device deployment's hop count is
    /// recomputed under the remaining failures.
    fn on_link_recovered(&mut self, now: SimTime, seg: usize) {
        self.link_failed[seg] = false;
        self.link_degraded[seg] = false;
        self.rec
            .emit(now, SimEvent::Link(seg, LinkFaultKind::Recovered));
        for &i in &self.live {
            let Some(d) = &self.running[i] else {
                continue;
            };
            if d.num_devices() < 2 {
                continue;
            }
            if let Some(hops) = self.max_hops_avoiding(d) {
                if let Some(slot) = self.running[i].as_mut() {
                    slot.max_ring_hops = hops;
                }
            }
        }
    }

    /// The live set copied into the reused snapshot buffer, for a pass
    /// whose visits may take or restart tasks. Hand the buffer back to
    /// `live_snapshot` when the pass ends.
    fn snapshot_live(&mut self) -> Vec<usize> {
        let mut tasks = std::mem::take(&mut self.live_snapshot);
        tasks.clear();
        tasks.extend(&self.live);
        tasks
    }

    /// Installs a task's deployment and adds the task to the live set.
    fn put_running(&mut self, task_index: usize, deployment: Deployment) {
        self.running[task_index] = Some(deployment);
        self.live.insert(task_index);
    }

    /// Takes a running task's deployment and drops the task from the live
    /// set.
    fn take_running(&mut self, task_index: usize) -> Result<Deployment, RuntimeError> {
        let deployment = self.running[task_index]
            .take()
            .ok_or(RuntimeError::TaskNotRunning { task: task_index })?;
        self.live.remove(&task_index);
        Ok(deployment)
    }

    /// The task's interned instance.
    fn instance_of(&self, task_index: usize) -> InstanceId {
        self.controller.instance_at(self.instance[task_index])
    }

    /// The lane a compute phase on `d` renders on: its first unit's
    /// device and virtual-block slot.
    fn lane(&self, d: &Deployment) -> Lane {
        let p = d.placements.first()?;
        let slot = self
            .controller
            .allocation_slots(p.allocation)
            .and_then(|s| s.first().copied())
            .unwrap_or(0);
        Some((p.device.0 as u64 + 1, slot as u64))
    }

    /// One deployment attempt for a task, from the admission queue
    /// (`queued`) or the migration path: the task's instance is asked of
    /// the controller under its current phase span.
    fn place(
        &mut self,
        now: SimTime,
        task: usize,
        queued: bool,
    ) -> Result<Result<Deployment, RejectReason>, RuntimeError> {
        let (instance, ctx) = (self.instance_of(task), self.rec.ctx(Some(task), now));
        let outcome = self.controller.try_deploy(instance, ctx)?;
        if let Err(reason) = outcome {
            self.rec.emit(now, SimEvent::Rejected(task, reason, queued));
        }
        Ok(outcome)
    }

    /// One migration attempt for an interrupted task. Attempt 0 is the
    /// immediate one; subsequent attempts arrive via `MigrationRetry`.
    fn attempt_migration(
        &mut self,
        now: SimTime,
        task: usize,
        attempt: u32,
    ) -> Result<(), RuntimeError> {
        match self.place(now, task, false)? {
            Ok(deployment) => self.start_service(now, task, deployment)?,
            Err(_) if attempt < self.recovery.max_retries => {
                let delay = self.recovery.backoff(attempt);
                self.rec.emit(now, SimEvent::Backoff(task, attempt, delay));
                self.events.schedule_in(
                    delay,
                    Event::MigrationRetry {
                        task_index: task,
                        epoch: self.epoch[task],
                        attempt: attempt + 1,
                    },
                );
            }
            Err(_) => {
                let dropped = self.recovery.drop_on_exhaustion;
                self.rec.emit(now, SimEvent::RetryExhausted(task, dropped));
                if !dropped {
                    self.enqueue(task);
                }
            }
        }
        Ok(())
    }

    /// Installs a deployment for a task — its first, or the recovery of
    /// an interrupted one (via the migration retry path or from the
    /// admission queue after demotion) — and schedules its completion. The
    /// service restarts from scratch (work lost at interruption is
    /// re-done), recomputed for the new deployment's shape.
    fn start_service(
        &mut self,
        now: SimTime,
        task_index: usize,
        deployment: Deployment,
    ) -> Result<(), RuntimeError> {
        let (units, lane) = (deployment.num_units() as u32, self.lane(&deployment));
        let instance = self.instance_of(task_index);
        let started = match self.interrupted_pending[task_index].take() {
            Some((since, old)) => SimEvent::Recovered(task_index, since, old, units, lane),
            None => {
                let waited = now.saturating_sub(self.arrivals[task_index].at);
                SimEvent::Deployed(task_index, instance, waited, units, lane)
            }
        };
        self.rec.emit(now, started);
        let task = self.arrivals[task_index].task;
        let service = (self.service_time)(&task, &deployment);
        self.base_units[task_index] = deployment.num_units() as u32;
        self.put_running(task_index, deployment);
        self.service_total[task_index] = service;
        self.schedule_completion(task_index, now.saturating_add(service));
        Ok(())
    }

    /// One elastic-reprovisioning pass, run after the admission wave
    /// whenever any [`ElasticityPolicy`] knob is on.
    ///
    /// Preemption first: while tasks starve in the queue, the cheapest
    /// victim is scaled down and the admission wave re-run; the loop stops
    /// as soon as a demotion fails to admit anything, and an unproductive
    /// pass arms a per-capacity-epoch latch so a saturated queue cannot
    /// demote more than one victim per capacity change. Promotion only
    /// runs when the queue is empty — growing a tenant while work is
    /// waiting would invert the policy's priorities — and at most once per
    /// capacity epoch.
    fn reprovision(&mut self, now: SimTime) -> Result<(), RuntimeError> {
        if self.elasticity.preempt
            && !self.queue.is_empty()
            && self.last_preempt_epoch != Some(self.controller.capacity_epoch())
        {
            let mut productive = false;
            while !self.queue.is_empty() {
                let Some(victim) = self.cheapest_victim(now) else {
                    break;
                };
                if !self.preempt_victim(now, victim)? {
                    break;
                }
                let before = self.queue.len();
                self.admission_wave(now)?;
                if self.queue.len() == before {
                    break;
                }
                productive = true;
            }
            if !productive {
                self.last_preempt_epoch = Some(self.controller.capacity_epoch());
            }
        }
        if self.elasticity.promote && self.queue.is_empty() {
            let epoch = self.controller.capacity_epoch();
            if self.last_promo_epoch != Some(epoch) {
                self.last_promo_epoch = Some(epoch);
                self.promote_pass(now)?;
            }
        }
        Ok(())
    }

    /// Picks the cheapest preemption victim: among running tasks holding
    /// borrowed units (promoted above their admitted shape) with a
    /// strictly smaller mapping variant to fall back to, the one losing
    /// the fewest units, breaking ties by least remaining work (least
    /// slowdown added), then lowest task index for determinism. Tasks at
    /// their admitted shape are never victims — demoting an organically
    /// placed tenant trades its (possibly streaming-inflated) slowdown
    /// for a stranger's queue wait, which measurably inflates the tail.
    fn cheapest_victim(&self, now: SimTime) -> Option<usize> {
        self.live
            .iter()
            .filter_map(|&i| {
                let d = self.running[i].as_ref()?;
                if (d.num_units() as u32) <= self.base_units[i] {
                    return None;
                }
                let target = self.controller.scale_down_target(d)?;
                let remaining = self.completion_at[i].saturating_sub(now);
                if remaining == SimTime::ZERO {
                    return None;
                }
                Some((d.num_units() - target, remaining, i))
            })
            .min()
            .map(|(_, _, i)| i)
    }

    /// Preemptively scales `victim` down to free capacity for the queue.
    /// Returns whether capacity was actually freed (a demotion or a
    /// displacement); `false` means the victim turned out unshrinkable
    /// and the caller should stop preempting.
    fn preempt_victim(&mut self, now: SimTime, victim: usize) -> Result<bool, RuntimeError> {
        let d = self.running[victim]
            .as_ref()
            .ok_or(RuntimeError::TaskNotRunning { task: victim })?;
        self.rec.emit(now, SimEvent::Reprovision(victim, "preempt"));
        let ctx = self.rec.ctx(Some(victim), now);
        match self.controller.demote_deployment(d, ctx)? {
            ScaleDown::Demoted(nd) => {
                self.resize_running(now, victim, nd)?;
                Ok(true)
            }
            ScaleDown::AlreadyMinimal => {
                self.rec.emit(now, SimEvent::ReprovisionEnded("kept"));
                Ok(false)
            }
            ScaleDown::Displaced => {
                // Every smaller variant flaked during commit: the victim's
                // resources are gone, so it rides the same interruption /
                // migration machinery a device failure uses (and counts
                // into the same accounting).
                self.rec.emit(now, SimEvent::ReprovisionEnded("displaced"));
                self.interrupt(now, victim, Interruption::Displaced)?;
                Ok(true)
            }
        }
    }

    /// One promotion scan over the running tasks: each is offered the
    /// co-located-first larger variants and promoted when the candidate's
    /// service time beats the current one — under the work-fraction model
    /// the remaining work scales with the total, so a strictly better
    /// service time strictly shortens what is left.
    fn promote_pass(&mut self, now: SimTime) -> Result<(), RuntimeError> {
        let tasks = self.snapshot_live();
        for &i in &tasks {
            let Some(d) = &self.running[i] else {
                continue;
            };
            if self.completion_at[i].saturating_sub(now) == SimTime::ZERO {
                continue;
            }
            let task = self.arrivals[i].task;
            let service_time = self.service_time;
            let old_secs = self.service_total[i].as_secs();
            let mut accept =
                move |cand: &Deployment| service_time(&task, cand).as_secs() < old_secs;
            self.rec.emit(now, SimEvent::Reprovision(i, "promote"));
            let ctx = self.rec.ctx(Some(i), now);
            match self.controller.promote_deployment(d, &mut accept, ctx)? {
                Some(nd) => self.resize_running(now, i, nd)?,
                None => self.rec.emit(now, SimEvent::ReprovisionEnded("kept")),
            }
        }
        self.live_snapshot = tasks;
        Ok(())
    }

    /// Swaps a running task onto `new_deployment` at `now`, carrying its
    /// progress over as a work fraction: the remaining time is rescaled
    /// by the ratio of the new shape's service time to the old one.
    fn resize_running(
        &mut self,
        now: SimTime,
        task_index: usize,
        new_deployment: Deployment,
    ) -> Result<(), RuntimeError> {
        let old = self.take_running(task_index)?;
        let old_remaining = self.completion_at[task_index].saturating_sub(now);
        let old_total = self.service_total[task_index];
        let task = self.arrivals[task_index].task;
        let new_total = (self.service_time)(&task, &new_deployment);
        let frac = if old_total > SimTime::ZERO {
            old_remaining.as_secs() / old_total.as_secs()
        } else {
            0.0
        };
        let new_remaining = SimTime::from_secs(new_total.as_secs() * frac);
        let (from, to) = (old.num_units() as u32, new_deployment.num_units() as u32);
        let lane = self.lane(&new_deployment);
        let resized = SimEvent::Resized(task_index, from, to, old_remaining, new_remaining, lane);
        self.rec.emit(now, resized);
        self.put_running(task_index, new_deployment);
        self.service_total[task_index] = new_total;
        self.schedule_completion(task_index, now.saturating_add(new_remaining));
        Ok(())
    }

    /// Appends a task to the admission queue, entering it into the
    /// window masks when it lands inside the scan window.
    fn enqueue(&mut self, task: usize) {
        self.queue.push_back(task);
        let pos = self.queue.len() - 1;
        if pos < SCAN_WINDOW {
            self.window
                .enter(pos, self.instance[task], self.rec.booked(task));
        }
    }

    /// Removes the admitted window positions in `taken` from the queue in
    /// place, keeping the others in order, and enters the tasks that move
    /// up into the window.
    fn leave_window(&mut self, taken: u64) {
        let window = self.queue.len().min(SCAN_WINDOW);
        let mut rest = taken;
        while rest != 0 {
            let pos = 63 - rest.leading_zeros() as usize;
            self.queue.remove(pos);
            rest ^= 1 << pos;
        }
        self.window.remove(taken);
        let kept = window - taken.count_ones() as usize;
        for pos in kept..self.queue.len().min(SCAN_WINDOW) {
            let task = self.queue[pos];
            self.window
                .enter(pos, self.instance[task], self.rec.booked(task));
        }
    }

    /// Admits as many queued tasks as capacity allows. Tasks request
    /// deployment independently, so a blocked task does not block later
    /// tasks that fit elsewhere; the scan window stays bounded to keep
    /// arrival order roughly fair. A wave examines the window positions in
    /// order, starts the admitted tasks' service, removes them from the
    /// window in place, and repeats until a pass admits nothing.
    ///
    /// A position is attempted only when its instance has no rejection
    /// known at the current capacity epoch; otherwise the known rejection
    /// is booked and nothing is attempted. That is exact: admissions never
    /// bump the epoch, so free capacity only shrinks until the next
    /// release, eviction or recovery, and transient faults are never
    /// known, so they are re-attempted. A position whose instance is known
    /// rejected and whose task is already booked for that reason is
    /// skipped, since booking it again would change nothing. The window
    /// masks name the remaining positions, which are re-read after every
    /// attempt (a probe may cache a rejection, and a rolled-back transient
    /// fault moves the epoch), so a wave costs O(instances) per attempt
    /// plus O(1) per admitted task and window entrant, not O(window).
    ///
    /// Returns whether any attempt was turned down by a transient
    /// configure fault (retryable; the caller may need to self-schedule a
    /// retry if no other event is pending).
    fn admission_wave(&mut self, now: SimTime) -> Result<bool, RuntimeError> {
        let mut saw_transient = false;
        loop {
            let mut pending = self.window.pending(self.controller);
            if pending == 0 {
                return Ok(saw_transient);
            }
            let mut admitted = std::mem::take(&mut self.wave_admitted);
            let mut taken = 0u64;
            while pending != 0 {
                let pos = pending.trailing_zeros() as usize;
                #[cfg(test)]
                EXAMINED.with(|n| n.set(n.get() + 1));
                let idx = self.queue[pos];
                let known = self.controller.known_rejection(self.instance_of(idx));
                let outcome = match known {
                    // Pending, so not yet booked for `reason`.
                    Some(reason) => {
                        self.rec.emit(now, SimEvent::Blocked(idx, reason));
                        Err(reason)
                    }
                    None => self.place(now, idx, true)?,
                };
                self.window.book(pos, self.rec.booked(idx));
                pending = match known {
                    Some(_) => pending & (pending - 1),
                    None => self.window.pending(self.controller) & (u64::MAX << pos << 1),
                };
                match outcome {
                    Ok(deployment) => {
                        taken |= 1 << pos;
                        admitted.push((idx, deployment));
                    }
                    Err(reason) => saw_transient |= reason == RejectReason::TransientFault,
                }
            }
            if admitted.is_empty() {
                self.wave_admitted = admitted;
                return Ok(saw_transient);
            }
            self.leave_window(taken);
            for (idx, deployment) in admitted.drain(..) {
                self.start_service(now, idx, deployment)?;
            }
            self.wave_admitted = admitted;
        }
    }

    /// Tasks stranded in the queue when the run drained never deployed.
    fn finish(self) -> CloudReport {
        self.rec.finish(self.queue.iter().copied())
    }
}

/// `attempts` re-sends of task `task`'s inter-unit state exchange over
/// segment `link`. One exchange of `d` puts its cut bandwidth in bits per
/// activation on the ring, rounded up to bytes and floored at one byte
/// so the accounting stays visible for tiny cuts.
fn resend(task: usize, link: usize, d: &Deployment, attempts: u32) -> SimEvent {
    let bytes = d.cut_bandwidth.div_ceil(8).max(1) * attempts as u64;
    SimEvent::Retransmit(task, link, attempts, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::Policy;
    use crate::testutil::small_db;
    use vfpga_core::{MappingDatabase, MappingEntry};
    use vfpga_sim::{FaultPlanParams, Json, LinkFaultEvent, LinkFaultParams};
    use vfpga_workload::{RnnKind, RnnTask};

    fn arrivals(n: usize, gap_us: f64) -> Vec<TaskArrival> {
        (0..n)
            .map(|i| TaskArrival {
                at: SimTime::from_us(i as f64 * gap_us),
                task: RnnTask::new(RnnKind::Lstm, 512, 5),
            })
            .collect()
    }

    /// `n` tasks 0.5 us apart, alternating between [`tiny_or_big`]'s two
    /// instances.
    fn tiny_and_big(n: usize) -> Vec<TaskArrival> {
        (0..n)
            .map(|i| TaskArrival {
                at: SimTime::from_us(i as f64 * 0.5),
                task: RnnTask::new(RnnKind::Lstm, 512 + 256 * (i % 2), 5),
            })
            .collect()
    }

    fn tiny_or_big(t: &RnnTask) -> &'static str {
        if t.hidden == 512 {
            "tiny"
        } else {
            "big"
        }
    }

    fn fixed_service(_t: &RnnTask, _d: &Deployment) -> SimTime {
        SimTime::from_us(100.0)
    }

    fn chaos_plan(seed: u64) -> FaultPlan {
        FaultPlan::generate(
            FaultPlanParams {
                mttf: SimTime::from_us(150.0),
                mttr: SimTime::from_us(60.0),
                configure_failure_prob: 0.0,
                horizon: SimTime::from_us(800.0),
            },
            4,
            seed,
        )
    }

    #[test]
    fn all_tasks_complete() {
        let (cluster, db) = small_db();
        let mut c = SystemController::new(cluster, db, Policy::Full);
        let a = arrivals(50, 10.0);
        let report = run_cloud_sim(&mut c, &a, &|_| "tiny", &fixed_service).unwrap();
        assert_eq!(report.completed, 50);
        assert_eq!(report.never_deployed, 0);
        assert_eq!(report.lost, 0);
        assert!(report.accounts_for_all_arrivals());
        assert!(report.throughput_per_s > 0.0);
        // Everything released at the end.
        assert_eq!(c.live_deployments(), 0);
        assert_eq!(c.occupancy(), 0.0);
        assert_eq!(c.stats().deploys, 50);
        assert_eq!(c.stats().releases, 50);
    }

    #[test]
    fn saturation_builds_queue_wait() {
        let (cluster, db) = small_db();
        // Offered load far above capacity: queue wait must grow well past
        // the (light-load) service time.
        let mut c = SystemController::new(cluster, db, Policy::Baseline);
        let a = arrivals(80, 1.0);
        let report = run_cloud_sim(&mut c, &a, &|_| "tiny", &fixed_service).unwrap();
        assert_eq!(report.completed, 80);
        assert!(report.accounts_for_all_arrivals());
        assert!(report.queue_wait.mean() > 100e-6);
        // Under saturation the baseline's throughput is bounded by 4
        // concurrent servers of 100us each: 40000/s.
        assert!(report.throughput_per_s <= 41_000.0);
        assert!(report.throughput_per_s > 30_000.0);
        // Saturation means the controller turned down deploy attempts for
        // capacity, and the queue visibly backed up.
        assert!(report.rejections_for(RejectReason::InsufficientCapacity) > 0);
        assert!(report.peak_queue_depth > 0);
    }

    #[test]
    fn sharing_policy_outperforms_baseline_under_saturation() {
        let (cluster, db) = small_db();
        let a = arrivals(80, 1.0);
        let mut base = SystemController::new(cluster.clone(), db.clone(), Policy::Baseline);
        let b = run_cloud_sim(&mut base, &a, &|_| "tiny", &fixed_service).unwrap();
        let mut full = SystemController::new(cluster, db, Policy::Full);
        let f = run_cloud_sim(&mut full, &a, &|_| "tiny", &fixed_service).unwrap();
        assert!(
            f.throughput_per_s > b.throughput_per_s * 1.5,
            "full {} vs baseline {}",
            f.throughput_per_s,
            b.throughput_per_s
        );
    }

    #[test]
    fn restricted_policy_sits_between_baseline_and_full() {
        // The paper's Fig. 12 ordering on the heterogeneous paper cluster:
        // the restricted policy (spatial sharing, multi-FPGA confined to
        // one device type) beats the whole-device baseline but cannot beat
        // the full framework.
        let (cluster, db) = small_db();
        let a = arrivals(80, 1.0);
        let run = |policy: Policy| {
            let mut c = SystemController::new(cluster.clone(), db.clone(), policy);
            run_cloud_sim(&mut c, &a, &|_| "tiny", &fixed_service).unwrap()
        };
        let base = run(Policy::Baseline);
        let restricted = run(Policy::Restricted);
        let full = run(Policy::Full);
        assert!(base.accounts_for_all_arrivals());
        assert!(restricted.accounts_for_all_arrivals());
        assert!(full.accounts_for_all_arrivals());
        assert!(
            restricted.throughput_per_s > base.throughput_per_s,
            "restricted {} should beat baseline {}",
            restricted.throughput_per_s,
            base.throughput_per_s
        );
        assert!(
            full.throughput_per_s >= restricted.throughput_per_s,
            "full {} should be at least restricted {}",
            full.throughput_per_s,
            restricted.throughput_per_s
        );
    }

    #[test]
    fn latency_includes_queueing() {
        let (cluster, db) = small_db();
        let mut c = SystemController::new(cluster, db, Policy::Baseline);
        let a = arrivals(20, 1.0);
        let report = run_cloud_sim(&mut c, &a, &|_| "tiny", &fixed_service).unwrap();
        // End-to-end latency >= service time for every task.
        assert!(report.latency.min().unwrap() >= 100e-6 - 1e-9);
        assert!(report.latency.mean() > report.queue_wait.mean());
        // Percentiles are ordered and at least the service time.
        let (p50, p99) = (report.latency_p50.unwrap(), report.latency_p99.unwrap());
        assert!(p50 >= 100e-6 - 1e-9);
        assert!(p99 >= p50);
    }

    #[test]
    fn undeployable_tasks_are_reported_not_dropped() {
        // An instance offering only multi-FPGA options can never deploy
        // under the baseline policy: the report must say so instead of
        // under-reporting.
        let (cluster, db) = small_db();
        let big = db.entry("big").unwrap();
        let multi_only: Vec<_> = big
            .options
            .iter()
            .filter(|o| o.num_units() > 1)
            .cloned()
            .collect();
        assert!(!multi_only.is_empty(), "test needs a multi-unit option");
        let mut db2 = MappingDatabase::new();
        db2.register_entry(MappingEntry {
            name: "huge".to_string(),
            options: multi_only,
            total_resources: big.total_resources,
            compile_seconds: big.compile_seconds,
        });
        let mut c = SystemController::new(cluster, db2, Policy::Baseline);
        let a = arrivals(10, 1.0);
        let report = run_cloud_sim(&mut c, &a, &|_| "huge", &fixed_service).unwrap();
        assert_eq!(report.completed, 0);
        assert_eq!(report.never_deployed, 10);
        assert!(report.accounts_for_all_arrivals());
        assert!(report.rejections_for(RejectReason::PolicyExcluded) > 0);
        // Empty run still yields a well-formed report.
        assert_eq!(report.latency.min(), None);
        assert_eq!(report.latency_p99, None);
        assert_eq!(report.throughput_per_s, 0.0);
        let json = report.to_json().compact();
        assert!(json.contains(r#""never_deployed":10"#), "{json}");
    }

    #[test]
    fn empty_workload_yields_empty_report() {
        let (cluster, db) = small_db();
        let mut c = SystemController::new(cluster, db, Policy::Full);
        let report = run_cloud_sim(&mut c, &[], &|_| "tiny", &fixed_service).unwrap();
        assert_eq!(report.arrivals, 0);
        assert_eq!(report.completed, 0);
        assert!(report.accounts_for_all_arrivals());
        assert_eq!(report.latency.min(), None);
        assert_eq!(report.mean_occupancy, 0.0);
    }

    #[test]
    fn report_exposes_time_series_and_trace() {
        let (cluster, db) = small_db();
        let mut c = SystemController::new(cluster, db, Policy::Full);
        let a = arrivals(30, 5.0);
        let report = run_cloud_sim(&mut c, &a, &|_| "tiny", &fixed_service).unwrap();
        // Occupancy rose and returned to zero.
        assert!(report.peak_occupancy > 0.0);
        assert_eq!(report.occupancy_series.last(), Some(0.0));
        assert!(report.mean_occupancy > 0.0);
        // The trace saw every lifecycle event kind.
        let labels: std::collections::BTreeSet<&str> =
            report.trace.iter().map(|e| e.event.label()).collect();
        for expect in ["arrival", "deploy", "completion", "release", "occupancy"] {
            assert!(labels.contains(expect), "missing {expect} in {labels:?}");
        }
        // Metrics registry agrees with the report.
        let mut m = report.metrics.clone();
        let deploys = m.counter("deploys");
        assert_eq!(m.counter_value(deploys), 30);
        let json = report.to_json().compact();
        assert!(json.contains(r#""throughput_per_s""#), "{json}");
        assert!(json.contains(r#""series":[["#), "{json}");
    }

    #[test]
    fn chaos_run_recovers_interrupted_tasks() {
        let (cluster, db) = small_db();
        let mut c = SystemController::new(cluster, db, Policy::Full);
        let a = arrivals(60, 10.0);
        let plan = chaos_plan(2024);
        assert!(plan.failures() > 0, "plan must actually inject failures");
        let report = run_cloud_sim_tuned(
            &mut c,
            &a,
            &|_| "tiny",
            &fixed_service,
            &plan,
            RecoveryPolicy::default(),
            DEFAULT_TRACE_CAPACITY,
            AdmissionTuning::default(),
        )
        .unwrap();
        assert!(report.accounts_for_all_arrivals());
        assert!(report.device_failures > 0);
        assert!(report.interrupted > 0, "failures should interrupt work");
        assert!(report.migrated > 0, "some interruption should recover");
        assert!(report.degraded_time > SimTime::ZERO);
        let labels: std::collections::BTreeSet<&str> =
            report.trace.iter().map(|e| e.event.label()).collect();
        for expect in ["device_failed", "migration_started", "migration_completed"] {
            assert!(labels.contains(expect), "missing {expect} in {labels:?}");
        }
        // Occupancy stays a valid fraction throughout the chaos.
        assert!(report.peak_occupancy <= 1.0);
        // After the run, the controller holds nothing.
        assert_eq!(c.live_deployments(), 0);
    }

    #[test]
    fn chaos_runs_are_byte_identical_for_a_fixed_seed() {
        let (cluster, db) = small_db();
        let a = arrivals(60, 10.0);
        let plan = chaos_plan(7);
        let run = || {
            let mut c = SystemController::new(cluster.clone(), db.clone(), Policy::Full);
            run_cloud_sim_tuned(
                &mut c,
                &a,
                &|_| "tiny",
                &fixed_service,
                &plan,
                RecoveryPolicy::default(),
                DEFAULT_TRACE_CAPACITY,
                AdmissionTuning::default(),
            )
            .unwrap()
            .to_json()
            .pretty()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn zero_trace_capacity_keeps_nothing_and_changes_no_outcome() {
        let (cluster, db) = small_db();
        let a = arrivals(60, 10.0);
        let plan = chaos_plan(7);
        let run = |trace_capacity| {
            let mut c = SystemController::new(cluster.clone(), db.clone(), Policy::Full);
            run_cloud_sim_tuned(
                &mut c,
                &a,
                &|_| "tiny",
                &fixed_service,
                &plan,
                RecoveryPolicy::default(),
                trace_capacity,
                AdmissionTuning::default(),
            )
            .unwrap()
        };
        let none = run(0);
        let full = run(DEFAULT_TRACE_CAPACITY);
        assert_eq!(none.trace.len(), 0);
        assert!(none.trace.dropped() > 0);
        assert_eq!(
            none.trace.dropped(),
            full.trace.len() as u64 + full.trace.dropped()
        );
        let without_trace = |r: &CloudReport| match Json::from(r.to_json()) {
            Json::Obj(fields) => {
                Json::Obj(fields.into_iter().filter(|(k, _)| k != "trace").collect()).compact()
            }
            other => panic!("report is not an object: {}", other.compact()),
        };
        assert_eq!(without_trace(&none), without_trace(&full));
    }

    #[test]
    fn drop_policy_classifies_lost_tasks() {
        let (cluster, db) = small_db();
        // Aggressive failures with recoveries far beyond the workload:
        // interrupted tasks find no healthy capacity and retries exhaust.
        let mut c = SystemController::new(cluster, db, Policy::Full);
        let a = arrivals(10, 5.0);
        let plan = FaultPlan::generate(
            FaultPlanParams {
                mttf: SimTime::from_us(30.0),
                mttr: SimTime::from_secs(10.0),
                configure_failure_prob: 0.0,
                horizon: SimTime::from_us(200.0),
            },
            4,
            3,
        );
        assert!(plan.failures() > 0);
        let report = run_cloud_sim_tuned(
            &mut c,
            &a,
            &|_| "tiny",
            &fixed_service,
            &plan,
            RecoveryPolicy {
                max_retries: 2,
                base_backoff: SimTime::from_us(10.0),
                drop_on_exhaustion: true,
            },
            DEFAULT_TRACE_CAPACITY,
            AdmissionTuning::default(),
        )
        .unwrap();
        assert!(report.accounts_for_all_arrivals());
        if report.interrupted > 0 {
            assert!(
                report.lost + report.migrated > 0,
                "interruptions must resolve to lost or migrated"
            );
            if report.lost > 0 {
                let labels: std::collections::BTreeSet<&str> =
                    report.trace.iter().map(|e| e.event.label()).collect();
                assert!(labels.contains("retry_exhausted"), "{labels:?}");
            }
        }
    }

    #[test]
    fn spans_partition_latency_and_critical_path_reports() {
        let (cluster, db) = small_db();
        let mut c = SystemController::new(cluster, db, Policy::Full);
        let a = arrivals(60, 10.0);
        let plan = chaos_plan(2024);
        let report = run_cloud_sim_tuned(
            &mut c,
            &a,
            &|_| "tiny",
            &fixed_service,
            &plan,
            RecoveryPolicy::default(),
            DEFAULT_TRACE_CAPACITY,
            AdmissionTuning::default(),
        )
        .unwrap();
        // Every span closed; roots cover every arrival.
        assert_eq!(report.spans.open_count(), 0);
        let roots: Vec<_> = report
            .spans
            .spans()
            .iter()
            .filter(|s| s.name == "task")
            .collect();
        assert_eq!(roots.len(), 60);
        // Phase buckets sum *exactly* (in integer picoseconds) to each
        // completed task's end-to-end latency.
        let cp = &report.critical_path;
        assert_eq!(cp.tasks.len(), report.completed as usize);
        for task in &cp.tasks {
            assert_eq!(task.phase_sum(), task.total, "buckets must partition");
        }
        // The dominant-phase percentiles exist and name real phases.
        let p99 = cp.quantile_task(0.99).expect("tasks completed");
        assert!(["queue_wait", "compute", "migrate"].contains(&p99.dominant().0));
        // The chaos run migrated tasks: some task carries a migrate bucket.
        assert!(report.migrated > 0);
        assert!(
            cp.tasks
                .iter()
                .any(|t| t.phases.iter().any(|(n, _)| *n == "migrate")),
            "a migrated task should expose a migrate bucket"
        );
        // Spans mention the control-plane machinery too.
        let names: std::collections::BTreeSet<&str> =
            report.spans.spans().iter().map(|s| s.name).collect();
        for expect in ["deploy", "reconfigure", "device_failure"] {
            assert!(names.contains(expect), "missing {expect} in {names:?}");
        }
        // The report JSON carries the critical-path section.
        let json = report.to_json().compact();
        assert!(json.contains(r#""critical_path""#), "{json}");
        assert!(json.contains(r#""completed_tasks":"#), "{json}");
    }

    #[test]
    fn never_deployed_tasks_close_their_spans() {
        let (cluster, db) = small_db();
        let big = db.entry("big").unwrap();
        let multi_only: Vec<_> = big
            .options
            .iter()
            .filter(|o| o.num_units() > 1)
            .cloned()
            .collect();
        let mut db2 = MappingDatabase::new();
        db2.register_entry(MappingEntry {
            name: "huge".to_string(),
            options: multi_only,
            total_resources: big.total_resources,
            compile_seconds: big.compile_seconds,
        });
        let mut c = SystemController::new(cluster, db2, Policy::Baseline);
        let a = arrivals(10, 1.0);
        let report = run_cloud_sim(&mut c, &a, &|_| "huge", &fixed_service).unwrap();
        assert_eq!(report.never_deployed, 10);
        assert_eq!(report.spans.open_count(), 0);
        let outcomes = report
            .spans
            .spans()
            .iter()
            .filter(|s| s.name == "task" && s.attr_is("outcome", "never_deployed"))
            .count();
        assert_eq!(outcomes, 10);
        // Nothing completed, so the critical path is empty but well-formed.
        assert!(report.critical_path.tasks.is_empty());
        assert!(report.critical_path.quantile_task(0.5).is_none());
    }

    #[test]
    fn requeued_tasks_record_second_wait_and_redeployments() {
        // Every device fails almost immediately (mttf << horizon) and
        // stays down far longer than the retry budget: interrupted tasks
        // exhaust their migration retries, demote to the admission queue,
        // and redeploy via the wave once devices recover. Regressions
        // pinned here: the wave-path redeploy used to take the
        // `complete_recovery` early-continue without ever counting into
        // the deploy-side metrics, and the second queue wait was never
        // recorded (`waited` is one-shot).
        let (cluster, db) = small_db();
        let mut c = SystemController::new(cluster, db, Policy::Full);
        let a = arrivals(8, 2.0);
        let plan = FaultPlan::generate(
            FaultPlanParams {
                mttf: SimTime::from_us(1.0),
                mttr: SimTime::from_us(400.0),
                configure_failure_prob: 0.0,
                horizon: SimTime::from_us(40.0),
            },
            4,
            5,
        );
        assert!(plan.failures() >= 4, "all devices must go down");
        let report = run_cloud_sim_tuned(
            &mut c,
            &a,
            &|_| "tiny",
            &fixed_service,
            &plan,
            RecoveryPolicy {
                max_retries: 1,
                base_backoff: SimTime::from_us(5.0),
                drop_on_exhaustion: false,
            },
            DEFAULT_TRACE_CAPACITY,
            AdmissionTuning::default(),
        )
        .unwrap();
        assert!(report.accounts_for_all_arrivals());
        assert!(report.requeued > 0, "scenario must demote tasks");
        assert!(report.redeployments > 0);
        assert_eq!(report.redeployments, report.migrated);
        // The deploy-side accounting closes: first admissions (the
        // `deploys` metric) plus redeployments equal the controller's
        // lifetime deploy count. Before the fix, wave-path recoveries
        // fell through both counters.
        let mut m = report.metrics.clone();
        let deploys = m.counter("deploys");
        let redeploys = m.counter("redeployments");
        assert_eq!(
            m.counter_value(deploys) + m.counter_value(redeploys),
            c.stats().deploys,
            "deploys + redeployments must equal controller deploys"
        );
        // The second stint in the queue is measured, and the first-wait
        // summary stays one-shot per task.
        assert!(report.requeue_wait.count() > 0);
        assert!(report.requeue_wait.count() <= report.requeued);
        assert!(report.queue_wait.count() <= report.arrivals);
        let json = report.to_json().compact();
        assert!(json.contains(r#""requeue_wait_s""#), "{json}");
        assert!(json.contains(r#""redeployments""#), "{json}");
    }

    #[test]
    fn rejection_breakdown_counts_attempts_and_distinct_tasks() {
        let (cluster, db) = small_db();
        let mut c = SystemController::new(cluster, db, Policy::Baseline);
        let a = arrivals(80, 1.0);
        let report = run_cloud_sim(&mut c, &a, &|_| "tiny", &fixed_service).unwrap();
        let reason = RejectReason::InsufficientCapacity;
        // The per-task view is bounded by the workload no matter how many
        // waves found the same queued tasks blocked; before the fix only
        // the per-attempt counters existed, scaling with event count.
        let tasks = report.rejected_tasks_for(reason);
        assert!(tasks > 0);
        assert!(tasks <= report.arrivals);
        // With no faults a queued task of an instance known infeasible is
        // booked, not attempted: nothing replays the feasibility cache,
        // and every rejected attempt is a real probe.
        let stats = c.stats();
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(report.total_rejections(), stats.probes - stats.deploys);
        // The artifact names both views.
        let json = report.to_json().compact();
        assert!(json.contains(r#""rejections":{"attempts":{"#), "{json}");
        assert!(json.contains(r#""tasks":{"#), "{json}");
    }

    #[test]
    fn a_second_reason_is_booked_once_and_traced_never() {
        let (cluster, db) = small_db();
        let mut c = SystemController::new(cluster, db, Policy::Full);
        // Every configure flakes, so while `big` fits each attempt is a
        // transient fault; device failures make it infeasible in between.
        let plan = FaultPlan::generate(
            FaultPlanParams {
                mttf: SimTime::from_us(50.0),
                mttr: SimTime::from_us(400.0),
                configure_failure_prob: 1.0,
                horizon: SimTime::from_us(2000.0),
            },
            4,
            3,
        );
        let report = run_cloud_sim_tuned(
            &mut c,
            &arrivals(2, 0.0),
            &|_| "big",
            &fixed_service,
            &plan,
            RecoveryPolicy::default(),
            DEFAULT_TRACE_CAPACITY,
            AdmissionTuning::default(),
        )
        .unwrap();
        // Both tasks flaked at arrival. While devices were down, task 0's
        // probe found `big` infeasible and task 1 was blocked on that
        // known rejection: a new reason for each, so both are booked.
        let (transient, capacity) = (
            RejectReason::TransientFault,
            RejectReason::InsufficientCapacity,
        );
        assert!(report.rejections_for(capacity) > 0);
        assert!(report.rejections_for(transient) > 2);
        assert_eq!(report.rejected_tasks_for(transient), 2);
        assert_eq!(report.rejected_tasks_for(capacity), 2);
        assert_eq!(report.never_deployed, 2);
        // Only each task's first queued rejection reached the ring.
        for task in 0..2 {
            let rejected: Vec<_> = report
                .trace
                .iter()
                .filter(|e| match e.event {
                    SimEvent::Rejected(t, ..) | SimEvent::Blocked(t, _) => t == task,
                    _ => false,
                })
                .map(|e| (e.at, e.event))
                .collect();
            assert_eq!(
                rejected,
                [(SimTime::ZERO, SimEvent::Rejected(task, transient, true))]
            );
        }
    }

    #[test]
    fn span_tracing_off_changes_no_outcomes() {
        let (cluster, db) = small_db();
        let a = arrivals(60, 10.0);
        let plan = chaos_plan(2024);
        let run = |trace_spans: bool| {
            let mut c = SystemController::new(cluster.clone(), db.clone(), Policy::Full);
            run_cloud_sim_tuned(
                &mut c,
                &a,
                &|_| "tiny",
                &fixed_service,
                &plan,
                RecoveryPolicy::default(),
                DEFAULT_TRACE_CAPACITY,
                AdmissionTuning {
                    trace_spans,
                    ..AdmissionTuning::default()
                },
            )
            .unwrap()
        };
        let on = run(true);
        let off = run(false);
        assert!(off.spans.is_empty());
        assert!(off.critical_path.tasks.is_empty());
        assert!(!on.spans.is_empty());
        assert_eq!(on.completed, off.completed);
        assert_eq!(on.elapsed, off.elapsed);
        assert_eq!(on.migrated, off.migrated);
        assert_eq!(on.latency_p99, off.latency_p99);
        assert_eq!(on.rejections, off.rejections);
    }

    #[test]
    fn transient_faults_delay_but_do_not_lose_tasks() {
        let (cluster, db) = small_db();
        let mut c = SystemController::new(cluster, db, Policy::Full);
        let a = arrivals(40, 10.0);
        // Transients only: zero horizon means no hard fail/recover waves.
        let plan = FaultPlan::generate(
            FaultPlanParams {
                mttf: SimTime::from_secs(1.0),
                mttr: SimTime::from_us(50.0),
                configure_failure_prob: 0.3,
                horizon: SimTime::ZERO,
            },
            4,
            11,
        );
        assert!(plan.failures() == 0);
        let report = run_cloud_sim_tuned(
            &mut c,
            &a,
            &|_| "tiny",
            &fixed_service,
            &plan,
            RecoveryPolicy::default(),
            DEFAULT_TRACE_CAPACITY,
            AdmissionTuning::default(),
        )
        .unwrap();
        assert_eq!(report.completed, 40, "transients only delay");
        assert!(report.accounts_for_all_arrivals());
        assert!(
            report.rejections_for(RejectReason::TransientFault) > 0,
            "30% flake rate must surface in the breakdown"
        );
    }

    #[test]
    fn certain_transient_faults_strand_tasks_instead_of_livelocking() {
        let (cluster, db) = small_db();
        let mut c = SystemController::new(cluster, db, Policy::Full);
        let a = arrivals(70, 1.0);
        // Every configure flakes, so no attempt can ever succeed.
        let plan = FaultPlan::generate(
            FaultPlanParams {
                mttf: SimTime::from_secs(1.0),
                mttr: SimTime::from_us(50.0),
                configure_failure_prob: 1.0,
                horizon: SimTime::ZERO,
            },
            4,
            3,
        );
        let report = run_cloud_sim_tuned(
            &mut c,
            &a,
            &|_| "tiny",
            &fixed_service,
            &plan,
            RecoveryPolicy::default(),
            DEFAULT_TRACE_CAPACITY,
            AdmissionTuning::default(),
        )
        .unwrap();
        assert_eq!(report.completed, 0);
        assert_eq!(report.never_deployed, 70);
        assert!(report.accounts_for_all_arrivals());
        // The nudge fired exactly up to its bound past the last arrival.
        let last_arrival = a.last().unwrap().at;
        let nudged_until = last_arrival
            .checked_add(SimTime::from_ps(
                RecoveryPolicy::default().base_backoff.as_ps() * MAX_IDLE_NUDGES as u64,
            ))
            .unwrap();
        assert_eq!(
            report.spans.spans().iter().map(|s| s.end).max(),
            Some(Some(nudged_until))
        );
    }

    #[test]
    fn retry_nudge_saturates_at_the_end_of_time() {
        let (cluster, db) = small_db();
        let mut c = SystemController::new(cluster, db, Policy::Full);
        let plan = FaultPlan::generate(
            FaultPlanParams {
                mttf: SimTime::from_secs(1.0),
                mttr: SimTime::from_us(50.0),
                configure_failure_prob: 1.0,
                horizon: SimTime::ZERO,
            },
            4,
            3,
        );
        // A nudge `SimTime::MAX` after an arrival lies past the end of
        // time; it must fire at the end of time, not overflow.
        let recovery = RecoveryPolicy {
            base_backoff: SimTime::MAX,
            ..RecoveryPolicy::default()
        };
        let report = run_cloud_sim_tuned(
            &mut c,
            &arrivals(3, 1.0),
            &|_| "tiny",
            &fixed_service,
            &plan,
            recovery,
            DEFAULT_TRACE_CAPACITY,
            AdmissionTuning::default(),
        )
        .unwrap();
        assert_eq!(report.never_deployed, 3);
        assert!(report.accounts_for_all_arrivals());
    }

    #[test]
    fn waves_examine_only_the_positions_whose_outcome_can_change() {
        let (cluster, db) = small_db();
        let mut c = SystemController::new(cluster, db, Policy::Full);
        // A two-instance backlog far past the scan window.
        let a = tiny_and_big(600);
        EXAMINED.with(|n| n.set(0));
        let report = run_cloud_sim(&mut c, &a, &tiny_or_big, &fixed_service).unwrap();
        let examined = EXAMINED.with(|n| n.get());
        assert_eq!(report.completed, a.len() as u64);
        assert!(report.peak_queue_depth > 8 * SCAN_WINDOW as u64);
        // Every examined position is a probe or a task's first booking for
        // a reason: 1,380 probes and 415 blocked bookings. Walking the
        // whole window on every capacity change examined 36,725 positions
        // here, about 61 per completion, with the same probes.
        let stats = c.stats();
        assert_eq!((stats.probes, stats.deploys), (1380, 600));
        assert!(examined <= stats.probes + a.len() as u64);
        assert_eq!(examined, 1795);
    }

    #[test]
    fn a_rolled_back_fault_moves_the_epoch_mid_wave() {
        // A multi-unit placement whose later unit flakes releases the
        // units already configured, which opens a new capacity epoch in
        // the middle of a wave: the window positions behind it whose
        // instance was known rejected must be probed again. Skipping them
        // would lose one probe and one rejected attempt at each seed.
        for (seed, probes, rejections) in [(3, 1263, 863), (7, 1279, 879)] {
            let (cluster, db) = small_db();
            let mut c = SystemController::new(cluster, db, Policy::Full);
            let a = tiny_and_big(400);
            let plan = FaultPlan::generate(
                FaultPlanParams {
                    mttf: SimTime::from_secs(1.0),
                    mttr: SimTime::from_us(50.0),
                    configure_failure_prob: 0.3,
                    horizon: SimTime::ZERO,
                },
                4,
                seed,
            );
            let report = run_cloud_sim_tuned(
                &mut c,
                &a,
                &tiny_or_big,
                &fixed_service,
                &plan,
                RecoveryPolicy::default(),
                DEFAULT_TRACE_CAPACITY,
                AdmissionTuning::default(),
            )
            .unwrap();
            assert_eq!(report.completed, a.len() as u64);
            assert_eq!(
                (c.stats().probes, report.total_rejections()),
                (probes, rejections)
            );
        }
    }

    #[test]
    fn instance_for_runs_once_per_arrival() {
        use std::cell::Cell;

        let (cluster, db) = small_db();
        let mut c = SystemController::new(cluster, db, Policy::Full);
        let a = tiny_and_big(300);
        let calls = Cell::new(0usize);
        let instance_for = |t: &RnnTask| {
            calls.set(calls.get() + 1);
            if t.hidden == 512 {
                "tiny"
            } else {
                "big"
            }
        };
        let report = run_cloud_sim_tuned(
            &mut c,
            &a,
            &instance_for,
            &fixed_service,
            &FaultPlan::none(),
            RecoveryPolicy::default(),
            DEFAULT_TRACE_CAPACITY,
            monitored_tuning(),
        )
        .unwrap();
        assert_eq!(calls.get(), a.len());
        // Saturated: the backlog outgrew the scan window and most attempts
        // were rejections, so per-attempt naming would have shown.
        assert!(report.peak_queue_depth > SCAN_WINDOW as u64);
        assert!(report.total_rejections() > a.len() as u64);
        assert_eq!(report.completed, a.len() as u64);
        // Spans and the monitor still see each task's name.
        let named = |name: &str| {
            report
                .spans
                .spans()
                .iter()
                .filter(|s| s.name == "task" && s.attr_is("instance", name))
                .count()
        };
        assert_eq!((named("tiny"), named("big")), (150, 150));
        let monitor = report.monitor.as_ref().expect("monitor section");
        let tenants = monitor.to_json().pretty();
        assert!(tenants.contains("tiny") && tenants.contains("big"));
    }

    #[test]
    fn unknown_instances_fail_on_arrival() {
        let (cluster, db) = small_db();
        let mut c = SystemController::new(cluster, db, Policy::Full);
        let a = arrivals(3, 10.0);
        let err = run_cloud_sim(&mut c, &a, &|_| "ghost", &fixed_service);
        assert!(matches!(err, Err(RuntimeError::UnknownInstance(name)) if name == "ghost"));
        assert_eq!(
            c.stats().probes + c.stats().cache_hits,
            0,
            "no attempt was made"
        );
    }

    /// Service that improves with parallel units — the shape promotion
    /// exists for (e.g. a weight set that stops streaming once spread).
    fn scaling_service(_t: &RnnTask, d: &Deployment) -> SimTime {
        SimTime::from_us(100.0 / d.num_units() as f64)
    }

    fn elastic_run(
        cluster: &vfpga_fabric::Cluster,
        db: &MappingDatabase,
        a: &[TaskArrival],
        elasticity: ElasticityPolicy,
    ) -> CloudReport {
        let mut c = SystemController::new(cluster.clone(), db.clone(), Policy::Full);
        run_cloud_sim_tuned(
            &mut c,
            a,
            &|_| "tiny",
            &scaling_service,
            &FaultPlan::none(),
            RecoveryPolicy::default(),
            DEFAULT_TRACE_CAPACITY,
            AdmissionTuning {
                elasticity,
                ..AdmissionTuning::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn promotion_grows_idle_deployments_and_shortens_service() {
        let (cluster, db) = small_db();
        // Sparse arrivals: the cluster is idle around every task, so each
        // deployment should be promoted off its greedy 1-unit placement.
        let a = arrivals(4, 300.0);
        let on = elastic_run(
            &cluster,
            &db,
            &a,
            ElasticityPolicy {
                promote: true,
                preempt: false,
            },
        );
        let off = elastic_run(&cluster, &db, &a, ElasticityPolicy::DISABLED);
        assert!(on.accounts_for_all_arrivals());
        assert_eq!(on.completed, 4);
        assert!(on.promotions >= 1, "idle capacity must trigger promotion");
        assert!(on.units_gained >= 1);
        assert_eq!(on.preemptions, 0, "promote-only policy never preempts");
        assert!(
            on.latency.mean() < off.latency.mean(),
            "promotion must shorten service: {} vs {}",
            on.latency.mean(),
            off.latency.mean()
        );
        assert!(on.promotion_saved.count() >= 1);
        assert!(on.promotion_saved.min().unwrap_or(0.0) > 0.0);
    }

    #[test]
    fn preemption_reclaims_promoted_capacity_for_queued_work() {
        let (cluster, db) = small_db();
        // A lone early task gets promoted into the idle cluster; a burst
        // then piles up behind it, which preemption must relieve.
        let mut a = arrivals(1, 0.0);
        for _ in 0..40 {
            a.push(TaskArrival {
                at: SimTime::from_us(10.0),
                task: RnnTask::new(RnnKind::Lstm, 512, 5),
            });
        }
        let on = elastic_run(&cluster, &db, &a, ElasticityPolicy::FULL);
        assert!(on.accounts_for_all_arrivals());
        assert_eq!(on.completed, a.len() as u64);
        assert!(on.promotions >= 1, "the early task must be promoted");
        assert!(
            on.preemptions >= 1,
            "the burst must claw promoted units back"
        );
        assert!(on.units_lost >= 1);
        assert!(on.preemption_added.count() >= 1);
    }

    #[test]
    fn elasticity_off_is_identical_to_default_tuning() {
        let (cluster, db) = small_db();
        let a = arrivals(60, 2.0);
        let explicit = elastic_run(&cluster, &db, &a, ElasticityPolicy::DISABLED);
        let mut c = SystemController::new(cluster.clone(), db.clone(), Policy::Full);
        let default = run_cloud_sim_tuned(
            &mut c,
            &a,
            &|_| "tiny",
            &scaling_service,
            &FaultPlan::none(),
            RecoveryPolicy::default(),
            DEFAULT_TRACE_CAPACITY,
            AdmissionTuning::default(),
        )
        .unwrap();
        assert_eq!(default.promotions, 0);
        assert_eq!(default.preemptions, 0);
        assert_eq!(
            explicit.to_json().pretty(),
            default.to_json().pretty(),
            "default tuning must mean elasticity off, byte for byte"
        );
    }

    fn link_chaos_params() -> LinkFaultParams {
        LinkFaultParams {
            mttf: SimTime::from_us(150.0),
            mttr: SimTime::from_us(60.0),
            degraded_fraction: 0.5,
            bandwidth_factor: 0.25,
            extra_latency: SimTime::from_ns(250.0),
            corruption_prob: 0.4,
            max_retransmits: 3,
            retransmit_backoff: SimTime::from_ns(200.0),
            horizon: SimTime::from_us(800.0),
        }
    }

    /// One transition per ring segment at `at`, all of the same kind.
    fn all_segments(at: SimTime, kind: LinkFaultKind) -> Vec<LinkFaultEvent> {
        (0..4)
            .map(|link| LinkFaultEvent { at, link, kind })
            .collect()
    }

    fn faulted_run(
        cluster: &vfpga_fabric::Cluster,
        db: &MappingDatabase,
        a: &[TaskArrival],
        instance: &'static str,
        plan: &FaultPlan,
    ) -> CloudReport {
        let mut c = SystemController::new(cluster.clone(), db.clone(), Policy::Full);
        let report = run_cloud_sim_tuned(
            &mut c,
            a,
            &|_| instance,
            &fixed_service,
            plan,
            RecoveryPolicy::default(),
            DEFAULT_TRACE_CAPACITY,
            AdmissionTuning::default(),
        )
        .unwrap();
        assert_eq!(c.live_deployments(), 0, "everything released at the end");
        report
    }

    #[test]
    fn irrelevant_link_schedules_change_nothing() {
        let (cluster, db) = small_db();
        let a = arrivals(60, 2.0);
        let base = faulted_run(&cluster, &db, &a, "big", &chaos_plan(7));
        // Link events beyond the ring's segment count are ignored, like
        // out-of-range device indices; only the (all-zero) report block
        // betrays that the plan covered links at all.
        let mut lp = link_chaos_params();
        lp.corruption_prob = 0.0;
        let out_of_range = chaos_plan(7).with_link_schedule(
            lp,
            9,
            vec![
                LinkFaultEvent {
                    at: SimTime::from_us(10.0),
                    link: 7,
                    kind: LinkFaultKind::Failed,
                },
                LinkFaultEvent {
                    at: SimTime::from_us(90.0),
                    link: 7,
                    kind: LinkFaultKind::Recovered,
                },
            ],
        );
        let alt = faulted_run(&cluster, &db, &a, "big", &out_of_range);
        assert_eq!(alt.link_failures, 0);
        assert_eq!(alt.link_retransmits, 0);
        assert_eq!(alt.completed, base.completed);
        assert_eq!(alt.elapsed, base.elapsed);
        assert_eq!(alt.trace.len(), base.trace.len());
        // Device-only plans serialize without any link block at all.
        assert!(!base.link_faults_planned);
        assert!(!base.to_json().compact().contains(r#""links""#));
        assert!(alt.link_faults_planned);
        assert!(alt
            .to_json()
            .compact()
            .contains(r#""bytes_retransmitted":0"#));
    }

    #[test]
    fn link_events_outside_the_plans_coverage_are_ignored() {
        let (cluster, db) = small_db();
        let a = arrivals(40, 1.0);
        // A schedule on segments the plan says it does not cover: it has
        // no link metrics and no `links` block to explain interruptions,
        // so it must not sever or reroute anything.
        let uncovered = FaultPlan::none().with_link_schedule(
            link_chaos_params(),
            0,
            all_segments(SimTime::from_us(150.0), LinkFaultKind::Failed),
        );
        let report = faulted_run(&cluster, &db, &a, "big", &uncovered);
        let base = faulted_run(&cluster, &db, &a, "big", &FaultPlan::none());
        assert_eq!(report.link_failures, 0);
        assert_eq!(report.to_json().pretty(), base.to_json().pretty());
    }

    #[test]
    fn all_segments_failing_severs_multi_device_deployments() {
        let (cluster, db) = small_db();
        // Saturate with the big instance so placements spill across FPGAs,
        // then take the whole ring down mid-stream: every multi-device
        // deployment loses its inter-unit paths and must migrate.
        let a = arrivals(40, 1.0);
        let mut lp = link_chaos_params();
        lp.corruption_prob = 0.0;
        let mut events = all_segments(SimTime::from_us(150.0), LinkFaultKind::Failed);
        events.extend(all_segments(
            SimTime::from_us(400.0),
            LinkFaultKind::Recovered,
        ));
        let plan = FaultPlan::none().with_link_schedule(lp, 4, events);
        assert!(plan.has_link_faults());
        let report = faulted_run(&cluster, &db, &a, "big", &plan);
        assert!(report.accounts_for_all_arrivals());
        assert_eq!(report.link_failures, 4);
        assert_eq!(report.link_recoveries, 4);
        assert_eq!(report.device_failures, 0);
        assert!(
            report.link_severed > 0,
            "the whole ring down must sever some multi-FPGA deployment"
        );
        // Link severs are the only interruption source in this run, and
        // they recover through the ordinary migration machinery.
        assert_eq!(report.interrupted, report.link_severed);
        assert!(report.migrated > 0);
        assert!(report.link_degraded_time > SimTime::ZERO);
        let labels: std::collections::BTreeSet<&str> =
            report.trace.iter().map(|e| e.event.label()).collect();
        for expect in ["link_failed", "link_recovered", "migration_started"] {
            assert!(labels.contains(expect), "missing {expect} in {labels:?}");
        }
    }

    #[test]
    fn degraded_links_corrupt_and_retransmit_under_budget() {
        let (cluster, db) = small_db();
        let a = arrivals(40, 1.0);
        // Certain corruption: every burst runs to the retransmission
        // budget, making the counters exact multiples of it.
        let mut lp = link_chaos_params();
        lp.corruption_prob = 1.0;
        let mut events = all_segments(SimTime::from_us(150.0), LinkFaultKind::Degraded);
        events.extend(all_segments(
            SimTime::from_us(400.0),
            LinkFaultKind::Recovered,
        ));
        let plan = FaultPlan::none().with_link_schedule(lp, 4, events);
        let report = faulted_run(&cluster, &db, &a, "big", &plan);
        assert!(report.accounts_for_all_arrivals());
        assert_eq!(report.link_degradations, 4);
        assert_eq!(report.link_severed, 0, "degradation never interrupts");
        assert_eq!(report.interrupted, 0);
        assert!(
            report.link_retransmits > 0,
            "deployments routed over degraded segments must retransmit"
        );
        assert_eq!(
            report.link_retransmits % u64::from(lp.max_retransmits),
            0,
            "certain corruption exhausts the budget each burst"
        );
        // Degraded from 150us to 400us exactly.
        assert!(report.link_degraded_time >= SimTime::from_us(249.0));
        let labels: std::collections::BTreeSet<&str> =
            report.trace.iter().map(|e| e.event.label()).collect();
        for expect in ["link_degraded", "retransmit"] {
            assert!(labels.contains(expect), "missing {expect} in {labels:?}");
        }
    }

    #[test]
    fn link_chaos_runs_are_byte_identical_and_bytes_reconcile() {
        let (cluster, db) = small_db();
        let a = arrivals(60, 2.0);
        let plan = chaos_plan(42).with_link_faults(link_chaos_params(), 4);
        assert!(plan.has_link_faults());
        let r1 = faulted_run(&cluster, &db, &a, "big", &plan);
        let r2 = faulted_run(&cluster, &db, &a, "big", &plan);
        assert_eq!(r1.to_json().pretty(), r2.to_json().pretty());
        assert!(r1.accounts_for_all_arrivals());
        // With no trace evictions, the Retransmit events' bytes sum to
        // exactly the report counter.
        assert_eq!(r1.trace.dropped(), 0);
        let traced: u64 = r1
            .trace
            .iter()
            .filter_map(|e| match e.event {
                SimEvent::Retransmit(.., bytes) => Some(bytes),
                _ => None,
            })
            .sum();
        assert_eq!(traced, r1.link_retransmit_bytes);
    }

    fn monitored_tuning() -> AdmissionTuning {
        let mut spec = vfpga_sim::SloSpec::latency("p95-latency", 0.95, SimTime::from_us(150.0));
        spec.fast_windows = 3;
        spec.slow_windows = 8;
        AdmissionTuning {
            monitor: MonitorConfig::enabled(SimTime::from_us(50.0), vec![spec]),
            ..AdmissionTuning::default()
        }
    }

    fn monitored_run(plan: &FaultPlan, tuning: AdmissionTuning) -> CloudReport {
        let (cluster, db) = small_db();
        let mut c = SystemController::new(cluster, db, Policy::Full);
        let a = arrivals(60, 10.0);
        run_cloud_sim_tuned(
            &mut c,
            &a,
            &|_| "tiny",
            &fixed_service,
            plan,
            RecoveryPolicy::default(),
            DEFAULT_TRACE_CAPACITY,
            tuning,
        )
        .unwrap()
    }

    #[test]
    fn monitor_off_emits_no_section() {
        let report = monitored_run(&FaultPlan::none(), AdmissionTuning::default());
        assert!(report.monitor.is_none());
        assert!(!report.to_json().pretty().contains("\"monitor\""));
    }

    #[test]
    fn monitor_rollups_reconcile_with_report_counters() {
        let report = monitored_run(&chaos_plan(7), monitored_tuning());
        let monitor = report.monitor.as_ref().expect("monitor section present");
        // Cluster-keyed rollup counters sum to the report's totals.
        let whole = monitor
            .rollups
            .merged(u64::MAX / monitor.rollups.window().as_ps());
        let cluster = whole.series_for(&vfpga_sim::RollupKey::Cluster);
        assert_eq!(cluster.len(), 1);
        assert_eq!(cluster[0].1.arrivals, report.arrivals);
        assert_eq!(cluster[0].1.completions, report.completed);
        assert_eq!(cluster[0].1.latency.count(), report.completed);
        assert_eq!(cluster[0].1.migrations, report.interrupted);
        // The tenant key mirrors the cluster in a single-instance run.
        let tenant = whole.series_for(&vfpga_sim::RollupKey::Tenant("tiny".into()));
        assert_eq!(tenant[0].1.completions, report.completed);
        // Sketch quantiles track the exact tail within the configured
        // relative error.
        let alpha = monitor.rollups.alpha();
        for (q, exact) in [(0.5, report.latency_p50), (0.95, report.latency_p95)] {
            let sk = cluster[0].1.latency.quantile_secs(q).unwrap();
            let exact = exact.unwrap();
            assert!(
                (sk - exact).abs() <= alpha * exact + 1e-12,
                "q{q}: sketch {sk} vs exact {exact}"
            );
        }
        // SLO outcomes exist for every latency-bearing key and the section
        // serializes into the artifact.
        assert!(!monitor.outcomes.is_empty());
        let text = report.to_json().pretty();
        assert!(text.contains("\"monitor\""), "{text}");
        assert!(text.contains("\"slo\": \"p95-latency\""), "{text}");
        // The exposition carries the rollup families.
        assert!(monitor
            .prometheus_text()
            .contains("vfpga_rollup_completions{key=\"cluster\"}"));
    }

    #[test]
    fn monitored_chaos_runs_are_byte_identical() {
        let plan = chaos_plan(42).with_link_faults(link_chaos_params(), 4);
        let r1 = monitored_run(&plan, monitored_tuning());
        let r2 = monitored_run(&plan, monitored_tuning());
        assert_eq!(r1.to_json().pretty(), r2.to_json().pretty());
        // Link-labeled gauge families render once per family with one
        // sample line per segment.
        let prom = vfpga_sim::prometheus_text(&r1.metrics);
        assert_eq!(prom.matches("# TYPE vfpga_link_state gauge").count(), 1);
        assert!(prom.contains("vfpga_link_state{segment=\"0\"}"), "{prom}");
        assert!(prom.contains("# HELP link_retransmits"), "{prom}");
    }

    #[test]
    fn monitor_marks_windows_truncated_when_trace_overflows() {
        let (cluster, db) = small_db();
        let mut c = SystemController::new(cluster, db, Policy::Full);
        let a = arrivals(60, 10.0);
        // A tiny ring guarantees drops; the early windows predate its
        // oldest retained event and must be flagged.
        let report = run_cloud_sim_tuned(
            &mut c,
            &a,
            &|_| "tiny",
            &fixed_service,
            &FaultPlan::none(),
            RecoveryPolicy::default(),
            8,
            monitored_tuning(),
        )
        .unwrap();
        assert!(report.trace.dropped() > 0);
        let monitor = report.monitor.as_ref().unwrap();
        assert!(monitor.truncated_windows > 0);
        assert!(report.to_json().pretty().contains("\"truncated\": true"));
    }
}
