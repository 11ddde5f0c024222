//! Discrete-event simulation of the cluster serving a workload set,
//! optionally under an injected fault plan (device fail/recover waves and
//! flaky partial reconfiguration).

use std::collections::{HashMap, VecDeque};

use vfpga_fabric::DeviceId;
use vfpga_sim::{
    CounterId, CriticalPath, EventQueue, FaultPlan, GaugeId, Json, LinkFaultKind, MetricsRegistry,
    RetransmitPolicy, Rng, SimTime, SpanId, SpanTracer, Summary, TimeSeries, TimerId,
    TraceEventKind, TraceId, TraceRing, CONTROL_TID,
};
use vfpga_workload::{RnnTask, TaskArrival};

use crate::controller::{Deployment, InstanceId, RejectReason, ScaleDown, SystemController};
use crate::monitor::{MonitorConfig, MonitorReport, RunMonitor};
use crate::RuntimeError;

/// Default capacity of the scheduler-event trace ring kept by
/// [`run_cloud_sim`]. Sized so a full Fig. 12 workload set traces without
/// evictions while bounding memory for longer runs.
pub const DEFAULT_TRACE_CAPACITY: usize = 8192;

/// How many queued tasks one admission wave scans. Bounded so a deep
/// backlog keeps arrival order roughly fair without making every wave
/// O(queue).
const SCAN_WINDOW: usize = 64;

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
        let shift = attempt.min(32);
        SimTime::from_ps(self.base_backoff.as_ps().saturating_mul(1u64 << shift))
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
    /// Rejected deployment attempts, indexed by
    /// [`RejectReason::index`]; one task retried many times counts each
    /// attempt, so under saturation this scales with how often the
    /// scheduler re-probed, not with the workload. The per-task view is
    /// [`rejected_tasks`](CloudReport::rejected_tasks).
    pub rejections: [u64; 4],
    /// Distinct tasks rejected at least once per reason, indexed by
    /// [`RejectReason::index`]; a task counts once per reason no matter
    /// how many waves re-attempted it.
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
    /// The most recent scheduler events (ring buffer).
    pub trace: TraceRing,
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

    /// Serializes the report (without raw trace events; those stay
    /// available programmatically via [`CloudReport::trace`]).
    pub fn to_json(&self) -> Json {
        fn summary(s: &Summary) -> Json {
            Json::obj()
                .with("count", s.count())
                .with("mean", s.mean())
                .with("min", s.min())
                .with("max", s.max())
        }
        let mut attempts = Json::obj();
        let mut tasks = Json::obj();
        for reason in RejectReason::ALL {
            attempts = attempts.with(reason.as_str(), self.rejections_for(reason));
            tasks = tasks.with(reason.as_str(), self.rejected_tasks_for(reason));
        }
        let rejections = Json::obj().with("attempts", attempts).with("tasks", tasks);
        let mut json = Json::obj()
            .with("arrivals", self.arrivals)
            .with("completed", self.completed)
            .with("never_deployed", self.never_deployed)
            .with("lost", self.lost)
            .with("elapsed_s", self.elapsed.as_secs())
            .with("throughput_per_s", self.throughput_per_s)
            .with(
                "latency_s",
                Json::obj()
                    .with("count", self.latency.count())
                    .with("mean", self.latency.mean())
                    .with("p50", self.latency_p50)
                    .with("p95", self.latency_p95)
                    .with("p99", self.latency_p99)
                    .with("min", self.latency.min())
                    .with("max", self.latency.max()),
            )
            .with("queue_wait_s", summary(&self.queue_wait))
            .with("requeue_wait_s", summary(&self.requeue_wait))
            .with("occupancy", {
                let mut occ = Json::obj()
                    .with("mean", self.mean_occupancy)
                    .with("peak", self.peak_occupancy)
                    .with("series", self.occupancy_series.to_json());
                // Downsampling accounting appears only when the point cap
                // actually folded samples, so short runs serialize exactly
                // as they did before the cap existed.
                if self.occupancy_series.points_folded() > 0 {
                    occ = occ
                        .with("points_kept", self.occupancy_series.points_kept() as u64)
                        .with("points_folded", self.occupancy_series.points_folded());
                }
                occ
            })
            .with("queue_depth", {
                let mut qd = Json::obj()
                    .with("peak", self.peak_queue_depth)
                    .with("series", self.queue_depth_series.to_json());
                if self.queue_depth_series.points_folded() > 0 {
                    qd = qd
                        .with("points_kept", self.queue_depth_series.points_kept() as u64)
                        .with("points_folded", self.queue_depth_series.points_folded());
                }
                qd
            })
            .with("rejections", rejections)
            .with(
                "recovery",
                Json::obj()
                    .with("device_failures", self.device_failures)
                    .with("device_recoveries", self.device_recoveries)
                    .with("interrupted", self.interrupted)
                    .with("migrated", self.migrated)
                    .with("redeployments", self.redeployments)
                    .with("requeued", self.requeued)
                    .with("lost", self.lost)
                    .with("scale_down_redeployments", self.scale_down_redeployments)
                    .with("mean_time_to_recovery_s", self.mean_time_to_recovery_s())
                    .with("degraded_time_s", self.degraded_time.as_secs())
                    .with("degraded_mean_occupancy", self.degraded_mean_occupancy),
            );
        if self.link_faults_planned {
            json = json.with(
                "links",
                Json::obj()
                    .with("failures", self.link_failures)
                    .with("degradations", self.link_degradations)
                    .with("recoveries", self.link_recoveries)
                    .with("retransmits", self.link_retransmits)
                    .with("bytes_retransmitted", self.link_retransmit_bytes)
                    .with("reroutes", self.link_reroutes)
                    .with("severed", self.link_severed)
                    .with("degraded_time_s", self.link_degraded_time.as_secs()),
            );
        }
        json = json.with(
            "elasticity",
            Json::obj()
                .with("promotions", self.promotions)
                .with("preemptions", self.preemptions)
                .with("units_gained", self.units_gained)
                .with("units_lost", self.units_lost)
                .with("promotion_saved_s", summary(&self.promotion_saved))
                .with("preemption_added_s", summary(&self.preemption_added)),
        );
        if let Some(monitor) = &self.monitor {
            json = json.with("monitor", monitor.to_json());
        }
        json.with(
            "trace",
            Json::obj()
                .with("retained", self.trace.len())
                .with("dropped", self.trace.dropped()),
        )
        .with("spans", self.spans.len())
        .with("critical_path", self.critical_path.to_json())
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
///   serving a task — the deployment catalog is sized per model class. It
///   is called once per arrival, where the name is interned; an unknown
///   name fails the run at that arrival.
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
    instance_for: &dyn Fn(&RnnTask) -> String,
    service_time: &dyn Fn(&RnnTask, &Deployment) -> SimTime,
) -> Result<CloudReport, RuntimeError> {
    run_cloud_sim_faulted(
        controller,
        arrivals,
        instance_for,
        service_time,
        &FaultPlan::none(),
        RecoveryPolicy::default(),
        DEFAULT_TRACE_CAPACITY,
    )
}

/// [`run_cloud_sim`] interleaving the workload with a fault plan's device
/// fail/recover waves — and, when the plan carries them, its ring-segment
/// link waves — recovering interrupted deployments per `recovery`, with
/// an explicit trace-ring capacity.
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
pub fn run_cloud_sim_faulted(
    controller: &mut SystemController,
    arrivals: &[TaskArrival],
    instance_for: &dyn Fn(&RnnTask) -> String,
    service_time: &dyn Fn(&RnnTask, &Deployment) -> SimTime,
    faults: &FaultPlan,
    recovery: RecoveryPolicy,
    trace_capacity: usize,
) -> Result<CloudReport, RuntimeError> {
    run_cloud_sim_tuned(
        controller,
        arrivals,
        instance_for,
        service_time,
        faults,
        recovery,
        trace_capacity,
        AdmissionTuning::default(),
    )
}

/// [`run_cloud_sim_faulted`] with explicit [`AdmissionTuning`]: span
/// recording, elasticity and streaming telemetry.
///
/// # Errors
///
/// Propagates controller errors ([`RuntimeError::UnknownInstance`] etc.).
#[allow(clippy::too_many_arguments)]
pub fn run_cloud_sim_tuned(
    controller: &mut SystemController,
    arrivals: &[TaskArrival],
    instance_for: &dyn Fn(&RnnTask) -> String,
    service_time: &dyn Fn(&RnnTask, &Deployment) -> SimTime,
    faults: &FaultPlan,
    recovery: RecoveryPolicy,
    trace_capacity: usize,
    tuning: AdmissionTuning,
) -> Result<CloudReport, RuntimeError> {
    let mut sim = CloudSim::new(
        controller,
        arrivals,
        instance_for,
        service_time,
        faults,
        recovery,
        trace_capacity,
        tuning,
    );
    sim.run()?;
    Ok(sim.finish())
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

/// What interrupted a running deployment; decides only the bookkeeping
/// that differs between the three interruption paths.
#[derive(Debug, Clone, Copy)]
enum Interruption {
    /// The device at this index failed under the deployment.
    Device(usize),
    /// Failures on the ring left no path between the deployment's units;
    /// this segment's failure was the last straw.
    Link(usize),
    /// A preemptive scale-down lost every smaller variant mid-commit.
    Displaced,
}

/// The simulation state machine: one instance per run.
struct CloudSim<'a> {
    controller: &'a mut SystemController,
    arrivals: &'a [TaskArrival],
    instance_for: &'a dyn Fn(&RnnTask) -> String,
    service_time: &'a dyn Fn(&RnnTask, &Deployment) -> SimTime,
    recovery: RecoveryPolicy,
    faults: &'a FaultPlan,

    /// Each task's instance, interned once on arrival and kept as its
    /// database index ([`InstanceId::index`]); `u32::MAX` until then.
    instance: Vec<u32>,
    queue: VecDeque<usize>,
    /// Per-wave scratch reused across admission waves: which window
    /// positions admitted, the admitted tasks' deployments, and the
    /// drained window head.
    wave_admitted_at: Vec<bool>,
    wave_admitted: Vec<(usize, Deployment)>,
    wave_head: Vec<usize>,
    /// Consecutive `RetryNudge` waves that deployed nothing; the nudge
    /// stops re-arming at [`MAX_IDLE_NUDGES`].
    idle_nudges: u32,
    events: EventQueue<Event>,
    running: Vec<Option<Deployment>>,
    /// Maps a live deployment id to the task it serves.
    task_of: HashMap<u64, usize>,
    deployed_at: Vec<SimTime>,
    /// Bumped whenever a task's deployment changes or is interrupted;
    /// pending `Completion`/`MigrationRetry` events carrying an older epoch
    /// are stale and ignored.
    epoch: Vec<u64>,
    /// `Some((when, old_units))` while a task's interruption awaits
    /// redeployment.
    interrupted_pending: Vec<Option<(SimTime, u32)>>,
    /// Whether a task's first-deployment queue wait was recorded.
    waited: Vec<bool>,
    /// `Some(when)` while a task demoted after retry exhaustion waits in
    /// the admission queue (its second queue wait).
    requeued_at: Vec<Option<SimTime>>,
    traced_reject: Vec<bool>,
    /// Per-task bitmask of [`RejectReason::index`] bits already counted
    /// into `rejected_tasks`.
    reject_seen: Vec<u8>,

    last_completion: SimTime,
    rejected_tasks: [u64; 4],
    requeued: u64,
    scale_down_redeployments: u64,

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
    units_gained: u64,
    units_lost: u64,
    promotion_saved: Summary,
    preemption_added: Summary,

    /// Wave gating: `Some(epoch)` after a wave rejected every scanned
    /// task with the capacity epoch at `epoch`. While the epoch is
    /// unchanged and nothing new entered the scan window, further waves
    /// are skipped — they could only replay the same rejections.
    saturated_at: Option<u64>,

    /// Degraded-mode integration state.
    last_event_at: SimTime,
    degraded_time: SimTime,
    degraded_occ_weighted: f64,

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
    link_degraded_time: SimTime,

    metrics: MetricsRegistry,
    m: Meters,
    trace: TraceRing,

    /// Streaming telemetry collector; `Some` only when
    /// [`MonitorConfig::enabled`] was set on the tuning.
    monitor: Option<RunMonitor>,

    /// The causal span forest. Per task the phase children of its root span
    /// are kept *contiguous* — at any moment exactly one of `queue_wait`,
    /// `compute`, or `migrate` is open — so the direct children partition
    /// `[arrival, end]` and the critical-path buckets sum exactly.
    spans: SpanTracer,
    /// Each task's root `task` span; `None` once closed.
    root_span: Vec<Option<SpanId>>,
    /// Each task's currently open phase child.
    phase_span: Vec<Option<SpanId>>,
    /// An open `backoff` span (nested in `migrate`) awaiting its retry.
    backoff_span: Vec<Option<SpanId>>,
}

impl<'a> CloudSim<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        controller: &'a mut SystemController,
        arrivals: &'a [TaskArrival],
        instance_for: &'a dyn Fn(&RnnTask) -> String,
        service_time: &'a dyn Fn(&RnnTask, &Deployment) -> SimTime,
        faults: &'a FaultPlan,
        recovery: RecoveryPolicy,
        trace_capacity: usize,
        tuning: AdmissionTuning,
    ) -> Self {
        let segments = controller.cluster().ring().segments();
        let mut metrics = MetricsRegistry::new();
        metrics.describe("arrivals", "Tasks that arrived.");
        metrics.describe("deploys", "First admissions deployed.");
        metrics.describe("completions", "Tasks completed.");
        metrics.describe("latency_s", "End-to-end latency, arrival to completion.");
        metrics.describe(
            "queue_wait_s",
            "Queueing delay, arrival to first deployment.",
        );
        metrics.describe("queue_depth", "Admission queue depth.");
        metrics.describe("occupancy", "Fraction of cluster units busy.");
        metrics.describe("failed_devices", "Devices currently failed.");
        let links = (faults.links() > 0).then(|| {
            metrics.describe("link.failures", "Ring-segment hard failures injected.");
            metrics.describe("link.degradations", "Ring-segment degradations injected.");
            metrics.describe("link.recoveries", "Ring segments returned to service.");
            metrics.describe("link.retransmits", "Transfers re-sent over the ring.");
            metrics.describe(
                "link.retransmit_bytes",
                "Bytes carried by ring retransmissions.",
            );
            metrics.describe(
                "link.reroutes",
                "Deployments re-routed around a failed segment.",
            );
            metrics.describe(
                "link.severed",
                "Deployments left with no surviving ring path.",
            );
            metrics.describe(
                "vfpga_link_state",
                "Ring segment health: 0 healthy, 1 degraded, 2 failed.",
            );
            LinkMeters {
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
            }
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
        let monitor = tuning
            .monitor
            .enabled
            .then(|| RunMonitor::new(tuning.monitor.clone()));
        let n = arrivals.len();
        CloudSim {
            controller,
            arrivals,
            instance_for,
            service_time,
            recovery,
            faults,
            instance: vec![u32::MAX; n],
            queue: VecDeque::new(),
            wave_admitted_at: Vec::with_capacity(SCAN_WINDOW),
            wave_admitted: Vec::new(),
            wave_head: Vec::with_capacity(SCAN_WINDOW),
            idle_nudges: 0,
            events: EventQueue::new(),
            running: vec![None; n],
            task_of: HashMap::new(),
            deployed_at: vec![SimTime::ZERO; n],
            epoch: vec![0; n],
            interrupted_pending: vec![None; n],
            waited: vec![false; n],
            requeued_at: vec![None; n],
            traced_reject: vec![false; n],
            reject_seen: vec![0; n],
            last_completion: SimTime::ZERO,
            rejected_tasks: [0; 4],
            requeued: 0,
            scale_down_redeployments: 0,
            elasticity: tuning.elasticity,
            service_total: vec![SimTime::ZERO; n],
            completion_at: vec![SimTime::ZERO; n],
            base_units: vec![0; n],
            last_promo_epoch: None,
            last_preempt_epoch: None,
            units_gained: 0,
            units_lost: 0,
            promotion_saved: Summary::new(),
            preemption_added: Summary::new(),
            saturated_at: None,
            last_event_at: SimTime::ZERO,
            degraded_time: SimTime::ZERO,
            degraded_occ_weighted: 0.0,
            link_failed: vec![false; segments],
            link_degraded: vec![false; segments],
            link_rng: Rng::seed_from_u64(faults.seed() ^ 0x4c49_4e4b_434f_5252),
            link_degraded_time: SimTime::ZERO,
            metrics,
            m,
            trace: TraceRing::new(trace_capacity),
            monitor,
            spans: if tuning.trace_spans {
                SpanTracer::new()
            } else {
                SpanTracer::disabled()
            },
            root_span: vec![None; n],
            phase_span: vec![None; n],
            backoff_span: vec![None; n],
        }
    }

    /// Closes the task's open phase child (if any) at `now`, keeping the
    /// phase partition contiguous.
    fn close_phase(&mut self, task_index: usize, now: SimTime) {
        if let Some(span) = self.phase_span[task_index].take() {
            self.spans.end(span, now);
        }
    }

    /// Opens a new phase child under the task's root span.
    fn open_phase(&mut self, task_index: usize, name: &'static str, now: SimTime) -> SpanId {
        debug_assert!(self.phase_span[task_index].is_none(), "phase overlap");
        let span = self.spans.begin(
            name,
            TraceId(task_index as u64),
            self.root_span[task_index],
            now,
        );
        self.phase_span[task_index] = Some(span);
        span
    }

    /// Closes an open `backoff` span (the retry it was waiting for is now
    /// happening, or the task moved on).
    fn close_backoff(&mut self, task_index: usize, now: SimTime) {
        if let Some(span) = self.backoff_span[task_index].take() {
            self.spans.end(span, now);
        }
    }

    /// Closes the task's root span with a final `outcome` attribute.
    fn close_root(&mut self, task_index: usize, outcome: &'static str, now: SimTime) {
        if let Some(span) = self.root_span[task_index].take() {
            self.spans.attr(span, "outcome", outcome);
            self.spans.end(span, now);
        }
    }

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
            self.integrate_degraded(now);
            let nudged = matches!(event, Event::RetryNudge);
            let deploys = self.controller.stats().deploys;
            match event {
                Event::Arrival(i) => {
                    self.enqueue(i);
                    self.metrics.inc(self.m.arrivals);
                    self.trace
                        .push(now, TraceEventKind::Arrival { task: i as u64 });
                    let root = self.spans.begin("task", TraceId(i as u64), None, now);
                    let instance = (self.instance_for)(&self.arrivals[i].task);
                    self.instance[i] = self.controller.instance_id(&instance)?.index();
                    if let Some(mon) = self.monitor.as_mut() {
                        mon.on_arrival(&instance, now);
                    }
                    self.spans.attr(root, "instance", instance);
                    self.root_span[i] = Some(root);
                    self.open_phase(i, "queue_wait", now);
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
                    self.metrics.inc(self.m.device_recoveries);
                    self.controller.handle_device_recovery(DeviceId(device));
                    self.trace.push(
                        now,
                        TraceEventKind::DeviceRecovered {
                            device: device as u64,
                        },
                    );
                }
                Event::LinkDegraded(seg) => self.on_link_degraded(now, seg),
                Event::LinkFailed(seg) => self.on_link_failed(now, seg)?,
                Event::LinkRecovered(seg) => self.on_link_recovered(now, seg),
                Event::MigrationRetry {
                    task_index,
                    epoch,
                    attempt,
                } => {
                    // The backoff this retry slept through is over either
                    // way (stale retries close it too, so no span leaks).
                    self.close_backoff(task_index, now);
                    if self.epoch[task_index] != epoch {
                        continue;
                    }
                    self.attempt_migration(now, task_index, attempt)?;
                }
                Event::RetryNudge => {}
            }
            // Admission gating: while the gate epoch matches, capacity can
            // only have shrunk since the last all-rejected wave and
            // nothing new entered the scan window, so the wave is skipped
            // — it would replay the identical rejections. A gate-setting
            // wave saw no transient fault, so a skipped wave also cannot
            // strand retryable work (no feasible placement means no
            // configure attempt and no injector draw).
            let gated = self.saturated_at == Some(self.controller.capacity_epoch());
            let saw_transient = if gated {
                false
            } else {
                self.admission_wave(now)?
            };
            if self.elasticity.any() {
                self.reprovision(now)?;
            }
            self.sample_gauges(now);
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
        debug_assert!(
            self.running.iter().all(Option::is_none),
            "tasks still running after the event queue drained"
        );
        Ok(())
    }

    /// Appends a task to the admission queue, clearing the saturation
    /// gate when the task lands inside the scan window: a wave that
    /// rejected everything it scanned says nothing about an instance it
    /// never probed, so the next wave must run. A task queued beyond the
    /// window cannot be scanned until the queue drains past it — which
    /// itself requires an admission, i.e. a capacity-epoch change — so
    /// the gate may stand.
    fn enqueue(&mut self, task_index: usize) {
        if self.queue.len() < SCAN_WINDOW {
            self.saturated_at = None;
        }
        self.queue.push_back(task_index);
    }

    /// Books one rejected deployment attempt: the per-attempt counters
    /// always tick; the distinct-task counter ticks once per (task,
    /// reason).
    fn record_rejection(&mut self, task_index: usize, reason: RejectReason) {
        self.metrics.inc(self.m.rejects[reason.index()]);
        let bit = 1u8 << reason.index();
        if self.reject_seen[task_index] & bit == 0 {
            self.reject_seen[task_index] |= bit;
            self.rejected_tasks[reason.index()] += 1;
        }
    }

    /// Accumulates degraded-mode time/occupancy for the interval since the
    /// previous event (cluster state is constant between events).
    fn integrate_degraded(&mut self, now: SimTime) {
        let interval = now.saturating_sub(self.last_event_at);
        if interval > SimTime::ZERO && self.controller.failed_devices() > 0 {
            self.degraded_time += interval;
            self.degraded_occ_weighted += self.controller.occupancy() * interval.as_secs();
        }
        if interval > SimTime::ZERO
            && (self.link_failed.iter().any(|&f| f) || self.link_degraded.iter().any(|&d| d))
        {
            self.link_degraded_time += interval;
        }
        self.last_event_at = now;
    }

    fn on_completion(&mut self, now: SimTime, task_index: usize) -> Result<(), RuntimeError> {
        let deployment = self.running[task_index]
            .take()
            .expect("completion for task not running");
        self.task_of.remove(&deployment.id.0);
        self.controller.release(&deployment)?;
        let e2e = now.saturating_sub(self.arrivals[task_index].at).as_secs();
        if self.monitor.is_some() {
            let tenant = self
                .controller
                .instance_name(self.instance_of(task_index))?;
            let device = deployment.placements.first().map(|p| p.device.0 as u64);
            let latency = now.saturating_sub(self.arrivals[task_index].at);
            if let Some(mon) = self.monitor.as_mut() {
                mon.on_completion(tenant, device, now, latency);
            }
        }
        self.metrics.inc(self.m.completions);
        self.metrics.inc(self.m.releases);
        self.metrics.record_timer(self.m.latency, e2e);
        self.metrics.record_timer(
            self.m.service,
            now.saturating_sub(self.deployed_at[task_index]).as_secs(),
        );
        self.trace.push(
            now,
            TraceEventKind::Completion {
                task: task_index as u64,
            },
        );
        self.trace.push(
            now,
            TraceEventKind::Release {
                task: task_index as u64,
            },
        );
        self.close_phase(task_index, now);
        self.close_root(task_index, "completed", now);
        self.last_completion = now;
        Ok(())
    }

    fn on_device_failed(&mut self, now: SimTime, device: usize) -> Result<(), RuntimeError> {
        self.metrics.inc(self.m.device_failures);
        self.trace.push(
            now,
            TraceEventKind::DeviceFailed {
                device: device as u64,
            },
        );
        let interrupted = self
            .controller
            .handle_device_failure(DeviceId(device), self.spans.ctx(TraceId::NONE, None, now));
        for id in interrupted {
            let task_index = *self
                .task_of
                .get(&id.0)
                .expect("interrupted deployment maps to a running task");
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
        let old = self.running[task_index]
            .take()
            .expect("interrupted task was running");
        self.task_of.remove(&old.id.0);
        if let Interruption::Link(_) = cause {
            // The units themselves are healthy but can no longer exchange
            // state: release the footprint explicitly (no device failure
            // evicted it).
            self.controller.release(&old)?;
            self.metrics.inc(self.m.releases);
        }
        self.epoch[task_index] += 1;
        self.metrics.inc(self.m.interrupted);
        self.interrupted_pending[task_index] = Some((now, old.num_units() as u32));
        let device = match cause {
            Interruption::Device(d) => d as u64,
            _ => old.placements.first().map_or(0, |p| p.device.0 as u64),
        };
        if let Some(mon) = self.monitor.as_mut() {
            mon.on_migration(device, now);
        }
        self.trace.push(
            now,
            TraceEventKind::MigrationStarted {
                task: task_index as u64,
                device,
            },
        );
        if let Some(phase) = self.phase_span[task_index] {
            match cause {
                Interruption::Device(d) => self.spans.attr(phase, "interrupted_by", d),
                Interruption::Link(seg) => self.spans.attr(phase, "interrupted_by_link", seg),
                Interruption::Displaced => {}
            }
        }
        self.close_phase(task_index, now);
        let migrate = self.open_phase(task_index, "migrate", now);
        match cause {
            Interruption::Link(seg) => self.spans.attr(migrate, "link", seg),
            _ => self.spans.attr(migrate, "device", device),
        }
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

    /// Books `attempts` re-sends of task `task_index`'s inter-unit state
    /// exchange over segment `seg`. One exchange of `d` puts its cut
    /// bandwidth in bits per activation on the ring, rounded up to bytes
    /// and floored at one byte so the accounting stays visible for tiny
    /// cuts.
    fn retransmit(
        &mut self,
        now: SimTime,
        task_index: usize,
        seg: usize,
        d: &Deployment,
        attempts: u32,
    ) {
        let bytes = d.cut_bandwidth.div_ceil(8).max(1) * attempts as u64;
        if let Some(lm) = self.m.links.as_ref() {
            self.metrics.add(lm.retransmits, attempts as u64);
            self.metrics.add(lm.retransmit_bytes, bytes);
        }
        if let Some(mon) = self.monitor.as_mut() {
            mon.on_retransmit(seg as u64, now, bytes);
        }
        self.trace.push(
            now,
            TraceEventKind::Retransmit {
                task: task_index as u64,
                link: seg as u64,
                attempts: attempts as u64,
                bytes,
            },
        );
    }

    /// Whether a running deployment's minimum-hop ring routes use segment
    /// `seg`: knocking out just that segment changes (or severs) some
    /// pairwise distance between its devices.
    fn crosses_segment(&self, d: &Deployment, seg: usize) -> bool {
        if d.num_devices() < 2 {
            return false;
        }
        let mut only = vec![false; self.link_failed.len()];
        only[seg] = true;
        let cluster = self.controller.cluster();
        for a in &d.placements {
            for b in &d.placements {
                let base = cluster.ring_hops(a.device, b.device);
                if cluster.ring_hops_avoiding(a.device, b.device, &only) != Some(base) {
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
        let at = self.completion_at[task_index]
            .checked_add(delay)
            .unwrap_or(SimTime::MAX);
        self.completion_at[task_index] = at;
        self.epoch[task_index] += 1;
        self.events.schedule(
            at,
            Event::Completion {
                task_index,
                epoch: self.epoch[task_index],
            },
        );
    }

    /// A ring segment drops to degraded service. Running multi-device
    /// deployments routed over it see a corruption burst: queued
    /// transfers are re-sent under the plan's bounded-backoff budget,
    /// pushing their completions out by the backoff sum.
    fn on_link_degraded(&mut self, now: SimTime, seg: usize) {
        self.link_degraded[seg] = true;
        if let Some(lm) = self.m.links.as_ref() {
            self.metrics.inc(lm.degradations);
            self.metrics.set_gauge(lm.state[seg], now, 1.0);
        }
        self.trace
            .push(now, TraceEventKind::LinkDegraded { link: seg as u64 });
        let span = self.spans.begin("link_degraded", TraceId::NONE, None, now);
        self.spans.set_lane(span, seg as u64 + 1, CONTROL_TID);
        self.spans.attr(span, "segment", seg);
        self.spans.end(span, now);
        let corruption = self.faults.corruption_prob();
        if corruption <= 0.0 {
            return;
        }
        let policy = self.retransmit_policy();
        for i in 0..self.running.len() {
            let Some(d) = self.running[i].clone() else {
                continue;
            };
            if !self.crosses_segment(&d, seg) {
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
            self.retransmit(now, i, seg, &d, attempts);
            let mut delay = SimTime::ZERO;
            for k in 0..attempts {
                delay = delay.checked_add(policy.backoff(k)).unwrap_or(SimTime::MAX);
            }
            self.delay_completion(i, delay);
        }
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
        if let Some(lm) = self.m.links.as_ref() {
            self.metrics.inc(lm.failures);
            self.metrics.set_gauge(lm.state[seg], now, 2.0);
        }
        self.trace
            .push(now, TraceEventKind::LinkFailed { link: seg as u64 });
        let span = self.spans.begin("link_failure", TraceId::NONE, None, now);
        self.spans.set_lane(span, seg as u64 + 1, CONTROL_TID);
        self.spans.attr(span, "segment", seg);
        let policy = self.retransmit_policy();
        let mut rerouted = 0u64;
        let mut severed = 0u64;
        for i in 0..self.running.len() {
            let Some(d) = self.running[i].clone() else {
                continue;
            };
            if d.num_devices() < 2 {
                continue;
            }
            match self.max_hops_avoiding(&d) {
                None => {
                    severed += 1;
                    if let Some(lm) = self.m.links.as_ref() {
                        self.metrics.inc(lm.severed);
                    }
                    self.interrupt(now, i, Interruption::Link(seg))?;
                }
                Some(hops) => {
                    if hops <= d.max_ring_hops {
                        continue;
                    }
                    rerouted += 1;
                    if let Some(lm) = self.m.links.as_ref() {
                        self.metrics.inc(lm.reroutes);
                    }
                    let extra = (hops - d.max_ring_hops) as u64;
                    self.trace.push(
                        now,
                        TraceEventKind::LinkRerouted {
                            task: i as u64,
                            link: seg as u64,
                            extra_hops: extra,
                        },
                    );
                    // The transfer caught on the dead segment is re-sent
                    // along the detour, one backoff per extra hop plus
                    // the re-send itself.
                    self.retransmit(now, i, seg, &d, 1);
                    let delay =
                        SimTime::from_ps(policy.base_backoff.as_ps().saturating_mul(extra + 1));
                    self.delay_completion(i, delay);
                    if let Some(slot) = self.running[i].as_mut() {
                        slot.max_ring_hops = hops;
                    }
                }
            }
        }
        self.spans.attr(span, "rerouted", rerouted);
        self.spans.attr(span, "severed", severed);
        self.spans.end(span, now);
        Ok(())
    }

    /// A ring segment returns to service. Detoured routes silently
    /// shorten back: each running multi-device deployment's hop count is
    /// recomputed under the remaining failures.
    fn on_link_recovered(&mut self, now: SimTime, seg: usize) {
        self.link_failed[seg] = false;
        self.link_degraded[seg] = false;
        if let Some(lm) = self.m.links.as_ref() {
            self.metrics.inc(lm.recoveries);
            self.metrics.set_gauge(lm.state[seg], now, 0.0);
        }
        self.trace
            .push(now, TraceEventKind::LinkRecovered { link: seg as u64 });
        let span = self.spans.begin("link_recovery", TraceId::NONE, None, now);
        self.spans.set_lane(span, seg as u64 + 1, CONTROL_TID);
        self.spans.attr(span, "segment", seg);
        self.spans.end(span, now);
        for i in 0..self.running.len() {
            let Some(d) = self.running[i].clone() else {
                continue;
            };
            if d.num_devices() < 2 {
                continue;
            }
            if let Some(hops) = self.max_hops_avoiding(&d) {
                if let Some(slot) = self.running[i].as_mut() {
                    slot.max_ring_hops = hops;
                }
            }
        }
    }

    /// The task's interned instance.
    fn instance_of(&self, task_index: usize) -> InstanceId {
        self.controller.instance_at(self.instance[task_index])
    }

    /// One deployment attempt for a task, from the admission queue or the
    /// migration path: the task's instance is asked of the controller
    /// under its current phase span, and a rejection is booked.
    fn place(
        &mut self,
        now: SimTime,
        task_index: usize,
    ) -> Result<Result<Deployment, RejectReason>, RuntimeError> {
        let instance = self.instance_of(task_index);
        let ctx = self
            .spans
            .ctx(TraceId(task_index as u64), self.phase_span[task_index], now);
        let outcome = self.controller.try_deploy(instance, ctx)?;
        if let Err(reason) = outcome {
            self.record_rejection(task_index, reason);
        }
        Ok(outcome)
    }

    /// One migration attempt for an interrupted task. Attempt 0 is the
    /// immediate one; subsequent attempts arrive via `MigrationRetry`.
    fn attempt_migration(
        &mut self,
        now: SimTime,
        task_index: usize,
        attempt: u32,
    ) -> Result<(), RuntimeError> {
        match self.place(now, task_index)? {
            Ok(deployment) => {
                self.complete_recovery(now, task_index, deployment);
            }
            Err(_) => {
                if attempt < self.recovery.max_retries {
                    let delay = self.recovery.backoff(attempt);
                    // The wait until the retry renders as a `backoff` span
                    // nested in the migrate phase; `MigrationRetry` closes
                    // it when it fires.
                    let span = self.spans.begin(
                        "backoff",
                        TraceId(task_index as u64),
                        self.phase_span[task_index],
                        now,
                    );
                    self.spans.attr(span, "attempt", attempt);
                    self.spans.attr(span, "delay_us", delay.as_us());
                    self.backoff_span[task_index] = Some(span);
                    self.events.schedule(
                        now.checked_add(delay).unwrap_or(SimTime::MAX),
                        Event::MigrationRetry {
                            task_index,
                            epoch: self.epoch[task_index],
                            attempt: attempt + 1,
                        },
                    );
                } else {
                    self.trace.push(
                        now,
                        TraceEventKind::RetryExhausted {
                            task: task_index as u64,
                        },
                    );
                    if self.recovery.drop_on_exhaustion {
                        self.metrics.inc(self.m.lost);
                        self.interrupted_pending[task_index] = None;
                        if let Some(span) = self.phase_span[task_index] {
                            self.spans.attr(span, "outcome", "exhausted");
                        }
                        self.close_phase(task_index, now);
                        self.close_root(task_index, "lost", now);
                    } else {
                        self.requeued += 1;
                        self.requeued_at[task_index] = Some(now);
                        self.enqueue(task_index);
                        // The task waits like a fresh arrival: the migrate
                        // phase hands over to a new queue_wait phase.
                        if let Some(span) = self.phase_span[task_index] {
                            self.spans.attr(span, "outcome", "requeued");
                        }
                        self.close_phase(task_index, now);
                        self.open_phase(task_index, "queue_wait", now);
                    }
                }
            }
        }
        Ok(())
    }

    /// Books a successful redeployment of an interrupted task (either via
    /// the migration retry path or from the admission queue after
    /// demotion).
    fn complete_recovery(&mut self, now: SimTime, task_index: usize, deployment: Deployment) {
        let (since, old_units) = self.interrupted_pending[task_index]
            .take()
            .expect("recovery completes a pending interruption");
        if let Some(requeued) = self.requeued_at[task_index].take() {
            // The task's second stint in the admission queue (demotion
            // after retry exhaustion) ends here; the one-shot `queue_wait`
            // summary covers only the first, so this wait is recorded
            // separately.
            let wait = now.saturating_sub(requeued).as_secs();
            self.metrics.record_timer(self.m.requeue_wait, wait);
        }
        let ttr = now.saturating_sub(since).as_secs();
        self.metrics.record_timer(self.m.time_to_recovery, ttr);
        self.metrics.inc(self.m.migrations);
        // This deployment served a recovery, not a first admission: the
        // `deploys` metric (and its `Deploy` trace event) never ticks for
        // it — on the wave path admission skips straight here — so the
        // deploy-side accounting has its own counter. `deploys +
        // redeployments` equals the controller's lifetime deploy count.
        self.metrics.inc(self.m.redeployments);
        if (deployment.num_units() as u32) > old_units {
            self.scale_down_redeployments += 1;
        }
        self.trace.push(
            now,
            TraceEventKind::MigrationCompleted {
                task: task_index as u64,
                units: deployment.num_units() as u32,
            },
        );
        self.start_service(now, task_index, deployment);
    }

    /// Installs a deployment for a task and schedules its completion. The
    /// service restarts from scratch (work lost at interruption is
    /// re-done), recomputed for the new deployment's shape.
    fn start_service(&mut self, now: SimTime, task_index: usize, deployment: Deployment) {
        let task = self.arrivals[task_index].task;
        let service = (self.service_time)(&task, &deployment);
        // Whatever phase led here (queue_wait or migrate) ends now.
        self.open_compute(now, task_index, &deployment);
        self.deployed_at[task_index] = now;
        self.epoch[task_index] += 1;
        self.task_of.insert(deployment.id.0, task_index);
        self.base_units[task_index] = deployment.num_units() as u32;
        self.running[task_index] = Some(deployment);
        self.service_total[task_index] = service;
        self.completion_at[task_index] = now.checked_add(service).unwrap_or(SimTime::MAX);
        self.events.schedule(
            self.completion_at[task_index],
            Event::Completion {
                task_index,
                epoch: self.epoch[task_index],
            },
        );
    }

    /// Closes the task's current phase and opens a `compute` phase for
    /// `deployment`, rendered on its first unit's device/vblock lane so
    /// Perfetto shows which FPGA slots the task occupied.
    fn open_compute(&mut self, now: SimTime, task_index: usize, deployment: &Deployment) {
        self.close_phase(task_index, now);
        let compute = self.open_phase(task_index, "compute", now);
        self.spans.attr(compute, "units", deployment.num_units());
        if let Some(p) = deployment.placements.first() {
            let slot = self
                .controller
                .allocation_slots(p.allocation)
                .and_then(|s| s.first().copied())
                .unwrap_or(0);
            self.spans
                .set_lane(compute, p.device.0 as u64 + 1, slot as u64);
        }
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
        self.running
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| {
                let d = slot.as_ref()?;
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
        let d = self.running[victim].clone().expect("victim is running");
        let from_units = d.num_units() as u32;
        let span = self.spans.begin(
            "reprovision",
            TraceId(victim as u64),
            self.phase_span[victim],
            now,
        );
        self.spans.attr(span, "kind", "preempt");
        let outcome = self
            .controller
            .demote_deployment(&d, self.spans.ctx(TraceId(victim as u64), Some(span), now))?;
        match outcome {
            ScaleDown::Demoted(nd) => {
                let to_units = nd.num_units() as u32;
                self.spans.attr(span, "outcome", "demoted");
                self.spans.attr(span, "from_units", from_units as u64);
                self.spans.attr(span, "to_units", to_units as u64);
                self.spans.end(span, now);
                self.metrics.inc(self.m.preemptions);
                self.units_lost += (from_units - to_units) as u64;
                self.trace.push(
                    now,
                    TraceEventKind::PreemptiveScaleDown {
                        task: victim as u64,
                        from_units,
                        to_units,
                    },
                );
                let (old_rem, new_rem) = self.resize_running(now, victim, nd);
                self.preemption_added
                    .record(new_rem.as_secs() - old_rem.as_secs());
                Ok(true)
            }
            ScaleDown::AlreadyMinimal => {
                self.spans.attr(span, "outcome", "kept");
                self.spans.end(span, now);
                Ok(false)
            }
            ScaleDown::Displaced => {
                // Every smaller variant flaked during commit: the victim's
                // resources are gone, so it rides the same interruption /
                // migration machinery a device failure uses (and counts
                // into the same accounting).
                self.spans.attr(span, "outcome", "displaced");
                self.spans.end(span, now);
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
        for i in 0..self.running.len() {
            let Some(d) = self.running[i].clone() else {
                continue;
            };
            if self.completion_at[i].saturating_sub(now) == SimTime::ZERO {
                continue;
            }
            let from_units = d.num_units() as u32;
            let task = self.arrivals[i].task;
            let service_time = self.service_time;
            let old_secs = self.service_total[i].as_secs();
            let mut accept =
                move |cand: &Deployment| service_time(&task, cand).as_secs() < old_secs;
            let span = self
                .spans
                .begin("reprovision", TraceId(i as u64), self.phase_span[i], now);
            self.spans.attr(span, "kind", "promote");
            let promoted = self.controller.promote_deployment(
                &d,
                &mut accept,
                self.spans.ctx(TraceId(i as u64), Some(span), now),
            )?;
            match promoted {
                Some(nd) => {
                    let to_units = nd.num_units() as u32;
                    self.spans.attr(span, "outcome", "promoted");
                    self.spans.attr(span, "from_units", from_units as u64);
                    self.spans.attr(span, "to_units", to_units as u64);
                    self.spans.end(span, now);
                    self.metrics.inc(self.m.promotions);
                    self.units_gained += (to_units - from_units) as u64;
                    self.trace.push(
                        now,
                        TraceEventKind::ScaleUp {
                            task: i as u64,
                            from_units,
                            to_units,
                        },
                    );
                    let (old_rem, new_rem) = self.resize_running(now, i, nd);
                    self.promotion_saved
                        .record(old_rem.as_secs() - new_rem.as_secs());
                }
                None => {
                    self.spans.attr(span, "outcome", "kept");
                    self.spans.end(span, now);
                }
            }
        }
        Ok(())
    }

    /// Swaps a running task onto `new_deployment` at `now`, carrying its
    /// progress over as a work fraction: the remaining time is rescaled
    /// by the ratio of the new shape's service time to the old one. The
    /// compute phase closes and reopens at the same instant so the span
    /// partition stays gapless (two compute buckets simply sum in the
    /// critical-path analysis). Returns `(old_remaining, new_remaining)`.
    fn resize_running(
        &mut self,
        now: SimTime,
        task_index: usize,
        new_deployment: Deployment,
    ) -> (SimTime, SimTime) {
        let old = self.running[task_index]
            .take()
            .expect("resized task was running");
        self.task_of.remove(&old.id.0);
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
        self.open_compute(now, task_index, &new_deployment);
        self.epoch[task_index] += 1;
        self.task_of.insert(new_deployment.id.0, task_index);
        self.running[task_index] = Some(new_deployment);
        self.service_total[task_index] = new_total;
        self.completion_at[task_index] = now.checked_add(new_remaining).unwrap_or(SimTime::MAX);
        self.events.schedule(
            self.completion_at[task_index],
            Event::Completion {
                task_index,
                epoch: self.epoch[task_index],
            },
        );
        (old_remaining, new_remaining)
    }

    /// Admits as many queued tasks as capacity allows. Tasks request
    /// deployment independently, so a blocked task does not block later
    /// tasks that fit elsewhere; the scan window stays bounded to keep
    /// arrival order roughly fair. Each wave scans the window once, then
    /// drains the window head and pushes its survivors back in order, so
    /// a wave costs O(window) however deep the backlog behind it is; waves
    /// repeat until one admits nothing.
    ///
    /// Returns whether any attempt was turned down by a transient
    /// configure fault (retryable; the caller may need to self-schedule a
    /// retry if no other event is pending).
    fn admission_wave(&mut self, now: SimTime) -> Result<bool, RuntimeError> {
        let mut saw_transient = false;
        loop {
            let window = self.queue.len().min(SCAN_WINDOW);
            let mut admitted = std::mem::take(&mut self.wave_admitted);
            self.wave_admitted_at.clear();
            for pos in 0..window {
                let idx = self.queue[pos];
                let outcome = self.place(now, idx)?;
                self.wave_admitted_at.push(outcome.is_ok());
                match outcome {
                    Ok(deployment) => admitted.push((idx, deployment)),
                    Err(reason) => {
                        saw_transient |= reason == RejectReason::TransientFault;
                        // Trace only a task's first rejection: under
                        // saturation every task is re-tried per wave and
                        // the ring would otherwise hold nothing else.
                        if !self.traced_reject[idx] {
                            self.traced_reject[idx] = true;
                            self.trace.push(
                                now,
                                TraceEventKind::DeployRejected {
                                    task: idx as u64,
                                    reason: reason.as_str(),
                                },
                            );
                        }
                    }
                }
            }
            if admitted.is_empty() {
                self.wave_admitted = admitted;
                // The wave ends with everything it scanned rejected. If no
                // rejection was transient (a transient could succeed on
                // the very next attempt), arm the gate: until the capacity
                // epoch changes or a new task enters the scan window,
                // re-running this wave is provably futile.
                if !saw_transient && !self.queue.is_empty() {
                    self.saturated_at = Some(self.controller.capacity_epoch());
                }
                return Ok(saw_transient);
            }
            self.wave_head.clear();
            self.wave_head.extend(self.queue.drain(..window));
            for (&idx, &taken) in self.wave_head.iter().zip(&self.wave_admitted_at).rev() {
                if !taken {
                    self.queue.push_front(idx);
                }
            }
            for (idx, deployment) in admitted.drain(..) {
                if self.interrupted_pending[idx].is_some() {
                    // A task demoted to the queue after exhausting its
                    // migration retries finally found capacity again.
                    self.complete_recovery(now, idx, deployment);
                    continue;
                }
                if !self.waited[idx] {
                    self.waited[idx] = true;
                    let waited = now.saturating_sub(self.arrivals[idx].at);
                    self.metrics
                        .record_timer(self.m.queue_wait, waited.as_secs());
                    if self.monitor.is_some() {
                        let tenant = self.controller.instance_name(self.instance_of(idx))?;
                        if let Some(mon) = self.monitor.as_mut() {
                            mon.on_queue_wait(tenant, now, waited);
                        }
                    }
                }
                self.metrics.inc(self.m.deploys);
                self.trace.push(
                    now,
                    TraceEventKind::Deploy {
                        task: idx as u64,
                        units: deployment.num_units() as u32,
                    },
                );
                self.start_service(now, idx, deployment);
            }
            self.wave_admitted = admitted;
        }
    }

    /// Samples the cluster state after the admission wave settles; the
    /// series coalesce repeats, and the trace records changes only.
    fn sample_gauges(&mut self, now: SimTime) {
        let depth = self.queue.len() as f64;
        if self.metrics.gauge_series(self.m.depth).last() != Some(depth) {
            self.trace.push(
                now,
                TraceEventKind::QueueDepth {
                    depth: self.queue.len() as u64,
                },
            );
        }
        self.metrics.set_gauge(self.m.depth, now, depth);
        let occupancy = self.controller.occupancy();
        if let Some(mon) = self.monitor.as_mut() {
            mon.on_occupancy(now, occupancy);
        }
        if self.metrics.gauge_series(self.m.occupancy).last() != Some(occupancy) {
            self.trace.push(
                now,
                TraceEventKind::Occupancy {
                    fraction: occupancy,
                },
            );
        }
        self.metrics.set_gauge(self.m.occupancy, now, occupancy);
        self.metrics.set_gauge(
            self.m.failed_devices,
            now,
            self.controller.failed_devices() as f64,
        );
    }

    fn finish(mut self) -> CloudReport {
        let elapsed = self.last_completion;
        let never_deployed = self.queue.len() as u64;
        // Tasks stranded in the queue when the run drained never deployed:
        // their queue_wait phase and root close at the final event time so
        // every span in the forest is complete before export.
        let last = self.last_event_at;
        let stranded: Vec<usize> = self.queue.iter().copied().collect();
        for idx in stranded {
            self.close_phase(idx, last);
            self.close_root(idx, "never_deployed", last);
        }
        debug_assert_eq!(self.spans.open_count(), 0, "span leaked past the run");
        let monitor = self.monitor.take().map(|mon| {
            // When the trace ring overflowed, rollup windows that predate
            // its oldest retained event only saw part of their stream —
            // mark them so the artifact reports lower bounds as such.
            let oldest_retained = self.trace.iter().next().map(|e| e.at);
            mon.finish(last, self.trace.dropped(), oldest_retained)
        });
        let critical_path = CriticalPath::analyze(&self.spans);
        let occupancy_series = self.metrics.gauge_series(self.m.occupancy).clone();
        let queue_depth_series = self.metrics.gauge_series(self.m.depth).clone();
        let degraded_secs = self.degraded_time.as_secs();
        let metrics = &self.metrics;
        let count = |id| metrics.counter_value(id);
        let link_count =
            |id: fn(&LinkMeters) -> CounterId| self.m.links.as_ref().map_or(0, |lm| count(id(lm)));
        let summary = |id| metrics.timer_summary(id).clone();
        let completed = count(self.m.completions);
        let report = CloudReport {
            arrivals: self.arrivals.len() as u64,
            completed,
            never_deployed,
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
            rejected_tasks: self.rejected_tasks,
            device_failures: count(self.m.device_failures),
            device_recoveries: count(self.m.device_recoveries),
            interrupted: count(self.m.interrupted),
            migrated: count(self.m.migrations),
            redeployments: count(self.m.redeployments),
            requeued: self.requeued,
            scale_down_redeployments: self.scale_down_redeployments,
            time_to_recovery: summary(self.m.time_to_recovery),
            promotions: count(self.m.promotions),
            preemptions: count(self.m.preemptions),
            units_gained: self.units_gained,
            units_lost: self.units_lost,
            promotion_saved: self.promotion_saved,
            preemption_added: self.preemption_added,
            degraded_time: self.degraded_time,
            degraded_mean_occupancy: if degraded_secs > 0.0 {
                self.degraded_occ_weighted / degraded_secs
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
            link_degraded_time: self.link_degraded_time,
            link_faults_planned: self.faults.links() > 0,
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
    use crate::testutil::small_db;
    use vfpga_core::{MappingDatabase, MappingEntry};
    use vfpga_sim::{FaultPlanParams, LinkFaultEvent, LinkFaultParams};
    use vfpga_workload::{RnnKind, RnnTask};

    fn arrivals(n: usize, gap_us: f64) -> Vec<TaskArrival> {
        (0..n)
            .map(|i| TaskArrival {
                at: SimTime::from_us(i as f64 * gap_us),
                task: RnnTask::new(RnnKind::Lstm, 512, 5),
            })
            .collect()
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
        let report = run_cloud_sim(&mut c, &a, &|_| "tiny".to_string(), &fixed_service).unwrap();
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
        let report = run_cloud_sim(&mut c, &a, &|_| "tiny".to_string(), &fixed_service).unwrap();
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
        let b = run_cloud_sim(&mut base, &a, &|_| "tiny".to_string(), &fixed_service).unwrap();
        let mut full = SystemController::new(cluster, db, Policy::Full);
        let f = run_cloud_sim(&mut full, &a, &|_| "tiny".to_string(), &fixed_service).unwrap();
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
            run_cloud_sim(&mut c, &a, &|_| "tiny".to_string(), &fixed_service).unwrap()
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
        let report = run_cloud_sim(&mut c, &a, &|_| "tiny".to_string(), &fixed_service).unwrap();
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
        let report = run_cloud_sim(&mut c, &a, &|_| "huge".to_string(), &fixed_service).unwrap();
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
        let report = run_cloud_sim(&mut c, &[], &|_| "tiny".to_string(), &fixed_service).unwrap();
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
        let report = run_cloud_sim(&mut c, &a, &|_| "tiny".to_string(), &fixed_service).unwrap();
        // Occupancy rose and returned to zero.
        assert!(report.peak_occupancy > 0.0);
        assert_eq!(report.occupancy_series.last(), Some(0.0));
        assert!(report.mean_occupancy > 0.0);
        // The trace saw every lifecycle event kind.
        let labels: std::collections::BTreeSet<&str> =
            report.trace.iter().map(|e| e.kind.label()).collect();
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
    fn backoff_doubles_and_saturates() {
        let p = RecoveryPolicy {
            max_retries: 5,
            base_backoff: SimTime::from_us(10.0),
            drop_on_exhaustion: false,
        };
        assert_eq!(p.backoff(0), SimTime::from_us(10.0));
        assert_eq!(p.backoff(1), SimTime::from_us(20.0));
        assert_eq!(p.backoff(3), SimTime::from_us(80.0));
        // Huge attempt numbers saturate instead of overflowing.
        assert_eq!(p.backoff(u32::MAX), p.backoff(32));
    }

    #[test]
    fn chaos_run_recovers_interrupted_tasks() {
        let (cluster, db) = small_db();
        let mut c = SystemController::new(cluster, db, Policy::Full);
        let a = arrivals(60, 10.0);
        let plan = chaos_plan(2024);
        assert!(plan.failures() > 0, "plan must actually inject failures");
        let report = run_cloud_sim_faulted(
            &mut c,
            &a,
            &|_| "tiny".to_string(),
            &fixed_service,
            &plan,
            RecoveryPolicy::default(),
            DEFAULT_TRACE_CAPACITY,
        )
        .unwrap();
        assert!(report.accounts_for_all_arrivals());
        assert!(report.device_failures > 0);
        assert!(report.interrupted > 0, "failures should interrupt work");
        assert!(report.migrated > 0, "some interruption should recover");
        assert!(report.degraded_time > SimTime::ZERO);
        let labels: std::collections::BTreeSet<&str> =
            report.trace.iter().map(|e| e.kind.label()).collect();
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
            run_cloud_sim_faulted(
                &mut c,
                &a,
                &|_| "tiny".to_string(),
                &fixed_service,
                &plan,
                RecoveryPolicy::default(),
                DEFAULT_TRACE_CAPACITY,
            )
            .unwrap()
            .to_json()
            .pretty()
        };
        assert_eq!(run(), run());
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
        let report = run_cloud_sim_faulted(
            &mut c,
            &a,
            &|_| "tiny".to_string(),
            &fixed_service,
            &plan,
            RecoveryPolicy {
                max_retries: 2,
                base_backoff: SimTime::from_us(10.0),
                drop_on_exhaustion: true,
            },
            DEFAULT_TRACE_CAPACITY,
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
                    report.trace.iter().map(|e| e.kind.label()).collect();
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
        let report = run_cloud_sim_faulted(
            &mut c,
            &a,
            &|_| "tiny".to_string(),
            &fixed_service,
            &plan,
            RecoveryPolicy::default(),
            DEFAULT_TRACE_CAPACITY,
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
        let report = run_cloud_sim(&mut c, &a, &|_| "huge".to_string(), &fixed_service).unwrap();
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
        let report = run_cloud_sim_faulted(
            &mut c,
            &a,
            &|_| "tiny".to_string(),
            &fixed_service,
            &plan,
            RecoveryPolicy {
                max_retries: 1,
                base_backoff: SimTime::from_us(5.0),
                drop_on_exhaustion: false,
            },
            DEFAULT_TRACE_CAPACITY,
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
        let report = run_cloud_sim(&mut c, &a, &|_| "tiny".to_string(), &fixed_service).unwrap();
        let reason = RejectReason::InsufficientCapacity;
        // The per-task view is bounded by the workload no matter how many
        // waves re-attempted the same queued tasks; before the fix only
        // the per-attempt counters existed, scaling with event count.
        let tasks = report.rejected_tasks_for(reason);
        assert!(tasks > 0);
        assert!(tasks <= report.arrivals);
        assert!(
            report.rejections_for(reason) > tasks,
            "saturation re-attempts: {} attempts vs {} tasks",
            report.rejections_for(reason),
            tasks
        );
        for r in RejectReason::ALL {
            assert!(report.rejections_for(r) >= report.rejected_tasks_for(r));
        }
        // The artifact names both views.
        let json = report.to_json().compact();
        assert!(json.contains(r#""rejections":{"attempts":{"#), "{json}");
        assert!(json.contains(r#""tasks":{"#), "{json}");
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
                &|_| "tiny".to_string(),
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
        let report = run_cloud_sim_faulted(
            &mut c,
            &a,
            &|_| "tiny".to_string(),
            &fixed_service,
            &plan,
            RecoveryPolicy::default(),
            DEFAULT_TRACE_CAPACITY,
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
        let report = run_cloud_sim_faulted(
            &mut c,
            &a,
            &|_| "tiny".to_string(),
            &fixed_service,
            &plan,
            RecoveryPolicy::default(),
            DEFAULT_TRACE_CAPACITY,
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
    fn instance_for_runs_once_per_arrival() {
        use std::cell::Cell;

        let (cluster, db) = small_db();
        let mut c = SystemController::new(cluster, db, Policy::Full);
        let a: Vec<TaskArrival> = (0..300)
            .map(|i| TaskArrival {
                at: SimTime::from_us(i as f64 * 0.5),
                task: RnnTask::new(RnnKind::Lstm, 512 + 256 * (i % 2), 5),
            })
            .collect();
        let calls = Cell::new(0usize);
        let instance_for = |t: &RnnTask| {
            calls.set(calls.get() + 1);
            if t.hidden == 512 { "tiny" } else { "big" }.to_string()
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
        let err = run_cloud_sim(&mut c, &a, &|_| "ghost".to_string(), &fixed_service);
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
            &|_| "tiny".to_string(),
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
            &|_| "tiny".to_string(),
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
        instance: &str,
        plan: &FaultPlan,
    ) -> CloudReport {
        let mut c = SystemController::new(cluster.clone(), db.clone(), Policy::Full);
        let name = instance.to_string();
        let report = run_cloud_sim_faulted(
            &mut c,
            a,
            &move |_| name.clone(),
            &fixed_service,
            plan,
            RecoveryPolicy::default(),
            DEFAULT_TRACE_CAPACITY,
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
            report.trace.iter().map(|e| e.kind.label()).collect();
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
            report.trace.iter().map(|e| e.kind.label()).collect();
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
            .filter_map(|e| match &e.kind {
                TraceEventKind::Retransmit { bytes, .. } => Some(*bytes),
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
            &|_| "tiny".to_string(),
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
            &|_| "tiny".to_string(),
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
