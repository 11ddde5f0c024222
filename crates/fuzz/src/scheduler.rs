//! Golden model of the cloud scheduler.
//!
//! [`ReferenceScheduler`] re-implements the admission, placement and
//! recovery rules of `vfpga_runtime`'s cloud simulation (DESIGN §5b–§5d)
//! the slow, obvious way. It keeps its own per-device free-slot and health
//! model, scans mapping options and devices linearly on every attempt, and
//! re-runs the admission wave after every event. It has no feasibility
//! cache, skips no known-infeasible task and has no per-type free-slot
//! pruning, so every
//! attempt it makes is a full probe — which is exactly the unoptimized
//! loop the engine's fast paths must be indistinguishable from.
//!
//! The spec it mirrors, as written:
//!
//! * **Placement.** Options are scanned in database order (ascending unit
//!   count); the first that places wins. Each unit goes best-fit to the
//!   device minimizing `(free_after, ring hops to the first unit, device)`.
//!   `Restricted` tries one device type at a time in `device_types()`
//!   order; `Baseline` skips multi-unit options and places only onto
//!   untouched whole devices. A failed device offers no slots.
//! * **Commit.** With a plan carrying a transient configure-failure
//!   probability `p`, every unit of a feasible placement draws once, in
//!   unit order, from a stream seeded `plan.seed() ^ 0x7452_414e_5349_454e`;
//!   a draw below `p` rolls the attempt back as `TransientFault`.
//! * **Admission.** After every event, a wave scans the first
//!   [`SCAN_WINDOW`] queued tasks, admits everything that places, and
//!   repeats until a wave admits nothing. A wave that saw a transient
//!   fault with nothing else pending schedules a retry nudge one base
//!   backoff later, unless [`MAX_IDLE_NUDGES`] nudges in a row have
//!   deployed nothing; then the queued tasks end as never deployed.
//! * **Recovery.** A device failure evicts every deployment with a unit on
//!   it (in deployment-id order, survivors' sibling units released first);
//!   each victim retries placement at once, then after exponential
//!   backoffs, and is finally requeued or dropped per the
//!   [`RecoveryPolicy`].
//!
//! Link faults and elasticity are outside the model.

use std::collections::{BTreeMap, VecDeque};

use vfpga_core::{DeploymentOption, MappingDatabase};
use vfpga_fabric::{Cluster, DeviceId};
use vfpga_runtime::{
    CloudReport, Deployment, DeploymentId, Placement, Policy, RecoveryPolicy, RejectReason,
};
use vfpga_sim::{EventQueue, FaultPlan, Rng, SimTime, SpanValue, Summary};
use vfpga_workload::{RnnTask, TaskArrival};

/// Queued tasks one admission wave scans.
pub(crate) const SCAN_WINDOW: usize = 64;

/// Consecutive retry nudges that deploy nothing before the nudge stops
/// re-arming.
pub(crate) const MAX_IDLE_NUDGES: u32 = 256;

/// Salt separating the transient-fault stream from the plan's schedule.
const TRANSIENT_SALT: u64 = 0x7452_414e_5349_454e;

/// One successful placement decision.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementRecord {
    /// Sim time of the decision.
    pub at: SimTime,
    /// Index of the task in the arrival list.
    pub task: usize,
    /// The instance deployed.
    pub instance: &'static str,
    /// Device index of each unit, in unit order.
    pub devices: Vec<usize>,
}

/// How and when a task left the system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TaskOutcome {
    /// Completed at this time.
    Completed(SimTime),
    /// Dropped after exhausting its migration retries at this time.
    Lost(SimTime),
    /// Still queued when the run drained at this time.
    NeverDeployed(SimTime),
}

/// Everything the reference decided, plus the report fields it derives.
#[derive(Debug, Clone, Default)]
pub struct ReferenceReport {
    /// Every successful placement, in decision order.
    pub placements: Vec<PlacementRecord>,
    /// Each task's terminal outcome, by arrival index.
    pub outcomes: Vec<TaskOutcome>,
    /// Tasks completed.
    pub completed: u64,
    /// Tasks queued at drain.
    pub never_deployed: u64,
    /// Tasks dropped after retry exhaustion.
    pub lost: u64,
    /// Interrupted tasks redeployed.
    pub migrated: u64,
    /// Deploys that served a recovery rather than a first admission.
    pub redeployments: u64,
    /// Time of the last completion.
    pub elapsed: SimTime,
    /// End-to-end latency of the completed tasks, in seconds, recorded
    /// in completion order.
    pub latency: Summary,
    /// Rejected attempts per [`RejectReason::index`].
    pub rejections: [u64; 4],
    /// Distinct tasks rejected at least once per reason.
    pub rejected_tasks: [u64; 4],
    /// Deployment attempts; every one is a full probe.
    pub attempts: u64,
    /// Successful deployments (admissions plus redeployments).
    pub deploys: u64,
}

impl ReferenceReport {
    /// Checks a fast-path run's report against the reference: the outcome
    /// fields and the latency summary must be equal, and the fast path may only have made fewer
    /// rejected attempts (its cache and skip rule avoid re-probes whose
    /// answer is already known), never more.
    pub fn check_report(&self, fast: &CloudReport) -> Result<(), String> {
        let fields = [
            ("completed", fast.completed, self.completed),
            ("never_deployed", fast.never_deployed, self.never_deployed),
            ("lost", fast.lost, self.lost),
            ("migrated", fast.migrated, self.migrated),
            ("redeployments", fast.redeployments, self.redeployments),
        ];
        for (name, f, r) in fields {
            if f != r {
                return Err(format!("{name}: fast {f}, reference {r}"));
            }
        }
        if fast.elapsed != self.elapsed {
            return Err(format!(
                "elapsed: fast {}, reference {}",
                fast.elapsed, self.elapsed
            ));
        }
        let (f, r) = (&fast.latency, &self.latency);
        if (f.count(), f.mean(), f.min(), f.max()) != (r.count(), r.mean(), r.min(), r.max()) {
            return Err(format!("latency: fast {f:?}, reference {r:?}"));
        }
        if fast.rejected_tasks != self.rejected_tasks {
            return Err(format!(
                "rejected tasks: fast {:?}, reference {:?}",
                fast.rejected_tasks, self.rejected_tasks
            ));
        }
        for reason in RejectReason::ALL {
            let (f, r) = (fast.rejections_for(reason), self.rejections[reason.index()]);
            if f > r {
                return Err(format!(
                    "{} attempts: fast {f} exceeds reference {r}",
                    reason.as_str()
                ));
            }
        }
        Ok(())
    }

    /// The full lockstep comparison: every placement (read from the fast
    /// run's `deploy` spans and their `reconfigure` children) and every
    /// task's terminal outcome (its root span's `outcome` and end time),
    /// then [`check_report`](Self::check_report). The fast run must have
    /// recorded spans.
    pub fn check_lockstep(&self, fast: &CloudReport) -> Result<(), String> {
        let spans = fast.spans.spans();
        let mut units: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.name == "reconfigure") {
            if let (Some(parent), Some(SpanValue::U64(d))) = (s.parent, s.attr("device")) {
                units.entry(parent.0).or_default().push(*d as usize);
            }
        }
        let placed = spans
            .iter()
            .filter(|s| s.name == "deploy" && s.attr_is("outcome", "deployed"));
        let mut count = 0;
        for (i, s) in placed.enumerate() {
            let instance = match s.attr("instance") {
                Some(SpanValue::Shared(t)) => t,
                other => return Err(format!("deploy span without instance: {other:?}")),
            };
            let (at, task) = (s.begin, s.trace.0 as usize);
            let devices = units.remove(&s.id.0).unwrap_or_default();
            let reference = self.placements.get(i);
            if reference.is_none_or(|r| {
                (r.at, r.task, r.instance, &r.devices) != (at, task, instance, &devices)
            }) {
                return Err(format!(
                    "placement #{i}: fast at {at:?} task {task} instance {instance} \
                     devices {devices:?}, reference {reference:?}"
                ));
            }
            count += 1;
        }
        if count != self.placements.len() {
            return Err(format!(
                "fast run placed {count} times, reference {}",
                self.placements.len()
            ));
        }
        for s in spans.iter().filter(|s| s.name == "task") {
            let task = s.trace.0 as usize;
            let end = s.end.unwrap_or(SimTime::MAX);
            let fast_outcome = if s.attr_is("outcome", "completed") {
                TaskOutcome::Completed(end)
            } else if s.attr_is("outcome", "lost") {
                TaskOutcome::Lost(end)
            } else {
                TaskOutcome::NeverDeployed(end)
            };
            if self.outcomes.get(task) != Some(&fast_outcome) {
                return Err(format!(
                    "task {task}: fast {fast_outcome:?}, reference {:?}",
                    self.outcomes.get(task)
                ));
            }
        }
        self.check_report(fast)
    }
}

/// The reference's model of the cluster: per-device free slots, health
/// and whole-device occupancy, plus the live deployments' footprints.
pub struct ReferenceCluster<'a> {
    cluster: &'a Cluster,
    db: &'a MappingDatabase,
    policy: Policy,
    type_names: Vec<String>,
    total: Vec<usize>,
    free: Vec<usize>,
    healthy: Vec<bool>,
    /// Baseline only: the device hosts a deployment.
    taken: Vec<bool>,
    /// Deployment id → `(device, blocks)` per unit.
    live: BTreeMap<u64, Vec<(usize, usize)>>,
    next_id: u64,
    injector: Option<(f64, Rng)>,
    /// Deployment attempts so far.
    pub attempts: u64,
    deploys: u64,
}

impl<'a> ReferenceCluster<'a> {
    /// An idle, healthy cluster with no transient faults.
    pub fn new(cluster: &'a Cluster, db: &'a MappingDatabase, policy: Policy) -> Self {
        let total: Vec<usize> = cluster
            .iter()
            .map(|d| d.device_type().vblock_slots())
            .collect();
        ReferenceCluster {
            cluster,
            db,
            policy,
            type_names: cluster
                .device_types()
                .iter()
                .map(|t| t.name().to_string())
                .collect(),
            free: total.clone(),
            healthy: vec![true; total.len()],
            taken: vec![false; total.len()],
            total,
            live: BTreeMap::new(),
            next_id: 0,
            injector: None,
            attempts: 0,
            deploys: 0,
        }
    }

    fn type_of(&self, device: usize) -> &'a str {
        self.cluster.device(DeviceId(device)).device_type().name()
    }

    /// One deployment attempt, answered by a full probe. `Err` only for
    /// an instance missing from the database.
    pub fn try_deploy(
        &mut self,
        instance: &str,
    ) -> Result<Result<Deployment, RejectReason>, String> {
        self.attempts += 1;
        let entry = self
            .db
            .entry_shared(instance)
            .ok_or_else(|| format!("instance `{instance}` not in database"))?;
        let mut any_eligible = false;
        for option in &entry.options {
            if self.policy == Policy::Baseline && option.num_units() > 1 {
                continue;
            }
            any_eligible = true;
            let Some(devices) = self.place(option) else {
                continue;
            };
            if let Some((prob, rng)) = &mut self.injector {
                if devices.iter().any(|_| rng.next_f64() < *prob) {
                    return Ok(Err(RejectReason::TransientFault));
                }
            }
            return Ok(Ok(self.commit(option, &devices)));
        }
        Ok(Err(if any_eligible {
            RejectReason::InsufficientCapacity
        } else {
            RejectReason::PolicyExcluded
        }))
    }

    fn place(&self, option: &DeploymentOption) -> Option<Vec<usize>> {
        if self.policy == Policy::Restricted {
            return self
                .type_names
                .iter()
                .find_map(|t| self.place_with(option, Some(t)));
        }
        self.place_with(option, None)
    }

    fn place_with(&self, option: &DeploymentOption, restrict: Option<&str>) -> Option<Vec<usize>> {
        let mut free: Vec<usize> = (0..self.free.len())
            .map(|d| if self.healthy[d] { self.free[d] } else { 0 })
            .collect();
        let mut chosen: Vec<usize> = Vec::new();
        for unit in &option.units {
            let mut best: Option<(usize, usize, usize)> = None;
            for (d, &slots) in free.iter().enumerate() {
                let ty = self.type_of(d);
                if restrict.is_some_and(|r| r != ty) {
                    continue;
                }
                if self.policy == Policy::Baseline && (self.taken[d] || slots != self.total[d]) {
                    continue;
                }
                let Some(image) = unit.images.get(ty) else {
                    continue;
                };
                if slots < image.blocks() {
                    continue;
                }
                let hops = chosen
                    .first()
                    .map_or(0, |&f| self.cluster.ring_hops(DeviceId(f), DeviceId(d)));
                let key = (slots - image.blocks(), hops, d);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
            let (_, _, d) = best?;
            free[d] -= unit.images[self.type_of(d)].blocks();
            chosen.push(d);
        }
        Some(chosen)
    }

    fn commit(&mut self, option: &DeploymentOption, devices: &[usize]) -> Deployment {
        let mut units = Vec::new();
        for (unit, &d) in option.units.iter().zip(devices) {
            let blocks = unit.images[self.type_of(d)].blocks();
            self.free[d] -= blocks;
            if self.policy == Policy::Baseline {
                self.taken[d] = true;
            }
            units.push((d, blocks));
        }
        let id = self.next_id;
        self.next_id += 1;
        self.deploys += 1;
        self.live.insert(id, units);
        let cluster = self.cluster;
        let max_ring_hops = devices
            .iter()
            .flat_map(|&a| {
                devices
                    .iter()
                    .map(move |&b| cluster.ring_hops(DeviceId(a), DeviceId(b)))
            })
            .max()
            .unwrap_or(0);
        // The caller's service-time model reads devices, shares and link
        // shape.
        Deployment {
            id: DeploymentId(id),
            installed_instance: None,
            placements: option
                .units
                .iter()
                .zip(devices)
                .map(|(unit, &d)| Placement {
                    device: DeviceId(d),
                    compute_share: unit.compute_share,
                })
                .collect(),
            crossings_per_op: option.crossings_per_op,
            cut_bandwidth: option.cut_bandwidth,
            max_ring_hops,
        }
    }

    /// Frees a live deployment's units.
    fn release(&mut self, id: DeploymentId) {
        for (d, blocks) in self.live.remove(&id.0).unwrap_or_default() {
            self.free[d] += blocks;
            self.taken[d] = false;
        }
    }

    /// Fails a device: every deployment with a unit on it is torn down
    /// (its other units freed) and returned in ascending id order. Failing
    /// a failed device does nothing.
    fn fail(&mut self, device: usize) -> Vec<DeploymentId> {
        if !self.healthy[device] {
            return Vec::new();
        }
        self.healthy[device] = false;
        let victims: Vec<u64> = self
            .live
            .iter()
            .filter(|(_, units)| units.iter().any(|&(d, _)| d == device))
            .map(|(&id, _)| id)
            .collect();
        for id in &victims {
            for (d, blocks) in self.live.remove(id).unwrap_or_default() {
                if d != device {
                    self.free[d] += blocks;
                }
                self.taken[d] = false;
            }
        }
        // The failed device comes back with every slot free.
        self.free[device] = self.total[device];
        victims.into_iter().map(DeploymentId).collect()
    }

    /// Returns a failed device to service.
    fn recover(&mut self, device: usize) {
        self.healthy[device] = true;
    }
}

enum Event {
    Arrival(usize),
    Completion { task: usize, epoch: u64 },
    DeviceFailed(usize),
    DeviceRecovered(usize),
    MigrationRetry { task: usize, attempt: u32 },
    RetryNudge,
}

/// The naive scheduler driving a [`ReferenceCluster`] through a workload
/// and a fault plan.
pub struct ReferenceScheduler<'a> {
    cluster: ReferenceCluster<'a>,
    arrivals: &'a [TaskArrival],
    instance_for: &'a dyn Fn(&RnnTask) -> &'static str,
    service_time: &'a dyn Fn(&RnnTask, &Deployment) -> SimTime,
    recovery: RecoveryPolicy,
    events: EventQueue<Event>,
    queue: VecDeque<usize>,
    running: Vec<Option<Deployment>>,
    task_of: BTreeMap<u64, usize>,
    /// Bumped on every (re)deployment and interruption; a completion
    /// carrying an older epoch is stale.
    epoch: Vec<u64>,
    /// Tasks interrupted and not yet redeployed.
    interrupted: Vec<bool>,
    outcomes: Vec<Option<TaskOutcome>>,
    reject_seen: Vec<[bool; 4]>,
    report: ReferenceReport,
}

impl<'a> ReferenceScheduler<'a> {
    /// Runs `arrivals` under `policy` with `faults`' device waves and
    /// transient configure faults (link waves are ignored).
    ///
    /// # Errors
    ///
    /// Returns a description when a task names an unknown instance.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        cluster: &'a Cluster,
        db: &'a MappingDatabase,
        policy: Policy,
        arrivals: &'a [TaskArrival],
        instance_for: &'a dyn Fn(&RnnTask) -> &'static str,
        service_time: &'a dyn Fn(&RnnTask, &Deployment) -> SimTime,
        faults: &FaultPlan,
        recovery: RecoveryPolicy,
    ) -> Result<ReferenceReport, String> {
        let n = arrivals.len();
        let mut model = ReferenceCluster::new(cluster, db, policy);
        if faults.configure_failure_prob() > 0.0 {
            model.injector = Some((
                faults.configure_failure_prob(),
                Rng::seed_from_u64(faults.seed() ^ TRANSIENT_SALT),
            ));
        }
        let mut sim = ReferenceScheduler {
            cluster: model,
            arrivals,
            instance_for,
            service_time,
            recovery,
            events: EventQueue::new(),
            queue: VecDeque::new(),
            running: vec![None; n],
            task_of: BTreeMap::new(),
            epoch: vec![0; n],
            interrupted: vec![false; n],
            outcomes: vec![None; n],
            reject_seen: vec![[false; 4]; n],
            report: ReferenceReport::default(),
        };
        for (i, a) in arrivals.iter().enumerate() {
            sim.events.schedule(a.at, Event::Arrival(i));
        }
        for ev in faults.events() {
            if ev.device < cluster.len() {
                let event = if ev.fail {
                    Event::DeviceFailed(ev.device)
                } else {
                    Event::DeviceRecovered(ev.device)
                };
                sim.events.schedule(ev.at, event);
            }
        }
        let mut last = SimTime::ZERO;
        let mut idle_nudges = 0;
        while let Some((now, event)) = sim.events.pop() {
            last = now;
            let nudged = matches!(event, Event::RetryNudge);
            let deploys = sim.cluster.deploys;
            match event {
                Event::Arrival(i) => sim.queue.push_back(i),
                Event::Completion { task, epoch } => {
                    if sim.epoch[task] != epoch {
                        continue;
                    }
                    if let Some(d) = sim.running[task].take() {
                        sim.task_of.remove(&d.id.0);
                        sim.cluster.release(d.id);
                    }
                    sim.report.completed += 1;
                    sim.report.elapsed = now;
                    let e2e = now.saturating_sub(arrivals[task].at);
                    sim.report.latency.record(e2e.as_secs());
                    sim.outcomes[task] = Some(TaskOutcome::Completed(now));
                }
                Event::DeviceFailed(device) => {
                    for id in sim.cluster.fail(device) {
                        let task = sim.task_of.remove(&id.0).ok_or("victim maps to no task")?;
                        sim.running[task] = None;
                        sim.epoch[task] += 1;
                        sim.interrupted[task] = true;
                        sim.migrate(now, task, 0)?;
                    }
                }
                Event::DeviceRecovered(device) => sim.cluster.recover(device),
                // A task backing off is neither running nor queued, so
                // nothing can overtake its retry.
                Event::MigrationRetry { task, attempt } => {
                    sim.migrate(now, task, attempt)?;
                }
                Event::RetryNudge => {}
            }
            let saw_transient = sim.admission_wave(now)?;
            idle_nudges = if nudged && sim.cluster.deploys == deploys {
                idle_nudges + 1
            } else {
                0
            };
            if saw_transient
                && sim.events.is_empty()
                && !sim.queue.is_empty()
                && idle_nudges < MAX_IDLE_NUDGES
            {
                sim.events
                    .schedule_in(sim.recovery.base_backoff, Event::RetryNudge);
            }
        }
        let mut report = sim.report;
        report.never_deployed = sim.queue.len() as u64;
        for &task in &sim.queue {
            sim.outcomes[task] = Some(TaskOutcome::NeverDeployed(last));
        }
        report.outcomes = sim
            .outcomes
            .into_iter()
            .enumerate()
            .map(|(i, o)| o.ok_or(format!("task {i} unaccounted for")))
            .collect::<Result<_, _>>()?;
        report.attempts = sim.cluster.attempts;
        report.deploys = sim.cluster.deploys;
        Ok(report)
    }

    /// One deployment attempt for `task`, booked either way.
    fn place(
        &mut self,
        now: SimTime,
        task: usize,
    ) -> Result<Result<Deployment, RejectReason>, String> {
        let instance = (self.instance_for)(&self.arrivals[task].task);
        let outcome = self.cluster.try_deploy(instance)?;
        match &outcome {
            Ok(d) => self.report.placements.push(PlacementRecord {
                at: now,
                task,
                instance,
                devices: d.placements.iter().map(|p| p.device.0).collect(),
            }),
            Err(reason) => {
                let r = reason.index();
                self.report.rejections[r] += 1;
                if !self.reject_seen[task][r] {
                    self.reject_seen[task][r] = true;
                    self.report.rejected_tasks[r] += 1;
                }
            }
        }
        Ok(outcome)
    }

    /// Migration attempt `attempt` (0 is the immediate one) of an
    /// interrupted task.
    fn migrate(&mut self, now: SimTime, task: usize, attempt: u32) -> Result<(), String> {
        match self.place(now, task)? {
            Ok(d) => self.start(now, task, d),
            Err(_) if attempt < self.recovery.max_retries => {
                let at = now
                    .checked_add(self.recovery.backoff(attempt))
                    .unwrap_or(SimTime::MAX);
                self.events.schedule(
                    at,
                    Event::MigrationRetry {
                        task,
                        attempt: attempt + 1,
                    },
                );
            }
            Err(_) if self.recovery.drop_on_exhaustion => {
                self.interrupted[task] = false;
                self.report.lost += 1;
                self.outcomes[task] = Some(TaskOutcome::Lost(now));
            }
            Err(_) => self.queue.push_back(task),
        }
        Ok(())
    }

    /// Scans the queue head until a wave admits nothing; returns whether
    /// any attempt hit a transient fault.
    fn admission_wave(&mut self, now: SimTime) -> Result<bool, String> {
        let mut saw_transient = false;
        loop {
            let mut admitted = Vec::new();
            for pos in 0..self.queue.len().min(SCAN_WINDOW) {
                let task = self.queue[pos];
                match self.place(now, task)? {
                    Ok(d) => admitted.push((pos, task, d)),
                    Err(reason) => saw_transient |= reason == RejectReason::TransientFault,
                }
            }
            if admitted.is_empty() {
                return Ok(saw_transient);
            }
            for &(pos, _, _) in admitted.iter().rev() {
                self.queue.remove(pos);
            }
            for (_, task, d) in admitted {
                self.start(now, task, d);
            }
        }
    }

    /// Installs `d` for `task` and schedules its completion.
    fn start(&mut self, now: SimTime, task: usize, d: Deployment) {
        if std::mem::take(&mut self.interrupted[task]) {
            self.report.migrated += 1;
            self.report.redeployments += 1;
        }
        let service = (self.service_time)(&self.arrivals[task].task, &d);
        self.epoch[task] += 1;
        self.task_of.insert(d.id.0, task);
        self.running[task] = Some(d);
        let epoch = self.epoch[task];
        self.events.schedule(
            now.checked_add(service).unwrap_or(SimTime::MAX),
            Event::Completion { task, epoch },
        );
    }
}
