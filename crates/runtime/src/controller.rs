//! The system controller and runtime policies.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};

use vfpga_core::{DeploymentOption, MappingDatabase, MappingEntry};
use vfpga_fabric::{Cluster, DeviceId};
use vfpga_hsabs::{
    AllocationId, DeviceHealth, HsError, LowLevelController, TransientFaultInjector,
};
use vfpga_sim::{SpanCtx, CONTROL_TID};

use crate::RuntimeError;

/// The runtime resource-management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// The paper's baseline system: AS ISA only. FPGAs are managed at
    /// per-device granularity — one accelerator occupies one whole FPGA,
    /// no spatial sharing, no multi-FPGA deployment.
    Baseline,
    /// The framework, but one accelerator may only span FPGAs of a single
    /// type (emulating the homogeneous-cluster multi-FPGA support of
    /// existing HS abstractions; Fig. 12's "restricted" system).
    Restricted,
    /// The full framework: spatial sharing plus heterogeneous multi-FPGA
    /// deployment.
    Full,
}

/// Why a deployment attempt was turned down (as opposed to failing with a
/// hard [`RuntimeError`]): the cluster can serve the instance in principle,
/// just not right now or not under the active policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RejectReason {
    /// The active policy filters out every mapping option the database
    /// offers (e.g. the baseline policy with a multi-FPGA-only entry).
    PolicyExcluded,
    /// Statically provisioned baseline: every provisioned device is busy.
    NoFreeDevice,
    /// No feasible placement: too few free virtual blocks under the
    /// policy's placement constraints.
    InsufficientCapacity,
    /// Partial reconfiguration failed transiently while committing an
    /// otherwise-feasible placement (injected fault); the attempt rolled
    /// back cleanly and retrying may succeed.
    TransientFault,
}

impl RejectReason {
    /// All reasons, in a stable order (for per-reason breakdowns).
    pub const ALL: [RejectReason; 4] = [
        RejectReason::PolicyExcluded,
        RejectReason::NoFreeDevice,
        RejectReason::InsufficientCapacity,
        RejectReason::TransientFault,
    ];

    /// Stable label for metrics and trace export.
    pub fn as_str(self) -> &'static str {
        match self {
            RejectReason::PolicyExcluded => "policy_excluded",
            RejectReason::NoFreeDevice => "no_free_device",
            RejectReason::InsufficientCapacity => "insufficient_capacity",
            RejectReason::TransientFault => "transient_fault",
        }
    }

    /// Index into [`RejectReason::ALL`].
    pub fn index(self) -> usize {
        match self {
            RejectReason::PolicyExcluded => 0,
            RejectReason::NoFreeDevice => 1,
            RejectReason::InsufficientCapacity => 2,
            RejectReason::TransientFault => 3,
        }
    }
}

/// Lifetime counters of one [`SystemController`]: every deployment
/// decision it has made, cheap enough to update unconditionally.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControllerStats {
    /// Successful deployments.
    pub deploys: u64,
    /// Releases performed.
    pub releases: u64,
    /// Rejected attempts, indexed by [`RejectReason::index`]. Counts
    /// every attempt, whether it was answered by a full placement probe
    /// or by the feasibility cache.
    pub rejects: [u64; 4],
    /// Deployment attempts that ran a full placement probe (database
    /// lookup + option scan) rather than being answered from the
    /// feasibility cache. `probes + cache_hits` is the total attempt
    /// count; the bench artifact reports `probes` as `deploy_attempts`.
    pub probes: u64,
    /// Deployment attempts answered by the capacity-epoch feasibility
    /// cache without probing. The cloud simulator never attempts a queued
    /// task whose instance the cache already rejects, so in a simulation
    /// these are migration attempts only; direct callers of
    /// [`SystemController::try_deploy`] see every repeat here.
    pub cache_hits: u64,
}

impl ControllerStats {
    /// Total rejected attempts across all reasons.
    pub fn total_rejects(&self) -> u64 {
        self.rejects.iter().sum()
    }

    /// Rejections for one reason.
    pub fn rejects_for(&self, reason: RejectReason) -> u64 {
        self.rejects[reason.index()]
    }
}

/// Identifies one live deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DeploymentId(pub u64);

/// An instance name interned by [`SystemController::instance_id`]: an
/// index into that controller's mapping database, tagged with the
/// controller so an id handed to any other controller is a typed error
/// rather than a silent alias.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InstanceId {
    controller: u32,
    index: u32,
}

impl InstanceId {
    /// The id's position in its controller's database; with
    /// [`SystemController::instance_at`] it lets a per-task table keep
    /// four bytes per task.
    pub(crate) fn index(self) -> u32 {
        self.index
    }
}

/// Source of the per-controller tags carried by [`InstanceId`].
static NEXT_CONTROLLER_TAG: AtomicU32 = AtomicU32::new(0);

/// One deployed unit. The HS allocation backing it stays with the
/// controller that made it.
#[derive(Debug, Clone)]
pub struct Placement {
    /// The device holding the unit.
    pub device: DeviceId,
    /// Fraction of the accelerator's compute capability in this unit.
    pub compute_share: f64,
}

/// A live deployment of one accelerator instance. The controller that
/// made it records which instance it serves and the HS allocations
/// backing its units, keyed by its id.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// This deployment's id.
    pub id: DeploymentId,
    /// Under a statically provisioned baseline: the name of the instance
    /// actually installed on the device serving this task (which may
    /// differ from the requested one — the inelasticity the paper
    /// describes), shared with the controller's name table. `None`
    /// otherwise.
    pub installed_instance: Option<Arc<str>>,
    /// The deployed units.
    pub placements: Vec<Placement>,
    /// Latency-insensitive boundary crossings on the critical path (from
    /// the mapping entry).
    pub crossings_per_op: usize,
    /// Inter-unit traffic in bits per activation.
    pub cut_bandwidth: u64,
    /// Largest ring distance between any two of the deployment's devices.
    pub max_ring_hops: usize,
}

impl Deployment {
    /// Number of FPGAs this deployment spans.
    pub fn num_units(&self) -> usize {
        self.placements.len()
    }

    /// Number of *distinct* devices hosting the deployment's units.
    /// Co-located units (several units on one FPGA) exchange state through
    /// local DRAM and never touch the ring.
    pub fn num_devices(&self) -> usize {
        // Each device counts at its first placement: quadratic in the
        // handful of units a deployment has, and allocation-free.
        let units = &self.placements;
        (0..units.len())
            .filter(|&k| units[..k].iter().all(|p| p.device != units[k].device))
            .count()
    }
}

/// Outcome of a preemptive scale-down request
/// ([`SystemController::demote_deployment`]).
#[derive(Debug)]
pub enum ScaleDown {
    /// The deployment now runs as the returned smaller variant; the old
    /// allocation was released.
    Demoted(Deployment),
    /// No strictly smaller mapping option exists (or the policy forbids
    /// resizing); nothing changed.
    AlreadyMinimal,
    /// The old allocation was released but every smaller variant failed
    /// to commit (transient reconfiguration faults on every candidate).
    /// The deployment is gone; its task must re-enter the caller's
    /// migration/admission machinery like an interrupted one.
    Displaced,
}

/// One statically provisioned device (baseline): the interned index of
/// the instance compiled onto it offline, and the index of that
/// instance's first single-unit option, which the device runs.
#[derive(Debug, Clone, Copy)]
struct Provision {
    index: usize,
    option: usize,
}

/// The system controller (Fig. 7): searches the mapping database for
/// deployable mapping results under the active policy and drives the HS
/// abstraction's low-level controller.
#[derive(Debug)]
pub struct SystemController {
    cluster: Cluster,
    db: MappingDatabase,
    llc: LowLevelController,
    policy: Policy,
    /// Static provisioning (baseline policy): the instance compiled onto
    /// each device at offline time. The paper's baseline fixes resource
    /// allocation "at the offline compilation time, resulting in a low
    /// elasticity" — tasks run on whatever accelerator their device hosts.
    provisioned: Option<Vec<Provision>>,
    /// Live deployments by deployment id, in ascending id order: the
    /// interned index of the instance each serves, and its allocations in
    /// unit order.
    live: BTreeMap<u64, (usize, Vec<AllocationId>)>,
    next_id: u64,
    stats: ControllerStats,
    /// Device-type names in `cluster.device_types()` order; the indexed
    /// placement fast path works in these indexes instead of allocating
    /// type-name `String`s per probe.
    type_names: Vec<String>,
    /// Each device's index into `type_names`.
    device_type_idx: Vec<usize>,
    /// This controller's [`InstanceId`] tag.
    tag: u32,
    /// The database's entries in name order; an [`InstanceId`]'s index
    /// points here.
    instances: Vec<Arc<MappingEntry>>,
    /// The instances' names, indexed like `instances`: one shared
    /// allocation each, which every `deploy` span and the cloud
    /// simulator's `task` spans carry. Made on first use, so a run
    /// without spans allocates none.
    names: OnceLock<Vec<Arc<str>>>,
    /// Capacity-epoch feasibility cache, indexed like `instances`: the
    /// (epoch, reason) of the instance's last capacity rejection. While
    /// the LLC's capacity epoch is unchanged, free capacity can only have
    /// shrunk, so the rejection is replayed without re-probing. Transient
    /// faults are never cached.
    feas_cache: Vec<Option<(u64, RejectReason)>>,
    /// Every option's per-unit block counts by device type, resolved once.
    blocks: BlockTable,
    /// Buffers the placement search writes into instead of allocating.
    search: SearchScratch,
    /// Buffers promotion ranks its candidates in; taken out of the
    /// controller for the length of one [`promote_deployment`] call.
    ///
    /// [`promote_deployment`]: Self::promote_deployment
    promotion: PromotionScratch,
}

/// The block count of every unit of every mapping option on every device
/// type, in one dense table built when the controller is: placement
/// searches read it instead of looking each unit's image up by type name.
#[derive(Debug)]
struct BlockTable {
    /// Device types, the width of one unit's row.
    types: usize,
    /// Instance `i`'s options are table options
    /// `first_option[i]..first_option[i + 1]`, in entry order.
    first_option: Vec<usize>,
    /// Table option `g`'s units are rows `first_unit[g]..first_unit[g + 1]`.
    first_unit: Vec<usize>,
    /// Row-major: a unit's blocks on each type in `type_names` order,
    /// `None` where the unit has no image for the type.
    blocks: Vec<Option<usize>>,
}

impl BlockTable {
    fn new(instances: &[Arc<MappingEntry>], type_names: &[String]) -> Self {
        let mut first_option = vec![0];
        let mut first_unit = vec![0];
        let mut blocks = Vec::new();
        for entry in instances {
            for option in &entry.options {
                for unit in &option.units {
                    blocks.extend(
                        type_names
                            .iter()
                            .map(|name| unit.images.get(name).map(|img| img.blocks())),
                    );
                }
                first_unit.push(first_unit[first_unit.len() - 1] + option.units.len());
            }
            first_option.push(first_unit.len() - 1);
        }
        BlockTable {
            types: type_names.len(),
            first_option,
            first_unit,
            blocks,
        }
    }

    /// The rows of instance `index`'s option `option`, one per unit in
    /// unit order.
    fn units(&self, index: usize, option: usize) -> impl Iterator<Item = &[Option<usize>]> {
        let g = self.first_option[index] + option;
        (self.first_unit[g]..self.first_unit[g + 1])
            .map(move |u| &self.blocks[u * self.types..(u + 1) * self.types])
    }
}

/// Buffers one placement search works in, kept by the controller so a
/// probe allocates nothing.
#[derive(Debug, Default)]
struct SearchScratch {
    /// The most free slots one placeable device of each type offers,
    /// indexed like `type_names` (see
    /// [`type_max_free`](SystemController::type_max_free)).
    max_free: Vec<usize>,
    /// Free slots per device, debited as units are assigned.
    free: Vec<usize>,
    /// The devices found for each unit of the last option searched.
    chosen: Vec<DeviceId>,
}

/// One placeable larger variant a promotion ranks.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    /// Ring diameter of the placement.
    hops: usize,
    /// Distinct devices it spans.
    distinct: usize,
    /// Its unit count.
    units: usize,
    /// Its index among the instance's options.
    option: usize,
    /// Where its devices start in [`PromotionScratch::pool`].
    first: usize,
}

/// Buffers [`SystemController::promote_deployment`] reuses across calls.
#[derive(Debug)]
struct PromotionScratch {
    /// The candidates of one call, ranked before any is offered.
    candidates: Vec<Candidate>,
    /// Every candidate's devices, one run of `units` each.
    pool: Vec<DeviceId>,
    /// The placed but uncommitted candidate offered to `accept`.
    phantom: Deployment,
}

impl Default for PromotionScratch {
    fn default() -> Self {
        PromotionScratch {
            candidates: Vec::new(),
            pool: Vec::new(),
            phantom: Deployment {
                id: DeploymentId(0),
                installed_instance: None,
                placements: Vec::new(),
                crossings_per_op: 0,
                cut_bandwidth: 0,
                max_ring_hops: 0,
            },
        }
    }
}

impl SystemController {
    /// Creates a controller over a cluster with a compiled mapping
    /// database.
    pub fn new(cluster: Cluster, db: MappingDatabase, policy: Policy) -> Self {
        let llc = LowLevelController::new(&cluster);
        // Type names in first-appearance order, as `device_types()` lists
        // them, and each device's index into them, in one pass.
        let mut type_names: Vec<String> = Vec::new();
        let device_type_idx: Vec<usize> = cluster
            .iter()
            .map(|d| {
                let name = d.device_type().name();
                type_names
                    .iter()
                    .position(|n| n == name)
                    .unwrap_or_else(|| {
                        type_names.push(name.to_string());
                        type_names.len() - 1
                    })
            })
            .collect();
        let instances: Vec<Arc<MappingEntry>> =
            db.iter().filter_map(|e| db.entry_shared(&e.name)).collect();
        let feas_cache = vec![None; instances.len()];
        let blocks = BlockTable::new(&instances, &type_names);
        SystemController {
            cluster,
            db,
            llc,
            policy,
            provisioned: None,
            live: BTreeMap::new(),
            next_id: 0,
            stats: ControllerStats::default(),
            type_names,
            device_type_idx,
            tag: NEXT_CONTROLLER_TAG.fetch_add(1, Ordering::Relaxed),
            instances,
            names: OnceLock::new(),
            feas_cache,
            blocks,
            search: SearchScratch::default(),
            promotion: PromotionScratch::default(),
        }
    }

    /// Interns an instance name against the mapping database. Resolve a
    /// name once and hand the id to [`try_deploy`](Self::try_deploy) on
    /// every attempt.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::UnknownInstance`] for a name the database
    /// does not hold.
    pub fn instance_id(&self, name: &str) -> Result<InstanceId, RuntimeError> {
        let index = self
            .instances
            .binary_search_by(|e| e.name.as_str().cmp(name))
            .map_err(|_| RuntimeError::UnknownInstance(name.to_string()))?;
        Ok(self.instance_at(index as u32))
    }

    /// This controller's id for database position `index` (the inverse
    /// of [`InstanceId::index`]); an index past the database yields an id
    /// every call rejects.
    pub(crate) fn instance_at(&self, index: u32) -> InstanceId {
        InstanceId {
            controller: self.tag,
            index,
        }
    }

    /// The name an [`InstanceId`] was interned from.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidInstanceId`] for an id this
    /// controller did not issue.
    pub fn instance_name(&self, id: InstanceId) -> Result<&str, RuntimeError> {
        Ok(&self.instances[self.index_of(id)?].name)
    }

    /// Every instance's name, indexed by [`InstanceId`] index, each a
    /// shared allocation.
    pub(crate) fn names(&self) -> &[Arc<str>] {
        self.names
            .get_or_init(|| self.instances.iter().map(|e| Arc::from(&*e.name)).collect())
    }

    /// Checks that `id` was issued by this controller and returns its
    /// index into `instances`.
    fn index_of(&self, id: InstanceId) -> Result<usize, RuntimeError> {
        let index = id.index as usize;
        if id.controller != self.tag || index >= self.instances.len() {
            return Err(RuntimeError::InvalidInstanceId {
                index: id.index,
                instances: self.instances.len(),
            });
        }
        Ok(index)
    }

    /// The low-level controller's capacity epoch: bumped on every
    /// release, eviction, and recovery. The feasibility cache keys its
    /// replayed rejections on it, and schedulers use it to skip admission
    /// work that cannot succeed.
    pub fn capacity_epoch(&self) -> u64 {
        self.llc.capacity_epoch()
    }

    /// The rejection a [`try_deploy`](Self::try_deploy) of `instance`
    /// would return right now, when the feasibility cache already holds
    /// it at the current capacity epoch. Exact for the same reasons the
    /// cache is; transient faults are never cached, so they never show
    /// here. `None` also for an id past the database.
    pub(crate) fn known_rejection(&self, instance: InstanceId) -> Option<RejectReason> {
        match self.feas_cache.get(instance.index as usize)? {
            Some((epoch, reason)) if *epoch == self.llc.capacity_epoch() => Some(*reason),
            _ => None,
        }
    }

    /// Statically provisions the cluster (baseline policy): device `i`
    /// hosts `instances[i]`, fixed offline. Tasks then run on whichever
    /// provisioned device is free — possibly an ill-fitting accelerator.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::ProvisioningSize`] unless there is exactly
    /// one instance per device, [`RuntimeError::UnknownInstance`] for an
    /// instance missing from the database, and
    /// [`RuntimeError::UnplaceableProvision`] when an instance has no
    /// single-unit option for its device's type.
    pub fn with_provisioning(mut self, instances: Vec<String>) -> Result<Self, RuntimeError> {
        if instances.len() != self.cluster.len() {
            return Err(RuntimeError::ProvisioningSize {
                devices: self.cluster.len(),
                instances: instances.len(),
            });
        }
        let mut provisioned = Vec::with_capacity(instances.len());
        for (i, instance) in instances.into_iter().enumerate() {
            let index = self.instance_id(&instance)?.index as usize;
            let entry = &self.instances[index];
            let dt = self.cluster.device(DeviceId(i)).device_type().name();
            let option = entry.options.iter().position(|o| o.num_units() == 1);
            let placeable = entry
                .options
                .iter()
                .any(|o| o.num_units() == 1 && o.units[0].images.contains_key(dt));
            let (Some(option), true) = (option, placeable) else {
                return Err(RuntimeError::UnplaceableProvision {
                    instance,
                    device: i,
                    device_type: dt.to_string(),
                });
            };
            provisioned.push(Provision { index, option });
        }
        self.provisioned = Some(provisioned);
        Ok(self)
    }

    /// The active policy.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// The mapping database.
    pub fn database(&self) -> &MappingDatabase {
        &self.db
    }

    /// The cluster under management.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Lifetime deployment/release/rejection counters.
    pub fn stats(&self) -> &ControllerStats {
        &self.stats
    }

    /// Installs a deterministic transient configure-failure injector on
    /// the low-level controller: each otherwise-successful configuration
    /// request fails with probability `prob`, drawn from a stream seeded
    /// by `seed`. Pass `prob = 0.0` to disable.
    pub fn enable_transient_faults(&mut self, prob: f64, seed: u64) {
        self.llc.set_fault_injector(if prob > 0.0 {
            Some(TransientFaultInjector::new(prob, seed))
        } else {
            None
        });
    }

    /// Runtime health of one device.
    pub fn device_health(&self, device: DeviceId) -> DeviceHealth {
        self.llc.device_health(device)
    }

    /// Number of devices currently failed.
    pub fn failed_devices(&self) -> usize {
        self.llc.failed_devices()
    }

    /// Live allocations the low-level controller still holds on `device`
    /// (zero for a failed device — the eviction invariant).
    pub fn allocations_on(&self, device: DeviceId) -> usize {
        self.llc.allocations_on(device)
    }

    /// Handles the failure of one device: evicts its allocations, tears
    /// down every live deployment that had a unit on it (their surviving
    /// units on other devices release too — a deployment is all-or-
    /// nothing), and returns the interrupted deployment ids in ascending
    /// order so the caller can migrate them. After this call no live
    /// deployment references the failed device.
    ///
    /// With `Some(ctx)` the eviction is recorded as a zero-duration
    /// `device_failure` span (trace and parent from `ctx`, on the failed
    /// device's `control` lane) carrying the device id and the number of
    /// interrupted deployments — so Perfetto shows failure-handling
    /// markers on each FPGA row.
    ///
    /// Idempotent: failing an already-failed device interrupts nothing.
    pub fn handle_device_failure(
        &mut self,
        device: DeviceId,
        ctx: Option<SpanCtx<'_>>,
    ) -> Vec<DeploymentId> {
        let evicted = self.llc.evict_device(device);
        // Both walks run in ascending id order: `evicted` comes sorted and
        // `live` is ordered, so `hit` needs no sort.
        let was_evicted = |a: &AllocationId| evicted.binary_search_by_key(&a.0, |e| e.0).is_ok();
        let mut hit: Vec<(u64, Vec<AllocationId>)> = Vec::new();
        self.live.retain(|&id, (_, allocations)| {
            let keep = !allocations.iter().any(was_evicted);
            if !keep {
                hit.push((id, std::mem::take(allocations)));
            }
            keep
        });
        for (_, allocations) in &hit {
            // Surviving units release normally; their slots free up for
            // the migration the caller will attempt.
            for a in allocations.iter().filter(|a| !was_evicted(a)) {
                let _ = self.llc.release(*a);
            }
        }
        // Collected in place: the ids reuse `hit`'s buffer.
        let interrupted: Vec<DeploymentId> =
            hit.into_iter().map(|(id, _)| DeploymentId(id)).collect();
        if let Some(c) = ctx {
            let span = c.spans.begin("device_failure", c.trace, c.parent, c.at);
            c.spans.set_lane(span, device.0 as u64 + 1, CONTROL_TID);
            c.spans.attr(span, "device", device.0);
            c.spans.attr(span, "interrupted", interrupted.len());
            c.spans.end(span, c.at);
        }
        interrupted
    }

    /// Handles the recovery of a failed device: it rejoins placement with
    /// every slot free.
    pub fn handle_device_recovery(&mut self, device: DeviceId) {
        self.llc.recover_device(device);
    }

    /// Attempts to deploy an instance. `Ok(Err(reason))` means the
    /// attempt was turned down — policy exclusion, busy provisioned
    /// devices, capacity exhaustion or a transient configure fault — and
    /// the caller queues the task; the reasons feed the cloud simulator's
    /// rejection breakdown.
    ///
    /// The greedy policy scans the instance's mapping results sorted by
    /// ascending number of soft blocks, taking the first feasible
    /// allocation — minimizing the number of allocated FPGAs and therefore
    /// the inter-FPGA communication overhead (Section 2.3).
    ///
    /// With `Some(ctx)` the decision is recorded as a zero-duration
    /// `deploy` span under `ctx.parent` (the task's phase span in the
    /// cloud simulator) carrying the instance name plus the outcome —
    /// `deployed` with the unit count, or `rejected` with the
    /// [`RejectReason`] label. Each partial-reconfiguration request the
    /// commit issues nests as a `reconfigure` child on the target device's
    /// lane, so one glance at Perfetto shows *which* FPGAs an admission
    /// touched (including rolled-back attempts).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidInstanceId`] for an id this
    /// controller did not issue.
    pub fn try_deploy(
        &mut self,
        instance: InstanceId,
        mut ctx: Option<SpanCtx<'_>>,
    ) -> Result<Result<Deployment, RejectReason>, RuntimeError> {
        let index = self.index_of(instance)?;
        let span = ctx.as_mut().map(|c| {
            let span = c.spans.begin("deploy", c.trace, c.parent, c.at);
            c.spans
                .attr(span, "instance", Arc::clone(&self.names()[index]));
            span
        });
        let outcome = self.deploy_inner(
            index,
            ctx.as_mut().map(|c| SpanCtx {
                parent: span,
                ..c.reborrow()
            }),
        );
        match &outcome {
            Ok(Ok(_)) => self.stats.deploys += 1,
            Ok(Err(reason)) => self.stats.rejects[reason.index()] += 1,
            Err(_) => {}
        }
        if let Some((c, span)) = ctx.zip(span) {
            match &outcome {
                Ok(Ok(d)) => {
                    c.spans.attr(span, "outcome", "deployed");
                    c.spans.attr(span, "units", d.num_units());
                }
                Ok(Err(reason)) => {
                    c.spans.attr(span, "outcome", "rejected");
                    c.spans.attr(span, "reason", reason.as_str());
                }
                Err(_) => c.spans.attr(span, "outcome", "error"),
            }
            c.spans.end(span, c.at);
        }
        outcome
    }

    fn deploy_inner(
        &mut self,
        index: usize,
        ctx: Option<SpanCtx<'_>>,
    ) -> Result<Result<Deployment, RejectReason>, RuntimeError> {
        // Feasibility-cache fast path: while the capacity epoch is
        // unchanged, free capacity can only have shrunk, so an instance
        // rejected for capacity reasons at this epoch is still rejected.
        // The replayed outcome (and any span the caller records around
        // it) is exactly what a full probe would produce — capacity
        // rejections touch no device state, emit no reconfigure spans and
        // draw no injector randomness — so skipping the probe is invisible.
        if let Some((epoch, reason)) = self.feas_cache[index] {
            if epoch == self.llc.capacity_epoch() {
                self.stats.cache_hits += 1;
                return Ok(Err(reason));
            }
        }
        self.stats.probes += 1;
        let outcome = self.probe_inner(index, ctx)?;
        if let Err(reason) = outcome {
            // A transient fault says nothing about capacity — an
            // immediate retry may succeed — so it is never cached.
            if reason != RejectReason::TransientFault {
                self.feas_cache[index] = Some((self.llc.capacity_epoch(), reason));
            }
        }
        Ok(outcome)
    }

    /// One full placement probe: option scan and commit.
    /// [`deploy_inner`](Self::deploy_inner) wraps it with the feasibility
    /// cache.
    fn probe_inner(
        &mut self,
        index: usize,
        ctx: Option<SpanCtx<'_>>,
    ) -> Result<Result<Deployment, RejectReason>, RuntimeError> {
        // Statically provisioned baseline: the task runs on whatever free
        // device's preinstalled accelerator, preferring a matching install.
        // A device is free when every slot is: it hosts at most one
        // deployment, and a failed device reports no free slot.
        if let (Policy::Baseline, Some(provisioned)) = (self.policy, &self.provisioned) {
            let device = self
                .cluster
                .device_ids()
                .filter(|&d| self.llc.slots_free(d) == self.llc.slots_total(d))
                .min_by_key(|d| (provisioned[d.0].index != index, d.0));
            let Some(device) = device else {
                return Ok(Err(RejectReason::NoFreeDevice));
            };
            let provision = provisioned[device.0];
            return self.deploy_provisioned(index, device, provision, ctx);
        }
        let entry = Arc::clone(&self.instances[index]);

        // Per-type free-slot summary, computed once per probe: the most
        // free slots any single device of each type offers. A unit that
        // cannot fit the *best* device of any eligible type cannot fit at
        // all, so whole options are rejected below without scanning
        // devices.
        self.type_max_free();

        let mut any_policy_eligible = false;
        for (o, option) in entry.options.iter().enumerate() {
            if self.policy == Policy::Baseline && option.num_units() > 1 {
                continue;
            }
            any_policy_eligible = true;
            if !self.find_placement(index, o) {
                continue;
            }
            let Some(deployment) = self.commit_chosen(index, option, ctx)? else {
                return Ok(Err(RejectReason::TransientFault));
            };
            return Ok(Ok(deployment));
        }
        Ok(Err(if any_policy_eligible {
            RejectReason::InsufficientCapacity
        } else {
            RejectReason::PolicyExcluded
        }))
    }

    /// Deploys a task onto the statically provisioned `device`
    /// (baseline): the device keeps the accelerator that was compiled onto
    /// it offline.
    fn deploy_provisioned(
        &mut self,
        index: usize,
        device: DeviceId,
        provision: Provision,
        ctx: Option<SpanCtx<'_>>,
    ) -> Result<Result<Deployment, RejectReason>, RuntimeError> {
        let installed = Arc::clone(&self.instances[provision.index]);
        let option = &installed.options[provision.option];
        let Some(allocations) = self.configure_units(option, &[device], ctx)? else {
            return Ok(Err(RejectReason::TransientFault));
        };
        // The preinstalled accelerator runs whole on its one device.
        let mut deployment = self.install(index, option, &[device], allocations);
        deployment.installed_instance = Some(Arc::clone(&self.names()[provision.index]));
        deployment.placements[0].compute_share = 1.0;
        deployment.crossings_per_op = 0;
        deployment.cut_bandwidth = 0;
        Ok(Ok(deployment))
    }

    /// Commits a placement: configures each unit's image of `option` on
    /// the matching device of `devices`. Every partial-reconfiguration
    /// request is recorded as a zero-duration `reconfigure` span under
    /// `ctx` (configuration is instantaneous in sim time) carrying the
    /// device, block count, first occupied slot and outcome, pinned to
    /// the device's export lane — process `fpga{device}`, thread
    /// `vblock{first slot}`, or its `control` thread when the request
    /// failed.
    ///
    /// On the first failure everything configured so far is released. A
    /// transient (injected) fault is a soft outcome — the placement was
    /// feasible and the caller may retry — and returns `Ok(None)`;
    /// anything else is a hard error.
    fn configure_units(
        &mut self,
        option: &DeploymentOption,
        devices: &[DeviceId],
        mut ctx: Option<SpanCtx<'_>>,
    ) -> Result<Option<Vec<AllocationId>>, RuntimeError> {
        let mut allocations = Vec::with_capacity(devices.len());
        for (unit, &device) in option.units.iter().zip(devices) {
            let image = &unit.images[self.cluster.device(device).device_type().name()];
            let result = self.llc.configure(device, image);
            if let Some(c) = ctx.as_mut() {
                let span = c.spans.begin("reconfigure", c.trace, c.parent, c.at);
                c.spans.attr(span, "device", device.0);
                c.spans.attr(span, "blocks", image.blocks());
                match &result {
                    Ok(id) => {
                        let first = self
                            .llc
                            .slots_of(*id)
                            .and_then(|s| s.first())
                            .map_or(0, |&s| s);
                        c.spans.attr(span, "slot", first);
                        c.spans.attr(span, "outcome", "configured");
                        c.spans.set_lane(span, device.0 as u64 + 1, first as u64);
                    }
                    Err(e) => {
                        c.spans.attr(span, "outcome", "failed");
                        c.spans.attr(span, "error", e.label());
                        c.spans.set_lane(span, device.0 as u64 + 1, CONTROL_TID);
                    }
                }
                c.spans.end(span, c.at);
            }
            match result {
                Ok(a) => allocations.push(a),
                Err(e) => {
                    for a in allocations {
                        let _ = self.llc.release(a);
                    }
                    return match e {
                        HsError::TransientConfigureFailure(_) => Ok(None),
                        e => Err(RuntimeError::Hs(e)),
                    };
                }
            }
        }
        Ok(Some(allocations))
    }

    /// [`configure_units`](Self::configure_units) on the devices the last
    /// [`find_placement`](Self::find_placement) chose, then
    /// [`install`](Self::install) of what they configured.
    fn commit_chosen(
        &mut self,
        index: usize,
        option: &DeploymentOption,
        ctx: Option<SpanCtx<'_>>,
    ) -> Result<Option<Deployment>, RuntimeError> {
        let devices = std::mem::take(&mut self.search.chosen);
        let committed = self
            .configure_units(option, &devices, ctx)
            .map(|c| c.map(|allocations| self.install(index, option, &devices, allocations)));
        self.search.chosen = devices;
        committed
    }

    /// Books the allocations configured on `devices` as a live deployment
    /// of `option` of instance `index`: assigns the next id, records the
    /// instance and the allocations in `live`, and measures the ring
    /// diameter the units span.
    fn install(
        &mut self,
        index: usize,
        option: &DeploymentOption,
        devices: &[DeviceId],
        allocations: Vec<AllocationId>,
    ) -> Deployment {
        let max_ring_hops = self.ring_diameter(devices.iter().copied());
        let placements = devices
            .iter()
            .zip(&option.units)
            .map(|(&device, unit)| Placement {
                device,
                compute_share: unit.compute_share,
            })
            .collect();
        let id = DeploymentId(self.next_id);
        self.next_id += 1;
        self.live.insert(id.0, (index, allocations));
        Deployment {
            id,
            installed_instance: None,
            placements,
            crossings_per_op: option.crossings_per_op,
            cut_bandwidth: option.cut_bandwidth,
            max_ring_hops,
        }
    }

    /// Tears down a live deployment: drops it from `live` and releases
    /// each allocation.
    fn retire(&mut self, id: DeploymentId) -> Result<(), RuntimeError> {
        let (_, allocations) = self
            .live
            .remove(&id.0)
            .ok_or(RuntimeError::Hs(HsError::UnknownAllocation(id.0)))?;
        for a in allocations {
            self.llc.release(a)?;
        }
        self.stats.releases += 1;
        Ok(())
    }

    /// The interned index of the instance a live deployment serves; an
    /// HS error for a handle that is no longer live.
    fn live_instance(&self, deployment: &Deployment) -> Result<usize, RuntimeError> {
        self.live
            .get(&deployment.id.0)
            .map(|&(index, _)| index)
            .ok_or(RuntimeError::Hs(HsError::UnknownAllocation(
                deployment.id.0,
            )))
    }

    /// Largest ring distance between any two of `devices`.
    fn ring_diameter(&self, devices: impl Iterator<Item = DeviceId> + Clone) -> usize {
        devices
            .clone()
            .flat_map(|a| devices.clone().map(move |b| self.cluster.ring_hops(a, b)))
            .max()
            .unwrap_or(0)
    }

    /// Writes into `search.max_free` the most free slots any single
    /// placeable device of each type offers right now (indexed like
    /// `type_names`). Computed once per probe;
    /// [`option_may_fit`](Self::option_may_fit) compares unit block counts
    /// against it to reject whole options without the per-device scan.
    fn type_max_free(&mut self) {
        let max_free = &mut self.search.max_free;
        max_free.clear();
        max_free.resize(self.type_names.len(), 0);
        for device in self.cluster.device_ids() {
            let free = self.llc.slots_free(device);
            // Whole-device granularity: a baseline device hosting anything
            // offers nothing, matching the scan's filter below.
            if self.policy == Policy::Baseline && free < self.llc.slots_total(device) {
                continue;
            }
            let t = self.device_type_idx[device.0];
            max_free[t] = max_free[t].max(free);
        }
    }

    /// Necessary condition for instance `index`'s option `option` to
    /// place: every unit fits the best device of at least one eligible
    /// type. Ignores units competing for the same slots, so `true` still
    /// needs the full scan — but a `false` skips it, and under saturation
    /// that is the common case.
    fn option_may_fit(&self, index: usize, option: usize, restrict: Option<usize>) -> bool {
        let max_free = &self.search.max_free;
        self.blocks.units(index, option).all(|row| {
            row.iter()
                .zip(max_free)
                .enumerate()
                .any(|(t, (blocks, &free))| {
                    restrict.is_none_or(|r| r == t) && blocks.is_some_and(|b| b <= free)
                })
        })
    }

    /// Finds devices for each unit of instance `index`'s option `option`
    /// under the active policy, without committing, against the summary
    /// of the last [`type_max_free`](Self::type_max_free). Units are
    /// assigned best-fit (most-loaded feasible device first) with ring
    /// proximity as tie-break. On `true` the devices are in
    /// `search.chosen`, in unit order.
    fn find_placement(&mut self, index: usize, option: usize) -> bool {
        match self.policy {
            // Restricted: try each device type exclusively, in
            // `device_types()` order.
            Policy::Restricted => (0..self.type_names.len()).any(|t| {
                self.option_may_fit(index, option, Some(t))
                    && self.find_placement_with(index, option, Some(t))
            }),
            _ => {
                self.option_may_fit(index, option, None)
                    && self.find_placement_with(index, option, None)
            }
        }
    }

    fn find_placement_with(
        &mut self,
        index: usize,
        option: usize,
        restrict: Option<usize>,
    ) -> bool {
        let SearchScratch { free, chosen, .. } = &mut self.search;
        free.clear();
        free.extend(self.cluster.device_ids().map(|d| self.llc.slots_free(d)));
        chosen.clear();
        for blocks_of in self.blocks.units(index, option) {
            // ((free_after, hops, dev), blocks)
            let mut best: Option<((usize, usize, DeviceId), usize)> = None;
            for device in self.cluster.device_ids() {
                let t = self.device_type_idx[device.0];
                if restrict.is_some_and(|r| r != t) {
                    continue;
                }
                // Whole-device granularity: a baseline device must be
                // untouched.
                if self.policy == Policy::Baseline && free[device.0] != self.llc.slots_total(device)
                {
                    continue;
                }
                let Some(blocks) = blocks_of[t] else {
                    continue;
                };
                if free[device.0] < blocks {
                    continue;
                }
                let free_after = free[device.0] - blocks;
                let hops = chosen
                    .first()
                    .map(|&f| self.cluster.ring_hops(f, device))
                    .unwrap_or(0);
                let key = (free_after, hops, device);
                if best.is_none_or(|(b, _)| key < b) {
                    best = Some((key, blocks));
                }
            }
            let Some(((_, _, device), blocks)) = best else {
                return false;
            };
            free[device.0] -= blocks;
            chosen.push(device);
        }
        true
    }

    /// Releases a deployment, freeing its virtual blocks.
    ///
    /// # Errors
    ///
    /// Returns an HS error for unknown deployments.
    pub fn release(&mut self, deployment: &Deployment) -> Result<(), RuntimeError> {
        self.retire(deployment.id)
    }

    /// Unit count of the largest mapping option strictly smaller than
    /// `deployment` — the variant a preemptive scale-down would land on —
    /// or `None` when the deployment is already minimal, is not live, or
    /// the policy forbids resizing. Lets schedulers rank demotion victims
    /// by how few units each would lose without committing anything.
    pub fn scale_down_target(&self, deployment: &Deployment) -> Option<usize> {
        if self.policy == Policy::Baseline {
            return None;
        }
        let index = self.live_instance(deployment).ok()?;
        self.instances[index]
            .options
            .iter()
            .map(DeploymentOption::num_units)
            .filter(|&u| u < deployment.num_units())
            .max()
    }

    /// Attempts to grow a live deployment to a higher-unit mapping
    /// variant using only currently free capacity. Candidate variants are
    /// ranked co-located-first — smallest `max_ring_hops`, then fewest
    /// distinct devices, then fewest units — and offered to `accept` as a
    /// placed (but uncommitted) [`Deployment`]; the first accepted
    /// candidate is committed. The running allocation is held until the
    /// new footprint is fully configured, so a failed promotion never
    /// risks the task: a transient reconfiguration fault rolls back the
    /// new units and returns `Ok(None)` with the old deployment intact.
    ///
    /// On success the old allocation is released (bumping the capacity
    /// epoch) and the new deployment — with a fresh id — is returned.
    /// Returns `Ok(None)` when no larger variant fits, none is accepted,
    /// or the policy forbids resizing.
    ///
    /// # Errors
    ///
    /// Returns [`HsError::UnknownAllocation`] when the deployment is not
    /// live (before configuring anything), and propagates hard HS errors
    /// (after rolling back any units configured for the candidate).
    pub fn promote_deployment(
        &mut self,
        deployment: &Deployment,
        accept: &mut dyn FnMut(&Deployment) -> bool,
        ctx: Option<SpanCtx<'_>>,
    ) -> Result<Option<Deployment>, RuntimeError> {
        if self.policy == Policy::Baseline || deployment.installed_instance.is_some() {
            return Ok(None);
        }
        // A stale handle must fail before anything is configured for it.
        let index = self.live_instance(deployment)?;
        let mut promotion = std::mem::take(&mut self.promotion);
        let promoted = self.promote_with(&mut promotion, deployment, index, accept, ctx);
        self.promotion = promotion;
        promoted
    }

    /// [`promote_deployment`](Self::promote_deployment) of a live
    /// deployment of instance `index`, ranking in `promotion`'s buffers.
    fn promote_with(
        &mut self,
        promotion: &mut PromotionScratch,
        deployment: &Deployment,
        index: usize,
        accept: &mut dyn FnMut(&Deployment) -> bool,
        ctx: Option<SpanCtx<'_>>,
    ) -> Result<Option<Deployment>, RuntimeError> {
        let PromotionScratch {
            candidates,
            pool,
            phantom,
        } = promotion;
        let entry = Arc::clone(&self.instances[index]);
        self.type_max_free();
        // Rank every placeable larger variant before committing anything:
        // all placements are computed against the same free state, and a
        // rolled-back transient leaves that state unchanged, so the
        // ranking stays valid across commit attempts.
        candidates.clear();
        pool.clear();
        for (o, option) in entry.options.iter().enumerate() {
            if option.num_units() <= deployment.num_units() {
                continue;
            }
            if !self.find_placement(index, o) {
                continue;
            }
            let devices = &self.search.chosen;
            candidates.push(Candidate {
                hops: self.ring_diameter(devices.iter().copied()),
                // Each device counts at its first unit.
                distinct: (0..devices.len())
                    .filter(|&k| !devices[..k].contains(&devices[k]))
                    .count(),
                units: option.num_units(),
                option: o,
                first: pool.len(),
            });
            pool.extend_from_slice(devices);
        }
        candidates.sort_by_key(|c| (c.hops, c.distinct, c.units));
        // Candidates are offered as one reused phantom carrying the
        // running deployment's id: service-time models read devices,
        // shares, and link shape, and nothing is configured until the
        // caller accepts.
        phantom.id = deployment.id;
        for c in candidates.iter() {
            let option = &entry.options[c.option];
            let devices = &pool[c.first..c.first + c.units];
            let placements = devices
                .iter()
                .zip(&option.units)
                .map(|(&device, unit)| Placement {
                    device,
                    compute_share: unit.compute_share,
                });
            phantom.placements.clear();
            phantom.placements.extend(placements);
            phantom.crossings_per_op = option.crossings_per_op;
            phantom.cut_bandwidth = option.cut_bandwidth;
            phantom.max_ring_hops = c.hops;
            if !accept(phantom) {
                continue;
            }
            // A rolled-back candidate leaves the running deployment
            // untouched.
            let Some(allocations) = self.configure_units(option, devices, ctx)? else {
                return Ok(None);
            };
            // The new footprint is in place: swap the old one out.
            self.retire(deployment.id)?;
            self.stats.deploys += 1;
            return Ok(Some(self.install(index, option, devices, allocations)));
        }
        Ok(None)
    }

    /// Preemptively shrinks a live deployment to the largest strictly
    /// smaller mapping variant (fewest lost units), freeing capacity for
    /// queued work. Unlike promotion the old allocation is released
    /// *first* — the smaller variant re-places into the superset the
    /// release opens up, so the demotion itself can never be blocked by
    /// the deployment it shrinks. Progressively smaller variants are
    /// tried if a commit flakes; if every one fails the deployment is
    /// gone and [`ScaleDown::Displaced`] tells the caller to route the
    /// task through its interruption/migration machinery.
    ///
    /// # Errors
    ///
    /// Returns [`HsError::UnknownAllocation`] when the deployment is not
    /// live, whether or not a smaller variant exists, and propagates hard
    /// HS errors.
    pub fn demote_deployment(
        &mut self,
        deployment: &Deployment,
        mut ctx: Option<SpanCtx<'_>>,
    ) -> Result<ScaleDown, RuntimeError> {
        if self.policy == Policy::Baseline || deployment.installed_instance.is_some() {
            return Ok(ScaleDown::AlreadyMinimal);
        }
        let index = self.live_instance(deployment)?;
        let entry = Arc::clone(&self.instances[index]);
        let mut smaller: Vec<usize> = (0..entry.options.len())
            .filter(|&o| entry.options[o].num_units() < deployment.num_units())
            .collect();
        if smaller.is_empty() {
            return Ok(ScaleDown::AlreadyMinimal);
        }
        smaller.sort_by_key(|&o| std::cmp::Reverse(entry.options[o].num_units()));
        self.retire(deployment.id)?;
        for o in smaller {
            // Free state changed at the release (and stays changed after
            // a rolled-back transient), so re-summarize per candidate.
            self.type_max_free();
            if !self.find_placement(index, o) {
                continue;
            }
            let ctx = ctx.as_mut().map(|c| c.reborrow());
            let Some(demoted) = self.commit_chosen(index, &entry.options[o], ctx)? else {
                continue;
            };
            self.stats.deploys += 1;
            return Ok(ScaleDown::Demoted(demoted));
        }
        Ok(ScaleDown::Displaced)
    }

    /// The lowest virtual-block slot of a live deployment's first unit;
    /// `None` once it is released or interrupted. The trace exporter
    /// renders the deployment's compute phases on this `vblock` lane.
    pub fn first_slot(&self, deployment: &Deployment) -> Option<usize> {
        let (_, allocations) = self.live.get(&deployment.id.0)?;
        self.llc.slots_of(*allocations.first()?)?.first().copied()
    }

    /// Cluster-wide virtual-block occupancy (0..=1).
    pub fn occupancy(&self) -> f64 {
        self.llc.occupancy()
    }

    /// Number of live deployments.
    pub fn live_deployments(&self) -> usize {
        self.live.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::small_db;
    use vfpga_sim::{SimTime, SpanTracer, SpanValue, TraceId};

    #[test]
    fn deploy_release_roundtrip() {
        let (cluster, db) = small_db();
        let mut c = SystemController::new(cluster, db, Policy::Full);
        let tiny = c.instance_id("tiny").unwrap();
        assert_eq!(c.live_deployments(), 0);
        let d = c.try_deploy(tiny, None).unwrap().unwrap();
        assert_eq!(d.num_units(), 1);
        assert!(c.occupancy() > 0.0);
        assert_eq!(c.live_deployments(), 1);
        c.release(&d).unwrap();
        assert_eq!(c.occupancy(), 0.0);
        // Double release is an error.
        assert!(c.release(&d).is_err());
    }

    #[test]
    fn unknown_instance_is_an_error() {
        let (cluster, db) = small_db();
        let c = SystemController::new(cluster, db, Policy::Full);
        assert!(matches!(
            c.instance_id("ghost"),
            Err(RuntimeError::UnknownInstance(name)) if name == "ghost"
        ));
    }

    #[test]
    fn foreign_or_out_of_range_instance_ids_are_typed_errors() {
        let (cluster, db) = small_db();
        let mut c = SystemController::new(cluster.clone(), db.clone(), Policy::Full);
        let mut other = SystemController::new(cluster, db, Policy::Full);
        let tiny = c.instance_id("tiny").unwrap();
        assert_eq!(c.instance_name(tiny).unwrap(), "tiny");
        // Same database, same name, different controller: not interchangeable.
        let foreign = other.instance_id("tiny").unwrap();
        assert_ne!(tiny, foreign);
        assert!(matches!(
            c.try_deploy(foreign, None),
            Err(RuntimeError::InvalidInstanceId { instances: 2, .. })
        ));
        assert!(matches!(
            other.try_deploy(tiny, None),
            Err(RuntimeError::InvalidInstanceId { .. })
        ));
        assert!(c.instance_name(foreign).is_err());
        // An index past the database is rejected the same way.
        let out_of_range = InstanceId { index: 2, ..tiny };
        assert!(matches!(
            c.try_deploy(out_of_range, None),
            Err(RuntimeError::InvalidInstanceId {
                index: 2,
                instances: 2
            })
        ));
        assert!(matches!(
            c.try_deploy(c.instance_at(u32::MAX), None),
            Err(RuntimeError::InvalidInstanceId { .. })
        ));
        // Nothing was attempted, and the controller still deploys.
        assert_eq!(c.stats().probes + c.stats().cache_hits, 0);
        assert!(c.try_deploy(tiny, None).unwrap().is_ok());
    }

    #[test]
    fn greedy_prefers_fewest_fpgas() {
        let (cluster, db) = small_db();
        let mut c = SystemController::new(cluster, db, Policy::Full);
        let big = c.instance_id("big").unwrap();
        // With a completely free cluster, even the big instance takes the
        // single-FPGA option.
        let d = c.try_deploy(big, None).unwrap().unwrap();
        assert_eq!(d.num_units(), 1);
    }

    #[test]
    fn baseline_serializes_on_devices() {
        let (cluster, db) = small_db();
        let n = cluster.len();
        let mut c = SystemController::new(cluster, db, Policy::Baseline);
        let tiny = c.instance_id("tiny").unwrap();
        let mut held = Vec::new();
        while let Ok(d) = c.try_deploy(tiny, None).unwrap() {
            held.push(d);
            assert!(held.len() <= n, "baseline cannot exceed one per device");
        }
        assert_eq!(held.len(), n);
        // Releasing one admits exactly one more.
        let d = held.pop().unwrap();
        c.release(&d).unwrap();
        assert!(c.try_deploy(tiny, None).unwrap().is_ok());
        assert!(c.try_deploy(tiny, None).unwrap().is_err());
    }

    #[test]
    fn full_policy_packs_multiple_tenants() {
        let (cluster, db) = small_db();
        let n = cluster.len();
        let mut c = SystemController::new(cluster, db, Policy::Full);
        let tiny = c.instance_id("tiny").unwrap();
        let mut held = Vec::new();
        while let Ok(d) = c.try_deploy(tiny, None).unwrap() {
            held.push(d);
            assert!(held.len() < 100);
        }
        assert!(held.len() > n, "sharing should beat one-per-device");
    }

    #[test]
    fn full_policy_reports_capacity_exhaustion() {
        let (cluster, db) = small_db();
        let mut c = SystemController::new(cluster, db, Policy::Full);
        let big = c.instance_id("big").unwrap();
        let mut held = Vec::new();
        loop {
            match c.try_deploy(big, None).unwrap() {
                Ok(d) => held.push(d),
                Err(reason) => {
                    // The full policy never excludes an option and has no
                    // provisioning: only capacity can turn it down.
                    assert_eq!(reason, RejectReason::InsufficientCapacity);
                    break;
                }
            }
            assert!(held.len() < 100);
        }
        assert_eq!(c.stats().deploys, held.len() as u64);
        assert_eq!(c.stats().rejects_for(RejectReason::InsufficientCapacity), 1);
        assert_eq!(c.stats().total_rejects(), 1);
        for d in &held {
            c.release(d).unwrap();
        }
        assert_eq!(c.stats().releases, held.len() as u64);
        // Capacity is back.
        assert!(c.try_deploy(big, None).unwrap().is_ok());
    }

    #[test]
    fn provisioned_baseline_reports_no_free_device() {
        let (cluster, db) = small_db();
        let n = cluster.len();
        let prov = vec!["tiny".to_string(); n];
        let mut c = SystemController::new(cluster, db, Policy::Baseline)
            .with_provisioning(prov)
            .unwrap();
        let tiny = c.instance_id("tiny").unwrap();
        for _ in 0..n {
            assert!(c.try_deploy(tiny, None).unwrap().is_ok());
        }
        let rejected = c.try_deploy(tiny, None).unwrap().unwrap_err();
        assert_eq!(rejected, RejectReason::NoFreeDevice);
        assert_eq!(c.stats().rejects_for(RejectReason::NoFreeDevice), 1);
    }

    #[test]
    fn provisioning_with_the_wrong_length_is_an_error() {
        let (cluster, db) = small_db();
        let n = cluster.len();
        let c = SystemController::new(cluster, db, Policy::Baseline);
        assert!(matches!(
            c.with_provisioning(vec!["tiny".to_string(); n + 1]),
            Err(RuntimeError::ProvisioningSize { devices, instances })
                if devices == n && instances == n + 1
        ));
    }

    #[test]
    fn provisioning_an_unknown_instance_is_an_error() {
        let (cluster, db) = small_db();
        let mut prov = vec!["tiny".to_string(); cluster.len()];
        prov[1] = "ghost".to_string();
        let c = SystemController::new(cluster, db, Policy::Baseline);
        assert!(matches!(
            c.with_provisioning(prov),
            Err(RuntimeError::UnknownInstance(name)) if name == "ghost"
        ));
    }

    #[test]
    fn provisioning_an_instance_without_a_single_unit_image_is_an_error() {
        use vfpga_core::MappingEntry;

        let (cluster, mut db) = small_db();
        let big = db.entry("big").unwrap().clone();
        db.register_entry(MappingEntry {
            name: "huge".to_string(),
            options: big
                .options
                .into_iter()
                .filter(|o| o.num_units() > 1)
                .collect(),
            ..big
        });
        let mut prov = vec!["tiny".to_string(); cluster.len()];
        prov[0] = "huge".to_string();
        let c = SystemController::new(cluster, db, Policy::Baseline);
        assert!(matches!(
            c.with_provisioning(prov),
            Err(RuntimeError::UnplaceableProvision { instance, device: 0, .. })
                if instance == "huge"
        ));
    }

    #[test]
    fn baseline_reports_policy_exclusion_for_multi_unit_only_entries() {
        use vfpga_core::MappingEntry;

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
        // Baseline filters out every option — even on an idle cluster.
        let mut base = SystemController::new(cluster.clone(), db2.clone(), Policy::Baseline);
        let huge = base.instance_id("huge").unwrap();
        let rejected = base.try_deploy(huge, None).unwrap().unwrap_err();
        assert_eq!(rejected, RejectReason::PolicyExcluded);
        assert_eq!(base.stats().rejects_for(RejectReason::PolicyExcluded), 1);
        // The full policy deploys the same entry fine.
        let mut full = SystemController::new(cluster, db2, Policy::Full);
        let huge = full.instance_id("huge").unwrap();
        let d = full.try_deploy(huge, None).unwrap().unwrap();
        assert!(d.num_units() > 1);
    }

    #[test]
    fn double_release_keeps_accounting_intact() {
        let (cluster, db) = small_db();
        let mut c = SystemController::new(cluster, db, Policy::Full);
        let tiny = c.instance_id("tiny").unwrap();
        let d1 = c.try_deploy(tiny, None).unwrap().unwrap();
        let d2 = c.try_deploy(tiny, None).unwrap().unwrap();
        let occupancy_one = {
            c.release(&d1).unwrap();
            c.occupancy()
        };
        // Releasing the same deployment again: a well-formed error that
        // neither panics nor double-frees slots.
        assert!(matches!(c.release(&d1), Err(RuntimeError::Hs(_))));
        assert_eq!(c.occupancy(), occupancy_one);
        assert_eq!(c.live_deployments(), 1);
        assert_eq!(c.stats().releases, 1);
        c.release(&d2).unwrap();
        assert_eq!(c.occupancy(), 0.0);
        // The controller still deploys fine afterwards.
        assert!(c.try_deploy(tiny, None).unwrap().is_ok());
    }

    #[test]
    fn device_failure_interrupts_and_recovery_readmits() {
        let (cluster, db) = small_db();
        let mut c = SystemController::new(cluster, db, Policy::Full);
        let tiny = c.instance_id("tiny").unwrap();
        // Deploy until something lands on device 0.
        let mut held = Vec::new();
        loop {
            let d = c.try_deploy(tiny, None).unwrap().expect("capacity");
            let on_zero = d.placements.iter().any(|p| p.device == DeviceId(0));
            held.push(d);
            if on_zero {
                break;
            }
            assert!(held.len() < 100);
        }
        let live_before = c.live_deployments();
        let interrupted = c.handle_device_failure(DeviceId(0), None);
        assert!(!interrupted.is_empty());
        assert!(interrupted.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(c.live_deployments(), live_before - interrupted.len());
        // The eviction invariant: nothing lives on the failed device.
        assert_eq!(c.allocations_on(DeviceId(0)), 0);
        assert_eq!(c.failed_devices(), 1);
        // Interrupted deployments are gone: releasing one is an error.
        let gone = held
            .iter()
            .find(|d| interrupted.contains(&d.id))
            .expect("interrupted deployment in held set");
        assert!(c.release(gone).is_err());
        // Idempotent: a second failure of the same device is a no-op.
        assert!(c.handle_device_failure(DeviceId(0), None).is_empty());
        // New placements avoid the failed device.
        let d = c
            .try_deploy(tiny, None)
            .unwrap()
            .expect("survivors have room");
        assert!(d.placements.iter().all(|p| p.device != DeviceId(0)));
        c.handle_device_recovery(DeviceId(0));
        assert_eq!(c.failed_devices(), 0);
    }

    #[test]
    fn all_devices_failed_rejects_without_panicking() {
        let (cluster, db) = small_db();
        let n = cluster.len();
        let mut c = SystemController::new(cluster, db, Policy::Full);
        let tiny = c.instance_id("tiny").unwrap();
        for i in 0..n {
            c.handle_device_failure(DeviceId(i), None);
        }
        assert_eq!(c.occupancy(), 0.0);
        let rejected = c.try_deploy(tiny, None).unwrap().unwrap_err();
        assert_eq!(rejected, RejectReason::InsufficientCapacity);
    }

    #[test]
    fn transient_faults_surface_as_soft_rejections() {
        let (cluster, db) = small_db();
        let mut c = SystemController::new(cluster, db, Policy::Full);
        let tiny = c.instance_id("tiny").unwrap();
        c.enable_transient_faults(1.0, 7);
        let rejected = c.try_deploy(tiny, None).unwrap().unwrap_err();
        assert_eq!(rejected, RejectReason::TransientFault);
        assert_eq!(c.stats().rejects_for(RejectReason::TransientFault), 1);
        // Nothing leaked: the rolled-back attempt left the cluster empty.
        assert_eq!(c.occupancy(), 0.0);
        assert_eq!(c.live_deployments(), 0);
        c.enable_transient_faults(0.0, 0);
        assert!(c.try_deploy(tiny, None).unwrap().is_ok());
    }

    #[test]
    fn spanned_deploy_records_decision_and_reconfigures() {
        let (cluster, db) = small_db();
        let mut c = SystemController::new(cluster, db, Policy::Full);
        let tiny = c.instance_id("tiny").unwrap();
        let big = c.instance_id("big").unwrap();
        let mut spans = SpanTracer::new();
        let at = SimTime::from_us(10.0);
        let root = spans.begin("task", TraceId(0), None, SimTime::ZERO);
        let d = c
            .try_deploy(tiny, spans.ctx(TraceId(0), Some(root), at))
            .unwrap()
            .unwrap();
        // One deploy span with nested reconfigure children, all closed.
        let deploy = spans
            .spans()
            .iter()
            .find(|s| s.name == "deploy")
            .expect("deploy span");
        assert_eq!(deploy.parent, Some(root));
        assert!(deploy.attr_is("outcome", "deployed"));
        assert_eq!((deploy.begin, deploy.end), (at, Some(at)));
        let reconfigures: Vec<_> = spans
            .spans()
            .iter()
            .filter(|s| s.name == "reconfigure")
            .collect();
        assert_eq!(reconfigures.len(), d.num_units());
        for r in &reconfigures {
            assert_eq!(r.parent, Some(deploy.id));
            assert!(r.attr_is("outcome", "configured"));
            assert!(r.lane.is_some(), "reconfigure pinned to a device lane");
        }
        assert_eq!(spans.open_count(), 1, "only the root stays open");
        // The lane's thread id matches the allocation's first slot.
        let first_slot = c.first_slot(&d).unwrap();
        assert_eq!(
            reconfigures[0].lane,
            Some((d.placements[0].device.0 as u64 + 1, first_slot as u64))
        );
        // A rejection records the reason label.
        let mut held = vec![d];
        while let Ok(d) = c.try_deploy(big, spans.ctx(TraceId(1), None, at)).unwrap() {
            held.push(d);
            assert!(held.len() < 100);
        }
        let rejected = spans.spans().iter().rfind(|s| s.name == "deploy").unwrap();
        assert!(rejected.attr_is("outcome", "rejected"));
        assert!(rejected.attr_is("reason", "insufficient_capacity"));
        // Stats agree with the unspanned path's accounting.
        assert_eq!(c.stats().deploys, held.len() as u64);
        assert_eq!(c.stats().rejects_for(RejectReason::InsufficientCapacity), 1);
    }

    #[test]
    fn reconfigure_spans_record_outcome_and_lane() {
        let (cluster, db) = small_db();
        let mut c = SystemController::new(cluster, db, Policy::Full);
        let tiny = c.instance_id("tiny").unwrap();
        let mut spans = SpanTracer::new();
        let at = SimTime::from_us(3.0);
        let d = c
            .try_deploy(tiny, spans.ctx(TraceId(5), None, at))
            .unwrap()
            .unwrap();
        let unit = &d.placements[0];
        let first = c.first_slot(&d).unwrap();
        let span = spans.span(vfpga_sim::SpanId(1));
        assert_eq!(span.name, "reconfigure");
        assert_eq!(span.trace, TraceId(5));
        assert_eq!(span.parent, Some(vfpga_sim::SpanId(0)), "under the deploy");
        assert_eq!((span.begin, span.end), (at, Some(at)), "zero duration");
        assert!(
            matches!(span.attr("device"), Some(SpanValue::U64(n)) if *n == unit.device.0 as u64)
        );
        assert!(matches!(span.attr("blocks"), Some(SpanValue::U64(n)) if *n > 0));
        assert!(matches!(span.attr("slot"), Some(SpanValue::U64(n)) if *n == first as u64));
        assert!(span.attr_is("outcome", "configured"));
        assert_eq!(
            span.lane,
            Some((unit.device.0 as u64 + 1, first as u64)),
            "fpga process, vblock thread"
        );
        // A failing configure records the error label on the control lane.
        c.enable_transient_faults(1.0, 7);
        let before = spans.len();
        assert!(c
            .try_deploy(tiny, spans.ctx(TraceId(6), None, at))
            .unwrap()
            .is_err());
        let span = spans
            .spans()
            .iter()
            .skip(before)
            .find(|s| s.name == "reconfigure")
            .expect("rolled-back reconfigure span");
        assert!(span.attr_is("outcome", "failed"));
        assert!(span.attr_is("error", "transient_configure_failure"));
        let device = match span.attr("device") {
            Some(SpanValue::U64(n)) => *n,
            other => panic!("device attribute {other:?}"),
        };
        assert_eq!(span.lane, Some((device + 1, CONTROL_TID)));
        // `None` traces nothing.
        let before = spans.len();
        let _ = c.try_deploy(tiny, None).unwrap();
        assert_eq!(spans.len(), before);
    }

    #[test]
    fn a_released_handle_is_refused_on_every_resize_path() {
        let (cluster, db) = small_db();
        let mut c = SystemController::new(cluster, db, Policy::Full);
        let big = c.instance_id("big").unwrap();
        // A minimal (one-unit) deployment, and a grown one that has a
        // smaller variant to fall back to.
        let minimal = c.try_deploy(big, None).unwrap().unwrap();
        assert_eq!(minimal.num_units(), 1);
        assert_eq!(c.scale_down_target(&minimal), None);
        let d = c.try_deploy(big, None).unwrap().unwrap();
        let grown = c
            .promote_deployment(&d, &mut |_| true, None)
            .unwrap()
            .expect("an idle cluster fits a larger variant");
        assert!(c.scale_down_target(&grown).is_some());
        for stale in [minimal, grown] {
            c.release(&stale).unwrap();
            let (stats, occupancy, live) = (*c.stats(), c.occupancy(), c.live_deployments());
            let unknown = |e: &RuntimeError| {
                let id = stale.id.0;
                matches!(e, RuntimeError::Hs(HsError::UnknownAllocation(i)) if *i == id)
            };
            assert_eq!(c.scale_down_target(&stale), None);
            let promoted = c
                .promote_deployment(&stale, &mut |_| true, None)
                .unwrap_err();
            assert!(unknown(&promoted), "{promoted:?}");
            let demoted = c.demote_deployment(&stale, None).unwrap_err();
            assert!(unknown(&demoted), "{demoted:?}");
            // Refused before anything was configured or counted.
            assert_eq!(*c.stats(), stats);
            assert_eq!(c.occupancy(), occupancy);
            assert_eq!(c.live_deployments(), live);
        }
        assert_eq!(c.live_deployments(), 0);
    }

    #[test]
    fn spanned_device_failure_records_interrupted_count() {
        let (cluster, db) = small_db();
        let mut c = SystemController::new(cluster, db, Policy::Full);
        let tiny = c.instance_id("tiny").unwrap();
        let mut spans = SpanTracer::new();
        let mut held = Vec::new();
        loop {
            let d = c.try_deploy(tiny, None).unwrap().expect("capacity");
            let on_zero = d.placements.iter().any(|p| p.device == DeviceId(0));
            held.push(d);
            if on_zero {
                break;
            }
            assert!(held.len() < 100);
        }
        let at = SimTime::from_us(25.0);
        let interrupted = c.handle_device_failure(DeviceId(0), spans.ctx(TraceId::NONE, None, at));
        assert!(!interrupted.is_empty());
        let span = spans.span(vfpga_sim::SpanId(0));
        assert_eq!(span.name, "device_failure");
        assert_eq!(span.trace, TraceId::NONE);
        assert_eq!(span.lane, Some((1, CONTROL_TID)));
        assert!(matches!(span.attr("device"), Some(SpanValue::U64(0))));
        assert!(matches!(
            span.attr("interrupted"),
            Some(SpanValue::U64(n)) if *n == interrupted.len() as u64
        ));
        assert_eq!(spans.open_count(), 0);
    }

    #[test]
    fn feasibility_cache_replays_rejections_until_epoch_changes() {
        let (cluster, db) = small_db();
        let mut c = SystemController::new(cluster, db, Policy::Full);
        let big = c.instance_id("big").unwrap();
        let mut held = Vec::new();
        while let Ok(d) = c.try_deploy(big, None).unwrap() {
            held.push(d);
            assert!(held.len() < 100);
        }
        let probes_after_fill = c.stats().probes;
        assert_eq!(c.stats().cache_hits, 0, "no repeats yet");
        // Saturated: further attempts replay the cached rejection without
        // probing, and the reason is stable.
        for _ in 0..5 {
            let rejected = c.try_deploy(big, None).unwrap().unwrap_err();
            assert_eq!(rejected, RejectReason::InsufficientCapacity);
        }
        assert_eq!(c.stats().probes, probes_after_fill);
        assert_eq!(c.stats().cache_hits, 5);
        // Attempt-level rejection counters still tick per attempt.
        assert_eq!(
            c.stats().rejects_for(RejectReason::InsufficientCapacity),
            6,
            "the probed rejection plus five cached replays"
        );
        // A release bumps the epoch: the next attempt probes again and
        // succeeds.
        c.release(&held.pop().unwrap()).unwrap();
        assert!(c.try_deploy(big, None).unwrap().is_ok());
        assert!(c.stats().probes > probes_after_fill);
    }

    #[test]
    fn cached_replay_records_the_probed_rejection() {
        // Two identical saturated controllers with flaky reconfiguration:
        // one records a probed capacity rejection and its cached replay,
        // the twin makes neither attempt.
        let (cluster, db) = small_db();
        let saturated = || {
            let mut c = SystemController::new(cluster.clone(), db.clone(), Policy::Full);
            let big = c.instance_id("big").unwrap();
            let mut held = Vec::new();
            while let Ok(d) = c.try_deploy(big, None).unwrap() {
                held.push(d);
            }
            // A fresh epoch, refilled, so the next rejection probes.
            c.release(&held.pop().unwrap()).unwrap();
            held.push(c.try_deploy(big, None).unwrap().unwrap());
            c.enable_transient_faults(0.5, 7);
            (c, held)
        };
        let (mut c, mut held) = saturated();
        let (mut twin, mut twin_held) = saturated();
        let (big, tiny) = (
            c.instance_id("big").unwrap(),
            c.instance_id("tiny").unwrap(),
        );
        let twin_tiny = twin.instance_id("tiny").unwrap();
        let mut spans = SpanTracer::new();
        let at = SimTime::from_us(5.0);
        let probes = c.stats().probes;
        for _ in 0..2 {
            let rejected = c.try_deploy(big, spans.ctx(TraceId(0), None, at)).unwrap();
            assert_eq!(rejected.unwrap_err(), RejectReason::InsufficientCapacity);
        }
        assert_eq!(c.stats().probes, probes + 1, "the second attempt replays");
        assert_eq!(c.stats().cache_hits, 1);
        // The replay records the same deploy span as the probe, and
        // neither has reconfigure children.
        let deploys = spans.spans();
        assert_eq!(deploys.len(), 2, "two deploy spans, no reconfigures");
        assert!(deploys.iter().all(|s| s.name == "deploy"));
        assert_eq!(deploys[0].attrs, deploys[1].attrs);
        assert_eq!(
            (deploys[0].begin, deploys[0].end),
            (deploys[1].begin, deploys[1].end)
        );
        // Neither drew from the fault injector: from here on both
        // controllers see the same transient-fault sequence.
        c.release(&held.pop().unwrap()).unwrap();
        twin.release(&twin_held.pop().unwrap()).unwrap();
        for i in 0..8 {
            let a = c.try_deploy(tiny, None).unwrap();
            let b = twin.try_deploy(twin_tiny, None).unwrap();
            assert_eq!(
                a.as_ref().map(|d| d.placements[0].device),
                b.as_ref().map(|d| d.placements[0].device),
                "attempt {i}"
            );
        }
        assert!(c.stats().rejects_for(RejectReason::TransientFault) > 0);
    }

    #[test]
    fn capacity_epoch_bumps_on_every_capacity_changing_operation() {
        let (cluster, db) = small_db();
        let mut c = SystemController::new(cluster, db, Policy::Full);
        let tiny = c.instance_id("tiny").unwrap();
        let e0 = c.capacity_epoch();
        let d = c.try_deploy(tiny, None).unwrap().unwrap();
        assert_eq!(
            c.capacity_epoch(),
            e0,
            "a configure only shrinks capacity and must not open an epoch"
        );
        c.release(&d).unwrap();
        let e1 = c.capacity_epoch();
        assert!(e1 > e0, "release opens an epoch");
        c.handle_device_failure(DeviceId(0), None);
        let e2 = c.capacity_epoch();
        assert!(e2 > e1, "eviction opens an epoch");
        // Idempotent re-failure does not.
        c.handle_device_failure(DeviceId(0), None);
        assert_eq!(c.capacity_epoch(), e2);
        c.handle_device_recovery(DeviceId(0));
        let e3 = c.capacity_epoch();
        assert!(e3 > e2, "recovery opens an epoch");
        c.handle_device_recovery(DeviceId(0));
        assert_eq!(
            c.capacity_epoch(),
            e3,
            "recovering a healthy device is a no-op"
        );
    }

    #[test]
    fn capacity_pressure_falls_back_to_more_units() {
        let (cluster, db) = small_db();
        let mut c = SystemController::new(cluster, db, Policy::Full);
        let big = c.instance_id("big").unwrap();
        // Fill the cluster with big tenants until a multi-unit deployment
        // appears or capacity runs out.
        let mut saw_multi = false;
        let mut held = Vec::new();
        while let Ok(d) = c.try_deploy(big, None).unwrap() {
            saw_multi |= d.num_units() > 1;
            held.push(d);
            if held.len() > 16 {
                break;
            }
        }
        assert!(
            saw_multi || held.len() >= 3,
            "pressure should trigger multi-unit or fill the big devices"
        );
    }
}
