//! # vfpga-runtime — the runtime management system
//!
//! The top layer of the framework (Section 2.3): a **system controller**
//! that owns the mapping database and allocates physical FPGAs to deploy
//! decomposed accelerators, sending configuration requests to the HS
//! abstraction's low-level controller (Fig. 7).
//!
//! * [`SystemController`] — deployment/release with the paper's **greedy
//!   policy** (scan mapping results by ascending soft-block count, i.e.
//!   fewest FPGAs first, minimizing inter-FPGA communication), plus the two
//!   comparison policies of the evaluation: [`Policy::Baseline`] (AS ISA
//!   only: one whole FPGA per accelerator, the paper's baseline system) and
//!   [`Policy::Restricted`] (multi-FPGA deployments confined to devices of
//!   one type, emulating the homogeneous-only multi-FPGA support of
//!   existing HS abstractions — the Fig. 12 middle bar).
//! * [`run_cloud_sim`] — the discrete-event simulation of the cluster
//!   serving a workload set: arrivals queue, deploy, run, release;
//!   aggregated throughput in tasks/second is Fig. 12's metric. Every run
//!   returns a fully instrumented [`CloudReport`]: latency percentiles,
//!   occupancy/queue-depth time series, rejection-reason breakdowns (see
//!   [`RejectReason`]), a metrics registry, and a scheduler-event trace —
//!   with the accounting invariant `completed + never_deployed + lost ==
//!   arrivals` (queued tasks are never silently dropped).
//! * [`run_cloud_sim_tuned`] — the same simulation interleaved with a
//!   [`vfpga_sim::FaultPlan`]'s device fail/recover waves: interrupted
//!   deployments migrate to surviving devices with bounded exponential
//!   backoff (see [`RecoveryPolicy`]), falling back to deeper partition
//!   variants when the original footprint no longer fits, and the report
//!   gains recovery accounting (interruptions, migrations, mean
//!   time-to-recovery, degraded-mode occupancy); its [`AdmissionTuning`]
//!   switches span recording, elasticity and streaming telemetry.
//! * [`co_simulate_timing`]/[`co_simulate_functional`] — coupled simulation
//!   of scaled-down accelerators exchanging state over the inter-FPGA ring,
//!   with a configurable added link latency (the paper's programmable
//!   latency-insertion module) — the machinery behind Fig. 11.

mod cloudsim;
mod controller;
mod monitor;
mod record;
mod scaleout_sim;
#[cfg(test)]
mod testutil;

pub use cloudsim::{
    run_cloud_sim, run_cloud_sim_tuned, AdmissionTuning, CloudReport, ElasticityPolicy,
    RecoveryPolicy, DEFAULT_TRACE_CAPACITY,
};
pub use controller::{
    ControllerStats, Deployment, DeploymentId, InstanceId, Placement, Policy, RejectReason,
    ScaleDown, SystemController,
};
pub use monitor::{MonitorConfig, MonitorReport};
pub use record::{Interruption, Lane, SimEvent};
pub use scaleout_sim::{
    co_simulate_functional, co_simulate_timing, co_simulate_timing_faulted, LinkChaos,
    ScaleOutTiming,
};

use std::fmt;

/// Errors from the runtime layer.
#[derive(Debug)]
pub enum RuntimeError {
    /// The instance is not in the mapping database.
    UnknownInstance(String),
    /// An [`InstanceId`] this controller did not issue: interned by
    /// another controller, or out of range for this one's database.
    InvalidInstanceId {
        /// The id's database index.
        index: u32,
        /// Instances in this controller's database.
        instances: usize,
    },
    /// Static provisioning named a different number of instances than the
    /// cluster has devices.
    ProvisioningSize {
        /// Devices in the cluster.
        devices: usize,
        /// Instances provisioned.
        instances: usize,
    },
    /// A provisioned instance has no single-unit image for its device's
    /// type.
    UnplaceableProvision {
        /// The instance.
        instance: String,
        /// Index of the device it was provisioned onto.
        device: usize,
        /// That device's type.
        device_type: String,
    },
    /// The HS abstraction rejected a configuration request.
    Hs(vfpga_hsabs::HsError),
    /// Communicating machines deadlocked (each waiting on the other).
    Deadlock {
        /// Machines still blocked when progress stopped.
        blocked: usize,
    },
    /// Communicating machines starved on messages that were sent but can
    /// never be delivered (the link failed for good, retransmissions were
    /// exhausted, or delivery would pass the deadline).
    Timeout {
        /// Machines still blocked when progress stopped.
        blocked: usize,
    },
    /// A functional co-simulation was given a different number of
    /// programs than machines.
    MachineCount {
        /// Machines to co-simulate.
        machines: usize,
        /// Programs supplied for them.
        programs: usize,
    },
    /// A functional simulation error during co-simulation.
    Sim(Box<dyn std::error::Error>),
    /// The cloud simulator's books say a task runs that holds no
    /// deployment: a completion, interruption or resize found it idle.
    TaskNotRunning {
        /// The task's arrival index.
        task: usize,
    },
    /// The controller interrupted a live deployment that serves no task
    /// the cloud simulator is running.
    UntrackedDeployment {
        /// The deployment's id.
        deployment: u64,
    },
    /// The cloud simulator's event queue drained while tasks still held
    /// deployments: their completions were never scheduled.
    RunningAfterDrain {
        /// The lowest arrival index among the tasks still running.
        task: usize,
        /// Tasks still running.
        running: usize,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::UnknownInstance(name) => {
                write!(f, "instance `{name}` not in mapping database")
            }
            RuntimeError::InvalidInstanceId { index, instances } => write!(
                f,
                "instance id #{index} was not issued by this controller ({instances} instances)"
            ),
            RuntimeError::ProvisioningSize { devices, instances } => write!(
                f,
                "provisioned {instances} instances for a cluster of {devices} devices"
            ),
            RuntimeError::UnplaceableProvision {
                instance,
                device,
                device_type,
            } => write!(
                f,
                "provisioned instance `{instance}` has no single-unit image for device {device} ({device_type})"
            ),
            RuntimeError::Hs(e) => write!(f, "hs abstraction error: {e}"),
            RuntimeError::Deadlock { blocked } => {
                write!(f, "scale-out deadlock with {blocked} machines blocked")
            }
            RuntimeError::Timeout { blocked } => {
                write!(
                    f,
                    "scale-out timeout with {blocked} machines starved on undeliverable messages"
                )
            }
            RuntimeError::MachineCount { machines, programs } => write!(
                f,
                "co-simulation got {programs} programs for {machines} machines"
            ),
            RuntimeError::Sim(e) => write!(f, "simulation error: {e}"),
            RuntimeError::TaskNotRunning { task } => {
                write!(f, "task {task} holds no deployment")
            }
            RuntimeError::UntrackedDeployment { deployment } => {
                write!(f, "deployment {deployment} serves no running task")
            }
            RuntimeError::RunningAfterDrain { task, running } => write!(
                f,
                "{running} tasks (first: task {task}) still running after the event queue drained"
            ),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<vfpga_hsabs::HsError> for RuntimeError {
    fn from(e: vfpga_hsabs::HsError) -> Self {
        RuntimeError::Hs(e)
    }
}
