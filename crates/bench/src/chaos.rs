//! Chaos scenario: a Fig. 12-style workload served while a seeded
//! [`FaultPlan`] fails and recovers devices — and, with [`LinkChaos`]
//! waves configured, ring segments — under it.
//!
//! The scenario drives the full fault/recovery stack end to end: the
//! fault plan schedules fail/recover waves and flaky partial
//! reconfiguration, the low-level controller evicts allocations on failed
//! devices, and the system controller migrates interrupted deployments to
//! surviving devices (scaling down to deeper partition variants when the
//! original footprint no longer fits).
//!
//! Link waves add the interconnect fault model on top: they degrade or
//! fail ring segments, degraded segments corrupt in-flight transfers
//! (retransmitted under a bounded backoff budget), and failed segments
//! force multi-FPGA deployments to re-route the other way around the
//! bidirectional ring — or, when every path between their units is
//! severed, into the same migration machinery device failures use.
//!
//! Everything is seeded, so a chaos run is exactly reproducible: same
//! seed, byte-identical report.

use vfpga_runtime::{AdmissionTuning, CloudReport, Policy, SimEvent, DEFAULT_TRACE_CAPACITY};
use vfpga_sim::{FaultPlan, FaultPlanParams, Json, LinkFaultParams, SimTime};
use vfpga_workload::{generate_workload, Composition, TaskArrival};

use crate::catalog::Catalog;

/// Trace-ring capacity for runs whose gates need every trace event: link
/// waves add per-transfer `Retransmit` events on top of the scheduler
/// lifecycle, and the monitor scenario requires a run with no trace drops
/// (so its report carries no truncation marks; the monitor's rollups fold
/// every event and are whole at any capacity). Sized well past what the
/// default workloads emit.
pub const COMPLETE_TRACE_CAPACITY: usize = 32_768;

/// Ring-segment fault waves layered on a chaos run.
#[derive(Debug, Clone, Copy)]
pub struct LinkChaos {
    /// Per-link mean time to a fault wave.
    pub mttf: SimTime,
    /// Per-link mean time to repair.
    pub mttr: SimTime,
    /// Fraction of link waves that degrade (vs fail) the segment.
    pub degraded_fraction: f64,
    /// Per-transfer corruption probability while link faults are active.
    pub corruption_prob: f64,
    /// Retransmission budget per corrupted transfer.
    pub max_retransmits: u32,
}

impl Default for LinkChaos {
    fn default() -> Self {
        LinkChaos {
            mttf: SimTime::from_ms(1.0),
            mttr: SimTime::from_ms(0.35),
            degraded_fraction: 0.5,
            corruption_prob: 0.35,
            max_retransmits: 3,
        }
    }
}

impl LinkChaos {
    /// The fault-plan parameters of these waves, generated up to
    /// `horizon`. A degraded segment runs at a quarter of its bandwidth
    /// with 250 ns of extra latency; each retransmission backs off 200 ns.
    pub fn params(&self, horizon: SimTime) -> LinkFaultParams {
        LinkFaultParams {
            mttf: self.mttf,
            mttr: self.mttr,
            degraded_fraction: self.degraded_fraction,
            bandwidth_factor: 0.25,
            extra_latency: SimTime::from_ns(250.0),
            corruption_prob: self.corruption_prob,
            max_retransmits: self.max_retransmits,
            retransmit_backoff: SimTime::from_ns(200.0),
            horizon,
        }
    }
}

/// Parameters of one chaos run.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Tasks in the workload set.
    pub tasks: usize,
    /// Seed for the workload and the device (and link) fault plan.
    pub seed: u64,
    /// Per-device mean time to failure.
    pub mttf: SimTime,
    /// Per-device mean time to recovery.
    pub mttr: SimTime,
    /// Probability that an otherwise-valid partial reconfiguration fails
    /// transiently.
    pub configure_failure_prob: f64,
    /// Ring-segment fault waves; `None` runs device faults only.
    pub links: Option<LinkChaos>,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            tasks: 120,
            seed: 2024,
            mttf: SimTime::from_ms(1.5),
            mttr: SimTime::from_ms(0.4),
            configure_failure_prob: 0.05,
            links: None,
        }
    }
}

impl ChaosConfig {
    /// The network-chaos configuration (`repro netchaos`): default link
    /// waves, with device faults kept on but milder than the device-only
    /// scenario, because the interconnect is the protagonist.
    pub fn with_links() -> Self {
        ChaosConfig {
            mttf: SimTime::from_ms(3.0),
            configure_failure_prob: 0.02,
            links: Some(LinkChaos::default()),
            ..ChaosConfig::default()
        }
    }

    /// The run's workload: `tasks` tasks of set 5 arriving every 50 us on
    /// average.
    pub fn arrivals(&self) -> Vec<TaskArrival> {
        generate_workload(
            Composition::TABLE1[4],
            self.tasks,
            SimTime::from_us(50.0),
            self.seed,
        )
    }
}

/// One chaos run: the plan that was injected and the resulting report.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The seed the run was generated from.
    pub seed: u64,
    /// The injected fault plan.
    pub plan: FaultPlan,
    /// The instrumented simulation report (recovery accounting included).
    pub report: CloudReport,
}

/// The accounting invariants every cloud run must satisfy, regardless of
/// seed: every arrival completed, never deployed, or lost; peak occupancy
/// a valid fraction; and every migration or loss traced back to an
/// interruption. Returns the first violation as an error message.
pub fn check_accounting(report: &CloudReport) -> Result<(), String> {
    if !report.accounts_for_all_arrivals() {
        return Err(format!(
            "accounting broken: {} completed + {} never deployed + {} lost != {}",
            report.completed, report.never_deployed, report.lost, report.arrivals
        ));
    }
    if !(0.0..=1.0).contains(&report.peak_occupancy) {
        return Err(format!(
            "peak occupancy {} outside [0, 1]",
            report.peak_occupancy
        ));
    }
    if report.migrated + report.lost > report.interrupted {
        return Err(format!(
            "{} migrated + {} lost exceed {} interruptions",
            report.migrated, report.lost, report.interrupted
        ));
    }
    Ok(())
}

impl ChaosReport {
    /// Whether the run exercised the recovery machinery: at least one
    /// deployment was interrupted and at least one migration completed.
    pub fn exercised_recovery(&self) -> bool {
        self.report.interrupted > 0 && self.report.migrated > 0
    }

    /// Whether the run exercised the interconnect fault machinery end to
    /// end: segments failed, at least one deployment re-routed around a
    /// dead segment, and at least one transfer was retransmitted.
    pub fn exercised_link_faults(&self) -> bool {
        self.report.link_failures > 0
            && self.report.link_reroutes > 0
            && self.report.link_retransmits > 0
    }

    /// Cross-layer invariants every chaos run must satisfy, regardless of
    /// seed: [`check_accounting`], plus — when the plan covers links —
    /// severed paths bounded by interruptions, a complete trace, and the
    /// report's retransmitted bytes reconciling with the trace's
    /// `Retransmit` events. Returns the first violation as an error
    /// message.
    pub fn check_invariants(&self) -> Result<(), String> {
        let r = &self.report;
        check_accounting(r)?;
        if self.plan.links() == 0 {
            return Ok(());
        }
        if r.link_severed > r.interrupted {
            return Err(format!(
                "{} link severs exceed {} interruptions",
                r.link_severed, r.interrupted
            ));
        }
        if r.trace.dropped() > 0 {
            return Err(format!(
                "trace ring dropped {} events; the byte reconciliation needs all of them",
                r.trace.dropped()
            ));
        }
        let traced: u64 = r
            .trace
            .iter()
            .filter_map(|e| match e.event {
                SimEvent::Retransmit(.., bytes) => Some(bytes),
                _ => None,
            })
            .sum();
        if traced != r.link_retransmit_bytes {
            return Err(format!(
                "retransmit bytes disagree: report says {}, trace events sum to {}",
                r.link_retransmit_bytes, traced
            ));
        }
        Ok(())
    }

    /// Serializes the run: seed, plan, and full report.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("seed", self.seed)
            .with("plan", self.plan.to_json())
            .with("report", self.report.to_json())
    }
}

/// Runs the chaos scenario: workload set 5 (the mixed composition) under
/// the full policy on the paper cluster, with the configured fault plan
/// injected.
pub fn run(catalog: &Catalog, config: &ChaosConfig) -> ChaosReport {
    let arrivals = config.arrivals();
    // Faults keep arriving for 1.5x the expected workload span so the
    // queue-drain tail is exposed to them too.
    let horizon = SimTime::from_us(50.0 * config.tasks as f64 * 1.5);
    let mut plan = FaultPlan::generate(
        FaultPlanParams {
            mttf: config.mttf,
            mttr: config.mttr,
            configure_failure_prob: config.configure_failure_prob,
            horizon,
        },
        catalog.cluster.len(),
        config.seed,
    );
    let mut trace_capacity = DEFAULT_TRACE_CAPACITY;
    if let Some(links) = config.links {
        plan = plan.with_link_faults(links.params(horizon), catalog.cluster.ring().segments());
        trace_capacity = COMPLETE_TRACE_CAPACITY;
    }
    let mut controller = catalog.controller(Policy::Full);
    let report = catalog
        .simulate(
            &mut controller,
            &arrivals,
            &plan,
            trace_capacity,
            AdmissionTuning::default(),
        )
        .expect("chaos simulation completes");
    ChaosReport {
        seed: config.seed,
        plan,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_chaos_run_interrupts_and_recovers() {
        let catalog = Catalog::build();
        let chaos = run(&catalog, &ChaosConfig::default());
        chaos.check_invariants().unwrap();
        assert!(chaos.report.device_failures > 0);
        assert!(
            chaos.exercised_recovery(),
            "default config must interrupt and migrate: {} interrupted, {} migrated",
            chaos.report.interrupted,
            chaos.report.migrated
        );
    }

    #[test]
    fn chaos_runs_are_reproducible() {
        let catalog = Catalog::build();
        let cfg = ChaosConfig {
            tasks: 60,
            seed: 7,
            ..ChaosConfig::default()
        };
        let a = run(&catalog, &cfg).to_json().pretty();
        let b = run(&catalog, &cfg).to_json().pretty();
        assert_eq!(a, b);
    }

    #[test]
    fn default_netchaos_run_reroutes_and_retransmits() {
        let catalog = Catalog::build();
        let chaos = run(&catalog, &ChaosConfig::with_links());
        chaos.check_invariants().unwrap();
        assert!(chaos.plan.link_failures() > 0, "plan must fail segments");
        assert!(
            chaos.exercised_link_faults(),
            "default config must fail, reroute, and retransmit: {} failures, {} reroutes, {} retransmits",
            chaos.report.link_failures,
            chaos.report.link_reroutes,
            chaos.report.link_retransmits
        );
        assert!(chaos.report.link_degraded_time > SimTime::ZERO);
    }

    #[test]
    fn netchaos_runs_are_reproducible() {
        let catalog = Catalog::build();
        let cfg = ChaosConfig {
            tasks: 60,
            seed: 7,
            ..ChaosConfig::with_links()
        };
        let a = run(&catalog, &cfg).to_json().pretty();
        let b = run(&catalog, &cfg).to_json().pretty();
        assert_eq!(a, b);
    }
}
