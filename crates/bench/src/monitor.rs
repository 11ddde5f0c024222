//! SLO-monitoring scenario: a Fig. 12-style workload under seeded device
//! and ring-segment fault waves with the elastic scheduler *and* the
//! streaming-telemetry monitor on — the end-to-end exercise of the
//! rollup/sketch/burn-rate stack.
//!
//! The scenario calibrates itself: a fault-free run of the identical
//! workload establishes the worst per-window p95 latency any rollup key
//! exhibits while healthy, and the SLO target is that baseline times a
//! margin — so the healthy run has zero bad windows by construction. The chaos run then violates
//! the objective only where injected faults disturb it, so the run is
//! *self-failing*: it must fire at least one burn-rate alert, every alert
//! must fall inside a planned fault window (expanded by the recovery
//! slack), at least one alert must resolve once the faults pass, and the
//! monitor's sketch quantiles must agree with the exact percentiles
//! within the sketch's configured relative error. Everything is seeded,
//! so a run is exactly reproducible: same seed, byte-identical report.

use vfpga_runtime::{AdmissionTuning, CloudReport, ElasticityPolicy, MonitorConfig, Policy};
use vfpga_sim::{Alert, FaultPlan, FaultPlanParams, Json, SimTime, SloSpec};
use vfpga_workload::{generate_workload, Composition};

use crate::catalog::Catalog;
use crate::chaos::{check_accounting, LinkChaos, COMPLETE_TRACE_CAPACITY};

/// Parameters of one monitored chaos run.
#[derive(Debug, Clone, Copy)]
pub struct MonitorBenchConfig {
    /// Tasks in the workload set.
    pub tasks: usize,
    /// Mean interarrival gap. Unlike the throughput benches this scenario
    /// needs a *stable* offered load — a saturated queue grows without
    /// bound and every drain-tail window violates any latency target, so
    /// alerts would stop being fault-correlated.
    pub interarrival: SimTime,
    /// Seed for the workload and both fault schedules.
    pub seed: u64,
    /// Tumbling-window length for the rollups.
    pub window: SimTime,
    /// Relative-error bound of the latency sketches.
    pub sketch_error: f64,
    /// SLO target = worst healthy window p95 times this margin.
    pub target_margin: f64,
    /// Per-device mean time to failure.
    pub mttf: SimTime,
    /// Per-device mean time to recovery.
    pub mttr: SimTime,
}

impl Default for MonitorBenchConfig {
    fn default() -> Self {
        MonitorBenchConfig {
            tasks: 160,
            interarrival: SimTime::from_us(250.0),
            seed: 2024,
            window: SimTime::from_us(150.0),
            sketch_error: 0.01,
            target_margin: 1.3,
            mttf: SimTime::from_ms(6.0),
            mttr: SimTime::from_ms(0.5),
        }
    }
}

/// One monitored run: the calibration, the injected plan, the disturbed
/// intervals alerts must fall in, and the resulting report.
#[derive(Debug, Clone)]
pub struct MonitorBenchReport {
    /// The seed the run was generated from.
    pub seed: u64,
    /// The worst per-window p95 latency any rollup key exhibited in the
    /// fault-free calibration run — the exact quantity the SLO evaluates,
    /// so the healthy run has zero bad windows by construction.
    pub baseline_worst_p95: f64,
    /// The calibrated SLO target (worst healthy window p95 times the
    /// margin).
    pub target: SimTime,
    /// The sketch relative-error bound the run was configured with.
    pub sketch_error: f64,
    /// The injected fault plan (device and link schedules).
    pub plan: FaultPlan,
    /// Merged sim-time intervals in which injected faults may disturb the
    /// workload (each planned fault expanded by the recovery slack);
    /// every fired alert must start inside one.
    pub disturbed: Vec<(SimTime, SimTime)>,
    /// The instrumented simulation report, `monitor` section included.
    pub report: CloudReport,
}

impl MonitorBenchReport {
    /// Every alert the monitor fired, across all SLO outcomes.
    pub fn alerts(&self) -> Vec<&Alert> {
        self.report
            .monitor
            .as_ref()
            .map(|m| m.alerts().collect())
            .unwrap_or_default()
    }

    /// Whether `at` falls inside a disturbed interval.
    fn disturbed_at(&self, at: SimTime) -> bool {
        self.disturbed
            .iter()
            .any(|&(start, end)| at >= start && at <= end)
    }

    /// Cross-layer invariants every monitored run must satisfy,
    /// regardless of seed. Returns the first violation as an error
    /// message.
    pub fn check_invariants(&self) -> Result<(), String> {
        check_accounting(&self.report)?;
        let monitor = self
            .report
            .monitor
            .as_ref()
            .ok_or("monitor section missing from a monitored run")?;
        if self.report.trace.dropped() > 0 {
            return Err(format!(
                "trace ring dropped {} events; size COMPLETE_TRACE_CAPACITY up",
                self.report.trace.dropped()
            ));
        }
        if monitor.truncated_windows != 0 {
            return Err(format!(
                "{} rollup windows truncated in a run with no trace drops",
                monitor.truncated_windows
            ));
        }
        // Rollup counters must reconcile with the report's own totals.
        let whole = monitor
            .rollups
            .merged(u64::MAX / monitor.rollups.window().as_ps());
        let cluster = whole.series_for(&vfpga_sim::RollupKey::Cluster);
        if cluster.len() != 1 {
            return Err(format!(
                "whole-run merge left {} cluster windows",
                cluster.len()
            ));
        }
        let stats = cluster[0].1;
        if stats.arrivals != self.report.arrivals {
            return Err(format!(
                "rollup arrivals {} != report arrivals {}",
                stats.arrivals, self.report.arrivals
            ));
        }
        if stats.completions != self.report.completed {
            return Err(format!(
                "rollup completions {} != report completed {}",
                stats.completions, self.report.completed
            ));
        }
        // The mergeable sketch must agree with the exact percentiles the
        // report computes from its buffered timer, within the sketch's
        // relative-error bound.
        for (q, exact) in [
            (0.50, self.report.latency_p50),
            (0.95, self.report.latency_p95),
            (0.99, self.report.latency_p99),
        ] {
            let exact = exact.ok_or("run completed nothing; no exact percentiles")?;
            let sketched = stats
                .latency
                .quantile_secs(q)
                .ok_or("latency sketch empty in a run with completions")?;
            if (sketched - exact).abs() > self.sketch_error * exact + 1e-12 {
                return Err(format!(
                    "sketch p{} = {sketched} strays past {} relative error from exact {exact}",
                    (q * 100.0) as u32,
                    self.sketch_error
                ));
            }
        }
        // The run must alert — and only where faults were planned.
        let alerts = self.alerts();
        if alerts.is_empty() {
            return Err("no burn-rate alert fired under injected faults".to_string());
        }
        if !alerts.iter().any(|a| a.resolved_at.is_some()) {
            return Err("no alert resolved after the fault waves passed".to_string());
        }
        for alert in &alerts {
            if !self.disturbed_at(alert.fired_at) {
                return Err(format!(
                    "alert `{}` on `{}` fired at {:.1} us, outside every planned fault window",
                    alert.slo,
                    alert.key,
                    alert.fired_at.as_us()
                ));
            }
            if let Some(resolved) = alert.resolved_at {
                if resolved <= alert.fired_at {
                    return Err(format!(
                        "alert `{}` resolved at {:.1} us, not after it fired ({:.1} us)",
                        alert.slo,
                        resolved.as_us(),
                        alert.fired_at.as_us()
                    ));
                }
            }
        }
        Ok(())
    }

    /// Serializes the run: calibration, plan, disturbed intervals, and
    /// the full report (with its `monitor` section).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("seed", self.seed)
            .with("baseline_worst_p95_s", self.baseline_worst_p95)
            .with("target_s", self.target.as_secs())
            .with("sketch_error", self.sketch_error)
            .with(
                "disturbed",
                Json::Arr(
                    self.disturbed
                        .iter()
                        .map(|(s, e)| {
                            Json::obj()
                                .with("start_s", s.as_secs())
                                .with("end_s", e.as_secs())
                        })
                        .collect(),
                ),
            )
            .with("plan", self.plan.to_json())
            .with("report", self.report.to_json())
    }
}

/// The tuning both runs share: elastic scheduler on, spans off (the
/// monitor, not the span forest, is under test), monitor per `monitor`.
fn tuning(monitor: MonitorConfig) -> AdmissionTuning {
    AdmissionTuning {
        trace_spans: false,
        elasticity: ElasticityPolicy::FULL,
        monitor,
    }
}

/// The worst per-window p95 latency across every non-segment rollup key —
/// the yardstick the calibration run hands the SLO.
fn worst_window_p95(monitor: &vfpga_runtime::MonitorReport) -> f64 {
    let mut worst = 0.0_f64;
    for key in monitor.rollups.keys() {
        if matches!(key, vfpga_sim::RollupKey::Segment(_)) {
            continue;
        }
        for (_, stats) in monitor.rollups.series_for(&key) {
            if let Some(p95) = stats.latency.quantile_secs(0.95) {
                worst = worst.max(p95);
            }
        }
    }
    worst
}

/// The scenario's SLO: p95 end-to-end latency under `target`, with a
/// fast/slow window pair sized to the run's window count (the default
/// 5/30 pair needs hour-scale horizons; this run has dozens of windows).
fn slo(target: SimTime) -> SloSpec {
    SloSpec {
        name: "p95-latency".to_string(),
        quantile: 0.95,
        target,
        error_budget: 0.05,
        fast_windows: 2,
        slow_windows: 6,
        burn_threshold: 2.0,
    }
}

/// Runs the monitored chaos scenario (see the module docs): calibrate on
/// a fault-free run, derive the SLO target, then run the same workload
/// under device and link fault waves with the monitor collecting.
pub fn run(catalog: &Catalog, config: &MonitorBenchConfig) -> MonitorBenchReport {
    let composition = Composition::TABLE1[4];
    let arrivals = generate_workload(composition, config.tasks, config.interarrival, config.seed);
    let span = SimTime::from_ps(config.interarrival.as_ps() * config.tasks as u64);

    // Calibration: identical workload and tuning, no faults, monitor
    // collecting rollups but evaluating no SLOs. The yardstick is the
    // worst per-window p95 any key exhibits while healthy — the exact
    // quantity the chaos run's SLO evaluates — so with the margin on top
    // the healthy run has zero bad windows by construction.
    let calibration_monitor = MonitorConfig {
        enabled: true,
        window: config.window,
        sketch_error: config.sketch_error,
        slos: Vec::new(),
    };
    let baseline = catalog
        .simulate(
            &mut catalog.controller(Policy::Full),
            &arrivals,
            &FaultPlan::none(),
            COMPLETE_TRACE_CAPACITY,
            tuning(calibration_monitor),
        )
        .expect("calibration run completes");
    let baseline_worst_p95 = worst_window_p95(baseline.monitor.as_ref().expect("monitor on"));
    let target = SimTime::from_secs(baseline_worst_p95 * config.target_margin);

    // Fault waves stop at 45% of the workload span so the drain tail is
    // quiet: alerts must not just fire, they must resolve.
    let horizon = SimTime::from_ps((span.as_ps() as f64 * 0.45) as u64);
    let plan = FaultPlan::generate(
        FaultPlanParams {
            mttf: config.mttf,
            mttr: config.mttr,
            configure_failure_prob: 0.0,
            horizon,
        },
        catalog.cluster.len(),
        config.seed,
    )
    .with_link_faults(
        LinkChaos {
            mttf: SimTime::from_ms(5.0),
            mttr: SimTime::from_ms(0.5),
            ..LinkChaos::default()
        }
        .params(horizon),
        catalog.cluster.ring().segments(),
    );

    let monitor = MonitorConfig {
        enabled: true,
        window: config.window,
        sketch_error: config.sketch_error,
        slos: vec![slo(target)],
    };
    let report = catalog
        .simulate(
            &mut catalog.controller(Policy::Full),
            &arrivals,
            &plan,
            COMPLETE_TRACE_CAPACITY,
            tuning(monitor),
        )
        .expect("monitored chaos simulation completes");

    let disturbed = disturbed_intervals(&plan, config, &slo(target), target);
    MonitorBenchReport {
        seed: config.seed,
        baseline_worst_p95,
        target,
        sketch_error: config.sketch_error,
        plan,
        disturbed,
        report,
    }
}

/// The sim-time intervals in which a planned fault may still be driving
/// latency: each fault event opens an interval from its onset to the end
/// of its echo. The echo bound is one full SLO target (a task in flight
/// at onset restarts elsewhere and can legitimately take up to the target
/// again before its late completion lands in a window), several repair
/// times for backlog drain and migration backoff, plus the alerting lag
/// (the slow span must fill with bad windows before the state machine
/// confirms). Overlapping intervals merge.
fn disturbed_intervals(
    plan: &FaultPlan,
    config: &MonitorBenchConfig,
    spec: &SloSpec,
    target: SimTime,
) -> Vec<(SimTime, SimTime)> {
    let lag_windows = (spec.slow_windows as u64 + 2) * config.window.as_ps();
    let slack = SimTime::from_ps(
        target
            .as_ps()
            .saturating_add(config.mttr.as_ps().saturating_mul(4))
            .saturating_add(lag_windows),
    );
    let mut raw: Vec<(SimTime, SimTime)> = Vec::new();
    for ev in plan.events() {
        if ev.fail {
            raw.push((ev.at, ev.at.checked_add(slack).unwrap_or(SimTime::MAX)));
        }
    }
    for ev in plan.link_events() {
        if ev.kind != vfpga_sim::LinkFaultKind::Recovered {
            raw.push((ev.at, ev.at.checked_add(slack).unwrap_or(SimTime::MAX)));
        }
    }
    raw.sort();
    let mut merged: Vec<(SimTime, SimTime)> = Vec::new();
    for (start, end) in raw {
        match merged.last_mut() {
            Some((_, last_end)) if start <= *last_end => *last_end = (*last_end).max(end),
            _ => merged.push((start, end)),
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_monitor_run_alerts_inside_fault_windows() {
        let catalog = Catalog::build();
        let bench = run(&catalog, &MonitorBenchConfig::default());
        bench.check_invariants().unwrap();
        assert!(bench.plan.failures() > 0, "plan must fail devices");
        assert!(!bench.disturbed.is_empty());
        assert!(bench.target > SimTime::from_secs(bench.baseline_worst_p95));
    }

    #[test]
    fn monitor_runs_are_reproducible() {
        let catalog = Catalog::build();
        let cfg = MonitorBenchConfig {
            seed: 42,
            ..MonitorBenchConfig::default()
        };
        let a = run(&catalog, &cfg);
        a.check_invariants().unwrap();
        let b = run(&catalog, &cfg);
        assert_eq!(a.to_json().pretty(), b.to_json().pretty());
    }
}
