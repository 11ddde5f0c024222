//! Streaming run telemetry: windowed rollups and SLO burn-rate alerts.
//!
//! [`RunMonitor`] rides inside the cloud simulation (opt-in via
//! [`MonitorConfig`] on [`AdmissionTuning`](crate::AdmissionTuning)) and
//! is one of the run recorder's folds: every [`SimEvent`] the scheduler
//! emits passes through it, and arrivals, queue waits, completions,
//! migrations, retransmissions and occupancy samples land in a
//! [`RollupSet`] of tumbling windows keyed by tenant, device, ring
//! segment, and the whole cluster. Latencies land in mergeable
//! [`QuantileSketch`](vfpga_sim::QuantileSketch)es, so the per-window
//! digests stay within the configured relative error at O(log range)
//! memory regardless of task count.
//!
//! At the end of the run, [`RunMonitor::finish`] evaluates every
//! configured [`SloSpec`] against every key that saw latency traffic
//! using the multi-window burn-rate state machine
//! ([`evaluate_slo`](vfpga_sim::evaluate_slo)) and packages rollups,
//! outcomes, and alerts into a [`MonitorReport`] — a pure function of the
//! seeded event stream, so the whole section is byte-deterministic.

use std::collections::BTreeMap;

use vfpga_sim::{
    evaluate_slo, prometheus_rollup_text, Json, RollupKey, RollupSet, SimTime, SloOutcome, SloSpec,
    TraceRing,
};

use crate::record::SimEvent;

/// Opt-in configuration for the in-run telemetry monitor.
///
/// Defaults to disabled: a run with the default config performs no
/// monitor work and emits no `monitor` section, keeping pre-monitor
/// artifacts byte-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorConfig {
    /// Whether the monitor runs at all.
    pub enabled: bool,
    /// Tumbling-window length for the rollups.
    pub window: SimTime,
    /// Relative-error bound for the latency sketches (DDSketch alpha).
    pub sketch_error: f64,
    /// SLOs to evaluate over the finished rollups.
    pub slos: Vec<SloSpec>,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            enabled: false,
            window: SimTime::from_us(250.0),
            sketch_error: 0.01,
            slos: Vec::new(),
        }
    }
}

impl MonitorConfig {
    /// An enabled monitor with the given window and SLO set, at the
    /// default 1% sketch error.
    pub fn enabled(window: SimTime, slos: Vec<SloSpec>) -> Self {
        MonitorConfig {
            enabled: true,
            window,
            slos,
            ..MonitorConfig::default()
        }
    }
}

/// The in-run collector (see the module docs). Created by the simulator
/// when [`MonitorConfig::enabled`] is set; each fold is O(log) in the
/// sketch bucket count and allocates nothing once a key is known.
#[derive(Debug, Clone)]
pub(crate) struct RunMonitor {
    config: MonitorConfig,
    rollups: RollupSet,
    /// The [`RollupKey::Tenant`] of each instance, by
    /// [`InstanceId`](crate::InstanceId) index.
    tenants: Vec<RollupKey>,
}

impl RunMonitor {
    /// Builds a monitor from an enabled config for the instances named
    /// by `instances`, in database order.
    pub(crate) fn new<'a>(config: MonitorConfig, instances: impl Iterator<Item = &'a str>) -> Self {
        let rollups = RollupSet::new(config.window, config.sketch_error);
        RunMonitor {
            config,
            rollups,
            tenants: instances
                .map(|name| RollupKey::Tenant(name.into()))
                .collect(),
        }
    }

    /// Folds one run event into the rollups: arrivals, first-deploy
    /// queue waits and completions per tenant (completions per device
    /// too), migrations per device, retransmissions per ring segment,
    /// and occupancy samples, each also into the whole-cluster key.
    pub(crate) fn fold(&mut self, at: SimTime, event: &SimEvent) {
        use RollupKey::{Cluster, Device, Segment};
        let (r, tenants) = (&mut self.rollups, &self.tenants);
        match *event {
            SimEvent::Arrival(_, instance) => {
                r.record_arrival(&Cluster, at);
                r.record_arrival(&tenants[instance.index() as usize], at);
            }
            SimEvent::Deployed(_, instance, waited, _, _) => {
                r.record_queue_wait(&Cluster, at, waited);
                r.record_queue_wait(&tenants[instance.index() as usize], at, waited);
            }
            SimEvent::Completed(_, instance, device, latency) => {
                r.record_completion(&Cluster, at, latency);
                r.record_completion(&tenants[instance.index() as usize], at, latency);
                if let Some(d) = device {
                    r.record_completion(&Device(d), at, latency);
                }
            }
            SimEvent::Interrupted(_, device, _) => {
                r.record_migration(&Cluster, at);
                r.record_migration(&Device(device), at);
            }
            SimEvent::Retransmit(_, link, _, bytes) => {
                r.record_retransmit(&Cluster, at, bytes);
                r.record_retransmit(&Segment(link as u64), at, bytes);
            }
            SimEvent::Occupancy(occupancy, ..) => r.record_occupancy(&Cluster, at, occupancy),
            _ => {}
        }
    }

    /// Closes the run at `end`, evaluates the configured SLOs, and
    /// returns the report. When the run's trace ring dropped events,
    /// rollup windows that predate its oldest retained event are marked
    /// truncated. The mark records that the ring no longer covers those
    /// windows; their counts are whole, since [`RunMonitor::fold`] saw
    /// every event as it happened.
    pub(crate) fn finish(self, end: SimTime, trace: &TraceRing<SimEvent>) -> MonitorReport {
        let RunMonitor {
            config,
            mut rollups,
            ..
        } = self;
        rollups.shrink_to_fit();
        let mut truncated_windows = 0;
        if trace.dropped() > 0 {
            if let Some(oldest) = trace.iter().next() {
                truncated_windows = rollups.mark_truncated_before(oldest.at);
            }
        }
        let last = rollups.window_index(end);
        let mut outcomes = Vec::new();
        for key in rollups.keys() {
            // SLOs constrain end-to-end latency: segments carry no
            // latency signal, so they are not evaluated.
            if matches!(key, RollupKey::Segment(_)) {
                continue;
            }
            let series = rollups.series_for(&key);
            if series.iter().all(|(_, s)| s.latency.count() == 0) {
                continue;
            }
            for spec in &config.slos {
                let bad: BTreeMap<u64, bool> = series
                    .iter()
                    .map(|(idx, stats)| {
                        let violated = match stats.latency.quantile(spec.quantile) {
                            Some(q) => q > spec.target,
                            None => false,
                        };
                        (*idx, violated)
                    })
                    .collect();
                outcomes.push(evaluate_slo(
                    spec,
                    &key.label(),
                    &bad,
                    last,
                    rollups.window(),
                ));
            }
        }
        MonitorReport {
            specs: config.slos,
            truncated_windows,
            rollups,
            outcomes,
        }
    }
}

/// The finished telemetry section of a run: the rollup cells, the SLO
/// specs that were evaluated, and their outcomes (alerts included).
#[derive(Debug, Clone)]
pub struct MonitorReport {
    /// The SLO specs that were evaluated.
    pub specs: Vec<SloSpec>,
    /// Rollup cells marked truncated because the trace ring overflowed
    /// before their windows. Their counts are still whole: the monitor
    /// folds every event, not the ring's retained ones.
    pub truncated_windows: usize,
    /// The per-key tumbling-window rollups.
    pub rollups: RollupSet,
    /// One outcome per (SLO, key-with-latency-traffic) pair.
    pub outcomes: Vec<SloOutcome>,
}

impl MonitorReport {
    /// Every alert fired across all outcomes, in deterministic order.
    pub fn alerts(&self) -> impl Iterator<Item = &vfpga_sim::Alert> {
        self.outcomes.iter().flat_map(|o| o.alerts.iter())
    }

    /// Number of alerts fired.
    pub fn alerts_fired(&self) -> usize {
        self.alerts().count()
    }

    /// Number of fired alerts that also resolved before run end.
    pub fn alerts_resolved(&self) -> usize {
        self.alerts().filter(|a| a.resolved_at.is_some()).count()
    }

    /// The highest fast-span burn rate seen by any outcome.
    pub fn max_burn(&self) -> f64 {
        self.outcomes
            .iter()
            .fold(0.0f64, |m, o| m.max(o.max_fast_burn))
    }

    /// The lowest health score across outcomes (1.0 when none ran).
    pub fn min_health(&self) -> f64 {
        self.outcomes.iter().fold(1.0f64, |m, o| m.min(o.health))
    }

    /// Serializes the section: summary counters first, then specs,
    /// outcomes, and the full rollup table.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("alerts_fired", self.alerts_fired() as u64)
            .with("alerts_resolved", self.alerts_resolved() as u64)
            .with("max_burn", self.max_burn())
            .with("min_health", self.min_health())
            .with("truncated_windows", self.truncated_windows as u64)
            .with(
                "slos",
                Json::Arr(self.specs.iter().map(SloSpec::to_json).collect()),
            )
            .with(
                "outcomes",
                Json::Arr(self.outcomes.iter().map(SloOutcome::to_json).collect()),
            )
            .with("rollups", self.rollups.to_json())
    }

    /// The rollup/SLO families in Prometheus exposition format.
    pub fn prometheus_text(&self) -> String {
        prometheus_rollup_text(&self.rollups, &self.outcomes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{InstanceId, Policy, SystemController};
    use crate::record::Interruption;
    use vfpga_core::MappingDatabase;
    use vfpga_fabric::Cluster;

    fn t(us: f64) -> SimTime {
        SimTime::from_us(us)
    }

    /// The id at index 0: the monitor's only tenant.
    fn tenant() -> InstanceId {
        let db = MappingDatabase::new();
        SystemController::new(Cluster::paper_cluster(), db, Policy::Full).instance_at(0)
    }

    fn arrival(m: &mut RunMonitor, at: SimTime) {
        m.fold(at, &SimEvent::Arrival(0, tenant()));
    }

    fn completion(m: &mut RunMonitor, device: Option<u64>, at: SimTime, latency: SimTime) {
        m.fold(at, &SimEvent::Completed(0, tenant(), device, latency));
    }

    fn monitor_with_slo(tenant: &str) -> RunMonitor {
        let mut spec = SloSpec::latency("p95-latency", 0.95, t(80.0));
        spec.fast_windows = 2;
        spec.slow_windows = 4;
        spec.error_budget = 0.1;
        let config = MonitorConfig::enabled(t(100.0), vec![spec]);
        RunMonitor::new(config, [tenant].into_iter())
    }

    #[test]
    fn disabled_is_the_default() {
        let cfg = MonitorConfig::default();
        assert!(!cfg.enabled);
        assert!(cfg.slos.is_empty());
    }

    #[test]
    fn burst_of_slow_completions_fires_and_resolves() {
        let mut m = monitor_with_slo("bw-m");
        // Healthy traffic, then a sustained slow burst, then recovery.
        for i in 0..40u64 {
            let at = t(i as f64 * 100.0 + 50.0);
            let latency = if (10..18).contains(&i) {
                t(200.0)
            } else {
                t(40.0)
            };
            arrival(&mut m, at);
            completion(&mut m, Some(0), at, latency);
        }
        let report = m.finish(t(4000.0), &TraceRing::new(8));
        assert!(report.alerts_fired() >= 1, "{:?}", report.outcomes);
        assert_eq!(report.alerts_fired(), report.alerts_resolved());
        assert!(report.max_burn() >= 2.0);
        assert!(report.min_health() < 1.0);
        assert_eq!(report.truncated_windows, 0);
    }

    #[test]
    fn segments_collect_but_are_not_slo_evaluated() {
        let mut m = monitor_with_slo("bw-s");
        completion(&mut m, None, t(10.0), t(20.0));
        m.fold(t(15.0), &SimEvent::Retransmit(0, 3, 1, 4096));
        let report = m.finish(t(100.0), &TraceRing::new(8));
        assert!(report
            .outcomes
            .iter()
            .all(|o| !o.key.starts_with("segment")));
        // The segment still shows up in the rollup table.
        assert!(report
            .rollups
            .keys()
            .iter()
            .any(|k| matches!(k, RollupKey::Segment(3))));
    }

    #[test]
    fn trace_overflow_marks_early_windows() {
        let mut m = monitor_with_slo("bw-s");
        completion(&mut m, None, t(10.0), t(20.0));
        completion(&mut m, None, t(510.0), t(20.0));
        // A one-event ring that dropped its first event keeps only 450 us.
        let mut trace = TraceRing::new(1);
        trace.push(t(10.0), SimEvent::QueueDepth(1));
        trace.push(t(450.0), SimEvent::QueueDepth(2));
        let report = m.finish(t(600.0), &trace);
        assert!(report.truncated_windows > 0);
        let text = report.to_json().compact();
        assert!(text.contains("\"truncated\":true"), "{text}");
    }

    #[test]
    fn report_is_byte_deterministic() {
        let build = || {
            let mut m = monitor_with_slo("bw-l");
            for i in 0..25u64 {
                let at = t(i as f64 * 40.0);
                arrival(&mut m, at);
                m.fold(at, &SimEvent::Deployed(0, tenant(), t(5.0), 1, None));
                completion(&mut m, Some(i % 3), at, t(90.0));
                m.fold(at, &SimEvent::Occupancy(0.5, 0, false));
            }
            let migration = SimEvent::Interrupted(0, 1, Interruption::Device(1));
            m.fold(t(333.0), &migration);
            m.finish(t(1000.0), &TraceRing::new(8)).to_json().pretty()
        };
        assert_eq!(build(), build());
    }
}
