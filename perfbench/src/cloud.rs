//! The three cloud workloads: `runtime::cloudsim` driving
//! `runtime::controller` and `hsabs` over the paper cluster, with the
//! memoized `accel` service-time model of `vfpga_bench::Catalog`.
//!
//! A round simulates each of the workload's traces (independent arrival
//! sequences and fault plans) on a fresh controller. A workload whose host
//! cost swings with its random draws runs several smaller traces per round,
//! so one seed's cost sits close to another's. Every round of a run replays
//! identical inputs and must produce the same report bytes: each round
//! after the first is an in-process determinism check.

use std::time::Instant;

use vfpga_bench::catalog::Catalog;
use vfpga_runtime::{
    run_cloud_sim_tuned, AdmissionTuning, CloudReport, ControllerStats, ElasticityPolicy,
    MonitorConfig, Policy, RecoveryPolicy, SystemController, DEFAULT_TRACE_CAPACITY,
};
use vfpga_sim::{
    chrome_trace_events, prometheus_text, FaultPlan, FaultPlanParams, LinkFaultParams, Rng,
    RollupKey, SimTime, SloSpec,
};
use vfpga_workload::TaskArrival;

use crate::inputs::{bursty_arrivals, fnv1a, input_digest, poisson_arrivals, Fnv, Mix};
use crate::probe::{CallTimer, Probe};
use crate::run::{Bench, Round};
use crate::{Check, Scale};

/// Trace-ring capacity where the ring is not what is measured: it only
/// keeps a window, and a small one keeps it out of the measurement.
const SMALL_TRACE_RING: usize = 1024;

/// One simulated arrival sequence and the faults injected under it.
struct Trace {
    arrivals: Vec<TaskArrival>,
    faults: FaultPlan,
}

/// A cloud workload: its traces and how the simulator is configured.
pub struct CloudBench {
    catalog: Catalog,
    traces: Vec<Trace>,
    tuning: AdmissionTuning,
    trace_capacity: usize,
    /// Whether the timed section also serializes the report, the span
    /// forest and the metrics registry.
    exports: bool,
}

/// The seed of trace `index` of a workload seeded with `seed`.
fn trace_seed(seed: u64, index: usize) -> u64 {
    Rng::stream(seed, index as u64).next_u64()
}

impl CloudBench {
    /// `saturated`: 40,000 set-5 tasks arriving every 20 us on average,
    /// several times the cluster's ~11.9k tasks/s simulated capacity, so
    /// the admission backlog grows to tens of thousands. No faults,
    /// elasticity off, spans and monitor off.
    pub fn saturated(seed: u64, scale: &Scale) -> Self {
        let tasks = scale.cloud_tasks.unwrap_or(40_000);
        CloudBench {
            catalog: Catalog::build(),
            traces: vec![Trace {
                arrivals: poisson_arrivals(seed, tasks, SimTime::from_us(20.0), Mix::SET5),
                faults: FaultPlan::none(),
            }],
            tuning: AdmissionTuning {
                trace_spans: false,
                ..AdmissionTuning::default()
            },
            trace_capacity: SMALL_TRACE_RING,
            exports: false,
        }
    }

    /// `chaos_elastic`: four traces of 12,000 tasks, in bursts of 25 (2 us
    /// apart) every 5 ms, under device faults (MTTF 20 ms,
    /// MTTR 2 ms, transient configure faults at p = 0.01) and ring-link
    /// faults (MTTF 10 ms, MTTR 1 ms, half degraded, corruption p = 0.2,
    /// 3 retransmits), with promotion and preemption on. The queue drains
    /// between bursts.
    pub fn chaos_elastic(seed: u64, scale: &Scale) -> Self {
        let tasks = scale.cloud_tasks.unwrap_or(12_000);
        let catalog = Catalog::build();
        let traces = (0..4)
            .map(|i| {
                let seed = trace_seed(seed, i);
                let arrivals = bursty_arrivals(
                    seed,
                    tasks,
                    25,
                    SimTime::from_us(2.0),
                    SimTime::from_ms(5.0),
                    Mix::BURSTY,
                );
                let last = arrivals.last().map_or(SimTime::ZERO, |a| a.at);
                let horizon = SimTime::from_secs(last.as_secs() * 1.5);
                let faults = FaultPlan::generate(
                    FaultPlanParams {
                        mttf: SimTime::from_ms(20.0),
                        mttr: SimTime::from_ms(2.0),
                        configure_failure_prob: 0.01,
                        horizon,
                    },
                    catalog.cluster.len(),
                    seed,
                )
                .with_link_faults(
                    LinkFaultParams {
                        mttf: SimTime::from_ms(10.0),
                        mttr: SimTime::from_ms(1.0),
                        degraded_fraction: 0.5,
                        bandwidth_factor: 0.25,
                        extra_latency: SimTime::from_ns(250.0),
                        corruption_prob: 0.2,
                        max_retransmits: 3,
                        retransmit_backoff: SimTime::from_ns(200.0),
                        horizon,
                    },
                    catalog.cluster.ring().segments(),
                );
                Trace { arrivals, faults }
            })
            .collect();
        CloudBench {
            catalog,
            traces,
            tuning: AdmissionTuning {
                trace_spans: false,
                elasticity: ElasticityPolicy::FULL,
                ..AdmissionTuning::default()
            },
            trace_capacity: SMALL_TRACE_RING,
            exports: false,
        }
    }

    /// `observed`: 6,000 set-5 tasks arriving every 200 us on average
    /// (about 40% of the cluster's capacity, so queues stay short and the
    /// span count tracks the task count), with the span forest, the
    /// telemetry monitor (250 us windows, one p99 latency SLO) and the
    /// default trace ring on; the timed section includes the report,
    /// Chrome-trace and Prometheus exporters.
    pub fn observed(seed: u64, scale: &Scale) -> Self {
        let tasks = scale.cloud_tasks.unwrap_or(6_000);
        CloudBench {
            catalog: Catalog::build(),
            traces: vec![Trace {
                arrivals: poisson_arrivals(seed, tasks, SimTime::from_us(200.0), Mix::SET5),
                faults: FaultPlan::none(),
            }],
            tuning: AdmissionTuning {
                monitor: MonitorConfig::enabled(
                    SimTime::from_us(250.0),
                    vec![SloSpec::latency("p99_latency", 0.99, SimTime::from_ms(5.0))],
                ),
                ..AdmissionTuning::default()
            },
            trace_capacity: DEFAULT_TRACE_CAPACITY,
            exports: true,
        }
    }

    /// Serializes the report, the span forest and the metrics registry,
    /// each as its own layer call; returns the report JSON and the bytes
    /// written.
    fn export(probe: &mut Probe, report: &CloudReport) -> (String, u64) {
        let all = probe.enter("export");
        let o = probe.enter("export.report_json");
        let json = report.to_json().pretty();
        probe.exit(o);
        let o = probe.enter("export.chrome_trace");
        let chrome = chrome_trace_events(&[&report.spans]).compact();
        probe.exit(o);
        let o = probe.enter("export.prometheus");
        let prom = prometheus_text(&report.metrics);
        probe.exit(o);
        probe.exit(all);
        let bytes = (json.len() + chrome.len() + prom.len()) as u64;
        (json, bytes)
    }
}

/// How one simulation's value combines with the others of a round.
#[derive(Clone, Copy)]
enum Fold {
    Sum,
    Max,
    Mean,
}

/// The per-layer values of one simulation.
fn sim_values(
    stats: &ControllerStats,
    report: &CloudReport,
    export_bytes: u64,
) -> Vec<(&'static str, f64, Fold)> {
    let attempts = stats.probes + stats.cache_hits;
    let queue_wait = report
        .metrics
        .timers()
        .find(|(name, _)| *name == "queue_wait_s")
        .map(|(_, id)| id);
    let wait_ms = |q: f64| {
        queue_wait
            .and_then(|id| report.metrics.timer_quantile(id, q))
            .unwrap_or(0.0)
            * 1e3
    };
    let monitor_windows = report
        .monitor
        .as_ref()
        .map_or(0, |m| m.rollups.series_for(&RollupKey::Cluster).len());
    use Fold::{Max, Mean, Sum};
    vec![
        ("controller.probes", stats.probes as f64, Sum),
        ("controller.cache_hits", stats.cache_hits as f64, Sum),
        ("controller.deploys", stats.deploys as f64, Sum),
        ("controller.releases", stats.releases as f64, Sum),
        ("controller.rejects", stats.total_rejects() as f64, Sum),
        (
            "controller.useful_ratio",
            stats.deploys as f64 / attempts.max(1) as f64,
            Mean,
        ),
        (
            "cloudsim.peak_queue_depth",
            report.peak_queue_depth as f64,
            Max,
        ),
        ("cloudsim.interrupted", report.interrupted as f64, Sum),
        ("cloudsim.migrated", report.migrated as f64, Sum),
        ("cloudsim.redeployments", report.redeployments as f64, Sum),
        ("cloudsim.requeued", report.requeued as f64, Sum),
        ("cloudsim.promotions", report.promotions as f64, Sum),
        ("cloudsim.preemptions", report.preemptions as f64, Sum),
        ("link.retransmits", report.link_retransmits as f64, Sum),
        ("link.reroutes", report.link_reroutes as f64, Sum),
        ("link.severed", report.link_severed as f64, Sum),
        ("span.count", report.spans.len() as f64, Sum),
        ("trace.dropped", report.trace.dropped() as f64, Sum),
        ("monitor.windows", monitor_windows as f64, Sum),
        ("export.bytes", export_bytes as f64, Sum),
        ("cloudsim.queue_wait_p50_ms", wait_ms(0.5), Mean),
        ("cloudsim.queue_wait_p99_ms", wait_ms(0.99), Mean),
        ("cloudsim.mean_occupancy", report.mean_occupancy, Mean),
        (
            "cloudsim.sim_throughput_tasks_per_s",
            report.throughput_per_s,
            Mean,
        ),
        (
            "cloudsim.sim_latency_p50_ms",
            report.latency_p50.unwrap_or(0.0) * 1e3,
            Mean,
        ),
        (
            "cloudsim.sim_latency_p99_ms",
            report.latency_p99.unwrap_or(0.0) * 1e3,
            Mean,
        ),
    ]
}

/// Combines the simulations' values of one round.
fn fold(per_sim: &[Vec<(&'static str, f64, Fold)>]) -> Vec<(&'static str, f64)> {
    let Some(first) = per_sim.first() else {
        return Vec::new();
    };
    let n = per_sim.len() as f64;
    (0..first.len())
        .map(|i| {
            let (name, _, how) = first[i];
            let values = per_sim.iter().map(|v| v[i].1);
            let value = match how {
                Fold::Sum => values.sum(),
                Fold::Max => values.fold(0.0, f64::max),
                Fold::Mean => values.sum::<f64>() / n,
            };
            (name, value)
        })
        .collect()
}

impl Bench for CloudBench {
    fn input_digest(&self) -> u64 {
        self.traces
            .iter()
            .fold(Fnv::default(), |h, t| {
                h.u64(input_digest(&t.arrivals, &t.faults))
            })
            .finish()
    }

    fn round(&mut self, probe: &mut Probe) -> Round {
        let instance_for = CallTimer::default();
        let service_time = CallTimer::default();
        let timed = probe.traced();
        let catalog = &self.catalog;
        let start = Instant::now();
        let mut results = Vec::with_capacity(self.traces.len());
        for trace in &self.traces {
            let sim = probe.enter("cloudsim");
            let mut controller =
                SystemController::new(catalog.cluster.clone(), catalog.db.clone(), Policy::Full);
            let result = run_cloud_sim_tuned(
                &mut controller,
                &trace.arrivals,
                &|task| instance_for.call(timed, || catalog.instance_for(task)),
                &|task, deployment| {
                    service_time.call(timed, || {
                        catalog.service_time(task, deployment, Policy::Full)
                    })
                },
                &trace.faults,
                RecoveryPolicy::default(),
                self.trace_capacity,
                self.tuning.clone(),
            );
            probe.exit(sim);
            results.push(result.map(|report| {
                let exported = self.exports.then(|| Self::export(probe, &report));
                (*controller.stats(), report, exported)
            }));
        }
        let host_s = start.elapsed().as_secs_f64();

        let mut round = Round {
            host_s,
            callbacks: vec![
                ("cloudsim.instance_for", instance_for.host_s()),
                ("cloudsim.service_time", service_time.host_s()),
            ],
            ..Round::default()
        };
        let mut digest = Fnv::default();
        let mut per_sim = Vec::with_capacity(results.len());
        let mut unaccounted = Vec::new();
        let mut errors = Vec::new();
        for (trace, result) in self.traces.iter().zip(results) {
            round.items += trace.arrivals.len() as u64;
            let (stats, report, exported) = match result {
                Ok(r) => r,
                Err(e) => {
                    round.failed += trace.arrivals.len() as u64;
                    errors.push(e.to_string());
                    continue;
                }
            };
            let (json, export_bytes) = exported.unwrap_or_else(|| (report.to_json().pretty(), 0));
            digest = digest.u64(fnv1a(&json));
            round.failed += report.never_deployed + report.lost;
            if !report.accounts_for_all_arrivals() {
                unaccounted.push(format!(
                    "{} + {} + {} != {}",
                    report.completed, report.never_deployed, report.lost, report.arrivals
                ));
            }
            per_sim.push(sim_values(&stats, &report, export_bytes));
        }
        round.digest = digest.finish();
        round.values = fold(&per_sim);
        round.values.extend([
            ("cloudsim.instance_for.calls", instance_for.calls() as f64),
            ("cloudsim.service_time.calls", service_time.calls() as f64),
        ]);
        round.checks = vec![
            Check::new("every simulation completes", errors.is_empty(), || {
                errors.join("; ")
            }),
            Check::new(
                "completed + never_deployed + lost == arrivals",
                unaccounted.is_empty(),
                || unaccounted.join("; "),
            ),
        ];
        round
    }
}
