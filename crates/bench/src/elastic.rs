//! Elastic-reprovisioning benchmark: the cloud scheduler with and without
//! the dynamic elasticity engine (`repro elastic`, writes
//! `BENCH_elastic.json`).
//!
//! The scenario drives the paper cluster with a *bursty* workload set —
//! tight bursts separated by lulls — which is exactly the regime the
//! reprovisioner targets:
//!
//! * during a lull the cluster idles and large tasks that stream weights
//!   on their greedy single-unit placement get **promoted** to a
//!   co-located multi-unit variant (aggregate weight memory stops the
//!   streaming, so the same task finishes sooner);
//! * when the next burst piles up behind those grown tenants, the
//!   reprovisioner **preemptively scales the cheapest victim down**,
//!   handing its units to the queue.
//!
//! Both modes run over byte-identical arrivals: **on** enables
//! [`ElasticityPolicy::FULL`], **off** runs the plain scheduler. The
//! artifact self-fails unless elasticity improves tail latency (p95) and
//! both runs keep the accounting invariant — a reprovisioner that loses
//! tasks or slows the tail is a regression, not a feature.

use std::time::Instant;

use vfpga_runtime::{AdmissionTuning, CloudReport, ElasticityPolicy, Policy};
use vfpga_sim::{FaultPlan, Json, Rng, SimTime};
use vfpga_workload::{deepbench_tasks, RnnTask, SizeClass, TaskArrival};

use crate::catalog::Catalog;

/// Parameters of one elastic-bench run.
#[derive(Debug, Clone, Copy)]
pub struct ElasticConfig {
    /// Tasks in the workload set.
    pub tasks: usize,
    /// Workload seed.
    pub seed: u64,
    /// Tasks per burst.
    pub burst: usize,
    /// Mean gap between tasks inside a burst.
    pub intra_gap: SimTime,
    /// Mean lull between bursts — long enough for the cluster to drain
    /// and the promotion pass to find idle capacity.
    pub lull: SimTime,
}

impl Default for ElasticConfig {
    fn default() -> Self {
        ElasticConfig {
            tasks: 10_000,
            seed: 2024,
            burst: 25,
            intra_gap: SimTime::from_us(2.0),
            lull: SimTime::from_ms(5.0),
        }
    }
}

/// Synthesizes the bursty workload: bursts of `burst` tasks with tight
/// exponential intra-burst gaps, separated by exponential lulls. The mix
/// leans on large tasks (30%) because they are the ones whose single-unit
/// placement streams weights — the promotion lever.
pub fn bursty_workload(config: &ElasticConfig) -> Vec<TaskArrival> {
    let pool = deepbench_tasks();
    let class = |c: SizeClass| -> Vec<RnnTask> {
        pool.iter()
            .copied()
            .filter(|t| t.size_class() == c)
            .collect()
    };
    let (small, medium, large) = (
        class(SizeClass::Small),
        class(SizeClass::Medium),
        class(SizeClass::Large),
    );
    let mut rng = Rng::seed_from_u64(config.seed);
    let mut now = SimTime::ZERO;
    let mut out = Vec::with_capacity(config.tasks);
    while out.len() < config.tasks {
        for _ in 0..config.burst.min(config.tasks - out.len()) {
            let u = rng.next_f64();
            let pool = if u < 0.5 {
                &small
            } else if u < 0.7 {
                &medium
            } else {
                &large
            };
            let task = pool[rng.below(pool.len())];
            now += SimTime::from_secs(rng.exp(config.intra_gap.as_secs()));
            out.push(TaskArrival { at: now, task });
        }
        now += SimTime::from_secs(rng.exp(config.lull.as_secs()));
    }
    out
}

/// Measurements from one mode of the scenario.
#[derive(Debug, Clone, Copy)]
pub struct ElasticRun {
    /// Wall-clock the simulation took, in milliseconds.
    pub wall_ms: f64,
    /// Tasks completed.
    pub completed: u64,
    /// Tasks never deployed (stranded at drain).
    pub never_deployed: u64,
    /// Tasks lost.
    pub lost: u64,
    /// Final sim time.
    pub elapsed: SimTime,
    /// End-to-end latency percentiles, seconds.
    pub p50: f64,
    /// 95th percentile — the headline gate.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Mean end-to-end latency, seconds.
    pub mean_latency: f64,
    /// Mean first-admission queue wait, seconds.
    pub mean_queue_wait: f64,
    /// Reprovisioner actions (0 with elasticity off).
    pub promotions: u64,
    /// Preemptive scale-downs (0 with elasticity off).
    pub preemptions: u64,
    /// Units gained across promotions.
    pub units_gained: u64,
    /// Units lost across preemptions.
    pub units_lost: u64,
    /// Mean remaining-service seconds saved per promotion.
    pub promotion_saved_mean: f64,
    /// Mean remaining-service seconds added per preemption.
    pub preemption_added_mean: f64,
    /// `completed + never_deployed + lost == arrivals` held.
    pub accounted: bool,
}

impl ElasticRun {
    fn from_report(report: &CloudReport, wall_ms: f64) -> Self {
        ElasticRun {
            wall_ms,
            completed: report.completed,
            never_deployed: report.never_deployed,
            lost: report.lost,
            elapsed: report.elapsed,
            p50: report.latency_p50.unwrap_or(0.0),
            p95: report.latency_p95.unwrap_or(0.0),
            p99: report.latency_p99.unwrap_or(0.0),
            mean_latency: report.latency.mean(),
            mean_queue_wait: report.queue_wait.mean(),
            promotions: report.promotions,
            preemptions: report.preemptions,
            units_gained: report.units_gained,
            units_lost: report.units_lost,
            promotion_saved_mean: report.promotion_saved.mean(),
            preemption_added_mean: report.preemption_added.mean(),
            accounted: report.accounts_for_all_arrivals(),
        }
    }

    fn to_json(self) -> Json {
        Json::obj()
            .with("wall_ms", self.wall_ms)
            .with("completed", self.completed)
            .with("never_deployed", self.never_deployed)
            .with("lost", self.lost)
            .with("elapsed_s", self.elapsed.as_secs())
            .with("latency_p50_s", self.p50)
            .with("latency_p95_s", self.p95)
            .with("latency_p99_s", self.p99)
            .with("latency_mean_s", self.mean_latency)
            .with("queue_wait_mean_s", self.mean_queue_wait)
            .with("promotions", self.promotions)
            .with("preemptions", self.preemptions)
            .with("units_gained", self.units_gained)
            .with("units_lost", self.units_lost)
            .with("promotion_saved_mean_s", self.promotion_saved_mean)
            .with("preemption_added_mean_s", self.preemption_added_mean)
            .with("accounted", self.accounted)
    }
}

/// The full A/B result plus the gates CI (and `repro elastic` itself)
/// checks.
#[derive(Debug, Clone)]
pub struct ElasticBench {
    /// The seed everything was generated from.
    pub seed: u64,
    /// Tasks in the workload.
    pub tasks: usize,
    /// Elasticity on ([`ElasticityPolicy::FULL`]).
    pub on: ElasticRun,
    /// Elasticity off — the plain scheduler over identical arrivals.
    pub off: ElasticRun,
}

impl ElasticBench {
    /// How many times shorter the p95 latency is with elasticity on.
    pub fn p95_ratio(&self) -> f64 {
        self.off.p95 / self.on.p95.max(1e-12)
    }

    /// Absolute p95 improvement, seconds (positive = elasticity wins).
    pub fn p95_delta(&self) -> f64 {
        self.off.p95 - self.on.p95
    }

    /// The outcome gates: both runs keep the accounting invariant and
    /// complete every task, the off run never reprovisions, the on run
    /// actually exercises both levers, and p95 strictly improves.
    pub fn passes(&self) -> bool {
        self.failures().is_empty()
    }

    /// Every violated gate, as static labels for the failure message.
    pub fn failures(&self) -> Vec<&'static str> {
        let mut f = Vec::new();
        if !self.on.accounted || !self.off.accounted {
            f.push("accounting invariant broken");
        }
        if self.on.completed != self.tasks as u64 || self.off.completed != self.tasks as u64 {
            f.push("not every task completed");
        }
        if self.on.lost != 0 || self.off.lost != 0 {
            f.push("tasks lost");
        }
        if self.off.promotions != 0 || self.off.preemptions != 0 {
            f.push("elasticity-off run reprovisioned");
        }
        if self.on.promotions == 0 {
            f.push("no promotions fired");
        }
        if self.on.preemptions == 0 {
            f.push("no preemptions fired");
        }
        if self.on.p95 >= self.off.p95 {
            f.push("p95 did not improve");
        }
        f
    }

    /// Serializes the artifact body (the caller adds `schema_version`).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("seed", self.seed)
            .with("tasks", self.tasks as u64)
            .with("elasticity_on", self.on.to_json())
            .with("elasticity_off", self.off.to_json())
            .with("p95_ratio", self.p95_ratio())
            .with("p95_delta_s", self.p95_delta())
            .with("passes", self.passes())
    }
}

/// One timed run of the scenario in the given elasticity mode.
fn timed_run(
    catalog: &Catalog,
    arrivals: &[TaskArrival],
    elasticity: ElasticityPolicy,
) -> ElasticRun {
    let tuning = AdmissionTuning {
        // Spans off at bench scale (see the admission bench); the span
        // plumbing of the reprovisioner is covered by the unit suite.
        trace_spans: false,
        elasticity,
        ..AdmissionTuning::default()
    };
    let mut controller = catalog.controller(Policy::Full);
    let start = Instant::now();
    let report = catalog
        .simulate(&mut controller, arrivals, &FaultPlan::none(), 1024, tuning)
        .expect("bench simulation completes");
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    ElasticRun::from_report(&report, wall_ms)
}

/// Runs the A/B comparison over one bursty workload.
pub fn run(catalog: &Catalog, config: &ElasticConfig) -> ElasticBench {
    let arrivals = bursty_workload(config);
    let on = timed_run(catalog, &arrivals, ElasticityPolicy::FULL);
    let off = timed_run(catalog, &arrivals, ElasticityPolicy::DISABLED);
    ElasticBench {
        seed: config.seed,
        tasks: config.tasks,
        on,
        off,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scaled-down config so the test suite stays fast; the real 10k
    /// bench runs via `repro elastic` (and in CI's elastic job).
    fn small() -> ElasticConfig {
        ElasticConfig {
            tasks: 500,
            seed: 7,
            ..ElasticConfig::default()
        }
    }

    #[test]
    fn large_pool_tasks_stream_on_one_unit_but_not_two() {
        // The promotion lever: every large-class task in the pool must
        // exceed bw-l's per-unit weight memory (so its greedy single-unit
        // placement streams) yet fit the two-unit aggregate.
        let catalog = Catalog::build();
        let per_unit = catalog.instances["bw-l"].config.weight_memory_kb;
        for task in deepbench_tasks()
            .into_iter()
            .filter(|t| t.size_class() == SizeClass::Large)
        {
            let kb = catalog.task_weight_kb(&task, "bw-l");
            assert!(kb > per_unit, "{task}: {kb} KB fits one unit, no lever");
            assert!(
                kb <= 2 * per_unit,
                "{task}: {kb} KB streams even at 2 units"
            );
        }
    }

    #[test]
    fn elasticity_improves_tail_latency_on_bursty_load() {
        let catalog = Catalog::build();
        let bench = run(&catalog, &small());
        assert!(
            bench.passes(),
            "gates violated: {:?} (p95 on {:.6}s vs off {:.6}s)",
            bench.failures(),
            bench.on.p95,
            bench.off.p95
        );
        assert!(bench.on.units_gained >= bench.on.promotions);
    }

    #[test]
    fn artifact_json_carries_the_gated_fields() {
        let catalog = Catalog::build();
        let bench = run(&catalog, &small());
        let text = bench.to_json().pretty();
        for key in [
            "\"elasticity_on\"",
            "\"elasticity_off\"",
            "\"p95_ratio\"",
            "\"p95_delta_s\"",
            "\"promotions\"",
            "\"preemptions\"",
            "\"passes\"",
        ] {
            assert!(text.contains(key), "missing {key} in {text}");
        }
        assert!(Json::parse(&text).is_ok());
    }
}
