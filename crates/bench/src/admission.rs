//! Admission-path benchmark: the shipped scheduler against the naive
//! reference scheduler (`repro bench`, writes `BENCH_admission.json`).
//!
//! The scenario floods the paper cluster with a 10k-task workload set
//! arriving far above service capacity, so the admission queue saturates
//! and the scheduler's cost is dominated by re-probing queued tasks. Each
//! scenario runs over identical inputs through:
//!
//! * **current** — the shipped engine: `Arc`-shared catalog entries, the
//!   capacity-epoch feasibility cache, the known-infeasible skip rule
//!   and free-slot pruning.
//! * **baseline** — `vfpga_fuzz::ReferenceScheduler`, the deliberately
//!   naive scheduler the `scheduler-lockstep` oracle pins the engine to:
//!   it re-runs a full placement probe for every queued task after every
//!   event (O(events × window)). The `probe_ratio` is measured against
//!   its attempt count.
//!
//! The headline numbers are `deploy_attempts` (full placement probes, the
//! expensive operation), `deploy_attempts_per_admission`, and wall-clock.
//! Outcomes must agree between the two — the fast path changes how much
//! work admission does, never what it admits — and the bench fails loudly
//! if they diverge (the decision-by-decision version of that guarantee is
//! the `scheduler-lockstep` oracle and `tests/admission_reference.rs`).

use std::time::Instant;

use vfpga_fuzz::{ReferenceReport, ReferenceScheduler};
use vfpga_runtime::{AdmissionTuning, CloudReport, Policy, RecoveryPolicy};
use vfpga_sim::{FaultPlan, FaultPlanParams, Json, SimTime};
use vfpga_workload::{generate_workload, Composition, TaskArrival};

use crate::catalog::Catalog;

/// Parameters of one admission-bench run.
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    /// Tasks in the workload set.
    pub tasks: usize,
    /// Workload / fault-plan seed.
    pub seed: u64,
    /// Mean interarrival time. The default saturates the paper cluster by
    /// a wide margin, which is the regime the fast path exists for.
    pub mean_interarrival: SimTime,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            tasks: 10_000,
            seed: 2024,
            mean_interarrival: SimTime::from_us(20.0),
        }
    }
}

/// Counters from one timed run of the scenario.
#[derive(Debug, Clone, Copy)]
pub struct RunCost {
    /// Wall-clock the simulation took, in milliseconds.
    pub wall_ms: f64,
    /// Full placement probes (database lookup + option scan + device
    /// scan) — the expensive admission operation.
    pub probes: u64,
    /// Attempts answered by the feasibility cache (0 for the reference).
    pub cache_hits: u64,
    /// Successful controller deploys (admissions + redeployments).
    pub admissions: u64,
    /// Tasks completed.
    pub completed: u64,
    /// Tasks never deployed (stranded at drain).
    pub never_deployed: u64,
    /// Tasks lost.
    pub lost: u64,
    /// Final sim time.
    pub elapsed: SimTime,
}

impl RunCost {
    /// Full probes per successful admission — the artifact's regression
    /// ceiling watches this.
    pub fn attempts_per_admission(&self) -> f64 {
        self.probes as f64 / (self.admissions.max(1)) as f64
    }

    fn to_json(self) -> Json {
        Json::obj()
            .with("wall_ms", self.wall_ms)
            .with("deploy_attempts", self.probes)
            .with("cache_hits", self.cache_hits)
            .with("admissions", self.admissions)
            .with(
                "deploy_attempts_per_admission",
                self.attempts_per_admission(),
            )
            .with("completed", self.completed)
            .with("never_deployed", self.never_deployed)
            .with("lost", self.lost)
            .with("elapsed_s", self.elapsed.as_secs())
    }
}

/// One scenario measured in both modes.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// `"steady"` or `"chaos"`.
    pub name: &'static str,
    /// The shipped fast path.
    pub current: RunCost,
    /// The naive reference scheduler.
    pub baseline: RunCost,
    /// Whether both runs admitted/completed identically (they must).
    pub outcomes_match: bool,
}

impl ScenarioResult {
    /// How many times fewer full probes the fast path ran.
    pub fn probe_ratio(&self) -> f64 {
        self.baseline.probes as f64 / (self.current.probes.max(1)) as f64
    }

    /// Wall-clock speedup of the fast path.
    pub fn wall_ratio(&self) -> f64 {
        self.baseline.wall_ms / self.current.wall_ms.max(1e-9)
    }

    /// Serializes the scenario block.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("name", self.name)
            .with("current", self.current.to_json())
            .with("baseline", self.baseline.to_json())
            .with("probe_ratio", self.probe_ratio())
            .with("wall_ratio", self.wall_ratio())
            .with("outcomes_match", self.outcomes_match)
    }
}

/// The full bench result: both scenarios plus the headline aggregates CI
/// greps and gates on.
#[derive(Debug, Clone)]
pub struct AdmissionBench {
    /// The seed everything was generated from.
    pub seed: u64,
    /// Tasks per scenario.
    pub tasks: usize,
    /// Saturated steady-state (no faults) and chaos scenarios.
    pub scenarios: Vec<ScenarioResult>,
}

impl AdmissionBench {
    /// The worst (largest) probes-per-admission across scenarios in the
    /// shipped configuration — the value the CI ceiling checks.
    pub fn attempts_per_admission(&self) -> f64 {
        self.scenarios
            .iter()
            .map(|s| s.current.attempts_per_admission())
            .fold(0.0, f64::max)
    }

    /// The smallest probe-reduction factor across scenarios.
    pub fn min_probe_ratio(&self) -> f64 {
        self.scenarios
            .iter()
            .map(ScenarioResult::probe_ratio)
            .fold(f64::INFINITY, f64::min)
    }

    /// Whether every scenario's two runs agreed on outcomes.
    pub fn outcomes_match(&self) -> bool {
        self.scenarios.iter().all(|s| s.outcomes_match)
    }

    /// Serializes the artifact body (the caller adds `schema_version`).
    pub fn to_json(&self) -> Json {
        let scenarios: Vec<Json> = self.scenarios.iter().map(ScenarioResult::to_json).collect();
        Json::obj()
            .with("seed", self.seed)
            .with("tasks", self.tasks as u64)
            .with("scenarios", Json::Arr(scenarios))
            .with(
                "deploy_attempts_per_admission",
                self.attempts_per_admission(),
            )
            .with("min_probe_ratio", self.min_probe_ratio())
            .with("outcomes_match", self.outcomes_match())
    }
}

/// One timed run of the shipped scheduler.
fn timed_run(
    catalog: &Catalog,
    arrivals: &[TaskArrival],
    faults: &FaultPlan,
) -> (RunCost, CloudReport) {
    let mut controller = catalog.controller(Policy::Full);
    // Spans off: at bench scale the forest would dominate wall-clock and
    // memory, and the comparison must time the scheduler, not the tracer.
    let tuning = AdmissionTuning {
        trace_spans: false,
        ..AdmissionTuning::default()
    };
    let start = Instant::now();
    // The ring only keeps a window; a small one avoids measuring it.
    let report = catalog
        .simulate(&mut controller, arrivals, faults, 1024, tuning)
        .expect("bench simulation completes");
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let stats = controller.stats();
    let cost = RunCost {
        wall_ms,
        probes: stats.probes,
        cache_hits: stats.cache_hits,
        admissions: stats.deploys,
        completed: report.completed,
        never_deployed: report.never_deployed,
        lost: report.lost,
        elapsed: report.elapsed,
    };
    (cost, report)
}

/// One timed run of the reference scheduler over the same inputs.
fn reference_run(
    catalog: &Catalog,
    arrivals: &[TaskArrival],
    faults: &FaultPlan,
) -> (RunCost, ReferenceReport) {
    let start = Instant::now();
    let report = ReferenceScheduler::run(
        &catalog.cluster,
        &catalog.db,
        Policy::Full,
        arrivals,
        &|task| catalog.instance_for(task),
        &|task, deployment| catalog.service_time(task, deployment, Policy::Full),
        faults,
        RecoveryPolicy::default(),
    )
    .expect("reference simulation completes");
    let cost = RunCost {
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        probes: report.attempts,
        cache_hits: 0,
        admissions: report.deploys,
        completed: report.completed,
        never_deployed: report.never_deployed,
        lost: report.lost,
        elapsed: report.elapsed,
    };
    (cost, report)
}

/// Runs one scenario (fast path first, then the reference) over
/// identical inputs.
fn run_scenario(
    catalog: &Catalog,
    config: &BenchConfig,
    name: &'static str,
    faults: &FaultPlan,
) -> ScenarioResult {
    let arrivals = generate_workload(
        Composition::TABLE1[4],
        config.tasks,
        config.mean_interarrival,
        config.seed,
    );
    let (current, current_report) = timed_run(catalog, &arrivals, faults);
    let (baseline, reference) = reference_run(catalog, &arrivals, faults);
    ScenarioResult {
        name,
        current,
        baseline,
        outcomes_match: reference.check_report(&current_report).is_ok(),
    }
}

/// Runs the full admission bench: the saturated steady-state scenario and
/// the same workload under a chaos plan.
pub fn run(catalog: &Catalog, config: &BenchConfig) -> AdmissionBench {
    let steady = run_scenario(catalog, config, "steady", &FaultPlan::none());
    // Failures keep arriving over the whole (saturated) workload span.
    let horizon = SimTime::from_us(config.mean_interarrival.as_us() * config.tasks as f64 * 1.5);
    let plan = FaultPlan::generate(
        FaultPlanParams {
            mttf: SimTime::from_ms(5.0),
            mttr: SimTime::from_ms(1.0),
            configure_failure_prob: 0.0,
            horizon,
        },
        catalog.cluster.len(),
        config.seed,
    );
    let chaos = run_scenario(catalog, config, "chaos", &plan);
    AdmissionBench {
        seed: config.seed,
        tasks: config.tasks,
        scenarios: vec![steady, chaos],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scaled-down config so the test suite stays fast; the real 10k
    /// bench runs via `repro bench` (and in CI's bench job).
    fn small() -> BenchConfig {
        BenchConfig {
            tasks: 400,
            seed: 7,
            ..BenchConfig::default()
        }
    }

    #[test]
    fn fast_path_cuts_probes_without_changing_outcomes() {
        let catalog = Catalog::build();
        let bench = run(&catalog, &small());
        assert_eq!(bench.scenarios.len(), 2);
        assert!(bench.outcomes_match(), "fast path changed admissions");
        for s in &bench.scenarios {
            assert!(
                s.probe_ratio() >= 3.0,
                "{}: probe ratio {:.2} below the 3x bar ({} vs {})",
                s.name,
                s.probe_ratio(),
                s.baseline.probes,
                s.current.probes
            );
            assert!(s.current.admissions > 0);
        }
    }

    #[test]
    fn artifact_json_carries_the_gated_fields() {
        let catalog = Catalog::build();
        let bench = run(&catalog, &small());
        let text = bench.to_json().pretty();
        for key in [
            "\"deploy_attempts_per_admission\"",
            "\"min_probe_ratio\"",
            "\"outcomes_match\"",
            "\"baseline\"",
            "\"current\"",
            "\"wall_ms\"",
        ] {
            assert!(text.contains(key), "missing {key} in {text}");
        }
        assert!(Json::parse(&text).is_ok());
    }
}
