//! Regeneration of Fig. 12: aggregated system throughput over the ten
//! synthetic workload sets, under the three runtime systems.

use vfpga_runtime::{AdmissionTuning, CloudReport, Policy, DEFAULT_TRACE_CAPACITY};
use vfpga_sim::{FaultPlan, Json, SimTime};
use vfpga_workload::{generate_workload, Composition};

use crate::catalog::Catalog;

/// One bar group of Fig. 12.
#[derive(Debug, Clone, Copy)]
pub struct Fig12Row {
    /// Workload set index (1-based, Table 1).
    pub set: usize,
    /// Baseline system throughput (tasks/s).
    pub baseline: f64,
    /// Restricted-policy system throughput.
    pub restricted: f64,
    /// This work's throughput.
    pub full: f64,
}

impl Fig12Row {
    /// Speedup of the full system over the baseline.
    pub fn speedup(&self) -> f64 {
        if self.baseline == 0.0 {
            f64::INFINITY
        } else {
            self.full / self.baseline
        }
    }
}

/// The full observability reports of one workload set under all three
/// systems — everything [`Fig12Row`] summarizes, plus time series,
/// rejection breakdowns, and the scheduler trace per policy.
#[derive(Debug, Clone)]
pub struct Fig12SetReport {
    /// Workload set index (1-based, Table 1).
    pub set: usize,
    /// Baseline system report.
    pub baseline: CloudReport,
    /// Restricted-policy system report.
    pub restricted: CloudReport,
    /// This work's report.
    pub full: CloudReport,
}

impl Fig12SetReport {
    /// The throughput summary row (the bar heights of Fig. 12).
    pub fn row(&self) -> Fig12Row {
        Fig12Row {
            set: self.set,
            baseline: self.baseline.throughput_per_s,
            restricted: self.restricted.throughput_per_s,
            full: self.full.throughput_per_s,
        }
    }

    /// Serializes the three per-policy reports.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("set", self.set)
            .with("baseline", self.baseline.to_json())
            .with("restricted", self.restricted.to_json())
            .with("full", self.full.to_json())
    }
}

/// Runs one workload set under one policy, returning the full report
/// (throughput, latency percentiles, occupancy/queue-depth series,
/// rejection reasons, scheduler trace).
pub fn run_set(
    catalog: &Catalog,
    set_index: usize,
    policy: Policy,
    tasks: usize,
    seed: u64,
) -> CloudReport {
    let composition = Composition::TABLE1[set_index - 1];
    let arrivals = generate_workload(
        composition,
        tasks,
        SimTime::from_us(50.0),
        seed + set_index as u64,
    );
    let mut controller = catalog.controller(policy);
    if policy == Policy::Baseline {
        controller = controller
            .with_provisioning(catalog.baseline_provisioning())
            .expect("the baseline provisioning fits the paper cluster");
    }
    catalog
        .simulate(
            &mut controller,
            &arrivals,
            &FaultPlan::none(),
            DEFAULT_TRACE_CAPACITY,
            AdmissionTuning::default(),
        )
        .expect("cloud simulation completes")
}

/// Runs all ten workload sets under all three systems, keeping the full
/// per-policy reports.
pub fn run_all_sets(catalog: &Catalog, tasks: usize, seed: u64) -> Vec<Fig12SetReport> {
    (1..=Composition::TABLE1.len())
        .map(|set| Fig12SetReport {
            set,
            baseline: run_set(catalog, set, Policy::Baseline, tasks, seed),
            restricted: run_set(catalog, set, Policy::Restricted, tasks, seed),
            full: run_set(catalog, set, Policy::Full, tasks, seed),
        })
        .collect()
}

/// Serializes the whole experiment: per-set reports plus the aggregate
/// speedup the paper reports.
pub fn to_json(reports: &[Fig12SetReport]) -> Json {
    let rows: Vec<Fig12Row> = reports.iter().map(Fig12SetReport::row).collect();
    Json::obj().with("mean_speedup", mean_speedup(&rows)).with(
        "sets",
        Json::Arr(reports.iter().map(Fig12SetReport::to_json).collect()),
    )
}

/// Geometric-mean speedup of the full system over the baseline across
/// rows (the paper reports 2.54x average).
pub fn mean_speedup(rows: &[Fig12Row]) -> f64 {
    let product: f64 = rows.iter().map(Fig12Row::speedup).product();
    product.powf(1.0 / rows.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_beats_baseline_on_an_all_small_set() {
        let catalog = Catalog::build();
        // Set 1 (100% small tasks) is where spatial sharing pays the most.
        let baseline = run_set(&catalog, 1, Policy::Baseline, 80, 42).throughput_per_s;
        let full = run_set(&catalog, 1, Policy::Full, 80, 42).throughput_per_s;
        assert!(
            full > baseline * 1.2,
            "full {full} should clearly beat baseline {baseline}"
        );
    }

    #[test]
    fn heterogeneous_deployment_beats_restricted_on_large_tasks() {
        // Set 3 is 100% large tasks: the restricted (same-device-type)
        // policy cannot span the VU37P/KU115 pair, which is exactly where
        // the full policy's heterogeneous multi-FPGA support pays off.
        let catalog = Catalog::build();
        let restricted = run_set(&catalog, 3, Policy::Restricted, 60, 7).throughput_per_s;
        let full = run_set(&catalog, 3, Policy::Full, 60, 7).throughput_per_s;
        assert!(
            full > restricted * 1.1,
            "full {full} should clearly beat restricted {restricted} on all-large sets"
        );
    }
}
