//! Property suite for the elastic reprovisioning engine: invariants that
//! must hold for *any* seed, not just the benchmarked ones.
//!
//! * With elasticity fully on — promotions growing tenants, preemptions
//!   shrinking them, faults interrupting them mid-resize — every arrival
//!   is still accounted for and occupancy stays a valid fraction.
//! * A promotion never grows a deployment past the largest variant the
//!   mapping database offers, and every reprovisioning event moves the
//!   unit count in the direction its name claims.
//! * With elasticity off, the engine is provably absent: the report is
//!   byte-identical to one from the default (pre-elasticity) tuning.
//! * Under device and ring-link chaos, the engine's decisions are pinned:
//!   a golden digest and per-decision counts catch any change in which
//!   tasks it promotes, preempts, migrates or re-routes, or in what order.

use vfpga::runtime::{
    AdmissionTuning, CloudReport, ControllerStats, ElasticityPolicy, Policy, SimEvent,
    DEFAULT_TRACE_CAPACITY,
};
use vfpga::sim::{FaultPlan, FaultPlanParams, LinkFaultParams, SimTime};
use vfpga_bench::elastic::{bursty_workload, ElasticConfig};
use vfpga_bench::Catalog;

/// The fixed seeds the sweep fans over (matching the chaos suite).
const SEEDS: [u64; 4] = [1, 7, 42, 2024];

/// A bursty workload sized for the test suite (the 10k version runs via
/// `repro elastic`).
fn workload(seed: u64, tasks: usize) -> Vec<vfpga::workload::TaskArrival> {
    bursty_workload(&ElasticConfig {
        tasks,
        seed,
        ..ElasticConfig::default()
    })
}

/// One tuned run over the bursty workload.
fn elastic_run(
    catalog: &Catalog,
    arrivals: &[vfpga::workload::TaskArrival],
    faults: &FaultPlan,
    tuning: AdmissionTuning,
) -> CloudReport {
    catalog
        .simulate(
            &mut catalog.controller(Policy::Full),
            arrivals,
            faults,
            DEFAULT_TRACE_CAPACITY,
            tuning,
        )
        .expect("simulation completes")
}

/// A fault plan that keeps failing devices across the whole workload
/// span, so interruptions land while deployments are mid-promotion.
fn fault_plan(
    catalog: &Catalog,
    arrivals: &[vfpga::workload::TaskArrival],
    seed: u64,
) -> FaultPlan {
    let last = arrivals.last().expect("non-empty workload").at;
    FaultPlan::generate(
        FaultPlanParams {
            mttf: SimTime::from_ms(5.0),
            mttr: SimTime::from_ms(1.0),
            configure_failure_prob: 0.0,
            horizon: SimTime::from_secs(last.as_secs() * 1.5),
        },
        catalog.cluster.len(),
        seed,
    )
}

#[test]
fn elastic_chaos_sweep_preserves_accounting() {
    let catalog = Catalog::build();
    for seed in SEEDS {
        let arrivals = workload(seed, 300);
        let faults = fault_plan(&catalog, &arrivals, seed);
        let tuning = AdmissionTuning {
            elasticity: ElasticityPolicy::FULL,
            ..AdmissionTuning::default()
        };
        let report = elastic_run(&catalog, &arrivals, &faults, tuning);
        assert!(
            report.accounts_for_all_arrivals(),
            "seed {seed}: {} completed + {} never_deployed + {} lost != {} arrivals",
            report.completed,
            report.never_deployed,
            report.lost,
            arrivals.len()
        );
        assert!(
            report.device_failures > 0,
            "seed {seed}: plan injected no failures"
        );
        // Resizes must never double-count capacity: occupancy stays a
        // valid fraction at every sample even while promotions grow
        // footprints and failures shrink the denominator.
        for &(_, value) in report.occupancy_series.samples() {
            assert!(
                (0.0..=1.0 + 1e-12).contains(&value),
                "seed {seed}: occupancy sample {value} outside [0, 1]"
            );
        }
        // Every migration or loss traces back to an interruption (device
        // failure or preemption-displacement), never out of thin air.
        assert!(
            report.migrated + report.lost <= report.interrupted,
            "seed {seed}: migrated {} + lost {} exceeds interrupted {}",
            report.migrated,
            report.lost,
            report.interrupted
        );
    }
}

#[test]
fn promotions_never_exceed_the_largest_catalog_variant() {
    let catalog = Catalog::build();
    let max_units = catalog
        .db
        .iter()
        .flat_map(|e| e.options.iter().map(|o| o.num_units() as u32))
        .max()
        .expect("database has options");
    let arrivals = workload(7, 400);
    let tuning = AdmissionTuning {
        elasticity: ElasticityPolicy::FULL,
        ..AdmissionTuning::default()
    };
    let report = elastic_run(&catalog, &arrivals, &FaultPlan::none(), tuning);
    assert_eq!(report.trace.dropped(), 0, "ring too small for this sweep");
    let (mut promotions, mut preemptions) = (0u64, 0u64);
    for event in report.trace.iter() {
        let SimEvent::Resized(task, from_units, to_units, ..) = event.event else {
            continue;
        };
        match event.event.label() {
            "scale_up" => {
                promotions += 1;
                assert!(
                    to_units > from_units,
                    "task {task}: promotion {from_units} -> {to_units} did not grow"
                );
                assert!(
                    to_units <= max_units,
                    "task {task}: promoted to {to_units} units, catalog max is {max_units}"
                );
            }
            _ => {
                preemptions += 1;
                assert!(
                    to_units < from_units,
                    "task {task}: preemption {from_units} -> {to_units} did not shrink"
                );
            }
        }
    }
    assert_eq!(report.promotions, promotions, "counter/trace disagree");
    assert_eq!(report.preemptions, preemptions, "counter/trace disagree");
    assert!(promotions > 0, "sweep exercised no promotions");
    assert!(preemptions > 0, "sweep exercised no preemptions");
}

#[test]
fn elasticity_off_reports_are_byte_identical_to_default_tuning() {
    let catalog = Catalog::build();
    for seed in [7, 2024] {
        let arrivals = workload(seed, 300);
        let faults = fault_plan(&catalog, &arrivals, seed);
        let explicit = AdmissionTuning {
            elasticity: ElasticityPolicy::DISABLED,
            ..AdmissionTuning::default()
        };
        let off = elastic_run(&catalog, &arrivals, &faults, explicit)
            .to_json()
            .pretty();
        let default = elastic_run(&catalog, &arrivals, &faults, AdmissionTuning::default())
            .to_json()
            .pretty();
        assert_eq!(
            off, default,
            "seed {seed}: disabled elasticity left a footprint in the report"
        );
    }
}

/// A `chaos_elastic`-shaped run: a bursty workload under device faults
/// with transient configure faults and ring-link faults (half of them
/// degradations, corrupting transfers), with promotion and preemption on;
/// returns the report and the controller's lifetime counters.
fn chaos_elastic_run(catalog: &Catalog, seed: u64) -> (CloudReport, ControllerStats) {
    let arrivals = workload(seed, 2_000);
    let last = arrivals.last().expect("non-empty workload").at;
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
    let tuning = AdmissionTuning {
        elasticity: ElasticityPolicy::FULL,
        ..AdmissionTuning::default()
    };
    let mut controller = catalog.controller(Policy::Full);
    let report = catalog
        .simulate(
            &mut controller,
            &arrivals,
            &faults,
            DEFAULT_TRACE_CAPACITY,
            tuning,
        )
        .expect("simulation completes");
    (report, *controller.stats())
}

/// FNV-1a over a text.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn chaos_elastic_decisions_are_pinned() {
    // (seed, report digest, [promotions, preemptions, migrated,
    // link_retransmits, link_reroutes, link_severed], controller [probes,
    // cache_hits, deploys, releases, rejects]). The controller counters
    // also see the promotion candidates `accept` refused, which leave no
    // trace in the report.
    type Golden = (u64, u64, [u64; 6], [u64; 5]);
    const GOLDEN: [Golden; 2] = [
        (
            7,
            0x2daf_ba4d_499c_9017,
            [70, 18, 172, 19, 15, 2],
            [7286, 586, 2260, 2092, 5700],
        ),
        (
            2024,
            0xa30f_422b_59a5_9250,
            [134, 47, 115, 27, 19, 10],
            [6642, 185, 2296, 2196, 4712],
        ),
    ];
    let catalog = Catalog::build();
    for (seed, digest, counts, controller) in GOLDEN {
        let (report, stats) = chaos_elastic_run(&catalog, seed);
        assert!(report.accounts_for_all_arrivals(), "seed {seed}");
        let got = [
            report.promotions,
            report.preemptions,
            report.migrated,
            report.link_retransmits,
            report.link_reroutes,
            report.link_severed,
        ];
        let json = fnv1a(&report.to_json().pretty());
        assert!(got.iter().all(|&n| n > 0), "seed {seed}: {got:?}");
        assert_eq!(got, counts, "seed {seed}");
        assert_eq!(json, digest, "seed {seed}: digest {json:#018x}");
        let decisions = [
            stats.probes,
            stats.cache_hits,
            stats.deploys,
            stats.releases,
            stats.total_rejects(),
        ];
        assert_eq!(decisions, controller, "seed {seed}: controller stats");
    }
}
