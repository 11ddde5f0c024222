//! Fault-injection sweep over the full stack: seeded fault plans against
//! the paper catalog, checking the cross-layer recovery invariants that
//! must hold for *any* plan — every arrival accounted for, occupancy a
//! valid fraction throughout, no live deployment referencing a failed
//! device, and byte-identical reports for a fixed seed.
//!
//! CI runs this suite once per seed via the `CHAOS_SEED` environment
//! variable; without it, the sweep covers all default seeds.

use vfpga::accel::{
    generate_rtl, leaf_resource_estimator, AcceleratorConfig, CONTROL_PATH_MODULE,
    MOVED_TO_CONTROL, TOP_MODULE,
};
use vfpga::core::{decompose, partition, DecomposeOptions, MappingDatabase};
use vfpga::fabric::{Cluster, DeviceId, MemoryKind};
use vfpga::hsabs::{DeviceHealth, HsCompiler};
use vfpga::runtime::{
    run_cloud_sim_tuned, AdmissionTuning, CloudReport, Deployment, ElasticityPolicy, InstanceId,
    MonitorConfig, Policy, RecoveryPolicy, SimEvent, SystemController, DEFAULT_TRACE_CAPACITY,
};
use vfpga::sim::{
    chrome_trace_events, prometheus_text, FaultPlan, FaultPlanParams, Json, LinkFaultParams,
    SimTime, SloSpec,
};
use vfpga::workload::{RnnKind, RnnTask, TaskArrival};
use vfpga_bench::chaos::{self, ChaosConfig};
use vfpga_bench::Catalog;

/// The fixed seeds CI fans out over.
const DEFAULT_SEEDS: [u64; 4] = [1, 7, 42, 2024];

/// Fault-plan seed of the pinned kitchen-sink run.
const GOLDEN_SEED: u64 = 2;

fn sweep_seeds() -> Vec<u64> {
    match std::env::var("CHAOS_SEED") {
        Ok(s) => vec![s
            .parse()
            .unwrap_or_else(|_| panic!("CHAOS_SEED must be an integer, got `{s}`"))],
        Err(_) => DEFAULT_SEEDS.to_vec(),
    }
}

#[test]
fn seeded_fault_sweep_preserves_invariants() {
    let catalog = Catalog::build();
    for seed in sweep_seeds() {
        let run = chaos::run(
            &catalog,
            &ChaosConfig {
                seed,
                ..ChaosConfig::default()
            },
        );
        run.check_invariants()
            .unwrap_or_else(|violation| panic!("seed {seed}: {violation}"));
        assert!(
            run.report.device_failures > 0,
            "seed {seed}: plan injected no failures"
        );
        // Occupancy is a valid fraction at every sample, even while the
        // denominator shrinks and grows with device failures.
        for &(_, value) in run.report.occupancy_series.samples() {
            assert!(
                (0.0..=1.0 + 1e-12).contains(&value),
                "seed {seed}: occupancy sample {value} outside [0, 1]"
            );
        }
        assert!(
            run.report.degraded_mean_occupancy <= 1.0 + 1e-12,
            "seed {seed}: degraded occupancy {}",
            run.report.degraded_mean_occupancy
        );
    }
}

#[test]
fn fixed_seed_reports_are_byte_identical() {
    let catalog = Catalog::build();
    let config = ChaosConfig {
        tasks: 60,
        seed: 2024,
        ..ChaosConfig::default()
    };
    let first = chaos::run(&catalog, &config).to_json().pretty();
    let second = chaos::run(&catalog, &config).to_json().pretty();
    assert_eq!(first, second, "same seed must give byte-identical reports");

    // The serialized report parses back and carries the recovery section
    // a downstream consumer would read.
    let doc = Json::parse(&first).expect("chaos report serializes to valid JSON");
    let recovery = doc.expect_field("report").expect_field("recovery");
    assert!(recovery.field("mean_time_to_recovery_s").is_some());
    let interrupted = recovery
        .expect_field("interrupted")
        .as_num()
        .expect("interrupted is a number");
    assert!(interrupted > 0.0, "chaos run must interrupt work");
}

#[test]
fn seeded_link_chaos_sweep_preserves_invariants() {
    // The interconnect sweep: device *and* link fault waves together, per
    // seed. The cross-layer invariants (accounting, severed <=
    // interrupted, trace completeness, retransmit-byte reconciliation)
    // must hold for any plan, and each plan must actually stress the link
    // machinery — otherwise the sweep silently tests nothing.
    let catalog = Catalog::build();
    for seed in sweep_seeds() {
        let run = chaos::run(
            &catalog,
            &ChaosConfig {
                seed,
                ..ChaosConfig::with_links()
            },
        );
        run.check_invariants()
            .unwrap_or_else(|violation| panic!("seed {seed}: {violation}"));
        assert!(
            run.plan.link_failures() > 0,
            "seed {seed}: plan failed no ring segments"
        );
        assert!(
            run.report.link_retransmits > 0,
            "seed {seed}: no transfer was retransmitted"
        );
        for &(_, value) in run.report.occupancy_series.samples() {
            assert!(
                (0.0..=1.0 + 1e-12).contains(&value),
                "seed {seed}: occupancy sample {value} outside [0, 1]"
            );
        }
    }
}

#[test]
fn fixed_seed_link_chaos_artifacts_are_byte_identical() {
    let catalog = Catalog::build();
    let config = ChaosConfig {
        tasks: 60,
        seed: 2024,
        ..ChaosConfig::with_links()
    };
    let first = chaos::run(&catalog, &config).to_json().pretty();
    let second = chaos::run(&catalog, &config).to_json().pretty();
    assert_eq!(first, second, "same seed must give byte-identical reports");

    // The serialized report parses back and carries the links section a
    // downstream consumer would read.
    let doc = Json::parse(&first).expect("link-chaos report serializes to valid JSON");
    let links = doc.expect_field("report").expect_field("links");
    for key in ["failures", "retransmits", "bytes_retransmitted", "reroutes"] {
        assert!(links.field(key).is_some(), "links section missing `{key}`");
    }
}

#[test]
fn link_chaos_artifact_matches_pinned_digest() {
    // Golden artifact of the link-chaos configuration (`repro netchaos`):
    // any change to what such a run books, or in which order, shows up
    // here as a digest mismatch.
    let catalog = Catalog::build();
    let run = chaos::run(
        &catalog,
        &ChaosConfig {
            tasks: 60,
            seed: 2024,
            ..ChaosConfig::with_links()
        },
    );
    let digest = fnv1a(&[&run.to_json().pretty()]);
    assert_eq!(digest, 0x055f_684b_f0d0_abcb, "digest {digest:#018x}");
}

#[test]
fn no_live_deployment_references_a_failed_device() {
    // Controller-level sweep, independent of the cloud simulator: deploy
    // until the cluster is packed, fail each device in turn, and verify
    // the eviction invariant plus the health bookkeeping directly.
    let catalog = Catalog::build();
    let mut controller =
        SystemController::new(catalog.cluster.clone(), catalog.db.clone(), Policy::Full);
    let names: Vec<InstanceId> = catalog
        .instances
        .keys()
        .map(|name| controller.instance_id(name).expect("known instance"))
        .collect();
    let mut live = Vec::new();
    'fill: loop {
        for &name in &names {
            match controller.try_deploy(name, None).unwrap() {
                Ok(d) => live.push(d),
                Err(_) => break 'fill,
            }
        }
    }
    assert!(!live.is_empty(), "cluster should accept some deployments");

    let devices = controller.cluster().len();
    for victim in 0..devices {
        let victim = DeviceId(victim);
        let interrupted = controller.handle_device_failure(victim, None);
        assert_eq!(controller.device_health(victim), DeviceHealth::Failed);
        assert_eq!(
            controller.allocations_on(victim),
            0,
            "{victim:?} still holds allocations after eviction"
        );
        // Every deployment we held that touched the victim must be in the
        // interrupted set; survivors must not reference it.
        live.retain(|d| {
            let touches = d.placements.iter().any(|p| p.device == victim);
            if touches {
                assert!(
                    interrupted.contains(&d.id),
                    "{:?} touched {victim:?} but was not interrupted",
                    d.id
                );
            } else {
                // Interruption tears down whole deployments, so a
                // deployment with no unit on the victim survives... unless
                // an earlier failure already took it down.
                assert!(
                    !interrupted.contains(&d.id) || d.placements.is_empty(),
                    "{:?} did not touch {victim:?} but was interrupted",
                    d.id
                );
            }
            !touches && !interrupted.contains(&d.id)
        });
        // Failed devices never re-enter placement until recovery.
        if let Ok(Ok(d)) = controller.try_deploy(names[0], None) {
            assert!(
                d.placements.iter().all(|p| p.device != victim),
                "placement landed on failed {victim:?}"
            );
            controller.release(&d).unwrap();
        }
    }
    assert_eq!(controller.failed_devices(), devices);
    assert_eq!(
        controller.live_deployments(),
        0,
        "failing every device must tear down every deployment"
    );

    // Recovery restores full service.
    for d in 0..devices {
        controller.handle_device_recovery(DeviceId(d));
    }
    assert_eq!(controller.failed_devices(), 0);
    assert_eq!(controller.occupancy(), 0.0);
    let redeployed = controller
        .try_deploy(names[0], None)
        .unwrap()
        .expect("recovered cluster accepts work");
    controller.release(&redeployed).unwrap();
}

/// The runtime unit tests' two-instance catalog: `"tiny"` (4 tiles) and
/// `"big"` (16 tiles), compiled against the paper cluster.
fn small_db() -> (Cluster, MappingDatabase) {
    let cluster = Cluster::paper_cluster();
    let types = cluster.device_types();
    let compiler = HsCompiler::default();
    let mut db = MappingDatabase::new();
    for (name, tiles, weight_mb) in [("tiny", 4usize, 20u64), ("big", 16, 180)] {
        let config = AcceleratorConfig::new(name, tiles)
            .with_weight_memory_kb(weight_mb * 1024)
            .with_memory_kind(MemoryKind::Uram);
        let design = generate_rtl(&config);
        let mut opts = DecomposeOptions::new(CONTROL_PATH_MODULE);
        opts.move_to_control = MOVED_TO_CONTROL.iter().map(|s| s.to_string()).collect();
        let est = leaf_resource_estimator(&config);
        let d = decompose(&design, TOP_MODULE, &opts, &est).unwrap();
        let plan = partition(&d.tree, 2);
        db.register(name, &d, &plan, &types, &compiler, true)
            .unwrap();
    }
    (cluster, db)
}

/// Every cloud-sim feature at once: device fail/recover waves, ring-segment
/// faults, flaky partial reconfiguration, promotion and preemption, and the
/// streaming monitor. Bursts behind lone early tasks make the reprovisioner
/// promote into idle capacity and then claw it back.
fn kitchen_sink_run(seed: u64) -> CloudReport {
    let (cluster, db) = small_db();
    let mut controller = SystemController::new(cluster, db, Policy::Full);
    let mut arrivals = Vec::new();
    for burst in 0..4 {
        let start = burst as f64 * 200.0;
        arrivals.push(TaskArrival {
            at: SimTime::from_us(start),
            task: RnnTask::new(RnnKind::Lstm, 512, 5),
        });
        for i in 0..20 {
            let hidden = if i % 3 == 0 { 1024 } else { 512 };
            arrivals.push(TaskArrival {
                at: SimTime::from_us(start + 10.0 + i as f64),
                task: RnnTask::new(RnnKind::Lstm, hidden, 5),
            });
        }
    }
    let plan = FaultPlan::generate(
        FaultPlanParams {
            mttf: SimTime::from_us(150.0),
            mttr: SimTime::from_us(60.0),
            configure_failure_prob: 0.2,
            horizon: SimTime::from_us(800.0),
        },
        4,
        seed,
    )
    .with_link_faults(
        LinkFaultParams {
            mttf: SimTime::from_us(150.0),
            mttr: SimTime::from_us(60.0),
            degraded_fraction: 0.5,
            bandwidth_factor: 0.25,
            extra_latency: SimTime::from_ns(250.0),
            corruption_prob: 0.4,
            max_retransmits: 3,
            retransmit_backoff: SimTime::from_ns(200.0),
            horizon: SimTime::from_us(800.0),
        },
        4,
    );
    let mut slo = SloSpec::latency("p95-latency", 0.95, SimTime::from_us(150.0));
    slo.fast_windows = 3;
    slo.slow_windows = 8;
    let tuning = AdmissionTuning {
        elasticity: ElasticityPolicy::FULL,
        monitor: MonitorConfig::enabled(SimTime::from_us(50.0), vec![slo]),
        ..AdmissionTuning::default()
    };
    run_cloud_sim_tuned(
        &mut controller,
        &arrivals,
        &|t: &RnnTask| if t.hidden > 512 { "big" } else { "tiny" }.to_string(),
        &|_: &RnnTask, d: &Deployment| SimTime::from_us(100.0 / d.num_units() as f64),
        &plan,
        RecoveryPolicy::default(),
        DEFAULT_TRACE_CAPACITY,
        tuning,
    )
    .expect("known instances")
}

/// FNV-1a over a sequence of texts.
fn fnv1a(texts: &[&str]) -> u64 {
    texts
        .iter()
        .flat_map(|t| t.bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

#[test]
fn kitchen_sink_artifacts_match_pinned_digest() {
    // Golden artifacts: the report JSON, the Prometheus exposition and the
    // Chrome trace of a run that interrupts deployments all three ways
    // (device failure, severed ring, displaced preemption victim). Any
    // change to what the simulator books, or in which order, shows up here
    // as a digest mismatch.
    let report = kitchen_sink_run(GOLDEN_SEED);
    let displaced = report
        .spans
        .spans()
        .iter()
        .filter(|s| s.name == "reprovision" && s.attr_is("outcome", "displaced"))
        .count() as u64;
    assert!(displaced > 0, "a preemption victim must be displaced");
    assert!(report.link_severed > 0, "a ring failure must sever");
    assert!(
        report.interrupted > report.link_severed + displaced,
        "a device failure must interrupt"
    );
    assert!(report.accounts_for_all_arrivals());
    let digest = fnv1a(&[
        &report.to_json().pretty(),
        &prometheus_text(&report.metrics),
        &chrome_trace_events(&[&report.spans]).compact(),
    ]);
    assert_eq!(digest, 0x24bd_375f_aa50_e64c, "digest {digest:#018x}");
    // The report JSON carries only the trace ring's counts; this pins the
    // order and content of the retained scheduler events themselves
    // (956 retained, none dropped).
    assert_eq!((report.trace.len(), report.trace.dropped()), (956, 0));
    let ring = fnv1a(&[&report.trace.to_json(SimEvent::render).compact()]);
    assert_eq!(ring, 0x1cec_dee3_eb3d_6bcc, "ring digest {ring:#018x}");
}
