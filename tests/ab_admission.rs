//! A/B determinism suite for the admission fast path: the capacity-epoch
//! feasibility cache must change how much work admission does, never what
//! it admits. Every artifact the repro harness writes — the metrics
//! report body, the chaos document, the trace export — must come out
//! byte-identical with the cache on and off, across seeds; and the cache
//! epoch must invalidate on every operation that can increase capacity
//! (release, evict, recover — including the sibling releases behind a
//! scale-down redeploy).

use vfpga::fabric::DeviceId;
use vfpga::runtime::{
    AdmissionTuning, CloudReport, Policy, RejectReason, SystemController, DEFAULT_TRACE_CAPACITY,
};
use vfpga::sim::{chrome_trace_events, FaultPlan, Json, SimTime};
use vfpga::workload::{generate_workload, Composition};
use vfpga_bench::chaos::{self, ChaosConfig};
use vfpga_bench::Catalog;

/// The two seeds the A/B comparisons fan over (a subset of the chaos
/// sweep's seed matrix, kept small because every check runs each seed
/// twice).
const AB_SEEDS: [u64; 2] = [7, 2024];

/// One saturated steady-state run (no faults) with the cache on or off.
fn steady_run(catalog: &Catalog, seed: u64, cache: bool) -> CloudReport {
    let arrivals = generate_workload(Composition::TABLE1[4], 300, SimTime::from_us(20.0), seed);
    let mut controller = catalog.controller(Policy::Full);
    controller.set_feasibility_cache(cache);
    catalog
        .simulate(
            &mut controller,
            &arrivals,
            &FaultPlan::none(),
            DEFAULT_TRACE_CAPACITY,
            AdmissionTuning::default(),
        )
        .expect("steady simulation completes")
}

#[test]
fn cache_ab_steady_reports_are_byte_identical() {
    let catalog = Catalog::build();
    for seed in AB_SEEDS {
        let on = steady_run(&catalog, seed, true).to_json().pretty();
        let off = steady_run(&catalog, seed, false).to_json().pretty();
        assert_eq!(
            on, off,
            "seed {seed}: cached report diverged from uncached under saturation"
        );
    }
}

#[test]
fn cache_ab_chaos_artifacts_are_byte_identical() {
    let catalog = Catalog::build();
    for seed in AB_SEEDS {
        let run_with = |feasibility_cache: bool| {
            chaos::run(
                &catalog,
                &ChaosConfig {
                    seed,
                    feasibility_cache,
                    ..ChaosConfig::default()
                },
            )
        };
        let on = run_with(true);
        let off = run_with(false);
        assert_eq!(
            on.to_json().pretty(),
            off.to_json().pretty(),
            "seed {seed}: chaos artifact diverged with the cache on vs off"
        );
        // The comparison is meaningful only if the cache actually served
        // attempts and chaos actually interrupted work.
        assert!(on.report.interrupted > 0, "seed {seed}: chaos was a no-op");
    }
}

#[test]
fn cache_ab_trace_exports_are_byte_identical() {
    let catalog = Catalog::build();
    let run_with = |feasibility_cache: bool| {
        chaos::run(
            &catalog,
            &ChaosConfig {
                seed: 7,
                feasibility_cache,
                ..ChaosConfig::default()
            },
        )
    };
    let on = run_with(true);
    let off = run_with(false);
    // The trace artifact's payload: the Chrome trace-event array plus the
    // critical-path decomposition, both derived from the span forest. A
    // cache hit replays the exact probe outcome (capacity rejections have
    // no reconfigure children), so the forests must match span for span.
    let export = |run: &chaos::ChaosReport| {
        Json::obj()
            .with("critical_path", run.report.critical_path.to_json())
            .with("traceEvents", chrome_trace_events(&[&run.report.spans]))
            .pretty()
    };
    assert!(!on.report.spans.is_empty());
    assert_eq!(
        export(&on),
        export(&off),
        "trace export diverged with the cache on vs off"
    );
}

/// Fills the cluster with deployments of `instance` until the controller
/// rejects one, returning what was deployed.
fn fill_with(controller: &mut SystemController, instance: &str) -> Vec<vfpga::runtime::Deployment> {
    let mut live = Vec::new();
    loop {
        match controller
            .try_deploy(instance, None)
            .expect("known instance")
        {
            Ok(d) => live.push(d),
            Err(_) => return live,
        }
    }
}

#[test]
fn capacity_epoch_invalidates_on_every_capacity_changing_operation() {
    let catalog = Catalog::build();
    let mut c = SystemController::new(catalog.cluster.clone(), catalog.db.clone(), Policy::Full);
    let live = fill_with(&mut c, "bw-l");
    assert!(!live.is_empty(), "cluster must hold at least one bw-l");

    // The rejection that ended the fill is now cached: replaying the
    // attempt must answer from the cache, not probe.
    let probes_before = c.stats().probes;
    let epoch = c.capacity_epoch();
    for _ in 0..3 {
        let outcome = c.try_deploy("bw-l", None).unwrap();
        assert_eq!(outcome.unwrap_err(), RejectReason::InsufficientCapacity);
    }
    assert_eq!(
        c.stats().probes,
        probes_before,
        "cached replay must not probe"
    );
    assert_eq!(
        c.capacity_epoch(),
        epoch,
        "rejections must not move the epoch"
    );

    // Release: capacity grows, the epoch must move, and the next attempt
    // must probe (and here, succeed).
    let released = live.last().unwrap();
    c.release(released).unwrap();
    assert_ne!(c.capacity_epoch(), epoch, "release must invalidate");
    let probes_before = c.stats().probes;
    let redeployed = c
        .try_deploy("bw-l", None)
        .unwrap()
        .expect("released capacity admits again");
    assert!(
        c.stats().probes > probes_before,
        "fresh epoch must re-probe"
    );
    // A successful configure only shrinks capacity: cached rejections
    // stay valid, so deploys must NOT move the epoch.
    let epoch = c.capacity_epoch();

    // Evict: a device failure frees the victims' surviving units (the
    // capacity a scale-down redeploy then claims) — the epoch must move
    // even though the failed device itself left the pool.
    let victim_device = redeployed.placements[0].device;
    let interrupted = c.handle_device_failure(victim_device, None);
    assert!(!interrupted.is_empty(), "the failed device held units");
    assert_ne!(c.capacity_epoch(), epoch, "evict must invalidate");
    let epoch = c.capacity_epoch();

    // Scale-down redeploy: with the original device gone, the interrupted
    // instance redeploys onto the freed sibling capacity. The deploy
    // itself (a configure) must not move the epoch.
    let scale_down = c.try_deploy("bw-l", None).unwrap();
    if let Ok(d) = &scale_down {
        assert_eq!(c.capacity_epoch(), epoch, "configure must not invalidate");
        c.release(d).unwrap();
        assert_ne!(c.capacity_epoch(), epoch, "release must invalidate");
    }
    let epoch = c.capacity_epoch();

    // Recover: the device rejoins with every slot free — the epoch must
    // move so cached capacity rejections are re-probed against it.
    c.handle_device_recovery(victim_device);
    assert_ne!(c.capacity_epoch(), epoch, "recover must invalidate");

    // Idempotent no-ops must not churn the epoch: recovering a healthy
    // device or failing an already-failed one changes no capacity.
    let epoch = c.capacity_epoch();
    c.handle_device_recovery(victim_device);
    assert_eq!(
        c.capacity_epoch(),
        epoch,
        "no-op recovery must not invalidate"
    );
    let other = DeviceId(victim_device.0);
    c.handle_device_failure(other, None);
    let failed_epoch = c.capacity_epoch();
    c.handle_device_failure(other, None);
    assert_eq!(
        c.capacity_epoch(),
        failed_epoch,
        "re-failing a failed device must not invalidate"
    );
}
