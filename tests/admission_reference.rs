//! The admission fast path against the naive reference scheduler: the
//! capacity-epoch feasibility cache, the known-infeasible skip rule and
//! free-slot pruning must change how much work admission does, never what
//! it admits. Every
//! run here goes through both the engine and `vfpga_fuzz`'s
//! `ReferenceScheduler` (no cache, no gate, no pruning) and must agree
//! with it placement by placement, task by task, across seeds. The
//! capacity epoch must also invalidate on every operation that can
//! increase capacity (release, evict, recover — including the sibling
//! releases behind a scale-down redeploy).

use vfpga::accel::{
    generate_rtl, leaf_resource_estimator, AcceleratorConfig, CONTROL_PATH_MODULE,
    MOVED_TO_CONTROL, TOP_MODULE,
};
use vfpga::core::{decompose, partition, DecomposeOptions, MappingDatabase};
use vfpga::fabric::{Cluster, DeviceId, MemoryKind};
use vfpga::fuzz::{ReferenceCluster, ReferenceReport, ReferenceScheduler};
use vfpga::hsabs::HsCompiler;
use vfpga::runtime::{
    run_cloud_sim_tuned, AdmissionTuning, CloudReport, Deployment, InstanceId, Policy,
    RecoveryPolicy, RejectReason, SystemController, DEFAULT_TRACE_CAPACITY,
};
use vfpga::sim::{FaultPlan, FaultPlanParams, SimTime};
use vfpga::workload::{generate_workload, Composition, RnnKind, RnnTask, TaskArrival};
use vfpga_bench::chaos::{self, ChaosConfig};
use vfpga_bench::Catalog;

/// The seeds the catalog-scale comparisons fan over (a subset of the
/// chaos sweep's seed matrix).
const SEEDS: [u64; 2] = [7, 2024];

/// Runs `arrivals` through the catalog's models on the reference
/// scheduler under the full policy.
fn catalog_reference(
    catalog: &Catalog,
    arrivals: &[TaskArrival],
    faults: &FaultPlan,
) -> ReferenceReport {
    ReferenceScheduler::run(
        &catalog.cluster,
        &catalog.db,
        Policy::Full,
        arrivals,
        &|task| catalog.instance_for(task),
        &|task, deployment| catalog.service_time(task, deployment, Policy::Full),
        faults,
        RecoveryPolicy::default(),
    )
    .expect("reference simulation completes")
}

#[test]
fn steady_runs_match_the_reference() {
    let catalog = Catalog::build();
    for seed in SEEDS {
        let arrivals = generate_workload(Composition::TABLE1[4], 300, SimTime::from_us(20.0), seed);
        let mut controller = catalog.controller(Policy::Full);
        let fast = catalog
            .simulate(
                &mut controller,
                &arrivals,
                &FaultPlan::none(),
                DEFAULT_TRACE_CAPACITY,
                AdmissionTuning::default(),
            )
            .expect("steady simulation completes");
        let reference = catalog_reference(&catalog, &arrivals, &FaultPlan::none());
        if let Err(e) = reference.check_lockstep(&fast) {
            panic!("seed {seed}: saturated run diverged from the reference: {e}");
        }
        // The comparison is meaningful only if the fast path skipped work:
        // queued tasks of instances known infeasible were not attempted.
        let stats = controller.stats();
        let naive: u64 = reference.rejections.iter().sum();
        assert!(
            fast.total_rejections() < naive,
            "seed {seed}: {} rejected attempts vs {naive} in the reference",
            fast.total_rejections()
        );
        assert!(
            stats.probes < reference.attempts,
            "seed {seed}: {} probes vs {} reference attempts",
            stats.probes,
            reference.attempts
        );
    }
}

#[test]
fn chaos_runs_match_the_reference() {
    let catalog = Catalog::build();
    for seed in SEEDS {
        let config = ChaosConfig {
            seed,
            ..ChaosConfig::default()
        };
        let fast = chaos::run(&catalog, &config);
        let reference = catalog_reference(&catalog, &config.arrivals(), &fast.plan);
        if let Err(e) = reference.check_lockstep(&fast.report) {
            panic!("seed {seed}: chaos run diverged from the reference: {e}");
        }
        // The comparison is meaningful only if chaos interrupted work and
        // flaked reconfigurations.
        assert!(
            fast.report.interrupted > 0,
            "seed {seed}: chaos was a no-op"
        );
        assert!(
            fast.report.rejected_tasks_for(RejectReason::TransientFault) > 0,
            "seed {seed}: no transient fault"
        );
    }
}

/// A database with one small instance (`"tiny"`, 4 tiles) and one large
/// instance (`"big"`, 16 tiles) registered against the paper cluster's
/// device types.
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

#[test]
fn cached_rejections_place_like_the_reference() {
    let (cluster, db) = small_db();
    let mut c = SystemController::new(cluster.clone(), db.clone(), Policy::Full);
    let big = c.instance_id("big").unwrap();
    let mut reference = ReferenceCluster::new(&cluster, &db, Policy::Full);
    let devices = |d: Deployment| d.placements.iter().map(|p| p.device).collect::<Vec<_>>();
    for i in 0..40 {
        let fast = c.try_deploy(big, None).unwrap().map(devices);
        let naive = reference.try_deploy("big").unwrap().map(devices);
        assert_eq!(fast, naive, "attempt {i}: the cache changed a decision");
    }
    let stats = c.stats();
    assert_eq!(reference.attempts, 40, "the reference probes every attempt");
    assert!(
        stats.probes < reference.attempts,
        "the cache must skip saturated probes ({} vs {})",
        stats.probes,
        reference.attempts
    );
    assert_eq!(stats.probes + stats.cache_hits, 40);
}

/// `n` identical tasks arriving `gap_us` apart.
fn arrivals(n: usize, gap_us: f64) -> Vec<TaskArrival> {
    (0..n)
        .map(|i| TaskArrival {
            at: SimTime::from_us(i as f64 * gap_us),
            task: RnnTask::new(RnnKind::Lstm, 512, 5),
        })
        .collect()
}

fn fixed_service(_t: &RnnTask, _d: &Deployment) -> SimTime {
    SimTime::from_us(100.0)
}

/// Runs every task as `"tiny"` on both schedulers; returns the engine's
/// report and the reference's.
fn tiny_runs(
    policy: Policy,
    arrivals: &[TaskArrival],
    faults: &FaultPlan,
) -> (CloudReport, ReferenceReport) {
    let (cluster, db) = small_db();
    let tiny = |_: &RnnTask| "tiny";
    let mut c = SystemController::new(cluster.clone(), db.clone(), policy);
    let fast = run_cloud_sim_tuned(
        &mut c,
        arrivals,
        &tiny,
        &fixed_service,
        faults,
        RecoveryPolicy::default(),
        DEFAULT_TRACE_CAPACITY,
        AdmissionTuning::default(),
    )
    .unwrap();
    let reference = ReferenceScheduler::run(
        &cluster,
        &db,
        policy,
        arrivals,
        &tiny,
        &fixed_service,
        faults,
        RecoveryPolicy::default(),
    )
    .unwrap();
    (fast, reference)
}

#[test]
fn gated_waves_admit_like_the_reference() {
    // Deep saturation with the queue well past the scan window: waves
    // skip tasks known infeasible (fewer attempt-level rejections), yet
    // every decision matches the reference, which re-scans after every
    // event.
    let (fast, reference) = tiny_runs(Policy::Baseline, &arrivals(200, 0.5), &FaultPlan::none());
    if let Err(e) = reference.check_lockstep(&fast) {
        panic!("gated run diverged from the reference: {e}");
    }
    assert!(fast.peak_queue_depth > 64, "queue never passed the window");
    let naive: u64 = reference.rejections.iter().sum();
    assert!(
        fast.total_rejections() < naive,
        "known-infeasible tasks must not be re-attempted: {} vs {naive}",
        fast.total_rejections()
    );
}

#[test]
fn gated_waves_admit_like_the_reference_under_chaos() {
    let plan = FaultPlan::generate(
        FaultPlanParams {
            mttf: SimTime::from_us(150.0),
            mttr: SimTime::from_us(60.0),
            configure_failure_prob: 0.0,
            horizon: SimTime::from_us(800.0),
        },
        4,
        7,
    );
    let (fast, reference) = tiny_runs(Policy::Full, &arrivals(80, 1.0), &plan);
    assert!(fast.accounts_for_all_arrivals());
    assert!(fast.interrupted > 0, "chaos was a no-op");
    if let Err(e) = reference.check_lockstep(&fast) {
        panic!("gated chaos run diverged from the reference: {e}");
    }
}

/// Fills the cluster with deployments of `instance` until the controller
/// rejects one, returning what was deployed.
fn fill_with(controller: &mut SystemController, instance: InstanceId) -> Vec<Deployment> {
    let mut live = Vec::new();
    loop {
        match controller.try_deploy(instance, None).unwrap() {
            Ok(d) => live.push(d),
            Err(_) => return live,
        }
    }
}

#[test]
fn capacity_epoch_invalidates_on_every_capacity_changing_operation() {
    let catalog = Catalog::build();
    let mut c = SystemController::new(catalog.cluster.clone(), catalog.db.clone(), Policy::Full);
    let bw_l = c.instance_id("bw-l").unwrap();
    let live = fill_with(&mut c, bw_l);
    assert!(!live.is_empty(), "cluster must hold at least one bw-l");

    // The rejection that ended the fill is now cached: replaying the
    // attempt must answer from the cache, not probe.
    let probes_before = c.stats().probes;
    let epoch = c.capacity_epoch();
    for _ in 0..3 {
        let outcome = c.try_deploy(bw_l, None).unwrap();
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
        .try_deploy(bw_l, None)
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
    let scale_down = c.try_deploy(bw_l, None).unwrap();
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

#[test]
fn certain_transient_faults_strand_tasks_like_the_reference() {
    // Every configure flakes and some device waves run underneath: both
    // schedulers stop nudging after the same idle bound and strand the
    // same tasks, so the run terminates instead of livelocking.
    let plan = FaultPlan::generate(
        FaultPlanParams {
            mttf: SimTime::from_us(150.0),
            mttr: SimTime::from_us(60.0),
            configure_failure_prob: 1.0,
            horizon: SimTime::from_us(400.0),
        },
        4,
        7,
    );
    let (fast, reference) = tiny_runs(Policy::Full, &arrivals(80, 1.0), &plan);
    if let Err(e) = reference.check_lockstep(&fast) {
        panic!("certain-fault run diverged from the reference: {e}");
    }
    assert_eq!(fast.completed, 0);
    assert_eq!(fast.never_deployed, 80);
    assert!(fast.accounts_for_all_arrivals());
}
