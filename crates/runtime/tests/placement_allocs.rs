//! The controller's placement search and promotion ranking run in buffers
//! the controller keeps: once warmed up, a capacity rejection and a
//! promotion whose every candidate is refused allocate nothing, and a
//! committed deploy allocates only its HS allocation list, the unit's slot
//! list and the returned deployment's placements.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vfpga_accel::{
    generate_rtl, leaf_resource_estimator, AcceleratorConfig, CONTROL_PATH_MODULE,
    MOVED_TO_CONTROL, TOP_MODULE,
};
use vfpga_core::{decompose, partition, DecomposeOptions, MappingDatabase};
use vfpga_fabric::{Cluster, MemoryKind};
use vfpga_hsabs::HsCompiler;
use vfpga_runtime::{Deployment, Policy, RejectReason, SystemController};

/// Counts the allocations (including reallocations) made by the current
/// thread, so the test harness's other threads do not disturb the count.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A `const`-initialised `Cell` needs no lazy setup or destructor, so
    // touching it here never allocates; `try_with` skips a thread whose
    // locals are already torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the wrapper only bumps a thread-local
// counter, which neither allocates nor touches the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees on `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator (hence by `System`)
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` was allocated by this allocator (hence by `System`)
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread, with its result.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// A controller over the paper cluster with a small (`"tiny"`, 4 tiles)
/// and a large (`"big"`, 16 tiles, up to 4 units) instance.
fn controller() -> SystemController {
    let cluster = Cluster::paper_cluster();
    let types = cluster.device_types();
    let mut db = MappingDatabase::new();
    for (name, tiles, weight_mb) in [("tiny", 4usize, 20u64), ("big", 16, 180)] {
        let config = AcceleratorConfig::new(name, tiles)
            .with_weight_memory_kb(weight_mb * 1024)
            .with_memory_kind(MemoryKind::Uram);
        let mut opts = DecomposeOptions::new(CONTROL_PATH_MODULE);
        opts.move_to_control = MOVED_TO_CONTROL.iter().map(|s| s.to_string()).collect();
        let d = decompose(
            &generate_rtl(&config),
            TOP_MODULE,
            &opts,
            &leaf_resource_estimator(&config),
        )
        .unwrap();
        db.register(
            name,
            &d,
            &partition(&d.tree, 2),
            &types,
            &HsCompiler::default(),
            true,
        )
        .unwrap();
    }
    SystemController::new(cluster, db, Policy::Full)
}

#[test]
fn a_probed_capacity_rejection_allocates_nothing() {
    let mut c = controller();
    let (big, tiny) = (
        c.instance_id("big").unwrap(),
        c.instance_id("tiny").unwrap(),
    );
    // Fill the cluster: big tenants first, then tiny ones in the gaps.
    let mut held: Vec<Deployment> = Vec::new();
    for id in [big, tiny] {
        while let Ok(d) = c.try_deploy(id, None).unwrap() {
            held.push(d);
            assert!(held.len() < 200);
        }
    }
    let last_tiny = held.pop().unwrap();
    c.release(&last_tiny).unwrap();
    let mut hole = c.try_deploy(tiny, None).unwrap().unwrap();
    // Each round reopens one tiny hole: the release opens a capacity
    // epoch, so the big attempt runs a full probe instead of replaying
    // the cached rejection, and the hole is too small for it.
    for round in 0..3 {
        c.release(&hole).unwrap();
        let probes = c.stats().probes;
        let (allocs, outcome) = allocations(|| c.try_deploy(big, None).unwrap());
        assert_eq!(outcome.unwrap_err(), RejectReason::InsufficientCapacity);
        assert_eq!(c.stats().probes, probes + 1, "round {round} probed");
        // The first round warms the buffers up.
        if round > 0 {
            assert_eq!(allocs, 0, "round {round}: a probed rejection allocated");
        }
        hole = c.try_deploy(tiny, None).unwrap().unwrap();
    }
}

/// Offers every promotion candidate of `d` to a refusing `accept`;
/// returns the candidates offered and the allocations made.
fn refuse_all(c: &mut SystemController, d: &Deployment) -> (usize, u64) {
    let mut offered = 0;
    let (allocs, promoted) = allocations(|| {
        let mut refuse = |_: &Deployment| {
            offered += 1;
            false
        };
        c.promote_deployment(d, &mut refuse, None).unwrap()
    });
    assert!(promoted.is_none());
    (offered, allocs)
}

#[test]
fn a_refused_promotion_allocates_nothing() {
    let mut c = controller();
    let big = c.instance_id("big").unwrap();
    let units: Vec<usize> = c
        .database()
        .entry("big")
        .unwrap()
        .options
        .iter()
        .map(|o| o.num_units())
        .collect();
    let largest = *units.iter().max().unwrap();
    // One unit on an idle cluster: every larger variant places.
    let small = c.try_deploy(big, None).unwrap().unwrap();
    assert_eq!(small.num_units(), 1);
    let several = units.iter().filter(|&&u| u > 1).count();
    assert!(
        several > 1,
        "big needs several multi-unit variants: {units:?}"
    );
    // Grown to the largest-but-one variant, exactly one candidate is left.
    let target = units
        .iter()
        .copied()
        .filter(|&u| u < largest)
        .max()
        .unwrap();
    let grown = c
        .promote_deployment(&small, &mut |d| d.num_units() == target, None)
        .unwrap()
        .expect("an idle cluster fits every variant");
    assert_eq!(units.iter().filter(|&&u| u > target).count(), 1);
    refuse_all(&mut c, &grown);
    let (offered, allocs) = refuse_all(&mut c, &grown);
    assert_eq!((offered, allocs), (1, 0), "one candidate");
    // A deployment with several candidates: release the grown one and
    // deploy at one unit again.
    c.release(&grown).unwrap();
    let small = c.try_deploy(big, None).unwrap().unwrap();
    refuse_all(&mut c, &small);
    let (offered, allocs) = refuse_all(&mut c, &small);
    assert_eq!((offered, allocs), (several, 0), "several candidates");
    assert_eq!(c.stats().deploys, 3, "no refused candidate was committed");
}

#[test]
fn a_committed_deploy_allocates_a_bounded_amount() {
    let mut c = controller();
    let tiny = c.instance_id("tiny").unwrap();
    let warm = c.try_deploy(tiny, None).unwrap().unwrap();
    c.release(&warm).unwrap();
    for round in 0..4 {
        let (allocs, d) = allocations(|| c.try_deploy(tiny, None).unwrap().unwrap());
        // The HS allocation list, the one unit's slot list and the
        // deployment's placements; the live-deployment map reuses its node.
        assert_eq!(d.num_units(), 1);
        assert!(
            allocs <= 3,
            "round {round}: a deploy made {allocs} allocations"
        );
        c.release(&d).unwrap();
    }
}
