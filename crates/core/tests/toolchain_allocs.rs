//! The offline toolchain's allocations scale with its output, not with
//! its working state: decomposing allocates about the same per leaf soft
//! block at every accelerator size, and reordering a program for overlap
//! allocates a fixed number of buffers however long the program is.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vfpga_accel::{
    generate_rtl, leaf_resource_estimator, AcceleratorConfig, CONTROL_PATH_MODULE,
    MOVED_TO_CONTROL, TOP_MODULE,
};
use vfpga_core::scaleout::{insert_communication, remote_window, reorder_for_overlap};
use vfpga_core::{decompose, DecomposeOptions};
use vfpga_isa::IsaConfig;
use vfpga_workload::{generate_program, RnnKind, RnnTask, SliceSpec};

/// Counts the allocations (including reallocations) made by the current
/// thread, so the test harness's own threads do not disturb the count.
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
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (ALLOCS.with(Cell::get) - before, r)
}

#[test]
fn decompose_allocates_about_the_same_per_leaf_at_every_size() {
    // The catalog's options on 1 to 21 tiles: 22 to 462 leaves.
    let mut per_leaf = Vec::new();
    for tiles in 1..=21 {
        let cfg = AcceleratorConfig::new(format!("tiles-{tiles:02}"), tiles);
        let design = generate_rtl(&cfg);
        let estimator = leaf_resource_estimator(&cfg);
        let mut options = DecomposeOptions::new(CONTROL_PATH_MODULE);
        options.move_to_control = MOVED_TO_CONTROL.iter().map(|s| s.to_string()).collect();
        options
            .intra_parallelism
            .insert("dpu_array".to_string(), cfg.rows_per_cycle);
        let (allocs, d) = allocations(|| decompose(&design, TOP_MODULE, &options, &estimator));
        let leaves = d
            .expect("generated accelerator decomposes")
            .tree
            .leaf_count();
        per_leaf.push((tiles, leaves, allocs as f64 / leaves as f64));
    }
    let min = per_leaf.iter().map(|p| p.2).fold(f64::MAX, f64::min);
    let max = per_leaf.iter().map(|p| p.2).fold(0.0, f64::max);
    assert!(
        max <= 1.5 * min,
        "allocations per leaf range {min:.2}..{max:.2} over (tiles, leaves, per leaf) {per_leaf:?}"
    );
    // Each leaf owns three strings; the rest is a few per composite and a
    // fixed count per call.
    assert!(max < 4.5, "{max:.2} allocations per leaf: {per_leaf:?}");
}

/// Allocations of one `reorder_for_overlap` of machine 0's program for a
/// two-machine GRU with `timesteps` steps, and the program's length.
fn reorder_allocations(timesteps: usize) -> (u64, usize) {
    let task = RnnTask::new(RnnKind::Gru, 1024, timesteps);
    let rnn = generate_program(task, SliceSpec::new(0, 2));
    let window = remote_window(&IsaConfig::default(), 0, 2).expect("two-machine window");
    let program =
        insert_communication(&rnn.program, &rnn.state_slots, &window).expect("state slots fit");
    let (allocs, reordered) = allocations(|| reorder_for_overlap(&program, &window));
    assert_eq!(
        reordered.expect("reorder succeeds").len(),
        program.len(),
        "reordering keeps every instruction"
    );
    (allocs, program.len())
}

#[test]
fn reorder_allocates_a_constant_number_of_buffers() {
    let (long, long_len) = reorder_allocations(64);
    let (short, short_len) = reorder_allocations(4);
    assert!(
        long_len > 1_400 && short_len < 200,
        "{long_len} vs {short_len}"
    );
    assert_eq!(
        long, short,
        "{long_len} instructions made {long} allocations, {short_len} made {short}"
    );
    assert!(long <= 16, "reordering made {long} allocations");
}
