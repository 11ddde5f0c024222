//! Decoding a well-formed program allocates only the instruction vector:
//! error values are built when a decode fails, never on the happy path.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vfpga_isa::{decode, encode, Instruction, MReg, Program, VReg};

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

/// A 1,200-instruction load/multiply/add/store stream whose DRAM addresses
/// span several LEB128 bytes.
fn program() -> Program {
    let insts = (0..300u32)
        .flat_map(|i| {
            let v = |k: u32| VReg(((i + k) % 16) as u8);
            [
                Instruction::VLoad {
                    dst: v(0),
                    addr: i * 977,
                },
                Instruction::MvMul {
                    dst: v(1),
                    mat: MReg((i % 512) as u16),
                    src: v(0),
                },
                Instruction::VAdd {
                    dst: v(2),
                    a: v(1),
                    b: v(3),
                },
                Instruction::VStore {
                    src: v(2),
                    addr: 1 << 20 | i,
                },
            ]
        })
        .collect();
    Program::new(insts)
}

#[test]
fn decode_allocates_only_the_instruction_vector() {
    let program = program();
    let bytes = encode(&program);
    assert!(program.len() >= 1_000);
    let before = ALLOCS.with(Cell::get);
    let decoded = decode(&bytes).expect("well-formed program decodes");
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!(decoded, program);
    assert!(
        allocs <= 32,
        "decoding {} instructions made {allocs} allocations",
        program.len()
    );
}
