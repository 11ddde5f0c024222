//! The scale-out optimization (Section 2.3).
//!
//! Deploying one large accelerator across FPGAs by *splitting* it would put
//! the inter-FPGA link in the middle of a pipeline. Instead — because the
//! data path's root soft block has data parallelism — the framework
//! **scales the accelerator down**: each FPGA gets a smaller accelerator
//! with fewer data processing units but an unmodified control path, so the
//! original software programs still run. The machines then exchange their
//! state slices through the synchronization template module (Fig. 8b),
//! which reuses the ordinary DRAM read/write instructions on pre-defined
//! addresses.
//!
//! Two custom tools operate on programs:
//!
//! * [`insert_communication`] — turns the stores/loads of designated state
//!   slots into sends and barrier receives on the template module's
//!   channels;
//! * [`reorder_for_overlap`] — dependency-preserving list scheduling that
//!   hoists sends as early as possible and sinks receives as late as
//!   possible, maximally overlapping inter-FPGA communication with
//!   computation (e.g. the transfer of `h_t` with the matrix
//!   multiplications on `x_{t+1}`).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use vfpga_accel::RemoteWindow;
use vfpga_isa::{Instruction, IsaConfig, Program};

use crate::CoreError;

/// Number of channels the synchronization template module provides.
pub const SYNC_CHANNELS: u32 = 64;

/// The pre-defined address window for a machine: the top `2 *
/// SYNC_CHANNELS` DRAM slots are reserved (the paper suggests out-of-range
/// addresses; reserving the top of the space keeps programs validatable).
///
/// # Errors
///
/// Returns [`CoreError::Isa`] if the ISA's DRAM is too small to carve out
/// the reserved window (`dram_slots < 2 * SYNC_CHANNELS`); previously this
/// underflowed `u32` into a bogus window near `u32::MAX`. Returns
/// [`CoreError::InvalidMachine`] if `machine_index >= num_machines`
/// (including the empty group `num_machines == 0`); previously the bogus
/// window silently shifted every machine's slice during recombination.
pub fn remote_window(
    isa: &IsaConfig,
    machine_index: usize,
    num_machines: usize,
) -> Result<RemoteWindow, CoreError> {
    if machine_index >= num_machines {
        return Err(CoreError::InvalidMachine {
            machine_index,
            num_machines,
        });
    }
    let reserved = 2 * SYNC_CHANNELS;
    if isa.dram_slots < reserved {
        return Err(CoreError::Isa(vfpga_isa::IsaError::Validation {
            index: 0,
            message: format!(
                "{} DRAM slots cannot hold the {reserved}-slot sync window",
                isa.dram_slots
            ),
        }));
    }
    let recv_base = isa.dram_slots - SYNC_CHANNELS;
    let send_base = recv_base - SYNC_CHANNELS;
    Ok(RemoteWindow {
        send_base,
        recv_base,
        channels: SYNC_CHANNELS,
        machine_index,
        num_machines,
    })
}

/// Rewrites a scaled-down machine's program so that designated *state
/// slots* (DRAM slots holding cross-timestep state such as `h_t`) are
/// exchanged between machines:
///
/// * every store to state slot `state_slots[k]` is followed by a send on
///   channel `k` (the machine's own slice);
/// * every load from that slot *after the first send* becomes a receive on
///   channel `k`, which blocks until all peers delivered and yields the
///   combined full-length vector.
///
/// Loads before any store keep reading local DRAM (the initial state is
/// replicated on every machine).
///
/// # Errors
///
/// Returns [`CoreError::Isa`] if more state slots are named than the
/// template module has channels, [`CoreError::StateSlotAliasesWindow`] if
/// a state slot falls inside the reserved window (the rewrite would turn
/// the inserted send itself into another state access), and
/// [`CoreError::DuplicateStateSlot`] if a slot is designated twice (only
/// the first channel would ever carry it, silently starving the second).
pub fn insert_communication(
    program: &Program,
    state_slots: &[u32],
    window: &RemoteWindow,
) -> Result<Program, CoreError> {
    if state_slots.len() as u32 > window.channels {
        return Err(CoreError::Isa(vfpga_isa::IsaError::Validation {
            index: 0,
            message: format!(
                "{} state slots exceed {} sync channels",
                state_slots.len(),
                window.channels
            ),
        }));
    }
    for (k, &slot) in state_slots.iter().enumerate() {
        if slot >= window.send_base {
            return Err(CoreError::StateSlotAliasesWindow { slot });
        }
        if state_slots[..k].contains(&slot) {
            return Err(CoreError::DuplicateStateSlot { slot });
        }
    }
    let chan_of = |addr: u32| state_slots.iter().position(|&s| s == addr);
    let mut sent = vec![false; state_slots.len()];
    // Every state store gains a send.
    let sends = program
        .iter()
        .filter(|inst| matches!(inst, Instruction::VStore { addr, .. } if chan_of(*addr).is_some()))
        .count();
    let mut out = Program::new(Vec::with_capacity(program.len() + sends));
    for inst in program {
        match *inst {
            Instruction::VStore { src, addr } => {
                out.push(*inst);
                if let Some(k) = chan_of(addr) {
                    out.push(Instruction::VStore {
                        src,
                        addr: window.send_base + k as u32,
                    });
                    sent[k] = true;
                }
            }
            Instruction::VLoad { dst, addr } => match chan_of(addr) {
                Some(k) if sent[k] => out.push(Instruction::VLoad {
                    dst,
                    addr: window.recv_base + k as u32,
                }),
                _ => out.push(*inst),
            },
            other => out.push(other),
        }
    }
    Ok(out)
}

/// Classifies an instruction against a window for scheduling priority.
fn comm_class(inst: &Instruction, window: &RemoteWindow) -> CommClass {
    use vfpga_accel::RemoteAccess;
    match inst {
        Instruction::VStore { addr, .. } => match window.classify(*addr) {
            Some(RemoteAccess::Send(_)) => CommClass::Send,
            _ => CommClass::Compute,
        },
        Instruction::VLoad { addr, .. } => match window.classify(*addr) {
            Some(RemoteAccess::Recv(_)) => CommClass::Recv,
            _ => CommClass::Compute,
        },
        _ => CommClass::Compute,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CommClass {
    Send,
    Compute,
    Recv,
}

/// Reorders a program (dependency-preserving) to overlap communication and
/// computation:
///
/// * every **send** hoists to the earliest position its dependencies allow
///   (immediately after the instruction producing its payload), so the
///   transfer starts as soon as the data exists;
/// * every **receive** sinks to the latest position its dependents allow
///   (immediately before its first consumer), so the independent
///   computation between a send and the consuming instruction — e.g. the
///   next timestep's matrix multiplications on `x` — executes while the
///   data is in flight.
///
/// This is deliberately *local* code motion: unlike a global list
/// scheduler, it cannot hoist an unbounded amount of future work above a
/// receive (which would drain the overlap budget of every later timestep
/// at once); each receive keeps exactly the slack its own timestep
/// provides, matching the per-timestep overlap the paper describes.
///
/// # Errors
///
/// Returns [`CoreError::Isa`] only if the computed schedule violates
/// dependencies (a bug guard; it cannot happen for well-formed programs).
pub fn reorder_for_overlap(program: &Program, window: &RemoteWindow) -> Result<Program, CoreError> {
    let graph = program.dep_graph();
    let n = graph.len();

    // Position keys on a doubled scale so sends/recvs can slot between
    // neighboring compute instructions, shifted up by one so a receive
    // sunk above instruction 0 stays non-negative. Pred and succ lists are
    // sorted, so the latest producer and the earliest consumer are at
    // their ends. Ready-set entries pack `key << 32 | index`; they are
    // unique, so the pop order is fully determined.
    let at = |i: u32| 2 * i + 1;
    let entry = |i: usize| {
        let key = match comm_class(&program[i], window) {
            CommClass::Send => graph.preds(i).last().map_or(at(i as u32), |&p| at(p) + 1),
            CommClass::Recv => graph.succs(i).first().map_or(at(i as u32), |&s| at(s) - 1),
            CommClass::Compute => at(i as u32),
        };
        u64::from(key) << 32 | i as u64
    };
    // Topological schedule with the keys as priorities: dependencies are
    // always honored (a receive feeding a send cannot invert), and within
    // the ready set lower keys — hoisted sends, plain compute, then sunk
    // receives — go first.
    let mut waiting: Vec<u32> = (0..n).map(|i| graph.preds(i).len() as u32).collect();
    let mut ready = BinaryHeap::with_capacity(n);
    for (i, _) in waiting.iter().enumerate().filter(|(_, &w)| w == 0) {
        ready.push(Reverse(entry(i)));
    }
    let mut order = Vec::with_capacity(n);
    while let Some(Reverse(packed)) = ready.pop() {
        let i = packed as u32 as usize;
        order.push(i);
        for &s in graph.succs(i) {
            let s = s as usize;
            waiting[s] -= 1;
            if waiting[s] == 0 {
                ready.push(Reverse(entry(s)));
            }
        }
    }
    program
        .reordered_with(&graph, &order)
        .map_err(CoreError::Isa)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfpga_isa::{assemble, VReg};

    fn window() -> RemoteWindow {
        remote_window(&IsaConfig::default(), 0, 2).unwrap()
    }

    #[test]
    fn small_isa_window_is_rejected_not_wrapped() {
        // Regression: `dram_slots: 16` (the ISA test config) underflowed
        // the u32 base computation into a window near u32::MAX.
        let mut isa = IsaConfig {
            dram_slots: 16,
            ..IsaConfig::default()
        };
        let err = remote_window(&isa, 0, 2);
        assert!(err.is_err(), "16-slot DRAM must not fit a 128-slot window");
        // One slot short of the reserved region still fails; exactly the
        // reserved size succeeds with send_base at zero.
        isa.dram_slots = 2 * SYNC_CHANNELS - 1;
        assert!(remote_window(&isa, 0, 2).is_err());
        isa.dram_slots = 2 * SYNC_CHANNELS;
        let w = remote_window(&isa, 0, 2).unwrap();
        assert_eq!(w.send_base, 0);
        assert_eq!(w.recv_base, SYNC_CHANNELS);
    }

    #[test]
    fn window_sits_at_top_of_dram() {
        let isa = IsaConfig::default();
        let w = remote_window(&isa, 1, 4).unwrap();
        assert_eq!(w.recv_base + w.channels, isa.dram_slots);
        assert_eq!(w.send_base + w.channels, w.recv_base);
        assert_eq!(w.machine_index, 1);
        assert_eq!(w.num_machines, 4);
    }

    #[test]
    fn insert_adds_send_after_state_store() {
        // Slot 10 is the state slot.
        let p = assemble("vload v0, 0\nvstore v0, 10\nvload v1, 10\nhalt\n").unwrap();
        let w = window();
        let q = insert_communication(&p, &[10], &w).unwrap();
        // Expect: vload; vstore local; vstore send; vload recv; halt.
        assert_eq!(q.len(), 5);
        assert_eq!(
            q[2],
            Instruction::VStore {
                src: VReg(0),
                addr: w.send_base
            }
        );
        assert_eq!(
            q[3],
            Instruction::VLoad {
                dst: VReg(1),
                addr: w.recv_base
            }
        );
    }

    #[test]
    fn initial_state_load_stays_local() {
        // The h_0 load precedes any store: it must stay a local load.
        let p = assemble("vload v0, 10\nvstore v0, 10\nvload v1, 10\nhalt\n").unwrap();
        let w = window();
        let q = insert_communication(&p, &[10], &w).unwrap();
        assert_eq!(
            q[0],
            Instruction::VLoad {
                dst: VReg(0),
                addr: 10
            }
        );
        // The post-store load becomes a receive.
        assert_eq!(
            q[3],
            Instruction::VLoad {
                dst: VReg(1),
                addr: w.recv_base
            }
        );
    }

    #[test]
    fn too_many_state_slots_rejected() {
        let p = assemble("halt\n").unwrap();
        let slots: Vec<u32> = (0..SYNC_CHANNELS + 1).collect();
        assert!(insert_communication(&p, &slots, &window()).is_err());
    }

    #[test]
    fn machine_outside_group_is_rejected() {
        // Regression (fuzzer-found degenerate input): a machine index at
        // or past the group size produced a structurally valid window
        // whose slice recombination was shifted; now a typed error.
        let isa = IsaConfig::default();
        assert!(matches!(
            remote_window(&isa, 2, 2),
            Err(crate::CoreError::InvalidMachine {
                machine_index: 2,
                num_machines: 2
            })
        ));
        assert!(matches!(
            remote_window(&isa, 0, 0),
            Err(crate::CoreError::InvalidMachine { .. })
        ));
        assert!(remote_window(&isa, 1, 2).is_ok());
    }

    #[test]
    fn state_slot_inside_window_is_rejected() {
        // Regression (fuzzer-found degenerate input): designating a slot
        // inside the reserved window made the inserted send itself count
        // as a state store, silently corrupting the channel protocol.
        let p = assemble("halt\n").unwrap();
        let w = window();
        let err = insert_communication(&p, &[w.send_base], &w).unwrap_err();
        assert!(matches!(
            err,
            crate::CoreError::StateSlotAliasesWindow { slot } if slot == w.send_base
        ));
        let err = insert_communication(&p, &[w.recv_base + 3], &w).unwrap_err();
        assert!(matches!(
            err,
            crate::CoreError::StateSlotAliasesWindow { .. }
        ));
    }

    #[test]
    fn duplicate_state_slot_is_rejected() {
        // Regression (fuzzer-found degenerate input): a repeated state
        // slot bound only its first channel; peers blocked forever on the
        // second channel's barrier in co-simulation.
        let p = assemble("halt\n").unwrap();
        let err = insert_communication(&p, &[10, 11, 10], &window()).unwrap_err();
        assert!(matches!(
            err,
            crate::CoreError::DuplicateStateSlot { slot: 10 }
        ));
    }

    #[test]
    fn reorder_hoists_sends_and_sinks_recvs() {
        let w = window();
        // Program: produce v0; store-send; big independent compute chain on
        // v2; recv into v1; consume v1.
        let src = format!(
            "vload v0, 0\n\
             vload v2, 1\n\
             vstore v0, {send}\n\
             vload v1, {recv}\n\
             sigmoid v3, v2\n\
             tanh v4, v3\n\
             vadd v5, v1, v4\n\
             halt\n",
            send = w.send_base,
            recv = w.recv_base
        );
        let p = assemble(&src).unwrap();
        let q = reorder_for_overlap(&p, &w).unwrap();
        let pos = |inst: &Instruction| {
            q.iter()
                .position(|i| i == inst)
                .unwrap_or_else(|| panic!("missing {inst}"))
        };
        let send_pos = pos(&Instruction::VStore {
            src: VReg(0),
            addr: w.send_base,
        });
        let recv_pos = pos(&Instruction::VLoad {
            dst: VReg(1),
            addr: w.recv_base,
        });
        let sig_pos = pos(&vfpga_isa::assemble("sigmoid v3, v2").unwrap()[0]);
        let tanh_pos = pos(&vfpga_isa::assemble("tanh v4, v3").unwrap()[0]);
        // Send before the compute chain; recv after it.
        assert!(send_pos < sig_pos, "send should hoist above compute");
        assert!(recv_pos > tanh_pos, "recv should sink below compute");
    }

    #[test]
    fn reorder_preserves_dependencies() {
        let w = window();
        let p = assemble("vload v0, 0\nmvmul v1, m0, v0\nvadd v2, v1, v0\nvstore v2, 3\nhalt\n")
            .unwrap();
        let q = reorder_for_overlap(&p, &w).unwrap();
        // No comm instructions: order must be unchanged (stable tie-break).
        assert_eq!(p, q);
    }

    #[test]
    fn reorder_keeps_dead_sends_after_halt() {
        // Regression: `halt` only ordered the code before it, so the
        // send-hoisting priority moved this never-executed send above the
        // halt, where it would transmit.
        let w = window();
        let src = format!("vload v0, 0\nhalt\nvstore v0, {}\n", w.send_base);
        let p = assemble(&src).unwrap();
        assert!(!p.dep_graph().is_valid_order(&[0, 2, 1]));
        let q = reorder_for_overlap(&p, &w).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn end_to_end_insert_then_reorder_stays_valid() {
        let w = window();
        let p = assemble(
            "vload v9, 10\n\
             vload v0, 0\n\
             mvmul v1, m0, v0\n\
             vstore v1, 10\n\
             vload v2, 10\n\
             mvmul v3, m1, v2\n\
             vstore v3, 20\n\
             halt\n",
        )
        .unwrap();
        let with_comm = insert_communication(&p, &[10], &w).unwrap();
        let reordered = reorder_for_overlap(&with_comm, &w).unwrap();
        // `reordered` only returns Ok for dependency-preserving orders, so
        // reaching here is the assertion; sanity-check instruction count.
        assert_eq!(reordered.len(), with_comm.len());
    }
}
