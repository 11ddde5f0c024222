//! End-to-end correctness of the scale-out optimization: scaled-down
//! accelerators exchanging state through the synchronization template
//! module must compute exactly what one big accelerator computes.

use vfpga::accel::{AcceleratorConfig, FuncSim, RemoteWindow};
use vfpga::core::scaleout::{insert_communication, remote_window, reorder_for_overlap};
use vfpga::isa::F16;
use vfpga::runtime::{co_simulate_functional, RuntimeError};
use vfpga::workload::{
    generate_program, reference_run, RnnKind, RnnTask, RnnWeights, SliceSpec, H_LOCAL_SLOT,
};

/// Runs `task` on `machines` cooperating scaled-down accelerators and
/// returns the final hidden state (concatenated slices).
fn run_scaled(task: RnnTask, weights: &RnnWeights, machines: usize, reorder: bool) -> Vec<F16> {
    let full = AcceleratorConfig::new("test", 8);
    let scaled = full.scaled_down(machines);
    let mut programs = Vec::new();
    let mut sims = Vec::new();
    for m in 0..machines {
        let rnn = generate_program(task, SliceSpec::new(m, machines));
        let window = remote_window(&scaled.isa, m, machines).expect("window fits");
        let mut program =
            insert_communication(&rnn.program, &rnn.state_slots, &window).expect("insert");
        if reorder {
            program = reorder_for_overlap(&program, &window).expect("reorder");
        }
        programs.push(program);
        let mut sim = FuncSim::new(&scaled);
        sim.set_remote_window(Some(window));
        weights.load_into(&mut sim, SliceSpec::new(m, machines));
        sims.push(sim);
    }
    co_simulate_functional(&mut sims, &programs).expect("co-simulation");
    let mut h = Vec::new();
    for sim in &sims {
        h.extend_from_slice(sim.read_dram(H_LOCAL_SLOT).expect("h slice"));
    }
    h
}

fn run_single(task: RnnTask, weights: &RnnWeights) -> Vec<F16> {
    let full = AcceleratorConfig::new("test", 8);
    let rnn = generate_program(task, SliceSpec::FULL);
    let mut sim = FuncSim::new(&full);
    weights.load_into(&mut sim, SliceSpec::FULL);
    sim.run(&rnn.program).expect("single-machine run");
    sim.read_dram(H_LOCAL_SLOT).expect("h").to_vec()
}

#[test]
fn gru_two_machines_bit_exact() {
    let task = RnnTask::new(RnnKind::Gru, 96, 5);
    let weights = RnnWeights::generate(task, 11);
    let single = run_single(task, &weights);
    let scaled = run_scaled(task, &weights, 2, true);
    assert_eq!(single.len(), scaled.len());
    for (a, b) in single.iter().zip(&scaled) {
        assert_eq!(a.to_bits(), b.to_bits(), "row-sliced GRU must be bit-exact");
    }
}

#[test]
fn lstm_two_machines_bit_exact() {
    let task = RnnTask::new(RnnKind::Lstm, 64, 6);
    let weights = RnnWeights::generate(task, 13);
    let single = run_single(task, &weights);
    let scaled = run_scaled(task, &weights, 2, true);
    for (a, b) in single.iter().zip(&scaled) {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "row-sliced LSTM must be bit-exact"
        );
    }
}

#[test]
fn four_machines_with_uneven_rows() {
    // 70 rows over 4 machines: slices of 18/18/17/17.
    let task = RnnTask::new(RnnKind::Gru, 70, 3);
    let weights = RnnWeights::generate(task, 17);
    let single = run_single(task, &weights);
    let scaled = run_scaled(task, &weights, 4, true);
    assert_eq!(scaled.len(), 70);
    for (a, b) in single.iter().zip(&scaled) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

#[test]
fn reordering_does_not_change_results() {
    let task = RnnTask::new(RnnKind::Lstm, 48, 4);
    let weights = RnnWeights::generate(task, 19);
    let plain = run_scaled(task, &weights, 2, false);
    let reordered = run_scaled(task, &weights, 2, true);
    assert_eq!(plain, reordered);
}

#[test]
fn scaled_results_track_f32_reference() {
    let task = RnnTask::new(RnnKind::Gru, 128, 6);
    let weights = RnnWeights::generate(task, 23);
    let scaled = run_scaled(task, &weights, 2, true);
    let reference = reference_run(&weights);
    let max_err = scaled
        .iter()
        .zip(&reference)
        .map(|(a, b)| (a.to_f32() - b).abs())
        .fold(0.0f32, f32::max);
    assert!(max_err < 0.05, "max error {max_err}");
}

#[test]
fn missing_peer_data_deadlocks_cleanly() {
    // One machine runs a program that receives without any peer sending:
    // the co-simulator must report a deadlock, not hang.
    let cfg = AcceleratorConfig::new("t", 2);
    let window = RemoteWindow {
        send_base: 100,
        recv_base: 200,
        channels: 1,
        machine_index: 0,
        num_machines: 2,
    };
    let program = vfpga::isa::assemble("vload v0, 200\nhalt\n").unwrap();
    let mut starved = FuncSim::new(&cfg);
    starved.set_remote_window(Some(window));
    let mut silent = FuncSim::new(&cfg);
    silent.set_remote_window(Some(RemoteWindow {
        machine_index: 1,
        ..window
    }));
    let halt_only = vfpga::isa::assemble("halt\n").unwrap();
    let err = co_simulate_functional(&mut [starved, silent], &[program, halt_only]).unwrap_err();
    assert!(matches!(err, RuntimeError::Deadlock { blocked: 1 }));
}

/// FNV-1a over a program's assembler text.
fn program_digest(program: &vfpga::isa::Program) -> u64 {
    program
        .to_string()
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

#[test]
fn reorder_output_matches_pinned_digest() {
    // Golden schedule: any change to the dependency graph or to the
    // list scheduler's tie-breaking that alters the reordered Fig. 11
    // GRU program (machine 0 of 2) shows up here as a digest mismatch.
    let task = RnnTask::new(RnnKind::Gru, 1024, 64);
    let rnn = generate_program(task, SliceSpec::new(0, 2));
    let window = remote_window(&vfpga::isa::IsaConfig::default(), 0, 2).expect("window fits");
    let program = insert_communication(&rnn.program, &rnn.state_slots, &window).expect("insert");
    let reordered = reorder_for_overlap(&program, &window).expect("reorder");
    assert_eq!(reordered.len(), program.len());
    assert_eq!(
        format!("{:016x}", program_digest(&reordered)),
        "c0e29726bc91fa36"
    );
}

#[test]
fn fuzz_counterexample_minimal_two_row_gru() {
    // Checked-in shrunk counterexample from the differential fuzzer's
    // scaleout-differential oracle (seed 42, case 0) against a mutant of
    // `insert_communication` that left the first cross-machine receive
    // reading the machine's own local slice instead of the ring window.
    // The smallest shape that exposes the class: the hidden state must
    // actually cross machines (2 rows over 2 machines) and the skipped
    // receive must feed a later step (2 timesteps — one step passes
    // vacuously because h0 starts local everywhere). On the mutant this
    // deadlocks the co-simulation; on correct code it is bit-exact.
    let task = RnnTask::new(RnnKind::Gru, 2, 2);
    let weights = RnnWeights::generate(task, 12032836648555590000);
    let single = run_single(task, &weights);
    let scaled = run_scaled(task, &weights, 2, true);
    assert_eq!(single.len(), scaled.len());
    for (a, b) in single.iter().zip(&scaled) {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "minimal cross-machine GRU must be bit-exact"
        );
    }
}
