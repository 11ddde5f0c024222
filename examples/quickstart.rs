//! Quickstart: the full multi-layer virtualization flow on one accelerator.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Walks every layer of the stack, bottom-up:
//!
//! 1. parameterize and generate a BrainWave-like accelerator (AS ISA layer);
//! 2. decompose it onto the soft-block system abstraction;
//! 3. partition it into deployment units;
//! 4. compile the units against the HS abstraction of both device types;
//! 5. deploy it on the heterogeneous cluster through the system controller;
//! 6. run a real GRU inference on the deployed accelerator's functional
//!    simulator and check it against an f32 reference.

use vfpga::accel::{
    generate_rtl, leaf_resource_estimator, AcceleratorConfig, FuncSim, CONTROL_PATH_MODULE,
    MOVED_TO_CONTROL, TOP_MODULE,
};
use vfpga::core::{decompose, partition, DecomposeOptions, MappingDatabase};
use vfpga::fabric::Cluster;
use vfpga::hsabs::HsCompiler;
use vfpga::isa::assemble;
use vfpga::runtime::{Policy, SystemController};
use vfpga::workload::{
    generate_program, reference_run, RnnKind, RnnTask, RnnWeights, SliceSpec, H_STATE_SLOT,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Parameterize the accelerator: 8 MVM tile engines, defaults
    //    matching the paper's case study.
    let config = AcceleratorConfig::new("quickstart", 8);
    let design = generate_rtl(&config);
    println!(
        "generated RTL: {} modules, {} basic-module instances under {}",
        design.len(),
        design.leaf_instance_count(TOP_MODULE)?,
        TOP_MODULE
    );

    // 2. Decompose onto the soft-block abstraction. The designer marks the
    //    control-path module, and (as in Section 3) moves the small
    //    FP16-to-BFP converter and vector register file into the control
    //    soft block so the data-path root exposes pure data parallelism.
    let mut opts = DecomposeOptions::new(CONTROL_PATH_MODULE);
    opts.move_to_control = MOVED_TO_CONTROL.iter().map(|s| s.to_string()).collect();
    opts.intra_parallelism
        .insert("dpu_array".into(), config.rows_per_cycle);
    let est = leaf_resource_estimator(&config);
    let decomposition = decompose(&design, TOP_MODULE, &opts, &est)?;
    println!("\nsoft-block tree ({} blocks):", decomposition.tree.len());
    print!(
        "{}",
        &decomposition.tree.render()[..400.min(decomposition.tree.render().len())]
    );
    println!(
        "  ... (root pattern: {:?})",
        decomposition.tree.root_block().pattern()
    );

    // 3. Partition: two iterations support deployments onto up to 4 FPGAs.
    let plan = partition(&decomposition.tree, 2);
    println!(
        "\npartition plan: up to {} deployment units, 2-FPGA cut bandwidth {} bits",
        plan.max_units(),
        plan.cut_bandwidth_for(2)?
    );

    // 4. Compile every deployment option for both device types.
    let cluster = Cluster::paper_cluster();
    let mut db = MappingDatabase::new();
    let entry = db.register(
        "quickstart",
        &decomposition,
        &plan,
        &cluster.device_types(),
        &HsCompiler::default(),
        true,
    )?;
    println!(
        "mapping database entry: {} deployment options",
        entry.options.len()
    );
    for option in &entry.options {
        let types: Vec<&str> = option.units[0].images.keys().map(String::as_str).collect();
        println!(
            "  {} unit(s), first unit fits: {types:?}",
            option.num_units()
        );
    }

    // 5. Deploy through the system controller (greedy policy).
    let mut controller = SystemController::new(cluster, db, Policy::Full);
    let instance = controller.instance_id("quickstart")?;
    let deployment = controller
        .try_deploy(instance, None)?
        .expect("empty cluster has capacity");
    println!(
        "\ndeployed onto {} FPGA(s): {:?}",
        deployment.num_units(),
        deployment
            .placements
            .iter()
            .map(|p| p.device.to_string())
            .collect::<Vec<_>>()
    );

    // 6. Run a real GRU inference on the accelerator's functional
    //    simulator and compare against the f32 reference.
    let task = RnnTask::new(RnnKind::Gru, 64, 4);
    let weights = RnnWeights::generate(task, 7);
    let rnn = generate_program(task, SliceSpec::FULL);
    let mut sim = FuncSim::new(&config);
    weights.load_into(&mut sim, SliceSpec::FULL);
    sim.run(&rnn.program)?;
    let h = sim.read_dram(H_STATE_SLOT).expect("program stores final h");
    let reference = reference_run(&weights);
    let max_err = h
        .iter()
        .zip(&reference)
        .map(|(a, b)| (a.to_f32() - b).abs())
        .fold(0.0f32, f32::max);
    println!(
        "\n{task}: {} instructions executed, max |accelerator - f32 reference| = {max_err:.4}",
        sim.executed()
    );
    assert!(max_err < 0.05, "quantization error should be small");

    // A taste of the ISA's software programming flow: plain assembly.
    let p = assemble("vload v0, 0\nmvmul v1, m0, v0\nsigmoid v2, v1\nvstore v2, 1\nhalt\n")?;
    println!(
        "\nhand-written kernel ({} instructions) assembles fine",
        p.len()
    );

    controller.release(&deployment)?;
    println!(
        "released; cluster occupancy back to {:.0}%",
        controller.occupancy() * 100.0
    );
    Ok(())
}
