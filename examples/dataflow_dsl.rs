//! The high-level entry point: write an accelerator in the
//! parallel-pattern dataflow DSL, lower it to RTL, and push it through the
//! whole virtualization flow.
//!
//! ```text
//! cargo run --release --example dataflow_dsl
//! ```
//!
//! The paper decomposes at the RTL level so any higher-level frontend that
//! emits RTL plugs in unchanged; this example is that frontend.

use vfpga::core::{decompose, partition, DecomposeOptions, MappingDatabase};
use vfpga::fabric::{Cluster, ResourceVec};
use vfpga::hls::Dataflow;
use vfpga::hsabs::HsCompiler;
use vfpga::runtime::{Policy, SystemController};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A wide feature-extraction accelerator, written as dataflow.
    let mut g = Dataflow::new("extract");
    let frames = g.input(512);
    let window = g.stage("window", frames, 512);
    let banks = g.map("filter_bank", window, 8, 512);
    let energy = g.reduce("energy", banks, 64);
    let norm = g.stage("normalize", energy, 64);
    g.output(norm);

    let design = g.lower()?;
    println!(
        "lowered DSL graph to {} RTL modules / {} basic-module instances",
        design.len(),
        design.leaf_instance_count("extract_top")?
    );

    // Decompose + partition, exactly as for the hand-written accelerator.
    let (top, ctrl) = g.module_names();
    let est = |_: &vfpga::rtl::FlatNode| ResourceVec {
        luts: 22_000,
        ffs: 25_000,
        bram_kb: 800,
        uram_kb: 0,
        dsps: 150,
    };
    let decomposition = decompose(&design, &top, &DecomposeOptions::new(ctrl), &est)?;
    println!("\nsoft-block tree:\n{}", decomposition.tree.render());

    let plan = partition(&decomposition.tree, 2);
    println!(
        "partition plan supports up to {} FPGAs; 2-way cut = {} bits",
        plan.max_units(),
        plan.cut_bandwidth_for(2)?
    );

    // Compile and deploy on the paper's heterogeneous cluster.
    let cluster = Cluster::paper_cluster();
    let mut db = MappingDatabase::new();
    db.register(
        "extract",
        &decomposition,
        &plan,
        &cluster.device_types(),
        &HsCompiler::default(),
        true,
    )?;
    let mut controller = SystemController::new(cluster, db, Policy::Full);
    let extract = controller.instance_id("extract")?;
    let d = controller
        .try_deploy(extract, None)?
        .expect("cluster has room");
    println!(
        "deployed onto {:?}",
        d.placements
            .iter()
            .map(|p| p.device.to_string())
            .collect::<Vec<_>>()
    );
    controller.release(&d)?;
    Ok(())
}
