//! Bringing your own accelerator: the framework is not BrainWave-specific.
//!
//! ```text
//! cargo run --release --example custom_accelerator
//! ```
//!
//! Writes a small systolic stencil accelerator in the structural
//! Verilog-like input format, decomposes it, and shows how the extracted
//! parallel patterns drive the partitioner — including the
//! minimum-bandwidth pipeline cut.

use vfpga::core::{decompose, partition, DecomposeOptions, Pattern};
use vfpga::fabric::ResourceVec;
use vfpga::rtl::parse;

const DESIGN: &str = r#"
    // ---- control path --------------------------------------------------
    module seq #(behavior="sequencer") (input [31:0] i, output [31:0] o);
    endmodule
    module ctrl (input [31:0] instr, output [31:0] go);
      seq s (.i(instr), .o(go));
    endmodule

    // ---- one stencil lane: wide load, 3-tap filter, narrow writeback ---
    module loader #(behavior="line_loader") (input [255:0] x, output [255:0] y);
    endmodule
    module tap #(behavior="stencil_tap") (input [255:0] x, output [255:0] y);
    endmodule
    module packer #(behavior="packer") (input [255:0] x, output [31:0] y);
    endmodule
    module lane (input [255:0] x, output [31:0] y);
      wire [255:0] a;
      wire [255:0] b;
      wire [255:0] c;
      loader l (.x(x), .y(a));
      tap t0 (.x(a), .y(b));
      tap t1 (.x(b), .y(c));
      packer p (.x(c), .y(y));
    endmodule

    // ---- data path: a splitter feeding four identical lanes ------------
    module splitter #(behavior="splitter") (input [1023:0] x, output [255:0] y);
    endmodule
    module collector #(behavior="collector") (input [31:0] x, output [127:0] y);
    endmodule
    module datapath (input [1023:0] din, input [31:0] go, output [127:0] dout);
      wire [255:0] xs;
      wire [31:0] ys;
      splitter sp (.x(din), .y(xs));
      lane l0 (.x(xs), .y(ys));
      lane l1 (.x(xs), .y(ys));
      lane l2 (.x(xs), .y(ys));
      lane l3 (.x(xs), .y(ys));
      collector co (.x(ys), .y(dout));
    endmodule

    module top (input [31:0] instr, input [1023:0] din, output [127:0] dout);
      wire [31:0] go;
      ctrl c (.instr(instr), .go(go));
      datapath d (.din(din), .go(go), .dout(dout));
    endmodule
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let design = parse(DESIGN)?;
    println!(
        "parsed {} modules; top elaborates to {} basic-module instances",
        design.len(),
        design.leaf_instance_count("top")?
    );

    // Flat per-leaf resource estimate for the demo.
    let est = |_: &vfpga::rtl::FlatNode| ResourceVec {
        luts: 5_000,
        ffs: 6_000,
        bram_kb: 72,
        uram_kb: 0,
        dsps: 24,
    };

    let opts = DecomposeOptions::new("ctrl");
    let d = decompose(&design, "top", &opts, &est)?;
    println!("\ndecomposed soft-block tree:");
    print!("{}", d.tree.render());

    let root = d.tree.root_block();
    assert_eq!(root.pattern(), Some(Pattern::Pipeline));
    // The middle child groups the four identical lanes in data parallelism.
    let mid = d.tree.block(root.children()[1]);
    assert_eq!(mid.pattern(), Some(Pattern::Data));
    assert_eq!(mid.children().len(), 4);

    // Partition: each pipeline cut lands on the narrowest remaining link.
    // The first splits the collector off over its 128-bit link, the
    // second splits the splitter off the lanes over the 1024-bit bus. The
    // collector leaf cannot split again, so two bisection rounds give 3
    // units, not 4.
    let plan = partition(&d.tree, 2);
    let max = plan.max_units();
    println!(
        "partitioning: 2 units cut {} bits, {max} units cut {} bits in total",
        plan.cut_bandwidth_for(2)?,
        plan.cut_bandwidth_for(max)?
    );
    let units = plan.units_for(max)?;
    println!(
        "a {max}-FPGA deployment gets units with {:?} kLUTs",
        units
            .iter()
            .map(|u| u.resources.luts / 1000)
            .collect::<Vec<_>>()
    );
    Ok(())
}
