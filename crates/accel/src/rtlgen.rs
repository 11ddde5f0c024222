//! Structural RTL generation for the accelerator (Fig. 9's organization).
//!
//! The generated design is the input to the paper's decomposing step: a
//! hierarchy whose top level separates the control path (`bw_ctrl`) from the
//! data path (`bw_datapath`). The data path is *row-partitioned*: each of
//! the N tile engines owns a slice of the output rows and carries its own
//! BFP-to-FP16 converter slice and multi-function-unit slice, so one tile
//! engine is a seven-stage pipeline
//!
//! ```text
//! weight_bank -> dpu_array -> accumulator -> bfp_to_fp16
//!             -> f16_addsub -> f16_mul -> activation
//! ```
//!
//! and the N tile engines are identical and connected in data parallelism.
//! This is what lets the decomposing tool recover the paper's Section 3
//! structure: after the designer moves the (small) FP16-to-BFP converter
//! and vector register file into the control soft block, the data path's
//! root soft block has pure data parallelism, enabling the scale-out
//! optimization. Every leaf carries a `behavior` tag so equivalence
//! checking recognizes the tile engines as identical.

use vfpga_rtl::{Design, Instance, ModuleDecl, Port};

use crate::config::AcceleratorConfig;

/// Name of the generated top-level module.
pub const TOP_MODULE: &str = "bw_top";
/// Name of the control-path module (the module system designers mark for
/// the decomposing tool, Section 2.2.1).
pub const CONTROL_PATH_MODULE: &str = "bw_ctrl";
/// Name of the data-path module.
pub const DATA_PATH_MODULE: &str = "bw_datapath";
/// Modules the case study moves from the data path into the control soft
/// block because they are much smaller than the remaining components
/// (Section 3): the FP16-to-BFP converter and the vector register file.
pub const MOVED_TO_CONTROL: [&str; 2] = ["bw_fp16_to_bfp", "bw_vrf"];

/// Generates the accelerator's structural RTL for a configuration.
///
/// Bus widths derive from the native dimension (the f16 vector bus is
/// `native_dim * 16` bits, the BFP bus `native_dim * mantissa_bits + 8`),
/// which makes the narrow inter-stage links the natural minimum-bandwidth
/// cut points for the partitioner.
///
/// # Panics
///
/// Panics only on internal generator bugs (all generated modules validate).
pub fn generate_rtl(config: &AcceleratorConfig) -> Design {
    let nd = config.native_dim as u32;
    let f16_bus = nd * 16;
    let bfp_bus = nd * config.bfp.mantissa_bits + 8;
    // Each tile owns a row slice; its output bus is narrower than the full
    // vector bus.
    let slice_bus = (f16_bus / config.tiles as u32).max(16);
    let ctrl_bus = 64u32;

    let mut d = Design::new();
    let add = |d: &mut Design, m: ModuleDecl| {
        d.add_module(m).expect("generated module must validate");
    };

    // ---- control path leaves -------------------------------------------
    if config.instruction_buffer {
        add(
            &mut d,
            ModuleDecl::leaf(
                "bw_ibuf",
                vec![
                    Port::input("fill", ctrl_bus),
                    Port::output("instr", ctrl_bus),
                ],
                "instruction_buffer",
            ),
        );
    }
    add(
        &mut d,
        ModuleDecl::leaf(
            "bw_ifetch",
            vec![
                Port::input("instr_in", ctrl_bus),
                Port::output("instr", ctrl_bus),
            ],
            "instruction_fetch",
        ),
    );
    add(
        &mut d,
        ModuleDecl::leaf(
            "bw_idecode",
            vec![
                Port::input("instr", ctrl_bus),
                Port::output("uops", ctrl_bus),
            ],
            "instruction_decode",
        ),
    );
    add(
        &mut d,
        ModuleDecl::leaf(
            "bw_seq",
            vec![Port::input("uops", ctrl_bus), Port::output("ctl", ctrl_bus)],
            "sequencer",
        ),
    );

    // ---- control path --------------------------------------------------
    {
        let mut ctrl = ModuleDecl::new(
            CONTROL_PATH_MODULE,
            vec![
                Port::input("instr_in", ctrl_bus),
                Port::output("ctl", ctrl_bus),
            ],
        );
        ctrl.add_wire("fetched", ctrl_bus);
        ctrl.add_wire("uops", ctrl_bus);
        if config.instruction_buffer {
            ctrl.add_wire("buffered", ctrl_bus);
            ctrl.add_instance(Instance::new(
                "u_ibuf",
                "bw_ibuf",
                [("fill", "instr_in"), ("instr", "buffered")],
            ));
            ctrl.add_instance(Instance::new(
                "u_fetch",
                "bw_ifetch",
                [("instr_in", "buffered"), ("instr", "fetched")],
            ));
        } else {
            ctrl.add_instance(Instance::new(
                "u_fetch",
                "bw_ifetch",
                [("instr_in", "instr_in"), ("instr", "fetched")],
            ));
        }
        ctrl.add_instance(Instance::new(
            "u_decode",
            "bw_idecode",
            [("instr", "fetched"), ("uops", "uops")],
        ));
        ctrl.add_instance(Instance::new(
            "u_seq",
            "bw_seq",
            [("uops", "uops"), ("ctl", "ctl")],
        ));
        add(&mut d, ctrl);
    }

    // ---- data path leaves ----------------------------------------------
    add(
        &mut d,
        ModuleDecl::leaf(
            "bw_fp16_to_bfp",
            vec![Port::input("x", f16_bus), Port::output("y", bfp_bus)],
            "fp16_to_bfp",
        ),
    );
    add(
        &mut d,
        ModuleDecl::leaf(
            "bw_wbank",
            vec![Port::input("x", bfp_bus), Port::output("xw", bfp_bus)],
            "weight_bank",
        ),
    );
    add(
        &mut d,
        ModuleDecl::leaf(
            "bw_dpu",
            vec![Port::input("xw", bfp_bus), Port::output("p", bfp_bus)],
            "dpu_array",
        ),
    );
    add(
        &mut d,
        ModuleDecl::leaf(
            "bw_acc",
            vec![Port::input("p", bfp_bus), Port::output("y", slice_bus)],
            "accumulator",
        ),
    );
    add(
        &mut d,
        ModuleDecl::leaf(
            "bw_bfp_to_fp16",
            vec![Port::input("x", slice_bus), Port::output("y", slice_bus)],
            "bfp_to_fp16",
        ),
    );
    add(
        &mut d,
        ModuleDecl::leaf(
            "bw_addsub",
            vec![Port::input("a", slice_bus), Port::output("y", slice_bus)],
            "f16_addsub",
        ),
    );
    add(
        &mut d,
        ModuleDecl::leaf(
            "bw_mulew",
            vec![Port::input("a", slice_bus), Port::output("y", slice_bus)],
            "f16_mul",
        ),
    );
    add(
        &mut d,
        ModuleDecl::leaf(
            "bw_act",
            vec![Port::input("x", slice_bus), Port::output("y", slice_bus)],
            "activation",
        ),
    );
    add(
        &mut d,
        ModuleDecl::leaf(
            "bw_vrf",
            vec![Port::input("wr", slice_bus), Port::output("rd", f16_bus)],
            "vector_regfile",
        ),
    );

    // ---- tile engine: a strict seven-stage pipeline ----------------------
    {
        let mut tile = ModuleDecl::new(
            "bw_tile",
            vec![Port::input("x", bfp_bus), Port::output("y", slice_bus)],
        );
        tile.add_wire("xw", bfp_bus);
        tile.add_wire("p", bfp_bus);
        tile.add_wire("yq", slice_bus);
        tile.add_wire("yf", slice_bus);
        tile.add_wire("s", slice_bus);
        tile.add_wire("m", slice_bus);
        tile.add_instance(Instance::new(
            "u_wbank",
            "bw_wbank",
            [("x", "x"), ("xw", "xw")],
        ));
        tile.add_instance(Instance::new("u_dpu", "bw_dpu", [("xw", "xw"), ("p", "p")]));
        tile.add_instance(Instance::new("u_acc", "bw_acc", [("p", "p"), ("y", "yq")]));
        tile.add_instance(Instance::new(
            "u_conv_out",
            "bw_bfp_to_fp16",
            [("x", "yq"), ("y", "yf")],
        ));
        tile.add_instance(Instance::new(
            "u_addsub",
            "bw_addsub",
            [("a", "yf"), ("y", "s")],
        ));
        tile.add_instance(Instance::new(
            "u_mulew",
            "bw_mulew",
            [("a", "s"), ("y", "m")],
        ));
        tile.add_instance(Instance::new("u_act", "bw_act", [("x", "m"), ("y", "y")]));
        add(&mut d, tile);
    }

    // ---- data path -------------------------------------------------------
    {
        let mut dp = ModuleDecl::new(
            DATA_PATH_MODULE,
            vec![
                Port::input("data_in", f16_bus),
                Port::input("ctl", ctrl_bus),
                Port::output("data_out", f16_bus),
            ],
        );
        dp.add_wire("xq", bfp_bus);
        dp.add_wire("gather", slice_bus);
        dp.add_instance(Instance::new(
            "u_conv_in",
            "bw_fp16_to_bfp",
            [("x", "data_in"), ("y", "xq")],
        ));
        for t in 0..config.tiles {
            dp.add_instance(Instance::new(
                format!("u_tile{t}"),
                "bw_tile",
                [("x", "xq"), ("y", "gather")],
            ));
        }
        dp.add_instance(Instance::new(
            "u_vrf",
            "bw_vrf",
            [("wr", "gather"), ("rd", "data_out")],
        ));
        add(&mut d, dp);
    }

    // ---- top --------------------------------------------------------------
    {
        let mut top = ModuleDecl::new(
            TOP_MODULE,
            vec![
                Port::input("instr_in", ctrl_bus),
                Port::input("data_in", f16_bus),
                Port::output("data_out", f16_bus),
            ],
        );
        top.add_wire("ctl", ctrl_bus);
        top.add_instance(Instance::new(
            "u_ctrl",
            CONTROL_PATH_MODULE,
            [("instr_in", "instr_in"), ("ctl", "ctl")],
        ));
        top.add_instance(Instance::new(
            "u_datapath",
            DATA_PATH_MODULE,
            [
                ("data_in", "data_in"),
                ("ctl", "ctl"),
                ("data_out", "data_out"),
            ],
        ));
        add(&mut d, top);
    }

    d
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of nodes sharing at least one net with `id`.
    fn neighbors(g: &vfpga_rtl::BlockGraph<'_>, id: u32) -> usize {
        let mut out: Vec<u32> = g
            .edges()
            .iter()
            .filter_map(|e| match (e.from == id, e.to == id) {
                (true, _) => Some(e.to),
                (_, true) => Some(e.from),
                _ => None,
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out.len()
    }

    #[test]
    fn generates_valid_design_with_expected_structure() {
        let cfg = AcceleratorConfig::new("t", 4);
        let d = generate_rtl(&cfg);
        assert!(d.module(TOP_MODULE).is_some());
        assert!(d.module(CONTROL_PATH_MODULE).is_some());
        // ctrl: ibuf+fetch+decode+seq = 4 leaves; datapath: conv_in +
        // 4 tiles * 7 + vrf = 30 leaves.
        assert_eq!(d.leaf_instance_count(TOP_MODULE).unwrap(), 34);
    }

    #[test]
    fn tile_count_parameterizes_structure() {
        let small = generate_rtl(&AcceleratorConfig::new("s", 2));
        let large = generate_rtl(&AcceleratorConfig::new("l", 8));
        assert!(
            large.leaf_instance_count(TOP_MODULE).unwrap()
                > small.leaf_instance_count(TOP_MODULE).unwrap()
        );
        let hs = small.canonical_hash(DATA_PATH_MODULE).unwrap();
        let hl = large.canonical_hash(DATA_PATH_MODULE).unwrap();
        assert_ne!(hs, hl);
    }

    #[test]
    fn tile_is_a_strict_chain() {
        let d = generate_rtl(&AcceleratorConfig::new("t", 1));
        let g = d.block_graph("bw_tile").unwrap();
        assert_eq!(g.node_count(), 7);
        // Interior nodes have exactly two neighbors.
        let interior = (0..7).filter(|&id| neighbors(&g, id) == 2).count();
        assert_eq!(interior, 5);
    }

    #[test]
    fn instruction_buffer_toggles_control_leaf() {
        let with = generate_rtl(&AcceleratorConfig::new("t", 2));
        let without = generate_rtl(&AcceleratorConfig::new("t", 2).without_instruction_buffer());
        assert!(with.module("bw_ibuf").is_some());
        assert!(without.module("bw_ibuf").is_none());
        assert_eq!(
            with.leaf_instance_count(CONTROL_PATH_MODULE).unwrap(),
            without.leaf_instance_count(CONTROL_PATH_MODULE).unwrap() + 1
        );
    }

    #[test]
    fn datapath_flattens_with_tiles_bridging_converter_and_vrf() {
        let d = generate_rtl(&AcceleratorConfig::new("t", 3));
        let g = d.block_graph(DATA_PATH_MODULE).unwrap();
        // conv_in + 3*7 + vrf = 23.
        assert_eq!(g.node_count(), 23);
        // conv_in fans out to all three weight banks.
        let conv = (0..23)
            .find(|&id| g.node(id).module == "bw_fp16_to_bfp")
            .unwrap();
        assert_eq!(neighbors(&g, conv), 3);
    }
}
