//! The top-down decomposition flow (Fig. 3b).
//!
//! The paper describes two equivalent ways to lower a data path onto the
//! soft-block abstraction. The *bottom-up* flow ([`crate::decompose`]) is
//! what the automated tool uses ("due to the ease of implementation"); the
//! *top-down* flow starts from the whole data path and recursively splits
//! each soft block by one of the two primitive patterns until every block
//! contains a basic module. This module implements the top-down flow
//! directly over the module hierarchy — useful when the hierarchy already
//! mirrors the parallel structure (as generator-produced designs do) and
//! as a cross-check of the bottom-up tool: on such designs the two flows
//! must produce structurally equivalent trees.
//!
//! A module decomposes as:
//!
//! * a **basic module** -> a leaf soft block;
//! * a module whose child instances are all structurally equivalent
//!   (equal canonical hash) -> a data-parallel block over the recursively
//!   decomposed children;
//! * a module whose child instances form a connection chain -> a pipeline
//!   block over the children in chain order;
//! * anything else -> recursively decomposed children wrapped in a
//!   pipeline block in declaration order (the same irregular-residue rule
//!   the bottom-up flow applies).

use std::collections::HashMap;

use vfpga_fabric::ResourceVec;
use vfpga_rtl::{Design, FlatNode, ModuleDecl, PortDir};

use crate::softblock::{push_block, Pattern, SoftBlock, SoftBlockId, SoftBlockKind, SoftBlockTree};
use crate::CoreError;

/// Decomposes the module `top` top-down into a soft-block tree.
///
/// Unlike [`crate::decompose`], this flow keeps the designer's hierarchy:
/// it never regroups across module boundaries, so the result is only as
/// good as the hierarchy. `leaf_resources` estimates each basic module's
/// resources, as in the bottom-up flow.
///
/// # Errors
///
/// Returns [`CoreError::Rtl`] if `top` or any referenced module is
/// unknown.
pub fn decompose_top_down(
    design: &Design,
    top: &str,
    leaf_resources: &dyn Fn(&FlatNode) -> ResourceVec,
) -> Result<SoftBlockTree, CoreError> {
    let mut arena: Vec<SoftBlock> = Vec::new();
    let root = lower(design, top, top, leaf_resources, &mut arena)?;
    Ok(SoftBlockTree::new(arena, root))
}

fn lower(
    design: &Design,
    module_name: &str,
    path: &str,
    leaf_resources: &dyn Fn(&FlatNode) -> ResourceVec,
    arena: &mut Vec<SoftBlock>,
) -> Result<SoftBlockId, CoreError> {
    let module = design
        .module(module_name)
        .ok_or_else(|| CoreError::Rtl(vfpga_rtl::RtlError::UnknownModule(module_name.into())))?;

    if module.is_basic() {
        let resources = leaf_resources(&FlatNode {
            path,
            module: &module.name,
            behavior: module.behavior.as_deref(),
        });
        let kind = SoftBlockKind::Leaf {
            path: path.to_string(),
            module: module.name.clone(),
            behavior: module.behavior.clone(),
        };
        return Ok(push_block(arena, kind, resources));
    }

    // Recursively lower children first.
    let mut children = Vec::with_capacity(module.instances.len());
    for inst in &module.instances {
        let child_path = format!("{path}/{}", inst.name);
        children.push(lower(
            design,
            &inst.module,
            &child_path,
            leaf_resources,
            arena,
        )?);
    }
    let resources: ResourceVec = children.iter().map(|&c| arena[c.0].resources).sum();

    // Single child: the wrapper adds no structure.
    if children.len() == 1 {
        return Ok(children[0]);
    }

    // Pattern selection on the *instances* of this module.
    let hashes: Result<Vec<u64>, CoreError> = module
        .instances
        .iter()
        .map(|i| design.canonical_hash(&i.module).map_err(CoreError::from))
        .collect();
    let hashes = hashes?;
    let all_equivalent = hashes.windows(2).all(|w| w[0] == w[1]);
    // Equivalent instances are data-parallel only when they are also
    // independent: siblings chained through internal wires (e.g. two
    // identical PEs back to back) are a pipeline, not data parallelism.
    let independent = {
        let mut users: HashMap<&str, usize> = HashMap::new();
        for inst in &module.instances {
            for net in inst.connections.values() {
                if module.wires.contains_key(net) {
                    *users.entry(net.as_str()).or_insert(0) += 1;
                }
            }
        }
        users.values().all(|&n| n < 2)
    };

    let kind = if all_equivalent && independent {
        SoftBlockKind::Composite {
            pattern: Pattern::Data,
            children,
            link_widths: vec![],
        }
    } else {
        // Chain detection over instance connections: order instances along
        // driver->reader edges if they form a linear chain.
        let (ordered, link_widths) = chain_order(module, &children);
        SoftBlockKind::Composite {
            pattern: Pattern::Pipeline,
            children: ordered,
            link_widths,
        }
    };
    Ok(push_block(arena, kind, resources))
}

/// Orders a module's children along the dataflow if they form a chain;
/// otherwise returns declaration order. Also returns the inter-child link
/// widths.
fn chain_order(module: &ModuleDecl, children: &[SoftBlockId]) -> (Vec<SoftBlockId>, Vec<u64>) {
    let n = module.instances.len();
    // Undirected inter-instance edges via shared internal wires (module
    // ports lead outside the module and do not connect siblings); chain
    // orientation is fixed afterwards by which endpoint touches a module
    // input port.
    let mut edges: HashMap<(usize, usize), u64> = HashMap::new();
    let mut by_net: HashMap<&str, Vec<(usize, u32)>> = HashMap::new();
    for (i, inst) in module.instances.iter().enumerate() {
        for net in inst.connections.values() {
            // Only internal wires connect siblings; module ports lead
            // outside.
            if let Some(width) = module.wires.get(net) {
                by_net.entry(net).or_default().push((i, *width));
            }
        }
    }
    for members in by_net.values() {
        for (k, &(a, w)) in members.iter().enumerate() {
            for &(b, _) in &members[k + 1..] {
                if a != b {
                    *edges.entry((a.min(b), a.max(b))).or_insert(0) += u64::from(w);
                }
            }
        }
    }
    let mut degree = vec![0usize; n];
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(a, b) in edges.keys() {
        degree[a] += 1;
        degree[b] += 1;
        adj[a].push(b);
        adj[b].push(a);
    }
    // A chain has exactly two endpoints of degree 1 and the rest degree 2.
    let endpoints: Vec<usize> = (0..n).filter(|&i| degree[i] == 1).collect();
    let is_chain = endpoints.len() == 2 && (0..n).all(|i| degree[i] == 1 || degree[i] == 2);
    if !is_chain {
        let widths = (0..n.saturating_sub(1))
            .map(|i| edges.get(&(i, i + 1)).copied().unwrap_or(0))
            .collect();
        return (children.to_vec(), widths);
    }
    // Walk the chain. Prefer the endpoint connected to a module input
    // port so the order follows the dataflow.
    let start = endpoints
        .iter()
        .copied()
        .find(|&e| {
            module.instances[e].connections.values().any(|net| {
                module
                    .ports
                    .iter()
                    .any(|p| p.dir == PortDir::Input && p.name == *net)
            })
        })
        .unwrap_or(endpoints[0]);
    let mut order = vec![start];
    let mut prev = usize::MAX;
    let mut cur = start;
    while let Some(&next) = adj[cur].iter().find(|&&x| x != prev) {
        prev = cur;
        cur = next;
        order.push(cur);
    }
    let widths = order
        .windows(2)
        .map(|w| {
            edges
                .get(&(w[0].min(w[1]), w[0].max(w[1])))
                .copied()
                .unwrap_or(0)
        })
        .collect();
    (order.iter().map(|&i| children[i]).collect(), widths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfpga_rtl::parse;

    fn unit(_n: &FlatNode) -> ResourceVec {
        ResourceVec {
            luts: 100,
            ffs: 100,
            bram_kb: 1,
            uram_kb: 0,
            dsps: 1,
        }
    }

    const HIER: &str = r#"
        module pe #(behavior="pe") (input [15:0] x, output [15:0] y);
        endmodule
        module stage (input [15:0] x, output [15:0] y);
          wire [15:0] t;
          pe a (.x(x), .y(t));
          pe b (.x(t), .y(y));
        endmodule
        module farm (input [15:0] x, output [15:0] y);
          stage s0 (.x(x), .y(y));
          stage s1 (.x(x), .y(y));
          stage s2 (.x(x), .y(y));
        endmodule
    "#;

    #[test]
    fn hierarchy_lowered_to_patterns() {
        let design = parse(HIER).unwrap();
        let tree = decompose_top_down(&design, "farm", &unit).unwrap();
        let root = tree.root_block();
        // farm: three equivalent stages -> data parallel.
        assert_eq!(root.pattern(), Some(Pattern::Data));
        assert_eq!(root.children().len(), 3);
        // stage: two pes chained through wire t -> pipeline with a 16-bit
        // link.
        let stage = tree.block(root.children()[0]);
        assert_eq!(stage.pattern(), Some(Pattern::Pipeline));
        match &stage.kind {
            SoftBlockKind::Composite { link_widths, .. } => assert_eq!(link_widths, &[16]),
            _ => panic!("expected composite"),
        }
        assert_eq!(tree.leaf_count(), 6);
        // Resources accumulate.
        assert_eq!(root.resources.luts, 600);
    }

    #[test]
    fn basic_module_becomes_single_leaf() {
        let design = parse(HIER).unwrap();
        let tree = decompose_top_down(&design, "pe", &unit).unwrap();
        assert_eq!(tree.len(), 1);
        assert!(tree.root_block().is_leaf());
    }

    #[test]
    fn matches_bottom_up_on_generated_accelerators() {
        use crate::decompose::{decompose, DecomposeOptions};
        let cfg = vfpga_accel::AcceleratorConfig::new("x", 5);
        let design = vfpga_accel::generate_rtl(&cfg);
        let est = |_: &FlatNode| ResourceVec {
            luts: 10,
            ffs: 10,
            bram_kb: 0,
            uram_kb: 0,
            dsps: 0,
        };
        // Bottom-up over the data path with the Section 3 modifications.
        let mut opts = DecomposeOptions::new(vfpga_accel::CONTROL_PATH_MODULE);
        opts.move_to_control = vfpga_accel::MOVED_TO_CONTROL
            .iter()
            .map(|s| s.to_string())
            .collect();
        let bottom_up = decompose(&design, vfpga_accel::TOP_MODULE, &opts, &est).unwrap();
        // Top-down over one tile: must find the same 7-stage pipeline that
        // the bottom-up flow grouped per tile.
        let tile = decompose_top_down(&design, "bw_tile", &est).unwrap();
        assert_eq!(tile.root_block().pattern(), Some(Pattern::Pipeline));
        assert_eq!(tile.root_block().children().len(), 7);
        let bu_tile = bottom_up
            .tree
            .block(bottom_up.tree.root_block().children()[0]);
        assert_eq!(bu_tile.children().len(), tile.root_block().children().len());
    }

    #[test]
    fn irregular_module_falls_back_to_declaration_order() {
        let src = r#"
            module a #(behavior="a") (input [7:0] x, output [7:0] y);
            endmodule
            module b #(behavior="b") (input [7:0] x, output [7:0] y);
            endmodule
            module diamond (input [7:0] x, output [7:0] y);
              wire [7:0] t;
              wire [7:0] u;
              a top_arm (.x(x), .y(t));
              b bottom_arm (.x(x), .y(u));
              a joiner (.x(t), .y(y));
              b joiner2 (.x(u), .y(y));
            endmodule
        "#;
        let design = parse(src).unwrap();
        let tree = decompose_top_down(&design, "diamond", &unit).unwrap();
        // Not a chain, not all-equivalent: wrapped as a pipeline residue.
        assert_eq!(tree.root_block().pattern(), Some(Pattern::Pipeline));
        assert_eq!(tree.root_block().children().len(), 4);
    }
}
