//! The decomposing tool (Section 2.2.1).
//!
//! Lowers an AS ISA-based accelerator's RTL design onto the soft-block
//! abstraction using the bottom-up flow the paper automates:
//!
//! 1. **Build block graph** — flatten the hierarchy, extract every basic
//!    module of the data path into a leaf soft block, and connect blocks by
//!    the nets between them.
//! 2. **Extract intra-block data parallelism** — split leaves whose
//!    internal logic is data-parallel (the paper uses combinational
//!    equivalence checking; here the accelerator generator registers the
//!    lane multiplicity of each behavior, e.g. the 16 identical dot-product
//!    units inside `dpu_array`).
//! 3. **Identify inter-block data parallelism** — group interchangeable
//!    sibling blocks (equal content hash, same external neighbors) under a
//!    data-parallel parent.
//! 4. **Identify pipeline parallelism** — group chains of blocks under a
//!    pipeline parent, recording each link's bit width for the partitioner.
//! 5. **Iterate** — repeat 3 and 4 until no block can be merged.
//!
//! The control path is separated first (the designer marks its module name,
//! as the paper requires), and the case study additionally moves the small
//! FP16-to-BFP converter and vector register file into the control soft
//! block so the data-path root exposes pure data parallelism (Section 3).

use std::collections::{BTreeMap, HashMap};

use vfpga_fabric::ResourceVec;
use vfpga_rtl::{Design, FlatNode};

use crate::softblock::{push_block, Pattern, SoftBlock, SoftBlockId, SoftBlockKind, SoftBlockTree};
use crate::CoreError;

/// Options controlling the decomposition.
#[derive(Debug, Clone)]
pub struct DecomposeOptions {
    /// Name of the control-path module, marked by the system designer
    /// (the paper's tools cannot infer it from RTL alone).
    pub control_module: String,
    /// Basic-module names moved from the data path into the control soft
    /// block (Section 3 moves the FP16-to-BFP converter and the vector
    /// register file).
    pub move_to_control: Vec<String>,
    /// Intra-block data parallelism: behavior tag to lane count (step 2).
    pub intra_parallelism: HashMap<String, usize>,
}

impl DecomposeOptions {
    /// Options for a design whose control path lives in `control_module`,
    /// with nothing moved and no intra-block parallelism registered.
    pub fn new(control_module: impl Into<String>) -> Self {
        DecomposeOptions {
            control_module: control_module.into(),
            move_to_control: Vec::new(),
            intra_parallelism: HashMap::new(),
        }
    }
}

/// Statistics recorded by the decomposer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecomposeStats {
    /// Leaf soft blocks in the data-path tree.
    pub data_leaves: usize,
    /// Basic modules assigned to the control soft block.
    pub control_leaves: usize,
    /// Data-parallel groups created.
    pub data_groups: usize,
    /// Pipeline groups created.
    pub pipeline_groups: usize,
    /// Iterations of steps 3-4 until fixpoint.
    pub rounds: usize,
}

/// The result of decomposing one accelerator.
#[derive(Debug, Clone)]
pub struct Decomposition {
    /// The data-path soft-block tree.
    pub tree: SoftBlockTree,
    /// Resources of the control soft block (control path plus any modules
    /// moved into it).
    pub control_resources: ResourceVec,
    /// Statistics of the run.
    pub stats: DecomposeStats,
}

impl Decomposition {
    /// Total estimated resources (control + data path).
    pub fn total_resources(&self) -> ResourceVec {
        self.control_resources + self.tree.root_block().resources
    }
}

/// Decomposes the accelerator rooted at `top` into a soft-block tree.
///
/// `leaf_resources` estimates the spatial resources of one basic-module
/// instance (the accelerator generator provides a calibrated estimator).
///
/// # Errors
///
/// Returns [`CoreError::MissingControlModule`] if `top` does not instantiate
/// the marked control module, [`CoreError::EmptyDataPath`] if nothing
/// remains in the data path, or an [`CoreError::Rtl`] error if the design
/// is malformed.
pub fn decompose(
    design: &Design,
    top: &str,
    options: &DecomposeOptions,
    leaf_resources: &dyn Fn(&FlatNode) -> ResourceVec,
) -> Result<Decomposition, CoreError> {
    // Locate the control instance at the top level.
    let top_module = design
        .module(top)
        .ok_or_else(|| CoreError::Rtl(vfpga_rtl::RtlError::UnknownModule(top.to_string())))?;
    let ctrl_instance = top_module
        .instances
        .iter()
        .find(|i| i.module == options.control_module)
        .ok_or_else(|| CoreError::MissingControlModule(options.control_module.clone()))?
        .name
        .clone();

    // Step 1: build the block graph over the data path; step 2 splits
    // leaves on the way.
    let graph = design.flatten(top)?;
    let mut control_resources = ResourceVec::ZERO;
    let mut stats = DecomposeStats::default();
    let mut g = WorkGraph::default();
    let mut index_of: Vec<Option<usize>> = vec![None; graph.node_count()];
    for (node_id, node) in graph.nodes() {
        let res = leaf_resources(node);
        let in_ctrl =
            node.path == ctrl_instance || node.path.starts_with(&format!("{ctrl_instance}/"));
        if in_ctrl || options.move_to_control.iter().any(|m| m == &node.module) {
            control_resources += res;
            stats.control_leaves += 1;
            continue;
        }
        let lanes = node
            .behavior
            .as_deref()
            .and_then(|b| options.intra_parallelism.get(b).copied())
            .unwrap_or(1);
        let (block, hash) = if lanes > 1 {
            // Step 2: split the leaf into `lanes` identical lane blocks
            // under a data-parallel parent. The parent keeps the leaf's
            // estimate rather than the sum of the rounded-up lanes.
            let lane_res = res.div_ceil(lanes as u64);
            let children: Vec<SoftBlockId> = (0..lanes)
                .map(|l| {
                    push_block(
                        &mut g.arena,
                        SoftBlockKind::Leaf {
                            path: format!("{}/lane{l}", node.path),
                            module: node.module.clone(),
                            behavior: node.behavior.as_ref().map(|b| format!("{b}_lane")),
                        },
                        lane_res,
                    )
                })
                .collect();
            stats.data_leaves += lanes;
            stats.data_groups += 1;
            let behavior = node.behavior.as_deref().unwrap_or_default();
            let lane_hash = hash_str(&format!("{behavior}/lane"));
            let kind = SoftBlockKind::Composite {
                pattern: Pattern::Data,
                children,
                link_widths: vec![],
            };
            let hash = hash_composite("data", [lane_hash], lanes as u64);
            (push_block(&mut g.arena, kind, res), hash)
        } else {
            stats.data_leaves += 1;
            let kind = SoftBlockKind::Leaf {
                path: node.path.clone(),
                module: node.module.clone(),
                behavior: node.behavior.clone(),
            };
            (push_block(&mut g.arena, kind, res), hash_leaf(node))
        };
        index_of[node_id.0] = Some(g.nodes.len());
        g.nodes.push(WorkNode {
            block,
            hash,
            alive: true,
            out: BTreeMap::new(),
            inc: BTreeMap::new(),
        });
    }
    if g.nodes.is_empty() {
        return Err(CoreError::EmptyDataPath);
    }
    for e in graph.edges() {
        if let (Some(a), Some(b)) = (index_of[e.from.0], index_of[e.to.0]) {
            *g.nodes[a].out.entry(b).or_insert(0) += e.width;
            *g.nodes[b].inc.entry(a).or_insert(0) += e.width;
        }
    }

    // Steps 3-5: iterate grouping until fixpoint. When neither strict
    // data-parallel grouping nor pipeline grouping makes progress, fall
    // back to relaxed (matched-lane) grouping, which resolves e.g. the
    // two-lane farm whose block graph is one big cycle.
    loop {
        stats.rounds += 1;
        let merged_data = group_data_parallel(&mut g, &mut stats);
        let merged_pipe = group_pipelines(&mut g, &mut stats);
        if !merged_data && !merged_pipe && !group_data_parallel_relaxed(&mut g, &mut stats) {
            break;
        }
    }

    // Collapse to a single root. An irregular residue is wrapped as a
    // pipeline in work order, using the actual inter-block widths where
    // present.
    let alive: Vec<usize> = (0..g.nodes.len()).filter(|&i| g.nodes[i].alive).collect();
    let root = match alive[..] {
        [only] => only,
        _ => g.merge(&alive, Pattern::Pipeline),
    };
    let root = g.nodes[root].block;

    Ok(Decomposition {
        tree: SoftBlockTree::new(g.arena, root),
        control_resources,
        stats,
    })
}

/// The decomposer's working graph for steps 3-5: the soft-block arena
/// under construction plus one node per not-yet-grouped block.
///
/// Every node carries its own directed adjacency (neighbor index to
/// connecting bits), and only [`WorkGraph::merge`] rewires it. Edges only
/// ever join two live nodes: a merge kills its members, drops the edges
/// among them and moves every outside edge onto the new node. There are
/// no self edges (the block graph has none and a merge drops intra-group
/// edges).
#[derive(Default)]
struct WorkGraph {
    arena: Vec<SoftBlock>,
    nodes: Vec<WorkNode>,
}

struct WorkNode {
    block: SoftBlockId,
    /// Structural content hash: equal hashes mean interchangeable blocks
    /// (the equivalence the data-parallel pattern requires).
    hash: u64,
    alive: bool,
    /// Readers of this node's outputs: neighbor to bits.
    out: BTreeMap<usize, u64>,
    /// Drivers of this node's inputs: neighbor to bits.
    inc: BTreeMap<usize, u64>,
}

impl WorkNode {
    /// Neighbors as `(neighbor, bits, outgoing)` triples; a neighbor that
    /// both drives and reads this node appears once per direction.
    fn neighbors(&self) -> impl Iterator<Item = (usize, u64, bool)> + '_ {
        let out = self.out.iter().map(|(&n, &w)| (n, w, true));
        out.chain(self.inc.iter().map(|(&n, &w)| (n, w, false)))
    }

    /// Bits exchanged with `other` in either direction.
    fn bits_with(&self, other: usize) -> u64 {
        self.out.get(&other).copied().unwrap_or(0) + self.inc.get(&other).copied().unwrap_or(0)
    }
}

impl WorkGraph {
    /// Live node indices grouped by content hash, ascending within a group.
    fn live_by_hash(&self) -> BTreeMap<u64, Vec<usize>> {
        let mut by_hash: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (i, n) in self.nodes.iter().enumerate() {
            if n.alive {
                by_hash.entry(n.hash).or_default().push(i);
            }
        }
        by_hash
    }

    /// Groups the live nodes `members` (in child order) under one new
    /// composite block and rewires the graph: the members die, edges among
    /// them vanish (artifacts of shared broadcast nets) and each outside
    /// neighbor's edges are summed onto the new node. Pipeline link widths
    /// are the bits between consecutive members in both directions.
    /// Returns the new node's index.
    fn merge(&mut self, members: &[usize], pattern: Pattern) -> usize {
        let nodes = &self.nodes;
        let children: Vec<SoftBlockId> = members.iter().map(|&m| nodes[m].block).collect();
        let resources = children.iter().map(|c| self.arena[c.0].resources).sum();
        let (link_widths, hash) = match pattern {
            Pattern::Data => {
                let child_hash = nodes[members[0]].hash;
                let count = members.len() as u64;
                (vec![], hash_composite("data", [child_hash], count))
            }
            Pattern::Pipeline => (
                members
                    .windows(2)
                    .map(|w| nodes[w[0]].bits_with(w[1]))
                    .collect(),
                hash_composite("pipe", members.iter().map(|&m| nodes[m].hash), 0),
            ),
        };
        let block = push_block(
            &mut self.arena,
            SoftBlockKind::Composite {
                pattern,
                children,
                link_widths,
            },
            resources,
        );
        for &m in members {
            self.nodes[m].alive = false;
        }
        // Edges join live nodes only, so a dead neighbor is a member.
        let new = self.nodes.len();
        let (mut out, mut inc) = (BTreeMap::new(), BTreeMap::new());
        for &m in members {
            for (n, w) in std::mem::take(&mut self.nodes[m].out) {
                if self.nodes[n].alive {
                    self.nodes[n].inc.remove(&m);
                    *out.entry(n).or_insert(0) += w;
                }
            }
            for (n, w) in std::mem::take(&mut self.nodes[m].inc) {
                if self.nodes[n].alive {
                    self.nodes[n].out.remove(&m);
                    *inc.entry(n).or_insert(0) += w;
                }
            }
        }
        for (&n, &w) in &out {
            self.nodes[n].inc.insert(new, w);
        }
        for (&n, &w) in &inc {
            self.nodes[n].out.insert(new, w);
        }
        self.nodes.push(WorkNode {
            block,
            hash,
            alive: true,
            out,
            inc,
        });
        new
    }
}

/// Step 3: merge interchangeable siblings under data-parallel parents.
fn group_data_parallel(g: &mut WorkGraph, stats: &mut DecomposeStats) -> bool {
    let mut merged_any = false;
    for (_, members) in g.live_by_hash() {
        if members.len() < 2 {
            continue;
        }
        // Sub-partition by external connection signature: the sorted list
        // of (neighbor, width, direction) triples over neighbors outside
        // the hash group. Direction matters: an identical block feeding a
        // consumer is not interchangeable with one reading from it.
        let mut by_sig: BTreeMap<Vec<(usize, u64, bool)>, Vec<usize>> = BTreeMap::new();
        for &m in &members {
            let mut sig: Vec<(usize, u64, bool)> = g.nodes[m]
                .neighbors()
                .filter(|(n, _, _)| members.binary_search(n).is_err())
                .collect();
            sig.sort_unstable();
            by_sig.entry(sig).or_default().push(m);
        }
        for (_, group) in by_sig {
            if group.len() < 2 {
                continue;
            }
            merged_any = true;
            stats.data_groups += 1;
            g.merge(&group, Pattern::Data);
        }
    }
    merged_any
}

/// Relaxed data-parallel grouping (fallback): merge equal-hash nodes whose
/// neighborhoods match *by equivalence class* rather than by identity.
/// Each neighbor class must either be fully shared (every member connects
/// to the same node, e.g. a broadcast hub) or fully disjoint with equal
/// counts (each member owns its private downstream node, a matched lane).
/// This is what resolves farms whose block graph is one large cycle, where
/// neither strict grouping nor chain detection can start.
fn group_data_parallel_relaxed(g: &mut WorkGraph, stats: &mut DecomposeStats) -> bool {
    for (_, members) in g.live_by_hash() {
        if members.len() < 2 {
            continue;
        }
        // Per member: neighbors outside the group, keyed by
        // (neighbor hash, direction).
        type NeighborClasses = BTreeMap<(u64, bool), Vec<usize>>;
        let per_member: Vec<NeighborClasses> = members
            .iter()
            .map(|&m| {
                let mut classes: NeighborClasses = BTreeMap::new();
                for (n, _, out) in g.nodes[m].neighbors() {
                    if members.binary_search(&n).is_err() {
                        classes.entry((g.nodes[n].hash, out)).or_default().push(n);
                    }
                }
                classes
            })
            .collect();
        // All members must see the same classes with the same multiplicity.
        let first = &per_member[0];
        let consistent = per_member.iter().all(|c| {
            c.len() == first.len()
                && c.iter()
                    .zip(first)
                    .all(|((k, v), (k0, v0))| k == k0 && v.len() == v0.len())
        });
        // Each class must be fully shared or fully disjoint.
        let eligible = consistent
            && first.iter().all(|(k, v)| {
                let mut distinct: Vec<usize> = per_member
                    .iter()
                    .flat_map(|c| c[k].iter().copied())
                    .collect();
                distinct.sort_unstable();
                distinct.dedup();
                distinct.len() == v.len() || distinct.len() == v.len() * members.len()
            });
        if eligible {
            stats.data_groups += 1;
            g.merge(&members, Pattern::Data);
            // One merge per call: the strict steps re-run first.
            return true;
        }
    }
    false
}

/// Step 4: merge chains under pipeline parents.
fn group_pipelines(g: &mut WorkGraph, stats: &mut DecomposeStats) -> bool {
    let n = g.nodes.len();
    let adj: Vec<Vec<usize>> = g
        .nodes
        .iter()
        .map(|node| {
            if !node.alive {
                return Vec::new();
            }
            let mut a: Vec<usize> = node.neighbors().map(|(m, _, _)| m).collect();
            a.sort_unstable();
            a.dedup();
            a
        })
        .collect();

    // A node can sit inside a chain iff it has one or two neighbors; branch
    // nodes (degree >= 3, e.g. a broadcast source feeding every lane) stay
    // outside so identical lanes remain identical.
    let pathable: Vec<bool> = (0..n)
        .map(|i| g.nodes[i].alive && (1..=2).contains(&adj[i].len()))
        .collect();
    let path_adj: Vec<Vec<usize>> = (0..n)
        .map(|i| {
            if pathable[i] {
                adj[i].iter().copied().filter(|&j| pathable[j]).collect()
            } else {
                Vec::new()
            }
        })
        .collect();

    let mut visited = vec![false; n];
    let mut chains: Vec<Vec<usize>> = Vec::new();
    for start in 0..n {
        if !pathable[start] || visited[start] {
            continue;
        }
        // Collect the connected component of pathable nodes.
        let mut component = vec![start];
        visited[start] = true;
        let mut head = 0;
        while head < component.len() {
            let cur = component[head];
            head += 1;
            for &next in &path_adj[cur] {
                if !visited[next] {
                    visited[next] = true;
                    component.push(next);
                }
            }
        }
        // A component where every node has two pathable neighbors is a
        // cycle; skip it (no linear pipeline exists).
        let Some(&endpoint) = component.iter().find(|&&i| path_adj[i].len() <= 1) else {
            continue;
        };
        // Walk the path from the endpoint.
        let mut chain = vec![endpoint];
        let mut prev = usize::MAX;
        let mut cur = endpoint;
        while let Some(&next) = path_adj[cur].iter().find(|&&x| x != prev) {
            prev = cur;
            cur = next;
            chain.push(cur);
        }
        if chain.len() >= 2 {
            chains.push(chain);
        }
    }

    let merged_any = !chains.is_empty();
    for mut chain in chains {
        stats.pipeline_groups += 1;
        // Orient the chain along the dataflow direction: count forward vs
        // backward directed edges and flip if the flow runs the other way.
        let drives = |a: usize, b: usize| g.nodes[a].out.contains_key(&b);
        let forward = chain.windows(2).filter(|w| drives(w[0], w[1])).count();
        let backward = chain.windows(2).filter(|w| drives(w[1], w[0])).count();
        if backward > forward {
            chain.reverse();
        }
        g.merge(&chain, Pattern::Pipeline);
    }
    merged_any
}

fn hash_str(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn hash_leaf(node: &FlatNode) -> u64 {
    match &node.behavior {
        Some(b) => hash_str(&format!("leaf:{b}")),
        None => hash_str(&format!("leaf-module:{}", node.module)),
    }
}

fn hash_composite(kind: &str, child_hashes: impl IntoIterator<Item = u64>, count: u64) -> u64 {
    let mut h = hash_str(kind);
    for c in child_hashes {
        h ^= c;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h ^= count;
    h.wrapping_mul(0x100_0000_01b3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfpga_rtl::parse;

    fn unit_resources(_n: &FlatNode) -> ResourceVec {
        ResourceVec {
            luts: 1000,
            ffs: 1000,
            bram_kb: 10,
            uram_kb: 0,
            dsps: 4,
        }
    }

    /// A miniature accelerator: ctrl + datapath with 3 identical two-stage
    /// lanes between a splitter and a joiner.
    const MINI: &str = r#"
        module ctl_seq #(behavior="seq") (input [63:0] i, output [63:0] o);
        endmodule
        module ctrl (input [63:0] instr, output [63:0] ctl);
          ctl_seq u (.i(instr), .o(ctl));
        endmodule

        module stage_a #(behavior="sa") (input [31:0] x, output [31:0] y);
        endmodule
        module stage_b #(behavior="sb") (input [31:0] x, output [15:0] y);
        endmodule
        module lane (input [31:0] x, output [15:0] y);
          wire [31:0] t;
          stage_a a (.x(x), .y(t));
          stage_b b (.x(t), .y(y));
        endmodule
        module split #(behavior="split") (input [63:0] x, output [31:0] y);
        endmodule
        module join #(behavior="join") (input [15:0] x, output [63:0] y);
        endmodule
        module datapath (input [63:0] din, input [63:0] ctl, output [63:0] dout);
          wire [31:0] xs;
          wire [15:0] ys;
          split s (.x(din), .y(xs));
          lane l0 (.x(xs), .y(ys));
          lane l1 (.x(xs), .y(ys));
          lane l2 (.x(xs), .y(ys));
          join j (.x(ys), .y(dout));
        endmodule

        module top (input [63:0] instr, input [63:0] din, output [63:0] dout);
          wire [63:0] ctl;
          ctrl c (.instr(instr), .ctl(ctl));
          datapath d (.din(din), .ctl(ctl), .dout(dout));
        endmodule
    "#;

    #[test]
    fn mini_accelerator_decomposes_to_pipeline_of_data() {
        let design = parse(MINI).unwrap();
        let opts = DecomposeOptions::new("ctrl");
        let d = decompose(&design, "top", &opts, &unit_resources).unwrap();
        // Control: the one seq leaf.
        assert_eq!(d.stats.control_leaves, 1);
        // Data leaves: split + 3*2 + join = 8.
        assert_eq!(d.stats.data_leaves, 8);
        assert_eq!(d.tree.leaf_count(), 8);
        // Root: pipeline [split, data[3 x pipeline(a,b)], join].
        let root = d.tree.root_block();
        assert_eq!(root.pattern(), Some(Pattern::Pipeline));
        assert_eq!(root.children().len(), 3);
        let mid = d.tree.block(root.children()[1]);
        assert_eq!(mid.pattern(), Some(Pattern::Data));
        assert_eq!(mid.children().len(), 3);
        let lane = d.tree.block(mid.children()[0]);
        assert_eq!(lane.pattern(), Some(Pattern::Pipeline));
        assert_eq!(lane.children().len(), 2);
    }

    #[test]
    fn moving_endpoints_to_control_exposes_data_root() {
        let design = parse(MINI).unwrap();
        let mut opts = DecomposeOptions::new("ctrl");
        opts.move_to_control = vec!["split".into(), "join".into()];
        let d = decompose(&design, "top", &opts, &unit_resources).unwrap();
        assert_eq!(d.stats.control_leaves, 3);
        assert_eq!(d.tree.leaf_count(), 6);
        let root = d.tree.root_block();
        assert_eq!(root.pattern(), Some(Pattern::Data));
        assert_eq!(root.children().len(), 3);
    }

    #[test]
    fn intra_block_parallelism_splits_leaves() {
        let design = parse(MINI).unwrap();
        let mut opts = DecomposeOptions::new("ctrl");
        opts.intra_parallelism.insert("sa".into(), 4);
        let d = decompose(&design, "top", &opts, &unit_resources).unwrap();
        // Each stage_a leaf becomes 4 lane leaves: 1 + 3*(4+1) + 1 = 17.
        assert_eq!(d.tree.leaf_count(), 17);
        // Lane resources divide.
        let lanes: Vec<_> = d
            .tree
            .iter()
            .filter(|b| matches!(&b.kind, SoftBlockKind::Leaf { behavior: Some(x), .. } if x == "sa_lane"))
            .collect();
        assert_eq!(lanes.len(), 12);
        assert_eq!(lanes[0].resources.luts, 250);
    }

    #[test]
    fn resources_accumulate_up_the_tree() {
        let design = parse(MINI).unwrap();
        let opts = DecomposeOptions::new("ctrl");
        let d = decompose(&design, "top", &opts, &unit_resources).unwrap();
        // Root resources = 8 leaves x 1000 LUTs.
        assert_eq!(d.tree.root_block().resources.luts, 8000);
        assert_eq!(d.control_resources.luts, 1000);
        assert_eq!(d.total_resources().luts, 9000);
    }

    #[test]
    fn pipeline_link_widths_recorded() {
        let design = parse(MINI).unwrap();
        let opts = DecomposeOptions::new("ctrl");
        let d = decompose(&design, "top", &opts, &unit_resources).unwrap();
        // Inside a lane: a->b link is 32 bits.
        let root = d.tree.root_block();
        let mid = d.tree.block(root.children()[1]);
        let lane = d.tree.block(mid.children()[0]);
        match &lane.kind {
            SoftBlockKind::Composite { link_widths, .. } => assert_eq!(link_widths, &[32]),
            _ => panic!("expected composite"),
        }
    }

    #[test]
    fn missing_control_module_reported() {
        let design = parse(MINI).unwrap();
        let opts = DecomposeOptions::new("nonexistent");
        let err = decompose(&design, "top", &opts, &unit_resources).unwrap_err();
        assert!(matches!(err, CoreError::MissingControlModule(_)));
    }

    #[test]
    fn identical_blocks_with_different_neighbors_not_grouped() {
        // Two `sa` stages in different pipeline positions must not merge.
        let src = r#"
            module c #(behavior="seq") (input i, output o);
            endmodule
            module ctrl (input instr, output ctl);
              c u (.i(instr), .o(ctl));
            endmodule
            module sa #(behavior="sa") (input [31:0] x, output [31:0] y);
            endmodule
            module sb #(behavior="sb") (input [31:0] x, output [31:0] y);
            endmodule
            module datapath (input [31:0] din, input ctl, output [31:0] dout);
              wire [31:0] t1;
              wire [31:0] t2;
              sa first (.x(din), .y(t1));
              sb middle (.x(t1), .y(t2));
              sa last (.x(t2), .y(dout));
            endmodule
            module top (input instr, input [31:0] din, output [31:0] dout);
              wire ctl;
              ctrl cc (.instr(instr), .ctl(ctl));
              datapath d (.din(din), .ctl(ctl), .dout(dout));
            endmodule
        "#;
        let design = parse(src).unwrap();
        let opts = DecomposeOptions::new("ctrl");
        let d = decompose(&design, "top", &opts, &unit_resources).unwrap();
        // The two `sa` leaves sit at different chain positions: the result
        // must be a 3-stage pipeline, not a data group.
        let root = d.tree.root_block();
        assert_eq!(root.pattern(), Some(Pattern::Pipeline));
        assert_eq!(root.children().len(), 3);
        assert_eq!(d.stats.data_groups, 0);
    }
}
