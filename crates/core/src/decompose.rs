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

use std::collections::HashMap;
use std::fmt::Write as _;
use std::ops::Range;

use vfpga_fabric::ResourceVec;
use vfpga_rtl::{BlockEdge, BlockGraph, Design, FlatNode};

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
/// It is called once per block-graph node, control and data path alike,
/// with the node as [`BlockGraph::node`] gives it: the instance's own path
/// and names, before step 2 splits it into lanes.
///
/// # Errors
///
/// Returns [`CoreError::MissingControlModule`] if `top` does not instantiate
/// the marked control module, [`CoreError::EmptyDataPath`] if nothing
/// remains in the data path, or an [`CoreError::Rtl`] error if the design
/// is malformed or elaborates to more instances than the block graph's
/// `u32` ids cover.
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
        .as_str();

    // Step 1: build the block graph over the data path; step 2 splits
    // leaves on the way.
    let graph = design.block_graph(top)?;
    let mut stats = DecomposeStats::default();
    let (mut g, control_resources) =
        WorkGraph::build(&graph, ctrl_instance, options, leaf_resources, &mut stats)?;

    // Steps 3-5: iterate grouping until fixpoint. When neither strict
    // data-parallel grouping nor pipeline grouping makes progress, fall
    // back to relaxed (matched-lane) grouping, which resolves e.g. the
    // two-lane farm whose block graph is one big cycle.
    let mut s = GroupBuffers::new(&g);
    loop {
        stats.rounds += 1;
        let merged_data = group_data_parallel(&mut g, &mut s, &mut stats);
        let merged_pipe = group_pipelines(&mut g, &mut s, &mut stats);
        if !merged_data && !merged_pipe && !group_data_parallel_relaxed(&mut g, &mut s, &mut stats)
        {
            break;
        }
    }

    // Collapse to a single root. An irregular residue is wrapped as a
    // pipeline in work order, using the actual inter-block widths where
    // present.
    s.members.clear();
    s.members.extend(g.live());
    let root = match s.members[..] {
        [only] => only,
        _ => g.merge(&s.members, Pattern::Pipeline),
    };
    let root = SoftBlockId(g.nodes[root as usize].block as usize);

    Ok(Decomposition {
        tree: SoftBlockTree::new(g.arena, root),
        control_resources,
        stats,
    })
}

/// The decomposer's working graph for steps 3-5: the soft-block arena
/// under construction plus one node per block-graph node (same ids; the
/// control path's are dead from the start) and one per merge.
///
/// Adjacency lives in one pool of [`Link`]s: each node owns a sorted run
/// for its readers and one for the nodes feeding it, filled once from the block
/// graph's edges. Only [`WorkGraph::merge`] rewires it: the members die,
/// the new node's runs are appended to the pool, and each outside
/// neighbor's run is compacted in place (its links to the members become
/// one link to the new node, which has the largest id, so runs stay
/// sorted and never grow). Edges only ever join two live nodes, and there
/// are no self edges (the block graph has none and a merge drops
/// intra-group edges).
struct WorkGraph {
    arena: Vec<SoftBlock>,
    nodes: Vec<WorkNode>,
    pool: Vec<Link>,
    /// Links in the pool when it was filled: a bound on the live links.
    links: usize,
    /// Last group stamp handed out by [`WorkGraph::stamp`].
    stamp: u32,
}

#[derive(Debug, Clone, Copy, Default)]
struct WorkNode {
    /// Arena index of this node's block.
    block: u32,
    /// Structural content hash: equal hashes mean interchangeable blocks
    /// (the equivalence the data-parallel pattern requires).
    hash: u64,
    /// Readers of this node's outputs, by ascending id.
    out: Span,
    /// Nodes feeding this node's inputs, by ascending id.
    inc: Span,
    alive: bool,
    /// Step 2's lane count of a block-graph node.
    lanes: u32,
    /// The stamp of the hash group being examined, if this is a member.
    mark: u32,
}

/// A neighbor and the bits exchanged with it in one direction.
#[derive(Debug, Clone, Copy, Default)]
struct Link {
    node: u32,
    bits: u64,
}

/// A run of the link pool.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    fn range(self) -> Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

impl WorkGraph {
    /// Splits the block graph into control resources and the data path's
    /// working graph (steps 1 and 2), with every buffer sized up front.
    fn build(
        graph: &BlockGraph<'_>,
        ctrl_instance: &str,
        options: &DecomposeOptions,
        leaf_resources: &dyn Fn(&FlatNode) -> ResourceVec,
        stats: &mut DecomposeStats,
    ) -> Result<(WorkGraph, ResourceVec), CoreError> {
        let n = graph.node_count();
        // Every merge kills at least two nodes and adds one.
        let mut nodes = Vec::with_capacity(2 * n);
        // Classify first, to size the arena.
        let mut blocks = 0;
        for id in 0..n as u32 {
            let node = graph.node(id);
            // The control instance itself or anything under `{ctrl_instance}/`.
            let in_ctrl = node
                .path
                .strip_prefix(ctrl_instance)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with('/'));
            if in_ctrl || options.move_to_control.iter().any(|m| m == node.module) {
                nodes.push(WorkNode::default());
                continue;
            }
            let lanes = node
                .behavior
                .and_then(|b| options.intra_parallelism.get(b).copied())
                .unwrap_or(1);
            blocks += if lanes > 1 { lanes + 1 } else { 1 };
            nodes.push(WorkNode {
                alive: true,
                lanes: u32::try_from(lanes).expect("no design splits a leaf into 2^32 lanes"),
                ..WorkNode::default()
            });
        }
        let data = nodes.iter().filter(|w| w.alive).count();
        if data == 0 {
            return Err(CoreError::EmptyDataPath);
        }

        // Step 1's leaves and step 2's lane splits; strings are built only
        // for the leaves of the output tree, each at its exact length.
        let mut arena = Vec::with_capacity(blocks + data - 1);
        let mut control_resources = ResourceVec::ZERO;
        for (id, w) in nodes.iter_mut().enumerate() {
            let node = graph.node(id as u32);
            let res = leaf_resources(&node);
            if !w.alive {
                control_resources += res;
                stats.control_leaves += 1;
                continue;
            }
            let lanes = w.lanes as usize;
            if lanes > 1 {
                // Step 2: split the leaf into `lanes` identical lane blocks
                // under a data-parallel parent. The parent keeps the leaf's
                // estimate rather than the sum of the rounded-up lanes.
                let lane_res = res.div_ceil(lanes as u64);
                let first = arena.len();
                for l in 0..lanes {
                    let leaf = SoftBlockKind::Leaf {
                        path: lane_path(node.path, l),
                        module: node.module.to_owned(),
                        behavior: node.behavior.map(|b| [b, "_lane"].concat()),
                    };
                    push_block(&mut arena, leaf, lane_res);
                }
                stats.data_leaves += lanes;
                stats.data_groups += 1;
                let behavior = node.behavior.unwrap_or_default();
                let lane_hash = fnv(hash_str(behavior), b"/lane");
                let kind = SoftBlockKind::Composite {
                    pattern: Pattern::Data,
                    children: (first..first + lanes).map(SoftBlockId).collect(),
                    link_widths: vec![],
                };
                w.hash = hash_composite("data", [lane_hash], lanes as u64);
                w.block = push_block(&mut arena, kind, res).0 as u32;
            } else {
                stats.data_leaves += 1;
                w.hash = hash_leaf(node.module, node.behavior);
                let kind = SoftBlockKind::Leaf {
                    path: node.path.to_owned(),
                    module: node.module.to_owned(),
                    behavior: node.behavior.map(str::to_owned),
                };
                w.block = push_block(&mut arena, kind, res).0 as u32;
            }
        }

        let (pool, links) = link_runs(graph, &mut nodes);
        let g = WorkGraph {
            arena,
            nodes,
            pool,
            links,
            stamp: 0,
        };
        Ok((g, control_resources))
    }

    fn out(&self, i: u32) -> &[Link] {
        &self.pool[self.nodes[i as usize].out.range()]
    }

    fn inc(&self, i: u32) -> &[Link] {
        &self.pool[self.nodes[i as usize].inc.range()]
    }

    fn alive(&self, i: u32) -> bool {
        self.nodes[i as usize].alive
    }

    fn hash(&self, i: u32) -> u64 {
        self.nodes[i as usize].hash
    }

    /// Live node ids, ascending.
    fn live(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.nodes.len() as u32).filter(|&i| self.alive(i))
    }

    /// Neighbors as `(neighbor, bits, outgoing)` triples; a neighbor that
    /// both drives and reads this node appears once per direction.
    fn neighbors(&self, i: u32) -> impl Iterator<Item = (u32, u64, bool)> + '_ {
        let out = self.out(i).iter().map(|l| (l.node, l.bits, true));
        out.chain(self.inc(i).iter().map(|l| (l.node, l.bits, false)))
    }

    /// Whether `a` drives `b`.
    fn drives(&self, a: u32, b: u32) -> bool {
        self.out(a).binary_search_by_key(&b, |l| l.node).is_ok()
    }

    /// Bits exchanged between `a` and `b` in either direction.
    fn bits_with(&self, a: u32, b: u32) -> u64 {
        let bits = |run: &[Link]| {
            run.binary_search_by_key(&b, |l| l.node)
                .map_or(0, |k| run[k].bits)
        };
        bits(self.out(a)) + bits(self.inc(a))
    }

    /// Marks `members` as one group under a fresh stamp; returns it.
    fn stamp(&mut self, members: impl Iterator<Item = u32>) -> u32 {
        self.stamp += 1;
        for m in members {
            self.nodes[m as usize].mark = self.stamp;
        }
        self.stamp
    }

    /// Groups the live nodes `members` (in child order) under one new
    /// composite block and rewires the graph: the members die, edges among
    /// them vanish (artifacts of shared broadcast nets) and each outside
    /// neighbor's edges are summed onto the new node. Pipeline link widths
    /// are the bits between consecutive members in both directions.
    /// Returns the new node's id.
    fn merge(&mut self, members: &[u32], pattern: Pattern) -> u32 {
        let children: Vec<SoftBlockId> = members
            .iter()
            .map(|&m| SoftBlockId(self.nodes[m as usize].block as usize))
            .collect();
        let resources = children.iter().map(|c| self.arena[c.0].resources).sum();
        let (link_widths, hash) = match pattern {
            Pattern::Data => {
                let count = members.len() as u64;
                (
                    vec![],
                    hash_composite("data", [self.hash(members[0])], count),
                )
            }
            Pattern::Pipeline => (
                members
                    .windows(2)
                    .map(|w| self.bits_with(w[0], w[1]))
                    .collect(),
                hash_composite("pipe", members.iter().map(|&m| self.hash(m)), 0),
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
            self.nodes[m as usize].alive = false;
        }
        let new = self.nodes.len() as u32;
        let out = self.gather(members, true, new);
        let inc = self.gather(members, false, new);
        self.nodes.push(WorkNode {
            block: block.0 as u32,
            hash,
            out,
            inc,
            alive: true,
            ..WorkNode::default()
        });
        new
    }

    /// Sums the dead `members`' links in one direction to live nodes into
    /// a new run at the end of the pool, and replaces each such neighbor's
    /// links back to the members by one link to `new`.
    fn gather(&mut self, members: &[u32], outgoing: bool, new: u32) -> Span {
        let start = self.pool.len();
        for &m in members {
            let w = self.nodes[m as usize];
            let run = if outgoing { w.out } else { w.inc };
            for k in run.range() {
                // Edges join live nodes only, so a dead neighbor is a member.
                let link = self.pool[k];
                if self.alive(link.node) {
                    self.pool.push(link);
                }
            }
        }
        let run = &mut self.pool[start..];
        run.sort_unstable_by_key(|l| l.node);
        let mut len = 0;
        for k in 0..run.len() {
            if len > 0 && run[len - 1].node == run[k].node {
                run[len - 1].bits += run[k].bits;
            } else {
                run[len] = run[k];
                len += 1;
            }
        }
        self.pool.truncate(start + len);
        for k in start..start + len {
            let Link { node, bits } = self.pool[k];
            let w = self.nodes[node as usize];
            let back = if outgoing { w.inc } else { w.out };
            let mut kept = back.start as usize;
            for j in back.range() {
                let link = self.pool[j];
                if self.alive(link.node) {
                    self.pool[kept] = link;
                    kept += 1;
                }
            }
            self.pool[kept] = Link { node: new, bits };
            let len = (kept + 1) as u32 - back.start;
            let w = &mut self.nodes[node as usize];
            if outgoing {
                w.inc.len = len;
            } else {
                w.out.len = len;
            }
        }
        Span {
            start: start as u32,
            len: len as u32,
        }
    }
}

/// The data path's adjacency, built once: counts each live node's links
/// from the block graph's edges, lays the runs out in one pool, then
/// fills them. The edges come sorted by `(from, to)`, so every run is
/// sorted too. Returns the pool and its link count.
fn link_runs(graph: &BlockGraph<'_>, nodes: &mut [WorkNode]) -> (Vec<Link>, usize) {
    let is_data = |nodes: &[WorkNode], e: &BlockEdge| {
        nodes[e.from as usize].alive && nodes[e.to as usize].alive
    };
    for e in graph.edges() {
        if is_data(nodes, e) {
            nodes[e.from as usize].out.len += 1;
            nodes[e.to as usize].inc.len += 1;
        }
    }
    let mut links = 0;
    for w in nodes.iter_mut() {
        w.out.start = links;
        w.inc.start = links + w.out.len;
        links = w.inc.start + w.inc.len;
        w.out.len = 0;
        w.inc.len = 0;
    }
    // Merges append the new nodes' runs. Twice the block graph's links is a
    // capacity hint, not a bound: nested merges copy a link once per level,
    // and a design that goes past it costs one reallocation.
    let mut pool = Vec::with_capacity(2 * links as usize);
    pool.resize(links as usize, Link::default());
    for e in graph.edges() {
        if is_data(nodes, e) {
            let out = &mut nodes[e.from as usize].out;
            pool[(out.start + out.len) as usize] = Link {
                node: e.to,
                bits: e.width,
            };
            out.len += 1;
            let inc = &mut nodes[e.to as usize].inc;
            pool[(inc.start + inc.len) as usize] = Link {
                node: e.from,
                bits: e.width,
            };
            inc.len += 1;
        }
    }
    (pool, links as usize)
}

/// Buffers the grouping steps reuse across rounds, each allocated once.
struct GroupBuffers {
    /// The live nodes of one pass, grouped by hash.
    live: Vec<Live>,
    /// Step 3's external connection signatures, one run per member.
    sigs: Vec<(u32, u64, bool)>,
    /// The relaxed step's neighbor classes, one run per member.
    classes: Vec<(u64, bool, u32)>,
    /// Step 4's per-node chain view.
    path: Vec<PathNode>,
    /// The nodes about to merge (also a BFS queue and a distinct-neighbor
    /// list).
    members: Vec<u32>,
}

/// A live node in a pass's snapshot, with its run in a reused buffer.
#[derive(Debug, Clone, Copy)]
struct Live {
    hash: u64,
    node: u32,
    lo: u32,
    hi: u32,
}

impl Live {
    fn run(&self) -> Range<usize> {
        self.lo as usize..self.hi as usize
    }
}

impl GroupBuffers {
    /// Room for every node `g` can reach and for its live links, which
    /// merges never add to.
    fn new(g: &WorkGraph) -> Self {
        let nodes = g.nodes.capacity();
        GroupBuffers {
            live: Vec::with_capacity(nodes),
            sigs: Vec::with_capacity(g.links),
            classes: Vec::new(),
            path: Vec::with_capacity(nodes),
            members: Vec::with_capacity(nodes),
        }
    }

    /// Snapshots `g`'s live nodes, grouped by hash (ascending), each group
    /// in ascending id order.
    fn snapshot(&mut self, g: &WorkGraph) {
        self.live.clear();
        self.live.extend(g.live().map(|node| Live {
            hash: g.hash(node),
            node,
            lo: 0,
            hi: 0,
        }));
        self.live.sort_unstable_by_key(|l| (l.hash, l.node));
    }
}

/// Step 3: merge interchangeable siblings under data-parallel parents.
fn group_data_parallel(
    g: &mut WorkGraph,
    s: &mut GroupBuffers,
    stats: &mut DecomposeStats,
) -> bool {
    let mut merged_any = false;
    s.snapshot(g);
    for group in s.live.chunk_by_mut(|a, b| a.hash == b.hash) {
        if group.len() < 2 {
            continue;
        }
        // Sub-partition by external connection signature: the sorted list
        // of (neighbor, width, direction) triples over neighbors outside
        // the hash group. Direction matters: an identical block feeding a
        // consumer is not interchangeable with one reading from it.
        let stamp = g.stamp(group.iter().map(|l| l.node));
        s.sigs.clear();
        for member in group.iter_mut() {
            let lo = s.sigs.len();
            let outside = g
                .neighbors(member.node)
                .filter(|&(n, _, _)| g.nodes[n as usize].mark != stamp);
            s.sigs.extend(outside);
            s.sigs[lo..].sort_unstable();
            member.lo = lo as u32;
            member.hi = s.sigs.len() as u32;
        }
        let sigs = &s.sigs;
        group.sort_unstable_by(|a, b| sigs[a.run()].cmp(&sigs[b.run()]).then(a.node.cmp(&b.node)));
        for same in group.chunk_by(|a, b| sigs[a.run()] == sigs[b.run()]) {
            if same.len() < 2 {
                continue;
            }
            merged_any = true;
            stats.data_groups += 1;
            s.members.clear();
            s.members.extend(same.iter().map(|l| l.node));
            g.merge(&s.members, Pattern::Data);
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
fn group_data_parallel_relaxed(
    g: &mut WorkGraph,
    s: &mut GroupBuffers,
    stats: &mut DecomposeStats,
) -> bool {
    s.snapshot(g);
    for group in s.live.chunk_by_mut(|a, b| a.hash == b.hash) {
        if group.len() < 2 {
            continue;
        }
        // Per member: neighbors outside the group, keyed by (neighbor
        // hash, direction), each class's neighbors ascending.
        let stamp = g.stamp(group.iter().map(|l| l.node));
        s.classes.clear();
        s.classes.reserve(g.links);
        for member in group.iter_mut() {
            let lo = s.classes.len();
            let outside = g
                .neighbors(member.node)
                .filter(|&(n, _, _)| g.nodes[n as usize].mark != stamp)
                .map(|(n, _, out)| (g.hash(n), out, n));
            s.classes.extend(outside);
            s.classes[lo..].sort_unstable();
            member.lo = lo as u32;
            member.hi = s.classes.len() as u32;
        }
        // All members must see the same classes with the same
        // multiplicity, so every member's class runs line up.
        let classes = &s.classes;
        let key = |c: &(u64, bool, u32)| (c.0, c.1);
        let first = &classes[group[0].run()];
        let consistent = group.iter().all(|m| {
            let run = &classes[m.run()];
            run.len() == first.len() && run.iter().map(key).eq(first.iter().map(key))
        });
        // Each class must be fully shared or fully disjoint.
        let mut at = 0;
        let eligible = consistent
            && first.chunk_by(|a, b| key(a) == key(b)).all(|class| {
                s.members.clear();
                for m in group.iter() {
                    let lo = m.lo as usize + at;
                    s.members
                        .extend(classes[lo..lo + class.len()].iter().map(|c| c.2));
                }
                at += class.len();
                s.members.sort_unstable();
                s.members.dedup();
                let distinct = s.members.len();
                distinct == class.len() || distinct == class.len() * group.len()
            });
        if eligible {
            stats.data_groups += 1;
            s.members.clear();
            s.members.extend(group.iter().map(|l| l.node));
            g.merge(&s.members, Pattern::Data);
            // One merge per call: the strict steps re-run first.
            return true;
        }
    }
    false
}

/// Step 4's view of one node: whether it can sit inside a chain and its
/// chain neighbors.
#[derive(Debug, Clone, Copy, Default)]
struct PathNode {
    pathable: bool,
    visited: bool,
    /// Neighbors in `adj[..len]`, ascending.
    len: u8,
    adj: [u32; 2],
}

impl PathNode {
    fn adj(&self) -> &[u32] {
        &self.adj[..self.len as usize]
    }
}

/// Step 4: merge chains under pipeline parents.
fn group_pipelines(g: &mut WorkGraph, s: &mut GroupBuffers, stats: &mut DecomposeStats) -> bool {
    let n = g.nodes.len();
    // A node can sit inside a chain iff it has one or two neighbors; branch
    // nodes (degree >= 3, e.g. a broadcast source feeding every lane) stay
    // outside so identical lanes remain identical.
    s.path.clear();
    s.path.resize(n, PathNode::default());
    for i in g.live() {
        let p = &mut s.path[i as usize];
        let mut degree = 0;
        for m in distinct_neighbors(g.out(i), g.inc(i)) {
            if degree < 2 {
                p.adj[degree] = m;
            }
            degree += 1;
            if degree > 2 {
                break;
            }
        }
        p.pathable = (1..=2).contains(&degree);
        p.len = degree.min(2) as u8;
    }
    // Keep only pathable neighbors of pathable nodes.
    for i in 0..n {
        let p = s.path[i];
        let mut kept = PathNode {
            pathable: p.pathable,
            ..PathNode::default()
        };
        if p.pathable {
            for &j in p.adj() {
                if s.path[j as usize].pathable {
                    kept.adj[kept.len as usize] = j;
                    kept.len += 1;
                }
            }
        }
        s.path[i] = kept;
    }

    // Chains are disjoint and found from the view above, which merges do
    // not touch, so each merges as soon as it is found.
    let mut merged_any = false;
    for start in 0..n {
        if !s.path[start].pathable || s.path[start].visited {
            continue;
        }
        // Collect the connected component of pathable nodes.
        s.members.clear();
        s.members.push(start as u32);
        s.path[start].visited = true;
        let mut head = 0;
        while head < s.members.len() {
            let cur = s.path[s.members[head] as usize];
            head += 1;
            for &next in cur.adj() {
                if !s.path[next as usize].visited {
                    s.path[next as usize].visited = true;
                    s.members.push(next);
                }
            }
        }
        // A component where every node has two pathable neighbors is a
        // cycle; skip it (no linear pipeline exists).
        let Some(&endpoint) = s.members.iter().find(|&&i| s.path[i as usize].len <= 1) else {
            continue;
        };
        // Walk the path from the endpoint.
        s.members.clear();
        s.members.push(endpoint);
        let mut prev = u32::MAX;
        let mut cur = endpoint;
        while let Some(&next) = s.path[cur as usize].adj().iter().find(|&&x| x != prev) {
            prev = cur;
            cur = next;
            s.members.push(cur);
        }
        if s.members.len() < 2 {
            continue;
        }
        merged_any = true;
        stats.pipeline_groups += 1;
        // Orient the chain along the dataflow direction: count forward vs
        // backward directed edges and flip if the flow runs the other way.
        let chain = &mut s.members;
        let forward = chain.windows(2).filter(|w| g.drives(w[0], w[1])).count();
        let backward = chain.windows(2).filter(|w| g.drives(w[1], w[0])).count();
        if backward > forward {
            chain.reverse();
        }
        g.merge(chain, Pattern::Pipeline);
    }
    merged_any
}

/// The union of two ascending runs' neighbors, ascending and without
/// repeats.
fn distinct_neighbors<'r>(a: &'r [Link], b: &'r [Link]) -> impl Iterator<Item = u32> + 'r {
    let (mut i, mut j) = (0, 0);
    std::iter::from_fn(move || {
        let next = match (a.get(i), b.get(j)) {
            (Some(x), Some(y)) if x.node == y.node => {
                i += 1;
                j += 1;
                x.node
            }
            (Some(x), Some(y)) if x.node < y.node => {
                i += 1;
                x.node
            }
            (_, Some(y)) => {
                j += 1;
                y.node
            }
            (Some(x), None) => {
                i += 1;
                x.node
            }
            (None, None) => return None,
        };
        Some(next)
    })
}

/// `{path}/lane{l}`, allocated at its exact length.
fn lane_path(path: &str, l: usize) -> String {
    let digits = l.checked_ilog10().map_or(1, |d| d as usize + 1);
    let mut out = String::with_capacity(path.len() + "/lane".len() + digits);
    write!(out, "{path}/lane{l}").expect("writing to a String cannot fail");
    out
}

/// Continues an FNV-1a hash `h` over `bytes`: hashing a string in pieces
/// gives the hash of their concatenation.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn hash_str(s: &str) -> u64 {
    fnv(0xcbf2_9ce4_8422_2325, s.as_bytes())
}

/// The hash of `leaf:{behavior}`, or of `leaf-module:{module}` for an
/// untagged leaf.
fn hash_leaf(module: &str, behavior: Option<&str>) -> u64 {
    match behavior {
        Some(b) => fnv(hash_str("leaf:"), b.as_bytes()),
        None => fnv(hash_str("leaf-module:"), module.as_bytes()),
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
    fn exponential_hierarchy_is_an_rtl_error() {
        // Each level instantiates the one below twice: 2^64 leaves under
        // `top`, from a few kilobytes of source.
        let mut src = String::from(
            "module ctrl #(behavior=\"seq\") (input [7:0] x); endmodule\n\
             module l0 #(behavior=\"mac\") (input [7:0] x); endmodule\n",
        );
        for level in 1..=64 {
            let below = level - 1;
            src.push_str(&format!(
                "module l{level} (input [7:0] x); l{below} a (.x(x)); l{below} b (.x(x)); endmodule\n"
            ));
        }
        src.push_str("module top (input [7:0] x); ctrl c (.x(x)); l64 d (.x(x)); endmodule\n");
        let design = parse(&src).unwrap();
        let opts = DecomposeOptions::new("ctrl");
        let err = decompose(&design, "top", &opts, &unit_resources).unwrap_err();
        assert_eq!(
            err,
            CoreError::Rtl(vfpga_rtl::RtlError::HierarchyTooLarge("top".into()))
        );
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
