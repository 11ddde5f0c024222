//! Golden models of the dependency graph, the overlap scheduler, the
//! decomposer, the telemetry rollups and the JSON writer.
//!
//! [`ReferenceGraph::build`] is the original hash-map construction of
//! `vfpga_isa::DepGraph`: one map per hazard table, every edge collected
//! into one list, then a global `(from, to)` sort and dedup. The fast
//! graph builds the same facts in one CSR pass. [`reference_reorder`] is
//! the original `BTreeSet` list scheduler behind
//! `vfpga_core::scaleout::reorder_for_overlap`. [`reference_decompose`] is
//! the bottom-up decomposer on owned strings and per-node `BTreeMap`
//! adjacency, as it stood before `vfpga_core::decompose` moved to dense
//! ids and CSR adjacency. [`ReferenceRollupSet`] is
//! the original `vfpga_sim::RollupSet`: one `BTreeMap` entry per
//! `(key, window)` cell, with an owned key per record. [`reference_pretty`]
//! and [`reference_compact`] are the original `Json` writer, which
//! allocated each pretty line's indentation and escaped strings one char
//! at a time. All are deliberately kept naive and slow so they can serve
//! as the oracle the optimized versions are checked against.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write as _;

use vfpga_accel::{RemoteAccess, RemoteWindow};
use vfpga_core::{
    CoreError, DecomposeOptions, DecomposeStats, Decomposition, Pattern, SoftBlock, SoftBlockId,
    SoftBlockKind, SoftBlockTree,
};
use vfpga_fabric::ResourceVec;
use vfpga_isa::{DepEdge, DepKind, Instruction, Program};
use vfpga_rtl::{Design, FlatNode};
use vfpga_sim::{Json, QuantileSketch, RollupKey, SimTime, WindowStats};

/// A dependency graph built the straightforward way.
pub struct ReferenceGraph {
    /// Every edge, sorted by `(from, to)` and deduplicated.
    pub edges: Vec<DepEdge>,
    /// Sorted, deduplicated predecessors of each instruction.
    pub preds: Vec<Vec<usize>>,
    /// Sorted, deduplicated successors of each instruction.
    pub succs: Vec<Vec<usize>>,
}

impl ReferenceGraph {
    /// Builds the graph with the same hazard rules as `DepGraph::build`,
    /// including the two-sided `halt` barrier.
    pub fn build(insts: &[Instruction]) -> Self {
        let mut edges = Vec::new();
        // Register hazards.
        let mut last_def: HashMap<u8, usize> = HashMap::new();
        let mut uses_since_def: HashMap<u8, Vec<usize>> = HashMap::new();
        // Memory hazards, exact per slot.
        let mut last_store: HashMap<u32, usize> = HashMap::new();
        let mut loads_since_store: HashMap<u32, Vec<usize>> = HashMap::new();
        let mut last_halt = None;

        for (i, inst) in insts.iter().enumerate() {
            if matches!(inst, Instruction::Halt) {
                for j in 0..i {
                    edges.push(DepEdge {
                        from: j,
                        to: i,
                        kind: DepKind::Control,
                    });
                }
                last_halt = Some(i);
                continue;
            }
            if let Some(h) = last_halt {
                edges.push(DepEdge {
                    from: h,
                    to: i,
                    kind: DepKind::Control,
                });
            }
            for r in inst.uses() {
                if let Some(&d) = last_def.get(&r.0) {
                    edges.push(DepEdge {
                        from: d,
                        to: i,
                        kind: DepKind::Raw,
                    });
                }
            }
            if let Some(addr) = inst.mem_read() {
                if let Some(&s) = last_store.get(&addr) {
                    edges.push(DepEdge {
                        from: s,
                        to: i,
                        kind: DepKind::Mem,
                    });
                }
                loads_since_store.entry(addr).or_default().push(i);
            }
            if let Some(addr) = inst.mem_write() {
                if let Some(loads) = loads_since_store.get(&addr) {
                    for &l in loads {
                        edges.push(DepEdge {
                            from: l,
                            to: i,
                            kind: DepKind::Mem,
                        });
                    }
                }
                if let Some(&s) = last_store.get(&addr) {
                    edges.push(DepEdge {
                        from: s,
                        to: i,
                        kind: DepKind::Mem,
                    });
                }
                last_store.insert(addr, i);
                loads_since_store.insert(addr, Vec::new());
            }
            if let Some(d) = inst.defs() {
                if let Some(readers) = uses_since_def.get(&d.0) {
                    for &r in readers {
                        if r != i {
                            edges.push(DepEdge {
                                from: r,
                                to: i,
                                kind: DepKind::War,
                            });
                        }
                    }
                }
                if let Some(&prev) = last_def.get(&d.0) {
                    edges.push(DepEdge {
                        from: prev,
                        to: i,
                        kind: DepKind::Waw,
                    });
                }
                last_def.insert(d.0, i);
                uses_since_def.insert(d.0, Vec::new());
            }
            for r in inst.uses() {
                uses_since_def.entry(r.0).or_default().push(i);
            }
        }

        edges.sort_by_key(|e| (e.from, e.to));
        edges.dedup_by_key(|e| (e.from, e.to, e.kind));

        let mut preds = vec![Vec::new(); insts.len()];
        let mut succs = vec![Vec::new(); insts.len()];
        for e in &edges {
            preds[e.to].push(e.from);
            succs[e.from].push(e.to);
        }
        for v in preds.iter_mut().chain(succs.iter_mut()) {
            v.sort_unstable();
            v.dedup();
        }
        ReferenceGraph {
            edges,
            preds,
            succs,
        }
    }
}

/// The scheduling priority class of an instruction under a window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CommClass {
    Send,
    Compute,
    Recv,
}

fn comm_class(inst: &Instruction, window: &RemoteWindow) -> CommClass {
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

/// The overlap schedule `reorder_for_overlap` must produce, computed on a
/// [`ReferenceGraph`] with a `BTreeSet` ready set and checked against the
/// same graph's edge list.
pub fn reference_reorder(program: &Program, window: &RemoteWindow) -> Result<Program, String> {
    let graph = ReferenceGraph::build(program.instructions());
    let n = program.len();

    let mut key: Vec<i64> = (0..n).map(|i| 2 * i as i64).collect();
    for i in 0..n {
        match comm_class(&program[i], window) {
            CommClass::Send => {
                let after = graph.preds[i].iter().map(|&p| 2 * p as i64).max();
                if let Some(a) = after {
                    key[i] = a + 1;
                }
            }
            CommClass::Recv => {
                let before = graph.succs[i].iter().map(|&s| 2 * s as i64).min();
                if let Some(b) = before {
                    key[i] = b - 1;
                }
            }
            CommClass::Compute => {}
        }
    }
    let mut indegree: Vec<usize> = graph.preds.iter().map(Vec::len).collect();
    let mut ready: BTreeSet<(i64, usize)> = (0..n)
        .filter(|&i| indegree[i] == 0)
        .map(|i| (key[i], i))
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(&(k, i)) = ready.iter().next() {
        ready.remove(&(k, i));
        order.push(i);
        for &s in &graph.succs[i] {
            indegree[s] -= 1;
            if indegree[s] == 0 {
                ready.insert((key[s], s));
            }
        }
    }

    let mut position = vec![usize::MAX; n];
    for (pos, &idx) in order.iter().enumerate() {
        position[idx] = pos;
    }
    if order.len() != n
        || graph
            .edges
            .iter()
            .any(|e| position[e.from] >= position[e.to])
    {
        return Err("reordering violates dependencies".into());
    }
    Ok(order.iter().map(|&i| program[i]).collect())
}

fn empty_stats(alpha: f64) -> WindowStats {
    WindowStats {
        arrivals: 0,
        completions: 0,
        migrations: 0,
        retransmits: 0,
        retransmit_bytes: 0,
        latency: QuantileSketch::new(alpha),
        queue_wait: QuantileSketch::new(alpha),
        occupancy_sum: 0.0,
        occupancy_samples: 0,
        truncated: false,
    }
}

fn merge_stats(into: &mut WindowStats, other: &WindowStats) {
    into.arrivals += other.arrivals;
    into.completions += other.completions;
    into.migrations += other.migrations;
    into.retransmits += other.retransmits;
    into.retransmit_bytes += other.retransmit_bytes;
    into.latency.merge(&other.latency);
    into.queue_wait.merge(&other.queue_wait);
    into.occupancy_sum += other.occupancy_sum;
    into.occupancy_samples += other.occupancy_samples;
    into.truncated |= other.truncated;
}

/// One window's row of the rollup artifact, exactly as `RollupSet`
/// serializes it.
pub fn rollup_row(key: &RollupKey, idx: u64, window_s: f64, stats: &WindowStats) -> Json {
    let mut row = Json::obj()
        .with("key", key.label())
        .with("window", idx)
        .with("start_s", idx as f64 * window_s)
        .with("arrivals", stats.arrivals)
        .with("completions", stats.completions)
        .with("migrations", stats.migrations)
        .with("retransmits", stats.retransmits)
        .with("retransmit_bytes", stats.retransmit_bytes)
        .with("latency", stats.latency.digest_json())
        .with("queue_wait", stats.queue_wait.digest_json())
        .with("occupancy_mean", stats.occupancy_mean());
    if stats.truncated {
        row = row.with("truncated", true);
    }
    row
}

/// Tumbling-window rollups stored one map entry per `(key, window)` cell.
pub struct ReferenceRollupSet {
    window: SimTime,
    alpha: f64,
    cells: BTreeMap<(RollupKey, u64), WindowStats>,
}

impl ReferenceRollupSet {
    /// An empty set with the given window length and sketch error.
    pub fn new(window: SimTime, alpha: f64) -> Self {
        ReferenceRollupSet {
            window,
            alpha,
            cells: BTreeMap::new(),
        }
    }

    fn cell(&mut self, key: RollupKey, at: SimTime) -> &mut WindowStats {
        let idx = at.as_ps() / self.window.as_ps();
        let alpha = self.alpha;
        self.cells
            .entry((key, idx))
            .or_insert_with(|| empty_stats(alpha))
    }

    /// Records a task arrival.
    pub fn record_arrival(&mut self, key: RollupKey, at: SimTime) {
        self.cell(key, at).arrivals += 1;
    }

    /// Records a completion with its end-to-end latency.
    pub fn record_completion(&mut self, key: RollupKey, at: SimTime, latency: SimTime) {
        let cell = self.cell(key, at);
        cell.completions += 1;
        cell.latency.record(latency);
    }

    /// Records a queue wait that ended at `at`.
    pub fn record_queue_wait(&mut self, key: RollupKey, at: SimTime, wait: SimTime) {
        self.cell(key, at).queue_wait.record(wait);
    }

    /// Records a migration.
    pub fn record_migration(&mut self, key: RollupKey, at: SimTime) {
        self.cell(key, at).migrations += 1;
    }

    /// Records one retransmitted transfer of `bytes`.
    pub fn record_retransmit(&mut self, key: RollupKey, at: SimTime, bytes: u64) {
        let cell = self.cell(key, at);
        cell.retransmits += 1;
        cell.retransmit_bytes += bytes;
    }

    /// Records an occupancy observation.
    pub fn record_occupancy(&mut self, key: RollupKey, at: SimTime, fraction: f64) {
        let cell = self.cell(key, at);
        cell.occupancy_sum += fraction;
        cell.occupancy_samples += 1;
    }

    /// Marks every cell whose window starts before `oldest_retained`;
    /// returns how many were newly marked.
    pub fn mark_truncated_before(&mut self, oldest_retained: SimTime) -> usize {
        let mut marked = 0;
        for ((_, idx), cell) in self.cells.iter_mut() {
            if *idx * self.window.as_ps() < oldest_retained.as_ps() && !cell.truncated {
                cell.truncated = true;
                marked += 1;
            }
        }
        marked
    }

    /// Number of populated cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// The windows of `key` in window order.
    pub fn series_for(&self, key: &RollupKey) -> Vec<(u64, &WindowStats)> {
        self.cells
            .iter()
            .filter(|((k, _), _)| k == key)
            .map(|((_, i), s)| (*i, s))
            .collect()
    }

    /// The distinct keys present, in order.
    pub fn keys(&self) -> Vec<RollupKey> {
        let mut keys: Vec<RollupKey> = Vec::new();
        for (k, _) in self.cells.keys() {
            if keys.last() != Some(k) {
                keys.push(k.clone());
            }
        }
        keys
    }

    /// Folds every `factor` consecutive windows into one.
    pub fn merged(&self, factor: u64) -> ReferenceRollupSet {
        let mut out =
            ReferenceRollupSet::new(SimTime::from_ps(self.window.as_ps() * factor), self.alpha);
        for ((key, idx), stats) in &self.cells {
            let cell = out
                .cells
                .entry((key.clone(), idx / factor))
                .or_insert_with(|| empty_stats(self.alpha));
            merge_stats(cell, stats);
        }
        out
    }

    /// The rollup artifact section.
    pub fn to_json(&self) -> Json {
        let window_s = self.window.as_secs();
        let rows = self
            .cells
            .iter()
            .map(|((key, idx), stats)| rollup_row(key, *idx, window_s, stats))
            .collect();
        Json::obj()
            .with("window_s", window_s)
            .with("alpha", self.alpha)
            .with("windows", Json::Arr(rows))
    }
}

/// `doc` serialized with two-space indentation and a trailing newline.
pub fn reference_pretty(doc: &Json) -> String {
    let mut out = String::new();
    reference_write(doc, &mut out, 0);
    out.push('\n');
    out
}

/// `doc` serialized compactly.
pub fn reference_compact(doc: &Json) -> String {
    let mut out = String::new();
    reference_write(doc, &mut out, usize::MAX);
    out
}

fn reference_write(doc: &Json, out: &mut String, indent: usize) {
    let compact = indent == usize::MAX;
    match doc {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(x) => {
            if x.is_finite() {
                if *x == x.trunc() && x.abs() < 1e15 {
                    let _ = write!(out, "{}", *x as i64);
                } else {
                    let _ = write!(out, "{x}");
                }
            } else {
                out.push_str("null");
            }
        }
        Json::Str(s) => reference_escape(s, out),
        Json::Arr(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if !compact {
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                }
                reference_write(item, out, if compact { indent } else { indent + 1 });
            }
            if !compact {
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
            }
            out.push(']');
        }
        Json::Obj(pairs) => {
            if pairs.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if !compact {
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                }
                reference_escape(k, out);
                out.push(':');
                if !compact {
                    out.push(' ');
                }
                reference_write(v, out, if compact { indent } else { indent + 1 });
            }
            if !compact {
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
            }
            out.push('}');
        }
    }
}

fn reference_escape(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The bottom-up decomposer as it stood before its working graph moved to
/// dense ids: one `BTreeMap` of neighbor to bits per node and direction
/// over [`vfpga_rtl::Design::block_graph`]'s nodes and edges, a
/// `live_by_hash` map rebuilt per grouping pass, and the pipeline step's
/// per-node neighbor `Vec`s. `vfpga_core::decompose` must produce the same
/// tree, arena ids, resources, leaves, link widths and statistics.
pub fn reference_decompose(
    design: &Design,
    top: &str,
    options: &DecomposeOptions,
    leaf_resources: &dyn Fn(&FlatNode) -> ResourceVec,
) -> Result<Decomposition, CoreError> {
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

    let graph = design.block_graph(top)?;
    let mut control_resources = ResourceVec::ZERO;
    let mut stats = DecomposeStats::default();
    let mut g = RefGraph::default();
    let mut index_of: Vec<Option<usize>> = vec![None; graph.node_count()];
    for (node_id, index) in index_of.iter_mut().enumerate() {
        let node = graph.node(node_id as u32);
        let res = leaf_resources(&node);
        let in_ctrl = node
            .path
            .strip_prefix(ctrl_instance)
            .is_some_and(|rest| rest.is_empty() || rest.starts_with('/'));
        if in_ctrl || options.move_to_control.iter().any(|m| m == node.module) {
            control_resources += res;
            stats.control_leaves += 1;
            continue;
        }
        let lanes = node
            .behavior
            .and_then(|b| options.intra_parallelism.get(b).copied())
            .unwrap_or(1);
        let (block, hash) = if lanes > 1 {
            let lane_res = res.div_ceil(lanes as u64);
            let children: Vec<SoftBlockId> = (0..lanes)
                .map(|l| {
                    ref_push(
                        &mut g.arena,
                        SoftBlockKind::Leaf {
                            path: format!("{}/lane{l}", node.path),
                            module: node.module.to_string(),
                            behavior: node.behavior.map(|b| format!("{b}_lane")),
                        },
                        lane_res,
                    )
                })
                .collect();
            stats.data_leaves += lanes;
            stats.data_groups += 1;
            let behavior = node.behavior.unwrap_or_default();
            let lane_hash = ref_fnv(ref_hash_str(behavior), b"/lane");
            let kind = SoftBlockKind::Composite {
                pattern: Pattern::Data,
                children,
                link_widths: vec![],
            };
            let hash = ref_hash_composite("data", [lane_hash], lanes as u64);
            (ref_push(&mut g.arena, kind, res), hash)
        } else {
            stats.data_leaves += 1;
            let kind = SoftBlockKind::Leaf {
                path: node.path.to_string(),
                module: node.module.to_string(),
                behavior: node.behavior.map(str::to_string),
            };
            let hash = match node.behavior {
                Some(b) => ref_fnv(ref_hash_str("leaf:"), b.as_bytes()),
                None => ref_fnv(ref_hash_str("leaf-module:"), node.module.as_bytes()),
            };
            (ref_push(&mut g.arena, kind, res), hash)
        };
        *index = Some(g.nodes.len());
        g.nodes.push(RefNode {
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
        if let (Some(a), Some(b)) = (index_of[e.from as usize], index_of[e.to as usize]) {
            *g.nodes[a].out.entry(b).or_insert(0) += e.width;
            *g.nodes[b].inc.entry(a).or_insert(0) += e.width;
        }
    }

    loop {
        stats.rounds += 1;
        let merged_data = ref_group_data_parallel(&mut g, &mut stats);
        let merged_pipe = ref_group_pipelines(&mut g, &mut stats);
        if !merged_data && !merged_pipe && !ref_group_data_parallel_relaxed(&mut g, &mut stats) {
            break;
        }
    }

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

fn ref_push(
    arena: &mut Vec<SoftBlock>,
    kind: SoftBlockKind,
    resources: ResourceVec,
) -> SoftBlockId {
    let id = SoftBlockId(arena.len());
    arena.push(SoftBlock {
        id,
        kind,
        resources,
    });
    id
}

#[derive(Default)]
struct RefGraph {
    arena: Vec<SoftBlock>,
    nodes: Vec<RefNode>,
}

struct RefNode {
    block: SoftBlockId,
    hash: u64,
    alive: bool,
    out: BTreeMap<usize, u64>,
    inc: BTreeMap<usize, u64>,
}

impl RefNode {
    fn neighbors(&self) -> impl Iterator<Item = (usize, u64, bool)> + '_ {
        let out = self.out.iter().map(|(&n, &w)| (n, w, true));
        out.chain(self.inc.iter().map(|(&n, &w)| (n, w, false)))
    }

    fn bits_with(&self, other: usize) -> u64 {
        self.out.get(&other).copied().unwrap_or(0) + self.inc.get(&other).copied().unwrap_or(0)
    }
}

impl RefGraph {
    fn live_by_hash(&self) -> BTreeMap<u64, Vec<usize>> {
        let mut by_hash: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (i, n) in self.nodes.iter().enumerate() {
            if n.alive {
                by_hash.entry(n.hash).or_default().push(i);
            }
        }
        by_hash
    }

    fn merge(&mut self, members: &[usize], pattern: Pattern) -> usize {
        let nodes = &self.nodes;
        let children: Vec<SoftBlockId> = members.iter().map(|&m| nodes[m].block).collect();
        let resources = children.iter().map(|c| self.arena[c.0].resources).sum();
        let (link_widths, hash) = match pattern {
            Pattern::Data => {
                let child_hash = nodes[members[0]].hash;
                let count = members.len() as u64;
                (vec![], ref_hash_composite("data", [child_hash], count))
            }
            Pattern::Pipeline => (
                members
                    .windows(2)
                    .map(|w| nodes[w[0]].bits_with(w[1]))
                    .collect(),
                ref_hash_composite("pipe", members.iter().map(|&m| nodes[m].hash), 0),
            ),
        };
        let block = ref_push(
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
        self.nodes.push(RefNode {
            block,
            hash,
            alive: true,
            out,
            inc,
        });
        new
    }
}

fn ref_group_data_parallel(g: &mut RefGraph, stats: &mut DecomposeStats) -> bool {
    let mut merged_any = false;
    for (_, members) in g.live_by_hash() {
        if members.len() < 2 {
            continue;
        }
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

fn ref_group_data_parallel_relaxed(g: &mut RefGraph, stats: &mut DecomposeStats) -> bool {
    for (_, members) in g.live_by_hash() {
        if members.len() < 2 {
            continue;
        }
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
        let first = &per_member[0];
        let consistent = per_member.iter().all(|c| {
            c.len() == first.len()
                && c.iter()
                    .zip(first)
                    .all(|((k, v), (k0, v0))| k == k0 && v.len() == v0.len())
        });
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
            return true;
        }
    }
    false
}

fn ref_group_pipelines(g: &mut RefGraph, stats: &mut DecomposeStats) -> bool {
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
        let Some(&endpoint) = component.iter().find(|&&i| path_adj[i].len() <= 1) else {
            continue;
        };
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

fn ref_fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn ref_hash_str(s: &str) -> u64 {
    ref_fnv(0xcbf2_9ce4_8422_2325, s.as_bytes())
}

fn ref_hash_composite(kind: &str, child_hashes: impl IntoIterator<Item = u64>, count: u64) -> u64 {
    let mut h = ref_hash_str(kind);
    for c in child_hashes {
        h ^= c;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h ^= count;
    h.wrapping_mul(0x100_0000_01b3)
}
