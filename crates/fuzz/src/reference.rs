//! Golden models of the dependency graph and the overlap scheduler.
//!
//! [`ReferenceGraph::build`] is the original hash-map construction of
//! `vfpga_isa::DepGraph`: one map per hazard table, every edge collected
//! into one list, then a global `(from, to)` sort and dedup. The fast
//! graph builds the same facts in one CSR pass. [`reference_reorder`] is
//! the original `BTreeSet` list scheduler behind
//! `vfpga_core::scaleout::reorder_for_overlap`. Both are deliberately
//! kept naive and slow so they can serve as the oracle the optimized
//! versions are checked against.

use std::collections::{BTreeSet, HashMap};

use vfpga_accel::{RemoteAccess, RemoteWindow};
use vfpga_isa::{DepEdge, DepKind, Instruction, Program};

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
