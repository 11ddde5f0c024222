//! Instruction dependency analysis.
//!
//! The scale-out optimization reorders instructions "under the dependency
//! constraint to maximally overlap the communication and computation"
//! (Section 2.3). This module computes the dependency graph that constrains
//! any such reordering: register RAW/WAR/WAW hazards plus exact per-slot
//! memory ordering (DRAM addresses are static in this ISA, so alias analysis
//! is exact), and a two-sided barrier at every `halt`.
//!
//! The graph is built in one left-to-right pass. Every edge found while
//! visiting instruction `i` ends at `i`, so the edges arrive grouped by
//! target: predecessors are stored in CSR form (one flat index array plus
//! offsets) as they are found, with a parallel one-byte set of the reasons
//! ([`DepKind`]s) for each, and successors are the counting-sort transpose.
//! Building costs O(n + E) with a constant number of allocations per
//! register and memory slot touched. The reorder reads only the
//! predecessor and successor lists; [`DepGraph::edges`] expands the kind
//! sets into one [`DepEdge`] per reason on demand.

use std::collections::HashMap;

use crate::inst::Instruction;

/// The kind of a dependency edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DepKind {
    /// Read-after-write through a vector register.
    Raw,
    /// Write-after-read through a vector register.
    War,
    /// Write-after-write through a vector register.
    Waw,
    /// Ordering through a DRAM slot (load/store on the same address).
    Mem,
    /// Ordering against a `halt`: everything before it precedes it, and
    /// everything after it follows it.
    Control,
}

impl DepKind {
    /// The order in which [`DepGraph::edges`] lists the reasons for one
    /// `(from, to)` pair (the order the builder finds them in).
    const LISTED: [DepKind; 5] = [
        DepKind::Control,
        DepKind::Raw,
        DepKind::Mem,
        DepKind::War,
        DepKind::Waw,
    ];

    /// This kind's bit in a kind set.
    const fn bit(self) -> u8 {
        1 << self as u8
    }
}

/// One dependency edge: instruction `from` must execute before `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DepEdge {
    /// Earlier instruction index.
    pub from: usize,
    /// Later instruction index.
    pub to: usize,
    /// Why the order is required.
    pub kind: DepKind,
}

/// The memory ordering state of one DRAM slot.
#[derive(Debug, Default)]
struct MemSlot {
    last_store: Option<usize>,
    loads_since_store: Vec<usize>,
}

/// The dependency graph of a program: a DAG over instruction indices in
/// original program order (edges always point from lower to higher index).
#[derive(Debug, Clone)]
pub struct DepGraph {
    len: usize,
    /// `preds[pred_off[i]..pred_off[i + 1]]` are the predecessors of `i`.
    pred_off: Vec<usize>,
    preds: Vec<usize>,
    /// `kinds[k]` is the set of reasons for the edge `preds[k]` → `i`, one
    /// [`DepKind::bit`] each.
    kinds: Vec<u8>,
    /// `succs[succ_off[i]..succ_off[i + 1]]` are the successors of `i`.
    succ_off: Vec<usize>,
    succs: Vec<usize>,
}

impl DepGraph {
    /// Builds the dependency graph of an instruction sequence.
    pub fn build(insts: &[Instruction]) -> Self {
        let n = insts.len();
        let mut pred_off = Vec::with_capacity(n + 1);
        pred_off.push(0);
        let mut preds = Vec::new();
        let mut kinds = Vec::new();
        // The `(from, kind)` edges ending at the instruction being visited.
        let mut step: Vec<(usize, DepKind)> = Vec::new();
        // Register hazards, indexed by register number.
        let mut last_def: [Option<usize>; 256] = [None; 256];
        let mut uses_since_def: Vec<Vec<usize>> = vec![Vec::new(); 256];
        // Memory hazards, exact per slot.
        let mut mem: HashMap<u32, MemSlot> = HashMap::new();
        let mut last_halt = None;

        for (i, inst) in insts.iter().enumerate() {
            if matches!(inst, Instruction::Halt) {
                // A halt is a full barrier: it must stay after everything
                // before it, for control only ...
                preds.extend(0..i);
                kinds.resize(preds.len(), DepKind::Control.bit());
                pred_off.push(preds.len());
                last_halt = Some(i);
                continue;
            }
            let mut edge = |from, kind| step.push((from, kind));
            // ... and before everything after it.
            if let Some(h) = last_halt {
                edge(h, DepKind::Control);
            }
            for r in inst.uses() {
                if let Some(d) = last_def[usize::from(r.0)] {
                    edge(d, DepKind::Raw);
                }
            }
            if let Some(addr) = inst.mem_read() {
                let slot = mem.entry(addr).or_default();
                if let Some(s) = slot.last_store {
                    edge(s, DepKind::Mem);
                }
                slot.loads_since_store.push(i);
            }
            if let Some(addr) = inst.mem_write() {
                let slot = mem.entry(addr).or_default();
                for &l in &slot.loads_since_store {
                    edge(l, DepKind::Mem);
                }
                if let Some(s) = slot.last_store {
                    edge(s, DepKind::Mem);
                }
                slot.last_store = Some(i);
                slot.loads_since_store.clear();
            }
            if let Some(d) = inst.defs() {
                let d = usize::from(d.0);
                for &r in &uses_since_def[d] {
                    if r != i {
                        edge(r, DepKind::War);
                    }
                }
                if let Some(prev) = last_def[d] {
                    edge(prev, DepKind::Waw);
                }
                last_def[d] = Some(i);
                uses_since_def[d].clear();
            }
            // Record uses after handling the def so `vadd v1, v1, v2`
            // does not produce a spurious WAR on itself.
            for r in inst.uses() {
                uses_since_def[usize::from(r.0)].push(i);
            }

            // Group this step's edges by source; the reasons for one
            // source fold into its kind set.
            step.sort_unstable_by_key(|&(from, _)| from);
            for &(from, kind) in &step {
                if preds.len() == pred_off[i] || preds.last() != Some(&from) {
                    preds.push(from);
                    kinds.push(0);
                }
                if let Some(set) = kinds.last_mut() {
                    *set |= kind.bit();
                }
            }
            pred_off.push(preds.len());
            step.clear();
        }

        // Successors: a counting-sort transpose of the predecessors.
        // Visiting targets in ascending order keeps every list sorted.
        let mut succ_off = vec![0; n + 1];
        for &p in &preds {
            succ_off[p + 1] += 1;
        }
        for i in 0..n {
            succ_off[i + 1] += succ_off[i];
        }
        let mut cursor = succ_off.clone();
        let mut succs = vec![0; preds.len()];
        for to in 0..n {
            for &from in &preds[pred_off[to]..pred_off[to + 1]] {
                succs[cursor[from]] = to;
                cursor[from] += 1;
            }
        }

        DepGraph {
            len: n,
            pred_off,
            preds,
            kinds,
            succ_off,
            succs,
        }
    }

    /// Number of instructions covered by the graph.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the graph covers no instructions.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// All dependency edges, ordered by `to`, then `from`. Each `(from,
    /// to, kind)` triple appears once; a pair ordered for two reasons
    /// (say RAW and WAR) has one edge per reason. Built on each call from
    /// the predecessor lists and their kind sets.
    pub fn edges(&self) -> Vec<DepEdge> {
        let mut edges = Vec::with_capacity(self.preds.len());
        for to in 0..self.len {
            let range = self.pred_off[to]..self.pred_off[to + 1];
            for (&from, &set) in self.preds[range.clone()].iter().zip(&self.kinds[range]) {
                edges.extend(
                    DepKind::LISTED
                        .into_iter()
                        .filter(|kind| set & kind.bit() != 0)
                        .map(|kind| DepEdge { from, to, kind }),
                );
            }
        }
        edges
    }

    /// Indices of instructions that must execute before `i`, ascending
    /// and without repeats.
    pub fn preds(&self, i: usize) -> &[usize] {
        &self.preds[self.pred_off[i]..self.pred_off[i + 1]]
    }

    /// Indices of instructions that must execute after `i`, ascending and
    /// without repeats.
    pub fn succs(&self, i: usize) -> &[usize] {
        &self.succs[self.succ_off[i]..self.succ_off[i + 1]]
    }

    /// Checks that `order` (a permutation of `0..len`) respects every
    /// dependency edge — the correctness condition for the reordering tool.
    pub fn is_valid_order(&self, order: &[usize]) -> bool {
        if order.len() != self.len {
            return false;
        }
        let mut position = vec![usize::MAX; self.len];
        for (pos, &idx) in order.iter().enumerate() {
            if idx >= self.len || position[idx] != usize::MAX {
                return false; // not a permutation
            }
            position[idx] = pos;
        }
        (0..self.len).all(|to| {
            self.preds(to)
                .iter()
                .all(|&from| position[from] < position[to])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{Instruction as I, MReg, VReg};

    fn sample() -> Vec<I> {
        vec![
            I::VLoad {
                dst: VReg(0),
                addr: 0,
            }, // 0
            I::MvMul {
                dst: VReg(1),
                mat: MReg(0),
                src: VReg(0),
            }, // 1: RAW on v0
            I::VAdd {
                dst: VReg(2),
                a: VReg(1),
                b: VReg(0),
            }, // 2: RAW on v1, v0
            I::VLoad {
                dst: VReg(0),
                addr: 1,
            }, // 3: WAR on v0 (vs 1, 2), WAW vs 0
            I::VStore {
                src: VReg(2),
                addr: 5,
            }, // 4: RAW on v2
            I::Halt, // 5: control
        ]
    }

    #[test]
    fn register_hazards_detected() {
        let g = DepGraph::build(&sample());
        let has = |from, to, kind| g.edges().contains(&DepEdge { from, to, kind });
        assert!(has(0, 1, DepKind::Raw));
        assert!(has(1, 2, DepKind::Raw));
        assert!(has(0, 2, DepKind::Raw));
        assert!(has(1, 3, DepKind::War));
        assert!(has(2, 3, DepKind::War));
        assert!(has(0, 3, DepKind::Waw));
        assert!(has(2, 4, DepKind::Raw));
        assert!(has(4, 5, DepKind::Control));
    }

    #[test]
    fn memory_hazards_are_per_slot() {
        let insts = vec![
            I::VStore {
                src: VReg(0),
                addr: 10,
            }, // 0
            I::VLoad {
                dst: VReg(1),
                addr: 10,
            }, // 1: mem RAW
            I::VLoad {
                dst: VReg(2),
                addr: 11,
            }, // 2: different slot, no edge to 0
            I::VStore {
                src: VReg(3),
                addr: 10,
            }, // 3: mem WAR vs 1, WAW vs 0
        ];
        let g = DepGraph::build(&insts);
        let pairs: Vec<(usize, usize)> = g.edges().iter().map(|e| (e.from, e.to)).collect();
        assert!(pairs.contains(&(0, 1)));
        assert!(pairs.contains(&(1, 3)));
        assert!(pairs.contains(&(0, 3)));
        assert!(!pairs.contains(&(0, 2)));
        assert!(!pairs.contains(&(2, 3)));
    }

    #[test]
    fn original_order_is_always_valid() {
        let insts = sample();
        let g = DepGraph::build(&insts);
        let order: Vec<usize> = (0..insts.len()).collect();
        assert!(g.is_valid_order(&order));
    }

    #[test]
    fn independent_instructions_may_swap() {
        let insts = vec![
            I::VLoad {
                dst: VReg(0),
                addr: 0,
            },
            I::VLoad {
                dst: VReg(1),
                addr: 1,
            },
        ];
        let g = DepGraph::build(&insts);
        assert!(g.is_valid_order(&[1, 0]));
    }

    #[test]
    fn dependent_swap_rejected() {
        let g = DepGraph::build(&sample());
        // Moving the mvmul before its input load violates the RAW edge.
        assert!(!g.is_valid_order(&[1, 0, 2, 3, 4, 5]));
        // Non-permutations are rejected.
        assert!(!g.is_valid_order(&[0, 0, 2, 3, 4, 5]));
        assert!(!g.is_valid_order(&[0, 1, 2]));
    }

    #[test]
    fn self_read_write_has_no_self_edge() {
        let insts = vec![
            I::VZero { dst: VReg(1) },
            I::VAdd {
                dst: VReg(1),
                a: VReg(1),
                b: VReg(1),
            },
        ];
        let g = DepGraph::build(&insts);
        assert!(g.edges().iter().all(|e| e.from != e.to));
        // But the RAW edge from the vzero is present.
        assert!(g.edges().contains(&DepEdge {
            from: 0,
            to: 1,
            kind: DepKind::Raw
        }));
    }

    #[test]
    fn operand_read_twice_gives_one_edge() {
        // Shrunk counterexample from the depgraph-reference fuzz oracle
        // against a build that skipped the per-instruction dedup: both
        // operands of the vadd read v0, which must still be one RAW edge.
        let insts = crate::assemble("vload v0, 1\nvadd v6, v0, v0\nhalt\n")
            .unwrap()
            .into_instructions();
        let g = DepGraph::build(&insts);
        let raw = DepEdge {
            from: 0,
            to: 1,
            kind: DepKind::Raw,
        };
        assert_eq!(g.edges().iter().filter(|&&e| e == raw).count(), 1);
        assert_eq!(g.preds(1), [0]);
        assert_eq!(g.succs(0), [1, 2]);
    }

    #[test]
    fn halt_is_a_two_sided_barrier() {
        // Regression: nothing ordered the code after a `halt` against it,
        // so a valid order could hoist dead code above the program end.
        let insts = vec![
            I::VLoad {
                dst: VReg(0),
                addr: 0,
            },
            I::Halt,
            I::VStore {
                src: VReg(0),
                addr: 7,
            },
        ];
        let g = DepGraph::build(&insts);
        assert!(g.edges().contains(&DepEdge {
            from: 1,
            to: 2,
            kind: DepKind::Control
        }));
        assert!(!g.is_valid_order(&[0, 2, 1]));
        assert!(g.is_valid_order(&[0, 1, 2]));
    }

    #[test]
    fn empty_program_has_an_empty_graph() {
        let g = DepGraph::build(&[]);
        assert!(g.is_empty());
        assert_eq!(g.pred_off, [0]);
        assert_eq!(g.succ_off, [0]);
        assert!(g.edges().is_empty());
        assert!(g.is_valid_order(&[]));
    }

    #[test]
    fn halt_only_program() {
        let g = DepGraph::build(&[I::Halt]);
        assert_eq!(g.len(), 1);
        assert!(g.edges().is_empty());
        assert!(g.preds(0).is_empty() && g.succs(0).is_empty());
        assert!(g.is_valid_order(&[0]));
        // Consecutive halts are ordered once each way.
        let g = DepGraph::build(&[I::Halt, I::Halt]);
        assert_eq!(
            g.edges(),
            [DepEdge {
                from: 0,
                to: 1,
                kind: DepKind::Control
            }]
        );
        assert!(!g.is_valid_order(&[1, 0]));
    }

    fn gru_program() -> Vec<I> {
        let src = "vload v0, 0\n\
                   vload v1, 1\n\
                   mvmul v2, m0, v0\n\
                   mvmul v3, m1, v1\n\
                   vadd v4, v2, v3\n\
                   sigmoid v5, v4\n\
                   mvmul v6, m2, v0\n\
                   mvmul v7, m3, v1\n\
                   vmul v7, v5, v7\n\
                   vadd v6, v6, v7\n\
                   tanh v6, v6\n\
                   vsub v8, v1, v6\n\
                   vmul v8, v5, v8\n\
                   vadd v1, v6, v8\n\
                   vstore v1, 1\n\
                   vload v0, 2\n\
                   vload v1, 1\n\
                   mvmul v2, m0, v0\n\
                   mvmul v3, m1, v1\n\
                   vadd v4, v2, v3\n\
                   vstore v4, 1\n\
                   halt\n";
        crate::assemble(src).unwrap().into_instructions()
    }

    #[test]
    fn succs_are_the_exact_transpose_of_preds() {
        let insts = gru_program();
        let g = DepGraph::build(&insts);
        let mut from_preds: Vec<(usize, usize)> = (0..g.len())
            .flat_map(|to| g.preds(to).iter().map(move |&from| (from, to)))
            .collect();
        let mut from_succs: Vec<(usize, usize)> = (0..g.len())
            .flat_map(|from| g.succs(from).iter().map(move |&to| (from, to)))
            .collect();
        assert!(!from_preds.is_empty());
        from_preds.sort_unstable();
        from_succs.sort_unstable();
        assert_eq!(from_preds, from_succs);
        for i in 0..g.len() {
            assert!(g.preds(i).windows(2).all(|w| w[0] < w[1]));
            assert!(g.succs(i).windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn edges_are_unique_and_to_major() {
        let insts = gru_program();
        let g = DepGraph::build(&insts);
        let edges = g.edges();
        assert!(edges
            .windows(2)
            .all(|w| (w[0].to, w[0].from) <= (w[1].to, w[1].from)));
        let unique: std::collections::HashSet<&DepEdge> = edges.iter().collect();
        assert_eq!(unique.len(), edges.len(), "duplicate (from, to, kind)");
        // `vadd v6, v6, v7` reads the v6 that instruction 6 wrote (RAW)
        // and overwrites it (WAW): one edge per reason.
        let pair = |from, to| {
            edges
                .iter()
                .filter(|e| e.from == from && e.to == to)
                .count()
        };
        assert_eq!(pair(6, 9), 2);
    }
}
