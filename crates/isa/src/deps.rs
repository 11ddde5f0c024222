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
//! target: predecessors are stored in CSR form (one flat `u32` index array
//! plus offsets) as they are found, with a parallel one-byte set of the
//! reasons ([`DepKind`]s) for each, and successors are the counting-sort
//! transpose. The hazard state is dense: per-register tables, DRAM slots
//! renumbered `0..slots` by one sort of the accessed addresses, and the
//! uses of a register (or loads of a slot) since its last write as linked
//! lists threaded through one shared array. A first pass bounds every
//! buffer, so building costs O(n log n + E) time and a fixed number of
//! allocations however long the program is. The reorder reads only the
//! predecessor and successor lists; [`DepGraph::edges`] expands the kind
//! sets into one [`DepEdge`] per reason on demand.

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

/// No instruction: the end of a list, or a register or slot never written.
const NONE: u32 = u32::MAX;

/// Lists of instruction indices threaded through one array: each list is
/// a head index into `links`, each link an instruction and the next link.
/// Pushing prepends; clearing a list just drops its head.
struct Chains {
    links: Vec<(u32, u32)>,
}

impl Chains {
    fn push(&mut self, head: &mut u32, inst: u32) {
        self.links.push((inst, *head));
        *head = (self.links.len() - 1) as u32;
    }

    /// The list starting at `head`, most recent first.
    fn iter(&self, mut head: u32) -> impl Iterator<Item = u32> + '_ {
        std::iter::from_fn(move || {
            let &(inst, next) = self.links.get(head as usize)?;
            head = next;
            Some(inst)
        })
    }
}

/// The hazard state of one DRAM slot.
#[derive(Debug, Clone, Copy)]
struct MemSlot {
    last_store: u32,
    /// Head of the loads since that store.
    loads: u32,
}

/// The dependency graph of a program: a DAG over instruction indices in
/// original program order (edges always point from lower to higher index).
#[derive(Debug, Clone)]
pub struct DepGraph {
    /// `preds[pred_off[i]..pred_off[i + 1]]` are the predecessors of `i`.
    pred_off: Vec<u32>,
    preds: Vec<u32>,
    /// `kinds[k]` is the set of reasons for the edge `preds[k]` → `i`, one
    /// [`DepKind::bit`] each.
    kinds: Vec<u8>,
    /// `succs[succ_off[i]..succ_off[i + 1]]` are the successors of `i`.
    succ_off: Vec<u32>,
    succs: Vec<u32>,
}

impl DepGraph {
    /// Builds the dependency graph of an instruction sequence.
    ///
    /// # Panics
    ///
    /// Panics if the program has `u32::MAX` or more instructions, or so
    /// many `halt`s that its predecessor lists could pass `u32::MAX`
    /// entries.
    pub fn build(insts: &[Instruction]) -> Self {
        let n = insts.len();
        assert!(n < NONE as usize, "program too long for u32 indices");

        // First pass: number the DRAM slots densely and bound every
        // buffer. An instruction reads at most two registers; beyond the
        // halt barrier, one RAW per read, one memory RAW or WAW and one
        // register WAW, its edges are WARs paid for by earlier reads (at
        // most two per instruction) and earlier loads, each of which one
        // later write consumes.
        let mut accesses: Vec<u64> = Vec::with_capacity(n);
        let (mut loads, mut bound) = (0, 0);
        for (i, inst) in insts.iter().enumerate() {
            if matches!(inst, Instruction::Halt) {
                bound += i;
                continue;
            }
            bound += 5 + 2;
            if let Some(addr) = inst.mem_read().or(inst.mem_write()) {
                accesses.push(u64::from(addr) << 32 | i as u64);
                loads += usize::from(inst.mem_read().is_some());
            }
        }
        bound += loads;
        assert!(
            u32::try_from(bound).is_ok(),
            "program has too many dependencies for u32 offsets"
        );
        accesses.sort_unstable();
        let mut slot_of = vec![NONE; n];
        let mut slots = 0;
        for (k, &a) in accesses.iter().enumerate() {
            if k > 0 && accesses[k - 1] >> 32 != a >> 32 {
                slots += 1;
            }
            slot_of[(a & u64::from(NONE)) as usize] = slots;
        }
        let slots = if accesses.is_empty() { 0 } else { slots + 1 };
        drop(accesses);

        let mut pred_off = Vec::with_capacity(n + 1);
        pred_off.push(0u32);
        let mut preds = Vec::with_capacity(bound);
        let mut kinds = Vec::with_capacity(bound);
        // The edges ending at the instruction being visited, as
        // `from << 8 | kind bit`.
        let mut step: Vec<u64> = Vec::with_capacity(16);
        // Register hazards, indexed by register number.
        let mut last_def = [NONE; 256];
        let mut uses_since_def = [NONE; 256];
        // Memory hazards, exact per slot.
        let mut mem = vec![
            MemSlot {
                last_store: NONE,
                loads: NONE,
            };
            slots as usize
        ];
        let mut chains = Chains {
            links: Vec::with_capacity(2 * n + loads),
        };
        let mut last_halt = NONE;
        // Successor counts, counted as the predecessors are found.
        let mut succ_off = vec![0u32; n + 1];

        for (i, inst) in insts.iter().enumerate() {
            let i = i as u32;
            if matches!(inst, Instruction::Halt) {
                // A halt is a full barrier: it must stay after everything
                // before it, for control only ...
                preds.extend(0..i);
                kinds.resize(preds.len(), DepKind::Control.bit());
                for count in &mut succ_off[..i as usize] {
                    *count += 1;
                }
                pred_off.push(preds.len() as u32);
                last_halt = i;
                continue;
            }
            let mut edge = |from: u32, kind: DepKind| {
                if from != NONE {
                    step.push(u64::from(from) << 8 | u64::from(kind.bit()));
                }
            };
            // ... and before everything after it.
            edge(last_halt, DepKind::Control);
            let mut reads = [0; 2];
            let mut read = 0;
            for r in inst.uses() {
                reads[read] = usize::from(r.0);
                read += 1;
            }
            let reads = &reads[..read];
            for &r in reads {
                edge(last_def[r], DepKind::Raw);
            }
            let slot = slot_of[i as usize];
            if slot != NONE {
                let slot = &mut mem[slot as usize];
                edge(slot.last_store, DepKind::Mem);
                if inst.mem_read().is_some() {
                    chains.push(&mut slot.loads, i);
                } else {
                    for l in chains.iter(slot.loads) {
                        edge(l, DepKind::Mem);
                    }
                    slot.last_store = i;
                    slot.loads = NONE;
                }
            }
            if let Some(d) = inst.defs() {
                let d = usize::from(d.0);
                for r in chains.iter(uses_since_def[d]) {
                    if r != i {
                        edge(r, DepKind::War);
                    }
                }
                edge(last_def[d], DepKind::Waw);
                last_def[d] = i;
                uses_since_def[d] = NONE;
            }
            // Record uses after handling the def so `vadd v1, v1, v2`
            // does not produce a spurious WAR on itself.
            for &r in reads {
                chains.push(&mut uses_since_def[r], i);
            }

            // Group this step's edges by source; the reasons for one
            // source fold into its kind set.
            step.sort_unstable();
            let mut prev = NONE;
            for &e in &step {
                let from = (e >> 8) as u32;
                if from != prev {
                    preds.push(from);
                    kinds.push(e as u8);
                    succ_off[from as usize] += 1;
                    prev = from;
                } else if let Some(set) = kinds.last_mut() {
                    *set |= e as u8;
                }
            }
            pred_off.push(preds.len() as u32);
            step.clear();
        }

        // Successors: a counting-sort transpose of the predecessors. Each
        // source's run is filled from its end while the targets are
        // visited in descending order, which leaves every run ascending
        // and `succ_off` holding the runs' starts.
        let mut end = 0;
        for off in &mut succ_off[..n] {
            end += *off;
            *off = end;
        }
        succ_off[n] = end;
        let mut succs = vec![0u32; preds.len()];
        for to in (0..n).rev() {
            for &from in &preds[pred_off[to] as usize..pred_off[to + 1] as usize] {
                succ_off[from as usize] -= 1;
                succs[succ_off[from as usize] as usize] = to as u32;
            }
        }

        DepGraph {
            pred_off,
            preds,
            kinds,
            succ_off,
            succs,
        }
    }

    /// Number of instructions covered by the graph.
    pub fn len(&self) -> usize {
        self.pred_off.len() - 1
    }

    /// Whether the graph covers no instructions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All dependency edges, ordered by `to`, then `from`. Each `(from,
    /// to, kind)` triple appears once; a pair ordered for two reasons
    /// (say RAW and WAR) has one edge per reason. Built on each call from
    /// the predecessor lists and their kind sets.
    pub fn edges(&self) -> Vec<DepEdge> {
        let mut edges = Vec::with_capacity(self.preds.len());
        for to in 0..self.len() {
            let range = self.pred_off[to] as usize..self.pred_off[to + 1] as usize;
            for (&from, &set) in self.preds[range.clone()].iter().zip(&self.kinds[range]) {
                edges.extend(
                    DepKind::LISTED
                        .into_iter()
                        .filter(|kind| set & kind.bit() != 0)
                        .map(|kind| DepEdge {
                            from: from as usize,
                            to,
                            kind,
                        }),
                );
            }
        }
        edges
    }

    /// Indices of instructions that must execute before `i`, ascending
    /// and without repeats.
    pub fn preds(&self, i: usize) -> &[u32] {
        &self.preds[self.pred_off[i] as usize..self.pred_off[i + 1] as usize]
    }

    /// Indices of instructions that must execute after `i`, ascending and
    /// without repeats.
    pub fn succs(&self, i: usize) -> &[u32] {
        &self.succs[self.succ_off[i] as usize..self.succ_off[i + 1] as usize]
    }

    /// The first position of `order` (a proposed sequence of instruction
    /// indices) that breaks the reordering contract, or `None` if `order`
    /// is a permutation of `0..len` that respects every dependency edge.
    /// Position `k` breaks it if `order[k]` is out of range, repeats an
    /// earlier position, or has a predecessor not placed before it (later
    /// or nowhere); position `order.len()` if `order` ends before placing
    /// every instruction.
    pub fn first_violation(&self, order: &[usize]) -> Option<usize> {
        let mut placed = vec![false; self.len()];
        for (k, &i) in order.iter().enumerate() {
            if placed.get(i) != Some(&false) || self.preds(i).iter().any(|&p| !placed[p as usize]) {
                return Some(k);
            }
            placed[i] = true;
        }
        (order.len() < self.len()).then_some(order.len())
    }

    /// Checks that `order` (a permutation of `0..len`) respects every
    /// dependency edge — the correctness condition for the reordering tool.
    pub fn is_valid_order(&self, order: &[usize]) -> bool {
        self.first_violation(order).is_none()
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

    #[test]
    fn first_violation_names_the_first_bad_position() {
        let g = DepGraph::build(&sample());
        assert_eq!(g.first_violation(&[0, 1, 2, 3, 4, 5]), None);
        // The mvmul at position 0 precedes its input load.
        assert_eq!(g.first_violation(&[1, 0, 2, 3, 4, 5]), Some(0));
        // Independent instructions may swap ...
        assert_eq!(g.first_violation(&[0, 1, 2, 4, 3, 5]), None);
        // ... but the reload of v0 at position 2 precedes the vadd still
        // reading the old v0.
        assert_eq!(g.first_violation(&[0, 1, 3, 2, 4, 5]), Some(2));
        // A repeat, and an index past the program.
        assert_eq!(g.first_violation(&[0, 1, 1, 2, 3, 4]), Some(2));
        assert_eq!(g.first_violation(&[0, 1, 2, 9, 3, 4]), Some(3));
        // A missing index: the halt at position 4 precedes the store it
        // must follow, which is nowhere.
        assert_eq!(g.first_violation(&[0, 1, 2, 3, 5]), Some(4));
        // An order that ends early: the first unfilled position.
        assert_eq!(g.first_violation(&[0, 1, 2]), Some(3));
        assert_eq!(g.first_violation(&[]), Some(0));
        // A repeat past the program's length is still a repeat.
        assert_eq!(g.first_violation(&[0, 1, 2, 3, 4, 5, 5]), Some(6));
        for order in [[1, 0, 2, 3, 4, 5], [0, 1, 1, 2, 3, 4]] {
            assert!(!g.is_valid_order(&order));
        }
    }

    #[test]
    fn loads_and_uses_since_the_last_write_are_all_ordered() {
        // Three loads of slot 4 and three reads of v0 before one store and
        // one overwrite: every one of them precedes the write.
        let insts = crate::assemble(
            "vload v0, 4\nvload v1, 4\nvadd v2, v0, v1\nvload v3, 4\n\
             vmul v4, v0, v3\nvstore v4, 4\nvzero v0\nhalt\n",
        )
        .unwrap()
        .into_instructions();
        let g = DepGraph::build(&insts);
        let has = |from, to, kind| g.edges().contains(&DepEdge { from, to, kind });
        for load in [0, 1, 3] {
            assert!(has(load, 5, DepKind::Mem), "load {load} before the store");
        }
        for read in [2, 4] {
            assert!(
                has(read, 6, DepKind::War),
                "read {read} before the overwrite"
            );
        }
        assert!(has(0, 6, DepKind::Waw));
        assert_eq!(g.preds(5), [0, 1, 3, 4]);
        assert_eq!(g.preds(6), [0, 2, 4]);
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
            .flat_map(|to| g.preds(to).iter().map(move |&from| (from as usize, to)))
            .collect();
        let mut from_succs: Vec<(usize, usize)> = (0..g.len())
            .flat_map(|from| g.succs(from).iter().map(move |&to| (from, to as usize)))
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
