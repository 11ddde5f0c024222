//! Programs and their validation.

use std::fmt;
use std::ops::Index;

use crate::deps::DepGraph;
use crate::inst::Instruction;
use crate::IsaError;

/// Architectural limits a program is validated against.
///
/// These mirror the parameterized accelerator: the number of vector
/// registers and matrix tiles scale with the instance configuration, and
/// DRAM slots with the board memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IsaConfig {
    /// Number of vector registers in the vector register file.
    pub num_vregs: u16,
    /// Number of matrix tiles the on-chip matrix memory holds.
    pub num_mtiles: u16,
    /// Number of vector slots in on-board DRAM.
    pub dram_slots: u32,
}

impl Default for IsaConfig {
    /// 64 vector registers, 1024 matrix tiles, 1 Mi DRAM vector slots.
    fn default() -> Self {
        IsaConfig {
            num_vregs: 64,
            num_mtiles: 1024,
            dram_slots: 1 << 20,
        }
    }
}

/// An ordered sequence of instructions for the AS ISA.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    insts: Vec<Instruction>,
}

impl Program {
    /// Creates a program from instructions.
    pub fn new(insts: Vec<Instruction>) -> Self {
        Program { insts }
    }

    /// The instructions in order.
    pub fn instructions(&self) -> &[Instruction] {
        &self.insts
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Appends an instruction.
    pub fn push(&mut self, inst: Instruction) {
        self.insts.push(inst);
    }

    /// Iterates over the instructions.
    pub fn iter(&self) -> impl Iterator<Item = &Instruction> {
        self.insts.iter()
    }

    /// Consumes the program, returning its instructions.
    pub fn into_instructions(self) -> Vec<Instruction> {
        self.insts
    }

    /// Validates every operand against the architectural limits.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::Validation`] naming the first offending
    /// instruction.
    pub fn validate(&self, config: &IsaConfig) -> Result<(), IsaError> {
        for (index, inst) in self.insts.iter().enumerate() {
            if let Some(d) = inst.defs() {
                if u16::from(d.0) >= config.num_vregs {
                    return Err(IsaError::Validation {
                        index,
                        message: format!("register {d} out of range (have {})", config.num_vregs),
                    });
                }
            }
            for u in inst.uses() {
                if u16::from(u.0) >= config.num_vregs {
                    return Err(IsaError::Validation {
                        index,
                        message: format!("register {u} out of range (have {})", config.num_vregs),
                    });
                }
            }
            if let Some(m) = inst.matrix() {
                if m.0 >= config.num_mtiles {
                    return Err(IsaError::Validation {
                        index,
                        message: format!(
                            "matrix tile {m} out of range (have {})",
                            config.num_mtiles
                        ),
                    });
                }
            }
            if let Some(a) = inst.mem_read().or_else(|| inst.mem_write()) {
                if a >= config.dram_slots {
                    return Err(IsaError::Validation {
                        index,
                        message: format!("DRAM slot {a} out of range (have {})", config.dram_slots),
                    });
                }
            }
        }
        Ok(())
    }

    /// Builds the dependency graph of this program (see [`DepGraph`]).
    pub fn dep_graph(&self) -> DepGraph {
        DepGraph::build(&self.insts)
    }

    /// Applies a permutation (`order[k]` = original index of the `k`-th
    /// instruction in the new program), checking it against the dependency
    /// graph.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::Validation`] if `order` is not a
    /// dependency-preserving permutation.
    pub fn reordered(&self, order: &[usize]) -> Result<Program, IsaError> {
        self.reordered_with(&self.dep_graph(), order)
    }

    /// [`reordered`](Program::reordered) against an already-built
    /// dependency graph, which must be this program's — for callers that
    /// built it to compute `order` in the first place.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::Validation`] if `order` is not a permutation
    /// that respects `graph`, with the index of the first offending
    /// position of `order` (see [`DepGraph::first_violation`]), or at
    /// index 0 if `graph` covers a different number of instructions.
    pub fn reordered_with(&self, graph: &DepGraph, order: &[usize]) -> Result<Program, IsaError> {
        if graph.len() != self.len() {
            return Err(IsaError::Validation {
                index: 0,
                message: format!(
                    "dependency graph covers {} of {} instructions",
                    graph.len(),
                    self.len()
                ),
            });
        }
        if let Some(index) = graph.first_violation(order) {
            return Err(IsaError::Validation {
                index,
                message: "reordering violates dependencies".into(),
            });
        }
        Ok(Program {
            insts: order.iter().map(|&i| self.insts[i]).collect(),
        })
    }

    /// Counts instructions by class: (matrix-vector multiplies, other
    /// vector ops, memory ops). Used by the timing model.
    pub fn instruction_mix(&self) -> (usize, usize, usize) {
        let mut mvm = 0;
        let mut vec = 0;
        let mut mem = 0;
        for inst in &self.insts {
            if inst.is_mvm() {
                mvm += 1;
            } else if inst.mem_read().is_some() || inst.mem_write().is_some() {
                mem += 1;
            } else if !matches!(inst, Instruction::Nop | Instruction::Halt) {
                vec += 1;
            }
        }
        (mvm, vec, mem)
    }
}

impl Index<usize> for Program {
    type Output = Instruction;

    fn index(&self, i: usize) -> &Instruction {
        &self.insts[i]
    }
}

impl FromIterator<Instruction> for Program {
    fn from_iter<T: IntoIterator<Item = Instruction>>(iter: T) -> Self {
        Program {
            insts: iter.into_iter().collect(),
        }
    }
}

impl Extend<Instruction> for Program {
    fn extend<T: IntoIterator<Item = Instruction>>(&mut self, iter: T) {
        self.insts.extend(iter);
    }
}

impl<'a> IntoIterator for &'a Program {
    type Item = &'a Instruction;
    type IntoIter = std::slice::Iter<'a, Instruction>;

    fn into_iter(self) -> Self::IntoIter {
        self.insts.iter()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for inst in &self.insts {
            writeln!(f, "{inst}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{Instruction as I, MReg, VReg};

    fn small() -> Program {
        Program::new(vec![
            I::VLoad {
                dst: VReg(0),
                addr: 0,
            },
            I::MvMul {
                dst: VReg(1),
                mat: MReg(0),
                src: VReg(0),
            },
            I::VStore {
                src: VReg(1),
                addr: 1,
            },
            I::Halt,
        ])
    }

    #[test]
    fn reordering_names_the_first_offending_position() {
        let p = small();
        let err = |order: &[usize]| match p.reordered(order) {
            Err(IsaError::Validation { index, .. }) => Some(index),
            _ => None,
        };
        let identity: Vec<usize> = (0..p.len()).collect();
        assert_eq!(p.reordered(&identity), Ok(p.clone()));
        // The halt may not move above the instruction before it.
        let mut swapped = identity.clone();
        let last = swapped.len() - 1;
        swapped.swap(last - 1, last);
        assert_eq!(err(&swapped), Some(last - 1));
        // A repeated index, and a short order.
        let mut repeated = identity.clone();
        repeated[1] = 0;
        assert_eq!(err(&repeated), Some(1));
        assert_eq!(err(&identity[..1]), Some(1));
    }

    #[test]
    fn validate_accepts_in_range() {
        small().validate(&IsaConfig::default()).unwrap();
    }

    #[test]
    fn validate_rejects_bad_register() {
        let p = Program::new(vec![I::VZero { dst: VReg(200) }]);
        let cfg = IsaConfig {
            num_vregs: 64,
            ..IsaConfig::default()
        };
        let err = p.validate(&cfg).unwrap_err();
        assert!(matches!(err, IsaError::Validation { index: 0, .. }));
    }

    #[test]
    fn validate_rejects_bad_tile_and_slot() {
        let cfg = IsaConfig {
            num_vregs: 8,
            num_mtiles: 4,
            dram_slots: 16,
        };
        let p = Program::new(vec![I::MvMul {
            dst: VReg(0),
            mat: MReg(4),
            src: VReg(1),
        }]);
        assert!(p.validate(&cfg).is_err());
        let q = Program::new(vec![I::VLoad {
            dst: VReg(0),
            addr: 16,
        }]);
        assert!(q.validate(&cfg).is_err());
    }

    #[test]
    fn reorder_valid_permutation() {
        let p = Program::new(vec![
            I::VLoad {
                dst: VReg(0),
                addr: 0,
            },
            I::VLoad {
                dst: VReg(1),
                addr: 1,
            },
            I::VAdd {
                dst: VReg(2),
                a: VReg(0),
                b: VReg(1),
            },
        ]);
        let q = p.reordered(&[1, 0, 2]).unwrap();
        assert_eq!(
            q[0],
            I::VLoad {
                dst: VReg(1),
                addr: 1
            }
        );
        assert!(p.reordered(&[2, 0, 1]).is_err());
    }

    #[test]
    fn instruction_mix_counts() {
        let (mvm, vec, mem) = small().instruction_mix();
        assert_eq!((mvm, vec, mem), (1, 0, 2));
    }

    #[test]
    fn display_round_trips_through_assembler() {
        let p = small();
        let text = p.to_string();
        let q = crate::assemble(&text).unwrap();
        assert_eq!(p, q);
    }
}
