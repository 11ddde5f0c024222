//! # vfpga-core — the multi-layer virtualization framework
//!
//! This crate is the paper's contribution: the **system abstraction** that
//! sits between the application-specific ISA (top) and the
//! hardware-specific abstraction (bottom), plus the custom tools that
//! operate on it.
//!
//! * [`SoftBlockTree`] — the system abstraction itself: a pool of soft
//!   blocks in a multi-level tree whose internal nodes are one of the two
//!   primitive parallel patterns ([`Pattern::Data`], [`Pattern::Pipeline`]).
//!   Soft blocks have *no* FPGA-specific resource constraints, which is what
//!   gives the heterogeneous cluster a homogeneous view.
//! * [`decompose`] — the decomposing tool (Section 2.2.1): lowers an AS
//!   ISA-based accelerator's RTL onto the soft-block abstraction with the
//!   five-step bottom-up flow (build block graph, extract intra-block data
//!   parallelism, identify inter-block data parallelism, identify pipeline
//!   parallelism, iterate to fixpoint). [`decompose_top_down`] implements
//!   the alternative top-down flow of Fig. 3b over the module hierarchy.
//! * [`partition`] — the partitioning tool (Section 2.2.2): iteratively
//!   bisects the decomposed accelerator, cutting pipelines at their
//!   minimum-bandwidth edge and splitting data-parallel nodes evenly,
//!   producing deployment units for up to 2^N FPGAs.
//! * [`MappingDatabase`] — the compiled-mapping store the system controller
//!   searches at deployment time (Fig. 7): every deployment variant of
//!   every accelerator instance, compiled against the HS abstraction of
//!   every feasible device type.
//! * [`scaleout`] — the scale-out optimization (Section 2.3): scale one
//!   accelerator down into several smaller ones, insert the DRAM-mapped
//!   send/receive instructions the synchronization template module
//!   intercepts, and reorder instructions (under dependency constraints) to
//!   overlap inter-FPGA communication with computation.

mod database;
mod decompose;
mod partition;
pub mod patterns;
pub mod scaleout;
mod softblock;
mod topdown;

pub use database::{
    DeploymentOption, DeploymentUnit, MappingDatabase, MappingEntry, PATTERN_AWARE_CROSSINGS,
    PATTERN_OBLIVIOUS_CROSSINGS,
};
pub use decompose::{decompose, DecomposeOptions, DecomposeStats, Decomposition};
pub use partition::{partition, PartitionNode, PartitionTree};
pub use patterns::{reduction, TreeBuilder};
pub use softblock::{Pattern, SoftBlock, SoftBlockId, SoftBlockKind, SoftBlockTree};
pub use topdown::decompose_top_down;

use std::fmt;

/// Errors from the framework's tools.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The RTL analysis failed.
    Rtl(vfpga_rtl::RtlError),
    /// The named control-path module was not found in the design.
    MissingControlModule(String),
    /// The data path produced an empty block graph.
    EmptyDataPath,
    /// A soft block id is not part of the tree.
    UnknownBlock(usize),
    /// A deployment was requested that the partition plan cannot provide.
    NoSuchVariant {
        /// Units requested.
        requested: usize,
        /// Largest variant available.
        available: usize,
    },
    /// The HS abstraction refused a compilation.
    Hs(vfpga_hsabs::HsError),
    /// The instruction transformation produced an invalid program.
    Isa(vfpga_isa::IsaError),
    /// A scale-out machine index outside its group (`machine_index >=
    /// num_machines`, or an empty group).
    InvalidMachine {
        /// The machine index requested.
        machine_index: usize,
        /// The size of the scale-out group.
        num_machines: usize,
    },
    /// A designated state slot falls inside the reserved sync window, so
    /// rewriting it to a send/receive would alias the window itself.
    StateSlotAliasesWindow {
        /// The offending DRAM slot.
        slot: u32,
    },
    /// The same state slot was designated twice; the rewrite would bind it
    /// to one channel and silently starve the other.
    DuplicateStateSlot {
        /// The repeated DRAM slot.
        slot: u32,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Rtl(e) => write!(f, "rtl error: {e}"),
            CoreError::MissingControlModule(m) => {
                write!(f, "control-path module `{m}` not found in design")
            }
            CoreError::EmptyDataPath => write!(f, "data path contains no basic modules"),
            CoreError::UnknownBlock(id) => write!(f, "soft block {id} not in tree"),
            CoreError::NoSuchVariant {
                requested,
                available,
            } => write!(
                f,
                "no partition variant with {requested} units (largest is {available})"
            ),
            CoreError::Hs(e) => write!(f, "hs abstraction error: {e}"),
            CoreError::Isa(e) => write!(f, "isa error: {e}"),
            CoreError::InvalidMachine {
                machine_index,
                num_machines,
            } => write!(
                f,
                "machine index {machine_index} outside scale-out group of {num_machines}"
            ),
            CoreError::StateSlotAliasesWindow { slot } => {
                write!(f, "state slot {slot} lies inside the reserved sync window")
            }
            CoreError::DuplicateStateSlot { slot } => {
                write!(f, "state slot {slot} designated more than once")
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Rtl(e) => Some(e),
            CoreError::Hs(e) => Some(e),
            CoreError::Isa(e) => Some(e),
            _ => None,
        }
    }
}

impl From<vfpga_rtl::RtlError> for CoreError {
    fn from(e: vfpga_rtl::RtlError) -> Self {
        CoreError::Rtl(e)
    }
}

impl From<vfpga_hsabs::HsError> for CoreError {
    fn from(e: vfpga_hsabs::HsError) -> Self {
        CoreError::Hs(e)
    }
}

impl From<vfpga_isa::IsaError> for CoreError {
    fn from(e: vfpga_isa::IsaError) -> Self {
        CoreError::Isa(e)
    }
}
