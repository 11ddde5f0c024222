//! # vfpga-rtl — structural RTL intermediate representation
//!
//! The paper's decomposing step operates at the RTL level: it parses an
//! accelerator's RTL design, extracts its *basic modules* (Verilog modules
//! that instantiate no other modules), and analyzes how they interconnect.
//! This crate provides that substrate:
//!
//! * a hierarchical, structural IR ([`Design`], [`ModuleDecl`], [`Instance`]);
//! * a parser for a small Verilog-like structural subset ([`parse`]);
//! * hierarchy flattening into a graph of basic-module instances
//!   ([`Design::block_graph`], [`BlockGraph`]) — the paper's "block graph";
//! * structural equivalence checking ([`Design::canonical_hash`]), the
//!   stand-in for the SAT-based combinational equivalence checking the paper
//!   cites for detecting data parallelism. Leaf modules carry an opaque
//!   `behavior` tag standing in for their combinational function; two leaves
//!   are equivalent iff their interfaces and behaviors match, and composite
//!   modules are compared by a Weisfeiler–Leman-style canonical topology
//!   hash.
//!
//! ```
//! use vfpga_rtl::parse;
//!
//! let design = parse(r#"
//!     module pe #(behavior="mac") (input [15:0] a, input [15:0] b, output [15:0] y);
//!     endmodule
//!     module top (input [15:0] x, output [15:0] y);
//!       wire [15:0] t;
//!       pe u0 (.a(x), .b(x), .y(t));
//!       pe u1 (.a(t), .b(t), .y(y));
//!     endmodule
//! "#)?;
//! let graph = design.block_graph("top")?;
//! assert_eq!(graph.node_count(), 2);
//! assert_eq!(graph.node(1).path, "u1");
//! assert_eq!(graph.edges()[0].width, 16);
//! # Ok::<(), vfpga_rtl::RtlError>(())
//! ```

mod design;
mod eqhash;
mod graph;
mod module;
mod parser;
mod writer;

pub use design::Design;
pub use graph::{BlockEdge, BlockGraph, FlatNode};
pub use module::{Instance, ModuleDecl, Port, PortDir};
pub use parser::parse;

use std::fmt;

/// Errors produced while constructing, parsing, or analyzing RTL designs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RtlError {
    /// A parse error with a line number and message.
    Parse {
        /// 1-based source line.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A module was defined twice.
    DuplicateModule(String),
    /// A referenced module does not exist.
    UnknownModule(String),
    /// A referenced net or port does not exist in its module.
    UnknownNet {
        /// The module in which the reference appears.
        module: String,
        /// The undefined net name.
        net: String,
    },
    /// An instance connects to a port its module does not declare.
    UnknownPort {
        /// The instantiated module.
        module: String,
        /// The undefined port name.
        port: String,
    },
    /// Two objects in one module share a name.
    DuplicateName {
        /// The containing module.
        module: String,
        /// The colliding name.
        name: String,
    },
    /// The module hierarchy instantiates a module inside itself.
    RecursiveHierarchy(String),
    /// The named top module elaborates to more nets, basic-module
    /// instances, pins or path bytes than `u32` ids cover.
    HierarchyTooLarge(String),
    /// Connected objects have different bit widths.
    WidthMismatch {
        /// The containing module.
        module: String,
        /// Description of the two endpoints.
        detail: String,
    },
}

impl fmt::Display for RtlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtlError::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
            RtlError::DuplicateModule(m) => write!(f, "module `{m}` defined twice"),
            RtlError::UnknownModule(m) => write!(f, "unknown module `{m}`"),
            RtlError::UnknownNet { module, net } => {
                write!(f, "unknown net `{net}` in module `{module}`")
            }
            RtlError::UnknownPort { module, port } => {
                write!(f, "module `{module}` has no port `{port}`")
            }
            RtlError::DuplicateName { module, name } => {
                write!(f, "duplicate name `{name}` in module `{module}`")
            }
            RtlError::RecursiveHierarchy(m) => {
                write!(f, "recursive instantiation of module `{m}`")
            }
            RtlError::HierarchyTooLarge(m) => write!(
                f,
                "`{m}` elaborates to more nets, instances, pins or path bytes than u32 ids cover"
            ),
            RtlError::WidthMismatch { module, detail } => {
                write!(f, "width mismatch in module `{module}`: {detail}")
            }
        }
    }
}

impl std::error::Error for RtlError {}
