//! # vfpga-fuzz — deterministic differential fuzzing for the whole stack
//!
//! The paper's central correctness claim is that every transformation in
//! the framework is semantics-preserving: decompose → partition conserves
//! resources and bandwidth, and scale-down + `insert_communication` +
//! `reorder_for_overlap` computes bit-identically to the single-device
//! accelerator. Hand-picked test shapes cover a handful of points in that
//! space; this crate covers the rest with structure-aware randomized
//! differential testing, replayable from a single `u64` seed.
//!
//! Four parts:
//!
//! * **Generators** ([`FuzzInput`] + [`Oracle::generate`]) — seeded random
//!   [`SoftBlockTree`](vfpga_core::SoftBlockTree)s with mixed data/pipeline
//!   nesting and adversarial link widths, generated accelerators and
//!   dataflow graphs for the decomposer, random GRU/LSTM tasks with
//!   non-power-of-two hidden dims and degenerate 1-step sequences, random
//!   assembleable ISA programs, random heterogeneous clusters and fault
//!   plans, random JSON documents, and telemetry record streams. Every
//!   case derives from [`Rng::stream`](vfpga_sim::Rng::stream), so
//!   `(oracle, seed, index)` pins it exactly.
//! * **Oracles** ([`registry`]) — cross-layer checks: scaled-out
//!   co-simulation vs the full accelerator vs the `f32` reference,
//!   reordering bit-identity, the CSR dependency graph, overlap
//!   scheduler and bottom-up decomposer against their naive golden models
//!   (`reference.rs`), the
//!   cloud scheduler's admission fast paths against a naive
//!   [`ReferenceScheduler`] decision by decision (`scheduler.rs`),
//!   partition conservation/monotonicity/coverage,
//!   controller accounting under faults, slot-bitmap vs occupancy agreement
//!   in the HS abstraction, fault-plan renewal invariants, byte-exact
//!   JSON round-trips against the original writer, and the window-series
//!   rollups against the original per-cell map (`reference.rs`).
//! * **Shrinker** ([`shrink`]) — greedy delta debugging over each
//!   generator's structure (drop tree children, halve dims, truncate
//!   programs and fault waves) that minimizes a failing case while
//!   preserving its failure.
//! * **Driver** ([`run_fuzz`]) — runs a case budget per oracle, writes
//!   shrunk reproducers to `target/fuzz-failures/<oracle>-<seed>.json`, and
//!   returns a byte-deterministic summary. [`replay`] re-runs a serialized
//!   reproducer through its oracle.
//!
//! The `repro fuzz` subcommand of vfpga-bench fronts the driver; a small
//! budget runs in tier-1 via `tests/fuzz_smoke.rs`.

mod driver;
mod gen;
mod input;
mod oracle;
mod reference;
mod scheduler;
mod shrink;

pub use driver::{
    case_rng, replay, reproducer_json, run_fuzz, FailureReport, FuzzConfig, FuzzSummary,
    OracleReport, Verdict, DEFAULT_SHRINK_BUDGET, FUZZ_SCHEMA_VERSION,
};
pub use input::{
    CloudFault, CloudSpec, CloudTask, DataflowOp, DecompSpec, DesignSpec, FaultSpec, FuzzInput,
    ProgSpec, RnnSpec, RollupRecord, RollupSpec, SlotOp, SlotsSpec, TreeSpec,
};
pub use oracle::{oracle_names, registry, Oracle};
pub use scheduler::{
    PlacementRecord, ReferenceCluster, ReferenceReport, ReferenceScheduler, TaskOutcome,
};
pub use shrink::shrink;
