//! # vfpga-bench — the evaluation harness
//!
//! Builds the paper's evaluated system (the accelerator instance catalog,
//! compiled mapping database, and cluster) and regenerates every table and
//! figure of the evaluation section:
//!
//! | artifact | harness | regenerate with |
//! |---|---|---|
//! | Table 2 | [`tables::table2`] | `cargo run -p vfpga-bench --bin repro -- table2` |
//! | Table 3 | [`tables::table3`] | `repro -- table3` |
//! | Table 4 | [`tables::table4`] | `repro -- table4` |
//! | Fig. 11 | [`fig11::sweep`] | `repro -- fig11` |
//! | Fig. 12 | [`fig12::run_all_sets`] | `repro -- fig12` |
//! | §4.3 overhead | [`overhead::report`] | `repro -- overhead` |
//! | §4.4 isolation | [`isolation::measure`] | `repro -- isolation` |
//! | chaos / netchaos | [`chaos::run`] ([`chaos::ChaosConfig::with_links`]) | `repro -- chaos`, `repro -- netchaos` |
//! | SLO monitor | [`monitor::run`] | `repro -- monitor` |
//!
//! Every catalog-driven cloud simulation goes through
//! [`Catalog::simulate`]; `repro` drives every experiment from one table.
//!
//! Wall-clock timing of the framework's tools (decompose, partition,
//! insert/reorder, encode, scale-out co-simulation, controller
//! deploy/release) lives in the separate `vfpga-perf` benchmark under
//! `perfbench/`.

pub mod ablations;
pub mod admission;
pub mod catalog;
pub mod chaos;
pub mod density;
pub mod elastic;
pub mod fig11;
pub mod fig12;
pub mod isolation;
pub mod monitor;
pub mod overhead;
pub mod tables;

pub use catalog::Catalog;
