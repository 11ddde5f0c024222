//! Regeneration of the Section 4.3 compilation-overhead analysis.

use std::time::Instant;

use vfpga_accel::AcceleratorConfig;
use vfpga_fabric::MemoryKind;
use vfpga_hsabs::HsCompiler;

use crate::catalog::{storage_bfp, Catalog};

/// The compilation-overhead breakdown of Section 4.3.
#[derive(Debug, Clone)]
pub struct OverheadReport {
    /// Wall-clock seconds our decompose+partition tools took for the
    /// largest instance.
    pub tool_seconds: f64,
    /// Leaf soft blocks the decomposer extracted from the largest
    /// instance's data path (the tools' work, independent of the host).
    pub tool_leaves: usize,
    /// Soft blocks in the largest instance's tree, leaves included.
    pub tool_blocks: usize,
    /// Estimated baseline compile time (one full-device run per instance
    /// per feasible device type), seconds.
    pub baseline_seconds: f64,
    /// Tool time as a fraction of the baseline compile time (the paper
    /// reports < 1%).
    pub tool_fraction: f64,
    /// Estimated extra compile time for the scaled-down accelerators,
    /// after sharing them across the instance family, seconds.
    pub scaledown_seconds: f64,
    /// Total overhead fraction versus the baseline flow (the paper reports
    /// 24.6% amortized over 10 instances).
    pub total_overhead_fraction: f64,
    /// The scaled-down compiles' share of the baseline: the total overhead
    /// without the (measured) tool time, so it reproduces exactly.
    pub scaledown_fraction: f64,
    /// Number of instances the scaled-down compilations amortize over.
    pub instances: usize,
    /// Number of distinct scaled-down configurations compiled.
    pub distinct_scaledowns: usize,
}

/// Reproduces the Section 4.3 accounting: ten accelerator instances with
/// different tile counts, each offered with 2-FPGA and 4-FPGA scale-down
/// variants; scaled-down accelerators are shared across instances where
/// tile counts coincide.
pub fn report() -> OverheadReport {
    let compiler = HsCompiler::default();
    let tile_family: [usize; 10] = [4, 6, 8, 10, 12, 14, 16, 18, 20, 21];

    // Tool time: run the real decompose+partition on the largest instance.
    let big = AcceleratorConfig::new("overhead-probe", 21)
        .with_memory_kind(MemoryKind::Uram)
        .with_bfp(storage_bfp());
    let start = Instant::now();
    let (decomp, _plan) = Catalog::compile_instance(&big, 2, None);
    let tool_seconds = start.elapsed().as_secs_f64();

    // Baseline: one full compile per instance per device type (the larger
    // instances only fit the XCVU37P).
    let mut baseline_seconds = 0.0;
    for &tiles in &tile_family {
        let cfg = AcceleratorConfig::new("fam", tiles)
            .with_memory_kind(MemoryKind::Uram)
            .with_bfp(storage_bfp());
        let demand = vfpga_accel::estimate_resources(&cfg);
        let device_types = if tiles <= 13 { 2.0 } else { 1.0 };
        baseline_seconds += device_types * compiler.compile_seconds(&demand);
    }

    // Scale-down: each instance offers 1-of-2 and 1-of-4 variants; shared
    // across the family by (scaled) tile count.
    let mut distinct: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
    for &tiles in &tile_family {
        for parts in [2usize, 4] {
            distinct.insert((tiles / parts).max(1));
        }
    }
    let mut scaledown_seconds = 0.0;
    for &tiles in &distinct {
        let cfg = AcceleratorConfig::new("scaled", tiles)
            .with_memory_kind(MemoryKind::Uram)
            .with_bfp(storage_bfp());
        let demand = vfpga_accel::estimate_resources(&cfg);
        // Small scaled-down units fit both device types.
        scaledown_seconds += 2.0 * compiler.compile_seconds(&demand);
    }

    let tool_fraction = (tile_family.len() as f64 * tool_seconds) / baseline_seconds;
    let total_overhead_fraction =
        (tile_family.len() as f64 * tool_seconds + scaledown_seconds) / baseline_seconds;
    OverheadReport {
        tool_seconds,
        tool_leaves: decomp.stats.data_leaves,
        tool_blocks: decomp.tree.len(),
        baseline_seconds,
        tool_fraction,
        scaledown_seconds,
        total_overhead_fraction,
        scaledown_fraction: scaledown_seconds / baseline_seconds,
        instances: tile_family.len(),
        distinct_scaledowns: distinct.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tool_time_is_negligible_and_total_overhead_modest() {
        let r = report();
        // The paper: decompose+partition < 1% of compile time.
        assert!(r.tool_fraction < 0.01, "tool fraction {}", r.tool_fraction);
        // The paper reports 24.6% with amortization; our compile-cost model
        // (large fixed base per run) lands higher, but the shape — a
        // sub-2x, amortizable overhead rather than a multiplicative
        // blowup — must hold. EXPERIMENTS.md discusses the gap.
        assert!(
            r.total_overhead_fraction > 0.02 && r.total_overhead_fraction < 0.95,
            "total overhead {}",
            r.total_overhead_fraction
        );
        assert!(r.distinct_scaledowns < r.instances * 2);
    }
}
