//! Ablations of the design decisions DESIGN.md calls out.
//!
//! D2 (allocation policy) is measured by the Fig. 12 policies themselves
//! (see [`crate::fig12`]); D5 (RTL-level decomposition reuse: the
//! decomposition is computed once and compiled per device type) by
//! [`crate::overhead`].

use vfpga_accel::{AcceleratorConfig, CycleSim, TimingModel};
use vfpga_core::{PATTERN_AWARE_CROSSINGS, PATTERN_OBLIVIOUS_CROSSINGS};
use vfpga_sim::SimTime;
use vfpga_workload::{generate_program, RnnKind, RnnTask, SliceSpec};

use crate::catalog::{storage_bfp, Catalog};
use crate::fig11;

/// D1 — pattern-aware vs pattern-oblivious partitioning: the virtualization
/// overhead each induces on a representative task (Table 4's mechanism).
#[derive(Debug, Clone, Copy)]
pub struct PartitionerAblation {
    /// Overhead fraction with the framework's pattern-aware partitioner.
    pub aware_overhead: f64,
    /// Overhead fraction when a SIMD unit's pipeline is split across
    /// virtual blocks (a pattern-oblivious tool).
    pub oblivious_overhead: f64,
}

/// Runs the D1 ablation.
pub fn partitioner(catalog: &Catalog) -> PartitionerAblation {
    let task = RnnTask::new(RnnKind::Gru, 1024, 64);
    let name = catalog.instance_for(&task);
    let base = catalog.task_latency(&task, name, 400.0, 0).as_secs();
    let aware = catalog
        .task_latency(&task, name, 400.0, PATTERN_AWARE_CROSSINGS)
        .as_secs();
    let oblivious = catalog
        .task_latency(&task, name, 400.0, PATTERN_OBLIVIOUS_CROSSINGS)
        .as_secs();
    PartitionerAblation {
        aware_overhead: aware / base - 1.0,
        oblivious_overhead: oblivious / base - 1.0,
    }
}

/// D3 — instruction reordering: two-FPGA latency with and without the
/// overlap optimization at a fixed added link latency.
#[derive(Debug, Clone, Copy)]
pub struct ReorderAblation {
    /// Latency with reordering.
    pub optimized: SimTime,
    /// Latency without.
    pub plain: SimTime,
}

/// Runs the D3 ablation.
pub fn reordering() -> ReorderAblation {
    let task = RnnTask::new(RnnKind::Lstm, 1024, 16);
    let added = [SimTime::from_ns(800.0)];
    let optimized = fig11::sweep(task, 2, &added, true).points[0].latency;
    let plain = fig11::sweep(task, 2, &added, false).points[0].latency;
    ReorderAblation { optimized, plain }
}

/// D4 — the instruction buffer: single-task latency with and without it
/// (without the buffer every instruction fetch goes to shared DRAM).
#[derive(Debug, Clone, Copy)]
pub struct BufferAblation {
    /// Latency with the instruction buffer.
    pub with_buffer: SimTime,
    /// Latency fetching from DRAM.
    pub without_buffer: SimTime,
}

/// Runs the D4 ablation.
pub fn instruction_buffer() -> BufferAblation {
    let task = RnnTask::new(RnnKind::Lstm, 512, 25);
    let rnn = generate_program(task, SliceSpec::FULL);
    let run = |config: &AcceleratorConfig| {
        let model = TimingModel::for_config(config, 400.0);
        let mut sim = CycleSim::new(
            model,
            &rnn.program,
            rnn.mat_shapes.clone(),
            rnn.dram_lens.clone(),
        );
        sim.run_local()
    };
    let with = AcceleratorConfig::new("d4", 8).with_bfp(storage_bfp());
    let without = AcceleratorConfig::new("d4", 8)
        .with_bfp(storage_bfp())
        .without_instruction_buffer();
    BufferAblation {
        with_buffer: run(&with),
        without_buffer: run(&without),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oblivious_partitioning_costs_more() {
        let catalog = Catalog::build();
        let a = partitioner(&catalog);
        assert!(a.aware_overhead > 0.0);
        assert!(
            a.oblivious_overhead > 2.0 * a.aware_overhead,
            "aware {} vs oblivious {}",
            a.aware_overhead,
            a.oblivious_overhead
        );
    }

    #[test]
    fn reordering_hides_communication() {
        let r = reordering();
        assert!(
            r.optimized < r.plain,
            "optimized {} should beat plain {}",
            r.optimized,
            r.plain
        );
    }

    #[test]
    fn instruction_buffer_pays_off() {
        let b = instruction_buffer();
        assert!(b.with_buffer < b.without_buffer);
    }
}
