//! Regeneration of the paper's Tables 2, 3, and 4.

use vfpga_accel::Implementation;
use vfpga_fabric::{DeviceType, ResourceVec};
use vfpga_sim::SimTime;
use vfpga_workload::{table4_tasks, RnnTask};

use crate::catalog::{baseline_configs, Catalog};

/// One row of Table 2: a baseline accelerator implementation.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Instance name (BW-V37 / BW-K115).
    pub name: String,
    /// Target device.
    pub device: DeviceType,
    /// MVM tile count.
    pub tiles: usize,
    /// Resource usage.
    pub resources: ResourceVec,
    /// Utilization fractions: (LUTs, FFs, BRAM, URAM, DSPs).
    pub utilization: (f64, f64, f64, f64, f64),
    /// Clock frequency (MHz).
    pub freq_mhz: f64,
    /// Peak TFLOPS.
    pub peak_tflops: f64,
}

/// Regenerates Table 2.
pub fn table2() -> Vec<Table2Row> {
    baseline_configs()
        .into_iter()
        .map(|(config, device)| {
            let imp = Implementation::implement(&config, &device, true)
                .expect("baseline fits its device");
            Table2Row {
                name: config.name.clone(),
                tiles: config.tiles,
                utilization: imp.utilization(),
                resources: imp.resources,
                freq_mhz: imp.freq_mhz,
                peak_tflops: imp.peak_tflops,
                device,
            }
        })
        .collect()
}

/// One row of Table 3: one virtual block of the decomposed accelerator on
/// ViTAL.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Target device.
    pub device: DeviceType,
    /// Resources in one virtual block.
    pub per_block: ResourceVec,
    /// Utilization of the virtual-block region: (LUTs, FFs, BRAM, URAM,
    /// DSPs).
    pub utilization: (f64, f64, f64, f64, f64),
    /// Number of virtual blocks the accelerator occupies.
    pub blocks: usize,
    /// Clock frequency (MHz).
    pub freq_mhz: f64,
    /// Peak TFLOPS contributed per virtual block.
    pub peak_tflops: f64,
}

/// Regenerates Table 3: maps each baseline accelerator onto its device's
/// virtual blocks and reports the per-block usage.
pub fn table3() -> Vec<Table3Row> {
    let compiler = vfpga_hsabs::HsCompiler::default();
    baseline_configs()
        .into_iter()
        .map(|(config, device)| {
            let (decomp, _) = Catalog::compile_instance(&config, 1, None);
            let total = decomp.total_resources();
            let image = compiler
                .compile(&config.name, &total, &device)
                .expect("decomposed baseline fits its device");
            let blocks = image.blocks();
            let per_block = total.div_ceil(blocks as u64);
            let slot = device.slot_resources();
            let frac = |used: u64, cap: u64| {
                if cap == 0 {
                    0.0
                } else {
                    used as f64 / cap as f64
                }
            };
            let utilization = (
                frac(per_block.luts, slot.luts),
                frac(per_block.ffs, slot.ffs),
                frac(per_block.bram_kb, slot.bram_kb),
                frac(per_block.uram_kb, slot.uram_kb),
                frac(per_block.dsps, slot.dsps),
            );
            let peak_tflops = config.peak_tflops(device.freq_mhz()) / blocks as f64;
            Table3Row {
                per_block,
                utilization,
                blocks,
                freq_mhz: device.freq_mhz(),
                peak_tflops,
                device,
            }
        })
        .collect()
}

/// One row of Table 4: batch-1 inference latency, baseline vs this work.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// The benchmark layer.
    pub task: RnnTask,
    /// Device name.
    pub device: String,
    /// Latency of the unvirtualized baseline; `None` when the model does
    /// not fit the device (the paper's "-").
    pub baseline: Option<SimTime>,
    /// Latency under the framework.
    pub this_work: Option<SimTime>,
    /// Relative overhead.
    pub overhead: Option<f64>,
}

/// Regenerates Table 4 using the catalog's timing model: the baseline runs
/// with zero interface crossings, this work with the pattern-aware
/// partitioner's crossing count.
pub fn table4(catalog: &Catalog) -> Vec<Table4Row> {
    let mut rows = Vec::new();
    for task in table4_tasks() {
        for (config, device) in baseline_configs() {
            let needed: u64 = task
                .matrix_shapes()
                .iter()
                .map(|&(r, c)| config.matrix_storage_kb(r, c))
                .sum();
            if needed > config.weight_memory_kb {
                rows.push(Table4Row {
                    task,
                    device: device.name().to_string(),
                    baseline: None,
                    this_work: None,
                    overhead: None,
                });
                continue;
            }
            let name = catalog.baseline_instance_name(device.name());
            let base = catalog.task_latency(&task, name, device.freq_mhz(), 0);
            let virt = catalog.task_latency(
                &task,
                name,
                device.freq_mhz(),
                vfpga_core::PATTERN_AWARE_CROSSINGS,
            );
            let overhead = (virt.as_secs() - base.as_secs()) / base.as_secs();
            rows.push(Table4Row {
                task,
                device: device.name().to_string(),
                baseline: Some(base),
                this_work: Some(virt),
                overhead: Some(overhead),
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_reproduces_tile_counts_and_tflops() {
        let rows = table2();
        assert_eq!(rows.len(), 2);
        let v37 = &rows[0];
        assert_eq!(v37.tiles, 21);
        assert_eq!(v37.freq_mhz, 400.0);
        assert!(
            (30.0..40.0).contains(&v37.peak_tflops),
            "{}",
            v37.peak_tflops
        );
        let k115 = &rows[1];
        assert_eq!(k115.tiles, 13);
        assert_eq!(k115.freq_mhz, 300.0);
        assert!((14.0..19.0).contains(&k115.peak_tflops));
        // DSP utilization is the binding constraint, high on both.
        assert!(v37.utilization.4 > 0.75);
        assert!(k115.utilization.4 > 0.80);
    }

    #[test]
    fn table3_blocks_and_throughput_divide() {
        let rows = table3();
        for r in &rows {
            assert!(r.blocks > 1);
            assert!(r.peak_tflops > 0.5 && r.peak_tflops < 10.0);
            // Per-block DSP utilization is high (dense mapping).
            assert!(r.utilization.4 > 0.5, "dsp util {}", r.utilization.4);
        }
    }

    #[test]
    fn table4_has_marginal_overhead_and_ku115_gap() {
        let catalog = Catalog::build();
        let rows = table4(&catalog);
        assert_eq!(rows.len(), 14);
        // LSTM h=1536 must not fit the KU115 (the paper's "-").
        let lstm1536_ku = rows
            .iter()
            .find(|r| {
                r.task.hidden == 1536
                    && r.task.kind == vfpga_workload::RnnKind::Lstm
                    && r.device == "XCKU115"
            })
            .unwrap();
        assert!(lstm1536_ku.baseline.is_none());
        // Every fitting row shows single-digit-percent overhead and the
        // VU37P is faster than the KU115 on the same task.
        for r in &rows {
            if let Some(overhead) = r.overhead {
                assert!((0.0..0.15).contains(&overhead), "{}: {overhead}", r.task);
            }
        }
        for task in vfpga_workload::table4_tasks() {
            let of = |dev: &str| {
                rows.iter()
                    .find(|r| r.task == task && r.device == dev)
                    .and_then(|r| r.baseline)
            };
            if let (Some(vu), Some(ku)) = (of("XCVU37P"), of("XCKU115")) {
                assert!(vu < ku, "{task}: VU37P should be faster");
            }
        }
    }
}
