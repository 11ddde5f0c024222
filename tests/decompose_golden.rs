//! Golden fingerprints of the bottom-up decomposer.
//!
//! Every decomposition below is folded into an FNV-1a digest: the rendered
//! tree, each block's resources, each leaf's path/module/behavior, each
//! pipeline's link widths, the statistics, the control resources and the
//! partitioner's unit count at three iterations. The digests pin today's
//! decisions, so a refactor of the decomposer that changes any tree, any
//! arena id or any number fails here.
//!
//! Cases: generated accelerators (tiles 1..=21, URAM and BRAM weight
//! memory, scaled down by 1, 2 and 4) with the catalog's options and with
//! bare options, each decomposed directly and after a `to_source` →
//! `parse` round trip; and seeded `vfpga_hls::Dataflow` graphs mixing
//! stages, maps and reduces over arbitrary earlier wires, some with a
//! registered lane count.

use vfpga::accel::{
    generate_rtl, leaf_resource_estimator, AcceleratorConfig, CONTROL_PATH_MODULE,
    MOVED_TO_CONTROL, TOP_MODULE,
};
use vfpga::core::{decompose, partition, DecomposeOptions, Decomposition, SoftBlockKind};
use vfpga::fabric::{MemoryKind, ResourceVec};
use vfpga::hls::Dataflow;
use vfpga::rtl::{parse, Design, FlatNode};
use vfpga::sim::Rng;

/// FNV-1a over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn resources(&mut self, r: &ResourceVec) {
        for v in [r.luts, r.ffs, r.bram_kb, r.uram_kb, r.dsps] {
            self.u64(v);
        }
    }
}

fn fingerprint(h: &mut Fnv, d: &Decomposition) {
    let tree = &d.tree;
    h.str(&tree.render());
    h.u64(tree.root().0 as u64);
    for b in tree.iter() {
        h.u64(b.id.0 as u64);
        h.resources(&b.resources);
        match &b.kind {
            SoftBlockKind::Leaf {
                path,
                module,
                behavior,
            } => {
                h.str(path);
                h.str(module);
                h.str(behavior.as_deref().unwrap_or("<none>"));
            }
            SoftBlockKind::Composite {
                pattern,
                children,
                link_widths,
            } => {
                h.str(&pattern.to_string());
                h.u64(children.len() as u64);
                for c in children {
                    h.u64(c.0 as u64);
                }
                h.u64(link_widths.len() as u64);
                for &w in link_widths {
                    h.u64(w);
                }
            }
        }
    }
    let s = &d.stats;
    for v in [
        s.data_leaves,
        s.control_leaves,
        s.data_groups,
        s.pipeline_groups,
        s.rounds,
    ] {
        h.u64(v as u64);
    }
    h.resources(&d.control_resources);
    h.u64(partition(tree, 3).max_units() as u64);
}

/// Decomposes `design` directly and after a source round trip, folding
/// both into `h`; returns the number of decompositions.
fn both_ways(
    h: &mut Fnv,
    design: &Design,
    top: &str,
    opts: &DecomposeOptions,
    est: &dyn Fn(&FlatNode) -> ResourceVec,
) -> usize {
    let reparsed = parse(&design.to_source()).expect("emitted source parses");
    for d in [design, &reparsed] {
        let dec = decompose(d, top, opts, est).expect("design decomposes");
        fingerprint(h, &dec);
    }
    2
}

fn accelerator_digest() -> (u64, usize) {
    let mut h = Fnv::new();
    let mut cases = 0;
    for tiles in 1..=21 {
        for kind in [MemoryKind::Uram, MemoryKind::Bram] {
            for parts in [1, 2, 4] {
                let cfg = AcceleratorConfig::new(format!("g{tiles}"), tiles)
                    .with_memory_kind(kind)
                    .scaled_down(parts);
                let design = generate_rtl(&cfg);
                let est = leaf_resource_estimator(&cfg);
                let mut catalog = DecomposeOptions::new(CONTROL_PATH_MODULE);
                catalog.move_to_control = MOVED_TO_CONTROL.iter().map(|s| s.to_string()).collect();
                catalog
                    .intra_parallelism
                    .insert("dpu_array".to_string(), cfg.rows_per_cycle);
                let bare = DecomposeOptions::new(CONTROL_PATH_MODULE);
                for opts in [&catalog, &bare] {
                    cases += both_ways(&mut h, &design, TOP_MODULE, opts, &est);
                }
            }
        }
    }
    (h.0, cases)
}

/// A resource estimate that depends on the leaf's behavior, so blocks of
/// different kernels carry different numbers.
fn kernel_resources(node: &FlatNode) -> ResourceVec {
    let k: u64 = node
        .behavior
        .unwrap_or(node.module)
        .bytes()
        .map(u64::from)
        .sum();
    ResourceVec {
        luts: 100 + k,
        ffs: 50 + 2 * k,
        bram_kb: k % 7,
        uram_kb: k % 3,
        dsps: k % 5,
    }
}

fn dataflow_digest(count: u64) -> (u64, usize) {
    const KERNELS: [&str; 5] = ["fa", "fb", "fc", "mix", "acc"];
    const WIDTHS: [u32; 4] = [16, 32, 64, 128];
    let mut h = Fnv::new();
    let mut cases = 0;
    for seed in 0..count {
        let mut rng = Rng::seed_from_u64(0xdec0_0000 + seed);
        let mut g = Dataflow::new(format!("g{seed}"));
        let mut wires = vec![g.input(WIDTHS[rng.below(WIDTHS.len())])];
        let ops = 1 + rng.below(8);
        for _ in 0..ops {
            // Mostly chain from the latest wire; sometimes branch from an
            // earlier one so the block graph is not a pure series.
            let from = if rng.below(4) == 0 {
                wires[rng.below(wires.len())]
            } else {
                *wires.last().expect("input wire")
            };
            let kernel = KERNELS[rng.below(KERNELS.len())];
            let width = WIDTHS[rng.below(WIDTHS.len())];
            let w = match rng.below(3) {
                0 => g.stage(kernel, from, width),
                1 => g.map(kernel, from, 1 + rng.below(5), width),
                _ => g.reduce(kernel, from, width),
            };
            wires.push(w);
        }
        g.output(*wires.last().expect("output wire"));
        let design = g.lower().expect("dataflow lowers");
        let (top, ctrl) = g.module_names();
        let mut opts = DecomposeOptions::new(ctrl);
        if rng.below(3) == 0 {
            let kernel = KERNELS[rng.below(KERNELS.len())];
            opts.intra_parallelism
                .insert(kernel.to_string(), 2 + rng.below(3));
        }
        cases += both_ways(&mut h, &design, &top, &opts, &kernel_resources);
    }
    (h.0, cases)
}

#[test]
fn generated_accelerator_decompositions_are_pinned() {
    let (digest, cases) = accelerator_digest();
    assert_eq!(cases, 21 * 2 * 3 * 2 * 2);
    assert_eq!(
        digest, 0x4ed6_9daa_dc2a_3c35,
        "accelerator decomposition digest moved"
    );
}

#[test]
fn dataflow_decompositions_are_pinned() {
    let (digest, cases) = dataflow_digest(200);
    assert_eq!(cases, 400);
    assert_eq!(
        digest, 0x925b_da6f_6151_148f,
        "dataflow decomposition digest moved"
    );
}
