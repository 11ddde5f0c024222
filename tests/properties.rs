//! Property-based tests over the framework's core invariants.
//!
//! These were originally proptest strategies; the container builds offline,
//! so they now run as deterministic seeded sweeps over the in-repo
//! [`vfpga::sim::Rng`] (plus exhaustive enumeration where the domain is
//! small enough, e.g. all 2^16 f16 bit patterns).

use vfpga::core::scaleout::{insert_communication, remote_window, reorder_for_overlap};
use vfpga::isa::{
    assemble, decode, encode, BfpFormat, BfpVector, Instruction, IsaConfig, MReg, Program, VReg,
    F16,
};
use vfpga::sim::Rng;
use vfpga::workload::SliceSpec;

// ---- f16 ----------------------------------------------------------------

/// Every finite f16 survives the f16 -> f32 -> f16 round trip exactly.
#[test]
fn f16_round_trip() {
    for bits in 0..=u16::MAX {
        let h = F16::from_bits(bits);
        if h.is_nan() {
            assert!(F16::from_f32(h.to_f32()).is_nan());
        } else {
            assert_eq!(F16::from_f32(h.to_f32()).to_bits(), bits);
        }
    }
}

/// Conversion from f32 never increases magnitude beyond the next
/// representable value, and ordering is preserved.
#[test]
fn f16_conversion_monotone() {
    let mut rng = Rng::seed_from_u64(0x16_c0);
    for _ in 0..4096 {
        let a = rng.range_f32(-1e4, 1e4);
        let b = rng.range_f32(-1e4, 1e4);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let (hl, hh) = (F16::from_f32(lo), F16::from_f32(hi));
        assert!(
            hl.to_f32() <= hh.to_f32() || (hl.to_f32() - hh.to_f32()).abs() < 1e-6,
            "{lo} -> {} vs {hi} -> {}",
            hl.to_f32(),
            hh.to_f32()
        );
    }
}

/// Negation is exact and self-inverse.
#[test]
fn f16_negation_involution() {
    for bits in 0..=u16::MAX {
        let h = F16::from_bits(bits);
        assert_eq!((-(-h)).to_bits(), h.to_bits());
    }
}

// ---- block floating point ------------------------------------------------

/// Quantization error stays within the format's bound for every block.
#[test]
fn bfp_error_bound() {
    let mut rng = Rng::seed_from_u64(0xbf9);
    for case in 0..512 {
        let mantissa_bits = 4 + (case % 8) as u32; // 4..12
        let values: Vec<f32> = (0..16).map(|_| rng.range_f32(-1e3, 1e3)).collect();
        let fmt = BfpFormat::new(mantissa_bits, 16);
        let block = fmt.quantize(&values);
        let back = block.dequantize();
        let max_abs = values.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let bound = (f64::from(max_abs) * fmt.quantization_step()).max(1e-9);
        for (orig, deq) in values.iter().zip(&back) {
            let err = (f64::from(*orig) - f64::from(*deq)).abs();
            assert!(err <= bound * 1.0001, "err {err} > bound {bound}");
        }
    }
}

/// BFP dot products approximate the f64 reference within the accumulated
/// per-element error bound.
#[test]
fn bfp_dot_accuracy() {
    let mut rng = Rng::seed_from_u64(0xd07);
    for _ in 0..512 {
        let a: Vec<f32> = (0..32).map(|_| rng.range_f32(-1.0, 1.0)).collect();
        let b: Vec<f32> = (0..32).map(|_| rng.range_f32(-1.0, 1.0)).collect();
        let fmt = BfpFormat::MS_FP9;
        let va = BfpVector::from_f32(fmt, &a);
        let vb = BfpVector::from_f32(fmt, &b);
        let reference: f64 = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| f64::from(x) * f64::from(y))
            .sum();
        // Per element: |a||db| + |b||da| + |da||db| <= 3 * step (values <= 1).
        let bound = 32.0 * 3.0 * fmt.quantization_step() + 1e-9;
        assert!((va.dot(&vb) - reference).abs() <= bound);
    }
}

// ---- instruction encoding -------------------------------------------------

fn random_instruction(rng: &mut Rng) -> Instruction {
    match rng.below(9) {
        0 => Instruction::VLoad {
            dst: VReg(rng.next_u8()),
            addr: rng.next_u64() as u32,
        },
        1 => Instruction::VStore {
            src: VReg(rng.next_u8()),
            addr: rng.next_u64() as u32,
        },
        2 => Instruction::MvMul {
            dst: VReg(rng.next_u8()),
            mat: MReg(rng.next_u16()),
            src: VReg(rng.next_u8()),
        },
        3 => Instruction::VAdd {
            dst: VReg(rng.next_u8()),
            a: VReg(rng.next_u8()),
            b: VReg(rng.next_u8()),
        },
        4 => Instruction::VMul {
            dst: VReg(rng.next_u8()),
            a: VReg(rng.next_u8()),
            b: VReg(rng.next_u8()),
        },
        5 => Instruction::Sigmoid {
            dst: VReg(rng.next_u8()),
            src: VReg(rng.next_u8()),
        },
        6 => Instruction::Tanh {
            dst: VReg(rng.next_u8()),
            src: VReg(rng.next_u8()),
        },
        7 => Instruction::Nop,
        _ => Instruction::Halt,
    }
}

/// Binary encoding round-trips arbitrary programs.
#[test]
fn encode_decode_round_trip() {
    let mut rng = Rng::seed_from_u64(0xe0c);
    for _ in 0..256 {
        let len = rng.below(200);
        let p = Program::new((0..len).map(|_| random_instruction(&mut rng)).collect());
        let bytes = encode(&p);
        let q = decode(&bytes).unwrap();
        assert_eq!(p, q);
    }
}

/// The textual assembler round-trips arbitrary programs.
#[test]
fn asm_round_trip() {
    let mut rng = Rng::seed_from_u64(0xa53);
    for _ in 0..256 {
        let len = rng.below(100);
        let p = Program::new((0..len).map(|_| random_instruction(&mut rng)).collect());
        let q = assemble(&p.to_string()).unwrap();
        assert_eq!(p, q);
    }
}

// ---- dependency-preserving reordering --------------------------------------

/// Constrained register/address space to force plenty of dependencies.
fn random_small_program(rng: &mut Rng) -> Program {
    let len = 1 + rng.below(59);
    let insts = (0..len)
        .map(|_| match rng.below(5) {
            0 => Instruction::VLoad {
                dst: VReg(rng.below(6) as u8),
                addr: rng.below(8) as u32,
            },
            1 => Instruction::VStore {
                src: VReg(rng.below(6) as u8),
                addr: rng.below(8) as u32,
            },
            2 => Instruction::MvMul {
                dst: VReg(rng.below(6) as u8),
                mat: MReg(rng.below(4) as u16),
                src: VReg(rng.below(6) as u8),
            },
            3 => Instruction::VAdd {
                dst: VReg(rng.below(6) as u8),
                a: VReg(rng.below(6) as u8),
                b: VReg(rng.below(6) as u8),
            },
            _ => Instruction::Tanh {
                dst: VReg(rng.below(6) as u8),
                src: VReg(rng.below(6) as u8),
            },
        })
        .collect();
    Program::new(insts)
}

/// The overlap reordering always produces a dependency-valid program with
/// the same multiset of instructions.
#[test]
fn reorder_preserves_dependencies() {
    let mut rng = Rng::seed_from_u64(0x5eed);
    for _ in 0..256 {
        let p = random_small_program(&mut rng);
        let isa = IsaConfig::default();
        let window = remote_window(&isa, 0, 2).unwrap();
        // Treat slot 0 as exchanged state to create sends/recvs.
        let with_comm = insert_communication(&p, &[0], &window).unwrap();
        // `reordered` internally validates against the dependency graph;
        // an Err here would mean the tool broke the program.
        let reordered = reorder_for_overlap(&with_comm, &window).unwrap();
        assert_eq!(reordered.len(), with_comm.len());
        let mut a: Vec<String> = with_comm.iter().map(|i| i.to_string()).collect();
        let mut b: Vec<String> = reordered.iter().map(|i| i.to_string()).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }
}

// ---- row slicing ------------------------------------------------------------

/// Machine row ranges always partition the row space contiguously.
#[test]
fn slices_partition_rows() {
    let mut rng = Rng::seed_from_u64(0x51ce);
    for case in 0..2048 {
        let rows = 1 + rng.below(3999);
        let machines = 1 + (case % 8);
        let mut expected_start = 0;
        for m in 0..machines {
            let (s, e) = SliceSpec::new(m, machines).row_range(rows);
            assert_eq!(s, expected_start);
            assert!(e >= s);
            expected_start = e;
        }
        assert_eq!(expected_start, rows);
    }
}

// ---- decomposer invariants on generated farms -------------------------------

/// Decomposing a generated split/lanes/join farm always yields a
/// pipeline-of-data tree with exactly the constructed leaves, with
/// resources conserved.
#[test]
fn decomposer_invariants_on_random_farms() {
    use vfpga::core::{decompose, DecomposeOptions, Pattern};
    use vfpga::fabric::ResourceVec;
    use vfpga::rtl::parse;

    let mut rng = Rng::seed_from_u64(0xfa39);
    for _ in 0..24 {
        let lanes = 2 + rng.below(5); // 2..7
        let stages = 2 + rng.below(4); // 2..6
        let width_log2 = 3 + rng.below(5) as u32; // 3..8

        let w = 1u32 << width_log2;
        let mut src = String::new();
        src.push_str(
            "module cseq #(behavior=\"seq\") (input [7:0] i, output [7:0] o); endmodule\n",
        );
        src.push_str(
            "module ctrl (input [7:0] instr, output [7:0] go); cseq u (.i(instr), .o(go)); endmodule\n",
        );
        for s in 0..stages {
            src.push_str(&format!(
                "module st{s} #(behavior=\"st{s}\") (input [{hi}:0] x, output [{hi}:0] y); endmodule\n",
                hi = w - 1
            ));
        }
        src.push_str(&format!(
            "module lane (input [{hi}:0] x, output [{hi}:0] y);\n",
            hi = w - 1
        ));
        for s in 0..stages.saturating_sub(1) {
            src.push_str(&format!("  wire [{hi}:0] t{s};\n", hi = w - 1));
        }
        for s in 0..stages {
            let input = if s == 0 {
                "x".to_string()
            } else {
                format!("t{}", s - 1)
            };
            let output = if s == stages - 1 {
                "y".to_string()
            } else {
                format!("t{s}")
            };
            src.push_str(&format!("  st{s} u{s} (.x({input}), .y({output}));\n"));
        }
        src.push_str("endmodule\n");
        src.push_str(&format!(
            "module split #(behavior=\"split\") (input [{hi}:0] x, output [{hi}:0] y); endmodule\n\
             module join #(behavior=\"join\") (input [{hi}:0] x, output [{hi}:0] y); endmodule\n",
            hi = w - 1
        ));
        src.push_str(&format!(
            "module dp (input [{hi}:0] din, input [7:0] go, output [{hi}:0] dout);\n",
            hi = w - 1
        ));
        src.push_str(&format!(
            "  wire [{hi}:0] xs;\n  wire [{hi}:0] ys;\n",
            hi = w - 1
        ));
        src.push_str("  split sp (.x(din), .y(xs));\n");
        for l in 0..lanes {
            src.push_str(&format!("  lane l{l} (.x(xs), .y(ys));\n"));
        }
        src.push_str("  join jo (.x(ys), .y(dout));\nendmodule\n");
        src.push_str(&format!(
            "module top (input [7:0] instr, input [{hi}:0] din, output [{hi}:0] dout);\n\
             \x20 wire [7:0] go;\n\
             \x20 ctrl c (.instr(instr), .go(go));\n\
             \x20 dp d (.din(din), .go(go), .dout(dout));\nendmodule\n",
            hi = w - 1
        ));

        let design = parse(&src).unwrap();
        let unit = |_: &vfpga::rtl::FlatNode| ResourceVec {
            luts: 100,
            ffs: 100,
            bram_kb: 1,
            uram_kb: 0,
            dsps: 1,
        };
        let opts = DecomposeOptions::new("ctrl");
        let d = decompose(&design, "top", &opts, &unit).unwrap();
        // Leaves: split + lanes*stages + join.
        assert_eq!(d.tree.leaf_count(), 2 + lanes * stages);
        // Resources conserved.
        assert_eq!(
            d.tree.root_block().resources.luts,
            100 * (2 + lanes * stages) as u64
        );
        // The root is always a pipeline exposing the farm's data
        // parallelism underneath. With three or more lanes the lanes group
        // first (pipeline [split, data(lane-pipelines), join]); with two
        // lanes the block graph is one cycle and the relaxed fallback
        // groups per *stage* instead (pipeline [split, data, data, ...,
        // join]). Both are valid soft-block decompositions.
        let root = d.tree.root_block();
        assert_eq!(root.pattern(), Some(Pattern::Pipeline));
        if lanes >= 3 {
            assert_eq!(root.children().len(), 3);
            let mid = d.tree.block(root.children()[1]);
            assert_eq!(mid.pattern(), Some(Pattern::Data));
            assert_eq!(mid.children().len(), lanes);
            let lane = d.tree.block(mid.children()[0]);
            assert_eq!(lane.children().len(), stages);
        } else {
            // Two-lane farms decompose via the relaxed fallback; the exact
            // nesting varies, but the data parallelism must be captured:
            // every lane leaf sits under some data node of width `lanes`.
            let data_nodes = d
                .tree
                .iter()
                .filter(|b| b.pattern() == Some(Pattern::Data))
                .count();
            assert!(data_nodes >= 1, "no data parallelism found");
            for b in d.tree.iter() {
                if b.pattern() == Some(Pattern::Data) {
                    assert_eq!(b.children().len(), lanes);
                }
            }
        }
    }
}

/// The partitioner conserves resources across any unit count it offers.
#[test]
fn partitioner_conserves_resources() {
    use vfpga::core::{partition, reduction};
    use vfpga::fabric::ResourceVec;
    for lanes in 2usize..9 {
        for iterations in 1usize..4 {
            let width = 1usize << lanes.min(5);
            let tree = reduction(
                width.max(4),
                ResourceVec {
                    luts: 64,
                    ffs: 64,
                    bram_kb: 0,
                    uram_kb: 0,
                    dsps: 2,
                },
                16,
            );
            let plan = partition(&tree, iterations);
            let total = tree.root_block().resources;
            for units in 1..=plan.max_units() {
                let parts = plan.units_for(units).unwrap();
                let sum: u64 = parts.iter().map(|p| p.resources.luts).sum();
                assert_eq!(sum, total.luts, "units={units}");
            }
        }
    }
}

// ---- fuzz counterexamples ----------------------------------------------
//
// Shrunk inputs harvested from the differential fuzzer (crates/fuzz) run
// against deliberately mutated code, checked in as concrete regression
// tests so the classes of bug they expose stay dead even when the fuzzer
// itself is not running.

/// Counterexample from the partition-conservation oracle (seed 42, case
/// 0) against a data-split mutant that dropped the last child: the
/// smallest tree where left + right must equal the parent is a two-leaf
/// data block with asymmetric resources.
#[test]
fn fuzz_counterexample_two_leaf_data_split_conserves_resources() {
    use vfpga::core::{partition, Pattern, SoftBlock, SoftBlockId, SoftBlockKind, SoftBlockTree};
    use vfpga::fabric::ResourceVec;

    let leaf = |id: usize, luts: u64, ffs: u64| SoftBlock {
        id: SoftBlockId(id),
        kind: SoftBlockKind::Leaf {
            path: format!("u{id}"),
            module: "m".into(),
            behavior: None,
        },
        resources: ResourceVec {
            luts,
            ffs,
            ..ResourceVec::default()
        },
    };
    let root_resources = ResourceVec {
        luts: 3,
        ffs: 1,
        ..ResourceVec::default()
    };
    let tree = SoftBlockTree::new(
        vec![
            leaf(0, 2, 0),
            leaf(1, 1, 1),
            SoftBlock {
                id: SoftBlockId(2),
                kind: SoftBlockKind::Composite {
                    pattern: Pattern::Data,
                    children: vec![SoftBlockId(0), SoftBlockId(1)],
                    link_widths: vec![],
                },
                resources: root_resources,
            },
        ],
        SoftBlockId(2),
    );
    let plan = partition(&tree, 4);
    assert_eq!(plan.root().resources, root_resources);
    let split = plan.root().split.as_ref().expect("data root splits");
    let mut sum = split.left.resources;
    sum += split.right.resources;
    assert_eq!(sum, root_resources, "split must conserve resources");
    let clusters = plan.units_for(2).unwrap();
    let total: ResourceVec = clusters.iter().map(|c| c.resources).sum();
    assert_eq!(total, root_resources);
}

/// Counterexample from the hsabs-slots oracle (seed 42, case 0) against
/// an occupancy mutant that kept counting failed devices as capacity:
/// one allocation on a healthy device plus one failed empty device is
/// enough to tell degraded-mode occupancy from the naive ratio.
#[test]
fn fuzz_counterexample_occupancy_excludes_failed_devices() {
    use vfpga::fabric::{Cluster, DeviceId, DeviceType};
    use vfpga::hsabs::{HsCompiler, LowLevelController, VirtualBlockSpec};

    let dt = DeviceType::xcvu37p();
    let cluster = Cluster::new(vec![dt.clone(), dt.clone(), dt.clone()]);
    let mut ctl = LowLevelController::new(&cluster);
    let spec = VirtualBlockSpec::for_device(&dt);
    let slot = *spec.slot_resources();
    let demand = vfpga::fabric::ResourceVec {
        luts: slot.luts * 2,
        ffs: slot.ffs * 2,
        bram_kb: slot.bram_kb * 2,
        uram_kb: slot.uram_kb * 2,
        dsps: slot.dsps * 2,
    };
    let image = HsCompiler::default()
        .compile("fuzz-ce", &demand, &dt)
        .unwrap();
    let blocks = image.blocks();
    ctl.configure(DeviceId(0), &image).unwrap();
    ctl.evict_device(DeviceId(2));
    // Two healthy devices remain; the failed (empty) third must not
    // dilute the ratio.
    let healthy_slots = ctl.slots_total(DeviceId(0)) + ctl.slots_total(DeviceId(1));
    let want = blocks as f64 / healthy_slots as f64;
    assert!(
        (ctl.occupancy() - want).abs() < 1e-12,
        "occupancy {} should be {want} over healthy capacity only",
        ctl.occupancy()
    );
}
