//! Structure-aware case generators.
//!
//! Each generator draws from a caller-provided [`Rng`] stream and builds a
//! case that is *valid by construction* (it assembles, its tree is
//! well-formed, its arrivals are time-ordered) but adversarial in shape:
//! lone composite children, non-power-of-two dimensions, degenerate
//! one-step sequences, oversize configure requests, quiescent fault plans.
//! Validity lives here so every oracle failure is a real invariant
//! violation, not a malformed input.

use vfpga_sim::{Json, Rng};

use crate::input::{
    CloudFault, CloudSpec, CloudTask, DataflowOp, DecompSpec, DesignSpec, FaultSpec, ProgSpec,
    RnnSpec, RollupRecord, RollupSpec, SlotOp, SlotsSpec, TreeSpec,
};

fn tree_node(rng: &mut Rng, depth: usize) -> TreeSpec {
    // Leaves get likelier as the depth budget drains.
    if depth == 0 || rng.below(depth + 1) == 0 {
        return TreeSpec::Leaf {
            luts: 100 + rng.below(20_000) as u64,
            ffs: 100 + rng.below(20_000) as u64,
            bram_kb: rng.below(2_000) as u64,
            dsps: rng.below(400) as u64,
        };
    }
    // A single child is legal and adversarial: the partitioner must
    // descend through the lone composite instead of treating it as a
    // splittable group.
    let n = 1 + rng.below(4);
    let children = (0..n).map(|_| tree_node(rng, depth - 1)).collect();
    if rng.below(2) == 0 {
        TreeSpec::Data { children }
    } else {
        let links = (0..n.saturating_sub(1))
            .map(|_| 1 + rng.below(512) as u64)
            .collect();
        TreeSpec::Pipeline { children, links }
    }
}

/// A random soft-block tree with mixed data/pipeline nesting.
pub fn tree(rng: &mut Rng) -> TreeSpec {
    // Force a composite root so partitioning has something to split.
    let n = 2 + rng.below(3);
    let children = (0..n).map(|_| tree_node(rng, 2)).collect();
    if rng.below(2) == 0 {
        TreeSpec::Data { children }
    } else {
        TreeSpec::Pipeline {
            links: (0..n - 1).map(|_| 1 + rng.below(512) as u64).collect(),
            children,
        }
    }
}

/// Kernel names of generated dataflow graphs.
const DATAFLOW_KERNELS: [&str; 5] = ["fa", "fb", "fc", "mix", "acc"];

/// A random decomposer case, drawn like the golden decomposition test's
/// cases: a third are generated accelerators (1 to 21 tiles, URAM or BRAM
/// weight memory, scaled down by 1, 2 or 4, catalog or bare options), the
/// rest dataflow graphs of stages, maps and reduces that mostly chain from
/// the latest wire but sometimes branch from an earlier one, some with a
/// kernel registered as intra-block parallel. Half are decomposed after a
/// source round trip.
pub fn decomp(rng: &mut Rng) -> DecompSpec {
    const WIDTHS: [u32; 4] = [16, 32, 64, 128];
    let design = if rng.below(3) == 0 {
        DesignSpec::Accelerator {
            tiles: 1 + rng.below(21),
            bram: rng.below(2) == 0,
            parts: [1, 2, 4][rng.below(3)],
            catalog: rng.below(2) == 0,
        }
    } else {
        let input_width = WIDTHS[rng.below(WIDTHS.len())];
        let ops = (0..1 + rng.below(8))
            .map(|k| {
                let from = if rng.below(4) == 0 {
                    rng.below(k + 1)
                } else {
                    k
                };
                let kernel = DATAFLOW_KERNELS[rng.below(DATAFLOW_KERNELS.len())].to_string();
                let width = WIDTHS[rng.below(WIDTHS.len())];
                let (op, workers) = match rng.below(3) {
                    0 => ("stage", 1),
                    1 => ("map", 1 + rng.below(5)),
                    _ => ("reduce", 1),
                };
                DataflowOp {
                    op: op.to_string(),
                    kernel,
                    from,
                    width,
                    workers,
                }
            })
            .collect();
        let lanes = (rng.below(3) == 0).then(|| {
            let kernel = DATAFLOW_KERNELS[rng.below(DATAFLOW_KERNELS.len())];
            (kernel.to_string(), 2 + rng.below(3))
        });
        DesignSpec::Dataflow {
            input_width,
            ops,
            lanes,
        }
    };
    DecompSpec {
        design,
        reparse: rng.below(2) == 0,
    }
}

/// A random scale-out RNN shape. Hidden dims are deliberately
/// non-powers-of-two (uneven row slices), sequences include the
/// degenerate single step, and the dimensions stay small enough that a
/// few hundred co-simulations finish in seconds.
pub fn rnn(rng: &mut Rng) -> RnnSpec {
    let machines = 2 + rng.below(3);
    RnnSpec {
        kind: if rng.below(2) == 0 { "gru" } else { "lstm" }.to_string(),
        // `machines..=machines+76`: every machine gets at least one row.
        hidden: machines + rng.below(77),
        timesteps: 1 + rng.below(5),
        machines,
        weight_seed: rng.next_u64(),
    }
}

/// A random assembleable ISA program over an initialized machine state:
/// `slots` DRAM input vectors and two `n x n` matrices, registers written
/// before read, ending in `halt`.
pub fn prog(rng: &mut Rng) -> ProgSpec {
    let n = 1 + rng.below(24);
    let slots = 1 + rng.below(6);
    let body_len = 3 + rng.below(30);
    let mut lines: Vec<String> = Vec::new();
    // Track which of the 8 registers hold a value (of length n).
    let mut live: Vec<usize> = Vec::new();
    for _ in 0..body_len {
        let op = if live.is_empty() { 0 } else { rng.below(6) };
        match op {
            0 => {
                let d = rng.below(8);
                lines.push(format!("vload v{d}, {}", rng.below(slots)));
                if !live.contains(&d) {
                    live.push(d);
                }
            }
            1 => {
                let d = rng.below(8);
                let s = live[rng.below(live.len())];
                lines.push(format!("mvmul v{d}, m{}, v{s}", rng.below(2)));
                if !live.contains(&d) {
                    live.push(d);
                }
            }
            2 => {
                let d = rng.below(8);
                let a = live[rng.below(live.len())];
                let b = live[rng.below(live.len())];
                let mn = ["vadd", "vsub", "vmul"][rng.below(3)];
                lines.push(format!("{mn} v{d}, v{a}, v{b}"));
                if !live.contains(&d) {
                    live.push(d);
                }
            }
            3 => {
                let d = rng.below(8);
                let s = live[rng.below(live.len())];
                let mn = ["sigmoid", "tanh", "relu", "vmov"][rng.below(4)];
                lines.push(format!("{mn} v{d}, v{s}"));
                if !live.contains(&d) {
                    live.push(d);
                }
            }
            _ => {
                let s = live[rng.below(live.len())];
                // Outputs land above the input slots so stores never
                // shadow a pending load's data unexpectedly — though
                // store-to-input is legal too; exercise it occasionally.
                let slot = if rng.below(4) == 0 {
                    rng.below(slots)
                } else {
                    64 + rng.below(8)
                };
                lines.push(format!("vstore v{s}, {slot}"));
            }
        }
    }
    lines.push("halt".to_string());
    ProgSpec {
        n,
        slots,
        data_seed: rng.next_u64(),
        order_seed: rng.next_u64(),
        asm: lines.join("\n"),
    }
}

/// A random heterogeneous cloud scenario: 2–5 devices, a task stream over
/// all three size classes, any of the three policies, and (usually) a
/// composite device/link fault plan.
pub fn cloud(rng: &mut Rng) -> CloudSpec {
    let num_devices = 2 + rng.below(4);
    let devices = (0..num_devices)
        .map(|_| if rng.below(3) == 0 { "ku115" } else { "vu37p" }.to_string())
        .collect();
    let policy = ["full", "restricted", "baseline"][rng.below(3)].to_string();
    let num_tasks = 1 + rng.below(16);
    let mut at_ns = 0u64;
    let tasks = (0..num_tasks)
        .map(|_| {
            at_ns += rng.below(300_000) as u64 * 1_000;
            CloudTask {
                at_ns,
                kind: if rng.below(2) == 0 { "gru" } else { "lstm" }.to_string(),
                hidden: [128, 512, 1024, 1536, 2048, 2560][rng.below(6)],
                timesteps: 1 + rng.below(30),
            }
        })
        .collect();
    let fault = if rng.below(4) > 0 {
        Some(CloudFault {
            seed: rng.next_u64(),
            mttf_ns: 200_000 + rng.below(5_000_000) as u64,
            mttr_ns: 50_000 + rng.below(1_000_000) as u64,
            configure_pm: rng.below(200) as u64,
            horizon_ns: 500_000 + rng.below(5_000_000) as u64,
            link_faults: rng.below(2) == 0,
        })
    } else {
        None
    };
    CloudSpec {
        devices,
        policy,
        tasks,
        fault,
        drop_on_exhaustion: rng.below(4) == 0,
    }
}

/// A saturating cloud scenario for the scheduler lockstep: 2–5 devices
/// and up to 200 tasks arriving in tight bursts, so the admission queue
/// runs past the scan window and the known-infeasible skip rule has work
/// to skip. Most cases fail and recover devices mid-burst, half of
/// those with flaky reconfiguration too. No link faults: the reference
/// scheduler does not model the ring.
pub fn saturating_cloud(rng: &mut Rng) -> CloudSpec {
    let num_devices = 2 + rng.below(4);
    let devices = (0..num_devices)
        .map(|_| if rng.below(3) == 0 { "ku115" } else { "vu37p" }.to_string())
        .collect();
    let policy = ["full", "restricted", "baseline"][rng.below(3)].to_string();
    let num_tasks = 8 + rng.below(193);
    let mut at_ns = 0u64;
    let mut tasks = Vec::with_capacity(num_tasks);
    while tasks.len() < num_tasks {
        // A burst of back-to-back arrivals, then a quiet gap.
        let burst = (1 + rng.below(120)).min(num_tasks - tasks.len());
        for _ in 0..burst {
            at_ns += rng.below(200) as u64;
            tasks.push(CloudTask {
                at_ns,
                kind: if rng.below(2) == 0 { "gru" } else { "lstm" }.to_string(),
                hidden: [128, 512, 1024, 1536, 2048, 2560][rng.below(6)],
                timesteps: 1 + rng.below(30),
            });
        }
        at_ns += rng.below(20_000) as u64;
    }
    let fault = (rng.below(4) > 0).then(|| CloudFault {
        // Within f64's exact-integer range, so a reproducer's JSON replays
        // the very same plan.
        seed: rng.next_u64() >> 11,
        mttf_ns: 5_000 + rng.below(100_000) as u64,
        mttr_ns: 1_000 + rng.below(20_000) as u64,
        configure_pm: if rng.below(2) == 0 {
            0
        } else {
            1 + rng.below(300) as u64
        },
        horizon_ns: at_ns + at_ns / 2,
        link_faults: false,
    });
    CloudSpec {
        devices,
        policy,
        tasks,
        fault,
        drop_on_exhaustion: rng.below(4) == 0,
    }
}

/// A random low-level-controller operation sequence, including oversize
/// requests (legal rejections), releases of long-gone allocations, and
/// evict/recover churn.
pub fn slots(rng: &mut Rng) -> SlotsSpec {
    let num_devices = 1 + rng.below(5);
    let devices = (0..num_devices)
        .map(|_| if rng.below(3) == 0 { "ku115" } else { "vu37p" }.to_string())
        .collect();
    let num_ops = 1 + rng.below(40);
    let ops = (0..num_ops)
        .map(|_| match rng.below(8) {
            0..=3 => SlotOp::Configure {
                device: rng.below(num_devices),
                blocks: 1 + rng.below(12),
            },
            4 | 5 => SlotOp::Release { idx: rng.below(16) },
            6 => SlotOp::Evict {
                device: rng.below(num_devices),
            },
            _ => SlotOp::Recover {
                device: rng.below(num_devices),
            },
        })
        .collect();
    SlotsSpec { devices, ops }
}

/// A random fault-plan parameterization, from near-quiescent to violently
/// churning, with and without a link schedule.
pub fn fault(rng: &mut Rng) -> FaultSpec {
    FaultSpec {
        seed: rng.next_u64(),
        devices: 1 + rng.below(8),
        mttf_ns: 10_000 + rng.below(3_000_000) as u64,
        mttr_ns: 1_000 + rng.below(500_000) as u64,
        horizon_ns: 1_000 + rng.below(10_000_000) as u64,
        links: rng.below(9),
        degraded_pm: rng.below(1001) as u64,
    }
}

fn doc_value(rng: &mut Rng, depth: usize) -> Json {
    let leafy = depth == 0 || rng.below(depth + 1) == 0;
    if leafy {
        match rng.below(5) {
            0 => Json::Null,
            1 => Json::Bool(rng.below(2) == 0),
            2 => {
                // Finite numbers only (NaN/Inf serialize as null and
                // cannot round-trip): integers of either sign, large
                // integers past the i64-printing cutoff, and fractions
                // with short binary expansions.
                match rng.below(4) {
                    0 => Json::Num(rng.below(1_000_000) as f64),
                    1 => Json::Num(-(rng.below(1_000_000) as f64)),
                    2 => Json::Num((rng.next_u64() >> 10) as f64),
                    _ => Json::Num(rng.below(1 << 20) as f64 / 1024.0),
                }
            }
            3 => Json::Str(doc_string(rng)),
            _ => Json::Arr(Vec::new()),
        }
    } else if rng.below(2) == 0 {
        let n = rng.below(5);
        Json::Arr((0..n).map(|_| doc_value(rng, depth - 1)).collect())
    } else {
        let n = rng.below(5);
        Json::Obj(
            (0..n)
                .map(|i| {
                    (
                        format!("k{i}_{}", rng.below(100)),
                        doc_value(rng, depth - 1),
                    )
                })
                .collect(),
        )
    }
}

fn doc_string(rng: &mut Rng) -> String {
    let alphabet = [
        "a", "B", "0", " ", "\"", "\\", "\n", "\t", "\r", "/", "é", "λ", "\u{1}", "\u{7f}", "🦀",
    ];
    let n = rng.below(12);
    (0..n)
        .map(|_| alphabet[rng.below(alphabet.len())])
        .collect()
}

/// A random JSON document: escapes, non-ASCII, control characters, deep
/// nesting, empty containers, and numbers on both sides of the
/// integer-printing cutoff. One document in eight is wrapped in 30–60
/// levels of single-entry arrays and objects, so pretty lines indent past
/// any fixed run of spaces.
pub fn doc(rng: &mut Rng) -> Json {
    let inner = doc_value(rng, 4);
    if rng.below(8) > 0 {
        return inner;
    }
    (0..30 + rng.below(31)).fold(inner, |v, _| {
        if rng.below(2) == 0 {
            Json::Arr(vec![v])
        } else {
            Json::obj().with("deep", v)
        }
    })
}

/// A random rollup record stream: all six record kinds over the cluster,
/// three tenants, four devices and four segments. Time mostly moves
/// forward, but one record in eight is stamped up to four windows in the
/// past. The cut lands anywhere in the stream (or at 0) and the merge
/// factor is 1–6.
pub fn rollup(rng: &mut Rng) -> RollupSpec {
    const KINDS: [&str; 6] = [
        "arrival",
        "completion",
        "queue_wait",
        "migration",
        "retransmit",
        "occupancy",
    ];
    const TENANTS: [&str; 3] = ["bw-s", "bw-m", "gru-x"];
    let window_ns = 50 + rng.below(500) as u64;
    let mut now = 0u64;
    let records = (0..rng.below(150))
        .map(|_| {
            now += rng.below(window_ns as usize * 2 / 3) as u64;
            let at_ns = if rng.below(8) == 0 {
                now.saturating_sub(rng.below(4 * window_ns as usize) as u64)
            } else {
                now
            };
            let kind = KINDS[rng.below(KINDS.len())];
            let key = match rng.below(4) {
                0 => "cluster".to_string(),
                1 => format!("tenant:{}", TENANTS[rng.below(TENANTS.len())]),
                2 => format!("device:{}", rng.below(4)),
                _ => format!("segment:{}", rng.below(4)),
            };
            let value = match kind {
                "occupancy" => rng.below(1_001) as u64,
                "retransmit" => rng.below(1 << 20) as u64,
                _ => rng.below(2_000_000) as u64,
            };
            RollupRecord {
                kind: kind.to_string(),
                key,
                at_ns,
                value,
            }
        })
        .collect();
    RollupSpec {
        window_ns,
        alpha_pm: [5, 10, 20, 50][rng.below(4)],
        records,
        cut_ns: if rng.below(4) == 0 {
            0
        } else {
            rng.below(now as usize + window_ns as usize) as u64
        },
        factor: 1 + rng.below(6) as u64,
    }
}
