//! The structured case space: every oracle's input is a [`FuzzInput`]
//! variant that serializes losslessly through [`Json`], sizes itself for
//! the shrinker, and enumerates its own smaller neighbors.
//!
//! All numeric fields that cross the JSON boundary are integers (times in
//! nanoseconds, probabilities in per-mille), so a reproducer replays the
//! exact case that failed with no float-formatting ambiguity.

use vfpga_sim::Json;

/// A soft-block tree shape. Composite resource vectors are derived (sum of
/// children), matching what the decomposer produces, so resource
/// conservation is a true invariant of the built tree.
#[derive(Debug, Clone, PartialEq)]
pub enum TreeSpec {
    /// A leaf block with explicit resources.
    Leaf {
        /// LUT estimate.
        luts: u64,
        /// Flip-flop estimate.
        ffs: u64,
        /// Block-RAM Kb.
        bram_kb: u64,
        /// DSP slices.
        dsps: u64,
    },
    /// A data-parallel composite.
    Data {
        /// Child subtrees (non-empty; a single child is legal and
        /// adversarial — the partitioner descends through it).
        children: Vec<TreeSpec>,
    },
    /// A pipeline composite.
    Pipeline {
        /// Child subtrees (non-empty).
        children: Vec<TreeSpec>,
        /// Link widths between adjacent stages; `children.len() - 1`
        /// entries.
        links: Vec<u64>,
    },
}

impl TreeSpec {
    /// Number of nodes in the spec.
    pub fn node_count(&self) -> u64 {
        match self {
            TreeSpec::Leaf { .. } => 1,
            TreeSpec::Data { children } | TreeSpec::Pipeline { children, .. } => {
                1 + children.iter().map(TreeSpec::node_count).sum::<u64>()
            }
        }
    }

    fn to_json(&self) -> Json {
        match self {
            TreeSpec::Leaf {
                luts,
                ffs,
                bram_kb,
                dsps,
            } => Json::obj().with(
                "leaf",
                Json::obj()
                    .with("luts", *luts)
                    .with("ffs", *ffs)
                    .with("bram_kb", *bram_kb)
                    .with("dsps", *dsps),
            ),
            TreeSpec::Data { children } => Json::obj().with(
                "data",
                Json::Arr(children.iter().map(TreeSpec::to_json).collect()),
            ),
            TreeSpec::Pipeline { children, links } => Json::obj().with(
                "pipeline",
                Json::obj()
                    .with(
                        "children",
                        Json::Arr(children.iter().map(TreeSpec::to_json).collect()),
                    )
                    .with(
                        "links",
                        Json::Arr(links.iter().map(|&w| Json::from(w)).collect()),
                    ),
            ),
        }
    }

    fn from_json(json: &Json) -> Result<TreeSpec, String> {
        if let Some(leaf) = json.field("leaf") {
            return Ok(TreeSpec::Leaf {
                luts: get_u64(leaf, "luts")?,
                ffs: get_u64(leaf, "ffs")?,
                bram_kb: get_u64(leaf, "bram_kb")?,
                dsps: get_u64(leaf, "dsps")?,
            });
        }
        if let Some(Json::Arr(items)) = json.field("data") {
            let children = items
                .iter()
                .map(TreeSpec::from_json)
                .collect::<Result<Vec<_>, _>>()?;
            if children.is_empty() {
                return Err("data node with no children".into());
            }
            return Ok(TreeSpec::Data { children });
        }
        if let Some(pipe) = json.field("pipeline") {
            let Some(Json::Arr(items)) = pipe.field("children") else {
                return Err("pipeline without children".into());
            };
            let children = items
                .iter()
                .map(TreeSpec::from_json)
                .collect::<Result<Vec<_>, _>>()?;
            let Some(Json::Arr(links)) = pipe.field("links") else {
                return Err("pipeline without links".into());
            };
            let links = links
                .iter()
                .map(|l| l.as_num().map(|x| x as u64).ok_or("non-numeric link"))
                .collect::<Result<Vec<_>, _>>()?;
            if children.is_empty() {
                return Err("pipeline with no children".into());
            }
            if links.len() + 1 != children.len() {
                return Err("pipeline link arity mismatch".into());
            }
            return Ok(TreeSpec::Pipeline { children, links });
        }
        Err(format!("unrecognized tree node: {}", json.compact()))
    }

    /// Structurally smaller variants: each child promoted to replace its
    /// composite parent, each child dropped (link widths re-knit), and
    /// leaf resources halved.
    fn shrink(&self) -> Vec<TreeSpec> {
        let mut out = Vec::new();
        match self {
            TreeSpec::Leaf {
                luts,
                ffs,
                bram_kb,
                dsps,
            } => {
                if luts + ffs + bram_kb + dsps > 4 {
                    out.push(TreeSpec::Leaf {
                        luts: luts / 2,
                        ffs: ffs / 2,
                        bram_kb: bram_kb / 2,
                        dsps: dsps / 2,
                    });
                }
            }
            TreeSpec::Data { children } => {
                // Promote each child over the composite.
                out.extend(children.iter().cloned());
                // Drop each child (keep at least one).
                if children.len() > 1 {
                    for i in 0..children.len() {
                        let mut c = children.clone();
                        c.remove(i);
                        out.push(TreeSpec::Data { children: c });
                    }
                }
                // Shrink each child in place.
                for (i, child) in children.iter().enumerate() {
                    for shrunk in child.shrink() {
                        let mut c = children.clone();
                        c[i] = shrunk;
                        out.push(TreeSpec::Data { children: c });
                    }
                }
            }
            TreeSpec::Pipeline { children, links } => {
                out.extend(children.iter().cloned());
                if children.len() > 1 {
                    for i in 0..children.len() {
                        let mut c = children.clone();
                        c.remove(i);
                        let mut l = links.clone();
                        l.remove(i.min(l.len() - 1));
                        out.push(TreeSpec::Pipeline {
                            children: c,
                            links: l,
                        });
                    }
                }
                for (i, child) in children.iter().enumerate() {
                    for shrunk in child.shrink() {
                        let mut c = children.clone();
                        c[i] = shrunk;
                        out.push(TreeSpec::Pipeline {
                            children: c,
                            links: links.clone(),
                        });
                    }
                }
            }
        }
        out
    }
}

/// A scale-out RNN differential case.
#[derive(Debug, Clone, PartialEq)]
pub struct RnnSpec {
    /// `"gru"` or `"lstm"`.
    pub kind: String,
    /// Hidden dimension (≥ 1; deliberately includes non-powers-of-two and
    /// dims smaller than the machine count).
    pub hidden: usize,
    /// Sequence length (≥ 1; 1 is the degenerate no-recurrence case).
    pub timesteps: usize,
    /// Cooperating machines (≥ 2 makes the sync template do work).
    pub machines: usize,
    /// Weight-generation seed.
    pub weight_seed: u64,
}

/// A random-program reordering case.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgSpec {
    /// Vector length of every DRAM slot, register, and matrix dimension.
    pub n: usize,
    /// Number of initialized DRAM slots.
    pub slots: usize,
    /// Seed for DRAM and matrix contents.
    pub data_seed: u64,
    /// Seed for the random dependency-preserving schedule to compare
    /// against.
    pub order_seed: u64,
    /// The program, as assembler text.
    pub asm: String,
}

/// One operator of a generated dataflow graph: wire `k + 1` is the output
/// of operator `k`, and wire 0 is the graph's input.
#[derive(Debug, Clone, PartialEq)]
pub struct DataflowOp {
    /// `"stage"`, `"map"` or `"reduce"`.
    pub op: String,
    /// Kernel (behavior) name.
    pub kernel: String,
    /// Index of the wire this operator reads (an earlier wire).
    pub from: usize,
    /// Output width in bits.
    pub width: u32,
    /// Parallel workers of a `"map"` (ignored otherwise).
    pub workers: usize,
}

/// The design of a decomposer case.
#[derive(Debug, Clone, PartialEq)]
pub enum DesignSpec {
    /// A generated AS ISA accelerator.
    Accelerator {
        /// Tiles before scaling down (≥ 1).
        tiles: usize,
        /// BRAM rather than URAM weight memory.
        bram: bool,
        /// Scale-down factor (≥ 1).
        parts: usize,
        /// The catalog's options (moved modules and the `dpu_array` lane
        /// count) rather than bare ones.
        catalog: bool,
    },
    /// A `vfpga_hls::Dataflow` graph.
    Dataflow {
        /// Width of the graph's input wire.
        input_width: u32,
        /// The operators, in order; the last one's wire is the output.
        ops: Vec<DataflowOp>,
        /// A kernel registered as intra-block parallel, with its lane
        /// count.
        lanes: Option<(String, usize)>,
    },
}

/// A decomposer case: one design, decomposed as built or after a
/// `to_source` → `parse` round trip.
#[derive(Debug, Clone, PartialEq)]
pub struct DecompSpec {
    /// The design.
    pub design: DesignSpec,
    /// Decompose the re-parsed source rather than the built design.
    pub reparse: bool,
}

impl DecompSpec {
    fn size(&self) -> u64 {
        let design = match &self.design {
            DesignSpec::Accelerator {
                tiles,
                bram,
                parts,
                catalog,
            } => tiles + parts + usize::from(*bram) + usize::from(*catalog),
            DesignSpec::Dataflow { ops, lanes, .. } => {
                ops.iter().map(|o| 2 + o.workers).sum::<usize>() + usize::from(lanes.is_some())
            }
        };
        design as u64 + u64::from(self.reparse)
    }

    fn to_json(&self) -> Json {
        let design = match &self.design {
            DesignSpec::Accelerator {
                tiles,
                bram,
                parts,
                catalog,
            } => Json::obj().with(
                "accelerator",
                Json::obj()
                    .with("tiles", *tiles)
                    .with("bram", *bram)
                    .with("parts", *parts)
                    .with("catalog", *catalog),
            ),
            DesignSpec::Dataflow {
                input_width,
                ops,
                lanes,
            } => {
                let ops = ops
                    .iter()
                    .map(|o| {
                        Json::obj()
                            .with("op", o.op.as_str())
                            .with("kernel", o.kernel.as_str())
                            .with("from", o.from)
                            .with("width", u64::from(o.width))
                            .with("workers", o.workers)
                    })
                    .collect();
                let mut obj = Json::obj()
                    .with("input_width", u64::from(*input_width))
                    .with("ops", Json::Arr(ops));
                if let Some((kernel, count)) = lanes {
                    obj = obj
                        .with("lane_kernel", kernel.as_str())
                        .with("lane_count", *count);
                }
                Json::obj().with("dataflow", obj)
            }
        };
        Json::obj()
            .with("design", design)
            .with("reparse", self.reparse)
    }

    fn from_json(json: &Json) -> Result<DecompSpec, String> {
        let design = json
            .field("design")
            .ok_or("decompose case without design")?;
        let flag = |obj: &Json, key: &str| matches!(obj.field(key), Some(Json::Bool(true)));
        let design = if let Some(a) = design.field("accelerator") {
            DesignSpec::Accelerator {
                tiles: get_usize(a, "tiles")?,
                bram: flag(a, "bram"),
                parts: get_usize(a, "parts")?,
                catalog: flag(a, "catalog"),
            }
        } else if let Some(d) = design.field("dataflow") {
            let Some(Json::Arr(items)) = d.field("ops") else {
                return Err("dataflow case without ops".into());
            };
            let ops = items
                .iter()
                .map(|o| {
                    Ok(DataflowOp {
                        op: get_str(o, "op")?,
                        kernel: get_str(o, "kernel")?,
                        from: get_usize(o, "from")?,
                        width: get_u64(o, "width")? as u32,
                        workers: get_usize(o, "workers")?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?;
            let lanes = match d.field("lane_kernel") {
                Some(_) => Some((get_str(d, "lane_kernel")?, get_usize(d, "lane_count")?)),
                None => None,
            };
            DesignSpec::Dataflow {
                input_width: get_u64(d, "input_width")? as u32,
                ops,
                lanes,
            }
        } else {
            return Err(format!("unrecognized design: {}", design.compact()));
        };
        Ok(DecompSpec {
            design,
            reparse: flag(json, "reparse"),
        })
    }

    /// Fewer tiles, no scale-down, bare options; fewer dataflow operators
    /// (an operator's readers are re-pointed at its input) and workers, no
    /// registered lanes; no round trip.
    fn shrink(&self) -> Vec<DecompSpec> {
        let mut out = Vec::new();
        let with = |design: DesignSpec| DecompSpec {
            design,
            reparse: self.reparse,
        };
        match &self.design {
            DesignSpec::Accelerator {
                tiles,
                bram,
                parts,
                catalog,
            } => {
                let accel = |tiles, bram, parts, catalog| DesignSpec::Accelerator {
                    tiles,
                    bram,
                    parts,
                    catalog,
                };
                if *tiles > 1 {
                    out.push(with(accel(tiles / 2, *bram, *parts, *catalog)));
                    out.push(with(accel(tiles - 1, *bram, *parts, *catalog)));
                }
                if *parts > 1 {
                    // The same scaled-down tile count, built directly.
                    out.push(with(accel((tiles / parts).max(1), *bram, 1, *catalog)));
                    out.push(with(accel(*tiles, *bram, 1, *catalog)));
                }
                if *bram {
                    out.push(with(accel(*tiles, false, *parts, *catalog)));
                }
                if *catalog {
                    out.push(with(accel(*tiles, *bram, *parts, false)));
                }
            }
            DesignSpec::Dataflow {
                input_width,
                ops,
                lanes,
            } => {
                let flow =
                    |ops: Vec<DataflowOp>, lanes: Option<(String, usize)>| DesignSpec::Dataflow {
                        input_width: *input_width,
                        ops,
                        lanes,
                    };
                if ops.len() > 1 {
                    for i in 0..ops.len() {
                        let mut rest = ops.clone();
                        let gone = rest.remove(i);
                        for o in &mut rest[i..] {
                            if o.from == i + 1 {
                                o.from = gone.from;
                            } else if o.from > i + 1 {
                                o.from -= 1;
                            }
                        }
                        out.push(with(flow(rest, lanes.clone())));
                    }
                }
                for (i, o) in ops.iter().enumerate() {
                    if o.workers > 1 {
                        let mut fewer = ops.clone();
                        fewer[i].workers -= 1;
                        out.push(with(flow(fewer, lanes.clone())));
                    }
                }
                if lanes.is_some() {
                    out.push(with(flow(ops.clone(), None)));
                }
            }
        }
        if self.reparse {
            out.push(DecompSpec {
                design: self.design.clone(),
                reparse: false,
            });
        }
        out
    }
}

/// One arriving task of a cloud-simulation case.
#[derive(Debug, Clone, PartialEq)]
pub struct CloudTask {
    /// Arrival time in nanoseconds.
    pub at_ns: u64,
    /// `"gru"` or `"lstm"`.
    pub kind: String,
    /// Hidden dimension.
    pub hidden: usize,
    /// Sequence length.
    pub timesteps: usize,
}

/// The fault-injection part of a cloud-simulation case.
#[derive(Debug, Clone, PartialEq)]
pub struct CloudFault {
    /// Fault-plan seed.
    pub seed: u64,
    /// Device mean time to failure, nanoseconds.
    pub mttf_ns: u64,
    /// Device mean time to repair, nanoseconds.
    pub mttr_ns: u64,
    /// Transient configure-failure probability, per mille.
    pub configure_pm: u64,
    /// Fault horizon, nanoseconds.
    pub horizon_ns: u64,
    /// Whether to add a per-link fault schedule over the ring.
    pub link_faults: bool,
}

/// A controller-accounting case: a random cluster serving a random
/// workload under a random fault plan.
#[derive(Debug, Clone, PartialEq)]
pub struct CloudSpec {
    /// Device types by short name (`"vu37p"` / `"ku115"`).
    pub devices: Vec<String>,
    /// `"full"`, `"restricted"`, or `"baseline"`.
    pub policy: String,
    /// The arrivals, times nondecreasing.
    pub tasks: Vec<CloudTask>,
    /// Optional fault injection.
    pub fault: Option<CloudFault>,
    /// Drop tasks whose migration retries exhaust (vs requeueing them).
    pub drop_on_exhaustion: bool,
}

/// One operation against the low-level controller.
#[derive(Debug, Clone, PartialEq)]
pub enum SlotOp {
    /// Configure an image sized for `blocks` virtual blocks onto a device.
    Configure {
        /// Target device index (mod cluster size).
        device: usize,
        /// Requested size in virtual blocks (≥ 1; oversize is a legal
        /// rejection path).
        blocks: usize,
    },
    /// Release the `idx`-th live allocation (mod live count; no-op when
    /// none are live).
    Release {
        /// Index into the shadow list of live allocations.
        idx: usize,
    },
    /// Fail a device, evicting its allocations.
    Evict {
        /// Target device index (mod cluster size).
        device: usize,
    },
    /// Recover a device.
    Recover {
        /// Target device index (mod cluster size).
        device: usize,
    },
}

/// A slot-accounting case against `vfpga-hsabs`.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotsSpec {
    /// Device types by short name.
    pub devices: Vec<String>,
    /// The operation sequence.
    pub ops: Vec<SlotOp>,
}

/// A fault-plan invariant case.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Generation seed.
    pub seed: u64,
    /// Devices covered by the plan.
    pub devices: usize,
    /// Device MTTF, nanoseconds.
    pub mttf_ns: u64,
    /// Device MTTR, nanoseconds.
    pub mttr_ns: u64,
    /// Fault horizon, nanoseconds.
    pub horizon_ns: u64,
    /// Ring links covered by the link schedule (0 = none).
    pub links: usize,
    /// Fraction of link waves that degrade rather than fail, per mille.
    pub degraded_pm: u64,
}

/// One telemetry record of a rollup case.
#[derive(Debug, Clone, PartialEq)]
pub struct RollupRecord {
    /// `"arrival"`, `"completion"`, `"queue_wait"`, `"migration"`,
    /// `"retransmit"` or `"occupancy"`.
    pub kind: String,
    /// The key's artifact label: `"cluster"`, `"tenant:<name>"`,
    /// `"device:<n>"` or `"segment:<n>"`.
    pub key: String,
    /// Record time, nanoseconds.
    pub at_ns: u64,
    /// Latency or wait in nanoseconds, retransmitted bytes, or occupancy
    /// per mille; arrivals and migrations ignore it.
    pub value: u64,
}

/// A rollup case: a record stream (mostly in time order, with some
/// records stamped in earlier windows), then a truncation cut and a
/// merge factor applied to the result.
#[derive(Debug, Clone, PartialEq)]
pub struct RollupSpec {
    /// Window length, nanoseconds (≥ 1).
    pub window_ns: u64,
    /// Sketch relative error, per mille.
    pub alpha_pm: u64,
    /// The records, in recording order.
    pub records: Vec<RollupRecord>,
    /// Oldest retained trace time for `mark_truncated_before`,
    /// nanoseconds.
    pub cut_ns: u64,
    /// Window merge factor (≥ 1).
    pub factor: u64,
}

/// One generated case for one oracle.
#[derive(Debug, Clone, PartialEq)]
pub enum FuzzInput {
    /// A soft-block tree for the partition oracle.
    Tree(TreeSpec),
    /// An RNN scale-out shape.
    Rnn(RnnSpec),
    /// A random ISA program.
    Prog(ProgSpec),
    /// A cloud-simulation scenario.
    Cloud(CloudSpec),
    /// A low-level-controller operation sequence.
    Slots(SlotsSpec),
    /// A fault-plan parameterization.
    Fault(FaultSpec),
    /// A raw JSON document.
    Doc(Json),
    /// A telemetry record stream for the rollups.
    Rollup(RollupSpec),
    /// A design for the decomposer.
    Decomp(DecompSpec),
}

/// Reads an unsigned field written either as a decimal string (how seeds
/// are serialized: a JSON number is an `f64` and rounds any value above
/// 2^53) or as a plain number (every other field, and seeds in
/// reproducers written before seeds became strings).
fn get_u64(json: &Json, key: &str) -> Result<u64, String> {
    match json.field(key) {
        Some(Json::Str(s)) => s
            .parse()
            .map_err(|_| format!("field `{key}` is not a decimal u64: `{s}`")),
        other => other
            .and_then(Json::as_num)
            .map(|x| x as u64)
            .ok_or_else(|| format!("missing numeric field `{key}`")),
    }
}

fn get_usize(json: &Json, key: &str) -> Result<usize, String> {
    get_u64(json, key).map(|x| x as usize)
}

fn get_str(json: &Json, key: &str) -> Result<String, String> {
    json.field(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field `{key}`"))
}

impl FuzzInput {
    /// The structural size the shrinker minimizes. Units are arbitrary but
    /// consistent within a variant.
    pub fn size(&self) -> u64 {
        match self {
            FuzzInput::Tree(t) => t.node_count(),
            FuzzInput::Rnn(r) => (r.hidden + r.timesteps + r.machines) as u64,
            FuzzInput::Prog(p) => p.asm.lines().count() as u64 + p.n as u64,
            FuzzInput::Cloud(c) => {
                (c.tasks.len() * 4 + c.devices.len()) as u64
                    + c.fault.as_ref().map_or(0, |f| 2 + u64::from(f.link_faults))
            }
            FuzzInput::Slots(s) => (s.ops.len() + s.devices.len()) as u64,
            FuzzInput::Fault(f) => (f.devices + f.links) as u64 + f.horizon_ns / 100_000,
            FuzzInput::Doc(d) => json_size(d),
            FuzzInput::Rollup(r) => 4 * r.records.len() as u64 + r.factor + u64::from(r.cut_ns > 0),
            FuzzInput::Decomp(d) => d.size(),
        }
    }

    /// Serializes the case; [`from_json`](FuzzInput::from_json) inverts
    /// this exactly.
    pub fn to_json(&self) -> Json {
        match self {
            FuzzInput::Tree(t) => Json::obj().with("tree", t.to_json()),
            FuzzInput::Rnn(r) => Json::obj().with(
                "rnn",
                Json::obj()
                    .with("kind", r.kind.as_str())
                    .with("hidden", r.hidden)
                    .with("timesteps", r.timesteps)
                    .with("machines", r.machines)
                    .with("weight_seed", r.weight_seed.to_string()),
            ),
            FuzzInput::Prog(p) => Json::obj().with(
                "prog",
                Json::obj()
                    .with("n", p.n)
                    .with("slots", p.slots)
                    .with("data_seed", p.data_seed.to_string())
                    .with("order_seed", p.order_seed.to_string())
                    .with("asm", p.asm.as_str()),
            ),
            FuzzInput::Cloud(c) => {
                let tasks = c
                    .tasks
                    .iter()
                    .map(|t| {
                        Json::obj()
                            .with("at_ns", t.at_ns)
                            .with("kind", t.kind.as_str())
                            .with("hidden", t.hidden)
                            .with("timesteps", t.timesteps)
                    })
                    .collect();
                let mut obj = Json::obj()
                    .with(
                        "devices",
                        Json::Arr(c.devices.iter().map(|d| Json::from(d.as_str())).collect()),
                    )
                    .with("policy", c.policy.as_str())
                    .with("tasks", Json::Arr(tasks))
                    .with("drop_on_exhaustion", c.drop_on_exhaustion);
                if let Some(f) = &c.fault {
                    obj = obj.with(
                        "fault",
                        Json::obj()
                            .with("seed", f.seed.to_string())
                            .with("mttf_ns", f.mttf_ns)
                            .with("mttr_ns", f.mttr_ns)
                            .with("configure_pm", f.configure_pm)
                            .with("horizon_ns", f.horizon_ns)
                            .with("link_faults", f.link_faults),
                    );
                }
                Json::obj().with("cloud", obj)
            }
            FuzzInput::Slots(s) => {
                let ops = s
                    .ops
                    .iter()
                    .map(|op| match op {
                        SlotOp::Configure { device, blocks } => Json::obj()
                            .with("op", "configure")
                            .with("device", *device)
                            .with("blocks", *blocks),
                        SlotOp::Release { idx } => {
                            Json::obj().with("op", "release").with("idx", *idx)
                        }
                        SlotOp::Evict { device } => {
                            Json::obj().with("op", "evict").with("device", *device)
                        }
                        SlotOp::Recover { device } => {
                            Json::obj().with("op", "recover").with("device", *device)
                        }
                    })
                    .collect();
                Json::obj().with(
                    "slots",
                    Json::obj()
                        .with(
                            "devices",
                            Json::Arr(s.devices.iter().map(|d| Json::from(d.as_str())).collect()),
                        )
                        .with("ops", Json::Arr(ops)),
                )
            }
            FuzzInput::Fault(f) => Json::obj().with(
                "fault_plan",
                Json::obj()
                    .with("seed", f.seed.to_string())
                    .with("devices", f.devices)
                    .with("mttf_ns", f.mttf_ns)
                    .with("mttr_ns", f.mttr_ns)
                    .with("horizon_ns", f.horizon_ns)
                    .with("links", f.links)
                    .with("degraded_pm", f.degraded_pm),
            ),
            FuzzInput::Doc(d) => Json::obj().with("doc", d.clone()),
            FuzzInput::Rollup(r) => {
                let records = r
                    .records
                    .iter()
                    .map(|rec| {
                        Json::obj()
                            .with("kind", rec.kind.as_str())
                            .with("key", rec.key.as_str())
                            .with("at_ns", rec.at_ns)
                            .with("value", rec.value)
                    })
                    .collect();
                Json::obj().with(
                    "rollup",
                    Json::obj()
                        .with("window_ns", r.window_ns)
                        .with("alpha_pm", r.alpha_pm)
                        .with("cut_ns", r.cut_ns)
                        .with("factor", r.factor)
                        .with("records", Json::Arr(records)),
                )
            }
            FuzzInput::Decomp(d) => Json::obj().with("decompose", d.to_json()),
        }
    }

    /// Decodes a serialized case.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn from_json(json: &Json) -> Result<FuzzInput, String> {
        if let Some(t) = json.field("tree") {
            return Ok(FuzzInput::Tree(TreeSpec::from_json(t)?));
        }
        if let Some(r) = json.field("rnn") {
            return Ok(FuzzInput::Rnn(RnnSpec {
                kind: get_str(r, "kind")?,
                hidden: get_usize(r, "hidden")?,
                timesteps: get_usize(r, "timesteps")?,
                machines: get_usize(r, "machines")?,
                weight_seed: get_u64(r, "weight_seed")?,
            }));
        }
        if let Some(p) = json.field("prog") {
            return Ok(FuzzInput::Prog(ProgSpec {
                n: get_usize(p, "n")?,
                slots: get_usize(p, "slots")?,
                data_seed: get_u64(p, "data_seed")?,
                order_seed: get_u64(p, "order_seed")?,
                asm: get_str(p, "asm")?,
            }));
        }
        if let Some(c) = json.field("cloud") {
            let Some(Json::Arr(devs)) = c.field("devices") else {
                return Err("cloud case without devices".into());
            };
            let devices = devs
                .iter()
                .map(|d| d.as_str().map(str::to_string).ok_or("non-string device"))
                .collect::<Result<Vec<_>, _>>()?;
            let Some(Json::Arr(task_items)) = c.field("tasks") else {
                return Err("cloud case without tasks".into());
            };
            let tasks = task_items
                .iter()
                .map(|t| {
                    Ok(CloudTask {
                        at_ns: get_u64(t, "at_ns")?,
                        kind: get_str(t, "kind")?,
                        hidden: get_usize(t, "hidden")?,
                        timesteps: get_usize(t, "timesteps")?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?;
            let fault = match c.field("fault") {
                None | Some(Json::Null) => None,
                Some(f) => Some(CloudFault {
                    seed: get_u64(f, "seed")?,
                    mttf_ns: get_u64(f, "mttf_ns")?,
                    mttr_ns: get_u64(f, "mttr_ns")?,
                    configure_pm: get_u64(f, "configure_pm")?,
                    horizon_ns: get_u64(f, "horizon_ns")?,
                    link_faults: matches!(f.field("link_faults"), Some(Json::Bool(true))),
                }),
            };
            return Ok(FuzzInput::Cloud(CloudSpec {
                devices,
                policy: get_str(c, "policy")?,
                tasks,
                fault,
                drop_on_exhaustion: matches!(c.field("drop_on_exhaustion"), Some(Json::Bool(true))),
            }));
        }
        if let Some(s) = json.field("slots") {
            let Some(Json::Arr(devs)) = s.field("devices") else {
                return Err("slots case without devices".into());
            };
            let devices = devs
                .iter()
                .map(|d| d.as_str().map(str::to_string).ok_or("non-string device"))
                .collect::<Result<Vec<_>, _>>()?;
            let Some(Json::Arr(op_items)) = s.field("ops") else {
                return Err("slots case without ops".into());
            };
            let ops = op_items
                .iter()
                .map(|o| match o.field("op").and_then(Json::as_str) {
                    Some("configure") => Ok(SlotOp::Configure {
                        device: get_usize(o, "device")?,
                        blocks: get_usize(o, "blocks")?,
                    }),
                    Some("release") => Ok(SlotOp::Release {
                        idx: get_usize(o, "idx")?,
                    }),
                    Some("evict") => Ok(SlotOp::Evict {
                        device: get_usize(o, "device")?,
                    }),
                    Some("recover") => Ok(SlotOp::Recover {
                        device: get_usize(o, "device")?,
                    }),
                    other => Err(format!("unknown slot op {other:?}")),
                })
                .collect::<Result<Vec<_>, String>>()?;
            return Ok(FuzzInput::Slots(SlotsSpec { devices, ops }));
        }
        if let Some(f) = json.field("fault_plan") {
            return Ok(FuzzInput::Fault(FaultSpec {
                seed: get_u64(f, "seed")?,
                devices: get_usize(f, "devices")?,
                mttf_ns: get_u64(f, "mttf_ns")?,
                mttr_ns: get_u64(f, "mttr_ns")?,
                horizon_ns: get_u64(f, "horizon_ns")?,
                links: get_usize(f, "links")?,
                degraded_pm: get_u64(f, "degraded_pm")?,
            }));
        }
        if let Some(d) = json.field("doc") {
            return Ok(FuzzInput::Doc(d.clone()));
        }
        if let Some(r) = json.field("rollup") {
            let Some(Json::Arr(items)) = r.field("records") else {
                return Err("rollup case without records".into());
            };
            let records = items
                .iter()
                .map(|rec| {
                    Ok(RollupRecord {
                        kind: get_str(rec, "kind")?,
                        key: get_str(rec, "key")?,
                        at_ns: get_u64(rec, "at_ns")?,
                        value: get_u64(rec, "value")?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?;
            return Ok(FuzzInput::Rollup(RollupSpec {
                window_ns: get_u64(r, "window_ns")?,
                alpha_pm: get_u64(r, "alpha_pm")?,
                records,
                cut_ns: get_u64(r, "cut_ns")?,
                factor: get_u64(r, "factor")?,
            }));
        }
        if let Some(d) = json.field("decompose") {
            return Ok(FuzzInput::Decomp(DecompSpec::from_json(d)?));
        }
        Err("unrecognized fuzz input".into())
    }

    /// Structurally smaller neighbors for the greedy shrinker. Candidates
    /// are ordered biggest-reduction-first, but none is guaranteed to
    /// preserve the failure — the shrinker re-checks each.
    pub fn shrink_candidates(&self) -> Vec<FuzzInput> {
        match self {
            FuzzInput::Tree(t) => t.shrink().into_iter().map(FuzzInput::Tree).collect(),
            FuzzInput::Rnn(r) => {
                let mut out = Vec::new();
                if r.hidden > 1 {
                    let mut s = r.clone();
                    s.hidden /= 2;
                    out.push(FuzzInput::Rnn(s));
                    let mut s = r.clone();
                    s.hidden -= 1;
                    out.push(FuzzInput::Rnn(s));
                }
                if r.timesteps > 1 {
                    let mut s = r.clone();
                    s.timesteps = 1;
                    out.push(FuzzInput::Rnn(s));
                    let mut s = r.clone();
                    s.timesteps -= 1;
                    out.push(FuzzInput::Rnn(s));
                }
                if r.machines > 2 {
                    let mut s = r.clone();
                    s.machines -= 1;
                    out.push(FuzzInput::Rnn(s));
                }
                if r.kind == "lstm" {
                    let mut s = r.clone();
                    s.kind = "gru".into();
                    out.push(FuzzInput::Rnn(s));
                }
                out
            }
            FuzzInput::Prog(p) => {
                let lines: Vec<&str> = p.asm.lines().collect();
                let mut out = Vec::new();
                // Truncate to the first half (keeping the final halt).
                if lines.len() > 3 {
                    let mut head: Vec<&str> = lines[..lines.len() / 2].to_vec();
                    head.push("halt");
                    let mut s = p.clone();
                    s.asm = head.join("\n");
                    out.push(FuzzInput::Prog(s));
                }
                // Drop each body line.
                for i in 0..lines.len().saturating_sub(1) {
                    let mut rest = lines.clone();
                    rest.remove(i);
                    let mut s = p.clone();
                    s.asm = rest.join("\n");
                    out.push(FuzzInput::Prog(s));
                }
                if p.n > 1 {
                    let mut s = p.clone();
                    s.n /= 2;
                    out.push(FuzzInput::Prog(s));
                }
                out
            }
            FuzzInput::Cloud(c) => {
                let mut out = Vec::new();
                if c.tasks.len() > 1 {
                    let mut s = c.clone();
                    s.tasks.truncate(c.tasks.len() / 2);
                    out.push(FuzzInput::Cloud(s));
                    for i in 0..c.tasks.len() {
                        let mut s = c.clone();
                        s.tasks.remove(i);
                        out.push(FuzzInput::Cloud(s));
                    }
                }
                if c.fault.is_some() {
                    let mut s = c.clone();
                    s.fault = None;
                    out.push(FuzzInput::Cloud(s));
                    if c.fault.as_ref().is_some_and(|f| f.link_faults) {
                        let mut s = c.clone();
                        if let Some(f) = &mut s.fault {
                            f.link_faults = false;
                        }
                        out.push(FuzzInput::Cloud(s));
                    }
                }
                if c.devices.len() > 1 {
                    let mut s = c.clone();
                    s.devices.pop();
                    out.push(FuzzInput::Cloud(s));
                }
                if c.policy != "full" {
                    let mut s = c.clone();
                    s.policy = "full".into();
                    out.push(FuzzInput::Cloud(s));
                }
                out
            }
            FuzzInput::Slots(s) => {
                let mut out = Vec::new();
                if s.ops.len() > 1 {
                    let mut t = s.clone();
                    t.ops.truncate(s.ops.len() / 2);
                    out.push(FuzzInput::Slots(t));
                    for i in 0..s.ops.len() {
                        let mut t = s.clone();
                        t.ops.remove(i);
                        out.push(FuzzInput::Slots(t));
                    }
                }
                if s.devices.len() > 1 {
                    let mut t = s.clone();
                    t.devices.pop();
                    out.push(FuzzInput::Slots(t));
                }
                out
            }
            FuzzInput::Fault(f) => {
                let mut out = Vec::new();
                if f.devices > 1 {
                    let mut s = f.clone();
                    s.devices /= 2;
                    out.push(FuzzInput::Fault(s));
                }
                if f.links > 0 {
                    let mut s = f.clone();
                    s.links = 0;
                    out.push(FuzzInput::Fault(s));
                }
                if f.horizon_ns > 1000 {
                    let mut s = f.clone();
                    s.horizon_ns /= 2;
                    out.push(FuzzInput::Fault(s));
                }
                out
            }
            FuzzInput::Doc(d) => shrink_json(d).into_iter().map(FuzzInput::Doc).collect(),
            FuzzInput::Rollup(r) => {
                let mut out = Vec::new();
                if r.records.len() > 1 {
                    let mut s = r.clone();
                    s.records.truncate(r.records.len() / 2);
                    out.push(FuzzInput::Rollup(s));
                }
                for i in 0..r.records.len() {
                    let mut s = r.clone();
                    s.records.remove(i);
                    out.push(FuzzInput::Rollup(s));
                }
                if r.factor > 1 {
                    let mut s = r.clone();
                    s.factor = 1;
                    out.push(FuzzInput::Rollup(s));
                }
                if r.cut_ns > 0 {
                    let mut s = r.clone();
                    s.cut_ns = 0;
                    out.push(FuzzInput::Rollup(s));
                }
                out
            }
            FuzzInput::Decomp(d) => d.shrink().into_iter().map(FuzzInput::Decomp).collect(),
        }
    }
}

fn json_size(json: &Json) -> u64 {
    match json {
        Json::Null | Json::Bool(_) | Json::Num(_) => 1,
        Json::Str(s) => 1 + s.len() as u64 / 8,
        Json::Arr(items) => 1 + items.iter().map(json_size).sum::<u64>(),
        Json::Obj(pairs) => 1 + pairs.iter().map(|(_, v)| json_size(v)).sum::<u64>(),
    }
}

fn shrink_json(json: &Json) -> Vec<Json> {
    let mut out = Vec::new();
    match json {
        Json::Null | Json::Bool(_) | Json::Num(_) => {}
        Json::Str(s) => {
            if !s.is_empty() {
                out.push(Json::Str(s[..s.len() / 2].to_string()));
            }
        }
        Json::Arr(items) => {
            for i in 0..items.len() {
                let mut rest = items.clone();
                rest.remove(i);
                out.push(Json::Arr(rest));
            }
            for (i, item) in items.iter().enumerate() {
                for shrunk in shrink_json(item) {
                    let mut rest = items.clone();
                    rest[i] = shrunk;
                    out.push(Json::Arr(rest));
                }
            }
        }
        Json::Obj(pairs) => {
            for i in 0..pairs.len() {
                let mut rest = pairs.clone();
                rest.remove(i);
                out.push(Json::Obj(rest));
            }
            for (i, (_, v)) in pairs.iter().enumerate() {
                for shrunk in shrink_json(v) {
                    let mut rest = pairs.clone();
                    rest[i].1 = shrunk;
                    out.push(Json::Obj(rest));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_roundtrip() {
        let t = FuzzInput::Tree(TreeSpec::Pipeline {
            children: vec![
                TreeSpec::Leaf {
                    luts: 10,
                    ffs: 5,
                    bram_kb: 0,
                    dsps: 1,
                },
                TreeSpec::Data {
                    children: vec![TreeSpec::Leaf {
                        luts: 3,
                        ffs: 3,
                        bram_kb: 2,
                        dsps: 0,
                    }],
                },
            ],
            links: vec![64],
        });
        let back = FuzzInput::from_json(&t.to_json()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn cloud_roundtrip_preserves_fault_block() {
        let c = FuzzInput::Cloud(CloudSpec {
            devices: vec!["vu37p".into(), "ku115".into()],
            policy: "restricted".into(),
            tasks: vec![CloudTask {
                at_ns: 120,
                kind: "lstm".into(),
                hidden: 1536,
                timesteps: 30,
            }],
            fault: Some(CloudFault {
                seed: 9,
                mttf_ns: 1_500_000,
                mttr_ns: 400_000,
                configure_pm: 50,
                horizon_ns: 2_000_000,
                link_faults: true,
            }),
            drop_on_exhaustion: true,
        });
        let text = c.to_json().pretty();
        let parsed = vfpga_sim::Json::parse(&text).unwrap();
        assert_eq!(c, FuzzInput::from_json(&parsed).unwrap());
    }

    #[test]
    fn seeds_above_two_to_the_53_survive_the_text_round_trip() {
        let big = u64::MAX;
        let cases = [
            FuzzInput::Rnn(RnnSpec {
                kind: "gru".into(),
                hidden: 7,
                timesteps: 3,
                machines: 2,
                weight_seed: big,
            }),
            FuzzInput::Prog(ProgSpec {
                n: 4,
                slots: 2,
                data_seed: big,
                order_seed: big - 1,
                asm: "halt".into(),
            }),
            FuzzInput::Cloud(CloudSpec {
                devices: vec!["vu37p".into()],
                policy: "full".into(),
                tasks: Vec::new(),
                fault: Some(CloudFault {
                    seed: big,
                    mttf_ns: 1,
                    mttr_ns: 1,
                    configure_pm: 0,
                    horizon_ns: 1,
                    link_faults: false,
                }),
                drop_on_exhaustion: false,
            }),
            FuzzInput::Fault(FaultSpec {
                seed: big,
                devices: 1,
                mttf_ns: 1,
                mttr_ns: 1,
                horizon_ns: 1,
                links: 0,
                degraded_pm: 0,
            }),
        ];
        for case in cases {
            let text = case.to_json().pretty();
            assert!(text.contains("\"18446744073709551615\""), "{text}");
            let parsed = vfpga_sim::Json::parse(&text).unwrap();
            assert_eq!(FuzzInput::from_json(&parsed).unwrap(), case);
        }
    }

    #[test]
    fn legacy_numeric_seeds_still_load() {
        let legacy = r#"{"fault_plan": {"seed": 42, "devices": 2, "mttf_ns": 10,
            "mttr_ns": 5, "horizon_ns": 100, "links": 0, "degraded_pm": 0}}"#;
        let parsed = vfpga_sim::Json::parse(legacy).unwrap();
        let FuzzInput::Fault(f) = FuzzInput::from_json(&parsed).unwrap() else {
            panic!("fault_plan case");
        };
        assert_eq!(f.seed, 42);
        let bad = r#"{"fault_plan": {"seed": "4x2", "devices": 2, "mttf_ns": 10,
            "mttr_ns": 5, "horizon_ns": 100, "links": 0, "degraded_pm": 0}}"#;
        let parsed = vfpga_sim::Json::parse(bad).unwrap();
        assert!(FuzzInput::from_json(&parsed).is_err());
    }

    #[test]
    fn shrink_candidates_are_smaller_or_equal_and_valid() {
        let t = FuzzInput::Tree(TreeSpec::Data {
            children: vec![
                TreeSpec::Leaf {
                    luts: 8,
                    ffs: 8,
                    bram_kb: 0,
                    dsps: 0,
                },
                TreeSpec::Pipeline {
                    children: vec![
                        TreeSpec::Leaf {
                            luts: 2,
                            ffs: 2,
                            bram_kb: 0,
                            dsps: 0,
                        },
                        TreeSpec::Leaf {
                            luts: 4,
                            ffs: 4,
                            bram_kb: 0,
                            dsps: 0,
                        },
                    ],
                    links: vec![16],
                },
            ],
        });
        for cand in t.shrink_candidates() {
            assert!(cand.size() <= t.size());
            // Candidates stay serializable.
            let back = FuzzInput::from_json(&cand.to_json()).unwrap();
            assert_eq!(cand, back);
        }
    }
}
