//! The cross-layer oracle registry.
//!
//! Each oracle pairs a generator with an invariant check that crosses at
//! least one layer boundary: the same computation through two independent
//! paths (scaled-out co-simulation vs the monolithic accelerator vs the
//! `f32` reference), a transformation that must be semantics-preserving
//! (instruction reordering, partitioning), or an accounting identity two
//! modules maintain independently (controller slot bitmaps vs occupancy,
//! cloud-report arrival conservation). A check returns `Err` with a
//! human-readable description of the violated invariant; the driver owns
//! shrinking and reporting.

use std::collections::{HashMap, VecDeque};
use std::sync::OnceLock;

use vfpga_accel::{
    generate_rtl, leaf_resource_estimator, AcceleratorConfig, FuncSim, RemoteWindow,
    CONTROL_PATH_MODULE, MOVED_TO_CONTROL, TOP_MODULE,
};
use vfpga_core::scaleout::{insert_communication, remote_window, reorder_for_overlap};
use vfpga_core::{
    decompose, partition, DecomposeOptions, Decomposition, MappingDatabase, Pattern, SoftBlock,
    SoftBlockId, SoftBlockKind, SoftBlockTree,
};
use vfpga_fabric::{Cluster, DeviceId, DeviceType, MemoryKind, ResourceVec};
use vfpga_hls::Dataflow;
use vfpga_hsabs::{HsCompiler, HsError, LowLevelController, VirtualBlockSpec};
use vfpga_isa::{assemble, BfpFormat, DepEdge, Instruction, IsaConfig, MReg, Program, VReg, F16};
use vfpga_rtl::{Design, FlatNode};
use vfpga_runtime::{
    co_simulate_functional, run_cloud_sim_tuned, AdmissionTuning, CloudReport, ControllerStats,
    Deployment, ElasticityPolicy, Policy, RecoveryPolicy, SystemController, DEFAULT_TRACE_CAPACITY,
};
use vfpga_sim::{
    FaultPlan, FaultPlanParams, Json, JsonDoc, LinkFaultKind, LinkFaultParams, Rng, RollupKey,
    RollupSet, SimTime, WindowStats,
};
use vfpga_workload::{
    generate_program, reference_run, RnnKind, RnnTask, RnnWeights, SliceSpec, TaskArrival,
    H_LOCAL_SLOT,
};

use crate::gen;
use crate::input::{DecompSpec, DesignSpec, FuzzInput, RollupSpec, SlotOp, TreeSpec};
use crate::reference::{
    reference_compact, reference_decompose, reference_pretty, reference_reorder, rollup_row,
    ReferenceGraph, ReferenceRollupSet,
};
use crate::scheduler::ReferenceScheduler;

/// One registered oracle: a structure-aware generator plus the invariant
/// check it feeds.
#[derive(Clone, Copy)]
pub struct Oracle {
    /// Registry key (also the reproducer filename stem).
    pub name: &'static str,
    /// Draws one case from a seeded stream.
    pub generate: fn(&mut Rng) -> FuzzInput,
    /// Checks the invariant; `Err` describes the violation.
    pub check: fn(&FuzzInput) -> Result<(), String>,
}

/// Every registered oracle, in fixed (alphabetical) order — the order is
/// part of the deterministic artifact contract.
pub fn registry() -> Vec<Oracle> {
    vec![
        Oracle {
            name: "controller-accounting",
            generate: |rng| FuzzInput::Cloud(gen::cloud(rng)),
            check: check_controller_accounting,
        },
        Oracle {
            name: "decompose-reference",
            generate: |rng| FuzzInput::Decomp(gen::decomp(rng)),
            check: check_decompose_reference,
        },
        Oracle {
            name: "depgraph-reference",
            generate: |rng| FuzzInput::Prog(gen::prog(rng)),
            check: check_depgraph_reference,
        },
        Oracle {
            name: "fault-plan",
            generate: |rng| FuzzInput::Fault(gen::fault(rng)),
            check: check_fault_plan,
        },
        Oracle {
            name: "hsabs-slots",
            generate: |rng| FuzzInput::Slots(gen::slots(rng)),
            check: check_hsabs_slots,
        },
        Oracle {
            name: "json-roundtrip",
            generate: |rng| FuzzInput::Doc(gen::doc(rng)),
            check: check_json_roundtrip,
        },
        Oracle {
            name: "partition-conservation",
            generate: |rng| FuzzInput::Tree(gen::tree(rng)),
            check: check_partition_conservation,
        },
        Oracle {
            name: "program-reorder",
            generate: |rng| FuzzInput::Prog(gen::prog(rng)),
            check: check_program_reorder,
        },
        Oracle {
            name: "reorder-identity",
            generate: |rng| FuzzInput::Rnn(gen::rnn(rng)),
            check: check_reorder_identity,
        },
        Oracle {
            name: "rollup-reference",
            generate: |rng| FuzzInput::Rollup(gen::rollup(rng)),
            check: check_rollup_reference,
        },
        Oracle {
            name: "scaleout-differential",
            generate: |rng| FuzzInput::Rnn(gen::rnn(rng)),
            check: check_scaleout_differential,
        },
        Oracle {
            name: "scheduler-lockstep",
            generate: |rng| FuzzInput::Cloud(gen::saturating_cloud(rng)),
            check: check_scheduler_lockstep,
        },
    ]
}

/// The registry's oracle names, in registry order.
pub fn oracle_names() -> Vec<&'static str> {
    registry().iter().map(|o| o.name).collect()
}

// ---------------------------------------------------------------------
// scaleout-differential: scaled co-simulation vs the monolithic
// accelerator (bit-exact) vs the f32 reference (quantization tolerance).
// ---------------------------------------------------------------------

fn rnn_task(kind: &str, hidden: usize, timesteps: usize) -> Result<RnnTask, String> {
    let kind = match kind {
        "gru" => RnnKind::Gru,
        "lstm" => RnnKind::Lstm,
        other => return Err(format!("unknown rnn kind `{other}`")),
    };
    if hidden == 0 || timesteps == 0 {
        return Err("degenerate rnn shape".into());
    }
    Ok(RnnTask::new(kind, hidden, timesteps))
}

fn run_scaled(
    task: RnnTask,
    weights: &RnnWeights,
    machines: usize,
    reorder: bool,
) -> Result<Vec<F16>, String> {
    let scaled = AcceleratorConfig::new("fuzz", 8).scaled_down(machines);
    let mut programs = Vec::new();
    let mut sims = Vec::new();
    for m in 0..machines {
        let rnn = generate_program(task, SliceSpec::new(m, machines));
        let window = remote_window(&scaled.isa, m, machines)
            .map_err(|e| format!("remote_window machine {m}: {e}"))?;
        let mut program = insert_communication(&rnn.program, &rnn.state_slots, &window)
            .map_err(|e| format!("insert_communication machine {m}: {e}"))?;
        if reorder {
            program = reorder_for_overlap(&program, &window)
                .map_err(|e| format!("reorder_for_overlap machine {m}: {e}"))?;
        }
        programs.push(program);
        let mut sim = FuncSim::new(&scaled);
        sim.set_remote_window(Some(window));
        weights.load_into(&mut sim, SliceSpec::new(m, machines));
        sims.push(sim);
    }
    co_simulate_functional(&mut sims, &programs).map_err(|e| format!("co-simulation: {e}"))?;
    let mut h = Vec::new();
    for (m, sim) in sims.iter().enumerate() {
        h.extend_from_slice(
            sim.read_dram(H_LOCAL_SLOT)
                .ok_or_else(|| format!("machine {m} produced no hidden-state slice"))?,
        );
    }
    Ok(h)
}

fn run_single(task: RnnTask, weights: &RnnWeights) -> Result<Vec<F16>, String> {
    let full = AcceleratorConfig::new("fuzz", 8);
    let rnn = generate_program(task, SliceSpec::FULL);
    let mut sim = FuncSim::new(&full);
    weights.load_into(&mut sim, SliceSpec::FULL);
    sim.run(&rnn.program)
        .map_err(|e| format!("single-machine run: {e}"))?;
    Ok(sim
        .read_dram(H_LOCAL_SLOT)
        .ok_or("single machine produced no hidden state")?
        .to_vec())
}

fn check_scaleout_differential(input: &FuzzInput) -> Result<(), String> {
    let FuzzInput::Rnn(spec) = input else {
        return Err("expected rnn input".into());
    };
    if spec.machines < 2 || spec.hidden < spec.machines {
        // Out of the scale-out contract (a machine with an empty row
        // slice); vacuously passes so the shrinker cannot wander here.
        return Ok(());
    }
    let task = rnn_task(&spec.kind, spec.hidden, spec.timesteps)?;
    let weights = RnnWeights::generate(task, spec.weight_seed);
    let single = run_single(task, &weights)?;
    let scaled = run_scaled(task, &weights, spec.machines, true)?;
    if single.len() != scaled.len() {
        return Err(format!(
            "scaled hidden state has {} elements, single has {}",
            scaled.len(),
            single.len()
        ));
    }
    for (i, (a, b)) in single.iter().zip(&scaled).enumerate() {
        if a.to_bits() != b.to_bits() {
            return Err(format!(
                "row {i}: scaled {} != single {} (must be bit-exact)",
                b.to_f32(),
                a.to_f32()
            ));
        }
    }
    // Both agree; compare once against the f32 reference within the
    // quantization budget (BFP matrices + f16 point-wise ops, error
    // growing with the recurrence depth).
    let reference = reference_run(&weights);
    let tolerance = 0.05 + 0.02 * spec.timesteps as f32;
    for (i, (a, r)) in scaled.iter().zip(&reference).enumerate() {
        let err = (a.to_f32() - r).abs();
        if err > tolerance {
            return Err(format!(
                "row {i}: accelerator {} vs f32 reference {r} (err {err} > {tolerance})",
                a.to_f32()
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// reorder-identity: reorder_for_overlap must permute, not rewrite — and
// the reordered programs must compute bit-identically.
// ---------------------------------------------------------------------

fn check_reorder_identity(input: &FuzzInput) -> Result<(), String> {
    let FuzzInput::Rnn(spec) = input else {
        return Err("expected rnn input".into());
    };
    if spec.machines < 2 || spec.hidden < spec.machines {
        return Ok(());
    }
    let task = rnn_task(&spec.kind, spec.hidden, spec.timesteps)?;
    let scaled = AcceleratorConfig::new("fuzz", 8).scaled_down(spec.machines);
    for m in 0..spec.machines {
        let rnn = generate_program(task, SliceSpec::new(m, spec.machines));
        let window = remote_window(&scaled.isa, m, spec.machines)
            .map_err(|e| format!("remote_window machine {m}: {e}"))?;
        let plain = insert_communication(&rnn.program, &rnn.state_slots, &window)
            .map_err(|e| format!("insert_communication machine {m}: {e}"))?;
        let reordered = reorder_for_overlap(&plain, &window)
            .map_err(|e| format!("reorder_for_overlap machine {m}: {e}"))?;
        if reordered.len() != plain.len() {
            return Err(format!(
                "machine {m}: reorder changed length {} -> {}",
                plain.len(),
                reordered.len()
            ));
        }
        // A permutation preserves the instruction multiset exactly.
        let multiset = |p: &Program| {
            let mut v: Vec<String> = p.iter().map(|i| i.to_string()).collect();
            v.sort();
            v
        };
        if multiset(&plain) != multiset(&reordered) {
            return Err(format!(
                "machine {m}: reorder changed the instruction multiset"
            ));
        }
        // The schedule must still respect the original dependence graph:
        // recover the permutation and validate it.
        let order = recover_permutation(&plain, &reordered)
            .ok_or_else(|| format!("machine {m}: reordered program is not a permutation"))?;
        if !plain.dep_graph().is_valid_order(&order) {
            return Err(format!("machine {m}: reorder violated a dependency"));
        }
    }
    // Cross-check the executions: plain vs reordered bit-identical.
    let weights = RnnWeights::generate(task, spec.weight_seed);
    let plain = run_scaled(task, &weights, spec.machines, false)?;
    let reordered = run_scaled(task, &weights, spec.machines, true)?;
    for (i, (a, b)) in plain.iter().zip(&reordered).enumerate() {
        if a.to_bits() != b.to_bits() {
            return Err(format!(
                "row {i}: reordered {} != plain {} (reorder must preserve results)",
                b.to_f32(),
                a.to_f32()
            ));
        }
    }
    Ok(())
}

/// Recovers `order` such that `reordered[k] == plain[order[k]]`, matching
/// duplicate instructions left-to-right. Returns `None` if the programs
/// are not permutations of each other.
fn recover_permutation(plain: &Program, reordered: &Program) -> Option<Vec<usize>> {
    let mut unused: HashMap<Instruction, VecDeque<usize>> = HashMap::new();
    for (i, inst) in plain.iter().enumerate() {
        unused.entry(*inst).or_default().push_back(i);
    }
    reordered
        .iter()
        .map(|inst| unused.get_mut(inst)?.pop_front())
        .collect()
}

// ---------------------------------------------------------------------
// depgraph-reference: the CSR dependency graph and the heap scheduler
// agree exactly with their hash-map / BTreeSet golden models.
// ---------------------------------------------------------------------

/// Compares the fast dependency graph and overlap schedule of `program`
/// with the reference implementations.
fn agree_with_reference(
    label: &str,
    program: &Program,
    window: &RemoteWindow,
) -> Result<(), String> {
    let fast = program.dep_graph();
    let reference = ReferenceGraph::build(program.instructions());
    if fast.len() != program.len() {
        return Err(format!(
            "{label}: graph covers {} of {} instructions",
            fast.len(),
            program.len()
        ));
    }
    let multiset = |edges: &[DepEdge]| {
        let mut v: Vec<(usize, usize, u8)> =
            edges.iter().map(|e| (e.from, e.to, e.kind as u8)).collect();
        v.sort_unstable();
        v
    };
    let (got, want) = (multiset(&fast.edges()), multiset(&reference.edges));
    if got != want {
        let first = got.iter().zip(&want).position(|(a, b)| a != b);
        return Err(format!(
            "{label}: {} edges, reference has {} (first difference at sorted position {:?})",
            got.len(),
            want.len(),
            first
        ));
    }
    let same =
        |got: &[u32], want: &[usize]| got.iter().map(|&x| x as usize).eq(want.iter().copied());
    for i in 0..program.len() {
        if !same(fast.preds(i), &reference.preds[i]) {
            return Err(format!(
                "{label}: preds({i}) = {:?}, reference {:?}",
                fast.preds(i),
                reference.preds[i]
            ));
        }
        if !same(fast.succs(i), &reference.succs[i]) {
            return Err(format!(
                "{label}: succs({i}) = {:?}, reference {:?}",
                fast.succs(i),
                reference.succs[i]
            ));
        }
    }
    let got = reorder_for_overlap(program, window).map_err(|e| e.to_string());
    let want = reference_reorder(program, window);
    if got != want {
        return Err(format!(
            "{label}: reorder_for_overlap disagrees with the reference schedule"
        ));
    }
    Ok(())
}

fn check_depgraph_reference(input: &FuzzInput) -> Result<(), String> {
    let FuzzInput::Prog(spec) = input else {
        return Err("expected prog input".into());
    };
    let program = assemble(&spec.asm).map_err(|e| format!("generated program: {e}"))?;
    let window = remote_window(&IsaConfig::default(), 0, 2).map_err(|e| e.to_string())?;
    // One or two of the stored slots become state slots, so the program
    // gains sends and receives for the scheduler to move.
    let mut stored: Vec<u32> = Vec::new();
    for addr in program.iter().filter_map(Instruction::mem_write) {
        if !stored.contains(&addr) {
            stored.push(addr);
        }
    }
    stored.truncate(1 + (spec.order_seed % 2) as usize);
    let with_comm = insert_communication(&program, &stored, &window)
        .map_err(|e| format!("insert_communication: {e}"))?;
    // And a variant with a halt in the middle: dead code follows it.
    let mut insts = with_comm.instructions().to_vec();
    insts.insert(insts.len() / 2, Instruction::Halt);
    let mid_halt = Program::new(insts);

    agree_with_reference("plain", &program, &window)?;
    agree_with_reference("with communication", &with_comm, &window)?;
    agree_with_reference("mid-program halt", &mid_halt, &window)
}

// ---------------------------------------------------------------------
// decompose-reference: the dense-id decomposer against the frozen
// BTreeMap one, on generated accelerators and dataflow graphs.
// ---------------------------------------------------------------------

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

/// Builds the case's design with its top module, decompose options and
/// leaf estimator.
type DecompCase = (
    Design,
    String,
    DecomposeOptions,
    Box<dyn Fn(&FlatNode) -> ResourceVec>,
);

fn build_decomp_case(spec: &DecompSpec) -> Result<DecompCase, String> {
    let (design, top, options, estimator): DecompCase = match &spec.design {
        DesignSpec::Accelerator {
            tiles,
            bram,
            parts,
            catalog,
        } => {
            if *tiles == 0 || *parts == 0 {
                return Err("degenerate accelerator shape".into());
            }
            let kind = if *bram {
                MemoryKind::Bram
            } else {
                MemoryKind::Uram
            };
            let cfg = AcceleratorConfig::new(format!("g{tiles}"), *tiles)
                .with_memory_kind(kind)
                .scaled_down(*parts);
            let mut options = DecomposeOptions::new(CONTROL_PATH_MODULE);
            if *catalog {
                options.move_to_control = MOVED_TO_CONTROL.iter().map(|s| s.to_string()).collect();
                options
                    .intra_parallelism
                    .insert("dpu_array".to_string(), cfg.rows_per_cycle);
            }
            let design = generate_rtl(&cfg);
            let estimator = Box::new(leaf_resource_estimator(&cfg));
            (design, TOP_MODULE.to_string(), options, estimator)
        }
        DesignSpec::Dataflow {
            input_width,
            ops,
            lanes,
        } => {
            let mut g = Dataflow::new("fz");
            let mut wires = vec![g.input(*input_width)];
            for (k, op) in ops.iter().enumerate() {
                let from = *wires
                    .get(op.from)
                    .filter(|_| op.from <= k)
                    .ok_or_else(|| format!("operator {k} reads wire {}", op.from))?;
                let kernel = op.kernel.as_str();
                let wire = match op.op.as_str() {
                    "stage" => g.stage(kernel, from, op.width),
                    "map" if op.workers > 0 => g.map(kernel, from, op.workers, op.width),
                    "reduce" => g.reduce(kernel, from, op.width),
                    other => return Err(format!("bad dataflow operator `{other}`")),
                };
                wires.push(wire);
            }
            let out = *wires.last().ok_or("dataflow without wires")?;
            g.output(out);
            let design = g.lower().map_err(|e| format!("dataflow lowers: {e}"))?;
            let (top, ctrl) = g.module_names();
            let mut options = DecomposeOptions::new(ctrl);
            if let Some((kernel, count)) = lanes {
                options.intra_parallelism.insert(kernel.clone(), *count);
            }
            (design, top, options, Box::new(kernel_resources))
        }
    };
    let design = if spec.reparse {
        vfpga_rtl::parse(&design.to_source()).map_err(|e| format!("emitted source: {e}"))?
    } else {
        design
    };
    Ok((design, top, options, estimator))
}

/// The first difference between two decompositions, if any.
fn decomposition_difference(got: &Decomposition, want: &Decomposition) -> Option<String> {
    let (render, want_render) = (got.tree.render(), want.tree.render());
    if render != want_render {
        let line = render
            .lines()
            .zip(want_render.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(render.lines().count().min(want_render.lines().count()));
        return Some(format!(
            "rendered trees differ at line {line}: {:?} vs reference {:?}",
            render.lines().nth(line),
            want_render.lines().nth(line)
        ));
    }
    if got.tree.root() != want.tree.root() {
        return Some(format!(
            "root {:?}, reference {:?}",
            got.tree.root(),
            want.tree.root()
        ));
    }
    let (blocks, want_blocks): (Vec<_>, Vec<_>) =
        (got.tree.iter().collect(), want.tree.iter().collect());
    if blocks.len() != want_blocks.len() {
        return Some(format!(
            "{} blocks, reference {}",
            blocks.len(),
            want_blocks.len()
        ));
    }
    if let Some((a, b)) = blocks.iter().zip(&want_blocks).find(|(a, b)| a != b) {
        return Some(format!("block {a:?}, reference {b:?}"));
    }
    if got.control_resources != want.control_resources {
        return Some(format!(
            "control resources {:?}, reference {:?}",
            got.control_resources, want.control_resources
        ));
    }
    if got.stats != want.stats {
        return Some(format!("stats {:?}, reference {:?}", got.stats, want.stats));
    }
    None
}

fn check_decompose_reference(input: &FuzzInput) -> Result<(), String> {
    let FuzzInput::Decomp(spec) = input else {
        return Err("expected decompose input".into());
    };
    let (design, top, options, estimator) = build_decomp_case(spec)?;
    let got = decompose(&design, &top, &options, &estimator);
    let want = reference_decompose(&design, &top, &options, &estimator);
    match (got, want) {
        (Ok(got), Ok(want)) => match decomposition_difference(&got, &want) {
            Some(diff) => Err(diff),
            None => Ok(()),
        },
        (Err(got), Err(want)) if got == want => Ok(()),
        (got, want) => Err(format!(
            "decompose returned {:?}, reference {:?}",
            got.map(|d| d.stats),
            want.map(|d| d.stats)
        )),
    }
}

// ---------------------------------------------------------------------
// program-reorder: a random dependency-preserving schedule of a random
// program leaves the entire architectural state bit-identical.
// ---------------------------------------------------------------------

fn fresh_sim(spec: &crate::input::ProgSpec) -> FuncSim {
    let config = AcceleratorConfig::new("fuzz", 2);
    let mut sim = FuncSim::new(&config);
    let mut rng = Rng::seed_from_u64(spec.data_seed);
    for slot in 0..spec.slots {
        let data: Vec<F16> = (0..spec.n)
            .map(|_| F16::from_f32(rng.range_f32(-1.0, 1.0)))
            .collect();
        sim.write_dram(slot as u32, &data);
    }
    for m in 0..2u16 {
        let data: Vec<f32> = (0..spec.n * spec.n)
            .map(|_| rng.range_f32(-1.0, 1.0))
            .collect();
        sim.load_matrix(MReg(m), spec.n, spec.n, &data);
    }
    sim
}

/// A random topological order of the program's dependence DAG (Kahn's
/// algorithm with the ready set sampled uniformly).
fn random_topo_order(program: &Program, seed: u64) -> Vec<usize> {
    let graph = program.dep_graph();
    let mut indegree: Vec<usize> = (0..program.len()).map(|i| graph.preds(i).len()).collect();
    let mut ready: Vec<usize> = (0..program.len()).filter(|&i| indegree[i] == 0).collect();
    let mut rng = Rng::seed_from_u64(seed);
    let mut order = Vec::with_capacity(program.len());
    while !ready.is_empty() {
        let pick = rng.below(ready.len());
        let i = ready.remove(pick);
        order.push(i);
        for &s in graph.succs(i) {
            let s = s as usize;
            indegree[s] -= 1;
            if indegree[s] == 0 {
                ready.push(s);
            }
        }
        ready.sort_unstable();
    }
    order
}

fn check_program_reorder(input: &FuzzInput) -> Result<(), String> {
    let FuzzInput::Prog(spec) = input else {
        return Err("expected prog input".into());
    };
    if spec.n == 0 || spec.slots == 0 {
        return Ok(());
    }
    let program = assemble(&spec.asm).map_err(|e| format!("generated program: {e}"))?;
    if program.is_empty() {
        return Ok(());
    }
    let order = random_topo_order(&program, spec.order_seed);
    if order.len() != program.len() {
        return Err("dependence graph is cyclic (topo order incomplete)".into());
    }
    let shuffled = program
        .reordered(&order)
        .map_err(|e| format!("dep-graph-sanctioned order rejected: {e}"))?;

    let mut a = fresh_sim(spec);
    a.run(&program)
        .map_err(|e| format!("original program: {e}"))?;
    let mut b = fresh_sim(spec);
    b.run(&shuffled)
        .map_err(|e| format!("reordered program: {e}"))?;

    if a.executed() != b.executed() {
        return Err(format!(
            "executed {} instructions originally, {} reordered",
            a.executed(),
            b.executed()
        ));
    }
    for reg in 0..8u8 {
        let (x, y) = (a.read_vreg(VReg(reg)), b.read_vreg(VReg(reg)));
        if bits(x) != bits(y) {
            return Err(format!("v{reg} differs after reordering"));
        }
    }
    for slot in (0..spec.slots as u32).chain(64..72) {
        let (x, y) = (a.read_dram(slot), b.read_dram(slot));
        if bits(x) != bits(y) {
            return Err(format!("dram slot {slot} differs after reordering"));
        }
    }
    Ok(())
}

fn bits(v: Option<&[F16]>) -> Option<Vec<u16>> {
    v.map(|s| s.iter().map(|x| x.to_bits()).collect())
}

// ---------------------------------------------------------------------
// partition-conservation: resources are conserved through every split,
// cut bandwidth is monotone, and unit covers partition the leaves.
// ---------------------------------------------------------------------

fn build_soft_tree(spec: &TreeSpec) -> SoftBlockTree {
    fn add(spec: &TreeSpec, blocks: &mut Vec<SoftBlock>) -> SoftBlockId {
        match spec {
            TreeSpec::Leaf {
                luts,
                ffs,
                bram_kb,
                dsps,
            } => {
                let id = SoftBlockId(blocks.len());
                blocks.push(SoftBlock {
                    id,
                    kind: SoftBlockKind::Leaf {
                        path: format!("u{}", id.0),
                        module: "m".into(),
                        behavior: None,
                    },
                    resources: ResourceVec {
                        luts: *luts,
                        ffs: *ffs,
                        bram_kb: *bram_kb,
                        uram_kb: 0,
                        dsps: *dsps,
                    },
                });
                id
            }
            TreeSpec::Data { children } | TreeSpec::Pipeline { children, .. } => {
                let child_ids: Vec<SoftBlockId> = children.iter().map(|c| add(c, blocks)).collect();
                let resources = child_ids.iter().map(|&c| blocks[c.0].resources).sum();
                let id = SoftBlockId(blocks.len());
                let (pattern, link_widths) = match spec {
                    TreeSpec::Data { .. } => (Pattern::Data, Vec::new()),
                    TreeSpec::Pipeline { links, .. } => (Pattern::Pipeline, links.clone()),
                    TreeSpec::Leaf { .. } => unreachable!(),
                };
                blocks.push(SoftBlock {
                    id,
                    kind: SoftBlockKind::Composite {
                        pattern,
                        children: child_ids,
                        link_widths,
                    },
                    resources,
                });
                id
            }
        }
    }
    let mut blocks = Vec::new();
    let root = add(spec, &mut blocks);
    SoftBlockTree::new(blocks, root)
}

fn check_partition_conservation(input: &FuzzInput) -> Result<(), String> {
    let FuzzInput::Tree(spec) = input else {
        return Err("expected tree input".into());
    };
    let tree = build_soft_tree(spec);
    let plan = partition(&tree, 4);
    let total = tree.root_block().resources;

    // Conservation through every performed split.
    fn walk(node: &vfpga_core::PartitionNode) -> Result<(), String> {
        if let Some(split) = &node.split {
            let mut sum = split.left.resources;
            sum += split.right.resources;
            if sum != node.resources {
                return Err(format!(
                    "split leaks resources: {} + {} luts != {}",
                    split.left.resources.luts, split.right.resources.luts, node.resources.luts
                ));
            }
            walk(&split.left)?;
            walk(&split.right)?;
        }
        Ok(())
    }
    if plan.root().resources != total {
        return Err(format!(
            "plan root has {} luts, tree root {}",
            plan.root().resources.luts,
            total.luts
        ));
    }
    walk(plan.root())?;

    // Degenerate requests are rejected, in-range ones served.
    if plan.units_for(0).is_ok() || plan.cut_bandwidth_for(0).is_ok() {
        return Err("units_for(0)/cut_bandwidth_for(0) accepted a zero-unit deployment".into());
    }
    let max = plan.max_units();
    if plan.units_for(max + 1).is_ok() || plan.cut_bandwidth_for(max + 1).is_ok() {
        return Err(format!("deployment beyond max_units ({max}) accepted"));
    }

    let mut prev_bw = 0u64;
    for units in 1..=max {
        let clusters = plan
            .units_for(units)
            .map_err(|e| format!("units_for({units}): {e}"))?;
        if clusters.len() != units {
            return Err(format!(
                "units_for({units}) produced {} clusters",
                clusters.len()
            ));
        }
        let sum: ResourceVec = clusters.iter().map(|c| c.resources).sum();
        if sum != total {
            return Err(format!(
                "units_for({units}) clusters sum to {} luts, total is {}",
                sum.luts, total.luts
            ));
        }
        let bw = plan
            .cut_bandwidth_for(units)
            .map_err(|e| format!("cut_bandwidth_for({units}): {e}"))?;
        if units == 1 && bw != 0 {
            return Err(format!("single-unit deployment reports cut bandwidth {bw}"));
        }
        if bw < prev_bw {
            return Err(format!(
                "cut bandwidth not monotone: {prev_bw} at {} units, {bw} at {units}",
                units - 1
            ));
        }
        prev_bw = bw;
    }

    // The maximal deployment's clusters cover every leaf exactly once.
    let clusters = plan.units_for(max).map_err(|e| e.to_string())?;
    let mut covered: Vec<usize> = clusters
        .iter()
        .flat_map(|c| c.blocks.iter())
        .flat_map(|&b| tree.leaves_under(b))
        .map(|id| id.0)
        .collect();
    covered.sort_unstable();
    let mut all: Vec<usize> = tree
        .iter()
        .filter(|b| b.is_leaf())
        .map(|b| b.id.0)
        .collect();
    all.sort_unstable();
    if covered != all {
        return Err(format!(
            "maximal deployment covers {} leaf slots, tree has {}",
            covered.len(),
            all.len()
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// controller-accounting: cloud simulation under faults conserves every
// arrival and reports byte-identically across identical runs.
// ---------------------------------------------------------------------

fn fuzz_db() -> &'static MappingDatabase {
    static DB: OnceLock<MappingDatabase> = OnceLock::new();
    DB.get_or_init(|| {
        let types = [DeviceType::xcvu37p(), DeviceType::xcku115()];
        let compiler = HsCompiler::default();
        let mut db = MappingDatabase::new();
        for (name, tiles, weight_mb) in [
            ("fz-s", 4usize, 40u64),
            ("fz-m", 10, 150),
            ("fz-l", 16, 200),
        ] {
            let config = AcceleratorConfig::new(name, tiles)
                .with_weight_memory_kb(weight_mb * 1024)
                .with_memory_kind(MemoryKind::Uram)
                .with_bfp(BfpFormat::new(6, 16));
            let design = generate_rtl(&config);
            let mut opts = DecomposeOptions::new(CONTROL_PATH_MODULE);
            opts.move_to_control = MOVED_TO_CONTROL.iter().map(|s| s.to_string()).collect();
            opts.intra_parallelism
                .insert("dpu_array".to_string(), config.rows_per_cycle);
            let est = leaf_resource_estimator(&config);
            let decomp = decompose(&design, TOP_MODULE, &opts, &est)
                .expect("generated accelerator decomposes");
            let plan = partition(&decomp.tree, 2);
            db.register(name, &decomp, &plan, &types, &compiler, true)
                .expect("fuzz instance compiles");
        }
        db
    })
}

fn cloud_setup(
    spec: &crate::input::CloudSpec,
) -> Result<(Cluster, Policy, Vec<TaskArrival>, FaultPlan, RecoveryPolicy), String> {
    if spec.devices.is_empty() {
        return Err("cloud case with no devices".into());
    }
    let types: Vec<DeviceType> = spec
        .devices
        .iter()
        .map(|d| match d.as_str() {
            "vu37p" => Ok(DeviceType::xcvu37p()),
            "ku115" => Ok(DeviceType::xcku115()),
            other => Err(format!("unknown device `{other}`")),
        })
        .collect::<Result<_, _>>()?;
    let cluster = Cluster::new(types);
    let policy = match spec.policy.as_str() {
        "full" => Policy::Full,
        "restricted" => Policy::Restricted,
        "baseline" => Policy::Baseline,
        other => return Err(format!("unknown policy `{other}`")),
    };
    let mut arrivals = Vec::new();
    for t in &spec.tasks {
        arrivals.push(TaskArrival {
            at: SimTime::from_ns(t.at_ns as f64),
            task: rnn_task(&t.kind, t.hidden, t.timesteps)?,
        });
    }
    let faults = match &spec.fault {
        None => FaultPlan::none(),
        Some(f) => {
            let params = FaultPlanParams {
                mttf: SimTime::from_ns(f.mttf_ns.max(1) as f64),
                mttr: SimTime::from_ns(f.mttr_ns.max(1) as f64),
                configure_failure_prob: (f.configure_pm.min(1000)) as f64 / 1000.0,
                horizon: SimTime::from_ns(f.horizon_ns as f64),
            };
            let plan = FaultPlan::generate(params, spec.devices.len(), f.seed);
            if f.link_faults {
                let link = LinkFaultParams {
                    mttf: SimTime::from_ns(f.mttf_ns.max(1) as f64),
                    mttr: SimTime::from_ns(f.mttr_ns.max(1) as f64),
                    degraded_fraction: 0.5,
                    bandwidth_factor: 0.5,
                    extra_latency: SimTime::from_ns(200.0),
                    corruption_prob: 0.05,
                    max_retransmits: 3,
                    retransmit_backoff: SimTime::from_ns(200.0),
                    horizon: SimTime::from_ns(f.horizon_ns as f64),
                };
                plan.with_link_faults(link, cluster.ring().segments())
            } else {
                plan
            }
        }
    };
    let recovery = RecoveryPolicy {
        drop_on_exhaustion: spec.drop_on_exhaustion,
        ..RecoveryPolicy::default()
    };
    Ok((cluster, policy, arrivals, faults, recovery))
}

/// The instance class serving a fuzz task.
fn fuzz_instance_for(t: &RnnTask) -> &'static str {
    match t.size_class() {
        vfpga_workload::SizeClass::Small => "fz-s",
        vfpga_workload::SizeClass::Medium => "fz-m",
        vfpga_workload::SizeClass::Large => "fz-l",
    }
}

/// A fuzz task's service time: a microsecond of setup plus its work
/// split evenly over the deployment's units.
fn fuzz_service_time(t: &RnnTask, d: &Deployment) -> SimTime {
    SimTime::from_us(1.0 + t.flops() as f64 / 1e9 / d.num_units() as f64)
}

fn run_cloud_once(
    cluster: &Cluster,
    policy: Policy,
    arrivals: &[TaskArrival],
    instance_for: &dyn Fn(&RnnTask) -> &'static str,
    faults: &FaultPlan,
    recovery: RecoveryPolicy,
    elasticity: ElasticityPolicy,
) -> Result<(CloudReport, ControllerStats), String> {
    // Fresh controller per run: faulted runs leave the transient-fault
    // injector installed, so reuse would leak state between runs.
    let mut controller = SystemController::new(cluster.clone(), fuzz_db().clone(), policy);
    let report = run_cloud_sim_tuned(
        &mut controller,
        arrivals,
        instance_for,
        &fuzz_service_time,
        faults,
        recovery,
        DEFAULT_TRACE_CAPACITY,
        AdmissionTuning {
            elasticity,
            ..AdmissionTuning::default()
        },
    )
    .map_err(|e| format!("cloud simulation: {e}"))?;
    // Every task completed, was lost or never deployed: whatever the
    // admissions, migrations and resizes did, the drained controller
    // must hold nothing.
    if controller.live_deployments() != 0 || controller.occupancy() != 0.0 {
        return Err(format!(
            "drained controller ({elasticity:?}) holds {} live deployments at occupancy {}",
            controller.live_deployments(),
            controller.occupancy()
        ));
    }
    Ok((report, *controller.stats()))
}

fn check_controller_accounting(input: &FuzzInput) -> Result<(), String> {
    let FuzzInput::Cloud(spec) = input else {
        return Err("expected cloud input".into());
    };
    let (cluster, policy, arrivals, faults, recovery) = cloud_setup(spec)?;
    let run = |elasticity| {
        run_cloud_once(
            &cluster,
            policy,
            &arrivals,
            &fuzz_instance_for,
            &faults,
            recovery,
            elasticity,
        )
        .map(|(report, _)| report)
    };
    let report = run(ElasticityPolicy::DISABLED)?;

    if !report.accounts_for_all_arrivals() {
        return Err(format!(
            "accounting leak: completed {} + never_deployed {} + lost {} != arrivals {}",
            report.completed, report.never_deployed, report.lost, report.arrivals
        ));
    }
    if report.arrivals != arrivals.len() as u64 {
        return Err(format!(
            "report saw {} arrivals, workload has {}",
            report.arrivals,
            arrivals.len()
        ));
    }
    for (name, v) in [
        ("mean_occupancy", report.mean_occupancy),
        ("peak_occupancy", report.peak_occupancy),
        ("degraded_mean_occupancy", report.degraded_mean_occupancy),
    ] {
        if !(0.0..=1.0 + 1e-9).contains(&v) {
            return Err(format!("{name} out of range: {v}"));
        }
    }
    if !recovery.drop_on_exhaustion && report.lost != 0 {
        return Err(format!(
            "{} tasks lost although drop_on_exhaustion is off",
            report.lost
        ));
    }
    if report.device_recoveries > report.device_failures {
        return Err(format!(
            "{} recoveries exceed {} failures",
            report.device_recoveries, report.device_failures
        ));
    }
    let text = report.to_json().pretty();
    Json::parse(&text).map_err(|e| format!("report JSON does not parse: {e}"))?;

    // Determinism: an identical fresh run serializes byte-identically.
    let again = run(ElasticityPolicy::DISABLED)?;
    if again.to_json().pretty() != text {
        return Err("two identical runs produced different reports".into());
    }
    // Promotion and preemptive scale-down resize running deployments
    // through the same commit and retire paths; they must conserve
    // every arrival too.
    let elastic = run(ElasticityPolicy::FULL)?;
    if !elastic.accounts_for_all_arrivals() {
        return Err(format!(
            "elastic accounting leak: completed {} + never_deployed {} + lost {} != arrivals {}",
            elastic.completed, elastic.never_deployed, elastic.lost, elastic.arrivals
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// scheduler-lockstep: the engine's admission fast paths (feasibility
// cache, known-infeasible skips, free-slot pruning) against the naive
// reference scheduler, decision by decision.
// ---------------------------------------------------------------------

fn check_scheduler_lockstep(input: &FuzzInput) -> Result<(), String> {
    let FuzzInput::Cloud(spec) = input else {
        return Err("expected cloud input".into());
    };
    // Link faults are outside the reference's model.
    let mut spec = spec.clone();
    if let Some(f) = &mut spec.fault {
        f.link_faults = false;
    }
    let (cluster, policy, arrivals, faults, recovery) = cloud_setup(&spec)?;
    let reference = ReferenceScheduler::run(
        &cluster,
        fuzz_db(),
        policy,
        &arrivals,
        &fuzz_instance_for,
        &fuzz_service_time,
        &faults,
        recovery,
    )?;
    let (fast, _) = run_cloud_once(
        &cluster,
        policy,
        &arrivals,
        &fuzz_instance_for,
        &faults,
        recovery,
        ElasticityPolicy::DISABLED,
    )?;
    reference.check_lockstep(&fast)
}

// ---------------------------------------------------------------------
// hsabs-slots: the low-level controller's slot bitmap, free counters,
// and occupancy must agree with an independent shadow model.
// ---------------------------------------------------------------------

fn check_hsabs_slots(input: &FuzzInput) -> Result<(), String> {
    let FuzzInput::Slots(spec) = input else {
        return Err("expected slots input".into());
    };
    if spec.devices.is_empty() {
        return Ok(());
    }
    let types: Vec<DeviceType> = spec
        .devices
        .iter()
        .map(|d| match d.as_str() {
            "vu37p" => Ok(DeviceType::xcvu37p()),
            "ku115" => Ok(DeviceType::xcku115()),
            other => Err(format!("unknown device `{other}`")),
        })
        .collect::<Result<_, _>>()?;
    let cluster = Cluster::new(types.clone());
    let mut ctl = LowLevelController::new(&cluster);
    let compiler = HsCompiler::default();

    // Shadow model: (allocation, device, blocks) triples + health flags.
    let mut live: Vec<(vfpga_hsabs::AllocationId, usize, usize)> = Vec::new();
    let mut healthy = vec![true; spec.devices.len()];

    for (step, op) in spec.ops.iter().enumerate() {
        let fail = |msg: String| Err(format!("step {step} ({op:?}): {msg}"));
        match *op {
            SlotOp::Configure { device, blocks } => {
                let device = device % spec.devices.len();
                let dt = &types[device];
                let spec_blocks = VirtualBlockSpec::for_device(dt);
                let slot = *spec_blocks.slot_resources();
                let demand = ResourceVec {
                    luts: slot.luts * blocks as u64,
                    ffs: slot.ffs * blocks as u64,
                    bram_kb: slot.bram_kb * blocks as u64,
                    uram_kb: slot.uram_kb * blocks as u64,
                    dsps: slot.dsps * blocks as u64,
                };
                let image = match compiler.compile("fuzz-image", &demand, dt) {
                    Ok(img) => img,
                    Err(HsError::DoesNotFit { .. }) => continue,
                    Err(e) => return fail(format!("compile: {e}")),
                };
                let free = ctl.slots_free(DeviceId(device));
                let result = ctl.configure(DeviceId(device), &image);
                match result {
                    Ok(id) => {
                        if !healthy[device] {
                            return fail("configure succeeded on a failed device".into());
                        }
                        if image.blocks() > free {
                            return fail(format!(
                                "configure of {} blocks succeeded with {free} free",
                                image.blocks()
                            ));
                        }
                        live.push((id, device, image.blocks()));
                    }
                    Err(HsError::DeviceFailed { .. }) => {
                        if healthy[device] {
                            return fail("healthy device reported as failed".into());
                        }
                    }
                    Err(HsError::InsufficientSlots { .. }) => {
                        if !healthy[device] {
                            return fail(
                                "failed device reported slot shortage, not failure".into(),
                            );
                        }
                        if image.blocks() <= free {
                            return fail(format!(
                                "{} blocks rejected with {free} free",
                                image.blocks()
                            ));
                        }
                    }
                    Err(e) => return fail(format!("unexpected configure error: {e}")),
                }
            }
            SlotOp::Release { idx } => {
                if live.is_empty() {
                    continue;
                }
                let (id, _, _) = live.remove(idx % live.len());
                if let Err(e) = ctl.release(id) {
                    return fail(format!("release of a live allocation failed: {e}"));
                }
                if ctl.release(id).is_ok() {
                    return fail("double release accepted".into());
                }
            }
            SlotOp::Evict { device } => {
                let device = device % spec.devices.len();
                let mut evicted = ctl.evict_device(DeviceId(device));
                evicted.sort_by_key(|a| a.0);
                let mut expected: Vec<vfpga_hsabs::AllocationId> = live
                    .iter()
                    .filter(|(_, d, _)| *d == device)
                    .map(|(a, _, _)| *a)
                    .collect();
                expected.sort_by_key(|a| a.0);
                if healthy[device] && evicted != expected {
                    return fail(format!(
                        "evicted {} allocations, shadow had {}",
                        evicted.len(),
                        expected.len()
                    ));
                }
                live.retain(|(_, d, _)| *d != device);
                healthy[device] = false;
            }
            SlotOp::Recover { device } => {
                let device = device % spec.devices.len();
                ctl.recover_device(DeviceId(device));
                healthy[device] = true;
            }
        }

        // Invariants after every operation.
        if ctl.live_allocations() != live.len() {
            return fail(format!(
                "controller reports {} live allocations, shadow {}",
                ctl.live_allocations(),
                live.len()
            ));
        }
        let mut occupied_total = 0usize;
        let mut slots_total = 0usize;
        for (d, ok) in healthy.iter().enumerate() {
            let occupied: usize = live
                .iter()
                .filter(|(_, dev, _)| *dev == d)
                .map(|(_, _, b)| *b)
                .sum();
            let total = ctl.slots_total(DeviceId(d));
            let want_free = if *ok { total - occupied } else { 0 };
            if ctl.slots_free(DeviceId(d)) != want_free {
                return fail(format!(
                    "device {d}: slots_free {} disagrees with shadow {want_free}",
                    ctl.slots_free(DeviceId(d))
                ));
            }
            if *ok {
                occupied_total += occupied;
                slots_total += total;
            }
        }
        let want_occ = if slots_total == 0 {
            0.0
        } else {
            occupied_total as f64 / slots_total as f64
        };
        if (ctl.occupancy() - want_occ).abs() > 1e-9 {
            return fail(format!(
                "occupancy {} disagrees with shadow {want_occ}",
                ctl.occupancy()
            ));
        }
        // The slot bitmap itself: allocations on one device are disjoint
        // and exactly as large as granted.
        for d in 0..spec.devices.len() {
            let mut taken = vec![false; ctl.slots_total(DeviceId(d))];
            for (id, dev, blocks) in live.iter().filter(|(_, dev, _)| *dev == d) {
                let Some(slots) = ctl.slots_of(*id) else {
                    return fail(format!("live allocation {id:?} has no slots"));
                };
                if slots.len() != *blocks {
                    return fail(format!(
                        "allocation {id:?} granted {} slots, image had {blocks}",
                        slots.len()
                    ));
                }
                for &s in slots {
                    if s >= taken.len() || taken[s] {
                        return fail(format!("slot {s} on device {dev} double-booked"));
                    }
                    taken[s] = true;
                }
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// fault-plan: renewal-process invariants and exact regeneration.
// ---------------------------------------------------------------------

fn check_fault_plan(input: &FuzzInput) -> Result<(), String> {
    let FuzzInput::Fault(spec) = input else {
        return Err("expected fault-plan input".into());
    };
    let params = FaultPlanParams {
        mttf: SimTime::from_ns(spec.mttf_ns.max(1) as f64),
        mttr: SimTime::from_ns(spec.mttr_ns.max(1) as f64),
        configure_failure_prob: 0.0,
        horizon: SimTime::from_ns(spec.horizon_ns as f64),
    };
    let build = || {
        let plan = FaultPlan::generate(params, spec.devices, spec.seed);
        if spec.links > 0 {
            let link = LinkFaultParams {
                mttf: SimTime::from_ns(spec.mttf_ns.max(1) as f64),
                mttr: SimTime::from_ns(spec.mttr_ns.max(1) as f64),
                degraded_fraction: spec.degraded_pm.min(1000) as f64 / 1000.0,
                bandwidth_factor: 0.5,
                extra_latency: SimTime::from_ns(100.0),
                corruption_prob: 0.01,
                max_retransmits: 3,
                retransmit_backoff: SimTime::from_ns(200.0),
                horizon: SimTime::from_ns(spec.horizon_ns as f64),
            };
            plan.with_link_faults(link, spec.links)
        } else {
            plan
        }
    };
    let plan = build();

    // Exact regeneration (the whole replay story rests on this).
    if build() != plan {
        return Err("regenerating the plan from its seed gave different events".into());
    }

    let horizon = SimTime::from_ns(spec.horizon_ns as f64);
    let mut down = vec![false; spec.devices];
    let mut last_at = SimTime::ZERO;
    for (i, e) in plan.events().iter().enumerate() {
        if e.at < last_at {
            return Err(format!("event {i} goes back in time"));
        }
        last_at = e.at;
        if e.device >= spec.devices {
            return Err(format!(
                "event {i} targets device {} of {}",
                e.device, spec.devices
            ));
        }
        if e.fail {
            if e.at >= horizon && spec.horizon_ns > 0 {
                return Err(format!("failure {i} scheduled at/after the horizon"));
            }
            if down[e.device] {
                return Err(format!("device {} failed twice without recovery", e.device));
            }
            down[e.device] = true;
        } else {
            if !down[e.device] {
                return Err(format!("device {} recovered while healthy", e.device));
            }
            down[e.device] = false;
        }
    }
    if let Some(d) = down.iter().position(|&x| x) {
        return Err(format!("device {d} never recovers (plan must drain)"));
    }
    if plan.failures() != plan.events().iter().filter(|e| e.fail).count() {
        return Err("failures() disagrees with the event list".into());
    }

    let mut link_down = vec![false; spec.links];
    let mut last_at = SimTime::ZERO;
    for (i, e) in plan.link_events().iter().enumerate() {
        if e.at < last_at {
            return Err(format!("link event {i} goes back in time"));
        }
        last_at = e.at;
        if e.link >= spec.links {
            return Err(format!("link event {i} targets segment {}", e.link));
        }
        match e.kind {
            LinkFaultKind::Degraded | LinkFaultKind::Failed => {
                if e.at >= horizon && spec.horizon_ns > 0 {
                    return Err(format!("link fault {i} scheduled at/after the horizon"));
                }
                if link_down[e.link] {
                    return Err(format!("link {} faulted twice without recovery", e.link));
                }
                link_down[e.link] = true;
            }
            LinkFaultKind::Recovered => {
                if !link_down[e.link] {
                    return Err(format!("link {} recovered while healthy", e.link));
                }
                link_down[e.link] = false;
            }
        }
    }
    if let Some(l) = link_down.iter().position(|&x| x) {
        return Err(format!("link {l} never recovers (plan must drain)"));
    }

    let text = plan.to_json().pretty();
    Json::parse(&text).map_err(|e| format!("plan JSON does not parse: {e}"))?;
    Ok(())
}

// ---------------------------------------------------------------------
// json-roundtrip: serialize → parse → serialize is byte-identical, the
// writer's bytes equal the original writer's, and the document written
// through `JsonDoc` and converted back to a tree renders the same bytes.
// ---------------------------------------------------------------------

fn check_json_roundtrip(input: &FuzzInput) -> Result<(), String> {
    let FuzzInput::Doc(doc) = input else {
        return Err("expected doc input".into());
    };
    let pretty = doc.pretty();
    if pretty != reference_pretty(doc) {
        return Err("pretty output differs from the reference writer".into());
    }
    if doc.compact() != reference_compact(doc) {
        return Err("compact output differs from the reference writer".into());
    }
    let streamed = JsonDoc(doc);
    if streamed.pretty() != pretty || streamed.compact() != doc.compact() {
        return Err("the document written through JsonDoc differs from the tree".into());
    }
    let converted = Json::from(streamed);
    if converted.pretty() != pretty || converted.compact() != doc.compact() {
        return Err("the JsonDoc-to-tree conversion renders different bytes".into());
    }
    let parsed = Json::parse(&pretty).map_err(|e| format!("pretty output does not parse: {e}"))?;
    if &parsed != doc {
        return Err("pretty round-trip changed the document".into());
    }
    if parsed.pretty() != pretty {
        return Err("second prettification is not byte-identical".into());
    }
    let compact = doc.compact();
    let parsed =
        Json::parse(&compact).map_err(|e| format!("compact output does not parse: {e}"))?;
    if &parsed != doc {
        return Err("compact round-trip changed the document".into());
    }
    if parsed.compact() != compact {
        return Err("second compaction is not byte-identical".into());
    }
    Ok(())
}

// ---------------------------------------------------------------------
// rollup-reference: window-series rollups vs the per-cell map.
// ---------------------------------------------------------------------

fn rollup_key(label: &str) -> Result<RollupKey, String> {
    let index = |n: &str| {
        n.parse::<u64>()
            .map_err(|_| format!("bad rollup key `{label}`"))
    };
    match label.split_once(':') {
        None if label == "cluster" => Ok(RollupKey::Cluster),
        Some(("tenant", name)) => Ok(RollupKey::Tenant(name.to_string())),
        Some(("device", n)) => index(n).map(RollupKey::Device),
        Some(("segment", n)) => index(n).map(RollupKey::Segment),
        _ => Err(format!("bad rollup key `{label}`")),
    }
}

/// Replays a case's records into both rollup implementations.
fn build_rollups(spec: &RollupSpec) -> Result<(RollupSet, ReferenceRollupSet), String> {
    if spec.window_ns == 0 || spec.factor == 0 {
        return Err("degenerate rollup case".into());
    }
    let window = SimTime::from_ns(spec.window_ns as f64);
    let alpha = spec.alpha_pm as f64 / 1000.0;
    let mut fast = RollupSet::new(window, alpha);
    let mut reference = ReferenceRollupSet::new(window, alpha);
    for rec in &spec.records {
        let key = rollup_key(&rec.key)?;
        let at = SimTime::from_ns(rec.at_ns as f64);
        let d = SimTime::from_ns(rec.value as f64);
        match rec.kind.as_str() {
            "arrival" => {
                fast.record_arrival(&key, at);
                reference.record_arrival(key, at);
            }
            "completion" => {
                fast.record_completion(&key, at, d);
                reference.record_completion(key, at, d);
            }
            "queue_wait" => {
                fast.record_queue_wait(&key, at, d);
                reference.record_queue_wait(key, at, d);
            }
            "migration" => {
                fast.record_migration(&key, at);
                reference.record_migration(key, at);
            }
            "retransmit" => {
                fast.record_retransmit(&key, at, rec.value);
                reference.record_retransmit(key, at, rec.value);
            }
            "occupancy" => {
                let fraction = rec.value as f64 / 1000.0;
                fast.record_occupancy(&key, at, fraction);
                reference.record_occupancy(key, at, fraction);
            }
            other => return Err(format!("unknown rollup record kind `{other}`")),
        }
    }
    Ok((fast, reference))
}

fn series_text(key: &RollupKey, window_s: f64, series: &[(u64, &WindowStats)]) -> String {
    let rows = series
        .iter()
        .map(|&(idx, stats)| rollup_row(key, idx, window_s, stats))
        .collect();
    Json::Arr(rows).compact()
}

/// Every query the artifact and the SLO evaluator make agrees with the
/// reference: the serialized table, the cell count, the key list and each
/// key's series (plus one key never recorded).
fn agree_rollups(
    label: &str,
    fast: &RollupSet,
    reference: &ReferenceRollupSet,
) -> Result<(), String> {
    let (text, want) = (fast.to_json().compact(), reference.to_json().compact());
    if text != want {
        return Err(format!(
            "{label}: to_json differs\n  got  {text}\n  want {want}"
        ));
    }
    if fast.len() != reference.len() {
        return Err(format!(
            "{label}: len {} != reference {}",
            fast.len(),
            reference.len()
        ));
    }
    let keys = reference.keys();
    if fast.keys() != keys {
        return Err(format!(
            "{label}: keys {:?} != reference {keys:?}",
            fast.keys()
        ));
    }
    let window_s = fast.window().as_secs();
    for key in keys.iter().chain([&RollupKey::Segment(99)]) {
        let got = series_text(key, window_s, &fast.series_for(key));
        let want = series_text(key, window_s, &reference.series_for(key));
        if got != want {
            return Err(format!("{label}: series_for({key:?}) differs"));
        }
    }
    Ok(())
}

fn check_rollup_reference(input: &FuzzInput) -> Result<(), String> {
    let FuzzInput::Rollup(spec) = input else {
        return Err("expected rollup input".into());
    };
    let (mut fast, mut reference) = build_rollups(spec)?;
    agree_rollups("recorded", &fast, &reference)?;
    agree_rollups(
        &format!("merged x{}", spec.factor),
        &fast.merged(spec.factor),
        &reference.merged(spec.factor),
    )?;
    let cut = SimTime::from_ns(spec.cut_ns as f64);
    let (marked, want) = (
        fast.mark_truncated_before(cut),
        reference.mark_truncated_before(cut),
    );
    if marked != want {
        return Err(format!(
            "mark_truncated_before marked {marked} cells, reference {want}"
        ));
    }
    agree_rollups("truncated", &fast, &reference)?;
    agree_rollups(
        &format!("truncated, merged x{}", spec.factor),
        &fast.merged(spec.factor),
        &reference.merged(spec.factor),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::case_rng;
    use crate::scheduler::SCAN_WINDOW;
    use vfpga_runtime::RejectReason;

    /// The rollup oracle only pins the paths its cases reach. Over the
    /// first 200 cases at seed 42, count the cases where a record lands in
    /// an older window its key has not seen yet (the series insert), in an
    /// older window it has seen, where merging folds windows together, and
    /// where the cut marks some windows but not all. None may be 0.
    #[test]
    fn rollup_cases_reach_every_path() {
        let labels = [
            "out-of-order inserts",
            "out-of-order hits",
            "folding merges",
            "partial truncation",
        ];
        let mut hits = [0usize; 4];
        let cases = 200;
        for i in 0..cases {
            let spec = gen::rollup(&mut case_rng(42, "rollup-reference", i));
            let mut seen: HashMap<&str, Vec<u64>> = HashMap::new();
            let (mut inserts, mut older_hits) = (false, false);
            for rec in &spec.records {
                let idx = rec.at_ns / spec.window_ns;
                let windows = seen.entry(rec.key.as_str()).or_default();
                if windows.iter().any(|&w| w > idx) {
                    if windows.contains(&idx) {
                        older_hits = true;
                    } else {
                        inserts = true;
                    }
                }
                windows.push(idx);
            }
            let (_, mut reference) = build_rollups(&spec).unwrap();
            let cells = reference.len();
            let folds = reference.merged(spec.factor).len() < cells;
            let marked = reference.mark_truncated_before(SimTime::from_ns(spec.cut_ns as f64));
            let fired = [inserts, older_hits, folds, marked > 0 && marked < cells];
            for (h, f) in hits.iter_mut().zip(fired) {
                *h += usize::from(f);
            }
        }
        for (label, h) in labels.iter().zip(hits) {
            println!("{label}: {h}/{cases}");
            assert!(h > 0, "no case exercised {label}");
        }
    }

    /// The lockstep only pins the fast paths its cases exercise. Over the
    /// oracle's first 200 cases at seed 42 (the CI budget), count the
    /// cases where the feasibility cache answered a migration attempt, the
    /// engine skipped queued tasks known infeasible (so it made fewer
    /// attempts than the reference), the queue outgrew the scan window, a
    /// deployment was interrupted, and a configure flaked. None may be 0.
    #[test]
    fn saturating_cases_fire_every_fast_path() {
        let labels = [
            "cache hits",
            "known-infeasible skips",
            "queue past the window",
            "interruptions",
            "transient faults",
        ];
        let mut hits = [0usize; 5];
        let cases = 200;
        for i in 0..cases {
            let mut rng = case_rng(42, "scheduler-lockstep", i);
            let spec = gen::saturating_cloud(&mut rng);
            let (cluster, policy, arrivals, faults, recovery) = cloud_setup(&spec).unwrap();
            let (fast, stats) = run_cloud_once(
                &cluster,
                policy,
                &arrivals,
                &fuzz_instance_for,
                &faults,
                recovery,
                ElasticityPolicy::DISABLED,
            )
            .unwrap();
            let reference = ReferenceScheduler::run(
                &cluster,
                fuzz_db(),
                policy,
                &arrivals,
                &fuzz_instance_for,
                &fuzz_service_time,
                &faults,
                recovery,
            )
            .unwrap();
            let fired = [
                stats.cache_hits > 0,
                stats.probes + stats.cache_hits < reference.attempts,
                fast.peak_queue_depth > SCAN_WINDOW as u64,
                fast.interrupted > 0,
                fast.rejected_tasks_for(RejectReason::TransientFault) > 0,
            ];
            for (h, f) in hits.iter_mut().zip(fired) {
                *h += usize::from(f);
            }
        }
        for (label, h) in labels.iter().zip(hits) {
            println!("{label}: {h}/{cases}");
            assert!(h > 0, "no case exercised {label}");
        }
    }
}
