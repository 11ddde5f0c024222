//! The `offline` workload: no cloud simulation at all.
//!
//! * Toolchain samples take one accelerator config from generated RTL to a
//!   mapping-database entry: `accel::generate_rtl` → `Design::to_source`
//!   → `rtl::parse` → `core::decompose` → `core::partition` (3 iterations)
//!   → `MappingDatabase::register` (which runs the `hsabs` compiler).
//! * Co-sim samples compute one Fig. 11 point: `workload::codegen` →
//!   `core::scaleout` insertion (and reordering) → `isa::encode` →
//!   `accel::CycleSim` under `runtime::co_simulate_timing`.
//!
//! A round is `toolchain_passes` passes over the configs followed by one
//! pass over every Fig. 11 point, closed loop: each sample starts when the
//! previous one returns. The seed fixes the order samples run in and the
//! weights of the functional co-simulation check.

use std::time::Instant;

use vfpga_accel::{
    generate_rtl, leaf_resource_estimator, AcceleratorConfig, CycleSim, FuncSim, TimingModel,
    CONTROL_PATH_MODULE, MOVED_TO_CONTROL, TOP_MODULE,
};
use vfpga_bench::catalog::{ring_link, storage_bfp, Catalog};
use vfpga_core::scaleout::{insert_communication, remote_window, reorder_for_overlap};
use vfpga_core::{decompose, partition, DecomposeOptions, MappingDatabase};
use vfpga_fabric::{DeviceType, MemoryKind};
use vfpga_hsabs::HsCompiler;
use vfpga_isa::encode;
use vfpga_runtime::{co_simulate_functional, co_simulate_timing};
use vfpga_sim::{Rng, SimTime};
use vfpga_workload::{
    generate_program, RnnKind, RnnTask, RnnWeights, SizeClass, SliceSpec, H_LOCAL_SLOT,
};

use crate::inputs::Fnv;
use crate::probe::Probe;
use crate::run::{Bench, Round};
use crate::{Check, Scale};

/// Partition iterations per toolchain sample (up to 8 units).
const PARTITION_ITERATIONS: usize = 3;

/// Added inter-FPGA latencies of the Fig. 11 sweep: 0 to 2 us in 200 ns
/// steps.
const ADDED_LATENCY_STEPS: usize = 11;

/// A Fig. 11 point is "hidden" while its latency stays within this
/// fraction of the zero-added-latency point.
const HIDDEN_TOLERANCE: f64 = 0.02;

/// One Fig. 11 co-simulation point.
#[derive(Debug, Clone, Copy)]
struct CosimPoint {
    task: RnnTask,
    machines: usize,
    reorder: bool,
    added: SimTime,
}

/// The offline workload's inputs.
pub struct OfflineBench {
    seed: u64,
    configs: Vec<AcceleratorConfig>,
    passes: usize,
    points: Vec<CosimPoint>,
    device_types: Vec<DeviceType>,
    compiler: HsCompiler,
}

/// The Fig. 11 tasks: an LSTM whose transfers hide fully, a small GRU that
/// hides a bounded amount of added latency, and a large GRU that hides
/// none.
fn fig11_tasks(timesteps: Option<usize>) -> [RnnTask; 3] {
    let task = |kind, hidden, steps| RnnTask::new(kind, hidden, timesteps.unwrap_or(steps));
    [
        task(RnnKind::Lstm, 1024, 25),
        task(RnnKind::Gru, 1024, 64),
        task(RnnKind::Gru, 2560, 64),
    ]
}

/// Fisher-Yates shuffle driven by the benchmark's seed.
fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// One machine of a `machines`-FPGA deployment of `task`: the accelerator
/// sized for the task's class, scaled down `machines` ways.
fn scaled_config(task: &RnnTask, machines: usize) -> AcceleratorConfig {
    let tiles = match task.size_class() {
        SizeClass::Small => 2,
        SizeClass::Medium => 8,
        SizeClass::Large => 21,
    };
    AcceleratorConfig::new("fig11", tiles)
        .with_bfp(storage_bfp())
        .scaled_down(machines)
}

impl OfflineBench {
    /// Builds the inputs (the catalog is built too: `Catalog::build` is
    /// part of every workload's set-up).
    pub fn new(seed: u64, scale: &Scale) -> Self {
        let catalog = Catalog::build();
        let mut rng = Rng::seed_from_u64(seed);
        let mut configs: Vec<AcceleratorConfig> = (1..=scale.configs)
            .map(|tiles| {
                AcceleratorConfig::new(format!("tiles-{tiles:02}"), tiles)
                    .with_memory_kind(MemoryKind::Uram)
                    .with_bfp(storage_bfp())
            })
            .collect();
        shuffle(&mut configs, &mut rng);
        let mut points = Vec::new();
        for task in fig11_tasks(scale.cosim_timesteps) {
            for machines in [2, 4] {
                for reorder in [true, false] {
                    for step in 0..ADDED_LATENCY_STEPS {
                        points.push(CosimPoint {
                            task,
                            machines,
                            reorder,
                            added: SimTime::from_ns(200.0 * step as f64),
                        });
                    }
                }
            }
        }
        shuffle(&mut points, &mut rng);
        OfflineBench {
            seed,
            configs,
            passes: scale.toolchain_passes,
            points,
            device_types: catalog.cluster.device_types(),
            compiler: HsCompiler::default(),
        }
    }

    /// One toolchain sample; returns the number of mapping options
    /// registered (`Err` if a stage failed).
    fn compile(
        &self,
        probe: &mut Probe,
        db: &mut MappingDatabase,
        config: &AcceleratorConfig,
    ) -> Result<usize, String> {
        let o = probe.enter("rtl.generate");
        let design = generate_rtl(config);
        probe.exit(o);
        let o = probe.enter("rtl.write");
        let source = design.to_source();
        probe.exit(o);
        let o = probe.enter("rtl.parse");
        let parsed = vfpga_rtl::parse(&source);
        probe.exit(o);
        let parsed = parsed.map_err(|e| format!("parse: {e}"))?;
        let mut options = DecomposeOptions::new(CONTROL_PATH_MODULE);
        options.move_to_control = MOVED_TO_CONTROL.iter().map(|s| s.to_string()).collect();
        options
            .intra_parallelism
            .insert("dpu_array".to_string(), config.rows_per_cycle);
        let estimator = leaf_resource_estimator(config);
        let o = probe.enter("core.decompose");
        let decomposition = decompose(&parsed, TOP_MODULE, &options, &estimator);
        probe.exit(o);
        let decomposition = decomposition.map_err(|e| format!("decompose: {e}"))?;
        let o = probe.enter("core.partition");
        let plan = partition(&decomposition.tree, PARTITION_ITERATIONS);
        probe.exit(o);
        let o = probe.enter("core.register");
        let registered = db
            .register(
                &config.name,
                &decomposition,
                &plan,
                &self.device_types,
                &self.compiler,
                true,
            )
            .map(|entry| entry.options.len());
        probe.exit(o);
        registered.map_err(|e| format!("register: {e}"))
    }

    /// One co-simulation sample.
    fn cosim(&self, probe: &mut Probe, point: &CosimPoint) -> Result<Cosim, String> {
        let config = scaled_config(&point.task, point.machines);
        let o = probe.enter("workload.codegen");
        let rnns: Vec<_> = (0..point.machines)
            .map(|m| generate_program(point.task, SliceSpec::new(m, point.machines)))
            .collect();
        probe.exit(o);
        let scaleout = probe.enter("core.scaleout");
        let mut windows = Vec::with_capacity(point.machines);
        let mut programs = Vec::with_capacity(point.machines);
        let o = probe.enter("core.scaleout.insert");
        for (m, rnn) in rnns.iter().enumerate() {
            let window = remote_window(&config.isa, m, point.machines);
            let program = window.and_then(|w| {
                windows.push(w);
                insert_communication(&rnn.program, &rnn.state_slots, &w)
            });
            match program {
                Ok(p) => programs.push(p),
                Err(e) => {
                    probe.exit(o);
                    probe.exit(scaleout);
                    return Err(format!("insert_communication: {e}"));
                }
            }
        }
        probe.exit(o);
        if point.reorder {
            let o = probe.enter("core.scaleout.reorder");
            let reordered: Result<Vec<_>, _> = programs
                .iter()
                .zip(&windows)
                .map(|(p, w)| reorder_for_overlap(p, w))
                .collect();
            probe.exit(o);
            programs = match reordered {
                Ok(p) => p,
                Err(e) => {
                    probe.exit(scaleout);
                    return Err(format!("reorder_for_overlap: {e}"));
                }
            };
        }
        probe.exit(scaleout);
        let o = probe.enter("isa.encode");
        let encoded: usize = programs.iter().map(|p| encode(p).len()).sum();
        probe.exit(o);
        let o = probe.enter("scaleout_sim.timing");
        let mut sims: Vec<CycleSim> = programs
            .iter()
            .zip(rnns)
            .zip(&windows)
            .map(|((program, rnn), window)| {
                let model = TimingModel::for_config(&config, 400.0);
                let mut sim = CycleSim::new(model, program, rnn.mat_shapes, rnn.dram_lens);
                sim.set_remote_window(Some(*window));
                sim
            })
            .collect();
        let timing = co_simulate_timing(&mut sims, ring_link(), point.added);
        probe.exit(o);
        let timing = timing.map_err(|e| format!("co_simulate_timing: {e}"))?;
        Ok(Cosim {
            makespan: timing.makespan,
            insts: programs.iter().map(|p| p.len() as u64).sum(),
            encoded: encoded as u64,
            poll_rounds: timing.poll_rounds,
            messages: timing.messages,
            bytes_on_wire: timing.bytes_on_wire,
        })
    }
}

/// What one co-simulation sample produced.
struct Cosim {
    makespan: SimTime,
    insts: u64,
    encoded: u64,
    poll_rounds: u64,
    messages: u64,
    bytes_on_wire: u64,
}

/// The largest added latency whose point stays within
/// [`HIDDEN_TOLERANCE`] of the zero-added-latency point, scanning the sweep
/// in order (zero when even the first step shows).
fn hidden_up_to(mut sweep: Vec<(SimTime, SimTime)>) -> SimTime {
    sweep.sort_by_key(|&(added, _)| added);
    let Some(&(_, base)) = sweep.first() else {
        return SimTime::ZERO;
    };
    sweep
        .iter()
        .take_while(|(_, latency)| latency.as_secs() <= base.as_secs() * (1.0 + HIDDEN_TOLERANCE))
        .last()
        .map_or(SimTime::ZERO, |&(added, _)| added)
}

impl Bench for OfflineBench {
    fn input_digest(&self) -> u64 {
        let mut h = Fnv::default();
        for c in &self.configs {
            h = h.bytes(c.name.as_bytes()).u64(c.tiles as u64);
        }
        for p in &self.points {
            h = h
                .u64(p.task.hidden as u64)
                .u64(p.task.timesteps as u64)
                .u64(p.machines as u64)
                .u64(u64::from(p.reorder))
                .u64(p.added.as_ps());
        }
        h.finish()
    }

    fn round(&mut self, probe: &mut Probe) -> Round {
        let start = Instant::now();
        let mut round = Round::default();
        let mut digest = Fnv::default();
        let mut options = 0u64;
        let mut empty = Vec::new();
        let mut db = MappingDatabase::new();
        for _ in 0..self.passes {
            for config in &self.configs {
                probe.set_trace(round.items);
                let sample = probe.enter("toolchain");
                let t = Instant::now();
                let registered = self.compile(probe, &mut db, config);
                round.samples.push(("toolchain", t.elapsed().as_secs_f64()));
                probe.exit(sample);
                round.items += 1;
                match registered {
                    Ok(n) => {
                        options += n as u64;
                        digest = digest.u64(n as u64);
                        if n == 0 {
                            empty.push(config.name.clone());
                        }
                    }
                    Err(e) => {
                        round.failed += 1;
                        empty.push(format!("{}: {e}", config.name));
                    }
                }
            }
        }
        let (mut insts, mut encoded, mut polls, mut messages, mut wire) = (0, 0, 0, 0, 0);
        let mut sweeps: Vec<(RnnTask, Vec<(SimTime, SimTime)>)> = Vec::new();
        for point in &self.points {
            probe.set_trace(round.items);
            let sample = probe.enter("cosim");
            let t = Instant::now();
            let result = self.cosim(probe, point);
            round.samples.push(("cosim", t.elapsed().as_secs_f64()));
            probe.exit(sample);
            round.items += 1;
            let Ok(c) = result else {
                round.failed += 1;
                continue;
            };
            digest = digest
                .u64(c.makespan.as_ps())
                .u64(c.poll_rounds)
                .u64(c.messages);
            insts += c.insts;
            encoded += c.encoded;
            polls += c.poll_rounds;
            messages += c.messages;
            wire += c.bytes_on_wire;
            if point.machines == 2 && point.reorder {
                match sweeps.iter_mut().find(|(t, _)| *t == point.task) {
                    Some((_, sweep)) => sweep.push((point.added, c.makespan)),
                    None => sweeps.push((point.task, vec![(point.added, c.makespan)])),
                }
            }
        }
        round.host_s = start.elapsed().as_secs_f64();
        round.digest = digest.finish();

        let tasks = fig11_tasks(None);
        let hidden: Vec<SimTime> = tasks
            .iter()
            .map(|task| {
                sweeps
                    .iter()
                    .find(|(t, _)| t.kind == task.kind && t.hidden == task.hidden)
                    .map_or(SimTime::ZERO, |(_, s)| hidden_up_to(s.clone()))
            })
            .collect();
        round.checks = vec![
            Check::new(
                "every register yields at least one option",
                empty.is_empty(),
                || empty.join("; "),
            ),
            Check::new(
                "Fig. 11 hiding order: LSTM > small GRU > large GRU",
                hidden[0] > hidden[1] && hidden[1] > hidden[2],
                || format!("hidden up to {:?}", hidden),
            ),
        ];
        round.values = vec![
            ("core.register.options", options as f64),
            ("isa.encode.bytes", encoded as f64),
            ("scaleout_sim.poll_rounds", polls as f64),
            ("scaleout_sim.messages", messages as f64),
            ("scaleout_sim.bytes_on_wire", wire as f64),
            ("accel.cyclesim.insts", insts as f64),
        ];
        round
    }

    /// One functional co-simulation (LSTM h=512, 25 steps, 2 machines,
    /// weights from the seed) must be bit-exact against the single-machine
    /// functional simulator.
    fn final_checks(&mut self) -> Vec<Check> {
        let task = RnnTask::new(RnnKind::Lstm, 512, 25);
        let weights = RnnWeights::generate(task, self.seed);
        let full = AcceleratorConfig::new("check", 8);
        let mut single = FuncSim::new(&full);
        weights.load_into(&mut single, SliceSpec::FULL);
        let single_run = single
            .run(&generate_program(task, SliceSpec::FULL).program)
            .map_err(|e| e.to_string());
        let machines = 2;
        let scaled = full.scaled_down(machines);
        let mut sims = Vec::new();
        let mut programs = Vec::new();
        for m in 0..machines {
            let rnn = generate_program(task, SliceSpec::new(m, machines));
            let program = remote_window(&scaled.isa, m, machines).and_then(|w| {
                let p = insert_communication(&rnn.program, &rnn.state_slots, &w)?;
                let p = reorder_for_overlap(&p, &w)?;
                Ok((p, w))
            });
            let Ok((program, window)) = program else {
                return vec![Check::new("functional co-sim is bit-exact", false, || {
                    "scale-out insertion failed".to_string()
                })];
            };
            let mut sim = FuncSim::new(&scaled);
            sim.set_remote_window(Some(window));
            weights.load_into(&mut sim, SliceSpec::new(m, machines));
            sims.push(sim);
            programs.push(program);
        }
        let cosim = co_simulate_functional(&mut sims, &programs).map_err(|e| e.to_string());
        let bits = |sims: &[FuncSim]| -> Vec<u16> {
            sims.iter()
                .flat_map(|s| s.read_dram(H_LOCAL_SLOT).unwrap_or(&[]).to_vec())
                .map(|x| x.to_bits())
                .collect()
        };
        let (want, got) = (bits(std::slice::from_ref(&single)), bits(&sims));
        vec![Check::new(
            "functional co-sim is bit-exact",
            single_run.is_ok() && cosim.is_ok() && !want.is_empty() && want == got,
            || {
                format!(
                    "single {:?}, co-sim {:?}, {} of {} values differ",
                    single_run.err(),
                    cosim.err(),
                    want.iter().zip(&got).filter(|(a, b)| a != b).count(),
                    want.len()
                )
            },
        )]
    }
}
