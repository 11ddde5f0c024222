//! Cycle-approximate timing simulation.
//!
//! Programs for this ISA are straight-line, so timing reduces to an
//! in-order, pipelined issue model with a register scoreboard: one
//! instruction issues per cycle (plus a fetch stall when the instruction
//! buffer is absent), operands gate issue, and each functional unit has a
//! latency derived from the accelerator geometry. The simulator is
//! *resumable*: a receive from the inter-FPGA window blocks the machine
//! until the co-simulator (the runtime crate) reports the arrival time, which
//! is how the Fig. 11 communication/computation-overlap experiments run.

use std::collections::HashMap;

use vfpga_isa::{Instruction, Program};
use vfpga_sim::SimTime;

use crate::config::AcceleratorConfig;
use crate::funcsim::{RemoteAccess, RemoteWindow};

/// Calibrated timing parameters of one accelerator implementation.
///
/// The defaults are calibrated so the shapes of the paper's Table 4 and
/// Fig. 11 hold (see EXPERIMENTS.md); they are not microarchitecturally
/// exact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingModel {
    /// Clock frequency in MHz (from the device type).
    pub freq_mhz: f64,
    /// Number of tile engines.
    pub tiles: usize,
    /// Native vector dimension.
    pub native_dim: usize,
    /// Rows retired per cycle per tile engine.
    pub rows_per_cycle: usize,
    /// Fill+drain depth of the MVM pipeline (converters, adder trees,
    /// accumulators), paid per dependent matrix-vector multiply.
    pub mvm_pipeline_depth: u64,
    /// Fill+drain depth of a multi-function unit.
    pub mfu_latency: u64,
    /// DRAM access latency in cycles.
    pub dram_latency: u64,
    /// f16 elements the DRAM interface moves per cycle.
    pub dram_elems_per_cycle: u64,
    /// Fixed per-invocation overhead (host transfer, doorbell, drain), in
    /// cycles.
    pub invocation_overhead: u64,
    /// Extra issue cycles per instruction when fetching from DRAM (no
    /// instruction buffer); zero when the buffer is present.
    pub fetch_stall: u64,
    /// Latency of handing a send to the inter-FPGA network FIFO.
    pub send_handoff: u64,
    /// Contention multiplier on the shared DRAM interface (1.0 = sole
    /// tenant). Spatial sharing puts several tenants behind one DRAM
    /// controller; instruction fetches and data vectors both pay this, so
    /// the instruction buffer (which removes the fetches) is what preserves
    /// performance isolation (Section 4.4).
    pub dram_contention: f64,
}

impl TimingModel {
    /// Builds a model for an accelerator configuration clocked at
    /// `freq_mhz`.
    pub fn for_config(config: &AcceleratorConfig, freq_mhz: f64) -> Self {
        TimingModel {
            freq_mhz,
            tiles: config.tiles,
            native_dim: config.native_dim,
            rows_per_cycle: config.rows_per_cycle,
            mvm_pipeline_depth: 140,
            mfu_latency: 24,
            dram_latency: 32,
            dram_elems_per_cycle: 32,
            invocation_overhead: (4.0e-6 * freq_mhz * 1e6) as u64, // ~4 us
            fetch_stall: if config.instruction_buffer { 0 } else { 8 },
            send_handoff: 8,
            dram_contention: 1.0,
        }
    }

    /// Effective per-instruction fetch stall under the configured DRAM
    /// contention.
    pub fn effective_fetch_stall(&self) -> u64 {
        (self.fetch_stall as f64 * self.dram_contention).round() as u64
    }

    /// Busy cycles of a `rows x cols` matrix-vector multiply: the tile
    /// operations spread across the tile engines.
    pub fn mvm_busy_cycles(&self, rows: usize, cols: usize) -> u64 {
        let nd = self.native_dim;
        let tile_ops = (rows.div_ceil(nd) * cols.div_ceil(nd)) as u64;
        let cycles_per_tile = (nd / self.rows_per_cycle) as u64;
        tile_ops.div_ceil(self.tiles as u64) * cycles_per_tile
    }

    /// Latency of moving `len` f16 elements to/from DRAM, including
    /// queueing behind co-tenants on the shared interface.
    pub fn dram_latency_cycles(&self, len: usize) -> u64 {
        let base = (len as u64).div_ceil(self.dram_elems_per_cycle) + self.dram_latency;
        (base as f64 * self.dram_contention).round() as u64
    }

    /// Converts a cycle count on this machine's clock to simulated time.
    pub fn cycles_to_time(&self, cycles: u64) -> SimTime {
        SimTime::from_cycles(cycles, self.freq_mhz)
    }

    /// Converts simulated time to (rounded-up) cycles on this clock.
    pub fn time_to_cycles(&self, t: SimTime) -> u64 {
        let ps_per_cycle = 1e6 / self.freq_mhz;
        (t.as_ps() as f64 / ps_per_cycle).ceil() as u64
    }
}

/// One send recorded by the cycle simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendEvent {
    /// The channel (send-window offset).
    pub chan: u32,
    /// Sequence number of this send on its channel (0-based).
    pub seq: u64,
    /// Machine-local time the payload enters the network FIFO.
    pub at: SimTime,
    /// Payload length in f16 elements.
    pub len: usize,
}

/// Result of [`CycleSim::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Poll {
    /// The program finished; the value is the total elapsed time.
    Done(SimTime),
    /// Execution is blocked waiting for the `seq`-th arrival on `chan`.
    Blocked {
        /// The receive channel.
        chan: u32,
        /// Sequence number of the awaited arrival.
        seq: u64,
    },
}

/// A resumable cycle-level simulation of one program on one accelerator.
pub struct CycleSim {
    model: TimingModel,
    insts: Vec<Instruction>,
    mat_shapes: HashMap<u16, (usize, usize)>,
    dram_len: HashMap<u32, usize>,
    vreg_len: Vec<usize>,
    reg_ready: Vec<u64>,
    window: Option<RemoteWindow>,
    scratch_slots: Vec<u32>,
    sent_len: HashMap<u32, usize>,
    send_seq: HashMap<u32, u64>,
    recv_seq: HashMap<u32, u64>,
    sends: Vec<SendEvent>,
    pc: usize,
    cycle: u64,
    /// Cycle at which the (shared) MVM tile engines become free: matrix
    /// ops serialize on the tile engines, which is what gives computation
    /// a *throughput* cost that communication can hide behind.
    mvm_free: u64,
    /// Cycle at which the multi-function units become free.
    mfu_free: u64,
    finish: u64,
    done: bool,
}

impl CycleSim {
    /// Creates a simulation.
    ///
    /// `mat_shapes` gives the shape of each loaded matrix register;
    /// `dram_len` the length of each pre-initialized DRAM slot (both are
    /// needed because latency depends on operand shape).
    pub fn new(
        model: TimingModel,
        program: &Program,
        mat_shapes: HashMap<u16, (usize, usize)>,
        dram_len: HashMap<u32, usize>,
    ) -> Self {
        let overhead = model.invocation_overhead;
        CycleSim {
            model,
            insts: program.instructions().to_vec(),
            mat_shapes,
            dram_len,
            vreg_len: vec![0; 256],
            reg_ready: vec![0; 256],
            window: None,
            scratch_slots: Vec::new(),
            sent_len: HashMap::new(),
            send_seq: HashMap::new(),
            recv_seq: HashMap::new(),
            sends: Vec::new(),
            pc: 0,
            cycle: overhead,
            mvm_free: overhead,
            mfu_free: overhead,
            finish: overhead,
            done: false,
        }
    }

    /// Configures the inter-FPGA window for scale-out co-simulation.
    pub fn set_remote_window(&mut self, window: Option<RemoteWindow>) {
        self.window = window;
    }

    /// Marks DRAM slots that the accelerator actually keeps on-chip (the
    /// vector register file / scratchpad): cross-timestep state like `h_t`
    /// and `c_t`. Accesses to these slots cost a short fixed latency and
    /// never contend on the shared DRAM interface.
    pub fn set_scratch_slots(&mut self, slots: Vec<u32>) {
        self.scratch_slots = slots;
    }

    /// Access latency for a local slot: scratchpad or DRAM.
    fn slot_latency(&self, addr: u32, len: usize) -> u64 {
        if self.scratch_slots.contains(&addr) {
            4 + (len.div_ceil(self.model.native_dim)) as u64
        } else {
            self.model.dram_latency_cycles(len)
        }
    }

    /// The timing model in use.
    pub fn model(&self) -> &TimingModel {
        &self.model
    }

    /// Sends recorded so far (monotone-growing across polls).
    pub fn sends(&self) -> &[SendEvent] {
        &self.sends
    }

    /// Advances until the program completes or blocks on a receive.
    ///
    /// `recv_ready(chan, seq)` must return the machine-local arrival time of
    /// the `seq`-th message on `chan` if it is known, or `None` if the peer
    /// has not produced it yet (the machine then stays blocked).
    pub fn poll(&mut self, recv_ready: &mut dyn FnMut(u32, u64) -> Option<SimTime>) -> Poll {
        use Instruction::*;
        while !self.done {
            let Some(&inst) = self.insts.get(self.pc) else {
                // Ran off the end: treat like a halt.
                self.done = true;
                break;
            };
            let mut issue =
                self.operands_ready(&inst).max(self.cycle) + self.model.effective_fetch_stall();
            let completion = match inst {
                Halt => {
                    self.done = true;
                    self.finish = self.finish.max(issue);
                    break;
                }
                Nop => issue + 1,
                VLoad { dst, addr } => {
                    match self.window.and_then(|w| w.classify(addr)) {
                        Some(RemoteAccess::Recv(chan)) => {
                            let seq = *self.recv_seq.get(&chan).unwrap_or(&0);
                            let Some(arrival) = recv_ready(chan, seq) else {
                                return Poll::Blocked { chan, seq };
                            };
                            self.recv_seq.insert(chan, seq + 1);
                            let arrival_cycle = self.model.time_to_cycles(arrival);
                            let len = self.recv_len(chan);
                            self.vreg_len[usize::from(dst.0)] = len;
                            // The template module gates the in-order
                            // machine at the barrier: nothing later issues
                            // until the data arrived (Section 2.3 assumes
                            // an in-order processor). Overlap therefore
                            // only exists for work *reordered above* the
                            // receive — which is the point of the tool.
                            issue = issue.max(arrival_cycle);
                            let done = issue + self.model.dram_latency_cycles(len);
                            self.reg_ready[usize::from(dst.0)] = done;
                            done
                        }
                        _ => {
                            let len = *self.dram_len.get(&addr).unwrap_or(&self.model.native_dim);
                            self.vreg_len[usize::from(dst.0)] = len;
                            let done = issue + self.slot_latency(addr, len);
                            self.reg_ready[usize::from(dst.0)] = done;
                            done
                        }
                    }
                }
                VStore { src, addr } => {
                    let len = self.vreg_len[usize::from(src.0)];
                    match self.window.and_then(|w| w.classify(addr)) {
                        Some(RemoteAccess::Send(chan)) => {
                            let at_cycle = issue + self.model.send_handoff;
                            let seq = *self.send_seq.get(&chan).unwrap_or(&0);
                            self.send_seq.insert(chan, seq + 1);
                            self.sent_len.insert(chan, len);
                            self.sends.push(SendEvent {
                                chan,
                                seq,
                                at: self.model.cycles_to_time(at_cycle),
                                len,
                            });
                            at_cycle
                        }
                        _ => {
                            self.dram_len.insert(addr, len);
                            issue + self.slot_latency(addr, len)
                        }
                    }
                }
                MvMul { dst, mat, src } => {
                    let (rows, cols) = *self
                        .mat_shapes
                        .get(&mat.0)
                        .unwrap_or(&(self.model.native_dim, self.model.native_dim));
                    let _ = src;
                    self.vreg_len[usize::from(dst.0)] = rows;
                    // The tile engines are a shared resource: this op
                    // occupies them for its busy time; the pipeline depth
                    // is latency on top.
                    let start = issue.max(self.mvm_free);
                    let busy = self.model.mvm_busy_cycles(rows, cols);
                    self.mvm_free = start + busy;
                    let done = start + busy + self.model.mvm_pipeline_depth;
                    self.reg_ready[usize::from(dst.0)] = done;
                    done
                }
                VAdd { dst, a, .. } | VSub { dst, a, .. } | VMul { dst, a, .. } => {
                    let len = self.vreg_len[usize::from(a.0)];
                    self.vreg_len[usize::from(dst.0)] = len;
                    let done = self.mfu_issue(issue, len);
                    self.reg_ready[usize::from(dst.0)] = done;
                    done
                }
                VMov { dst, src }
                | Sigmoid { dst, src }
                | Tanh { dst, src }
                | Relu { dst, src } => {
                    let len = self.vreg_len[usize::from(src.0)];
                    self.vreg_len[usize::from(dst.0)] = len;
                    let done = self.mfu_issue(issue, len);
                    self.reg_ready[usize::from(dst.0)] = done;
                    done
                }
                VZero { dst } | VOne { dst } => {
                    let len = self.vreg_len[usize::from(dst.0)].max(1);
                    self.vreg_len[usize::from(dst.0)] = len;
                    let done = self.mfu_issue(issue, len);
                    self.reg_ready[usize::from(dst.0)] = done;
                    done
                }
            };
            self.finish = self.finish.max(completion);
            if std::env::var_os("VFPGA_TRACE").is_some() {
                eprintln!(
                    "pc={:4} cycle={:8} issue={:8} done={:8} mvmfree={:8} {inst}",
                    self.pc, self.cycle, issue, completion, self.mvm_free
                );
            }
            // Pipelined issue: the next instruction can issue one cycle
            // after this one entered its unit.
            self.cycle = issue + 1;
            self.pc += 1;
        }
        Poll::Done(self.model.cycles_to_time(self.finish))
    }

    /// Runs a program with no remote window to completion.
    ///
    /// # Panics
    ///
    /// Panics if the program blocks on a receive (configure a window and
    /// use [`CycleSim::poll`] for scale-out programs).
    pub fn run_local(&mut self) -> SimTime {
        match self.poll(&mut |_, _| None) {
            Poll::Done(t) => t,
            Poll::Blocked { chan, .. } => {
                panic!("program blocked on remote channel {chan} in local-only simulation")
            }
        }
    }

    /// Occupies the MFU for an element-wise op over `len` elements and
    /// returns its completion cycle.
    fn mfu_issue(&mut self, issue: u64, len: usize) -> u64 {
        let start = issue.max(self.mfu_free);
        let busy = (len.div_ceil(self.model.native_dim)) as u64;
        self.mfu_free = start + busy;
        start + busy + self.model.mfu_latency
    }

    fn operands_ready(&self, inst: &Instruction) -> u64 {
        inst.uses()
            .map(|r| self.reg_ready[usize::from(r.0)])
            .max()
            .unwrap_or(0)
    }

    fn recv_len(&self, chan: u32) -> usize {
        let window = self.window.expect("recv requires a window");
        let own = self
            .sent_len
            .get(&chan)
            .copied()
            .unwrap_or(self.model.native_dim);
        own * window.num_machines
    }
}

impl std::fmt::Debug for CycleSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CycleSim")
            .field("pc", &self.pc)
            .field("cycle", &self.cycle)
            .field("done", &self.done)
            .field("sends", &self.sends.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfpga_isa::assemble;

    fn model(tiles: usize, freq: f64) -> TimingModel {
        TimingModel::for_config(&AcceleratorConfig::new("t", tiles), freq)
    }

    fn time_of(src: &str, tiles: usize, shapes: &[(u16, (usize, usize))]) -> SimTime {
        let p = assemble(src).unwrap();
        let mut sim = CycleSim::new(
            model(tiles, 400.0),
            &p,
            shapes.iter().copied().collect(),
            HashMap::new(),
        );
        sim.run_local()
    }

    #[test]
    fn bigger_matrices_take_longer() {
        let small = time_of(
            "vload v0, 0\nmvmul v1, m0, v0\nhalt\n",
            4,
            &[(0, (128, 128))],
        );
        let large = time_of(
            "vload v0, 0\nmvmul v1, m0, v0\nhalt\n",
            4,
            &[(0, (1024, 1024))],
        );
        assert!(large > small);
    }

    #[test]
    fn more_tiles_are_faster() {
        let src = "vload v0, 0\nmvmul v1, m0, v0\nhalt\n";
        let shapes = [(0u16, (2048usize, 2048usize))];
        let few = time_of(src, 4, &shapes);
        let many = time_of(src, 16, &shapes);
        assert!(many < few);
    }

    #[test]
    fn independent_ops_pipeline_dependent_ops_serialize() {
        // Two independent MVMs overlap; two dependent ones serialize.
        let shapes = [
            (0u16, (1024usize, 1024usize)),
            (1u16, (1024usize, 1024usize)),
        ];
        let independent = time_of(
            "vload v0, 0\nmvmul v1, m0, v0\nmvmul v2, m1, v0\nhalt\n",
            4,
            &shapes,
        );
        let dependent = time_of(
            "vload v0, 0\nmvmul v1, m0, v0\nmvmul v2, m1, v1\nhalt\n",
            4,
            &shapes,
        );
        assert!(dependent > independent);
    }

    #[test]
    fn invocation_overhead_dominates_trivial_programs() {
        let t = time_of("halt\n", 4, &[]);
        // ~4 us overhead.
        assert!(t >= SimTime::from_us(3.0));
    }

    #[test]
    fn missing_instruction_buffer_slows_execution() {
        let p = assemble("vload v0, 0\nsigmoid v1, v0\nsigmoid v2, v1\nhalt\n").unwrap();
        let with = {
            let cfg = AcceleratorConfig::new("t", 4);
            let mut s = CycleSim::new(
                TimingModel::for_config(&cfg, 400.0),
                &p,
                HashMap::new(),
                HashMap::new(),
            );
            s.run_local()
        };
        let without = {
            let cfg = AcceleratorConfig::new("t", 4).without_instruction_buffer();
            let mut s = CycleSim::new(
                TimingModel::for_config(&cfg, 400.0),
                &p,
                HashMap::new(),
                HashMap::new(),
            );
            s.run_local()
        };
        assert!(without > with);
    }

    #[test]
    fn blocked_recv_resumes_after_arrival() {
        let window = RemoteWindow {
            send_base: 1000,
            recv_base: 2000,
            channels: 2,
            machine_index: 0,
            num_machines: 2,
        };
        let p = assemble("vload v0, 0\nvstore v0, 1000\nvload v1, 2000\nhalt\n").unwrap();
        let mut sim = CycleSim::new(model(4, 400.0), &p, HashMap::new(), HashMap::new());
        sim.set_remote_window(Some(window));
        // First poll: blocked on channel 0, message 0.
        match sim.poll(&mut |_, _| None) {
            Poll::Blocked { chan, seq } => {
                assert_eq!((chan, seq), (0, 0));
            }
            other => panic!("expected blocked, got {other:?}"),
        }
        assert_eq!(sim.sends().len(), 1);
        // Arrival very late: completion tracks the arrival.
        let arrival = SimTime::from_us(100.0);
        let done = match sim.poll(&mut |_, _| Some(arrival)) {
            Poll::Done(t) => t,
            other => panic!("expected done, got {other:?}"),
        };
        assert!(done >= arrival);
    }

    #[test]
    fn late_arrival_extends_latency_early_arrival_hides() {
        let window = RemoteWindow {
            send_base: 1000,
            recv_base: 2000,
            channels: 2,
            machine_index: 0,
            num_machines: 2,
        };
        // Receive happens in parallel with a big local MVM: an early
        // arrival is fully hidden behind compute.
        let p = assemble(
            "vload v0, 0\nvstore v0, 1000\nmvmul v2, m0, v0\nvload v1, 2000\nvadd v3, v1, v1\nhalt\n",
        )
        .unwrap();
        let shapes: HashMap<u16, (usize, usize)> =
            [(0u16, (4096usize, 4096usize))].into_iter().collect();
        let run = |arrival: SimTime| {
            let mut sim = CycleSim::new(model(2, 400.0), &p, shapes.clone(), HashMap::new());
            sim.set_remote_window(Some(window));
            match sim.poll(&mut |_, _| Some(arrival)) {
                Poll::Done(t) => t,
                Poll::Blocked { .. } => unreachable!(),
            }
        };
        let hidden = run(SimTime::from_us(1.0));
        let hidden2 = run(SimTime::from_us(2.0));
        // Both early arrivals fully hidden behind the MVM: same finish time.
        assert_eq!(hidden, hidden2);
        // A very late arrival extends the run.
        let late = run(SimTime::from_ms(1.0));
        assert!(late > hidden);
    }
}
