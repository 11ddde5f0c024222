//! Bit-accurate functional simulation of the accelerator.

use std::collections::HashMap;
use std::fmt;

use vfpga_isa::{BfpFormat, Instruction, IsaConfig, MReg, Program, VReg, F16};

use crate::config::AcceleratorConfig;
use crate::matrix::{MatrixMemory, QuantizedMatrix};

/// Errors raised during functional simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A matrix register was used before a matrix was loaded into it.
    UnloadedMatrix(MReg),
    /// A vector register was read before being written.
    UninitializedRegister(VReg),
    /// A DRAM slot was loaded before being stored.
    UninitializedDram(u32),
    /// Element-wise operands have different lengths.
    LengthMismatch {
        /// Instruction index.
        index: usize,
        /// Left operand length.
        a: usize,
        /// Right operand length.
        b: usize,
    },
    /// `step` was called with no program started.
    NoProgram,
    /// A remote receive was attempted outside a scale-out co-simulation.
    RemoteNotConfigured(u32),
    /// The program ran past its end without a `halt`.
    MissingHalt,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnloadedMatrix(m) => write!(f, "matrix register {m} has no matrix loaded"),
            SimError::UninitializedRegister(v) => write!(f, "register {v} read before write"),
            SimError::UninitializedDram(a) => write!(f, "DRAM slot {a} read before write"),
            SimError::LengthMismatch { index, a, b } => {
                write!(f, "instruction {index}: operand lengths {a} and {b} differ")
            }
            SimError::NoProgram => write!(f, "no program started"),
            SimError::RemoteNotConfigured(a) => {
                write!(
                    f,
                    "remote access to slot {a} outside a scale-out simulation"
                )
            }
            SimError::MissingHalt => write!(f, "program ended without halt"),
        }
    }
}

impl std::error::Error for SimError {}

/// The inter-FPGA address window the synchronization template module is
/// configured with (Section 2.3, Fig. 8b): stores into the send window go
/// out on the inter-FPGA network; loads from the receive window block until
/// the peer's data arrives, then *combine* the received entries with this
/// machine's own contribution according to the index register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteWindow {
    /// First DRAM slot of the send window.
    pub send_base: u32,
    /// First DRAM slot of the receive window.
    pub recv_base: u32,
    /// Number of channels (slots) in each window.
    pub channels: u32,
    /// This machine's index among the cooperating accelerators (the
    /// template module's index register).
    pub machine_index: usize,
    /// Total number of cooperating accelerators.
    pub num_machines: usize,
}

impl RemoteWindow {
    /// Classifies an address: `Some(Send(chan))`, `Some(Recv(chan))`, or
    /// `None` for ordinary DRAM.
    pub fn classify(&self, addr: u32) -> Option<RemoteAccess> {
        if addr >= self.send_base && addr < self.send_base + self.channels {
            Some(RemoteAccess::Send(addr - self.send_base))
        } else if addr >= self.recv_base && addr < self.recv_base + self.channels {
            Some(RemoteAccess::Recv(addr - self.recv_base))
        } else {
            None
        }
    }
}

/// A classified remote access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemoteAccess {
    /// Store intercepted by the template module and sent to peers.
    Send(u32),
    /// Load that blocks for the barrier and combines peer data.
    Recv(u32),
}

/// Outcome of one [`FuncSim::step`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepOutcome {
    /// One instruction executed; the program continues.
    Executed,
    /// A `halt` was reached.
    Halted,
    /// Execution is blocked on a receive: the co-simulator must
    /// [`FuncSim::inject_remote`] data for this channel (from each peer)
    /// and call `step` again.
    NeedsRemote {
        /// The blocked channel.
        chan: u32,
    },
}

/// Execution statistics of one program run, by instruction class. The
/// DRAM counters back the paper's Section 4.4 observation that the
/// instruction buffer (which keeps the whole program on-chip) leaves only
/// data vectors on the shared DRAM interface.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Matrix-vector multiplies executed.
    pub mvm: u64,
    /// Element-wise / activation operations executed.
    pub mfu: u64,
    /// Local DRAM vector reads.
    pub dram_reads: u64,
    /// Local DRAM vector writes.
    pub dram_writes: u64,
    /// Inter-FPGA sends through the template module.
    pub sends: u64,
    /// Inter-FPGA barrier receives.
    pub recvs: u64,
}

/// A bit-accurate functional simulator for one accelerator.
///
/// Matrix-vector multiplies run in block floating point, everything else in
/// f16 — exactly the numerics of [`QuantizedMatrix::mvmul`] and [`F16`].
/// Vector registers hold whole (variable-length) vectors; DRAM is addressed
/// in vector slots.
#[derive(Debug, Clone)]
pub struct FuncSim {
    isa: IsaConfig,
    bfp: BfpFormat,
    matmem: MatrixMemory,
    vregs: Vec<Option<Vec<F16>>>,
    dram: HashMap<u32, Vec<F16>>,
    remote: Option<RemoteWindow>,
    /// Last value sent per channel (the template module's local copy used
    /// by the combine step).
    sent_local: HashMap<u32, Vec<F16>>,
    /// Received-but-unconsumed data per channel, per peer machine index.
    inbox: HashMap<(u32, usize), Vec<Vec<F16>>>,
    /// Outgoing sends not yet collected by the co-simulator.
    outbox: Vec<(u32, Vec<F16>)>,
    program: Option<Program>,
    pc: usize,
    executed: u64,
    stats: ExecStats,
}

impl FuncSim {
    /// Creates a simulator for the given accelerator configuration.
    pub fn new(config: &AcceleratorConfig) -> Self {
        FuncSim {
            isa: config.isa,
            bfp: config.bfp,
            matmem: MatrixMemory::new(),
            vregs: vec![None; usize::from(config.isa.num_vregs)],
            dram: HashMap::new(),
            remote: None,
            sent_local: HashMap::new(),
            inbox: HashMap::new(),
            outbox: Vec::new(),
            program: None,
            pc: 0,
            executed: 0,
            stats: ExecStats::default(),
        }
    }

    /// Configures the scale-out remote window (see [`RemoteWindow`]).
    pub fn set_remote_window(&mut self, window: Option<RemoteWindow>) {
        self.remote = window;
    }

    /// Quantizes and loads a row-major matrix into matrix register `reg`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn load_matrix(&mut self, reg: MReg, rows: usize, cols: usize, data: &[f32]) {
        self.matmem
            .load(reg, QuantizedMatrix::quantize(self.bfp, rows, cols, data));
    }

    /// Writes a vector into a DRAM slot.
    pub fn write_dram(&mut self, slot: u32, data: &[F16]) {
        self.dram.insert(slot, data.to_vec());
    }

    /// Reads a DRAM slot, if it has been written.
    pub fn read_dram(&self, slot: u32) -> Option<&[F16]> {
        self.dram.get(&slot).map(Vec::as_slice)
    }

    /// Reads a vector register, if initialized.
    pub fn read_vreg(&self, reg: VReg) -> Option<&[F16]> {
        self.vregs
            .get(usize::from(reg.0))
            .and_then(|v| v.as_deref())
    }

    /// Number of instructions executed since the last [`FuncSim::start`].
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Per-class execution statistics since the last [`FuncSim::start`].
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// Begins stepped execution of `program` (validated against the ISA
    /// limits first).
    ///
    /// # Errors
    ///
    /// Returns a validation failure wrapped as [`SimError::NoProgram`]
    /// never; validation errors surface via panic-free `Result`.
    pub fn start(&mut self, program: &Program) -> Result<(), vfpga_isa::IsaError> {
        program.validate(&self.isa)?;
        self.program = Some(program.clone());
        self.pc = 0;
        self.executed = 0;
        self.stats = ExecStats::default();
        Ok(())
    }

    /// Runs a program to completion (no remote blocking allowed).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on semantic errors, including
    /// [`SimError::RemoteNotConfigured`] if the program performs remote
    /// receives (those require the co-simulator driving [`FuncSim::step`]).
    pub fn run(&mut self, program: &Program) -> Result<u64, Box<dyn std::error::Error>> {
        self.start(program)?;
        loop {
            match self.step()? {
                StepOutcome::Executed => {}
                StepOutcome::Halted => return Ok(self.executed),
                StepOutcome::NeedsRemote { chan } => {
                    return Err(Box::new(SimError::RemoteNotConfigured(chan)))
                }
            }
        }
    }

    /// Delivers one vector from peer `from_machine` on `chan` (FIFO per
    /// channel/peer pair).
    pub fn inject_remote(&mut self, chan: u32, from_machine: usize, data: Vec<F16>) {
        self.inbox
            .entry((chan, from_machine))
            .or_default()
            .push(data);
    }

    /// Drains the outgoing sends produced since the last call.
    pub fn take_sends(&mut self) -> Vec<(u32, Vec<F16>)> {
        std::mem::take(&mut self.outbox)
    }

    /// Executes the next instruction.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on reads of uninitialized state, shape
    /// mismatches, or running past the end of the program.
    pub fn step(&mut self) -> Result<StepOutcome, SimError> {
        let program = self.program.as_ref().ok_or(SimError::NoProgram)?;
        let Some(&inst) = program.instructions().get(self.pc) else {
            return Err(SimError::MissingHalt);
        };

        use Instruction::*;
        match inst {
            Halt => {
                self.executed += 1;
                return Ok(StepOutcome::Halted);
            }
            Nop => {}
            VLoad { dst, addr } => {
                let access = self.remote.and_then(|w| w.classify(addr));
                match access {
                    Some(RemoteAccess::Recv(chan)) => match self.combine_recv(chan) {
                        Some(v) => {
                            self.stats.recvs += 1;
                            self.set_vreg(dst, v);
                        }
                        None => return Ok(StepOutcome::NeedsRemote { chan }),
                    },
                    Some(RemoteAccess::Send(_)) | None => {
                        let v = self
                            .dram
                            .get(&addr)
                            .cloned()
                            .ok_or(SimError::UninitializedDram(addr))?;
                        self.stats.dram_reads += 1;
                        self.set_vreg(dst, v);
                    }
                }
            }
            VStore { src, addr } => {
                let v = self.get_vreg(src)?.to_vec();
                match self.remote.and_then(|w| w.classify(addr)) {
                    Some(RemoteAccess::Send(chan)) => {
                        // The template module forwards the entry to peers,
                        // keeps a local copy for the combine step, and
                        // invalidates the DRAM write (Fig. 8b).
                        self.stats.sends += 1;
                        self.sent_local.insert(chan, v.clone());
                        self.outbox.push((chan, v));
                    }
                    _ => {
                        self.stats.dram_writes += 1;
                        self.dram.insert(addr, v);
                    }
                }
            }
            MvMul { dst, mat, src } => {
                self.stats.mvm += 1;
                let m = self.matmem.get(mat).ok_or(SimError::UnloadedMatrix(mat))?;
                let x = self.get_vreg(src)?;
                if x.len() != m.cols() {
                    return Err(SimError::LengthMismatch {
                        index: self.pc,
                        a: m.cols(),
                        b: x.len(),
                    });
                }
                let y = m.mvmul(x);
                self.set_vreg(dst, y);
            }
            VAdd { dst, a, b } => self.binary(dst, a, b, |x, y| x + y)?,
            VSub { dst, a, b } => self.binary(dst, a, b, |x, y| x - y)?,
            VMul { dst, a, b } => self.binary(dst, a, b, |x, y| x * y)?,
            VMov { dst, src } => {
                let v = self.get_vreg(src)?.to_vec();
                self.set_vreg(dst, v);
            }
            VZero { dst } => {
                let len = self.default_len();
                self.set_vreg(dst, vec![F16::ZERO; len]);
            }
            VOne { dst } => {
                let len = self.default_len();
                self.set_vreg(dst, vec![F16::ONE; len]);
            }
            Sigmoid { dst, src } => self.unary(dst, src, F16::sigmoid)?,
            Tanh { dst, src } => self.unary(dst, src, F16::tanh)?,
            Relu { dst, src } => self.unary(dst, src, F16::relu)?,
        }
        self.pc += 1;
        self.executed += 1;
        Ok(StepOutcome::Executed)
    }

    /// The combine step of the synchronization template module: the k-th
    /// receive on a channel concatenates every machine's k-th contribution
    /// in machine-index order, reading this machine's own part from the
    /// local copy kept at send time.
    fn combine_recv(&mut self, chan: u32) -> Option<Vec<F16>> {
        let window = self.remote.expect("combine_recv requires a remote window");
        // All peers must have delivered before the barrier lifts.
        for m in 0..window.num_machines {
            if m == window.machine_index {
                continue;
            }
            let queue = self.inbox.get(&(chan, m));
            if queue.is_none_or(|q| q.is_empty()) {
                return None;
            }
        }
        let mut combined = Vec::new();
        for m in 0..window.num_machines {
            if m == window.machine_index {
                combined.extend_from_slice(
                    self.sent_local.get(&chan).map(Vec::as_slice).unwrap_or(&[]),
                );
            } else {
                let part = self
                    .inbox
                    .get_mut(&(chan, m))
                    .expect("checked above")
                    .remove(0);
                combined.extend(part);
            }
        }
        Some(combined)
    }

    fn default_len(&self) -> usize {
        // vzero/vone adopt the length of the most recent vector in flight;
        // fall back to 1.
        self.vregs
            .iter()
            .rev()
            .find_map(|v| v.as_ref().map(Vec::len))
            .unwrap_or(1)
    }

    fn get_vreg(&self, reg: VReg) -> Result<&[F16], SimError> {
        self.vregs[usize::from(reg.0)]
            .as_deref()
            .ok_or(SimError::UninitializedRegister(reg))
    }

    fn set_vreg(&mut self, reg: VReg, value: Vec<F16>) {
        self.vregs[usize::from(reg.0)] = Some(value);
    }

    fn unary(&mut self, dst: VReg, src: VReg, f: impl Fn(F16) -> F16) -> Result<(), SimError> {
        self.stats.mfu += 1;
        let v: Vec<F16> = self.get_vreg(src)?.iter().copied().map(f).collect();
        self.set_vreg(dst, v);
        Ok(())
    }

    fn binary(
        &mut self,
        dst: VReg,
        a: VReg,
        b: VReg,
        f: impl Fn(F16, F16) -> F16,
    ) -> Result<(), SimError> {
        self.stats.mfu += 1;
        let va = self.get_vreg(a)?;
        let vb = self.get_vreg(b)?;
        if va.len() != vb.len() {
            return Err(SimError::LengthMismatch {
                index: self.pc,
                a: va.len(),
                b: vb.len(),
            });
        }
        let v: Vec<F16> = va.iter().zip(vb).map(|(&x, &y)| f(x, y)).collect();
        self.set_vreg(dst, v);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfpga_isa::assemble;

    fn f16v(xs: &[f32]) -> Vec<F16> {
        xs.iter().map(|&x| F16::from_f32(x)).collect()
    }

    fn sim() -> FuncSim {
        FuncSim::new(&AcceleratorConfig::new("t", 2))
    }

    #[test]
    fn end_to_end_mvmul_pipeline() {
        let mut s = sim();
        // W = [[1, 2], [3, 4]] scaled by 1/8 to stay accurate in BFP.
        s.load_matrix(MReg(0), 2, 2, &[0.125, 0.25, 0.375, 0.5]);
        s.write_dram(0, &f16v(&[1.0, 1.0]));
        let p = assemble("vload v0, 0\nmvmul v1, m0, v0\nvadd v2, v1, v1\nvstore v2, 1\nhalt\n")
            .unwrap();
        s.run(&p).unwrap();
        let y = s.read_dram(1).unwrap();
        assert!((y[0].to_f32() - 0.75).abs() < 0.01);
        assert!((y[1].to_f32() - 1.75).abs() < 0.01);
    }

    #[test]
    fn uninitialized_reads_are_errors() {
        let mut s = sim();
        let p = assemble("vstore v0, 0\nhalt\n").unwrap();
        let err = s.run(&p).unwrap_err();
        assert!(err.to_string().contains("read before write"));

        let mut s = sim();
        let p = assemble("vload v0, 9\nhalt\n").unwrap();
        let err = s.run(&p).unwrap_err();
        assert!(err.to_string().contains("DRAM slot 9"));
    }

    #[test]
    fn missing_halt_detected() {
        let mut s = sim();
        s.write_dram(0, &f16v(&[1.0]));
        let p = assemble("vload v0, 0\n").unwrap();
        assert!(s.run(&p).unwrap_err().to_string().contains("without halt"));
    }

    #[test]
    fn activations_match_f16_semantics() {
        let mut s = sim();
        s.write_dram(0, &f16v(&[0.0, 1.0, -1.0]));
        let p = assemble("vload v0, 0\nsigmoid v1, v0\ntanh v2, v0\nrelu v3, v0\nhalt\n").unwrap();
        s.run(&p).unwrap();
        let sig = s.read_vreg(VReg(1)).unwrap();
        assert_eq!(sig[0].to_f32(), 0.5);
        let rel = s.read_vreg(VReg(3)).unwrap();
        assert_eq!(rel[2], F16::ZERO);
    }

    #[test]
    fn remote_send_recv_combines_in_machine_order() {
        let window0 = RemoteWindow {
            send_base: 1000,
            recv_base: 2000,
            channels: 4,
            machine_index: 0,
            num_machines: 2,
        };
        let mut m0 = sim();
        m0.set_remote_window(Some(window0));
        // Machine 0 sends its half, then receives the combined vector.
        let p =
            assemble("vload v0, 0\nvstore v0, 1000\nvload v1, 2000\nvstore v1, 5\nhalt\n").unwrap();
        m0.write_dram(0, &f16v(&[1.0, 2.0]));
        m0.start(&p).unwrap();
        // Step until blocked on the receive.
        assert_eq!(m0.step().unwrap(), StepOutcome::Executed); // vload
        assert_eq!(m0.step().unwrap(), StepOutcome::Executed); // vstore (send)
        let sends = m0.take_sends();
        assert_eq!(sends.len(), 1);
        assert_eq!(sends[0].0, 0); // channel 0
        assert_eq!(m0.step().unwrap(), StepOutcome::NeedsRemote { chan: 0 });
        // Peer (machine 1) delivers its half.
        m0.inject_remote(0, 1, f16v(&[3.0, 4.0]));
        assert_eq!(m0.step().unwrap(), StepOutcome::Executed); // recv now succeeds
        assert_eq!(m0.step().unwrap(), StepOutcome::Executed); // store combined
        let combined = m0.read_dram(5).unwrap();
        let vals: Vec<f32> = combined.iter().map(|h| h.to_f32()).collect();
        // Machine 0's own part first, then machine 1's.
        assert_eq!(vals, [1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn remote_store_does_not_touch_dram() {
        let window = RemoteWindow {
            send_base: 1000,
            recv_base: 2000,
            channels: 1,
            machine_index: 0,
            num_machines: 2,
        };
        let mut s = sim();
        s.set_remote_window(Some(window));
        s.write_dram(0, &f16v(&[7.0]));
        let p = assemble("vload v0, 0\nvstore v0, 1000\nhalt\n").unwrap();
        s.start(&p).unwrap();
        while !matches!(s.step().unwrap(), StepOutcome::Halted) {}
        // The special write is invalidated: slot 1000 holds nothing.
        assert!(s.read_dram(1000).is_none());
    }

    #[test]
    fn remote_without_window_is_plain_dram() {
        let mut s = sim();
        s.write_dram(0, &f16v(&[7.0]));
        let p = assemble("vload v0, 0\nvstore v0, 1000\nvload v1, 1000\nhalt\n").unwrap();
        s.run(&p).unwrap();
        assert_eq!(s.read_vreg(VReg(1)).unwrap()[0].to_f32(), 7.0);
    }

    #[test]
    fn stats_count_instruction_classes() {
        let mut s = sim();
        s.load_matrix(MReg(0), 2, 2, &[0.1, 0.2, 0.3, 0.4]);
        s.write_dram(0, &f16v(&[1.0, 1.0]));
        let p = assemble(
            "vload v0, 0\nmvmul v1, m0, v0\nvadd v2, v1, v1\nsigmoid v3, v2\nvstore v3, 1\nhalt\n",
        )
        .unwrap();
        s.run(&p).unwrap();
        let st = s.stats();
        assert_eq!(st.mvm, 1);
        assert_eq!(st.mfu, 2);
        assert_eq!(st.dram_reads, 1);
        assert_eq!(st.dram_writes, 1);
        assert_eq!(st.sends, 0);
        assert_eq!(st.recvs, 0);
    }

    #[test]
    fn stats_count_remote_traffic() {
        let window = RemoteWindow {
            send_base: 1000,
            recv_base: 2000,
            channels: 1,
            machine_index: 0,
            num_machines: 2,
        };
        let mut s = sim();
        s.set_remote_window(Some(window));
        s.write_dram(0, &f16v(&[1.0]));
        let p = assemble("vload v0, 0\nvstore v0, 1000\nvload v1, 2000\nhalt\n").unwrap();
        s.start(&p).unwrap();
        while !matches!(s.step().unwrap(), StepOutcome::NeedsRemote { .. }) {}
        s.inject_remote(0, 1, f16v(&[2.0]));
        while !matches!(s.step().unwrap(), StepOutcome::Halted) {}
        let st = s.stats();
        assert_eq!(st.sends, 1);
        assert_eq!(st.recvs, 1);
        assert_eq!(st.dram_reads, 1);
        assert_eq!(st.dram_writes, 0); // the send is not a DRAM write
    }

    #[test]
    fn length_mismatch_detected() {
        let mut s = sim();
        s.write_dram(0, &f16v(&[1.0, 2.0]));
        s.write_dram(1, &f16v(&[1.0]));
        let p = assemble("vload v0, 0\nvload v1, 1\nvadd v2, v0, v1\nhalt\n").unwrap();
        let err = s.run(&p).unwrap_err();
        assert!(err.to_string().contains("lengths"));
    }
}
