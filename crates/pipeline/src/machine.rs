//! The functional emulator: executes `probranch` programs instruction by
//! instruction, drives the PBS unit, and streams [`DynInst`] records into
//! the timing model.

use std::error::Error;
use std::fmt;

use probranch_core::{BranchResolution, PbsStats, PbsUnit};
use probranch_isa::{AluOp, CmpOp, FpBinOp, FpUnOp, Inst, Operand, Program, Reg};

use crate::aot::{BlockProgram, FunctionalSink};
use crate::decode::{DecOp, DecodedProgram};

/// Emulator configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmuConfig {
    /// Data-memory size in 64-bit words (byte-addressed, 8-aligned):
    /// the architectural bound an access faults beyond. Memory is
    /// allocated as it is stored to, so a large bound costs nothing
    /// until a program writes that far.
    pub mem_words: usize,
    /// Maximum call-stack depth before a fault.
    pub max_call_depth: usize,
}

impl Default for EmuConfig {
    fn default() -> EmuConfig {
        EmuConfig {
            mem_words: 1 << 20,
            max_call_depth: 1024,
        }
    }
}

/// Runtime faults. Validated programs on well-formed workloads never
/// fault; faults indicate a workload authoring bug.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EmuError {
    /// Unaligned or out-of-bounds data access.
    MemoryFault {
        /// Faulting byte address.
        addr: u64,
        /// PC of the faulting instruction.
        pc: u32,
    },
    /// Call-stack overflow.
    CallStackOverflow {
        /// PC of the call.
        pc: u32,
    },
    /// Return with an empty call stack.
    CallStackUnderflow {
        /// PC of the return.
        pc: u32,
    },
    /// `run_to_halt` exceeded its instruction budget.
    InstLimitExceeded {
        /// The configured budget.
        limit: u64,
    },
    /// A deterministic fault-injection failpoint fired (torture runs
    /// only; never occurs without an armed fault plan).
    InjectedFault {
        /// The failpoint site name (e.g. `capture`).
        site: &'static str,
    },
    /// The run was cooperatively cancelled via a
    /// [`CancelToken`](crate::cancel::CancelToken) — a hard deadline
    /// expired, a service request was dropped, or a spurious-cancel
    /// failpoint fired.
    Cancelled {
        /// Why the token was cancelled (e.g. `deadline exceeded (250ms)`).
        reason: String,
    },
}

impl fmt::Display for EmuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmuError::MemoryFault { addr, pc } => {
                write!(f, "memory fault at address {addr:#x} (pc {pc})")
            }
            EmuError::CallStackOverflow { pc } => write!(f, "call stack overflow (pc {pc})"),
            EmuError::CallStackUnderflow { pc } => {
                write!(f, "return with empty call stack (pc {pc})")
            }
            EmuError::InstLimitExceeded { limit } => {
                write!(f, "instruction limit of {limit} exceeded")
            }
            EmuError::InjectedFault { site } => write!(f, "injected fault: {site}"),
            EmuError::Cancelled { reason } => write!(f, "cancelled: {reason}"),
        }
    }
}

impl Error for EmuError {}

/// How a dynamic branch was resolved, for the timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BranchEventKind {
    /// A conditional branch whose direction the predictor must guess.
    Conditional,
    /// A PBS-directed probabilistic branch: direction known at fetch, no
    /// predictor access, never mispredicts.
    PbsDirected,
    /// Direct unconditional jump (target known at fetch).
    Unconditional,
    /// A call (target known at fetch; pushes the return-address stack).
    Call,
    /// A return (perfectly predicted by the return-address stack model).
    Ret,
}

/// A dynamic branch record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchEvent {
    /// Actual direction.
    pub taken: bool,
    /// Resolution kind.
    pub kind: BranchEventKind,
    /// Whether the static instruction is probabilistic (`PROB_JMP`).
    pub is_prob: bool,
}

/// One element of the dynamic instruction stream consumed by the timing
/// model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynInst {
    /// PC of the instruction.
    pub pc: u32,
    /// The static instruction.
    pub inst: Inst,
    /// Branch resolution, for control instructions.
    pub branch: Option<BranchEvent>,
    /// Data address, for loads and stores.
    pub mem_addr: Option<u64>,
}

/// What one [`Emulator::step_decoded`] call reports, and the capture
/// loop's single-step arm packs into its chunks: just the facts the trace
/// records, with the static instruction looked up by `pc` in the shared
/// [`DecodedProgram`] instead of being copied per dynamic instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepRecord {
    /// PC of the instruction.
    pub pc: u32,
    /// Branch resolution, for control instructions.
    pub branch: Option<BranchEvent>,
    /// Load address, with `u64::MAX` as the "none" sentinel — keeps the
    /// record at 16 bytes (a `Option<u64>` would double the field). Read
    /// through [`StepRecord::mem_addr`].
    mem_addr: u64,
}

impl StepRecord {
    /// Sentinel for "no load address" (unreachable as a real address:
    /// data addresses are word-aligned indices into bounded memory).
    const NO_ADDR: u64 = u64::MAX;

    /// The data address of a load; `None` for every other instruction,
    /// stores included. A load's address is what the cache
    /// pre-simulation and the timing model read; a store's reaches
    /// neither, so the record does not carry it.
    #[inline]
    pub fn mem_addr(&self) -> Option<u64> {
        if self.mem_addr == Self::NO_ADDR {
            None
        } else {
            Some(self.mem_addr)
        }
    }
}

#[derive(Debug, Clone, Default)]
struct PendingProb {
    /// `(register, newly generated value)` in instruction order. The
    /// vector is a persistent scratch buffer: cleared and refilled per
    /// probabilistic branch, never reallocated in steady state.
    values: Vec<(Reg, u64)>,
    const_val: u64,
    /// Outcome of the comparison on the *new* value.
    outcome: bool,
}

/// Output channels as a dense, port-indexed table: iteration order is
/// structurally ascending-by-port rather than hash-order-by-luck, and
/// the hot `out` path is a bounds-checked index instead of a hash probe.
#[derive(Debug, Clone, Default)]
struct PortTable {
    lanes: Vec<Vec<u64>>,
}

impl PortTable {
    #[inline]
    fn push(&mut self, port: u16, value: u64) {
        let i = port as usize;
        if i >= self.lanes.len() {
            self.lanes.resize_with(i + 1, Vec::new);
        }
        self.lanes[i].push(value);
    }

    fn get(&self, port: u16) -> &[u64] {
        self.lanes.get(port as usize).map_or(&[], |v| v.as_slice())
    }

    /// Non-empty ports in ascending port order.
    fn sorted(&self) -> Vec<(u16, Vec<u64>)> {
        self.lanes
            .iter()
            .enumerate()
            .filter(|(_, v)| !v.is_empty())
            .map(|(p, v)| (p as u16, v.clone()))
            .collect()
    }
}

/// Integer ALU datapath, shared verbatim by the reference and the
/// decoded interpreters so they cannot drift apart.
#[inline]
pub(crate) fn alu_eval(op: AluOp, a: u64, b: u64) -> u64 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Div => {
            if b == 0 {
                0
            } else {
                ((a as i64).wrapping_div(b as i64)) as u64
            }
        }
        AluOp::Rem => {
            if b == 0 {
                0
            } else {
                ((a as i64).wrapping_rem(b as i64)) as u64
            }
        }
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Shl => a << (b & 63),
        AluOp::Shr => a >> (b & 63),
        AluOp::Sar => ((a as i64) >> (b & 63)) as u64,
        AluOp::Slt => ((a as i64) < (b as i64)) as u64,
        AluOp::Sltu => (a < b) as u64,
    }
}

/// FP two-source datapath, shared by both interpreters.
#[inline]
pub(crate) fn fp_bin_eval(op: FpBinOp, a: f64, b: f64) -> f64 {
    match op {
        FpBinOp::Add => a + b,
        FpBinOp::Sub => a - b,
        FpBinOp::Mul => a * b,
        FpBinOp::Div => a / b,
        FpBinOp::Min => a.min(b),
        FpBinOp::Max => a.max(b),
    }
}

/// FP one-source datapath, shared by both interpreters.
#[inline]
fn fp_un_eval(op: FpUnOp, a: f64) -> f64 {
    match op {
        FpUnOp::Neg => -a,
        FpUnOp::Abs => a.abs(),
        FpUnOp::Sqrt => a.sqrt(),
        FpUnOp::Exp => a.exp(),
        FpUnOp::Ln => a.ln(),
        FpUnOp::Sin => a.sin(),
        FpUnOp::Cos => a.cos(),
        FpUnOp::Floor => a.floor(),
    }
}

/// The functional emulator.
///
/// ```
/// use probranch_isa::{ProgramBuilder, Reg};
/// use probranch_pipeline::Emulator;
///
/// let mut b = ProgramBuilder::new();
/// b.li(Reg::R1, 21).add(Reg::R1, Reg::R1, Reg::R1).out(Reg::R1, 0).halt();
/// let mut emu = Emulator::new(b.build()?, Default::default());
/// emu.run_to_halt(100)?;
/// assert_eq!(emu.output(0), &[42]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Emulator {
    program: Program,
    /// The program lowered once at construction; [`Emulator::step_decoded`]
    /// executes from this form.
    decoded: DecodedProgram,
    config: EmuConfig,
    regs: [u64; 32],
    flag: bool,
    pc: u32,
    halted: bool,
    /// The allocated prefix of data memory, grown by stores (see
    /// [`Emulator::store_word`]); words past its end read 0.
    memory: Vec<u64>,
    call_stack: Vec<u32>,
    outputs: PortTable,
    pbs: Option<PbsUnit>,
    pending_prob: PendingProb,
    /// Scratch for [`Emulator::resolve_prob_jump`]: the newly generated
    /// values handed to the PBS unit, reused across branches.
    prob_vals_scratch: Vec<u64>,
    /// Probabilistic values in the order the algorithm consumed them
    /// (swapped-in values for PBS-directed instances) — the stream the
    /// paper feeds to DieHarder in Table III.
    prob_consumed: Vec<u64>,
    executed: u64,
}

impl Emulator {
    /// Creates an emulator without PBS hardware: probabilistic
    /// instructions degrade to their regular counterparts, exactly like
    /// the paper's backward-compatible legacy machine.
    pub fn new(program: Program, config: EmuConfig) -> Emulator {
        Emulator {
            decoded: DecodedProgram::of(&program),
            regs: [0; 32],
            flag: false,
            pc: 0,
            halted: false,
            memory: Vec::new(),
            call_stack: Vec::new(),
            outputs: PortTable::default(),
            pbs: None,
            pending_prob: PendingProb::default(),
            prob_vals_scratch: Vec::new(),
            prob_consumed: Vec::new(),
            executed: 0,
            program,
            config,
        }
    }

    /// Creates an emulator with a PBS unit attached.
    pub fn with_pbs(program: Program, config: EmuConfig, pbs: PbsUnit) -> Emulator {
        let mut e = Emulator::new(program, config);
        e.pbs = Some(pbs);
        e
    }

    /// Reads a register.
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    /// Writes a register (for pre-run argument setup).
    pub fn set_reg(&mut self, r: Reg, value: u64) {
        self.regs[r.index()] = value;
    }

    /// Reads the register as an `f64` bit pattern.
    pub fn reg_f64(&self, r: Reg) -> f64 {
        f64::from_bits(self.regs[r.index()])
    }

    /// The values emitted on `port` so far.
    pub fn output(&self, port: u16) -> &[u64] {
        self.outputs.get(port)
    }

    /// All non-empty output ports with their value streams, in ascending
    /// port order (structurally deterministic — no hash iteration).
    pub fn outputs_sorted(&self) -> Vec<(u16, Vec<u64>)> {
        self.outputs.sorted()
    }

    /// The predecoded form of the program (lowered once at
    /// construction), whose per-pc timing metadata trace capture copies.
    pub fn decoded(&self) -> &DecodedProgram {
        &self.decoded
    }

    /// The values emitted on `port`, reinterpreted as doubles.
    pub fn output_f64(&self, port: u16) -> Vec<f64> {
        self.output(port)
            .iter()
            .map(|&v| f64::from_bits(v))
            .collect()
    }

    /// The probabilistic values in consumption order (see the paper's
    /// Table III randomness experiment).
    pub fn prob_consumed(&self) -> &[u64] {
        &self.prob_consumed
    }

    /// Whether the machine has executed `halt`.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Dynamic instructions executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// PBS statistics, if a unit is attached.
    pub fn pbs_stats(&self) -> Option<PbsStats> {
        self.pbs.as_ref().map(|p| p.stats())
    }

    /// Direct word access to data memory (for test inspection).
    ///
    /// # Panics
    ///
    /// Panics if `word` is not below [`EmuConfig::mem_words`].
    pub fn mem_word(&self, word: usize) -> u64 {
        assert!(
            word < self.config.mem_words,
            "word {word} is outside the {}-word data memory",
            self.config.mem_words
        );
        self.load_word(word)
    }

    /// Reads an in-bounds data word; words no store has reached yet
    /// read 0, as zero-filled memory would.
    #[inline(always)]
    fn load_word(&self, idx: usize) -> u64 {
        self.memory.get(idx).copied().unwrap_or(0)
    }

    /// Writes an in-bounds data word, first growing the allocation to
    /// the next power of two above `idx` (capped at the architectural
    /// size) when the store lands past its end.
    #[inline(always)]
    fn store_word(&mut self, idx: usize, value: u64) {
        if idx >= self.memory.len() {
            self.grow_memory(idx);
        }
        self.memory[idx] = value;
    }

    #[cold]
    fn grow_memory(&mut self, idx: usize) {
        let len = (idx + 1).next_power_of_two().min(self.config.mem_words);
        self.memory.resize(len, 0);
    }

    #[inline]
    fn operand(&self, o: Operand) -> u64 {
        match o {
            Operand::Reg(r) => self.regs[r.index()],
            Operand::Imm(v) => v as u64,
        }
    }

    #[inline]
    fn eval_cmp(&self, op: CmpOp, fp: bool, lhs: u64, rhs: u64) -> bool {
        if fp {
            op.eval_fp(f64::from_bits(lhs), f64::from_bits(rhs))
        } else {
            op.eval_int(lhs as i64, rhs as i64)
        }
    }

    #[inline]
    fn mem_index(&self, base: Reg, offset: i64, pc: u32) -> Result<usize, EmuError> {
        let addr = self.regs[base.index()].wrapping_add(offset as u64);
        if addr % 8 != 0 || addr / 8 >= self.config.mem_words as u64 {
            return Err(EmuError::MemoryFault { addr, pc });
        }
        Ok((addr / 8) as usize)
    }

    fn observe_control(&mut self, pc: u32, inst: &Inst, taken: bool) {
        if let Some(pbs) = self.pbs.as_mut() {
            match inst {
                Inst::Call { .. } => pbs.observe_call(pc),
                Inst::Ret => pbs.observe_ret(),
                _ => {
                    if let Some(target) = inst.target() {
                        pbs.observe_branch(pc, target, taken);
                    }
                }
            }
        }
    }

    /// Executes one instruction, returning its dynamic record, or `None`
    /// if the machine is halted.
    ///
    /// # Errors
    ///
    /// Returns an [`EmuError`] on memory faults and call-stack misuse;
    /// the machine halts on error.
    pub fn step(&mut self) -> Result<Option<DynInst>, EmuError> {
        if self.halted {
            return Ok(None);
        }
        let pc = self.pc;
        let inst = *self.program.fetch(pc);
        let mut next_pc = pc + 1;
        let mut branch = None;
        let mut mem_addr = None;

        match inst {
            Inst::Alu {
                op,
                dst,
                src1,
                src2,
            } => {
                let a = self.regs[src1.index()];
                let b = self.operand(src2);
                self.regs[dst.index()] = alu_eval(op, a, b);
            }
            Inst::Li { dst, imm } => self.regs[dst.index()] = imm,
            Inst::Mov { dst, src } => self.regs[dst.index()] = self.regs[src.index()],
            Inst::FpBin {
                op,
                dst,
                src1,
                src2,
            } => {
                let a = f64::from_bits(self.regs[src1.index()]);
                let b = f64::from_bits(self.regs[src2.index()]);
                self.regs[dst.index()] = fp_bin_eval(op, a, b).to_bits();
            }
            Inst::FpUn { op, dst, src } => {
                let a = f64::from_bits(self.regs[src.index()]);
                self.regs[dst.index()] = fp_un_eval(op, a).to_bits();
            }
            Inst::IntToFp { dst, src } => {
                self.regs[dst.index()] = (self.regs[src.index()] as i64 as f64).to_bits();
            }
            Inst::FpToInt { dst, src } => {
                let v = f64::from_bits(self.regs[src.index()]);
                self.regs[dst.index()] = (v as i64) as u64;
            }
            Inst::CMov {
                dst,
                cond,
                if_true,
                if_false,
            } => {
                self.regs[dst.index()] = if self.regs[cond.index()] != 0 {
                    self.regs[if_true.index()]
                } else {
                    self.regs[if_false.index()]
                };
            }
            Inst::Load { dst, base, offset } => {
                let idx = self
                    .mem_index(base, offset, pc)
                    .inspect_err(|_| self.halted = true)?;
                mem_addr = Some(idx as u64 * 8);
                self.regs[dst.index()] = self.load_word(idx);
            }
            Inst::Store { src, base, offset } => {
                let idx = self
                    .mem_index(base, offset, pc)
                    .inspect_err(|_| self.halted = true)?;
                mem_addr = Some(idx as u64 * 8);
                self.store_word(idx, self.regs[src.index()]);
            }
            Inst::Cmp { op, fp, lhs, rhs } => {
                self.flag = self.eval_cmp(op, fp, self.regs[lhs.index()], self.operand(rhs));
            }
            Inst::Jf { target } => {
                let taken = self.flag;
                if taken {
                    next_pc = target;
                }
                branch = Some(BranchEvent {
                    taken,
                    kind: BranchEventKind::Conditional,
                    is_prob: false,
                });
                self.observe_control(pc, &inst, taken);
            }
            Inst::Br {
                op,
                fp,
                lhs,
                rhs,
                target,
            } => {
                let taken = self.eval_cmp(op, fp, self.regs[lhs.index()], self.operand(rhs));
                if taken {
                    next_pc = target;
                }
                branch = Some(BranchEvent {
                    taken,
                    kind: BranchEventKind::Conditional,
                    is_prob: false,
                });
                self.observe_control(pc, &inst, taken);
            }
            Inst::Jmp { target } => {
                next_pc = target;
                branch = Some(BranchEvent {
                    taken: true,
                    kind: BranchEventKind::Unconditional,
                    is_prob: false,
                });
                self.observe_control(pc, &inst, true);
            }
            Inst::Call { target } => {
                if self.call_stack.len() >= self.config.max_call_depth {
                    self.halted = true;
                    return Err(EmuError::CallStackOverflow { pc });
                }
                self.call_stack.push(pc + 1);
                next_pc = target;
                branch = Some(BranchEvent {
                    taken: true,
                    kind: BranchEventKind::Call,
                    is_prob: false,
                });
                self.observe_control(pc, &inst, true);
            }
            Inst::Ret => {
                match self.call_stack.pop() {
                    Some(ra) => next_pc = ra,
                    None => {
                        self.halted = true;
                        return Err(EmuError::CallStackUnderflow { pc });
                    }
                }
                branch = Some(BranchEvent {
                    taken: true,
                    kind: BranchEventKind::Ret,
                    is_prob: false,
                });
                self.observe_control(pc, &inst, true);
            }
            Inst::ProbCmp { op, fp, prob, rhs } => {
                let value = self.regs[prob.index()];
                let const_val = self.operand(rhs);
                let outcome = self.eval_cmp(op, fp, value, const_val);
                self.flag = outcome;
                if self.pbs.is_some() {
                    self.pending_prob.values.clear();
                    self.pending_prob.values.push((prob, value));
                    self.pending_prob.const_val = const_val;
                    self.pending_prob.outcome = outcome;
                }
                // Without PBS hardware this is exactly a `cmp` (legacy
                // decode), and `pending_prob` stays unused.
            }
            Inst::ProbJmp { prob, target } => {
                if let Some(p) = prob {
                    let v = self.regs[p.index()];
                    if self.pbs.is_some() {
                        self.pending_prob.values.push((p, v));
                    }
                }
                match target {
                    None => {
                        // Intermediate PROB_JMP: registers one more value,
                        // transfers no control.
                    }
                    Some(target) => {
                        let (taken, kind) = self.resolve_prob_jump(pc);
                        if taken {
                            next_pc = target;
                        }
                        branch = Some(BranchEvent {
                            taken,
                            kind,
                            is_prob: true,
                        });
                        self.observe_control(pc, &inst, taken);
                    }
                }
            }
            Inst::Out { src, port } => {
                self.outputs.push(port, self.regs[src.index()]);
            }
            Inst::Halt => {
                self.halted = true;
            }
            Inst::Nop => {}
        }

        self.pc = next_pc;
        self.executed += 1;
        Ok(Some(DynInst {
            pc,
            inst,
            branch,
            mem_addr,
        }))
    }

    /// Resolves the jumping `PROB_JMP` at `pc` through the PBS unit (or
    /// as a plain flag jump on a legacy machine).
    ///
    /// Allocation-free in steady state: the pending-value list and the
    /// value slice handed to the PBS unit are persistent scratch buffers
    /// cleared per branch, not rebuilt per branch.
    fn resolve_prob_jump(&mut self, pc: u32) -> (bool, BranchEventKind) {
        // Split borrows: the PBS unit takes the scratch slice while the
        // register file and consumption log are written independently.
        let Emulator {
            pbs,
            pending_prob,
            prob_vals_scratch,
            regs,
            prob_consumed,
            flag,
            ..
        } = self;
        let Some(pbs) = pbs.as_mut() else {
            return (*flag, BranchEventKind::Conditional);
        };
        prob_vals_scratch.clear();
        prob_vals_scratch.extend(pending_prob.values.iter().map(|&(_, v)| v));
        let resolution = pbs.execute_prob_branch(
            pc,
            prob_vals_scratch,
            pending_prob.const_val,
            pending_prob.outcome,
        );
        let out = match resolution {
            BranchResolution::Directed { taken, swapped } => {
                // The execute stage swaps the newly generated values with
                // the recorded ones matching the followed direction.
                for (&(reg, _), &old) in pending_prob.values.iter().zip(&swapped) {
                    regs[reg.index()] = old;
                    prob_consumed.push(old);
                }
                // Hand the spent buffer back so the steady-state PBS
                // path allocates nothing.
                pbs.recycle(swapped);
                (taken, BranchEventKind::PbsDirected)
            }
            BranchResolution::Bootstrap { taken } | BranchResolution::Bypassed { taken, .. } => {
                for &(_, v) in &pending_prob.values {
                    prob_consumed.push(v);
                }
                (taken, BranchEventKind::Conditional)
            }
        };
        pending_prob.values.clear();
        out
    }

    /// Executes one instruction from the predecoded form, returning a
    /// compact [`StepRecord`], or `None` if the machine is halted.
    ///
    /// This is the compiled blocks' datapath run one op at a time: a
    /// control op runs through `exec_control`, as a block terminator
    /// does, and every other op but `out` and `halt` through
    /// `exec_straight_op`, as a block body op does. So the capture
    /// loop's single steps and its blocks share one `PROB_CMP`/`PROB_JMP`
    /// datapath. [`Emulator::step`] is the independent oracle: the `Inst`
    /// interpreter, which shares no dispatch with this one; a lock-step
    /// test holds the two together on every workload, with PBS off and
    /// on.
    ///
    /// # Errors
    ///
    /// Returns an [`EmuError`] on memory faults and call-stack misuse;
    /// the machine halts on error.
    #[inline(always)]
    pub fn step_decoded(&mut self) -> Result<Option<StepRecord>, EmuError> {
        if self.halted {
            return Ok(None);
        }
        let pc = self.pc;
        let mut rec = StepRecord {
            pc,
            branch: None,
            mem_addr: StepRecord::NO_ADDR,
        };
        // One arm per variant: each arm knows its op's variant, so the
        // match in `exec_control` or `exec_straight_op` folds into this
        // one and a single step dispatches once. An arm per group of
        // variants would leave a second dispatch inside the callee.
        macro_rules! one_arm_per_variant {
            ($($control:ident),*; $($straight:ident),*) => {
                match self.decoded.fetch(pc).op {
                    DecOp::Out { src, port } => self.outputs.push(port, self.regs[src.index()]),
                    DecOp::Halt => self.halted = true,
                    $(op @ DecOp::$control { .. } => {
                        rec.branch = Some(self.exec_control(op, pc)?);
                        return Ok(Some(rec));
                    })*
                    $(op @ DecOp::$straight { .. } => {
                        if let Some(addr) = self.exec_straight_op(op, pc)? {
                            rec.mem_addr = addr;
                        }
                    })*
                }
            };
        }
        one_arm_per_variant!(
            Jf, BrRR, BrRI, Jmp, Call, Ret, ProbJmp;
            AluRR, AluRI, Li, Mov, FpBin, FpUn, IntToFp, FpToInt, CMov, Load, Store,
            CmpRR, CmpRI, ProbCmpRR, ProbCmpRI, ProbJmpPush, ProbJmpQuiet, Nop
        );
        self.commit_straight(pc + 1, 1);
        Ok(Some(rec))
    }

    /// Current program counter (the capture loop dispatches on it).
    #[inline(always)]
    pub(crate) fn pc(&self) -> u32 {
        self.pc
    }

    /// The return addresses of the calls in progress, outermost first —
    /// with [`pc`](Self::pc), a trace chunk's entry state.
    pub(crate) fn call_stack(&self) -> &[u32] {
        &self.call_stack
    }

    /// The architectural register file, for fragment-matched native
    /// specializations in the block-compiled capture engine (see
    /// `crate::aot`). Fragments are pure register dataflow: they touch
    /// neither memory, the flag, nor the PBS unit.
    #[inline(always)]
    pub(crate) fn regs_mut(&mut self) -> &mut [u64; 32] {
        &mut self.regs
    }

    /// Commits a straight-line block body in bulk: the pc lands on the
    /// instruction after the body and the retired-instruction counter
    /// advances by the body's record count — exactly the state `n`
    /// [`step_decoded`](Self::step_decoded) calls would have left.
    #[inline(always)]
    pub(crate) fn commit_straight(&mut self, next_pc: u32, n: u64) {
        self.pc = next_pc;
        self.executed += n;
    }

    /// The checked 64-bit load datapath — `DecOp::Load` without the op
    /// dispatch, for the loop specializations in `crate::aot`. Faults
    /// halt the machine and propagate exactly like `step_decoded`.
    /// Returns the pre-simulation data address.
    #[inline(always)]
    pub(crate) fn load_checked(
        &mut self,
        dst: Reg,
        base: Reg,
        offset: i64,
        pc: u32,
    ) -> Result<u64, EmuError> {
        let idx = self
            .mem_index(base, offset, pc)
            .inspect_err(|_| self.halted = true)?;
        self.regs[dst.index()] = self.load_word(idx);
        Ok(idx as u64 * 8)
    }

    /// Evaluates a register-register compare against the architectural
    /// state — the `BrRR` condition datapath.
    #[inline(always)]
    pub(crate) fn cmp_rr(&self, op: CmpOp, fp: bool, lhs: Reg, rhs: Reg) -> bool {
        self.eval_cmp(op, fp, self.regs[lhs.index()], self.regs[rhs.index()])
    }

    /// Evaluates a register-immediate compare — the `BrRI` condition
    /// datapath.
    #[inline(always)]
    pub(crate) fn cmp_ri(&self, op: CmpOp, fp: bool, lhs: Reg, imm: u64) -> bool {
        self.eval_cmp(op, fp, self.regs[lhs.index()], imm)
    }

    /// Commits a direct branch whose direction is already known: the pc
    /// redirect, the retired count and the PBS history observation.
    /// [`exec_control`](Self::exec_control) ends every branch and
    /// `PROB_JMP` here, and the argmax loop specialization in
    /// `crate::aot` commits its four branches here directly.
    #[inline(always)]
    pub(crate) fn commit_term_branch(&mut self, pc: u32, target: u32, taken: bool) {
        self.pc = if taken { target } else { pc + 1 };
        self.executed += 1;
        // A forward branch is a provable no-op on the PBS context
        // table (`ContextTable::observe_branch` returns before any
        // state is touched), so the observation call is skipped
        // entirely — loop detection only consumes backward branches.
        if target <= pc {
            if let Some(pbs) = self.pbs.as_mut() {
                pbs.observe_branch(pc, target, taken);
            }
        }
    }

    /// Executes the control op `op` at `pc` (see [`DecOp::is_control`]):
    /// its condition, call-stack or PBS resolution, the pc redirect, the
    /// retire and the PBS history observation. Returns the branch event
    /// for the op's record. A compiled block's terminator and a single
    /// step both run control ops through here.
    ///
    /// A jumping `PROB_JMP` pushes its last probability register, then
    /// resolves through [`resolve_prob_jump`](Self::resolve_prob_jump):
    /// under PBS a directed instance swaps the recorded values into the
    /// probability registers, so the program consumes its original value
    /// stream, only delayed.
    ///
    /// # Errors
    ///
    /// Call-stack overflow and underflow halt the machine on the
    /// faulting instruction with nothing retired.
    #[inline(always)]
    pub(crate) fn exec_control(&mut self, op: DecOp, pc: u32) -> Result<BranchEvent, EmuError> {
        let (target, taken, kind, is_prob) = match op {
            DecOp::Jf { target } => (target, self.flag, BranchEventKind::Conditional, false),
            DecOp::BrRR {
                op,
                fp,
                lhs,
                rhs,
                target,
            } => (
                target,
                self.cmp_rr(op, fp, lhs, rhs),
                BranchEventKind::Conditional,
                false,
            ),
            DecOp::BrRI {
                op,
                fp,
                lhs,
                imm,
                target,
            } => (
                target,
                self.cmp_ri(op, fp, lhs, imm),
                BranchEventKind::Conditional,
                false,
            ),
            DecOp::Jmp { target } => (target, true, BranchEventKind::Unconditional, false),
            DecOp::Call { target } => {
                if self.call_stack.len() >= self.config.max_call_depth {
                    self.halted = true;
                    return Err(EmuError::CallStackOverflow { pc });
                }
                self.call_stack.push(pc + 1);
                self.pc = target;
                self.executed += 1;
                if let Some(pbs) = self.pbs.as_mut() {
                    pbs.observe_call(pc);
                }
                return Ok(BranchEvent {
                    taken: true,
                    kind: BranchEventKind::Call,
                    is_prob: false,
                });
            }
            DecOp::Ret => {
                let Some(ra) = self.call_stack.pop() else {
                    self.halted = true;
                    return Err(EmuError::CallStackUnderflow { pc });
                };
                self.pc = ra;
                self.executed += 1;
                if let Some(pbs) = self.pbs.as_mut() {
                    pbs.observe_ret();
                }
                return Ok(BranchEvent {
                    taken: true,
                    kind: BranchEventKind::Ret,
                    is_prob: false,
                });
            }
            DecOp::ProbJmp { prob, target } => {
                if let Some(p) = prob {
                    let v = self.regs[p.index()];
                    if self.pbs.is_some() {
                        self.pending_prob.values.push((p, v));
                    }
                }
                let (taken, kind) = self.resolve_prob_jump(pc);
                (target, taken, kind, true)
            }
            _ => unreachable!("exec_control runs control ops only"),
        };
        self.commit_term_branch(pc, target, taken);
        Ok(BranchEvent {
            taken,
            kind,
            is_prob,
        })
    }

    /// Executes one straight-line op without touching `pc`/`executed`:
    /// a compiled block commits those in bulk via
    /// [`commit_straight`](Self::commit_straight), and a single step
    /// commits them per op. Returns the pre-simulation data address for
    /// loads, `None` for every other op (a store's address reaches
    /// neither the cache pre-simulation nor the timing model).
    ///
    /// The PBS probes (`prob_cmp`, `prob_jmp_push`) are plain
    /// straight-line ops from the trace's point of view. Control ops run
    /// through [`exec_control`](Self::exec_control) instead, and `out`
    /// and `halt` only in [`step_decoded`](Self::step_decoded).
    ///
    /// # Errors
    ///
    /// Memory faults halt the machine on the faulting instruction and
    /// propagate.
    #[inline(always)]
    pub(crate) fn exec_straight_op(&mut self, op: DecOp, pc: u32) -> Result<Option<u64>, EmuError> {
        match op {
            DecOp::AluRR {
                op,
                dst,
                src1,
                src2,
            } => {
                let a = self.regs[src1.index()];
                let b = self.regs[src2.index()];
                self.regs[dst.index()] = alu_eval(op, a, b);
            }
            DecOp::AluRI { op, dst, src1, imm } => {
                let a = self.regs[src1.index()];
                self.regs[dst.index()] = alu_eval(op, a, imm);
            }
            DecOp::Li { dst, imm } => self.regs[dst.index()] = imm,
            DecOp::Mov { dst, src } => self.regs[dst.index()] = self.regs[src.index()],
            DecOp::FpBin {
                op,
                dst,
                src1,
                src2,
            } => {
                let a = f64::from_bits(self.regs[src1.index()]);
                let b = f64::from_bits(self.regs[src2.index()]);
                self.regs[dst.index()] = fp_bin_eval(op, a, b).to_bits();
            }
            DecOp::FpUn { op, dst, src } => {
                let a = f64::from_bits(self.regs[src.index()]);
                self.regs[dst.index()] = fp_un_eval(op, a).to_bits();
            }
            DecOp::IntToFp { dst, src } => {
                self.regs[dst.index()] = (self.regs[src.index()] as i64 as f64).to_bits();
            }
            DecOp::FpToInt { dst, src } => {
                let v = f64::from_bits(self.regs[src.index()]);
                self.regs[dst.index()] = (v as i64) as u64;
            }
            DecOp::CMov {
                dst,
                cond,
                if_true,
                if_false,
            } => {
                self.regs[dst.index()] = if self.regs[cond.index()] != 0 {
                    self.regs[if_true.index()]
                } else {
                    self.regs[if_false.index()]
                };
            }
            DecOp::Load { dst, base, offset } => {
                return self.load_checked(dst, base, offset, pc).map(Some);
            }
            DecOp::Store { src, base, offset } => {
                let idx = self
                    .mem_index(base, offset, pc)
                    .inspect_err(|_| self.halted = true)?;
                self.store_word(idx, self.regs[src.index()]);
            }
            DecOp::CmpRR { op, fp, lhs, rhs } => {
                self.flag = self.eval_cmp(op, fp, self.regs[lhs.index()], self.regs[rhs.index()]);
            }
            DecOp::CmpRI { op, fp, lhs, imm } => {
                self.flag = self.eval_cmp(op, fp, self.regs[lhs.index()], imm);
            }
            DecOp::ProbCmpRR { op, fp, prob, rhs } => {
                let value = self.regs[prob.index()];
                let const_val = self.regs[rhs.index()];
                let outcome = self.eval_cmp(op, fp, value, const_val);
                self.flag = outcome;
                if self.pbs.is_some() {
                    self.pending_prob.values.clear();
                    self.pending_prob.values.push((prob, value));
                    self.pending_prob.const_val = const_val;
                    self.pending_prob.outcome = outcome;
                }
            }
            DecOp::ProbCmpRI { op, fp, prob, imm } => {
                let value = self.regs[prob.index()];
                let outcome = self.eval_cmp(op, fp, value, imm);
                self.flag = outcome;
                if self.pbs.is_some() {
                    self.pending_prob.values.clear();
                    self.pending_prob.values.push((prob, value));
                    self.pending_prob.const_val = imm;
                    self.pending_prob.outcome = outcome;
                }
            }
            DecOp::ProbJmpPush { prob } => {
                let v = self.regs[prob.index()];
                if self.pbs.is_some() {
                    self.pending_prob.values.push((prob, v));
                }
            }
            DecOp::ProbJmpQuiet => {}
            DecOp::Nop => {}
            _ => unreachable!("control ops, `out` and `halt` are not straight-line"),
        }
        Ok(None)
    }

    /// Runs until `halt`, with an instruction budget, and returns the
    /// instructions executed.
    ///
    /// This is the capture loop run with nothing to record: the
    /// program's compiled blocks — native RNG fragments and loop
    /// specializations included — execute from their first visit, and
    /// `out`, `halt` and budget tails single-step through
    /// [`step_decoded`](Self::step_decoded). When the `capture.block`
    /// failpoint fires for the run there are no blocks and every
    /// instruction single-steps; the results are the same.
    /// The run polls the current cancellation scope on entry and every
    /// 64 Ki instructions.
    ///
    /// # Errors
    ///
    /// Any [`EmuError`] from execution, [`EmuError::Cancelled`], or
    /// [`EmuError::InstLimitExceeded`] once `max_insts` instructions
    /// have executed — the `halt` included, so a program of exactly
    /// `max_insts` instructions trips the limit. That is the instruction
    /// at which the simulation engines and trace capture stop. A budget
    /// of 0 behaves as a budget of 1.
    pub fn run_to_halt(&mut self, max_insts: u64) -> Result<u64, EmuError> {
        crate::cancel::check_current()?;
        let blocks = BlockProgram::select(&self.decoded, max_insts);
        let budget = max_insts.max(1);
        let start = self.executed;
        crate::aot::dispatch(
            self,
            &blocks,
            start.saturating_add(budget),
            &mut FunctionalSink,
        )?;
        let executed = self.executed - start;
        if executed >= budget {
            return Err(EmuError::InstLimitExceeded { limit: max_insts });
        }
        Ok(executed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use probranch_core::PbsConfig;
    use probranch_isa::ProgramBuilder;

    fn run(b: ProgramBuilder) -> Emulator {
        let mut e = Emulator::new(b.build().unwrap(), EmuConfig::default());
        e.run_to_halt(1_000_000).unwrap();
        e
    }

    #[test]
    fn arithmetic_basics() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::R1, 10)
            .li(Reg::R2, 3)
            .add(Reg::R3, Reg::R1, Reg::R2)
            .sub(Reg::R4, Reg::R1, Reg::R2)
            .mul(Reg::R5, Reg::R1, Reg::R2)
            .div(Reg::R6, Reg::R1, Reg::R2)
            .rem(Reg::R7, Reg::R1, Reg::R2)
            .halt();
        let e = run(b);
        assert_eq!(e.reg(Reg::R3), 13);
        assert_eq!(e.reg(Reg::R4), 7);
        assert_eq!(e.reg(Reg::R5), 30);
        assert_eq!(e.reg(Reg::R6), 3);
        assert_eq!(e.reg(Reg::R7), 1);
    }

    #[test]
    fn signed_ops_and_division_by_zero() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::R1, -10i64)
            .li(Reg::R2, 3)
            .div(Reg::R3, Reg::R1, Reg::R2)
            .li(Reg::R4, 0)
            .div(Reg::R5, Reg::R1, Reg::R4)
            .sar(Reg::R6, Reg::R1, 1)
            .slt(Reg::R7, Reg::R1, Reg::R2)
            .sltu(Reg::R8, Reg::R1, Reg::R2)
            .halt();
        let e = run(b);
        assert_eq!(e.reg(Reg::R3) as i64, -3);
        assert_eq!(e.reg(Reg::R5), 0, "division by zero yields 0");
        assert_eq!(e.reg(Reg::R6) as i64, -5);
        assert_eq!(e.reg(Reg::R7), 1);
        assert_eq!(e.reg(Reg::R8), 0, "unsigned view of -10 is huge");
    }

    #[test]
    fn fp_ops() {
        let mut b = ProgramBuilder::new();
        b.lif(Reg::R1, 2.25)
            .lif(Reg::R2, 4.0)
            .fadd(Reg::R3, Reg::R1, Reg::R2)
            .fmul(Reg::R4, Reg::R1, Reg::R2)
            .fsqrt(Reg::R5, Reg::R2)
            .fln(Reg::R6, Reg::R2)
            .itof(Reg::R7, Reg::R8) // r8 = 0
            .halt();
        let e = run(b);
        assert_eq!(e.reg_f64(Reg::R3), 6.25);
        assert_eq!(e.reg_f64(Reg::R4), 9.0);
        assert_eq!(e.reg_f64(Reg::R5), 2.0);
        assert!((e.reg_f64(Reg::R6) - 4.0f64.ln()).abs() < 1e-15);
        assert_eq!(e.reg_f64(Reg::R7), 0.0);
    }

    #[test]
    fn loop_and_branches() {
        // Sum 1..=100 with a do-while loop.
        let mut b = ProgramBuilder::new();
        let top = b.label("top");
        b.li(Reg::R1, 0).li(Reg::R2, 1);
        b.bind(top);
        b.add(Reg::R1, Reg::R1, Reg::R2).add(Reg::R2, Reg::R2, 1);
        b.br(CmpOp::Le, Reg::R2, 100, top);
        b.out(Reg::R1, 0).halt();
        let e = run(b);
        assert_eq!(e.output(0), &[5050]);
    }

    #[test]
    fn cmp_jf_pair() {
        let mut b = ProgramBuilder::new();
        let skip = b.label("skip");
        b.li(Reg::R1, 5)
            .cmp(CmpOp::Gt, Reg::R1, 3)
            .jf(skip)
            .li(Reg::R2, 111);
        b.bind(skip);
        b.halt();
        let e = run(b);
        assert_eq!(e.reg(Reg::R2), 0, "jf taken skips the li");
    }

    #[test]
    fn memory_load_store() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::R1, 64) // base address
            .li(Reg::R2, 7)
            .st(Reg::R2, Reg::R1, 8)
            .ld(Reg::R3, Reg::R1, 8)
            .halt();
        let e = run(b);
        assert_eq!(e.reg(Reg::R3), 7);
        assert_eq!(e.mem_word(9), 7);
    }

    #[test]
    fn memory_is_allocated_as_it_is_stored_to() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::R1, 40)
            .li(Reg::R2, 7)
            .st(Reg::R2, Reg::R1, 0)
            .halt();
        let e = run(b);
        let mem_words = EmuConfig::default().mem_words;
        assert_eq!(e.mem_word(5), 7);
        assert_eq!(
            e.memory.len(),
            8,
            "one store grows to the next power of two"
        );
        assert_eq!(e.mem_word(mem_words - 1), 0, "unstored words read 0");
        let past_end = std::panic::catch_unwind(|| e.mem_word(mem_words));
        assert!(past_end.is_err(), "the architectural bound still holds");
    }

    #[test]
    fn memory_fault_on_misaligned() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::R1, 3).ld(Reg::R2, Reg::R1, 0).halt();
        let mut e = Emulator::new(b.build().unwrap(), EmuConfig::default());
        let err = e.run_to_halt(10).unwrap_err();
        assert!(matches!(err, EmuError::MemoryFault { addr: 3, .. }));
        assert!(e.is_halted());
    }

    #[test]
    fn memory_fault_out_of_bounds() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::R1, i64::MAX - 7).ld(Reg::R2, Reg::R1, 0).halt();
        let mut e = Emulator::new(
            b.build().unwrap(),
            EmuConfig {
                mem_words: 16,
                max_call_depth: 4,
            },
        );
        assert!(matches!(
            e.run_to_halt(10),
            Err(EmuError::MemoryFault { .. })
        ));
    }

    #[test]
    fn call_and_ret() {
        let mut b = ProgramBuilder::new();
        let f = b.label("f");
        let main_end = b.label("end");
        b.li(Reg::R1, 1).call(f).jmp(main_end);
        b.bind(f);
        b.add(Reg::R1, Reg::R1, 10).ret();
        b.bind(main_end);
        b.halt();
        let e = run(b);
        assert_eq!(e.reg(Reg::R1), 11);
    }

    #[test]
    fn call_stack_underflow() {
        let mut b = ProgramBuilder::new();
        b.ret().halt();
        let mut e = Emulator::new(b.build().unwrap(), EmuConfig::default());
        assert_eq!(
            e.run_to_halt(10),
            Err(EmuError::CallStackUnderflow { pc: 0 })
        );
    }

    #[test]
    fn call_stack_overflow() {
        let mut b = ProgramBuilder::new();
        let f = b.label("f");
        b.bind(f);
        b.call(f);
        b.halt();
        let mut e = Emulator::new(
            b.build().unwrap(),
            EmuConfig {
                mem_words: 16,
                max_call_depth: 8,
            },
        );
        assert!(matches!(
            e.run_to_halt(100),
            Err(EmuError::CallStackOverflow { .. })
        ));
    }

    #[test]
    fn inst_limit() {
        let mut b = ProgramBuilder::new();
        let top = b.here("top");
        b.jmp(top).halt();
        let mut e = Emulator::new(b.build().unwrap(), EmuConfig::default());
        assert_eq!(
            e.run_to_halt(100),
            Err(EmuError::InstLimitExceeded { limit: 100 })
        );
    }

    #[test]
    fn cmov_selects() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::R1, 0)
            .li(Reg::R2, 7)
            .li(Reg::R3, 9)
            .cmov(Reg::R4, Reg::R1, Reg::R2, Reg::R3)
            .li(Reg::R1, 5)
            .cmov(Reg::R5, Reg::R1, Reg::R2, Reg::R3)
            .halt();
        let e = run(b);
        assert_eq!(e.reg(Reg::R4), 9);
        assert_eq!(e.reg(Reg::R5), 7);
    }

    /// A program with a probabilistic branch in a counted loop: an
    /// xorshift64* RNG in ISA code draws a value, compares it against a
    /// threshold register, and counts taken outcomes. With `three`, the
    /// branch's `PROB_JMP`s also register the draw and the last shift
    /// (the intermediate form, then the jumping form with a register),
    /// and port 1 folds both, so a directed swap of each shows there.
    fn prob_loop_program(iters: i64, three: bool) -> Program {
        let mut b = ProgramBuilder::new();
        let top = b.label("top");
        let join = b.label("join");
        b.li(Reg::R1, 0x1234_5678_9abc_def1u64 as i64);
        b.li(Reg::R2, 0);
        b.li(Reg::R3, 0);
        b.li(Reg::R4, (u64::MAX / 2) as i64);
        b.li(Reg::R6, 0x2545F4914F6CDD1Du64 as i64);
        b.bind(top);
        b.shr(Reg::R5, Reg::R1, 12).xor(Reg::R1, Reg::R1, Reg::R5);
        b.shl(Reg::R5, Reg::R1, 25).xor(Reg::R1, Reg::R1, Reg::R5);
        b.shr(Reg::R5, Reg::R1, 27).xor(Reg::R1, Reg::R1, Reg::R5);
        b.mul(Reg::R7, Reg::R1, Reg::R6);
        b.sltu(Reg::R8, Reg::R7, Reg::R4);
        b.prob_cmp(CmpOp::Eq, Reg::R8, 1);
        if three {
            b.prob_jmp_mid(Reg::R7).prob_jmp(Some(Reg::R5), join);
        } else {
            b.prob_jmp(None, join); // taken ~50%
        }
        b.add(Reg::R3, Reg::R3, 1); // not-taken path counts
        b.bind(join);
        b.xor(Reg::R9, Reg::R9, Reg::R7)
            .add(Reg::R9, Reg::R9, Reg::R5);
        b.add(Reg::R2, Reg::R2, 1);
        b.br(CmpOp::Lt, Reg::R2, iters, top);
        b.out(Reg::R3, 0).out(Reg::R9, 1);
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn prob_branch_without_pbs_behaves_like_regular() {
        let p = prob_loop_program(1000, false);
        let mut e = Emulator::new(p, EmuConfig::default());
        e.run_to_halt(100_000).unwrap();
        let count = e.output(0)[0];
        // ~50% not-taken.
        assert!((350..650).contains(&count), "count {count}");
        assert!(
            e.prob_consumed().is_empty(),
            "no PBS, no consumption record"
        );
    }

    #[test]
    fn prob_branch_with_pbs_directs_after_bootstrap() {
        let p = prob_loop_program(1000, false);
        let mut e = Emulator::with_pbs(p, EmuConfig::default(), PbsUnit::new(PbsConfig::default()));
        e.run_to_halt(100_000).unwrap();
        let stats = e.pbs_stats().unwrap();
        assert_eq!(stats.directed + stats.bootstrap + stats.bypassed, 1000);
        assert!(stats.directed >= 990, "steady state dominates: {stats:?}");
        // The statistical behaviour is preserved: still ~50% not-taken.
        let count = e.output(0)[0];
        assert!((350..650).contains(&count), "count {count}");
        assert_eq!(e.prob_consumed().len(), 1000);
    }

    #[test]
    fn pbs_is_deterministic_and_replays_the_value_stream() {
        let run_once = || {
            let p = prob_loop_program(500, false);
            let mut e =
                Emulator::with_pbs(p, EmuConfig::default(), PbsUnit::new(PbsConfig::default()));
            e.run_to_halt(100_000).unwrap();
            (e.output(0).to_vec(), e.prob_consumed().to_vec())
        };
        let (o1, c1) = run_once();
        let (o2, c2) = run_once();
        assert_eq!(o1, o2);
        assert_eq!(c1, c2);
    }

    #[test]
    fn pbs_consumed_stream_is_delayed_replay_of_original() {
        // The consumed stream under PBS must be: the first B values
        // (bootstrap, consumed as generated), then the generated stream
        // replayed from the start (paper Section III-B determinism).
        let p = prob_loop_program(100, false);
        let mut with = Emulator::with_pbs(
            p.clone(),
            EmuConfig::default(),
            PbsUnit::new(PbsConfig::default()),
        );
        with.run_to_halt(100_000).unwrap();
        // Reference: run without PBS and reconstruct generated values by
        // re-running with a unit whose in_flight is huge (always
        // bootstrap, consumed == generated).
        let mut gen = Emulator::with_pbs(
            p,
            EmuConfig::default(),
            PbsUnit::new(PbsConfig {
                in_flight: 1_000_000,
                ..PbsConfig::default()
            }),
        );
        gen.run_to_halt(100_000).unwrap();
        let generated = gen.prob_consumed();
        let consumed = with.prob_consumed();
        assert_eq!(consumed.len(), generated.len());
        assert_eq!(&consumed[..4], &generated[..4]);
        assert_eq!(&consumed[4..], &generated[..generated.len() - 4]);
    }

    #[test]
    fn out_ports_are_separate() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::R1, 1)
            .li(Reg::R2, 2)
            .out(Reg::R1, 0)
            .out(Reg::R2, 1)
            .out(Reg::R1, 0)
            .halt();
        let e = run(b);
        assert_eq!(e.output(0), &[1, 1]);
        assert_eq!(e.output(1), &[2]);
        assert_eq!(e.output(9), &[] as &[u64]);
    }

    #[test]
    fn decoded_interpreter_matches_reference_step_stream() {
        // Lock-step the `Inst` interpreter, which shares no dispatch with
        // the decoded one, against `step_decoded` on every workload with
        // PBS off and on: per record the same pc, branch event and load
        // address (no other record carries an address, stores included),
        // then the same outputs, consumed values and PBS counters.
        // A three-value `PROB_JMP` loop joins them: no workload
        // registers more than the compared value.
        use probranch_workloads::{BenchmarkId, Scale};
        let programs = BenchmarkId::ALL
            .map(|id| (format!("{id:?}"), id.build(Scale::Smoke, 1).program()))
            .into_iter()
            .chain([("three-value loop".into(), prob_loop_program(300, true))]);
        let (mut loads, mut stores) = (0u64, 0u64);
        for (id, program) in programs {
            for pbs in [false, true] {
                let emu = || {
                    let (p, c) = (program.clone(), EmuConfig::default());
                    match pbs {
                        true => Emulator::with_pbs(p, c, PbsUnit::new(PbsConfig::default())),
                        false => Emulator::new(p, c),
                    }
                };
                let (mut a, mut b) = (emu(), emu());
                loop {
                    match (a.step().unwrap(), b.step_decoded().unwrap()) {
                        (None, None) => break,
                        (Some(da), Some(db)) => {
                            let load = matches!(da.inst, Inst::Load { .. });
                            assert_eq!(
                                (db.pc, db.branch, db.mem_addr()),
                                (da.pc, da.branch, da.mem_addr.filter(|_| load)),
                                "{id}, PBS {pbs}, record {}",
                                a.executed() - 1
                            );
                            loads += u64::from(load);
                            stores += u64::from(matches!(da.inst, Inst::Store { .. }));
                        }
                        (x, y) => panic!("{id}, PBS {pbs}: {x:?} vs {y:?}"),
                    }
                }
                assert_eq!(a.outputs_sorted(), b.outputs_sorted(), "{id}, PBS {pbs}");
                assert_eq!(a.prob_consumed(), b.prob_consumed(), "{id}, PBS {pbs}");
                assert_eq!(a.pbs_stats(), b.pbs_stats(), "{id}, PBS {pbs}");
            }
        }
        assert!(loads > 0 && stores > 0, "{loads} loads, {stores} stores");
    }

    #[test]
    fn decoded_steps_record_the_halt_then_stop() {
        let mut bld = ProgramBuilder::new();
        bld.li(Reg::R1, 1)
            .add(Reg::R1, Reg::R1, 1)
            .out(Reg::R1, 3)
            .halt();
        let mut e = Emulator::new(bld.build().unwrap(), EmuConfig::default());
        let mut pcs = Vec::new();
        while let Some(rec) = e.step_decoded().unwrap() {
            pcs.push(rec.pc);
        }
        assert_eq!(pcs, [0, 1, 2, 3], "the halt is a record");
        assert_eq!(e.executed(), 4);
        assert_eq!(
            e.step_decoded().unwrap(),
            None,
            "halted machine stays halted"
        );
        assert_eq!(e.output(3), &[2]);
        assert_eq!(e.outputs_sorted(), vec![(3u16, vec![2u64])]);
    }

    #[test]
    fn dyn_inst_stream_reports_branches_and_mem() {
        let mut b = ProgramBuilder::new();
        let l = b.label("l");
        b.li(Reg::R1, 64)
            .st(Reg::R1, Reg::R1, 0)
            .br(CmpOp::Eq, Reg::R1, 64, l);
        b.bind(l);
        b.halt();
        let mut e = Emulator::new(b.build().unwrap(), EmuConfig::default());
        let i1 = e.step().unwrap().unwrap();
        assert_eq!(i1.pc, 0);
        assert!(i1.branch.is_none());
        let i2 = e.step().unwrap().unwrap();
        assert_eq!(i2.mem_addr, Some(64));
        let i3 = e.step().unwrap().unwrap();
        let ev = i3.branch.unwrap();
        assert!(ev.taken);
        assert_eq!(ev.kind, BranchEventKind::Conditional);
        let i4 = e.step().unwrap().unwrap();
        assert!(matches!(i4.inst, Inst::Halt));
        assert_eq!(e.step().unwrap(), None, "halted machine steps to None");
    }
}
