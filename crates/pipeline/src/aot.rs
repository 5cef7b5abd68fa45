//! The capture loop: trace capture and functional runs above
//! interpreter speed.
//!
//! [`TraceStream::fill`] and [`Emulator::run_to_halt`] run one dispatch
//! loop over the guest pc, generic over a [`Sink`] — what the loop emits
//! as it runs. The capture sink writes trace records and pre-simulates
//! the memory hierarchy; the functional sink emits nothing, for runs
//! that need only the architectural results. This module compiles the
//! predecoded program into **basic blocks** once per run, and the loop
//! executes each ready block as a specialized straight-line step
//! function:
//!
//! * the body (every non-control op up to the block's terminator) runs
//!   branch-free against the architectural state, with no per-op pc or
//!   retired-counter bookkeeping — one [`Emulator::commit_straight`]
//!   per block. The PBS probes (`prob_cmp`, `prob_jmp_push`/`quiet`)
//!   run inside bodies like any straight-line op;
//! * under the capture sink, body records bulk-append into the SoA
//!   [`TraceChunk`] as one span through the chunk's writer
//!   (`TraceChunk::begin_fill`) instead of per-record pushes: no fetch
//!   stalls (see the warmth rule below), no branch bytes, no pcs (the
//!   trace's flow table derives them), and the latencies of the loads
//!   the body actually executed;
//! * the terminator, a control op, runs through
//!   [`Emulator::exec_control`]: its condition, call-stack or `PROB_JMP`
//!   resolution, the pc redirect and the PBS context update, then one
//!   packed branch record to the sink;
//! * the workload library's inline RNG sequences — the xorshift64\*
//!   step, the `[0,1)` conversion, the Box–Muller tail — are
//!   structurally pattern-matched at block-build time and executed as
//!   straight-line host Rust, bit-identical to the op datapath (same
//!   `f64` operations in the same order);
//! * above blocks, **whole-loop specializations** ([`ArgmaxLoop`]):
//!   hot inner loops that the block engine would chop into several
//!   tiny blocks per iteration are fingerprinted at compile time and
//!   executed iteration-at-a-time as native Rust, handing the sink the
//!   same records and branch bytes, with the same PBS observations and
//!   fault behavior.
//!
//! Every other pc takes the loop's single-step arm: one
//! [`Emulator::step_decoded`] call (under the capture sink, its fetch
//! and load pre-simulated into the record's latencies). A single step is
//! the block datapath run one op at a time — a body op through
//! [`Emulator::exec_straight_op`], a control op through
//! [`Emulator::exec_control`] — and only the rare ops (`out` and `halt`,
//! which never enter a block) execute in `step_decoded` itself. So a
//! block and the single steps it stands for share every op's datapath,
//! the PBS probes and resolution included. That arm runs the rare ops,
//! cold blocks, budget tails and mid-block resume points. A program with
//! no compiled blocks runs every pc through it — the interpreter is the
//! loop with no blocks.
//!
//! # Warmth rule (byte-identity of the capture fast path)
//!
//! The bulk path records no fetch stall for any body record, which is
//! only correct when each body line is already resident in the L1-I.
//! The capture sink therefore single-steps a block until every line it
//! spans is marked in [`TraceStream::itouched`] (first touches walk the
//! hierarchy and insert into the shared L2, exactly as a full
//! pre-simulation would), and only then engages the bulk path.
//! Programs too large for the `itouched` regime capture with no blocks.
//! A functional run has no `istall` to protect, so it runs every
//! compiled block from its first execution, at any program size.
//!
//! # Faults and limits
//!
//! A memory fault at body index `k` emits the `k` completed records,
//! commits `pc`/`executed` to the faulting instruction and halts —
//! indistinguishable from `k` single steps followed by the same
//! fault. Blocks and argmax iterations only execute when the remaining
//! instruction budget (the chunk's, or the functional run's) covers
//! them, so `InstLimitExceeded` trips at exactly the same dynamic
//! instruction as the reference engine. Long block runs poll the
//! cancellation token every [`CANCEL_STRIDE`](crate::cancel::CANCEL_STRIDE)
//! instructions, same as the reference engine.
//!
//! # Forcing the interpreter
//!
//! The `capture.block` failpoint, rolled once per capture and once per
//! functional run, runs that run with no blocks. At probability 1 it
//! forces the interpreter wherever its plan reaches, experiment workers
//! included: `--fault-plan 'seed=1,capture.block=1.0'` from the command
//! line, a scoped plan in the tier-equivalence tests. Torture runs
//! prove the fallback is byte-invisible.

use std::sync::atomic::{AtomicBool, Ordering};

use probranch_faults as faults;
use probranch_isa::{AluOp, CmpOp, FpBinOp, FpUnOp, Reg};

use crate::cache::MemoryHierarchy;
use crate::cancel::CANCEL_STRIDE;
use crate::decode::{DecOp, DecodedProgram, InstTiming};
use crate::machine::{alu_eval, fp_bin_eval, BranchEvent, BranchEventKind, EmuError, Emulator};
use crate::trace::{
    encode_branch, record_costs, ChunkWriter, FlowState, TraceChunk, TraceStream,
    TRACE_CHUNK_RECORDS,
};

/// Runs `f` with no compiled blocks when `interp` (under a scoped
/// `capture.block=1.0` plan), else with the default blocks.
#[cfg(test)]
pub(crate) fn on_tier<R>(interp: bool, f: impl FnOnce() -> R) -> R {
    let _plan = interp.then(|| {
        faults::PlanScope::enter(faults::FaultPlan::default().arm(faults::Site::CaptureBlock, 1.0))
    });
    f()
}

// --- capture/drain overlap switch -----------------------------------

/// Whether convoy runs overlap capture and drain; on by default.
static OVERLAP: AtomicBool = AtomicBool::new(true);

/// Enables or disables the chunk-pipelined capture/drain overlap for
/// convoy runs (capture chunk `N+1` on a helper thread while consumers
/// drain chunk `N`). A caller running convoys on one worker passes
/// `false` to keep to the serial fill loop. The switch is process-wide.
pub fn set_capture_overlap(enabled: bool) {
    OVERLAP.store(enabled, Ordering::Relaxed);
}

/// Whether convoy capture currently overlaps capture and drain (see
/// [`set_capture_overlap`]).
pub fn capture_overlap() -> bool {
    OVERLAP.load(Ordering::Relaxed)
}

// --- block program ---------------------------------------------------

/// A fragment-matched native specialization: executes a straight-line
/// span of guest ops as host Rust against the register file.
pub(crate) type NativeFn = fn(&mut [u64; 32], [u8; 6]);

/// One step of a compiled block body.
pub(crate) enum BodyStep {
    /// One straight-line decoded op, executed by the shared datapath
    /// ([`Emulator::exec_straight_op`]).
    Op(DecOp),
    /// A native fragment covering `len` consecutive pcs (pure register
    /// dataflow: no memory, flag or PBS effects).
    Native {
        /// The specialized step function.
        fun: NativeFn,
        /// Register slots, resolved at block-build time (trailing slots
        /// unused by shorter fragments are zero).
        args: [u8; 6],
        /// Guest instructions (== records) the fragment covers.
        len: u32,
    },
}

impl std::fmt::Debug for BodyStep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BodyStep::Op(op) => f.debug_tuple("Op").field(op).finish(),
            BodyStep::Native { args, len, .. } => f
                .debug_struct("Native")
                .field("args", args)
                .field("len", len)
                .finish(),
        }
    }
}

/// One basic block: a maximal straight-line body plus (usually) a
/// control-op terminator.
#[derive(Debug)]
pub(crate) struct CompiledBlock {
    /// Leader pc; body records cover `start_pc..start_pc + body_len`.
    pub(crate) start_pc: u32,
    /// The straight-line body. Every step advances the pc by its
    /// record count; no intra-block control.
    pub(crate) body: Vec<BodyStep>,
    /// Records the body contributes (== static body length in guest
    /// instructions).
    pub(crate) body_len: u32,
    /// The control op following the body, which the block runs through
    /// [`Emulator::exec_control`]; `None` when the block ends at a leader
    /// or rare-op boundary instead.
    pub(crate) term: Option<DecOp>,
    /// A whole-loop specialization headed at this block's leader, when
    /// the fingerprint matched.
    pub(crate) spec: Option<ArgmaxLoop>,
}

impl CompiledBlock {
    /// Total records one execution of the block emits.
    #[inline(always)]
    fn records(&self) -> u64 {
        self.body_len as u64 + self.term.is_some() as u64
    }
}

const NO_BLOCK: u32 = u32::MAX;

/// The block-compiled form of a program: dense pc → block dispatch
/// plus the compiled blocks, built once per capture or functional run.
/// The empty program (`BlockProgram::default()`) compiles nothing, so
/// the capture loop single-steps every pc.
#[derive(Debug, Default)]
pub(crate) struct BlockProgram {
    blocks: Vec<CompiledBlock>,
    /// pc → index into `blocks` for compiled leaders (non-empty body
    /// or a lone terminator),
    /// [`NO_BLOCK`] everywhere else.
    index: Vec<u32>,
}

/// Rare ops the capture loop single-steps: output writes and `halt`. A
/// body ends before one; the pc after it is a fresh leader, so only the
/// rare op itself single-steps. The PBS probes (`prob_cmp`,
/// `prob_jmp_push`/`quiet`) are straight-line from the trace's point
/// of view and execute inside block bodies via `exec_straight_op` —
/// every paper kernel has one in its hot loop, and splitting there
/// would cost two dispatch round trips per iteration.
fn is_rare(op: &DecOp) -> bool {
    matches!(op, DecOp::Out { .. } | DecOp::Halt)
}

fn branch_target(op: &DecOp) -> Option<u32> {
    match *op {
        DecOp::Jf { target }
        | DecOp::BrRR { target, .. }
        | DecOp::BrRI { target, .. }
        | DecOp::Jmp { target }
        | DecOp::Call { target }
        | DecOp::ProbJmp { target, .. } => Some(target),
        _ => None,
    }
}

impl BlockProgram {
    /// The blocks a run of `decoded` under the instruction budget
    /// `max_insts` executes: none when the `capture.block` failpoint
    /// fires for the run (salted by the program length and the budget),
    /// else the compiled program.
    pub(crate) fn select(decoded: &DecodedProgram, max_insts: u64) -> BlockProgram {
        if faults::injected(
            faults::Site::CaptureBlock,
            &[decoded.len() as u64, max_insts],
        ) {
            BlockProgram::default()
        } else {
            BlockProgram::compile(decoded)
        }
    }

    /// Extracts and compiles the basic blocks of `decoded`. Leaders are
    /// the entry, every branch/call target, and the pc after every
    /// control or rare op; a body extends from its leader to the next
    /// control op (terminator), rare op, leader or program end. Bodies
    /// pattern-match the workload RNG fragments, and loop heads the
    /// whole-loop fingerprints.
    pub(crate) fn compile(decoded: &DecodedProgram) -> BlockProgram {
        let insts = decoded.insts();
        let n = insts.len();
        let mut leader = vec![false; n];
        if n > 0 {
            leader[0] = true;
        }
        for (pc, d) in insts.iter().enumerate() {
            if d.op.is_control() {
                if let Some(t) = branch_target(&d.op) {
                    if (t as usize) < n {
                        leader[t as usize] = true;
                    }
                }
                if pc + 1 < n {
                    leader[pc + 1] = true;
                }
            } else if is_rare(&d.op) && pc + 1 < n {
                leader[pc + 1] = true;
            }
        }

        let mut blocks = Vec::new();
        let mut index = vec![NO_BLOCK; n];
        let mut start = 0usize;
        while start < n {
            if !leader[start] {
                start += 1;
                continue;
            }
            let mut end = start;
            let mut has_term = false;
            while end < n {
                let op = &insts[end].op;
                if op.is_control() {
                    has_term = true;
                    break;
                }
                if is_rare(op) || (end > start && leader[end]) {
                    break;
                }
                end += 1;
            }
            if end == start {
                // The leader is itself a control op (a branch that is
                // also a branch target — common in else-chains and at
                // loop-skip labels): compile a terminator-only block so
                // it skips the single step's fetch and record round
                // trip. Rare ops stay single-stepped.
                if has_term {
                    index[start] = blocks.len() as u32;
                    blocks.push(CompiledBlock {
                        start_pc: start as u32,
                        body: Vec::new(),
                        body_len: 0,
                        term: Some(insts[end].op),
                        spec: None,
                    });
                }
                start += 1;
                continue;
            }
            let mut body = Vec::with_capacity(end - start);
            let ops: Vec<DecOp> = insts[start..end].iter().map(|d| d.op).collect();
            let mut i = 0;
            while i < ops.len() {
                if let Some((fun, args, len)) = match_fragment(&ops[i..]) {
                    body.push(BodyStep::Native { fun, args, len });
                    i += len as usize;
                    continue;
                }
                body.push(BodyStep::Op(ops[i]));
                i += 1;
            }
            index[start] = blocks.len() as u32;
            blocks.push(CompiledBlock {
                start_pc: start as u32,
                body,
                body_len: (end - start) as u32,
                term: has_term.then_some(insts[end].op),
                spec: None,
            });
            start = end;
        }
        // Whole-loop fingerprints attach to the loop-head leader's
        // block; the loop's interior blocks stay compiled as-is so
        // mid-loop resume points (budget tails, post-fault pcs) still
        // dispatch generically.
        for p in 0..n {
            let i = index[p];
            if i == NO_BLOCK || p + ARGMAX_LEN > n {
                continue;
            }
            let window: [DecOp; ARGMAX_LEN] = std::array::from_fn(|j| insts[p + j].op);
            if let Some(spec) = match_argmax(&window, p as u32) {
                blocks[i as usize].spec = Some(spec);
            }
        }
        BlockProgram { blocks, index }
    }

    /// The compiled block whose leader is `pc`, if any (unit-test
    /// convenience; the dispatch loop uses [`idx_at`](Self::idx_at)).
    #[cfg(test)]
    pub(crate) fn at(&self, pc: u32) -> Option<&CompiledBlock> {
        self.idx_at(pc).map(|i| &self.blocks[i])
    }

    /// The index of the compiled block whose leader is `pc`, if any —
    /// the dispatch loop keys its warmth cache by this index.
    #[inline(always)]
    pub(crate) fn idx_at(&self, pc: u32) -> Option<usize> {
        let i = *self.index.get(pc as usize)?;
        (i != NO_BLOCK).then_some(i as usize)
    }

    /// The compiled block at `i` (see [`idx_at`](Self::idx_at)).
    #[inline(always)]
    pub(crate) fn block(&self, i: usize) -> &CompiledBlock {
        &self.blocks[i]
    }

    /// Number of compiled blocks.
    pub(crate) fn compiled_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// The head pc of the first whole-loop specialization, if any
    /// (unit-test convenience).
    #[cfg(test)]
    pub(crate) fn argmax_head(&self) -> Option<u32> {
        self.blocks.iter().find_map(|b| b.spec.map(|sp| sp.head))
    }

    /// Whether any block carries a fragment-matched native step.
    #[cfg(test)]
    pub(crate) fn has_native(&self) -> bool {
        self.blocks.iter().any(|b| {
            b.spec.is_some()
                || b.body
                    .iter()
                    .any(|step| matches!(step, BodyStep::Native { .. }))
        })
    }
}

// --- sinks -----------------------------------------------------------

/// What the dispatch loop and the block executors emit as they run, and
/// when a compiled block may run.
///
/// A block and the single steps it stands for run the same datapath, so
/// a sink receives the same records in the same order either way: a
/// block's body arrives as one [`straight`](Sink::straight) span after
/// its loads and its terminator as one [`branch`](Sink::branch), a
/// single step through [`step`](Sink::step).
///
/// [`CaptureSink`] writes trace records through the [`ChunkWriter`],
/// pre-simulates every fetch and load, and holds a block back until it
/// is warm. [`FunctionalSink`] emits nothing and runs every block as
/// soon as it is reached. Every method inlines, so a functional run
/// compiles down to the bare datapath.
pub(crate) trait Sink {
    /// Whether compiled block `i` may take the fast path now.
    fn block_ready(&mut self, i: usize, b: &CompiledBlock) -> bool;
    /// Whether the argmax loop headed at `head` may run natively.
    fn loop_ready(&self, head: u32) -> bool;
    /// A load of the straight-line span the next
    /// [`straight`](Sink::straight) call reports touched `addr`; a
    /// span's loads report in order.
    fn load(&mut self, addr: u64);
    /// The next `n` straight-line instructions retired.
    fn straight(&mut self, n: u32);
    /// The next instruction, a control op, retired with its packed
    /// branch byte.
    fn branch(&mut self, byte: u8);
    /// Single-steps one instruction of a machine that has not halted.
    fn step(&mut self, emu: &mut Emulator) -> Result<(), EmuError>;
}

/// The capture sink (see [`Sink`]): [`TraceStream::fill`]'s chunk
/// writer, its pre-simulated hierarchy and its warmth state.
struct CaptureSink<'a, 'w> {
    w: &'a mut ChunkWriter<'w>,
    presim: &'a mut MemoryHierarchy,
    timings: &'a [InstTiming],
    itouched: &'a mut [bool],
    pcs_per_line: usize,
    warm_blocks: &'a mut [bool],
}

impl Sink for CaptureSink<'_, '_> {
    /// The warmth rule: every L1-I line the block spans — body plus
    /// terminator, when one follows — has been touched. That is the
    /// precondition for the zero-istall bulk path *and* for the inline
    /// terminator record, whose `istall = 0` is only what a single step
    /// would pre-simulate once the line is resident. Warmth is
    /// monotonic (`itouched` lines are only ever set), so a block found
    /// warm once is warm forever: the verdict is cached and the line
    /// scan skipped.
    #[inline(always)]
    fn block_ready(&mut self, i: usize, b: &CompiledBlock) -> bool {
        self.warm_blocks[i] || {
            debug_assert!(b.records() > 0);
            let l0 = b.start_pc as usize / self.pcs_per_line;
            let last_pc = b.start_pc + b.body_len + b.term.is_some() as u32 - 1;
            let l1 = last_pc as usize / self.pcs_per_line;
            let warm = self.itouched[l0..=l1].iter().all(|&t| t);
            self.warm_blocks[i] = warm;
            warm
        }
    }

    /// Whether every L1-I line the whole loop spans is resident — the
    /// zero-istall precondition for [`exec_argmax`], which covers all
    /// fourteen pcs, not just the head block.
    #[inline(always)]
    fn loop_ready(&self, head: u32) -> bool {
        let l0 = head as usize / self.pcs_per_line;
        let l1 = (head as usize + ARGMAX_LEN - 1) / self.pcs_per_line;
        self.itouched[l0..=l1].iter().all(|&t| t)
    }

    /// Loads pre-simulate their data access in execution order, exactly
    /// as a single step would, and append their latency for the span's
    /// emission.
    #[inline(always)]
    fn load(&mut self, addr: u64) {
        let dlat = self.presim.data_access(addr);
        debug_assert!(dlat <= u8::MAX as u64);
        self.w.load(dlat as u8);
    }

    #[inline(always)]
    fn straight(&mut self, n: u32) {
        self.w.emit_straight(n);
    }

    /// A terminator's line is covered by the warmth rule (`istall = 0`,
    /// exactly what a single step would pre-simulate for a resident
    /// line) and a branch is never a load.
    #[inline(always)]
    fn branch(&mut self, byte: u8) {
        self.w.emit_record(byte, 0);
    }

    #[inline(always)]
    fn step(&mut self, emu: &mut Emulator) -> Result<(), EmuError> {
        if let Some(rec) = emu.step_decoded()? {
            let (istall, dlat) = record_costs(
                self.presim,
                self.timings,
                self.itouched,
                self.pcs_per_line,
                &rec,
            );
            if let Some(dlat) = dlat {
                self.w.load(dlat);
            }
            self.w.emit_record(encode_branch(rec.branch), istall);
        }
        Ok(())
    }
}

/// The functional sink (see [`Sink`]): [`Emulator::run_to_halt`]
/// records nothing, and with no `istall` to protect there is no warmth
/// rule — every compiled block is ready from its first execution.
pub(crate) struct FunctionalSink;

impl Sink for FunctionalSink {
    #[inline(always)]
    fn block_ready(&mut self, _: usize, _: &CompiledBlock) -> bool {
        true
    }

    #[inline(always)]
    fn loop_ready(&self, _: u32) -> bool {
        true
    }

    #[inline(always)]
    fn load(&mut self, _: u64) {}

    #[inline(always)]
    fn straight(&mut self, _: u32) {}

    #[inline(always)]
    fn branch(&mut self, _: u8) {}

    #[inline(always)]
    fn step(&mut self, emu: &mut Emulator) -> Result<(), EmuError> {
        emu.step_decoded().map(drop)
    }
}

// --- block execution -------------------------------------------------

/// The dispatch loop both sinks run: until the machine halts or has
/// executed `end` instructions in total, execute a ready compiled block
/// (or whole argmax iterations) natively and single-step every other
/// pc. A block or an argmax iteration runs only when the instructions
/// left before `end` cover it, so the loop stops at exactly `end`.
/// Polls cancellation every [`CANCEL_STRIDE`] instructions; callers
/// poll on entry.
#[inline(always)]
pub(crate) fn dispatch<S: Sink>(
    emu: &mut Emulator,
    blocks: &BlockProgram,
    end: u64,
    sink: &mut S,
) -> Result<(), EmuError> {
    let mut next_poll = emu.executed() + CANCEL_STRIDE;
    while emu.executed() < end && !emu.is_halted() {
        if emu.executed() >= next_poll {
            crate::cancel::check_current()?;
            next_poll = emu.executed() + CANCEL_STRIDE;
        }
        if let Some(i) = blocks.idx_at(emu.pc()) {
            let b = blocks.block(i);
            let ready = sink.block_ready(i, b);
            if let Some(sp) = ready.then_some(()).and(b.spec.as_ref()) {
                // Whole-loop fast path: needs its own budget headroom
                // (one full iteration) and, under capture, warmth over
                // all fourteen lines, not just the head block.
                if end - emu.executed() >= ARGMAX_ITER_RECORDS && sink.loop_ready(sp.head) {
                    exec_argmax(emu, sink, sp, end)?;
                    continue;
                }
            }
            if ready && b.records() <= end - emu.executed() {
                exec_block(emu, sink, b)?;
                continue;
            }
        }
        // The single-step arm.
        sink.step(emu)?;
    }
    Ok(())
}

/// Executes one ready block: the body through
/// [`Emulator::exec_straight_op`] (or a native fragment where one
/// matched), one bulk span to the sink, then the terminator through
/// [`Emulator::exec_control`] and one packed branch record.
#[inline(always)]
fn exec_block<S: Sink>(
    emu: &mut Emulator,
    sink: &mut S,
    b: &CompiledBlock,
) -> Result<(), EmuError> {
    let start = b.start_pc;
    let mut done: u32 = 0;
    for step in &b.body {
        match step {
            BodyStep::Op(op) => match emu.exec_straight_op(*op, start + done) {
                Ok(Some(addr)) => {
                    sink.load(addr);
                    done += 1;
                }
                Ok(None) => done += 1,
                Err(e) => {
                    // Fault at body index `done`: emit the completed
                    // records and land the machine on the faulting
                    // instruction — indistinguishable from `done`
                    // single steps followed by the same fault.
                    sink.straight(done);
                    emu.commit_straight(start + done, done as u64);
                    return Err(e);
                }
            },
            BodyStep::Native { fun, args, len } => {
                fun(emu.regs_mut(), *args);
                done += len;
            }
        }
    }
    debug_assert_eq!(done, b.body_len);
    sink.straight(done);
    emu.commit_straight(start + done, done as u64);
    let Some(op) = b.term else {
        return Ok(());
    };
    let pc = start + done;
    let event = emu.exec_control(op, pc)?;
    sink.branch(encode_branch(Some(event)));
    Ok(())
}

// --- whole-loop specializations --------------------------------------

/// Static length of the argmax loop fingerprint in guest instructions.
const ARGMAX_LEN: usize = 14;

/// Most records one argmax iteration emits (an already-pulled arm that
/// improves the running best: `2 + 1 + 4 + 1 + 2 + 1 + 1`).
pub(crate) const ARGMAX_ITER_RECORDS: u64 = 12;

/// A fingerprint-matched whole-loop specialization: the linear argmax
/// scan at the heart of the Bandit kernel's exploit path —
///
/// ```text
/// head:    shl  i, k, #s          ; i = k * 8
///          ld   p, [i + OFF_P]    ; pulls[k]
///          br   cc1 p, #c1, head+5
///          mov  v, one            ; unpulled arm: optimistic score
///          jmp  head+9
/// head+5:  ld   v, [i + OFF_W]    ; wins[k]
///          itof v, v
///          itof p, p
///          fdiv v, v, p           ; empirical mean
/// head+9:  fbr  cc2 v, best_v, head+12
///          mov  best_v, v
///          mov  best_i, k
/// head+12: add  k, k, #a
///          br   cc3 k, #n, head   ; back edge
/// ```
///
/// The block compiler chops one iteration into up to five tiny blocks
/// (`head+9`, a jump target that is itself a control op, compiles as a
/// terminator-only block), each a separate dispatch. [`exec_argmax`]
/// runs whole iterations as native
/// Rust instead: same datapath functions, same records and branch
/// bytes handed to the sink, same PBS observations (the
/// back edge; forward branches are provable no-ops on the context
/// table), and the same fault landing points as the interpreter.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ArgmaxLoop {
    /// Loop-head pc (`shl`); the loop spans `head..head + 14`.
    head: u32,
    /// Index register `i` (byte offset of arm `k`).
    i: Reg,
    /// Loop counter register `k`.
    k: Reg,
    /// Pull-count register `p`.
    pulls: Reg,
    /// Score register `v`.
    score: Reg,
    /// Optimistic-score source register for unpulled arms.
    one: Reg,
    /// Running best score.
    best_v: Reg,
    /// Running best index.
    best_i: Reg,
    /// `shl` shift immediate.
    shl_imm: u64,
    /// `add` step immediate.
    add_imm: u64,
    /// Pull-count table base offset.
    off_pulls: i64,
    /// Wins table base offset.
    off_wins: i64,
    /// Pulled-test condition at `head + 2` (operator, fp, immediate).
    br_pulled: (CmpOp, bool, u64),
    /// Skip-update condition at `head + 9` (operator, fp).
    br_skip: (CmpOp, bool),
    /// Back-edge condition at `head + 13` (operator, fp, immediate).
    br_back: (CmpOp, bool, u64),
}

/// Matches the argmax loop fingerprint at `at` (see [`ArgmaxLoop`]).
/// Only the instruction kinds, the register dataflow and the four
/// control targets are structural; operators, immediates and offsets
/// are captured as data. Register aliasing needs no constraints:
/// [`exec_argmax`] replays every op in program order against the real
/// register file.
fn match_argmax(w: &[DecOp; ARGMAX_LEN], at: u32) -> Option<ArgmaxLoop> {
    let (i, k, shl_imm) = match w[0] {
        DecOp::AluRI {
            op: AluOp::Shl,
            dst,
            src1,
            imm,
        } => (dst, src1, imm),
        _ => return None,
    };
    let (pulls, off_pulls) = match w[1] {
        DecOp::Load { dst, base, offset } if base == i => (dst, offset),
        _ => return None,
    };
    let br_pulled = match w[2] {
        DecOp::BrRI {
            op,
            fp,
            lhs,
            imm,
            target,
        } if lhs == pulls && target == at + 5 => (op, fp, imm),
        _ => return None,
    };
    let (score, one) = match w[3] {
        DecOp::Mov { dst, src } => (dst, src),
        _ => return None,
    };
    match w[4] {
        DecOp::Jmp { target } if target == at + 9 => {}
        _ => return None,
    }
    let off_wins = match w[5] {
        DecOp::Load { dst, base, offset } if dst == score && base == i => offset,
        _ => return None,
    };
    match w[6] {
        DecOp::IntToFp { dst, src } if dst == score && src == score => {}
        _ => return None,
    }
    match w[7] {
        DecOp::IntToFp { dst, src } if dst == pulls && src == pulls => {}
        _ => return None,
    }
    match w[8] {
        DecOp::FpBin {
            op: FpBinOp::Div,
            dst,
            src1,
            src2,
        } if dst == score && src1 == score && src2 == pulls => {}
        _ => return None,
    }
    let (best_v, br_skip) = match w[9] {
        DecOp::BrRR {
            op,
            fp,
            lhs,
            rhs,
            target,
        } if lhs == score && target == at + 12 => (rhs, (op, fp)),
        _ => return None,
    };
    match w[10] {
        DecOp::Mov { dst, src } if dst == best_v && src == score => {}
        _ => return None,
    }
    let best_i = match w[11] {
        DecOp::Mov { dst, src } if src == k => dst,
        _ => return None,
    };
    let add_imm = match w[12] {
        DecOp::AluRI {
            op: AluOp::Add,
            dst,
            src1,
            imm,
        } if dst == k && src1 == k => imm,
        _ => return None,
    };
    let br_back = match w[13] {
        DecOp::BrRI {
            op,
            fp,
            lhs,
            imm,
            target,
        } if lhs == k && target == at => (op, fp, imm),
        _ => return None,
    };
    Some(ArgmaxLoop {
        head: at,
        i,
        k,
        pulls,
        score,
        one,
        best_v,
        best_i,
        shl_imm,
        add_imm,
        off_pulls,
        off_wins,
        br_pulled,
        br_skip,
        br_back,
    })
}

/// Executes argmax iterations natively until the back edge falls
/// through or the next iteration might not fit before `end` (the
/// executed-instruction bound of the dispatch loop), handing the sink
/// exactly the records the interpreter would. Loads reach the sink in
/// execution order and faults land identically: completed records
/// emitted, `pc` on the faulting instruction, machine halted.
fn exec_argmax<S: Sink>(
    emu: &mut Emulator,
    sink: &mut S,
    sp: &ArgmaxLoop,
    end: u64,
) -> Result<(), EmuError> {
    let p0 = sp.head;
    let cond = |taken| {
        encode_branch(Some(BranchEvent {
            taken,
            kind: BranchEventKind::Conditional,
            is_prob: false,
        }))
    };
    let (taken_byte, not_byte) = (cond(true), cond(false));
    let jmp_byte = encode_branch(Some(BranchEvent {
        taken: true,
        kind: BranchEventKind::Unconditional,
        is_prob: false,
    }));
    loop {
        // head: shl, then the pulls load. A fault on the load emits
        // the completed shl record first, exactly like `exec_block`.
        {
            let regs = emu.regs_mut();
            regs[sp.i.index()] = alu_eval(AluOp::Shl, regs[sp.k.index()], sp.shl_imm);
        }
        let addr = match emu.load_checked(sp.pulls, sp.i, sp.off_pulls, p0 + 1) {
            Ok(a) => a,
            Err(e) => {
                sink.straight(1);
                emu.commit_straight(p0 + 1, 1);
                return Err(e);
            }
        };
        sink.load(addr);
        sink.straight(2);
        emu.commit_straight(p0 + 2, 2);
        // head+2: pulled test (forward branch: PBS no-op).
        let (op1, fp1, imm1) = sp.br_pulled;
        let pulled = emu.cmp_ri(op1, fp1, sp.pulls, imm1);
        emu.commit_term_branch(p0 + 2, p0 + 5, pulled);
        sink.branch(if pulled { taken_byte } else { not_byte });
        if pulled {
            // head+5..9: wins load, two itofs, fdiv — the shared
            // datapath expressions, in op order.
            let addr = emu.load_checked(sp.score, sp.i, sp.off_wins, p0 + 5)?;
            sink.load(addr);
            {
                let regs = emu.regs_mut();
                regs[sp.score.index()] = (regs[sp.score.index()] as i64 as f64).to_bits();
                regs[sp.pulls.index()] = (regs[sp.pulls.index()] as i64 as f64).to_bits();
                regs[sp.score.index()] = fp_bin_eval(
                    FpBinOp::Div,
                    f64::from_bits(regs[sp.score.index()]),
                    f64::from_bits(regs[sp.pulls.index()]),
                )
                .to_bits();
            }
            sink.straight(4);
            emu.commit_straight(p0 + 9, 4);
        } else {
            // head+3..5: optimistic score, jump to the compare.
            {
                let regs = emu.regs_mut();
                regs[sp.score.index()] = regs[sp.one.index()];
            }
            sink.straight(1);
            emu.commit_straight(p0 + 4, 1);
            emu.commit_term_branch(p0 + 4, p0 + 9, true);
            sink.branch(jmp_byte);
        }
        // head+9: skip-update test (forward branch: PBS no-op).
        let (op2, fp2) = sp.br_skip;
        let skip = emu.cmp_rr(op2, fp2, sp.score, sp.best_v);
        emu.commit_term_branch(p0 + 9, p0 + 12, skip);
        sink.branch(if skip { taken_byte } else { not_byte });
        if !skip {
            let regs = emu.regs_mut();
            regs[sp.best_v.index()] = regs[sp.score.index()];
            regs[sp.best_i.index()] = regs[sp.k.index()];
            sink.straight(2);
            emu.commit_straight(p0 + 12, 2);
        }
        // head+12: counter step.
        {
            let regs = emu.regs_mut();
            regs[sp.k.index()] = alu_eval(AluOp::Add, regs[sp.k.index()], sp.add_imm);
        }
        sink.straight(1);
        emu.commit_straight(p0 + 13, 1);
        // head+13: the back edge — the one branch PBS observes.
        let (op3, fp3, imm3) = sp.br_back;
        let again = emu.cmp_ri(op3, fp3, sp.k, imm3);
        emu.commit_term_branch(p0 + 13, p0, again);
        sink.branch(if again { taken_byte } else { not_byte });
        if !again || end - emu.executed() < ARGMAX_ITER_RECORDS {
            return Ok(());
        }
    }
}

impl TraceStream {
    /// Refills `chunk` with the next run of records (clearing it first)
    /// and pre-simulates their latencies. Returns `false` — with `chunk`
    /// left empty — once the machine has halted.
    ///
    /// The dispatch loop over the capture sink: execute a warm compiled
    /// block natively with bulk emission, and single-step everything
    /// else (cold blocks, rare ops, budget tails, mid-block resume
    /// points, and every pc of a program with no compiled blocks)
    /// through [`Emulator::step_decoded`].
    ///
    /// # Errors
    ///
    /// Propagates emulator faults, and returns
    /// [`EmuError::InstLimitExceeded`] at exactly the dynamic
    /// instruction where the reference engine would: when the dynamic
    /// instruction count reaches `max_insts` without a halt.
    pub fn fill(&mut self, chunk: &mut TraceChunk) -> Result<bool, EmuError> {
        chunk.clear();
        if self.halted {
            return Ok(false);
        }
        // Cooperative cancellation: one poll per chunk bounds how much
        // work a cancelled capture or convoy performs after the fact.
        crate::cancel::check_current()?;
        // Cap the chunk at the remaining instruction budget so the
        // limit trips at exactly the same dynamic instruction as the
        // reference engine (blocks never straddle the budget: the
        // dispatch loop falls back to single steps for the tail).
        let budget = (self.max_insts - self.emu.executed()).clamp(1, TRACE_CHUNK_RECORDS as u64);
        let TraceStream {
            emu,
            presim,
            timings,
            itouched,
            pcs_per_line,
            blocks,
            warm_blocks,
            ..
        } = self;
        let mut w = chunk.begin_fill(emu.pc(), emu.call_stack());
        // Every retired instruction is one record, so the chunk budget
        // ends the loop at `budget` more executed instructions.
        let end = emu.executed() + budget;
        let mut sink = CaptureSink {
            w: &mut w,
            presim,
            timings,
            itouched,
            pcs_per_line: *pcs_per_line,
            warm_blocks,
        };
        // Run the dispatch loop to completion or first error. The writer
        // counts records into the chunk as they come, so a fault leaves
        // it holding exactly the records emitted before it.
        let run = dispatch(emu, blocks, end, &mut sink);
        debug_assert_eq!(
            self.flow.derive(chunk, usize::MAX, &mut ()),
            Some(FlowState {
                pc: self.emu.pc(),
                stack: self.emu.call_stack().to_vec(),
            }),
            "a captured chunk's derived exit state is the emulator's"
        );
        run?;
        if chunk.is_empty() {
            self.halted = true;
            return Ok(false);
        }
        if self.emu.executed() >= self.max_insts {
            self.halted = true;
            return Err(EmuError::InstLimitExceeded {
                limit: self.max_insts,
            });
        }
        Ok(true)
    }
}

// --- native fragments ------------------------------------------------

/// Tries every fragment matcher at the head of `w`, longest first.
fn match_fragment(w: &[DecOp]) -> Option<(NativeFn, [u8; 6], u32)> {
    if let Some(args) = match_gauss_tail(w) {
        return Some((native_gauss_tail, args, 10));
    }
    if let Some(args) = match_next_f64(w) {
        return Some((native_next_f64, args, 10));
    }
    if let Some(args) = match_next_u64(w) {
        return Some((native_next_u64, args, 7));
    }
    if let Some(args) = match_f64_tail(w) {
        return Some((native_f64_tail, args, 3));
    }
    None
}

/// Matches the full 10-op `RngAsm::next_f64` — a `next_u64` whose
/// output register immediately runs the `[0,1)` tail — so the fused
/// native keeps the xorshift dataflow in host registers across the
/// conversion instead of paying two fragment dispatches. Returns
/// `[s, t, m, out, sc, 0]`.
fn match_next_f64(w: &[DecOp]) -> Option<[u8; 6]> {
    if w.len() < 10 {
        return None;
    }
    let head = match_next_u64(w)?;
    let tail = match_f64_tail(&w[7..])?;
    if tail[0] != head[3] {
        return None;
    }
    let [s, t, m, out, ..] = head;
    Some([s, t, m, out, tail[1], 0])
}

/// `args = [s, t, m, out, sc, _]`. The `next_u64` writes (in guest
/// order) followed by the tail's conversion — every read of `m`/`sc`
/// happens at the same point in the write sequence as in the guest, so
/// all aliasing cases land on the ten DecOps' final state.
fn native_next_f64(regs: &mut [u64; 32], args: [u8; 6]) {
    let [s, t, m, out, sc, _] = args.map(usize::from);
    let mut x = regs[s];
    x ^= x >> 12;
    x ^= x << 25;
    let last = x >> 27;
    x ^= last;
    regs[t] = last;
    regs[s] = x;
    regs[out] = x.wrapping_mul(regs[m]);
    let v = (regs[out] >> 11) as i64 as f64;
    regs[out] = (v * f64::from_bits(regs[sc])).to_bits();
}

/// Matches the 7-op xorshift64\* step the workload library inlines
/// (`RngAsm::next_u64`): `shr t,s,12; xor s,s,t; shl t,s,25;
/// xor s,s,t; shr t,s,27; xor s,s,t; mul out,s,m`. Register slots are
/// matched parametrically — any distinct `(s, t)` pair works, not just
/// the default r24/r27 block. Returns `[s, t, m, out, 0, 0]`.
fn match_next_u64(w: &[DecOp]) -> Option<[u8; 6]> {
    if w.len() < 7 {
        return None;
    }
    let (s, t) = match w[0] {
        DecOp::AluRI {
            op: AluOp::Shr,
            dst,
            src1,
            imm: 12,
        } if dst != src1 => (src1, dst),
        _ => return None,
    };
    let xor_sst = |op: DecOp| {
        matches!(op, DecOp::AluRR {
            op: AluOp::Xor,
            dst,
            src1,
            src2,
        } if dst == s && src1 == s && src2 == t)
    };
    if !xor_sst(w[1]) || !xor_sst(w[3]) || !xor_sst(w[5]) {
        return None;
    }
    match w[2] {
        DecOp::AluRI {
            op: AluOp::Shl,
            dst,
            src1,
            imm: 25,
        } if dst == t && src1 == s => {}
        _ => return None,
    }
    match w[4] {
        DecOp::AluRI {
            op: AluOp::Shr,
            dst,
            src1,
            imm: 27,
        } if dst == t && src1 == s => {}
        _ => return None,
    }
    let (out, m) = match w[6] {
        DecOp::AluRR {
            op: AluOp::Mul,
            dst,
            src1,
            src2,
        } if src1 == s => (dst, src2),
        _ => return None,
    };
    Some([
        s.index() as u8,
        t.index() as u8,
        m.index() as u8,
        out.index() as u8,
        0,
        0,
    ])
}

/// `args = [s, t, m, out, _, _]`. Writes `t`, `s`, `out` in the guest's
/// op order so every register-aliasing case lands on the same final
/// state as the seven DecOps.
fn native_next_u64(regs: &mut [u64; 32], args: [u8; 6]) {
    let [s, t, m, out, _, _] = args.map(usize::from);
    let mut x = regs[s];
    x ^= x >> 12;
    x ^= x << 25;
    let last = x >> 27;
    x ^= last;
    regs[t] = last;
    regs[s] = x;
    regs[out] = x.wrapping_mul(regs[m]);
}

/// Matches the 3-op `[0,1)` conversion tail (`RngAsm::next_f64` after
/// its `next_u64`): `shr o,o,11; itof o,o; fmul o,o,sc`. Returns
/// `[o, sc, 0, 0, 0, 0]`.
fn match_f64_tail(w: &[DecOp]) -> Option<[u8; 6]> {
    if w.len() < 3 {
        return None;
    }
    let o = match w[0] {
        DecOp::AluRI {
            op: AluOp::Shr,
            dst,
            src1,
            imm: 11,
        } if dst == src1 => dst,
        _ => return None,
    };
    match w[1] {
        DecOp::IntToFp { dst, src } if dst == o && src == o => {}
        _ => return None,
    }
    let sc = match w[2] {
        DecOp::FpBin {
            op: FpBinOp::Mul,
            dst,
            src1,
            src2,
        } if dst == o && src1 == o && src2 != o => src2,
        _ => return None,
    };
    Some([o.index() as u8, sc.index() as u8, 0, 0, 0, 0])
}

/// `args = [o, sc, _, _, _, _]`. Same `u64 → i64 → f64` conversion and
/// multiply as the `IntToFp`/`FpBin` datapaths.
fn native_f64_tail(regs: &mut [u64; 32], args: [u8; 6]) {
    let o = args[0] as usize;
    let sc = args[1] as usize;
    let v = (regs[o] >> 11) as i64 as f64;
    regs[o] = (v * f64::from_bits(regs[sc])).to_bits();
}

/// Matches the 10-op Box–Muller tail (`RngAsm::next_gauss_pair` after
/// its two `next_f64`s): `fln t1,t1; lif z1,-2; fmul t1,t1,z1;
/// fsqrt t1,t1; lif z1,2π; fmul t2,t2,z1; fcos z0,t2; fmul z0,t1,z0;
/// fsin z1,t2; fmul z1,t1,z1`. Returns `[z0, z1, t1, t2, 0, 0]`.
fn match_gauss_tail(w: &[DecOp]) -> Option<[u8; 6]> {
    if w.len() < 10 {
        return None;
    }
    let neg_two = (-2.0f64).to_bits();
    let two_pi = (2.0 * std::f64::consts::PI).to_bits();
    let t1 = match w[0] {
        DecOp::FpUn {
            op: FpUnOp::Ln,
            dst,
            src,
        } if dst == src => dst,
        _ => return None,
    };
    let z1 = match w[1] {
        DecOp::Li { dst, imm } if imm == neg_two && dst != t1 => dst,
        _ => return None,
    };
    match w[2] {
        DecOp::FpBin {
            op: FpBinOp::Mul,
            dst,
            src1,
            src2,
        } if dst == t1 && src1 == t1 && src2 == z1 => {}
        _ => return None,
    }
    match w[3] {
        DecOp::FpUn {
            op: FpUnOp::Sqrt,
            dst,
            src,
        } if dst == t1 && src == t1 => {}
        _ => return None,
    }
    match w[4] {
        DecOp::Li { dst, imm } if dst == z1 && imm == two_pi => {}
        _ => return None,
    }
    let t2 = match w[5] {
        DecOp::FpBin {
            op: FpBinOp::Mul,
            dst,
            src1,
            src2,
        } if dst == src1 && src2 == z1 && dst != t1 && dst != z1 => dst,
        _ => return None,
    };
    let z0 = match w[6] {
        DecOp::FpUn {
            op: FpUnOp::Cos,
            dst,
            src,
        } if src == t2 && dst != t1 && dst != t2 && dst != z1 => dst,
        _ => return None,
    };
    match w[7] {
        DecOp::FpBin {
            op: FpBinOp::Mul,
            dst,
            src1,
            src2,
        } if dst == z0 && src1 == t1 && src2 == z0 => {}
        _ => return None,
    }
    match w[8] {
        DecOp::FpUn {
            op: FpUnOp::Sin,
            dst,
            src,
        } if dst == z1 && src == t2 => {}
        _ => return None,
    }
    match w[9] {
        DecOp::FpBin {
            op: FpBinOp::Mul,
            dst,
            src1,
            src2,
        } if dst == z1 && src1 == t1 && src2 == z1 => {}
        _ => return None,
    }
    Some([
        z0.index() as u8,
        z1.index() as u8,
        t1.index() as u8,
        t2.index() as u8,
        0,
        0,
    ])
}

/// `args = [z0, z1, t1, t2, _, _]`. Uses the same `f64` operations
/// (`ln`/`sqrt`/`cos`/`sin`, IEEE multiplies) in the same order as the
/// ten DecOps, so the results are bit-identical; final register state
/// matches the guest's write order (`t1 = r`, `t2 = θ`, `z0 = r·cosθ`,
/// `z1 = r·sinθ`).
fn native_gauss_tail(regs: &mut [u64; 32], args: [u8; 6]) {
    let [z0, z1, t1, t2, _, _] = args.map(usize::from);
    let r = (f64::from_bits(regs[t1]).ln() * -2.0).sqrt();
    let theta = f64::from_bits(regs[t2]) * (2.0 * std::f64::consts::PI);
    regs[t1] = r.to_bits();
    regs[t2] = theta.to_bits();
    regs[z0] = (r * theta.cos()).to_bits();
    regs[z1] = (r * theta.sin()).to_bits();
}

#[cfg(test)]
mod tests {
    use super::*;
    use probranch_isa::{ProgramBuilder, Reg};

    fn decode(build: impl FnOnce(&mut ProgramBuilder)) -> DecodedProgram {
        let mut b = ProgramBuilder::new();
        build(&mut b);
        DecodedProgram::of(&b.build().unwrap())
    }

    #[test]
    fn straight_line_program_compiles_to_one_block() {
        let d = decode(|b| {
            b.li(Reg::R1, 1);
            b.li(Reg::R2, 2);
            b.add(Reg::R3, Reg::R1, Reg::R2);
            b.halt();
        });
        let p = BlockProgram::compile(&d);
        assert_eq!(p.compiled_blocks(), 1);
        let b = p.at(0).unwrap();
        assert_eq!(b.body_len, 3);
        assert!(b.term.is_none(), "halt single-steps");
        assert!(p.at(3).is_none());
        assert!(!p.has_native());
    }

    #[test]
    fn rare_ops_split_blocks_and_stay_uncompiled() {
        let d = decode(|b| {
            b.li(Reg::R1, 7);
            b.out(Reg::R1, 0);
            b.li(Reg::R2, 8);
            b.halt();
        });
        let p = BlockProgram::compile(&d);
        // [li] | out | [li] | halt (rare ops single-step)
        assert_eq!(p.compiled_blocks(), 2);
        assert!(p.at(0).is_some());
        assert!(p.at(1).is_none());
        assert!(p.at(2).is_some());
        assert!(p.at(3).is_none());
        assert!(p.at(0).unwrap().term.is_none());
        assert!(p.at(2).unwrap().term.is_none());
    }

    #[test]
    fn branch_targets_become_leaders() {
        let d = decode(|b| {
            let top = b.label("top");
            b.li(Reg::R1, 0);
            b.bind(top);
            b.add(Reg::R1, Reg::R1, 1);
            b.br(probranch_isa::CmpOp::Lt, Reg::R1, 10, top);
            b.halt();
        });
        let p = BlockProgram::compile(&d);
        // [li] | [add] br | halt (rare: single-stepped)
        assert_eq!(p.compiled_blocks(), 2);
        let head = p.at(0).unwrap();
        assert_eq!(head.body_len, 1);
        assert!(head.term.is_none(), "body splits at the loop-top leader");
        let body = p.at(1).unwrap();
        assert_eq!(body.body_len, 1);
        assert!(
            matches!(body.term, Some(DecOp::BrRI { .. })),
            "back-edge branch executes inline"
        );
        assert!(p.at(3).is_none());
    }

    #[test]
    fn control_leaders_compile_terminator_only_blocks() {
        let d = decode(|b| {
            let skip = b.label("skip");
            b.li(Reg::R1, 0);
            b.br(probranch_isa::CmpOp::Eq, Reg::R1, 0, skip);
            b.bind(skip);
            b.jmp(skip);
            b.halt();
        });
        let p = BlockProgram::compile(&d);
        let tail = p.at(2).unwrap();
        assert_eq!(tail.body_len, 0, "lone control op compiles bodyless");
        assert!(matches!(tail.term, Some(DecOp::Jmp { target: 2 })));
    }

    #[test]
    fn rng_fragments_match_in_workload_blocks() {
        // The workloads crate is not a dependency of the pipeline, so
        // the asmlib xorshift sequence is rebuilt by hand here.
        fn rng_block(b: &mut ProgramBuilder, out: Reg) {
            let (s, m, t) = (Reg::R24, Reg::R25, Reg::R27);
            b.shr(t, s, 12).xor(s, s, t);
            b.shl(t, s, 25).xor(s, s, t);
            b.shr(t, s, 27).xor(s, s, t);
            b.mul(out, s, m);
        }
        let d = decode(|b| {
            b.li(Reg::R24, 12345);
            b.li(Reg::R25, 99);
            rng_block(b, Reg::R2);
            b.halt();
        });
        let p = BlockProgram::compile(&d);
        assert!(p.has_native(), "xorshift fragment should match");
    }
}
