//! The block-compiled capture engine: trace capture above interpreter
//! speed.
//!
//! Capture cost used to be one [`Emulator::step_decoded`] call — fetch,
//! dispatch, record construction, per-record cache bookkeeping — per
//! dynamic instruction. This module compiles the predecoded program
//! into **basic blocks** once per emulation key and executes each block
//! as a specialized straight-line step function:
//!
//! * the body (every non-control op up to the block's terminator) runs
//!   branch-free against the architectural state, with no per-op pc or
//!   retired-counter bookkeeping — one [`Emulator::commit_straight`]
//!   per block;
//! * body records bulk-append into the SoA [`TraceChunk`] packer as one
//!   consecutive-pc span through a pre-sized cursor writer
//!   (`TraceChunk::begin_fill`) instead of per-record pushes: zero
//!   istalls (see the warmth rule below), zero branch bytes, and dlats
//!   patched in from the loads the body actually executed;
//! * the terminator (branch/call/ret/halt/`PROB_JMP`) and every *rare*
//!   op (PBS probes, `out`) fall back to `step_decoded`, so branch
//!   events, PBS observation, call-stack faults and probabilistic
//!   resolution reuse the interpreter's code paths verbatim;
//! * on top, **fragment-matched native specializations** (the
//!   `generated` tier): the workload library's inline RNG sequences —
//!   the xorshift64\* step, the `[0,1)` conversion, the Box–Muller
//!   tail — are structurally pattern-matched at block-build time and
//!   executed as straight-line host Rust, bit-identical to the op
//!   datapath (same `f64` operations in the same order);
//! * above blocks, **whole-loop specializations** ([`ArgmaxLoop`]):
//!   hot inner loops that the block engine would chop into several
//!   tiny blocks per iteration are fingerprinted at compile time and
//!   executed iteration-at-a-time as native Rust, emitting the same
//!   records, branch bytes, PBS observations and fault behavior
//!   through the same cursor writer.
//!
//! # Warmth rule (byte-identity of the fast path)
//!
//! The bulk path writes `istall = 0` for every body record, which is
//! only correct when each body line is already resident in the L1-I.
//! The engine therefore executes a block through the interpreter until
//! every line the body spans is marked in [`TraceStream::itouched`]
//! (first touches walk the hierarchy and insert into the shared L2,
//! exactly as the interpreter would), and only then engages the bulk
//! path. Programs too large for the `itouched` regime never compile —
//! they stay on the interpreter tier.
//!
//! # Faults and limits
//!
//! A memory fault at body index `k` emits the `k` completed records,
//! commits `pc`/`executed` to the faulting instruction and halts —
//! indistinguishable from `k` interpreter steps followed by the same
//! fault. Blocks only execute when the chunk budget covers the whole
//! block, so `InstLimitExceeded` trips at exactly the same dynamic
//! instruction as the interpreter. Long block runs poll the
//! cancellation token every [`CANCEL_STRIDE`](crate::cancel::CANCEL_STRIDE)
//! instructions, same as the reference engine.
//!
//! # Tier selection
//!
//! [`CaptureTier`] pick order: a per-thread override
//! ([`with_capture_tier`], for equivalence tests) beats the
//! `PROBRANCH_CAPTURE` environment variable
//! (`auto`/`generated`/`block`/`interp`, read once) beats the default
//! (`generated`). The `capture.block` failpoint degrades a block-tier
//! capture to the interpreter at `TraceStream` construction — torture
//! runs prove the degradation is byte-invisible.

use std::cell::Cell;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

use probranch_isa::{AluOp, CmpOp, FpBinOp, FpUnOp, Reg};

use crate::cache::MemoryHierarchy;
use crate::cancel::CANCEL_STRIDE;
use crate::decode::{DecOp, DecodedProgram, InstTiming};
use crate::machine::{alu_eval, fp_bin_eval, BranchEvent, BranchEventKind, EmuError, Emulator};
use crate::trace::{
    encode_branch, record_costs, ChunkWriter, TraceChunk, TraceStream, TRACE_CHUNK_RECORDS,
};

/// How trace capture executes the guest program.
///
/// Every tier is byte-identical — same chunks, same errors at the same
/// dynamic instruction, same architectural results — locked by the
/// capture-tier proptests and the CI engine-diff matrix. Tiers differ
/// only in speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaptureTier {
    /// Block-compiled execution with fragment-matched native
    /// specializations for the workload RNG sequences (the default and
    /// fastest tier).
    Generated,
    /// Block-compiled execution without native fragments.
    Block,
    /// The per-instruction decoded interpreter.
    Interp,
}

impl CaptureTier {
    /// The tier's name, as `PROBRANCH_CAPTURE` spells it:
    /// `generated`/`block`/`interp`.
    pub fn tag(self) -> &'static str {
        match self {
            CaptureTier::Generated => "generated",
            CaptureTier::Block => "block",
            CaptureTier::Interp => "interp",
        }
    }
}

fn env_tier() -> CaptureTier {
    static TIER: OnceLock<CaptureTier> = OnceLock::new();
    *TIER.get_or_init(|| match std::env::var("PROBRANCH_CAPTURE") {
        Err(_) => CaptureTier::Generated,
        Ok(v) => match v.as_str() {
            "" | "auto" | "generated" => CaptureTier::Generated,
            "block" => CaptureTier::Block,
            "interp" => CaptureTier::Interp,
            other => panic!("PROBRANCH_CAPTURE must be auto|generated|block|interp, got {other:?}"),
        },
    })
}

thread_local! {
    static FORCED_TIER: Cell<Option<CaptureTier>> = const { Cell::new(None) };
}

/// Runs `f` with the capture tier forced to `tier` on this thread —
/// the hook the tier-equivalence tests use to capture the same key
/// under every tier regardless of environment. Restores the previous
/// override on exit (including on panic/early return).
pub fn with_capture_tier<R>(tier: CaptureTier, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<CaptureTier>);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCED_TIER.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(FORCED_TIER.with(|c| c.replace(Some(tier))));
    f()
}

/// The tier new [`TraceStream`]s select blocks under (thread override,
/// else environment, else `Generated`).
pub(crate) fn selected_tier() -> CaptureTier {
    FORCED_TIER.with(|c| c.get()).unwrap_or_else(env_tier)
}

// --- capture/drain overlap switch -----------------------------------

/// 0 = unset (default on), 1 = forced on, 2 = forced off.
static OVERLAP: AtomicU8 = AtomicU8::new(0);

/// Enables or disables the chunk-pipelined capture/drain overlap for
/// convoy runs (capture chunk `N+1` on a helper thread while consumers
/// drain chunk `N`). A caller running convoys on one worker passes
/// `false` to keep to the serial fill loop. The
/// `PROBRANCH_CAPTURE_OVERLAP` environment variable (`0`/`1`), read
/// once, wins over this switch — that is how CI runs the serial loop
/// through the engine-equivalence suite.
pub fn set_capture_overlap(enabled: bool) {
    OVERLAP.store(if enabled { 1 } else { 2 }, Ordering::Relaxed);
}

/// Whether convoy capture currently overlaps capture and drain (see
/// [`set_capture_overlap`]).
pub fn capture_overlap() -> bool {
    static ENV: OnceLock<Option<bool>> = OnceLock::new();
    let env = *ENV.get_or_init(|| match std::env::var("PROBRANCH_CAPTURE_OVERLAP") {
        Err(_) => None,
        Ok(v) => match v.as_str() {
            "" => None,
            "0" | "off" | "serial" => Some(false),
            "1" | "on" | "pipelined" => Some(true),
            other => panic!("PROBRANCH_CAPTURE_OVERLAP must be 0 or 1, got {other:?}"),
        },
    });
    if let Some(forced) = env {
        return forced;
    }
    OVERLAP.load(Ordering::Relaxed) != 2
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

/// A block terminator, predecoded at block-build time.
///
/// Direct branches (`jf`, the fused compare-and-branches, `jmp`) and
/// the call-stack pair (`call`/`ret`) execute inline on the warm path:
/// the condition/stack datapath, the pc redirect, the PBS history
/// observation and one packed branch record — skipping the
/// interpreter's fetch/dispatch/record round trip, which dominates
/// capture time on branchy kernels whose blocks are only a few ops
/// long. Terminators with side effects beyond that (probabilistic
/// resolution, halt) stay on [`Emulator::step_decoded`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Term {
    /// `jf target` — conditional on the flag register.
    Jf {
        /// Taken-path pc.
        target: u32,
    },
    /// Fused register-register compare-and-branch.
    BrRR {
        /// Comparison operator.
        op: CmpOp,
        /// Whether the compare is over `f64` bit patterns.
        fp: bool,
        /// Left operand register.
        lhs: Reg,
        /// Right operand register.
        rhs: Reg,
        /// Taken-path pc.
        target: u32,
    },
    /// Fused register-immediate compare-and-branch.
    BrRI {
        /// Comparison operator.
        op: CmpOp,
        /// Whether the compare is over `f64` bit patterns.
        fp: bool,
        /// Left operand register.
        lhs: Reg,
        /// Immediate right operand (bit pattern).
        imm: u64,
        /// Taken-path pc.
        target: u32,
    },
    /// Direct unconditional jump.
    Jmp {
        /// Target pc.
        target: u32,
    },
    /// Direct call: stack push + redirect, with the overflow fault
    /// handled inline.
    Call {
        /// Callee entry pc.
        target: u32,
    },
    /// Return: stack pop + redirect, with the underflow fault handled
    /// inline.
    Ret,
    /// `PROB_JMP`: probabilistic resolution inline
    /// ([`Emulator::commit_term_prob`] — the shared resolution path,
    /// minus the interpreter round trip).
    Prob {
        /// Last probability register to push, when the short form
        /// carries one.
        prob: Option<Reg>,
        /// Taken-path pc.
        target: u32,
    },
    /// `halt`: executed via `step_decoded`.
    Other,
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
    /// The control-op terminator following the body, predecoded;
    /// `None` when the block ends at a leader or rare-op boundary
    /// instead.
    pub(crate) term: Option<Term>,
    /// A whole-loop specialization headed at this block's leader, when
    /// the fingerprint matched (`generated` tier only).
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
/// plus the compiled blocks, built once per emulation key.
#[derive(Debug)]
pub(crate) struct BlockProgram {
    blocks: Vec<CompiledBlock>,
    /// pc → index into `blocks` for compiled leaders (non-empty body
    /// or a lone terminator),
    /// [`NO_BLOCK`] everywhere else.
    index: Vec<u32>,
}

/// Control ops terminate a block and execute via `step_decoded` (branch
/// events, PBS observation, call-stack faults, prob resolution, halt).
fn is_control(op: &DecOp) -> bool {
    matches!(
        op,
        DecOp::Jf { .. }
            | DecOp::BrRR { .. }
            | DecOp::BrRI { .. }
            | DecOp::Jmp { .. }
            | DecOp::Call { .. }
            | DecOp::Ret
            | DecOp::ProbJmp { .. }
            | DecOp::Halt
    )
}

/// Rare ops the block engine leaves to the interpreter: output writes
/// only. A body ends before one; the pc after it is a fresh leader, so
/// only the rare op itself single-steps. The PBS probes (`prob_cmp`,
/// `prob_jmp_push`/`quiet`) are straight-line from the trace's point
/// of view and execute inside block bodies via `exec_straight_op` —
/// every paper kernel has one in its hot loop, and splitting there
/// would cost two dispatch round trips per iteration.
fn is_rare(op: &DecOp) -> bool {
    matches!(op, DecOp::Out { .. })
}

/// Predecodes a control op into its [`Term`] form.
fn lower_term(op: &DecOp) -> Term {
    match *op {
        DecOp::Jf { target } => Term::Jf { target },
        DecOp::BrRR {
            op,
            fp,
            lhs,
            rhs,
            target,
        } => Term::BrRR {
            op,
            fp,
            lhs,
            rhs,
            target,
        },
        DecOp::BrRI {
            op,
            fp,
            lhs,
            imm,
            target,
        } => Term::BrRI {
            op,
            fp,
            lhs,
            imm,
            target,
        },
        DecOp::Jmp { target } => Term::Jmp { target },
        DecOp::Call { target } => Term::Call { target },
        DecOp::Ret => Term::Ret,
        DecOp::ProbJmp { prob, target } => Term::Prob { prob, target },
        _ => Term::Other,
    }
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
    /// Extracts and compiles the basic blocks of `decoded`. Leaders are
    /// the entry, every branch/call target, and the pc after every
    /// control or rare op; a body extends from its leader to the next
    /// control op (terminator), rare op, leader or program end.
    /// `allow_native` additionally pattern-matches the workload RNG
    /// fragments (the `generated` tier).
    pub(crate) fn compile(decoded: &DecodedProgram, allow_native: bool) -> BlockProgram {
        let insts = decoded.insts();
        let n = insts.len();
        let mut leader = vec![false; n];
        if n > 0 {
            leader[0] = true;
        }
        for (pc, d) in insts.iter().enumerate() {
            if is_control(&d.op) {
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
                if is_control(op) {
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
                // it still executes inline instead of paying a full
                // `step_decoded` round trip. Rare ops stay
                // single-stepped.
                if has_term {
                    index[start] = blocks.len() as u32;
                    blocks.push(CompiledBlock {
                        start_pc: start as u32,
                        body: Vec::new(),
                        body_len: 0,
                        term: Some(lower_term(&insts[end].op)),
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
                if allow_native {
                    if let Some((fun, args, len)) = match_fragment(&ops[i..]) {
                        body.push(BodyStep::Native { fun, args, len });
                        i += len as usize;
                        continue;
                    }
                }
                body.push(BodyStep::Op(ops[i]));
                i += 1;
            }
            index[start] = blocks.len() as u32;
            blocks.push(CompiledBlock {
                start_pc: start as u32,
                body,
                body_len: (end - start) as u32,
                term: has_term.then(|| lower_term(&insts[end].op)),
                spec: None,
            });
            start = end;
        }
        if allow_native {
            // Whole-loop fingerprints attach to the loop-head leader's
            // block; the loop's interior blocks stay compiled as-is so
            // mid-loop resume points (budget tails, post-fault pcs)
            // still dispatch generically.
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

// --- block execution -------------------------------------------------

/// Whether every L1-I line the block spans — body plus terminator, when
/// one follows — has been touched: the precondition for the zero-istall
/// bulk path *and* for the inline terminator record, whose `istall = 0`
/// is only what `pack_record` would produce once the line is resident.
#[inline(always)]
fn block_warm(itouched: &[bool], pcs_per_line: usize, b: &CompiledBlock) -> bool {
    debug_assert!(b.records() > 0);
    let l0 = b.start_pc as usize / pcs_per_line;
    let last_pc = b.start_pc + b.body_len + b.term.is_some() as u32 - 1;
    let l1 = last_pc as usize / pcs_per_line;
    itouched[l0..=l1].iter().all(|&t| t)
}

/// Executes one warm block: native body, bulk record emission, then
/// the terminator through the interpreter. Returns the records
/// emitted.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn exec_block(
    emu: &mut Emulator,
    presim: &mut MemoryHierarchy,
    timings: &[InstTiming],
    itouched: &mut [bool],
    pcs_per_line: usize,
    w: &mut ChunkWriter,
    b: &CompiledBlock,
    dlats: &mut Vec<(u32, u8)>,
) -> Result<u64, EmuError> {
    dlats.clear();
    let start = b.start_pc;
    let mut done: u32 = 0;
    for step in &b.body {
        match step {
            BodyStep::Op(op) => match emu.exec_straight_op(*op, start + done) {
                Ok(Some(addr)) => {
                    // Loads pre-simulate their data access in execution
                    // order, exactly as the interpreter tier would; the
                    // latency is patched into the bulk span below.
                    let dlat = presim.data_access(addr);
                    debug_assert!(dlat <= u8::MAX as u64);
                    dlats.push((done, dlat as u8));
                    done += 1;
                }
                Ok(None) => done += 1,
                Err(e) => {
                    // Fault at body index `done`: emit the completed
                    // records and land the machine on the faulting
                    // instruction — indistinguishable from `done`
                    // interpreter steps followed by the same fault.
                    w.emit_straight(start, done, dlats);
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
    w.emit_straight(start, done, dlats);
    emu.commit_straight(start + done, done as u64);
    let Some(term) = b.term else {
        return Ok(done as u64);
    };
    let pc = start + done;
    // Direct branch terminators execute inline: condition datapath, pc
    // redirect, PBS observation, one packed record. The terminator's
    // line is covered by the warmth precondition (`istall = 0`, exactly
    // what `pack_record` would compute for a resident line) and a
    // branch is never a load (`dlat = 0`).
    let (target, taken, kind) = match term {
        Term::Jf { target } => (target, emu.flag(), BranchEventKind::Conditional),
        Term::BrRR {
            op,
            fp,
            lhs,
            rhs,
            target,
        } => (
            target,
            emu.cmp_rr(op, fp, lhs, rhs),
            BranchEventKind::Conditional,
        ),
        Term::BrRI {
            op,
            fp,
            lhs,
            imm,
            target,
        } => (
            target,
            emu.cmp_ri(op, fp, lhs, imm),
            BranchEventKind::Conditional,
        ),
        Term::Jmp { target } => (target, true, BranchEventKind::Unconditional),
        Term::Call { target } => {
            // Stack push + redirect; an overflow fault lands after the
            // body records, exactly like the interpreter's.
            emu.commit_term_call(pc, target)?;
            let byte = encode_branch(Some(BranchEvent {
                taken: true,
                kind: BranchEventKind::Call,
                is_prob: false,
            }));
            w.emit_record(pc, byte, 0, 0);
            return Ok(done as u64 + 1);
        }
        Term::Ret => {
            emu.commit_term_ret(pc)?;
            let byte = encode_branch(Some(BranchEvent {
                taken: true,
                kind: BranchEventKind::Ret,
                is_prob: false,
            }));
            w.emit_record(pc, byte, 0, 0);
            return Ok(done as u64 + 1);
        }
        Term::Prob { prob, target } => {
            // Probabilistic resolution through the shared path
            // (`resolve_prob_jump`), committed inline: every paper
            // kernel crosses one per hot-loop iteration, and the
            // interpreter round trip it used to pay is pure dispatch
            // overhead on top of the resolution itself.
            let (taken, kind) = emu.commit_term_prob(prob, pc, target);
            let byte = encode_branch(Some(BranchEvent {
                taken,
                kind,
                is_prob: true,
            }));
            w.emit_record(pc, byte, 0, 0);
            return Ok(done as u64 + 1);
        }
        Term::Other => {
            // `halt`: one interpreter step through the shared record
            // path.
            let rec = emu
                .step_decoded()?
                .expect("machine cannot be halted at a block terminator");
            let (istall, dlat) = record_costs(presim, timings, itouched, pcs_per_line, &rec);
            w.emit_record(rec.pc, encode_branch(rec.branch), istall, dlat);
            return Ok(done as u64 + 1);
        }
    };
    emu.commit_term_branch(pc, target, taken);
    let byte = encode_branch(Some(BranchEvent {
        taken,
        kind,
        is_prob: false,
    }));
    w.emit_record(pc, byte, 0, 0);
    Ok(done as u64 + 1)
}

// --- whole-loop specializations --------------------------------------

/// Static length of the argmax loop fingerprint in guest instructions.
const ARGMAX_LEN: usize = 14;

/// Most records one argmax iteration emits (an already-pulled arm that
/// improves the running best: `2 + 1 + 4 + 1 + 2 + 1 + 1`).
const ARGMAX_ITER_RECORDS: u64 = 12;

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
/// The block engine chops one iteration into four tiny blocks, and
/// `head+9` — a jump target that is itself a control op — never
/// compiles at all, so the unpulled path pays a full `step_decoded`
/// per iteration. [`exec_argmax`] runs whole iterations as native
/// Rust instead: same datapath functions, same record/branch-byte
/// emission through the cursor writer, same PBS observations (the
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

/// Whether every L1-I line the whole loop spans is resident — the
/// zero-istall precondition for [`exec_argmax`], which covers all
/// fourteen pcs, not just the head block.
#[inline(always)]
fn argmax_warm(itouched: &[bool], pcs_per_line: usize, head: u32) -> bool {
    let l0 = head as usize / pcs_per_line;
    let l1 = (head as usize + ARGMAX_LEN - 1) / pcs_per_line;
    itouched[l0..=l1].iter().all(|&t| t)
}

/// Executes argmax iterations natively until the back edge falls
/// through or the next iteration might not fit `budget`, emitting
/// exactly the records the interpreter would. Loads pre-simulate in
/// execution order and faults land identically: completed records
/// emitted, `pc` on the faulting instruction, machine halted.
fn exec_argmax(
    emu: &mut Emulator,
    presim: &mut MemoryHierarchy,
    w: &mut ChunkWriter,
    sp: &ArgmaxLoop,
    budget: u64,
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
                w.emit_straight(p0, 1, &[]);
                emu.commit_straight(p0 + 1, 1);
                return Err(e);
            }
        };
        let dlat = presim.data_access(addr);
        debug_assert!(dlat <= u8::MAX as u64);
        w.emit_straight(p0, 2, &[(1, dlat as u8)]);
        emu.commit_straight(p0 + 2, 2);
        // head+2: pulled test (forward branch: PBS no-op).
        let (op1, fp1, imm1) = sp.br_pulled;
        let pulled = emu.cmp_ri(op1, fp1, sp.pulls, imm1);
        emu.commit_term_branch(p0 + 2, p0 + 5, pulled);
        w.emit_record(p0 + 2, if pulled { taken_byte } else { not_byte }, 0, 0);
        if pulled {
            // head+5..9: wins load, two itofs, fdiv — the shared
            // datapath expressions, in op order.
            let addr = emu.load_checked(sp.score, sp.i, sp.off_wins, p0 + 5)?;
            let dlat = presim.data_access(addr);
            debug_assert!(dlat <= u8::MAX as u64);
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
            w.emit_straight(p0 + 5, 4, &[(0, dlat as u8)]);
            emu.commit_straight(p0 + 9, 4);
        } else {
            // head+3..5: optimistic score, jump to the compare.
            {
                let regs = emu.regs_mut();
                regs[sp.score.index()] = regs[sp.one.index()];
            }
            w.emit_straight(p0 + 3, 1, &[]);
            emu.commit_straight(p0 + 4, 1);
            emu.commit_term_branch(p0 + 4, p0 + 9, true);
            w.emit_record(p0 + 4, jmp_byte, 0, 0);
        }
        // head+9: skip-update test (forward branch: PBS no-op).
        let (op2, fp2) = sp.br_skip;
        let skip = emu.cmp_rr(op2, fp2, sp.score, sp.best_v);
        emu.commit_term_branch(p0 + 9, p0 + 12, skip);
        w.emit_record(p0 + 9, if skip { taken_byte } else { not_byte }, 0, 0);
        if !skip {
            let regs = emu.regs_mut();
            regs[sp.best_v.index()] = regs[sp.score.index()];
            regs[sp.best_i.index()] = regs[sp.k.index()];
            w.emit_straight(p0 + 10, 2, &[]);
            emu.commit_straight(p0 + 12, 2);
        }
        // head+12: counter step.
        {
            let regs = emu.regs_mut();
            regs[sp.k.index()] = alu_eval(AluOp::Add, regs[sp.k.index()], sp.add_imm);
        }
        w.emit_straight(p0 + 12, 1, &[]);
        emu.commit_straight(p0 + 13, 1);
        // head+13: the back edge — the one branch PBS observes.
        let (op3, fp3, imm3) = sp.br_back;
        let again = emu.cmp_ri(op3, fp3, sp.k, imm3);
        emu.commit_term_branch(p0 + 13, p0, again);
        w.emit_record(p0 + 13, if again { taken_byte } else { not_byte }, 0, 0);
        if !again || budget - w.written() < ARGMAX_ITER_RECORDS {
            return Ok(());
        }
    }
}

impl TraceStream {
    /// The block-compiled tier of [`fill`](TraceStream::fill): dispatch
    /// on the pc, execute warm blocks natively with bulk emission, and
    /// single-step everything else (cold blocks, rare ops, budget
    /// tails, mid-block resume points) through the interpreter.
    pub(crate) fn fill_block(&mut self, chunk: &mut TraceChunk) -> Result<bool, EmuError> {
        chunk.clear();
        if self.halted {
            return Ok(false);
        }
        crate::cancel::check_current()?;
        // Cap the chunk at the remaining instruction budget so the
        // limit trips at exactly the same dynamic instruction as the
        // interpreter tier (blocks never straddle the budget: the
        // dispatch below falls back to single steps for the tail).
        let budget = (self.max_insts - self.executed).clamp(1, TRACE_CHUNK_RECORDS as u64);
        // The 64 Ki-instruction cancellation stride,
        // threaded through block execution so `--cell-deadline-ms`
        // cancels long captures promptly even if chunks ever outgrow
        // the stride.
        let mut next_poll = CANCEL_STRIDE;
        let TraceStream {
            emu,
            presim,
            timings,
            itouched,
            pcs_per_line,
            blocks,
            warm_blocks,
            dlat_scratch,
            ..
        } = self;
        let blocks = blocks
            .as_ref()
            .expect("fill_block requires compiled blocks");
        let pcs_per_line = *pcs_per_line;
        let mut w = chunk.begin_fill(budget as usize);
        // Run the dispatch loop to completion or first error, then trim
        // the pre-sized streams either way — a fault must leave the
        // chunk holding exactly the records emitted before it.
        let run = (|| -> Result<(), EmuError> {
            while w.written() < budget && !emu.is_halted() {
                if w.written() >= next_poll {
                    crate::cancel::check_current()?;
                    next_poll = w.written() + CANCEL_STRIDE;
                }
                if let Some(i) = blocks.idx_at(emu.pc()) {
                    let b = blocks.block(i);
                    // Warmth is monotonic (`itouched` lines are only
                    // ever set), so a block found warm once is warm
                    // forever — cache the verdict and skip the line
                    // scan.
                    let warm = warm_blocks[i] || {
                        let v = block_warm(itouched, pcs_per_line, b);
                        warm_blocks[i] = v;
                        v
                    };
                    if let Some(sp) = warm.then_some(()).and(b.spec.as_ref()) {
                        // Whole-loop fast path: needs its own budget
                        // headroom (one full iteration) and warmth over
                        // all fourteen lines, not just the head block.
                        if budget - w.written() >= ARGMAX_ITER_RECORDS
                            && argmax_warm(itouched, pcs_per_line, sp.head)
                        {
                            exec_argmax(emu, presim, &mut w, sp, budget)?;
                            continue;
                        }
                    }
                    if warm && b.records() <= budget - w.written() {
                        exec_block(
                            emu,
                            presim,
                            timings,
                            itouched,
                            pcs_per_line,
                            &mut w,
                            b,
                            dlat_scratch,
                        )?;
                        continue;
                    }
                }
                match emu.step_decoded()? {
                    Some(rec) => {
                        let (istall, dlat) =
                            record_costs(presim, timings, itouched, pcs_per_line, &rec);
                        w.emit_record(rec.pc, encode_branch(rec.branch), istall, dlat);
                    }
                    None => break,
                }
            }
            Ok(())
        })();
        let emitted = w.written();
        let (written, open_run) = w.finish();
        chunk.end_fill(written, open_run);
        run?;
        if emitted == 0 {
            self.halted = true;
            return Ok(false);
        }
        self.executed += emitted;
        if self.executed >= self.max_insts {
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
        let p = BlockProgram::compile(&d, true);
        assert_eq!(p.compiled_blocks(), 1);
        let b = p.at(0).unwrap();
        assert_eq!(b.body_len, 3);
        assert!(matches!(b.term, Some(Term::Other)), "halt terminator");
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
        let p = BlockProgram::compile(&d, true);
        // [li] | out (rare, single-stepped) | [li] halt
        assert_eq!(p.compiled_blocks(), 2);
        assert!(p.at(0).is_some());
        assert!(p.at(1).is_none());
        assert!(p.at(2).is_some());
        assert!(p.at(0).unwrap().term.is_none());
        assert!(p.at(2).unwrap().term.is_some());
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
        let p = BlockProgram::compile(&d, true);
        // [li] | [add] br | halt (control leader: terminator-only)
        assert_eq!(p.compiled_blocks(), 3);
        let head = p.at(0).unwrap();
        assert_eq!(head.body_len, 1);
        assert!(head.term.is_none(), "body splits at the loop-top leader");
        let body = p.at(1).unwrap();
        assert_eq!(body.body_len, 1);
        assert!(
            matches!(body.term, Some(Term::BrRI { .. })),
            "back-edge branch executes inline"
        );
        let tail = p.at(3).unwrap();
        assert_eq!(tail.body_len, 0, "lone control op compiles bodyless");
        assert!(matches!(tail.term, Some(Term::Other)));
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
        let p = BlockProgram::compile(&d, true);
        assert!(p.has_native(), "xorshift fragment should match");
        let without = BlockProgram::compile(&d, false);
        assert!(!without.has_native());
    }
}
