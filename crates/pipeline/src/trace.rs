//! Trace capture and replay: emulate once, time many.
//!
//! Every timing cell that shares an *emulation key* — the workload
//! instance plus the architectural configuration `(PBS config, emulator
//! config)` — executes the same dynamic instruction stream: the
//! predictor, the core width, the Figure 9 filter switch and branch
//! tracing live entirely in the timing model and feed nothing back into
//! the emulator. This module makes that stream a first-class artifact:
//!
//! * [`TraceStream`] — the capture half: runs the program through the
//!   capture loop ([`TraceStream::fill`], in `crate::aot`: compiled
//!   blocks where they are warm, single steps everywhere else) into
//!   structure-of-arrays [`TraceChunk`]s, pre-simulating the memory
//!   hierarchy — whose evolution also depends only on the pc/address
//!   stream — into load latencies and fetch stalls along the way;
//! * [`DynTrace`] — a materialized, chunked trace captured once per
//!   emulation key and shared (`Arc<DynTrace>`) across every timing
//!   cell of a sweep, optionally persisted to disk (see `persist`);
//! * [`ReplayConsumer`] — the consume half: an
//!   [`OooTimingModel`] + statically dispatched predictor pair that
//!   drains chunks through the same cycle-accounting core as the
//!   reference engine ([`OooTimingModel::consume_core`]). The predictor runs
//!   *ahead* of the timing drain: each chunk's predictor-visible
//!   branches are gathered into one request batch and handed to
//!   [`BranchPredictor::predict_update_batch`] through
//!   [`PredictorDispatch::visit_batch`] — one dispatch per chunk, and
//!   the predictor (TAGE-SC-L in particular) free to software-pipeline
//!   its own table walks across the whole batch — after which the
//!   timing loop replays the precomputed predictions through a
//!   position-only feed. The predictions are recorded on a
//!   [`PredTape`] as they are made, and a consumer built over an
//!   earlier pass's tape reads them from it and runs no predictor;
//! * `BranchCounter` — the predictor-only pass: the same batch
//!   prediction with no timing model behind it, counting branches and
//!   mispredictions into a [`BranchStats`](crate::BranchStats).
//!
//! # Structure-of-arrays chunk layout
//!
//! A chunk stores no bytes per record and no pc at all. Its records
//! follow the program's control flow from the chunk's **entry state**
//! — the pc of its first record and the return stack under it — and
//! only a control op redirects it: a non-control record at pc `p` is
//! followed by `p + 1`. The branch-event byte is zero for the large
//! majority of dynamic instructions (~80% on the paper workloads), so a
//! chunk keeps one **branch byte** per *control* record only, and the
//! trace keeps a per-pc [`FlowTable`]: each control op's kind and
//! static target. [`FlowTable::derive`] recovers every pc from the two:
//! a **run** is the records from the pc up to the next control op (cut
//! at the record count), then that op's record, whose byte says where
//! control went — the target when taken (always, for a jump or a call,
//! which also pushes its return address), the fall-through when not,
//! the popped return address for a `ret`.
//!
//! The two latencies the timing model needs per record are kept only
//! where they can be nonzero. A **load** record keeps its load-to-use
//! latency, in a stream with one byte per load: the timing table's
//! class says which records are loads, and every other record's latency
//! is 0. A **fetch stall** — a line's first fetch — goes on a sparse
//! list of `(record index, cycles)` pairs; every other record stalls 0
//! cycles.
//!
//! A consumer never scans for branches or stalls: [`walk_chunk`] reads
//! each record's timing-table entry once (which also says whether the
//! record takes the next load latency) and iterates whole non-branch
//! spans between stalls through a specialization of the
//! cycle-accounting core with no branch and a literal `istall = 0`
//! (both arms constant-fold away), counting pcs up from the run's
//! start, and decodes exactly one branch event per run.
//!
//! The predictor requests a replay needs are not stored either:
//! [`ChunkReqs::build`] derives them from the same runs when a pass
//! needs them — once per chunk for the first pass of a predictor and
//! filter mode; later passes read its prediction tape.
//!
//! The format has one writer and one reader. [`ChunkWriter`] (opened by
//! `TraceChunk::begin_fill`) is the only code that appends records, and
//! [`FlowTable::derive`] the only code that walks them back in order:
//! [`walk_chunk`], [`ChunkReqs::build`] and the persistence loader,
//! which accepts a file only if every chunk derives and continues the
//! previous chunk's exit state, all run it. The persistence layer
//! copies the raw streams verbatim. The latencies are
//! exact pre-simulations of the timing model's
//! `MemoryHierarchy::default()`: the hierarchy is deterministic given
//! the interleaved access stream (instruction fetch, then the data
//! access for loads, in program order), and that stream is fixed by
//! the trace — so capture resolves the cache model once and replay
//! consumers read its results instead of re-simulating three LRU
//! caches.
//!
//! Replay modes on top (see `sim.rs`, behind the `Simulation` entry
//! point): `EngineKind::Replay` re-times a materialized [`DynTrace`];
//! `EngineKind::Convoy` streams a capture and drains each chunk through
//! its *k* consumers one after another with
//! [`ReplayConsumer::consume_chunk`], so only one chunk is ever live.
//!
//! Replay is byte-identical to the reference engine — `SimReport`
//! equality including `branch_trace`, `prob_consumed` and the error
//! paths — which `tests/engine_equivalence.rs` and the
//! capture-then-replay property test lock in.

use probranch_core::{PbsConfig, PbsStats, PbsUnit};
use probranch_isa::Program;
use probranch_predictor::{BranchPredictor, BranchReq, PredictorDispatch};

use crate::aot::BlockProgram;
use crate::cache::MemoryHierarchy;
use crate::decode::{DecOp, DecodedProgram, InstTiming};
use crate::machine::{BranchEvent, BranchEventKind, EmuConfig, EmuError, Emulator, StepRecord};
use crate::ooo::{BranchStats, OooTimingModel};
use crate::sim::{SimConfig, SimReport};
use crate::tape::{PredTape, TapeChunk, TapeKey};

/// Records per [`TraceChunk`], at most: 64 Ki records — small enough to
/// stay cache-resident while a convoy drains it through several
/// consumers (and the bounded-memory figure for streaming convoys),
/// large enough to amortize the per-chunk bookkeeping and consumer
/// switches. A chunk holds no bytes per record: 1 byte per control
/// record, 1 per load and 5 per fetch stall, plus its entry state. The
/// persistence reader rejects a chunk that claims more records.
pub const TRACE_CHUNK_RECORDS: usize = 1 << 16;

// The packed branch byte of a record: present, taken and probabilistic
// flags in bits 0–2, the `BranchEventKind` above them.
const BR_PRESENT: u8 = 1 << 0;
const BR_TAKEN: u8 = 1 << 1;
const BR_PROB: u8 = 1 << 2;
const BR_KIND_SHIFT: u32 = 3;
const KIND_CONDITIONAL: u8 = 0;
const KIND_PBS_DIRECTED: u8 = 1;
const KIND_UNCONDITIONAL: u8 = 2;
const KIND_CALL: u8 = 3;
const KIND_RET: u8 = 4;

/// Packs a branch resolution into the trace's one-byte encoding (0 for
/// a non-branch record).
#[inline]
pub(crate) fn encode_branch(branch: Option<BranchEvent>) -> u8 {
    match branch {
        None => 0,
        Some(ev) => {
            let kind = match ev.kind {
                BranchEventKind::Conditional => KIND_CONDITIONAL,
                BranchEventKind::PbsDirected => KIND_PBS_DIRECTED,
                BranchEventKind::Unconditional => KIND_UNCONDITIONAL,
                BranchEventKind::Call => KIND_CALL,
                BranchEventKind::Ret => KIND_RET,
            };
            BR_PRESENT
                | (BR_TAKEN * ev.taken as u8)
                | (BR_PROB * ev.is_prob as u8)
                | (kind << BR_KIND_SHIFT)
        }
    }
}

/// Decodes a packed branch byte that fits its op
/// ([`FlowKind::fits`]), exactly as the live
/// [`StepRecord`](crate::StepRecord) carried it.
#[inline(always)]
fn decode_branch(byte: u8) -> BranchEvent {
    debug_assert!(byte & BR_PRESENT != 0);
    let kind = match byte >> BR_KIND_SHIFT {
        KIND_CONDITIONAL => BranchEventKind::Conditional,
        KIND_PBS_DIRECTED => BranchEventKind::PbsDirected,
        KIND_UNCONDITIONAL => BranchEventKind::Unconditional,
        KIND_CALL => BranchEventKind::Call,
        _ => BranchEventKind::Ret,
    };
    BranchEvent {
        taken: byte & BR_TAKEN != 0,
        kind,
        is_prob: byte & BR_PROB != 0,
    }
}

// ---- static control flow --------------------------------------------------

/// How a control op moves the pc: the part of its [`DecOp`] the run
/// derivation needs besides the static target. Every other op falls
/// through to the next pc.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FlowKind {
    /// Not a control op.
    None,
    /// `jf` and the fused compare-and-branches: to the target when
    /// taken, else to the next pc.
    Cond,
    /// The jumping `PROB_JMP`: as [`FlowKind::Cond`], resolved by the
    /// probabilistic value or directed by the PBS unit.
    Prob,
    /// `jmp`: to the target.
    Jmp,
    /// `call`: pushes the next pc, then to the target.
    Call,
    /// `ret`: to the return address it pops.
    Ret,
}

impl FlowKind {
    /// Every kind, in the order of its file code.
    const ALL: [FlowKind; 6] = [
        FlowKind::None,
        FlowKind::Cond,
        FlowKind::Prob,
        FlowKind::Jmp,
        FlowKind::Call,
        FlowKind::Ret,
    ];

    /// The kind and static target of `op` (target 0 for a `ret` and
    /// for an op that is not a control op).
    fn of(op: &DecOp) -> (FlowKind, u32) {
        let flow = match *op {
            DecOp::Jf { target } | DecOp::BrRR { target, .. } | DecOp::BrRI { target, .. } => {
                (FlowKind::Cond, target)
            }
            DecOp::ProbJmp { target, .. } => (FlowKind::Prob, target),
            DecOp::Jmp { target } => (FlowKind::Jmp, target),
            DecOp::Call { target } => (FlowKind::Call, target),
            DecOp::Ret => (FlowKind::Ret, 0),
            _ => (FlowKind::None, 0),
        };
        debug_assert_eq!(op.is_control(), flow.0 != FlowKind::None);
        flow
    }

    /// The kind's code in a trace file.
    pub(crate) fn code(self) -> u8 {
        self as u8
    }

    /// The kind of file code `code`, if it names one.
    pub(crate) fn from_code(code: u8) -> Option<FlowKind> {
        FlowKind::ALL.get(usize::from(code)).copied()
    }

    /// Whether the kind jumps to a static target.
    fn has_target(self) -> bool {
        !matches!(self, FlowKind::None | FlowKind::Ret)
    }

    /// Whether `byte` is a branch byte an op of this kind produces
    /// (see [`Emulator::exec_control`]): a conditional branch's says
    /// whether it was taken; a `PROB_JMP`'s also says it is
    /// probabilistic and whether the PBS unit directed it; a jump's,
    /// call's and return's say taken and their kind, and nothing else.
    #[inline(always)]
    fn fits(self, byte: u8) -> bool {
        // As `(mask, want)` pairs, `byte & mask == want`: a table load
        // rather than a jump per kind.
        const fn taken(kind: u8) -> (u8, u8) {
            (u8::MAX, BR_PRESENT | BR_TAKEN | kind << BR_KIND_SHIFT)
        }
        let (mask, want) = match self {
            FlowKind::None => (0, 1),
            FlowKind::Cond => (!BR_TAKEN, BR_PRESENT),
            FlowKind::Prob => (
                !(BR_TAKEN | KIND_PBS_DIRECTED << BR_KIND_SHIFT),
                BR_PRESENT | BR_PROB,
            ),
            FlowKind::Jmp => taken(KIND_UNCONDITIONAL),
            FlowKind::Call => taken(KIND_CALL),
            FlowKind::Ret => taken(KIND_RET),
        };
        byte & mask == want
    }
}

/// One pc of a [`FlowTable`]: where the run from this pc ends, and the
/// control op there — so a run costs the derivation one table load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Flow {
    /// The first control pc at or after this one; the table's length
    /// when none follows.
    next: u32,
    /// That op's static target (0 when it has none)…
    target: u32,
    /// …and its kind: [`FlowKind::None`] when none follows.
    kind: FlowKind,
}

/// A program's static control flow: per pc, whether the op there is a
/// control op — a conditional branch, a `PROB_JMP`, a jump, a call or a
/// return — and its static target. With a chunk's entry state and
/// branch bytes it fixes every pc the chunk holds, so chunks store
/// none.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowTable {
    pcs: Box<[Flow]>,
}

/// Where a chunk's records start or end: the pc of the next record and
/// the return stack, outermost return address first.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct FlowState {
    pub(crate) pc: u32,
    pub(crate) stack: Vec<u32>,
}

/// What a run derivation reports, in record order.
pub(crate) trait RunVisitor {
    /// The `n > 0` non-control records at pcs `pc..pc + n`.
    fn span(&mut self, pc: u32, n: u32);
    /// The control record at `pc`, with its branch byte.
    fn branch(&mut self, pc: u32, byte: u8);
}

/// The visitor of a derivation run for its exit state alone.
impl RunVisitor for () {
    fn span(&mut self, _: u32, _: u32) {}
    fn branch(&mut self, _: u32, _: u8) {}
}

impl FlowTable {
    /// The flow table of a decoded program.
    pub(crate) fn of(decoded: &DecodedProgram) -> FlowTable {
        let ops: Vec<_> = decoded
            .insts()
            .iter()
            .map(|d| FlowKind::of(&d.op))
            .collect();
        FlowTable::from_ops(&ops).expect("a program's branch targets lie inside it")
    }

    /// The table of per-pc `(kind, target)` pairs, or `None` unless
    /// every target lies inside the table and every op without a
    /// target has target 0 — the check on a table read from a file.
    pub(crate) fn from_ops(ops: &[(FlowKind, u32)]) -> Option<FlowTable> {
        let len = u32::try_from(ops.len()).ok()?;
        let mut next = Flow {
            next: len,
            target: 0,
            kind: FlowKind::None,
        };
        let mut pcs = Vec::with_capacity(ops.len());
        for (pc, &(kind, target)) in ops.iter().enumerate().rev() {
            let in_range = if kind.has_target() {
                target < len
            } else {
                target == 0
            };
            if !in_range {
                return None;
            }
            if kind != FlowKind::None {
                next = Flow {
                    next: pc as u32,
                    target,
                    kind,
                };
            }
            pcs.push(next);
        }
        pcs.reverse();
        Some(FlowTable {
            pcs: pcs.into_boxed_slice(),
        })
    }

    /// The per-pc `(kind, target)` pairs, in pc order.
    pub(crate) fn ops(&self) -> impl Iterator<Item = (FlowKind, u32)> + '_ {
        self.pcs.iter().enumerate().map(|(pc, f)| {
            if f.next as usize == pc {
                (f.kind, f.target)
            } else {
                (FlowKind::None, 0)
            }
        })
    }

    /// Heap bytes held by the table.
    pub fn bytes(&self) -> usize {
        std::mem::size_of_val(&*self.pcs)
    }

    /// Derives `chunk`'s records from its entry state and branch bytes,
    /// reporting them to `v` run by run, and returns its exit state: the
    /// pc and return stack after its last record. Each run is the
    /// records from the pc up to the next control op, cut at the record
    /// count; the op's record takes the next branch byte, which must
    /// fit the op ([`FlowKind::fits`]) and says where control goes.
    ///
    /// `None` when the chunk does not follow the program: a run leaves
    /// the table, a byte does not fit its op, a `ret` finds the return
    /// stack empty, a `call` would push it past `max_depth` entries, or
    /// the branch bytes run out or are left over. A chunk captured from
    /// the program always derives; the persistence loader accepts only
    /// chunks that do, so the chunk walk and the request rebuild may
    /// rely on it.
    #[inline(always)]
    pub(crate) fn derive<V: RunVisitor>(
        &self,
        chunk: &TraceChunk,
        max_depth: usize,
        v: &mut V,
    ) -> Option<FlowState> {
        let pcs = &*self.pcs;
        let mut pc = chunk.entry_pc;
        let mut stack = chunk.entry_stack.clone();
        let mut left = chunk.len;
        let mut bytes = chunk.branches.iter();
        while left > 0 {
            let flow = pcs.get(pc as usize)?;
            // The records up to the next control op, cut at the record
            // count; then the op's record, unless the table ends first
            // (a `None` op fits no byte).
            let run = (flow.next - pc).min(left);
            if run > 0 {
                v.span(pc, run);
                (pc, left) = (pc + run, left - run);
                if left == 0 {
                    break;
                }
            }
            let &byte = bytes.next()?;
            if !flow.kind.fits(byte) {
                return None;
            }
            v.branch(pc, byte);
            left -= 1;
            pc = match flow.kind {
                FlowKind::Call => {
                    if stack.len() >= max_depth {
                        return None;
                    }
                    stack.push(pc + 1);
                    flow.target
                }
                FlowKind::Ret => stack.pop()?,
                _ if byte & BR_TAKEN != 0 => flow.target,
                _ => pc + 1,
            };
        }
        bytes.next().is_none().then_some(FlowState { pc, stack })
    }
}

/// One chunk of a dynamic trace in structure-of-arrays form: its entry
/// state and branch bytes, from which the trace's [`FlowTable`] derives
/// every pc, and the sparse latency streams — one byte per load record
/// and one entry per fetch stall (see the module docs). Nothing is
/// stored per record.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceChunk {
    /// Number of records, at most [`TRACE_CHUNK_RECORDS`].
    pub(crate) len: u32,
    /// The pc of the chunk's first record…
    pub(crate) entry_pc: u32,
    /// …and the return stack under it, outermost return address first:
    /// the chunk's entry state, where the previous chunk ended.
    pub(crate) entry_stack: Vec<u32>,
    /// The packed branch byte of every *control* record, in order —
    /// the zero bytes of the other records are elided.
    pub(crate) branches: Vec<u8>,
    /// The load-to-use latency of every load record, in order. Which
    /// records are loads is the timing table's to say; every other
    /// record's latency is 0.
    pub(crate) dlats: Vec<u8>,
    /// The record index of every nonzero fetch stall, ascending…
    pub(crate) stall_at: Vec<u32>,
    /// …and its cycles, parallel to `stall_at`. Every other record
    /// stalls 0 cycles.
    pub(crate) stalls: Vec<u8>,
}

impl TraceChunk {
    /// Number of records in the chunk.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the chunk holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of branch records in the chunk.
    pub fn branch_count(&self) -> usize {
        self.branches.len()
    }

    /// Removes all records, keeping the stream allocations.
    pub fn clear(&mut self) {
        self.len = 0;
        self.entry_pc = 0;
        self.entry_stack.clear();
        self.branches.clear();
        self.dlats.clear();
        self.stall_at.clear();
        self.stalls.clear();
    }

    /// Whether the chunk enters at `state`: its first record at
    /// `state.pc`, over the return stack `state.stack`.
    pub(crate) fn enters_at(&self, state: &FlowState) -> bool {
        self.entry_pc == state.pc && self.entry_stack == state.stack
    }

    /// Records the entry state — the emulator's pc and return stack
    /// before the first record — and returns a writer appending to the
    /// chunk's streams: the only way records enter a chunk.
    pub(crate) fn begin_fill(&mut self, pc: u32, stack: &[u32]) -> ChunkWriter<'_> {
        debug_assert!(self.is_empty());
        self.entry_pc = pc;
        self.entry_stack.extend_from_slice(stack);
        ChunkWriter {
            len: &mut self.len,
            branches: &mut self.branches,
            dlats: &mut self.dlats,
            stall_at: &mut self.stall_at,
            stalls: &mut self.stalls,
        }
    }

    /// Drops the slack capacity of every stream (each chunk of a
    /// materialized trace).
    fn shrink_to_fit(&mut self) {
        self.entry_stack.shrink_to_fit();
        self.branches.shrink_to_fit();
        self.dlats.shrink_to_fit();
        self.stall_at.shrink_to_fit();
        self.stalls.shrink_to_fit();
    }

    /// Heap bytes held by the chunk's stream buffers (capacity, not
    /// length — the number that matters for peak-memory accounting).
    pub fn bytes(&self) -> usize {
        self.entry_stack.capacity() * 4
            + self.branches.capacity()
            + self.dlats.capacity()
            + self.stall_at.capacity() * 4
            + self.stalls.capacity()
    }
}

/// A chunk's *conditional* branches as predictor requests, in program
/// order, each with whether its branch was probabilistic (the Figure 9
/// filter mode drops those). Chunks store no requests: a pass rebuilds
/// them per chunk with [`build`](ChunkReqs::build) into buffers it
/// reuses from chunk to chunk.
#[derive(Debug, Default)]
pub(crate) struct ChunkReqs {
    reqs: Vec<BranchReq>,
    prob: Vec<bool>,
}

impl RunVisitor for ChunkReqs {
    #[inline(always)]
    fn span(&mut self, _: u32, _: u32) {}

    #[inline(always)]
    fn branch(&mut self, pc: u32, byte: u8) {
        // A conditional branch has kind bits 0: only the
        // present/taken/prob flags may be set.
        if byte & !(BR_TAKEN | BR_PROB) == BR_PRESENT {
            self.reqs
                .push(BranchReq::new(pc as u64, byte & BR_TAKEN != 0));
            self.prob.push(byte & BR_PROB != 0);
        }
    }
}

impl ChunkReqs {
    /// Replaces the requests with `chunk`'s, at the pcs `flow` derives
    /// for its branches ([`FlowTable::derive`]), for captured and loaded
    /// chunks alike. The only code that builds predictor requests.
    pub(crate) fn build(&mut self, chunk: &TraceChunk, flow: &FlowTable) {
        self.reqs.clear();
        self.prob.clear();
        flow.derive(chunk, usize::MAX, self)
            .expect("captured and loaded chunks follow the program's control flow");
    }

    /// The *predictor-visible* requests, in program order: every
    /// conditional branch, minus the probabilistic ones when the Figure
    /// 9 filter diverts those to the PBS oracle — exactly the records
    /// for which [`OooTimingModel::consume_core`] consults the predictor
    /// (PBS-directed and unconditional control flow never touch it).
    /// Unfiltered passes borrow the requests outright; the filter mode
    /// copies the non-probabilistic subset into `scratch`.
    fn visible<'a>(
        &'a self,
        filter_prob: bool,
        scratch: &'a mut Vec<BranchReq>,
    ) -> &'a [BranchReq] {
        if !filter_prob {
            return &self.reqs;
        }
        scratch.clear();
        scratch.extend(
            self.reqs
                .iter()
                .zip(&self.prob)
                .filter(|&(_, &prob)| !prob)
                .map(|(&req, _)| req),
        );
        scratch
    }
}

/// An appending writer over a [`TraceChunk`]'s streams (see
/// [`TraceChunk::begin_fill`]) — the chunk format's only writer. It
/// writes nothing per record and no pc: a control record's branch
/// byte, a load's latency and a nonzero fetch stall's index and cycles,
/// and it counts the records. Where each record sits follows from the
/// entry state and the branch bytes ([`FlowTable::derive`]); debug
/// builds check each captured chunk's derived exit state against the
/// emulator's.
pub(crate) struct ChunkWriter<'a> {
    /// The chunk's record count: the records written so far.
    len: &'a mut u32,
    branches: &'a mut Vec<u8>,
    dlats: &'a mut Vec<u8>,
    stall_at: &'a mut Vec<u32>,
    stalls: &'a mut Vec<u8>,
}

impl ChunkWriter<'_> {
    /// Appends the load-to-use latency of a load record this writer
    /// emits next: the next [`emit_record`](ChunkWriter::emit_record)'s,
    /// or one of the next [`emit_straight`](ChunkWriter::emit_straight)
    /// span's. Loads report in program order, and every load record
    /// reports exactly once.
    #[inline(always)]
    pub(crate) fn load(&mut self, dlat: u8) {
        self.dlats.push(dlat);
    }

    /// Appends `n` straight-line records — the compiled blocks' warm
    /// fast path: no branch bytes (a block body holds no control op by
    /// construction) and no fetch stalls (the warmth rule), so only the
    /// record count moves.
    #[inline(always)]
    pub(crate) fn emit_straight(&mut self, n: u32) {
        *self.len += n;
    }

    /// Appends one record: its packed branch byte (0 for a record that
    /// is not a control op's) and pre-simulated fetch stall.
    #[inline(always)]
    pub(crate) fn emit_record(&mut self, branch_byte: u8, istall: u8) {
        if istall != 0 {
            self.stall_at.push(*self.len);
            self.stalls.push(istall);
        }
        if branch_byte != 0 {
            self.branches.push(branch_byte);
        }
        *self.len += 1;
    }
}

/// A per-record visitor for [`walk_chunk`]: `plain` sees every
/// non-branch record, `branch` every branch record with its event
/// decoded exactly once. Both receive the record's pc, its timing-table
/// entry and its latencies directly — the walk owns all stream and
/// table indexing, so visitors do no bounds-checked loads of their own.
pub(crate) trait ChunkVisitor {
    /// One non-branch record.
    fn plain(&mut self, pc: u32, t: &InstTiming, istall: u8, dlat: u8);
    /// One branch record.
    fn branch(&mut self, pc: u32, t: &InstTiming, istall: u8, dlat: u8, ev: BranchEvent);
}

/// Drives `v` over every record of `chunk` in program order; `timings`
/// and `flow` are the per-pc tables of the trace the chunk came from.
/// The runs come from [`FlowTable::derive`]. Whole non-branch spans go
/// through `plain` — the branch test runs once per *run*, not once per
/// record, and inside a run the `branch: None` arm of the
/// cycle-accounting core constant-folds away. A span is walked in
/// stall-free sub-spans with a literal `istall = 0`, so the core's
/// fetch-stall arm constant-folds too; a stalled record is visited on
/// its own. Each record's timing-table entry is read once, from a slice
/// of the table its span's pcs count up through, and a load takes the
/// next load latency.
#[inline(always)]
pub(crate) fn walk_chunk<V: ChunkVisitor>(
    chunk: &TraceChunk,
    timings: &[InstTiming],
    flow: &FlowTable,
    v: &mut V,
) {
    let mut walk = Walk {
        lat: Latencies::of(chunk),
        idx: 0,
        timings,
        v,
    };
    flow.derive(chunk, usize::MAX, &mut walk)
        .expect("captured and loaded chunks follow the program's control flow");
    let lat = &walk.lat;
    debug_assert!(
        lat.d == lat.dlats.len() && lat.k == lat.stalls.len(),
        "the walk consumed {} of {} load latencies and {} of {} stalls",
        lat.d,
        lat.dlats.len(),
        lat.k,
        lat.stalls.len()
    );
}

/// [`walk_chunk`]'s run visitor: hands each derived record to the
/// chunk visitor with its timing entry and latencies.
struct Walk<'a, V> {
    lat: Latencies<'a>,
    /// The index of the next record.
    idx: usize,
    timings: &'a [InstTiming],
    v: &'a mut V,
}

impl<V: ChunkVisitor> RunVisitor for Walk<'_, V> {
    #[inline(always)]
    fn span(&mut self, pc: u32, n: u32) {
        self.lat.span(self.idx, pc, n, self.timings, self.v);
        self.idx += n as usize;
    }

    #[inline(always)]
    fn branch(&mut self, pc: u32, byte: u8) {
        let t = &self.timings[pc as usize];
        let istall = self.lat.stall(self.idx);
        self.v
            .branch(pc, t, istall, self.lat.dlat(t), decode_branch(byte));
        self.idx += 1;
    }
}

/// The latency cursor of a chunk walk: the next load latency, and the
/// next entry of the sparse stall list.
struct Latencies<'a> {
    dlats: &'a [u8],
    /// Load latencies consumed so far.
    d: usize,
    stall_at: &'a [u32],
    stalls: &'a [u8],
    /// Stalls consumed so far.
    k: usize,
    /// The record index of the next stall; `usize::MAX` past the last.
    next: usize,
}

impl<'a> Latencies<'a> {
    fn of(chunk: &'a TraceChunk) -> Latencies<'a> {
        let mut lat = Latencies {
            dlats: &chunk.dlats,
            d: 0,
            stall_at: &chunk.stall_at,
            stalls: &chunk.stalls,
            k: 0,
            next: 0,
        };
        lat.next = lat.stall_index();
        lat
    }

    /// The record index of stall `k`, or `usize::MAX` past the last.
    fn stall_index(&self) -> usize {
        if self.k < self.stalls.len() {
            self.stall_at[self.k] as usize
        } else {
            usize::MAX
        }
    }

    /// The load latency of a record with timing entry `t`: the next one
    /// for a load, 0 for anything else.
    #[inline(always)]
    fn dlat(&mut self, t: &InstTiming) -> u8 {
        if t.is_load() {
            self.d += 1;
            self.dlats[self.d - 1]
        } else {
            0
        }
    }

    /// The fetch stall of record `idx`, which the walk reaches in order.
    #[inline(always)]
    fn stall(&mut self, idx: usize) -> u8 {
        if idx != self.next {
            return 0;
        }
        let cycles = self.stalls[self.k];
        self.k += 1;
        self.next = self.stall_index();
        cycles
    }

    /// Visits the `n` non-branch records from record `idx` on, at pcs
    /// counted up from `pc`: stall-free sub-spans with a literal
    /// `istall = 0`, and each stalled record on its own.
    #[inline(always)]
    fn span<V: ChunkVisitor>(
        &mut self,
        mut idx: usize,
        mut pc: u32,
        n: u32,
        timings: &[InstTiming],
        v: &mut V,
    ) {
        let end = idx + n as usize;
        while self.next < end {
            let quiet = (self.next - idx) as u32;
            self.quiet(pc, quiet, timings, v);
            pc += quiet;
            let t = &timings[pc as usize];
            let istall = self.stall(self.next);
            v.plain(pc, t, istall, self.dlat(t));
            pc += 1;
            idx += quiet as usize + 1;
        }
        self.quiet(pc, (end - idx) as u32, timings, v);
    }

    /// Visits `n` stall-free non-branch records at pcs `pc..pc + n`.
    #[inline(always)]
    fn quiet<V: ChunkVisitor>(&mut self, pc: u32, n: u32, timings: &[InstTiming], v: &mut V) {
        let ts = &timings[pc as usize..pc as usize + n as usize];
        for (i, t) in ts.iter().enumerate() {
            v.plain(pc + i as u32, t, 0, self.dlat(t));
        }
    }
}

/// The architectural results of a captured run — everything a
/// [`SimReport`] carries that the timing model does not produce.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceFunctional {
    /// Committed dynamic instructions (== total trace records).
    pub instructions: u64,
    /// Program outputs, ascending by port.
    pub outputs: Vec<(u16, Vec<u64>)>,
    /// Probabilistic values in consumption order.
    pub prob_consumed: Vec<u64>,
    /// PBS event counters, when PBS was enabled.
    pub pbs: Option<PbsStats>,
}

impl TraceFunctional {
    /// The values emitted on `port`.
    pub fn output(&self, port: u16) -> &[u64] {
        crate::sim::port_values(&self.outputs, port)
    }

    /// The values emitted on `port`, as doubles.
    pub fn output_f64(&self, port: u16) -> Vec<f64> {
        self.output(port)
            .iter()
            .map(|&v| f64::from_bits(v))
            .collect()
    }
}

impl From<SimReport> for TraceFunctional {
    /// The architectural results of a run, without its timing.
    fn from(r: SimReport) -> TraceFunctional {
        TraceFunctional {
            instructions: r.timing.instructions,
            outputs: r.outputs,
            prob_consumed: r.prob_consumed,
            pbs: r.pbs,
        }
    }
}

/// Pre-simulates one single-stepped record: evolves the hierarchy by
/// the record's instruction fetch, then its data access for a load, and
/// returns the record's fetch stall and, for a load, its load-to-use
/// latency.
///
/// The L1-I-resident fast path: once a line has been fetched it can
/// never leave the L1-I (see [`TraceStream::itouched`]), so only the
/// first touch walks the hierarchy (and inserts into the shared L2,
/// exactly as the full simulation would).
#[inline(always)]
pub(crate) fn record_costs(
    presim: &mut MemoryHierarchy,
    timings: &[InstTiming],
    itouched: &mut [bool],
    pcs_per_line: usize,
    rec: &StepRecord,
) -> (u8, Option<u8>) {
    let istall = if !itouched.is_empty() {
        let line = rec.pc as usize / pcs_per_line;
        if itouched[line] {
            0
        } else {
            itouched[line] = true;
            presim.inst_access(rec.pc as u64 * 8)
        }
    } else {
        presim.inst_access(rec.pc as u64 * 8)
    };
    let dlat = timings[rec.pc as usize].is_load().then(|| {
        let addr = rec.mem_addr().expect("loads carry an address");
        let dlat = presim.data_access(addr);
        debug_assert!(dlat <= u8::MAX as u64);
        dlat as u8
    });
    debug_assert!(istall <= u8::MAX as u64);
    (istall as u8, dlat)
}

/// The capture half of the replay engines, as a chunk stream.
///
/// Drive it with [`fill`](TraceStream::fill) until it reports the
/// machine halted, then take the architectural results with
/// [`finish`](TraceStream::finish). Only the emulation-key fields of the
/// passed [`SimConfig`] matter (`pbs`, `emu`, `max_insts`); predictor,
/// core and filter settings are timing-side and ignored.
#[derive(Debug)]
pub struct TraceStream {
    pub(crate) emu: Emulator,
    /// The pre-simulated hierarchy. Must evolve exactly as the timing
    /// model's own `MemoryHierarchy::default()` would: instruction
    /// fetch, then the data access for loads, per record in order.
    pub(crate) presim: MemoryHierarchy,
    pub(crate) timings: Box<[InstTiming]>,
    /// The program's static control flow, from which each chunk's pcs
    /// derive.
    pub(crate) flow: FlowTable,
    /// Per-instruction-cache-line first-touch flags, when the program is
    /// small enough that the L1-I provably never evicts a program line
    /// (≤ its 512-line capacity, consecutive line indices → at most
    /// `ways` lines per set). In that regime an instruction fetch
    /// touches the rest of the hierarchy only on the line's first
    /// access, so the full cache walk runs once per line and every
    /// later fetch is a known `istall = 0` — byte-identical to the full
    /// pre-simulation, measurably cheaper on the per-record hot path.
    /// Empty for larger programs (full pre-simulation per fetch).
    pub(crate) itouched: Box<[bool]>,
    /// Consecutive pcs per L1-I line (`line_bytes / 8`-byte
    /// instructions) — the divisor `itouched` was sized with.
    pub(crate) pcs_per_line: usize,
    /// The block-compiled form of the program (see `crate::aot`) —
    /// empty when the selected capture tier, the `capture.block`
    /// failpoint or the L1-I-residency precondition rules block
    /// execution out, so the capture loop single-steps every pc.
    pub(crate) blocks: BlockProgram,
    /// Per-block warmth verdicts, parallel to `blocks`' block indices.
    /// Warmth is monotonic — `itouched` lines are only ever set — so a
    /// block found warm stays warm and the dispatch loop skips the
    /// per-execution line scan.
    pub(crate) warm_blocks: Box<[bool]>,
    pub(crate) max_insts: u64,
    pub(crate) halted: bool,
}

impl TraceStream {
    /// Starts capturing `program` under `config`'s emulation key.
    pub fn new(program: &Program, config: &SimConfig) -> TraceStream {
        let emu = match &config.pbs {
            Some(pbs_cfg) => Emulator::with_pbs(
                program.clone(),
                config.emu.clone(),
                PbsUnit::new(pbs_cfg.clone()),
            ),
            None => Emulator::new(program.clone(), config.emu.clone()),
        };
        let timings: Box<[InstTiming]> = emu.decoded().insts().iter().map(|d| d.timing).collect();
        let flow = FlowTable::of(emu.decoded());
        let presim = MemoryHierarchy::default();
        // Instructions are 8 bytes in the timing model's address space,
        // so one cache line covers `line_bytes / 8` consecutive pcs.
        let pcs_per_line = (presim.l1i().line_bytes() / 8).max(1);
        let line_count = timings.len().div_ceil(pcs_per_line);
        let itouched = if line_count <= presim.l1i().capacity_lines() {
            vec![false; line_count].into_boxed_slice()
        } else {
            Box::default()
        };
        // Block-compiled capture (see `crate::aot`): the warm fast path
        // relies on the L1-I-residency argument above, so programs too
        // large for `itouched` compile no blocks. The capture tier and
        // the `capture.block` failpoint select blocks as for a
        // functional run — torture runs prove the fallback is
        // byte-invisible.
        let blocks = if itouched.is_empty() {
            BlockProgram::default()
        } else {
            BlockProgram::select(emu.decoded(), config.max_insts)
        };
        let warm_blocks = vec![false; blocks.compiled_blocks()].into_boxed_slice();
        TraceStream {
            emu,
            presim,
            timings,
            flow,
            itouched,
            pcs_per_line,
            blocks,
            warm_blocks,
            max_insts: config.max_insts,
            halted: false,
        }
    }

    /// The per-pc timing metadata replay consumers index by
    /// [`StepRecord::pc`](crate::StepRecord::pc) — the only part of the decoded program a
    /// timing-only pass needs.
    pub fn timings(&self) -> &[InstTiming] {
        &self.timings
    }

    /// The program's static control flow, which replay consumers read
    /// beside [`timings`](TraceStream::timings).
    pub fn flow(&self) -> &FlowTable {
        &self.flow
    }

    /// The architectural results, once [`fill`](TraceStream::fill) has
    /// reported the machine halted.
    pub fn finish(self) -> TraceFunctional {
        TraceFunctional {
            instructions: self.emu.executed(),
            outputs: self.emu.outputs_sorted(),
            prob_consumed: self.emu.prob_consumed().to_vec(),
            pbs: self.emu.pbs_stats(),
        }
    }
}

/// A materialized dynamic trace: one emulation key's full record stream
/// in SoA chunks, the per-pc timing metadata and control flow, the
/// pre-simulated cache latencies and the architectural results —
/// everything `N` timing models need to replay the run without
/// re-emulating it.
#[derive(Debug, Clone, PartialEq)]
pub struct DynTrace {
    pub(crate) timings: Box<[InstTiming]>,
    pub(crate) flow: FlowTable,
    pub(crate) chunks: Vec<TraceChunk>,
    pub(crate) functional: TraceFunctional,
    /// The emulation key the trace was captured under, re-checked at
    /// replay time.
    pub(crate) pbs: Option<PbsConfig>,
    pub(crate) emu: EmuConfig,
}

impl DynTrace {
    /// Captures the full trace of `program` under `config`'s emulation
    /// key (`pbs`, `emu`, `max_insts`).
    ///
    /// # Errors
    ///
    /// Exactly the errors a live [`Simulation`](crate::Simulation)
    /// run would return:
    /// emulator faults, or [`EmuError::InstLimitExceeded`] when the
    /// program does not halt within `config.max_insts` — a trace only
    /// exists for a run that completed.
    pub fn capture(program: &Program, config: &SimConfig) -> Result<DynTrace, EmuError> {
        let mut stream = TraceStream::new(program, config);
        let mut chunks = Vec::new();
        loop {
            let mut chunk = TraceChunk::default();
            if !stream.fill(&mut chunk)? {
                break;
            }
            chunk.shrink_to_fit();
            chunks.push(chunk);
        }
        Ok(DynTrace {
            timings: stream.timings.clone(),
            flow: stream.flow.clone(),
            functional: stream.finish(),
            chunks,
            pbs: config.pbs.clone(),
            emu: config.emu.clone(),
        })
    }

    /// Total dynamic instructions recorded.
    pub fn instructions(&self) -> u64 {
        self.functional.instructions
    }

    /// Number of chunks.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// The chunks, in program order.
    pub fn chunks(&self) -> &[TraceChunk] {
        &self.chunks
    }

    /// The per-pc timing metadata for replay consumers.
    pub fn timings(&self) -> &[InstTiming] {
        &self.timings
    }

    /// The program's static control flow, from which every chunk's pcs
    /// derive.
    pub fn flow(&self) -> &FlowTable {
        &self.flow
    }

    /// The architectural results of the captured run.
    pub fn functional(&self) -> &TraceFunctional {
        &self.functional
    }

    /// Heap bytes held by the trace (record streams, timing and flow
    /// tables and architectural results) — the number the trace pool's
    /// memory budget meters.
    pub fn bytes(&self) -> usize {
        self.chunks.iter().map(TraceChunk::bytes).sum::<usize>()
            + self.timings.len() * std::mem::size_of::<InstTiming>()
            + self.flow.bytes()
            + self.functional.prob_consumed.capacity() * 8
            + self
                .functional
                .outputs
                .iter()
                .map(|(_, v)| v.capacity() * 8)
                .sum::<usize>()
    }

    /// Panics unless `config` shares the trace's emulation key — a
    /// replay under a different PBS or emulator configuration would
    /// silently time a different program run.
    pub fn check_compatible(&self, config: &SimConfig) {
        assert_eq!(
            self.pbs, config.pbs,
            "replay PBS config differs from the captured trace's"
        );
        assert_eq!(
            self.emu, config.emu,
            "replay emulator config differs from the captured trace's"
        );
    }
}

/// The consume half of the replay engines: one timing model fed chunks
/// of a captured trace, with its predictions made by a statically
/// dispatched predictor or read from a recorded [`PredTape`].
///
/// Each chunk drains in two phases. First the predictions: a live
/// consumer's batch predictor runs the chunk's predictor-visible
/// branches through [`BranchPredictor::predict_update_batch`] in one
/// dispatch, with the predictor free to pipeline its own internal work
/// across the batch, and records them on its tape; a tape-fed consumer
/// reads the chunk's recorded bits instead and runs no predictor at
/// all. Then the record walk replays the predictions through a
/// position-only feed into the unchanged cycle-accounting core. This is
/// a pure replay-side reordering: the predictor observes exactly the
/// serial request stream, so reports stay byte-identical to the
/// reference engine.
#[derive(Debug)]
pub struct ReplayConsumer<'t> {
    timing: OooTimingModel,
    filter_prob: bool,
    preds: PredSource<'t>,
}

/// Where a replay consumer's predictions come from.
#[derive(Debug)]
enum PredSource<'t> {
    /// The predictor itself, recording its tape as it goes, and the
    /// requests it is fed, rebuilt per chunk.
    Live {
        batch: Box<BatchPredictor>,
        reqs: ChunkReqs,
    },
    /// An earlier pass's tape, read chunk by chunk.
    Tape { tape: &'t PredTape, next: usize },
}

/// The predictor half of a live consumer: a statically dispatched
/// predictor, its per-chunk batch scratch and the tape of every chunk's
/// predictions so far. This is the only code that runs a predictor over
/// a trace.
#[derive(Debug)]
struct BatchPredictor {
    predictor: PredictorDispatch,
    filter_prob: bool,
    /// The filter mode's copy of a chunk's predictor-visible requests…
    visible: Vec<BranchReq>,
    /// …and the batch-computed predictions of the visible requests.
    preds: Vec<bool>,
    tape: PredTape,
}

impl BatchPredictor {
    fn new(config: &SimConfig) -> BatchPredictor {
        BatchPredictor {
            predictor: config.predictor.build_dispatch(),
            filter_prob: config.filter_prob_from_predictor,
            visible: Vec::new(),
            preds: Vec::new(),
            tape: PredTape::new(TapeKey::of(config)),
        }
    }

    /// Runs a chunk's predictor-visible requests ([`ChunkReqs::visible`]
    /// of the chunk's `reqs`) through the predictor in one dispatch
    /// ([`PredictorDispatch::visit_batch`]) and records the predictions
    /// on the tape. Returns the visible requests and their predictions,
    /// in program order.
    fn predict<'a>(&'a mut self, reqs: &'a ChunkReqs) -> (&'a [BranchReq], &'a [bool]) {
        let BatchPredictor {
            predictor,
            filter_prob,
            visible,
            preds,
            tape,
        } = self;
        let reqs = reqs.visible(*filter_prob, visible);
        preds.clear();
        preds.resize(reqs.len(), false);
        predictor.visit_batch(reqs, preds);
        tape.push_chunk(preds);
        (reqs, preds)
    }
}

/// Replays a chunk's packed predictions into the unchanged
/// cycle-accounting core. [`OooTimingModel::consume_core`] consults its
/// predictor through exactly one entry point — `predict_and_update`,
/// once per predictor-visible branch in program order — so a feed that
/// pops the next recorded prediction is indistinguishable from the live
/// predictor that recorded it.
struct PredFeed<'a> {
    preds: TapeChunk<'a>,
    next: usize,
}

impl<'a> PredFeed<'a> {
    fn new(preds: TapeChunk<'a>) -> PredFeed<'a> {
        PredFeed { preds, next: 0 }
    }

    /// Whether the drain consumed every recorded prediction — the
    /// request collection and the record walk agreeing on which records
    /// are predictor-visible.
    fn consumed_all(&self) -> bool {
        self.next == self.preds.len
    }
}

impl BranchPredictor for PredFeed<'_> {
    fn predict(&mut self, _pc: u64) -> bool {
        unreachable!("replay drains consult the feed via predict_and_update only")
    }

    fn update(&mut self, _pc: u64, _taken: bool) {
        unreachable!("replay drains consult the feed via predict_and_update only")
    }

    #[inline(always)]
    fn predict_and_update(&mut self, _req: BranchReq) -> bool {
        debug_assert!(
            self.next < self.preds.len,
            "drain ran past the chunk's predictions"
        );
        let taken = (self.preds.words[self.next / 64] >> (self.next % 64)) & 1 == 1;
        self.next += 1;
        taken
    }

    fn storage_bits(&self) -> usize {
        0
    }

    fn name(&self) -> &'static str {
        "pred-feed"
    }
}

/// The chunk-drain loop: one timing model stepping over its prediction
/// feed (the predictions were fixed before the walk began).
struct Drain<'a> {
    timing: &'a mut OooTimingModel,
    feed: PredFeed<'a>,
    filter_prob: bool,
}

impl Drain<'_> {
    /// Advances the model by one record, with the branch event passed
    /// as a compile-time-known `Option` shape per call site.
    #[inline(always)]
    fn advance(&mut self, pc: u32, t: &InstTiming, istall: u8, dlat: u8, ev: Option<BranchEvent>) {
        let exec_lat = if t.is_load() {
            dlat as u64
        } else {
            self.timing.static_latency(t.class)
        };
        self.timing.consume_core(
            pc,
            t,
            ev,
            istall as u64,
            exec_lat,
            &mut self.feed,
            self.filter_prob,
        );
    }
}

impl ChunkVisitor for Drain<'_> {
    #[inline(always)]
    fn plain(&mut self, pc: u32, t: &InstTiming, istall: u8, dlat: u8) {
        self.advance(pc, t, istall, dlat, None);
    }

    #[inline(always)]
    fn branch(&mut self, pc: u32, t: &InstTiming, istall: u8, dlat: u8, ev: BranchEvent) {
        self.advance(pc, t, istall, dlat, Some(ev));
    }
}

impl ReplayConsumer<'static> {
    /// A consumer for `config`'s timing side (core, predictor, filter
    /// mode, branch tracing) that runs `config`'s predictor.
    pub fn new(config: &SimConfig) -> ReplayConsumer<'static> {
        ReplayConsumer::with_source(
            config,
            PredSource::Live {
                batch: Box::new(BatchPredictor::new(config)),
                reqs: ChunkReqs::default(),
            },
        )
    }
}

impl<'t> ReplayConsumer<'t> {
    /// A consumer for `config`'s timing side that reads its predictions
    /// from `tape` instead of running a predictor. The caller checks the
    /// tape was recorded over the trace it feeds in, under `config`'s
    /// predictor and filter mode ([`PredTape::check_compatible`]).
    pub(crate) fn from_tape(config: &SimConfig, tape: &'t PredTape) -> ReplayConsumer<'t> {
        ReplayConsumer::with_source(config, PredSource::Tape { tape, next: 0 })
    }

    fn with_source(config: &SimConfig, preds: PredSource<'t>) -> ReplayConsumer<'t> {
        let mut timing = OooTimingModel::new(config.core.clone());
        if config.collect_branch_trace {
            timing.enable_trace();
        }
        ReplayConsumer {
            timing,
            filter_prob: config.filter_prob_from_predictor,
            preds,
        }
    }

    /// Drains one chunk through the timing model: fix the chunk's
    /// predictions (build its requests and batch-predict them, or read
    /// the tape), then walk the chunk's records through the
    /// cycle-accounting core, replaying the predictions in program
    /// order. `timings` and `flow` are the per-pc tables of the trace
    /// the chunk came from.
    #[inline]
    pub fn consume_chunk(&mut self, timings: &[InstTiming], flow: &FlowTable, chunk: &TraceChunk) {
        let preds = match &mut self.preds {
            PredSource::Live { batch, reqs } => {
                reqs.build(chunk, flow);
                batch.predict(reqs);
                batch.tape.chunk(batch.tape.chunk_count() - 1)
            }
            PredSource::Tape { tape, next } => {
                *next += 1;
                tape.chunk(*next - 1)
            }
        };
        let mut v = Drain {
            timing: &mut self.timing,
            feed: PredFeed::new(preds),
            filter_prob: self.filter_prob,
        };
        walk_chunk(chunk, timings, flow, &mut v);
        debug_assert!(
            v.feed.consumed_all(),
            "drain consumed {} of {} predictions",
            v.feed.next,
            preds.len,
        );
    }

    /// Finishes the replay: the timing model's statistics joined with
    /// the trace's architectural results into the same [`SimReport`] the
    /// reference engine would have produced.
    pub fn into_report(self, functional: &TraceFunctional) -> SimReport {
        self.finish(functional).0
    }

    /// [`into_report`](ReplayConsumer::into_report), plus the tape a
    /// live consumer recorded, carrying the replay's branch counts
    /// (`None` for a tape-fed consumer).
    pub(crate) fn finish(self, functional: &TraceFunctional) -> (SimReport, Option<PredTape>) {
        let ReplayConsumer {
            mut timing, preds, ..
        } = self;
        let stats = timing.stats();
        let tape = match preds {
            PredSource::Live { batch, .. } => Some(batch.tape.finish(stats.into())),
            PredSource::Tape { .. } => None,
        };
        let report = SimReport {
            timing: stats,
            pbs: functional.pbs,
            outputs: functional.outputs.clone(),
            prob_consumed: functional.prob_consumed.clone(),
            branch_trace: timing.take_trace(),
        };
        (report, tape)
    }
}

/// The consume half of the predictor-only pass: a replay consumer's
/// [`BatchPredictor`] with no timing model behind it.
///
/// A trace fixes every branch outcome and the batch fixes every
/// prediction, so the counts [`OooTimingModel::consume_core`] keeps
/// follow from the chunk alone: branch kinds from its branch-byte
/// stream (PBS-directed and unconditional transfers never become
/// requests), mispredictions from the predictions against the
/// requests. The counts equal the replay's timing statistics without
/// their cycle count.
#[derive(Debug)]
pub(crate) struct BranchCounter {
    batch: BatchPredictor,
    stats: BranchStats,
}

impl BranchCounter {
    /// A counter for `config`'s predictor and filter mode.
    pub(crate) fn new(config: &SimConfig) -> BranchCounter {
        BranchCounter {
            batch: BatchPredictor::new(config),
            stats: BranchStats::default(),
        }
    }

    /// Counts one chunk's records, branches and mispredictions; `reqs`
    /// holds the chunk's requests ([`ChunkReqs::build`]), which
    /// counters streaming one chunk share.
    pub(crate) fn consume_chunk(&mut self, chunk: &TraceChunk, reqs: &ChunkReqs) {
        let s = &mut self.stats;
        s.instructions += chunk.len() as u64;
        s.dyn_branches += chunk.branch_count() as u64;
        for &byte in &chunk.branches {
            let ev = decode_branch(byte);
            match ev.kind {
                BranchEventKind::Conditional => {
                    s.cond_branches += 1;
                    s.prob_branches += ev.is_prob as u64;
                }
                BranchEventKind::PbsDirected => {
                    s.cond_branches += 1;
                    s.prob_branches += 1;
                    s.pbs_directed += 1;
                }
                BranchEventKind::Unconditional | BranchEventKind::Call | BranchEventKind::Ret => {}
            }
        }
        // Unfiltered, the visible requests are all of `reqs`, parallel
        // to its probabilistic flags; filtered, they are all regular.
        let filter_prob = self.batch.filter_prob;
        let (visible, preds) = self.batch.predict(reqs);
        for (i, (req, &pred)) in visible.iter().zip(preds).enumerate() {
            if pred != req.taken {
                let prob = !filter_prob && reqs.prob[i];
                s.mispredicts += 1;
                s.mispredicts_prob += prob as u64;
                s.mispredicts_regular += !prob as u64;
            }
        }
    }

    /// The counts so far.
    pub(crate) fn stats(&self) -> BranchStats {
        self.stats
    }

    /// The recorded tape, carrying the pass's counts.
    pub(crate) fn into_tape(self) -> PredTape {
        self.batch.tape.finish(self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aot::on_tier;
    use crate::sim::{EngineKind, PredictorChoice, Simulation};
    use probranch_isa::{CmpOp, ExecClass, ProgramBuilder, Reg};

    /// A loop mixing regular branches, a ~50% probabilistic branch and
    /// memory traffic — every record shape a trace can hold.
    fn workload(iters: i64) -> Program {
        let mut b = ProgramBuilder::new();
        let top = b.label("top");
        let join = b.label("join");
        b.li(Reg::R1, 0x9E3779B97F4A7C15u64 as i64);
        b.li(Reg::R2, 0);
        b.li(Reg::R3, 0);
        b.li(Reg::R4, (u64::MAX / 2) as i64);
        b.li(Reg::R6, 0x2545F4914F6CDD1Du64 as i64);
        b.li(Reg::R9, 64);
        b.bind(top);
        b.shr(Reg::R5, Reg::R1, 12).xor(Reg::R1, Reg::R1, Reg::R5);
        b.shl(Reg::R5, Reg::R1, 25).xor(Reg::R1, Reg::R1, Reg::R5);
        b.shr(Reg::R5, Reg::R1, 27).xor(Reg::R1, Reg::R1, Reg::R5);
        b.mul(Reg::R7, Reg::R1, Reg::R6);
        b.st(Reg::R7, Reg::R9, 0).ld(Reg::R8, Reg::R9, 0);
        b.sltu(Reg::R8, Reg::R7, Reg::R4);
        b.prob_cmp(CmpOp::Eq, Reg::R8, 1);
        b.prob_jmp(None, join);
        b.add(Reg::R3, Reg::R3, 1);
        b.bind(join);
        b.add(Reg::R2, Reg::R2, 1);
        b.br(CmpOp::Lt, Reg::R2, iters, top);
        b.out(Reg::R3, 0);
        b.halt();
        b.build().unwrap()
    }

    fn configs() -> Vec<SimConfig> {
        let mut v = Vec::new();
        for pbs in [false, true] {
            for p in [PredictorChoice::Tournament, PredictorChoice::TageScL] {
                let mut cfg = SimConfig::default().predictor(p);
                if pbs {
                    cfg = cfg.with_pbs();
                }
                cfg.collect_branch_trace = true;
                v.push(cfg);
            }
        }
        v
    }

    /// The reference engine: re-emulates with a live memory hierarchy.
    fn reference(p: &Program, cfg: &SimConfig) -> Result<SimReport, EmuError> {
        Simulation::new(EngineKind::Reference).run(p, cfg)
    }

    fn replay(trace: &DynTrace, cfg: &SimConfig) -> Result<SimReport, EmuError> {
        Simulation::default().replay(trace, cfg)
    }

    #[test]
    fn capture_then_replay_equals_reference_for_every_config() {
        let p = workload(3000);
        for cfg in configs() {
            let direct = reference(&p, &cfg).unwrap();
            let trace = DynTrace::capture(&p, &cfg).unwrap();
            assert_eq!(trace.instructions(), direct.timing.instructions);
            let replayed = replay(&trace, &cfg).unwrap();
            assert_eq!(replayed, direct, "replay drift under {cfg:?}");
        }
    }

    #[test]
    fn one_trace_serves_many_timing_configs() {
        let p = workload(2000);
        let key = SimConfig::default().with_pbs();
        let trace = DynTrace::capture(&p, &key).unwrap();
        for predictor in [
            PredictorChoice::Tournament,
            PredictorChoice::TageScL,
            PredictorChoice::StaticTaken,
        ] {
            let cfg = SimConfig::default().with_pbs().predictor(predictor);
            let direct = reference(&p, &cfg).unwrap();
            let replayed = replay(&trace, &cfg).unwrap();
            assert_eq!(replayed, direct, "replay drift for {predictor:?}");
        }
    }

    #[test]
    fn tape_fed_passes_equal_the_reference_for_every_config() {
        // ~170k instructions: three chunks.
        let p = workload(10_000);
        for narrow in configs() {
            let wide = SimConfig {
                core: crate::OooConfig::wide(),
                ..narrow.clone()
            };
            let mut filtered = narrow.clone();
            filtered.filter_prob_from_predictor = true;
            for cfg in [narrow, wide, filtered] {
                let direct = reference(&p, &cfg).unwrap();
                let trace = DynTrace::capture(&p, &cfg).unwrap();
                assert!(trace.chunk_count() > 1);
                let sim = Simulation::default();
                // The tape a replay records equals the predictor-only
                // pass's, and either one feeds both kinds of pass.
                let (replayed, tape) = sim.replay_taped(&trace, &cfg, None).unwrap();
                let (counted, counted_tape) =
                    sim.replay_branches_taped(&trace, &cfg, None).unwrap();
                let tape = tape.expect("a live replay records its tape");
                assert_eq!(
                    Some(&tape),
                    counted_tape.as_ref(),
                    "tapes differ under {cfg:?}"
                );
                assert_eq!(replayed, direct, "replay drift under {cfg:?}");
                assert_eq!(counted, direct.timing.into());
                assert_eq!(tape.stats(), counted);
                assert_eq!(
                    sim.replay_taped(&trace, &cfg, Some(&tape)).unwrap(),
                    (direct.clone(), None),
                    "tape-fed replay drift under {cfg:?}"
                );
                assert_eq!(
                    sim.replay_branches_taped(&trace, &cfg, Some(&tape))
                        .unwrap(),
                    (counted, None)
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "tape recorded under a different predictor or filter mode")]
    fn replay_rejects_another_predictors_tape() {
        let p = workload(100);
        let cfg = SimConfig::default().predictor(PredictorChoice::Tournament);
        let trace = DynTrace::capture(&p, &cfg).unwrap();
        let (_, tape) = Simulation::default()
            .replay_branches_taped(&trace, &cfg, None)
            .unwrap();
        let tage = SimConfig::default().predictor(PredictorChoice::TageScL);
        let _ = Simulation::default().replay_taped(&trace, &tage, tape.as_ref());
    }

    #[test]
    fn trace_spans_multiple_chunks_on_long_runs() {
        let p = workload(TRACE_CHUNK_RECORDS as i64 / 4);
        let cfg = SimConfig::default();
        let trace = DynTrace::capture(&p, &cfg).unwrap();
        assert!(trace.chunk_count() > 1, "chunks: {}", trace.chunk_count());
        assert!(trace.bytes() > 0);
        let total: usize = trace.chunks().iter().map(TraceChunk::len).sum();
        assert_eq!(total as u64, trace.instructions());
        assert_eq!(replay(&trace, &cfg), reference(&p, &cfg));
    }

    /// One record as a consumer reads it back: `(pc, branch, istall,
    /// dlat)`.
    type Rec = (u32, Option<BranchEvent>, u8, u8);

    /// Collects every record [`walk_chunk`] yields over `timings`,
    /// checking that each comes with its pc's timing entry.
    struct Collect<'a> {
        timings: &'a [InstTiming],
        recs: Vec<Rec>,
    }

    impl ChunkVisitor for Collect<'_> {
        fn plain(&mut self, pc: u32, t: &InstTiming, istall: u8, dlat: u8) {
            assert_eq!(t, &self.timings[pc as usize]);
            self.recs.push((pc, None, istall, dlat));
        }

        fn branch(&mut self, pc: u32, t: &InstTiming, istall: u8, dlat: u8, ev: BranchEvent) {
            assert_eq!(t, &self.timings[pc as usize]);
            self.recs.push((pc, Some(ev), istall, dlat));
        }
    }

    /// The record-level oracle: the reference interpreter's
    /// `Emulator::step()` stream, with each record's latencies from a
    /// full `MemoryHierarchy::default()` walk (fetch at `pc·8`, then the
    /// data access of a load). It shares no code with the capture loop,
    /// the chunk writer or the `itouched` shortcut, and checks every
    /// record a chunk walk yields against the next one it produces.
    struct Oracle {
        emu: Emulator,
        hierarchy: MemoryHierarchy,
        seen: u64,
        /// Records checked with a nonzero fetch stall.
        stalled: u64,
    }

    impl Oracle {
        fn check(&mut self, got: Rec, t: &InstTiming) {
            let d = self
                .emu
                .step()
                .unwrap()
                .expect("the trace outruns the reference stream");
            assert_eq!(t, &InstTiming::of(&d.inst), "record {}", self.seen);
            let istall = self.hierarchy.inst_access(d.pc as u64 * 8);
            let dlat = match d.inst {
                probranch_isa::Inst::Load { .. } => self
                    .hierarchy
                    .data_access(d.mem_addr.expect("loads carry an address")),
                _ => 0,
            };
            let (pc, branch, got_istall, got_dlat) = got;
            assert_eq!(
                (pc, branch, got_istall as u64, got_dlat as u64),
                (d.pc, d.branch, istall, dlat),
                "record {}",
                self.seen
            );
            self.seen += 1;
            self.stalled += u64::from(istall > 0);
        }
    }

    impl ChunkVisitor for Oracle {
        fn plain(&mut self, pc: u32, t: &InstTiming, istall: u8, dlat: u8) {
            self.check((pc, None, istall, dlat), t);
        }

        fn branch(&mut self, pc: u32, t: &InstTiming, istall: u8, dlat: u8, ev: BranchEvent) {
            self.check((pc, Some(ev), istall, dlat), t);
        }
    }

    /// Walks every chunk of `trace` — a capture of `program` under
    /// `cfg`, or a load of one — through the record-level oracle, so the
    /// derived pc stream is the reference stream, and checks that the
    /// chunks chain: the first enters at pc 0 with an empty return
    /// stack, each later one at the previous one's derived exit state,
    /// and the last one exits in the reference emulator's final state.
    /// Returns the oracle, done, and how many chunks entered inside a
    /// call.
    fn check_records(
        program: &Program,
        cfg: &SimConfig,
        trace: &DynTrace,
        at: &str,
    ) -> (Oracle, usize) {
        let emu = match &cfg.pbs {
            Some(p) => {
                Emulator::with_pbs(program.clone(), cfg.emu.clone(), PbsUnit::new(p.clone()))
            }
            None => Emulator::new(program.clone(), cfg.emu.clone()),
        };
        let mut oracle = Oracle {
            emu,
            hierarchy: MemoryHierarchy::default(),
            seen: 0,
            stalled: 0,
        };
        let mut exit = FlowState::default();
        let mut in_calls = 0;
        for (i, chunk) in trace.chunks().iter().enumerate() {
            assert!(
                chunk.enters_at(&exit),
                "{at}: chunk {i} enters at pc {} over {:?}, not at {exit:?}",
                chunk.entry_pc,
                chunk.entry_stack
            );
            in_calls += usize::from(!exit.stack.is_empty());
            walk_chunk(chunk, trace.timings(), trace.flow(), &mut oracle);
            exit = trace
                .flow()
                .derive(chunk, cfg.emu.max_call_depth, &mut ())
                .expect("a walked chunk derives");
        }
        assert_eq!(oracle.emu.step().unwrap(), None, "{at}: trace ends early");
        assert_eq!(oracle.seen, trace.instructions(), "{at}");
        let end = FlowState {
            pc: oracle.emu.pc(),
            stack: oracle.emu.call_stack().to_vec(),
        };
        assert_eq!(exit, end, "{at}: exit state");
        (oracle, in_calls)
    }

    #[test]
    fn captured_records_match_the_reference_stream_and_a_full_cache_walk() {
        use probranch_workloads::{BenchmarkId, Scale};
        let mut in_calls = 0;
        for id in BenchmarkId::ALL {
            let program = id.build(Scale::Smoke, 1).program();
            for pbs in [false, true] {
                let cfg = if pbs {
                    SimConfig::default().with_pbs()
                } else {
                    SimConfig::default()
                };
                for interp in [false, true] {
                    let trace = on_tier(interp, || DynTrace::capture(&program, &cfg)).unwrap();
                    let at = format!("{id:?}, PBS {pbs}, interp {interp}");
                    in_calls += check_records(&program, &cfg, &trace, &at).1;
                }
            }
        }
        assert!(in_calls > 0, "no chunk entered inside a call");
    }

    /// A loop whose straight-line body of 5,000 instructions, a quarter
    /// of them loads, outgrows the L1-I: capture runs no blocks and no
    /// `itouched` shortcut, and every pass over the body misses every
    /// line again.
    fn l1i_buster(iters: i64) -> Program {
        let mut b = ProgramBuilder::new();
        let top = b.label("top");
        b.li(Reg::R9, 64);
        b.li(Reg::R2, 0);
        b.bind(top);
        for i in 0..1250 {
            b.add(Reg::R1, Reg::R1, 1);
            b.ld(Reg::R3, Reg::R9, 8 * (i % 512));
            b.add(Reg::R4, Reg::R4, Reg::R3);
            b.st(Reg::R1, Reg::R9, 8 * (i % 512));
        }
        b.add(Reg::R2, Reg::R2, 1);
        b.br(CmpOp::Lt, Reg::R2, iters, top);
        b.out(Reg::R4, 0);
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn dense_stalls_round_trip_through_capture_the_reader_and_the_walk() {
        let program = l1i_buster(14);
        let cfg = SimConfig::default();
        let trace = DynTrace::capture(&program, &cfg).unwrap();
        assert!(trace.chunk_count() > 1);
        let stream = TraceStream::new(&program, &cfg);
        assert!(stream.itouched.is_empty() && stream.blocks.compiled_blocks() == 0);
        let path = std::env::temp_dir().join(format!("probranch-dense-{}.bin", std::process::id()));
        trace.write_file(&path, 7).unwrap();
        let loaded = DynTrace::read_file(&path, 7, &cfg).expect("load");
        std::fs::remove_file(&path).unwrap();
        assert_eq!(loaded, trace);
        for (t, at) in [(&trace, "captured"), (&loaded, "loaded")] {
            let (oracle, _) = check_records(&program, &cfg, t, at);
            // One stall per line per pass, at least: an eighth of the
            // records.
            assert!(
                oracle.stalled * 8 >= oracle.seen,
                "{at}: {} stalls in {} records",
                oracle.stalled,
                oracle.seen
            );
            let stalls: usize = t.chunks().iter().map(|c| c.stalls.len()).sum();
            assert_eq!(stalls as u64, oracle.stalled, "{at}");
        }
        assert_eq!(
            Simulation::default().replay(&loaded, &cfg),
            reference(&program, &cfg)
        );
    }

    /// Records of `trace` that are loads or carry a fetch stall, counted
    /// through the walk.
    #[derive(Default)]
    struct Tally {
        loads: usize,
        stalls: usize,
    }

    impl ChunkVisitor for Tally {
        fn plain(&mut self, _: u32, t: &InstTiming, istall: u8, _: u8) {
            self.loads += usize::from(t.is_load());
            self.stalls += usize::from(istall > 0);
        }

        fn branch(&mut self, pc: u32, t: &InstTiming, istall: u8, dlat: u8, _: BranchEvent) {
            self.plain(pc, t, istall, dlat);
        }
    }

    #[test]
    fn a_captured_trace_holds_no_bytes_per_record() {
        use probranch_workloads::{BenchmarkId, Scale};
        for id in BenchmarkId::ALL {
            for cfg in [SimConfig::default(), SimConfig::default().with_pbs()] {
                let trace = DynTrace::capture(&id.build(Scale::Smoke, 1).program(), &cfg).unwrap();
                let mut tally = Tally::default();
                let mut entries = 0;
                for chunk in trace.chunks() {
                    walk_chunk(chunk, trace.timings(), trace.flow(), &mut tally);
                    entries += 4 * chunk.entry_stack.len();
                }
                let branches: usize = trace.chunks().iter().map(TraceChunk::branch_count).sum();
                let f = trace.functional();
                let results = f.prob_consumed.capacity() * 8
                    + f.outputs
                        .iter()
                        .map(|(_, v)| v.capacity() * 8)
                        .sum::<usize>();
                // 1 B per branch, 1 B per load, 5 B per stall, and each
                // chunk's return stack at entry; the entry pc and the
                // counts sit in the chunk itself.
                let records = branches + tally.loads + 5 * tally.stalls + entries;
                let tables = std::mem::size_of_val(trace.timings()) + trace.flow().bytes();
                let bound = records + tables + results;
                assert!(
                    trace.bytes() <= bound,
                    "{id:?} under {:?}: {} bytes for {} records, bound {bound}",
                    cfg.pbs.is_some(),
                    trace.bytes(),
                    trace.instructions()
                );
            }
        }
    }

    /// One write into a chunk: a record through
    /// [`ChunkWriter::emit_record`], or a straight-line span of `n`
    /// records from a pc through [`ChunkWriter::emit_straight`].
    enum Write {
        Record(Rec),
        Straight(u32, u32),
    }

    /// Whether `pc` is a load in [`tables`].
    fn is_load_pc(pc: u32) -> bool {
        pc % 3 == 0
    }

    /// The kinds of [`tables`]' control ops, in turn.
    const KINDS: [FlowKind; 5] = [
        FlowKind::Cond,
        FlowKind::Prob,
        FlowKind::Jmp,
        FlowKind::Call,
        FlowKind::Ret,
    ];

    /// The timing and flow tables of a program for hand-written
    /// chunks, 8 Ki pcs long: every third pc is a load, and every
    /// sixteenth a control op, of the [`KINDS`] in turn, jumping to a
    /// pc spread over the table.
    fn tables() -> (Vec<InstTiming>, FlowTable) {
        let timings = (0..8192)
            .map(|pc| {
                let class = if is_load_pc(pc) {
                    ExecClass::Load
                } else {
                    ExecClass::IntAlu
                };
                InstTiming {
                    uses: [0; 4],
                    n_uses: 0,
                    defs: [0; 2],
                    n_defs: 0,
                    class: class.index() as u8,
                }
            })
            .collect();
        let ops: Vec<_> = (0..8192u32)
            .map(|pc| match pc % 16 {
                15 => {
                    let kind = KINDS[(pc / 16) as usize % KINDS.len()];
                    let target = if kind.has_target() {
                        pc.wrapping_mul(7919) % 8192
                    } else {
                        0
                    };
                    (kind, target)
                }
                _ => (FlowKind::None, 0),
            })
            .collect();
        (timings, FlowTable::from_ops(&ops).unwrap())
    }

    /// The latency a straight-line span reports for its load at `pc`.
    fn span_dlat(pc: u32) -> u8 {
        (pc % 251) as u8 + 1
    }

    /// Every branch event a record could carry: each kind × taken ×
    /// prob.
    fn every_branch_event() -> Vec<BranchEvent> {
        let kinds = [
            BranchEventKind::Conditional,
            BranchEventKind::PbsDirected,
            BranchEventKind::Unconditional,
            BranchEventKind::Call,
            BranchEventKind::Ret,
        ];
        let mut events = Vec::new();
        for kind in kinds {
            for taken in [false, true] {
                for is_prob in [false, true] {
                    events.push(BranchEvent {
                        taken,
                        kind,
                        is_prob,
                    });
                }
            }
        }
        events
    }

    /// Up to `n` writes that follow `flow` from `entry`, and the state
    /// they leave: at a pc that is not a control op, one plain record or
    /// a straight span up to the next control op (zero-length spans
    /// included); at a control op, its record, with a random branch byte
    /// of its kind. Stops where a capture would fault or leave the
    /// program — at a `ret` on an empty stack, or past the table's end.
    /// A record at a load pc carries a latency, every other one 0.
    fn follow(
        flow: &FlowTable,
        entry: FlowState,
        n: usize,
        rng: &mut probranch_rng::SplitMix64,
    ) -> (Vec<Write>, FlowState) {
        use probranch_rng::UniformSource;
        let mut state = entry;
        let mut writes = Vec::new();
        while writes.len() < n {
            let pc = state.pc;
            let Some(&f) = flow.pcs.get(pc as usize) else {
                break;
            };
            let r = rng.next_u64();
            let dlat = |d: u64| if is_load_pc(pc) { d as u8 } else { 0 };
            if f.next != pc {
                if r % 2 == 0 {
                    writes.push(Write::Record((pc, None, (r >> 8) as u8, dlat(r >> 16))));
                    state.pc += 1;
                } else {
                    let len = (r >> 8) as u32 % (f.next - pc + 1);
                    writes.push(Write::Straight(pc, len));
                    state.pc += len;
                }
                continue;
            }
            let taken = (r >> 8) & 1 == 1;
            let (taken, kind, is_prob) = match f.kind {
                FlowKind::Cond => (taken, BranchEventKind::Conditional, false),
                FlowKind::Prob if (r >> 9) & 1 == 1 => (taken, BranchEventKind::PbsDirected, true),
                FlowKind::Prob => (taken, BranchEventKind::Conditional, true),
                FlowKind::Jmp => (true, BranchEventKind::Unconditional, false),
                FlowKind::Call => (true, BranchEventKind::Call, false),
                FlowKind::Ret => (true, BranchEventKind::Ret, false),
                FlowKind::None => unreachable!("handled above"),
            };
            state.pc = match f.kind {
                FlowKind::Call => {
                    state.stack.push(pc + 1);
                    f.target
                }
                FlowKind::Ret => match state.stack.pop() {
                    Some(ra) => ra,
                    None => break,
                },
                _ if taken => f.target,
                _ => pc + 1,
            };
            let ev = BranchEvent {
                taken,
                kind,
                is_prob,
            };
            writes.push(Write::Record((
                pc,
                Some(ev),
                (r >> 16) as u8,
                dlat(r >> 24),
            )));
        }
        (writes, state)
    }

    /// Writes `writes` into a fresh chunk entered at `entry` through its
    /// writer — a load record's latency through [`ChunkWriter::load`] —
    /// and checks that the chunk walk over [`tables`], the branch count,
    /// the latency streams, the derived exit state and the predictor
    /// requests [`ChunkReqs::build`] derives reproduce them. The writes
    /// must follow the flow table from `entry` to `exit`, and a record
    /// that is not a load must have `dlat = 0`, as in every capture.
    fn assert_round_trip(entry: &FlowState, writes: &[Write], exit: &FlowState) {
        let (timings, flow) = tables();
        let mut want: Vec<Rec> = Vec::new();
        for write in writes {
            match *write {
                Write::Record(rec) => want.push(rec),
                Write::Straight(start, n) => want.extend((start..start + n).map(|pc| {
                    let dlat = if is_load_pc(pc) { span_dlat(pc) } else { 0 };
                    (pc, None, 0, dlat)
                })),
            }
        }
        let mut chunk = TraceChunk::default();
        let mut w = chunk.begin_fill(entry.pc, &entry.stack);
        for write in writes {
            match *write {
                Write::Record((pc, branch, istall, dlat)) => {
                    if is_load_pc(pc) {
                        w.load(dlat);
                    }
                    w.emit_record(encode_branch(branch), istall);
                }
                Write::Straight(start, n) => {
                    for pc in (start..start + n).filter(|&pc| is_load_pc(pc)) {
                        w.load(span_dlat(pc));
                    }
                    w.emit_straight(n);
                }
            }
        }

        let mut got = Collect {
            timings: &timings,
            recs: Vec::new(),
        };
        walk_chunk(&chunk, &timings, &flow, &mut got);
        assert_eq!(got.recs, want);
        assert_eq!(chunk.len(), want.len());
        assert!(chunk.enters_at(entry));
        assert_eq!(
            flow.derive(&chunk, usize::MAX, &mut ()).as_ref(),
            Some(exit)
        );
        let branches = want.iter().filter(|r| r.1.is_some()).count();
        assert_eq!(chunk.branch_count(), branches);
        // Nothing per record: one latency per load, one entry per stall.
        let loads = want.iter().filter(|r| is_load_pc(r.0)).count();
        assert_eq!(chunk.dlats.len(), loads);
        assert_eq!(chunk.stalls.len(), want.iter().filter(|r| r.2 != 0).count());
        let (reqs, prob): (Vec<BranchReq>, Vec<bool>) = want
            .iter()
            .filter_map(|&(pc, branch, ..)| match branch {
                Some(ev) if ev.kind == BranchEventKind::Conditional => {
                    Some((BranchReq::new(pc as u64, ev.taken), ev.is_prob))
                }
                _ => None,
            })
            .unzip();
        let mut built = ChunkReqs::default();
        built.build(&chunk, &flow);
        assert_eq!((&built.reqs, &built.prob), (&reqs, &prob));
    }

    #[test]
    fn chunk_writer_round_trips_through_the_walk_and_the_request_rebuild() {
        use probranch_rng::{SplitMix64, UniformSource};
        let (_, flow) = tables();
        let dlat = |pc: u32, d: u8| if is_load_pc(pc) { d } else { 0 };
        // The empty chunk.
        let start = FlowState::default();
        assert_round_trip(&start, &[], &start);
        // Every branch byte an op can produce, alone, at an op of its
        // kind entered over a one-entry stack; no byte fits two kinds.
        let mut fitting = 0;
        for ev in every_branch_event() {
            let byte = encode_branch(Some(ev));
            let kinds: Vec<FlowKind> = KINDS.into_iter().filter(|k| k.fits(byte)).collect();
            let [kind] = kinds[..] else {
                assert!(kinds.is_empty(), "{ev:?} fits {kinds:?}");
                continue;
            };
            fitting += 1;
            let pc = (0..8192u32)
                .find(|&pc| flow.pcs[pc as usize].next == pc && flow.pcs[pc as usize].kind == kind)
                .unwrap();
            let target = flow.pcs[pc as usize].target;
            let (next, stack) = match kind {
                FlowKind::Call => (target, vec![77, pc + 1]),
                FlowKind::Ret => (77, vec![]),
                _ if ev.taken => (target, vec![77]),
                _ => (pc + 1, vec![77]),
            };
            let entry = FlowState {
                pc,
                stack: vec![77],
            };
            let write = Write::Record((pc, Some(ev), 3, dlat(pc, 9)));
            assert_round_trip(&entry, &[write], &FlowState { pc: next, stack });
        }
        // Two conditional bytes, four `PROB_JMP` ones, one each for a
        // jump, a call and a return.
        assert_eq!(fitting, 9);
        // Arbitrary walks from arbitrary entry states — stalls dense
        // enough to split most spans, calls and returns nesting over the
        // entry stack.
        let mut rng = SplitMix64::seed(17);
        for _ in 0..300 {
            let r = rng.next_u64();
            let depth = (r >> 20) % 4;
            let entry = FlowState {
                pc: (r % 8192) as u32,
                stack: (0..depth)
                    .map(|i| ((r >> (24 + 8 * i)) % 8192) as u32)
                    .collect(),
            };
            let n = (r >> 13) as usize % 64;
            let (writes, exit) = follow(&flow, entry.clone(), n, &mut rng);
            assert_round_trip(&entry, &writes, &exit);
        }
    }

    /// A loop whose first body op is a load walking off the end of
    /// memory: the loop block is warm by the time the load faults, so
    /// the generated tier faults at body index 0 and reports an empty
    /// straight-line span.
    fn faulting_loop() -> (Program, SimConfig) {
        let mut b = ProgramBuilder::new();
        let top = b.label("top");
        let cfg = SimConfig::default();
        // 100 iterations before the address leaves memory.
        b.li(Reg::R1, 8 * (cfg.emu.mem_words as i64 - 100));
        b.li(Reg::R2, 0);
        b.bind(top);
        b.ld(Reg::R3, Reg::R1, 0);
        b.add(Reg::R1, Reg::R1, 8);
        b.add(Reg::R2, Reg::R2, Reg::R3);
        b.br(CmpOp::Lt, Reg::R2, i64::MAX, top);
        b.halt();
        (b.build().unwrap(), cfg)
    }

    #[test]
    fn a_warm_block_faulting_at_its_first_op_leaves_the_interpreters_chunk() {
        let (program, cfg) = faulting_loop();
        let fill = |interp| {
            on_tier(interp, || {
                let mut stream = TraceStream::new(&program, &cfg);
                assert_eq!(stream.blocks.compiled_blocks() > 0, !interp);
                let mut chunk = TraceChunk::default();
                (stream.fill(&mut chunk), chunk)
            })
        };
        let (generated, chunk) = fill(false);
        let (interp, interp_chunk) = fill(true);
        assert!(
            matches!(generated, Err(EmuError::MemoryFault { .. })),
            "{generated:?}"
        );
        assert_eq!(generated, interp);
        assert_eq!(chunk, interp_chunk);
        // The records before the fault: two setup instructions and 100
        // iterations, ending on the loop's branch back to the faulting
        // load at pc 2.
        assert_eq!(chunk.len(), 2 + 100 * 4);
        assert_eq!(chunk.branch_count(), 100);
        let flow = FlowTable::of(&DecodedProgram::of(&program));
        assert_eq!(
            flow.derive(&chunk, usize::MAX, &mut ()),
            Some(FlowState {
                pc: 2,
                stack: Vec::new()
            })
        );
    }

    #[test]
    fn capture_reports_inst_limit_like_the_reference_engine() {
        let p = workload(100_000);
        for max_insts in [1, 2, 1000, TRACE_CHUNK_RECORDS as u64 + 1] {
            let cfg = SimConfig {
                max_insts,
                ..SimConfig::default()
            };
            let direct = reference(&p, &cfg);
            let captured = DynTrace::capture(&p, &cfg).map(|_| ());
            assert_eq!(
                captured.unwrap_err(),
                direct.unwrap_err(),
                "limit {max_insts}"
            );
        }
    }

    #[test]
    fn replay_honours_a_smaller_instruction_budget() {
        let p = workload(500);
        let key = SimConfig::default();
        let trace = DynTrace::capture(&p, &key).unwrap();
        let tight = SimConfig {
            max_insts: trace.instructions(),
            ..SimConfig::default()
        };
        assert_eq!(replay(&trace, &tight), reference(&p, &tight));
    }

    #[test]
    #[should_panic(expected = "replay PBS config differs")]
    fn replay_rejects_mismatched_pbs_key() {
        let p = workload(100);
        let trace = DynTrace::capture(&p, &SimConfig::default()).unwrap();
        let _ = replay(&trace, &SimConfig::default().with_pbs());
    }
}
