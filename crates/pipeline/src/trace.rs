//! Trace capture and replay: emulate once, time many.
//!
//! Every timing cell that shares an *emulation key* — the workload
//! instance plus the architectural configuration `(PBS config, emulator
//! config)` — executes the same dynamic instruction stream: the
//! predictor, the core width, the Figure 9 filter switch and branch
//! tracing live entirely in the timing model and feed nothing back into
//! the emulator. This module makes that stream a first-class artifact:
//!
//! * [`TraceStream`] — the capture half: drains the emulator's
//!   [`StepRecord`](crate::StepRecord) stream (branch outcomes and
//!   prob-branch resolutions ride inside the records) into
//!   structure-of-arrays [`TraceChunk`]s, pre-simulating the memory
//!   hierarchy — whose evolution also depends only on the pc/address
//!   stream — into per-record latencies along the way;
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
//!   position-only feed;
//! * `BranchCounter` — the predictor-only pass: the same batch
//!   prediction with no timing model behind it, counting branches and
//!   mispredictions into a [`BranchStats`](crate::BranchStats).
//!
//! # Structure-of-arrays chunk layout
//!
//! A chunk stores its records as parallel `pc` / `istall` / `dlat`
//! streams plus a **run-length index over non-branch runs**: the
//! branch-event byte is zero for the large majority of dynamic
//! instructions (~80% on the paper workloads), so instead of an
//! interleaved 8-byte [`ReplayRec`] per record — whose branch byte every
//! consumer re-tests — the chunk stores one length per non-branch run
//! and a dense stream of the (non-zero) branch bytes. A consumer never
//! scans for branches at all: [`walk_chunk`] iterates whole non-branch
//! spans through a branch-free specialization of the cycle-accounting
//! core (the `branch: None` match arm constant-folds away) and decodes
//! exactly one branch event per run. The AoS [`ReplayRec`] view remains
//! available through [`TraceChunk::push`] / [`TraceChunk::records`] and
//! round-trips byte-identically (property-tested).
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

use std::sync::Arc;

use probranch_core::{PbsConfig, PbsStats, PbsUnit};
use probranch_isa::{ExecClass, Program};
use probranch_mmap::Mmap;
use probranch_predictor::{BranchPredictor, BranchReq, PredictorDispatch};

use probranch_faults as faults;

use crate::aot::{BlockProgram, CaptureTier};
use crate::cache::MemoryHierarchy;
use crate::decode::InstTiming;
use crate::machine::{BranchEvent, BranchEventKind, EmuConfig, EmuError, Emulator, StepRecord};
use crate::ooo::{BranchStats, OooTimingModel};
use crate::sim::{SimConfig, SimReport};

/// Records per [`TraceChunk`]: 64 Ki records — small enough to stay
/// cache-resident while a convoy drains it through several consumers
/// (and the bounded-memory figure for streaming convoys), large enough
/// to amortize the per-chunk bookkeeping and consumer switches. In the
/// SoA layout a full chunk is 6 bytes of stream data per record
/// (384 KiB) plus the run index.
pub const TRACE_CHUNK_RECORDS: usize = 1 << 16;

/// One dynamic instruction of a captured trace, as an 8-byte
/// array-of-structs value.
///
/// This is the *record view* of the trace: [`TraceChunk`] stores the
/// same fields as parallel streams (see the module docs) and converts
/// losslessly to and from this form ([`TraceChunk::push`] /
/// [`TraceChunk::records`]). A timing-only pass needs less than the
/// 16-byte live [`StepRecord`](crate::StepRecord): the data address is replaced by its
/// pre-simulated cache latency, and the branch event fits one byte.
///
/// The two latency fields are exact pre-simulations of the timing
/// model's `MemoryHierarchy::default()`: the hierarchy is deterministic
/// given the interleaved access stream (instruction fetch, then the
/// data access for loads, in program order), and that stream is fixed
/// by the trace — so capture resolves the cache model once and replay
/// consumers read two bytes instead of re-simulating three LRU caches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayRec {
    /// PC of the instruction.
    pub pc: u32,
    /// Packed branch event; see [`ReplayRec::branch`].
    branch: u8,
    /// Extra front-end stall cycles of the instruction fetch (0 on an
    /// L1-I hit).
    pub istall: u8,
    /// Load-to-use latency for loads; 0 for every other class.
    pub dlat: u8,
}

const BR_PRESENT: u8 = 1 << 0;
const BR_TAKEN: u8 = 1 << 1;
const BR_PROB: u8 = 1 << 2;
const BR_KIND_SHIFT: u32 = 3;

/// Packs a branch resolution into the trace's one-byte encoding (0 for
/// a non-branch record).
#[inline]
pub(crate) fn encode_branch(branch: Option<BranchEvent>) -> u8 {
    match branch {
        None => 0,
        Some(ev) => {
            let kind = match ev.kind {
                BranchEventKind::Conditional => 0u8,
                BranchEventKind::PbsDirected => 1,
                BranchEventKind::Unconditional => 2,
                BranchEventKind::Call => 3,
                BranchEventKind::Ret => 4,
            };
            BR_PRESENT
                | (BR_TAKEN * ev.taken as u8)
                | (BR_PROB * ev.is_prob as u8)
                | (kind << BR_KIND_SHIFT)
        }
    }
}

/// Decodes a (non-zero) packed branch byte, exactly as the live
/// [`StepRecord`](crate::StepRecord) carried it.
#[inline(always)]
fn decode_branch(byte: u8) -> BranchEvent {
    debug_assert!(byte & BR_PRESENT != 0);
    let kind = match byte >> BR_KIND_SHIFT {
        0 => BranchEventKind::Conditional,
        1 => BranchEventKind::PbsDirected,
        2 => BranchEventKind::Unconditional,
        3 => BranchEventKind::Call,
        _ => BranchEventKind::Ret,
    };
    BranchEvent {
        taken: byte & BR_TAKEN != 0,
        kind,
        is_prob: byte & BR_PROB != 0,
    }
}

impl ReplayRec {
    /// A record from its parts (test and property-check constructor;
    /// capture packs directly into the SoA streams).
    pub fn new(pc: u32, branch: Option<BranchEvent>, istall: u8, dlat: u8) -> ReplayRec {
        ReplayRec {
            pc,
            branch: encode_branch(branch),
            istall,
            dlat,
        }
    }

    /// The branch resolution, exactly as the live [`StepRecord`](crate::StepRecord)
    /// carried it.
    #[inline(always)]
    pub fn branch(&self) -> Option<BranchEvent> {
        if self.branch & BR_PRESENT == 0 {
            None
        } else {
            Some(decode_branch(self.branch))
        }
    }
}

// ---- stream backing -------------------------------------------------------

/// A borrowed byte region of a persisted trace file's read-only memory
/// map. Every stream of every chunk loaded from one file shares the one
/// `Arc`'d map; the view adds only a range.
#[derive(Clone)]
pub(crate) struct ByteView {
    map: Arc<Mmap>,
    start: usize,
    len: usize,
}

impl ByteView {
    /// A view of `map[start..start + len]`.
    pub(crate) fn new(map: Arc<Mmap>, start: usize, len: usize) -> ByteView {
        debug_assert!(start.checked_add(len).is_some_and(|end| end <= map.len()));
        ByteView { map, start, len }
    }

    #[inline(always)]
    pub(crate) fn as_slice(&self) -> &[u8] {
        &self.map.as_slice()[self.start..self.start + self.len]
    }
}

impl std::fmt::Debug for ByteView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ByteView")
            .field("start", &self.start)
            .field("len", &self.len)
            .finish()
    }
}

/// A chunk's `u8` stream: owned by capture, or a zero-copy view over a
/// mapped trace file. Consumers read either backing as one `&[u8]`.
#[derive(Debug, Clone)]
pub(crate) enum U8s {
    /// Capture-side buffer.
    Owned(Vec<u8>),
    /// Borrowed bytes of a mapped file (persistence load path).
    Mapped(ByteView),
}

impl U8s {
    #[inline(always)]
    pub(crate) fn as_slice(&self) -> &[u8] {
        match self {
            U8s::Owned(v) => v,
            U8s::Mapped(b) => b.as_slice(),
        }
    }

    fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// The owned buffer — capture-side mutation only. Mapped streams
    /// are immutable by construction; reaching this on one is a bug.
    fn owned_mut(&mut self) -> &mut Vec<u8> {
        match self {
            U8s::Owned(v) => v,
            U8s::Mapped(_) => unreachable!("mapped chunk streams are immutable"),
        }
    }

    /// Empties the stream; a mapped backing reverts to an owned one.
    fn clear(&mut self) {
        match self {
            U8s::Owned(v) => v.clear(),
            m => *m = U8s::default(),
        }
    }

    fn shrink_to_fit(&mut self) {
        if let U8s::Owned(v) = self {
            v.shrink_to_fit();
        }
    }

    /// Heap bytes held — 0 for a mapped view: the pages behind it are
    /// the OS page cache's to keep or reclaim, not pool-owned memory.
    fn heap_bytes(&self) -> usize {
        match self {
            U8s::Owned(v) => v.capacity(),
            U8s::Mapped(_) => 0,
        }
    }
}

impl Default for U8s {
    fn default() -> U8s {
        U8s::Owned(Vec::new())
    }
}

impl PartialEq for U8s {
    fn eq(&self, other: &U8s) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// A chunk's `u32` stream: owned by capture, or little-endian bytes
/// over a mapped trace file, decoded on read (one unaligned LE load —
/// free on the targets this runs on, and alignment-independent, so the
/// on-disk layout needs no padding).
#[derive(Debug, Clone)]
pub(crate) enum U32s {
    /// Capture-side buffer.
    Owned(Vec<u32>),
    /// Borrowed little-endian bytes of a mapped file; byte length is a
    /// multiple of 4.
    Mapped(ByteView),
}

impl U32s {
    #[inline(always)]
    pub(crate) fn len(&self) -> usize {
        match self {
            U32s::Owned(v) => v.len(),
            U32s::Mapped(b) => b.len / 4,
        }
    }

    #[inline(always)]
    pub(crate) fn get(&self, i: usize) -> u32 {
        match self {
            U32s::Owned(v) => v[i],
            U32s::Mapped(b) => LeU32s(b.as_slice()).get(i),
        }
    }

    /// The values in order, decoding mapped bytes on the fly. Cold
    /// paths only — the chunk walk monomorphizes over [`U32Slice`]
    /// instead of paying a backing match per element.
    pub(crate) fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// The owned buffer — capture-side mutation only (see
    /// [`U8s::owned_mut`]).
    fn owned_mut(&mut self) -> &mut Vec<u32> {
        match self {
            U32s::Owned(v) => v,
            U32s::Mapped(_) => unreachable!("mapped chunk streams are immutable"),
        }
    }

    /// Empties the stream; a mapped backing reverts to an owned one.
    fn clear(&mut self) {
        match self {
            U32s::Owned(v) => v.clear(),
            m => *m = U32s::default(),
        }
    }

    fn shrink_to_fit(&mut self) {
        if let U32s::Owned(v) = self {
            v.shrink_to_fit();
        }
    }

    /// Heap bytes held — 0 for a mapped view (see [`U8s::heap_bytes`]).
    fn heap_bytes(&self) -> usize {
        match self {
            U32s::Owned(v) => v.capacity() * 4,
            U32s::Mapped(_) => 0,
        }
    }
}

impl Default for U32s {
    fn default() -> U32s {
        U32s::Owned(Vec::new())
    }
}

impl PartialEq for U32s {
    fn eq(&self, other: &U32s) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

/// A borrowed random-access u32 stream for the chunk walk: a native
/// slice (owned chunks) or little-endian bytes (mapped chunks). The
/// walk monomorphizes over this, so neither backing pays a per-record
/// dispatch — the mapped path costs exactly one unaligned LE load per
/// element.
trait U32Slice: Copy {
    /// Element `i`.
    fn get(self, i: usize) -> u32;
    /// The elements of `start..end`, in order.
    fn iter_range(self, start: usize, end: usize) -> impl Iterator<Item = u32>;
}

impl U32Slice for &[u32] {
    #[inline(always)]
    fn get(self, i: usize) -> u32 {
        self[i]
    }

    #[inline(always)]
    fn iter_range(self, start: usize, end: usize) -> impl Iterator<Item = u32> {
        self[start..end].iter().copied()
    }
}

/// Little-endian u32 elements over raw mapped bytes.
#[derive(Clone, Copy)]
struct LeU32s<'a>(&'a [u8]);

impl U32Slice for LeU32s<'_> {
    #[inline(always)]
    fn get(self, i: usize) -> u32 {
        u32::from_le_bytes(self.0[4 * i..4 * i + 4].try_into().expect("4-byte element"))
    }

    #[inline(always)]
    fn iter_range(self, start: usize, end: usize) -> impl Iterator<Item = u32> {
        self.0[4 * start..4 * end]
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte element")))
    }
}

/// One chunk of a dynamic trace in structure-of-arrays form: parallel
/// per-record streams plus a run-length index over non-branch runs (see
/// the module docs).
///
/// Each stream is either **owned** (capture) or a **zero-copy view**
/// over a persisted file's read-only memory map (a v2 warm-start load,
/// see `persist`). Consumers never care which: the chunk walk
/// monomorphizes over the backing and every engine produces
/// byte-identical reports either way. Equality is logical — an owned
/// chunk and its mapped round-trip compare equal.
#[derive(Debug, Clone, Default)]
pub struct TraceChunk {
    /// PC per record, in program order.
    pub(crate) pcs: U32s,
    /// Fetch-stall cycles per record.
    pub(crate) istalls: U8s,
    /// Load-to-use latency per record (0 for non-loads).
    pub(crate) dlats: U8s,
    /// The packed branch byte of every *branch* record, in order —
    /// the zero bytes of non-branch records are elided.
    pub(crate) branches: U8s,
    /// Non-branch run length preceding each entry of `branches`.
    pub(crate) runs: U32s,
    /// Length of the still-open trailing non-branch run (a chunk that
    /// ends on a branch record leaves this 0).
    pub(crate) open_run: u32,
    /// Derived stream: the chunk's *conditional* branches as ready-made
    /// predictor requests, in program order. Built during capture (and
    /// rebuilt after a persistence load), so replay consumers hand it to
    /// [`BranchPredictor::predict_update_batch`] without re-walking the
    /// run index — the unfiltered batch is a borrow, not a copy.
    pub(crate) breqs: Vec<BranchReq>,
    /// Parallel to `breqs`: whether the request's branch was
    /// probabilistic (the Figure 9 filter mode drops those requests).
    pub(crate) breq_prob: Vec<bool>,
}

impl TraceChunk {
    /// An empty chunk with stream capacity for [`TRACE_CHUNK_RECORDS`]
    /// — allocate once, refill per [`TraceStream::fill`] call.
    pub fn with_chunk_capacity() -> TraceChunk {
        TraceChunk {
            pcs: U32s::Owned(Vec::with_capacity(TRACE_CHUNK_RECORDS)),
            istalls: U8s::Owned(Vec::with_capacity(TRACE_CHUNK_RECORDS)),
            dlats: U8s::Owned(Vec::with_capacity(TRACE_CHUNK_RECORDS)),
            // Branch density is workload-dependent; these grow on
            // demand and stabilize after the first refill.
            branches: U8s::default(),
            runs: U32s::default(),
            open_run: 0,
            breqs: Vec::new(),
            breq_prob: Vec::new(),
        }
    }

    /// A chunk directly from its raw streams — the persistence load
    /// path, where the streams may be zero-copy views over the file
    /// map. The derived request stream is *not* built; the caller runs
    /// [`rebuild_breqs`](TraceChunk::rebuild_breqs) after validation.
    pub(crate) fn from_raw_streams(
        pcs: U32s,
        istalls: U8s,
        dlats: U8s,
        branches: U8s,
        runs: U32s,
        open_run: u32,
    ) -> TraceChunk {
        TraceChunk {
            pcs,
            istalls,
            dlats,
            branches,
            runs,
            open_run,
            breqs: Vec::new(),
            breq_prob: Vec::new(),
        }
    }

    /// Number of records in the chunk.
    pub fn len(&self) -> usize {
        self.pcs.len()
    }

    /// Whether the chunk holds no records.
    pub fn is_empty(&self) -> bool {
        self.pcs.len() == 0
    }

    /// Whether the chunk's record streams are zero-copy views over a
    /// mapped trace file rather than owned buffers.
    pub fn is_mapped(&self) -> bool {
        matches!(self.pcs, U32s::Mapped(_))
    }

    /// Number of branch records in the chunk.
    pub fn branch_count(&self) -> usize {
        self.branches.len()
    }

    /// Removes all records, keeping the stream allocations.
    pub fn clear(&mut self) {
        self.pcs.clear();
        self.istalls.clear();
        self.dlats.clear();
        self.branches.clear();
        self.runs.clear();
        self.open_run = 0;
        self.breqs.clear();
        self.breq_prob.clear();
    }

    /// Appends one record in its raw stream form.
    #[inline(always)]
    pub(crate) fn push_raw(&mut self, pc: u32, branch_byte: u8, istall: u8, dlat: u8) {
        self.pcs.owned_mut().push(pc);
        self.istalls.owned_mut().push(istall);
        self.dlats.owned_mut().push(dlat);
        if branch_byte != 0 {
            self.runs.owned_mut().push(self.open_run);
            self.branches.owned_mut().push(branch_byte);
            self.open_run = 0;
            // A conditional branch has kind bits 0: only the present/
            // taken/prob flags may be set.
            if branch_byte & !(BR_TAKEN | BR_PROB) == BR_PRESENT {
                self.breqs
                    .push(BranchReq::new(pc as u64, branch_byte & BR_TAKEN != 0));
                self.breq_prob.push(branch_byte & BR_PROB != 0);
            }
        } else {
            self.open_run += 1;
        }
    }

    /// Returns a cursor writer over zero-filled record streams that
    /// grow lazily toward `budget` slots — the block engine's emission
    /// path. Per-record work becomes plain indexed stores behind one
    /// watermark check, the zero istalls/dlats of each bulk span come
    /// from the growth `memset` for free, and a capture that stops
    /// well short of the budget (short program, tail chunk) never
    /// touches — or faults in — the unused pages a full upfront
    /// pre-size would. The caller trims the streams back to the
    /// records actually written with [`end_fill`](TraceChunk::end_fill).
    pub(crate) fn begin_fill(&mut self, budget: usize) -> ChunkWriter<'_> {
        debug_assert!(self.is_empty() && self.open_run == 0);
        ChunkWriter {
            pcs: self.pcs.owned_mut(),
            istalls: self.istalls.owned_mut(),
            dlats: self.dlats.owned_mut(),
            branches: self.branches.owned_mut(),
            runs: self.runs.owned_mut(),
            breqs: &mut self.breqs,
            breq_prob: &mut self.breq_prob,
            cur: 0,
            open_run: 0,
            sized: 0,
            budget,
        }
    }

    /// Closes a [`begin_fill`](TraceChunk::begin_fill) session: trims
    /// the record streams to the `written` records and installs the
    /// writer's trailing open-run length.
    pub(crate) fn end_fill(&mut self, written: usize, open_run: u32) {
        self.pcs.owned_mut().truncate(written);
        self.istalls.owned_mut().truncate(written);
        self.dlats.owned_mut().truncate(written);
        self.open_run = open_run;
    }

    /// Appends one record from its AoS view.
    pub fn push(&mut self, rec: ReplayRec) {
        self.push_raw(rec.pc, rec.branch, rec.istall, rec.dlat);
    }

    /// The records in program order, reassembled into their AoS view —
    /// the inverse of repeated [`push`](TraceChunk::push) calls, used by
    /// the pack/unpack round-trip tests (hot consumers drain the SoA
    /// streams directly through [`walk_chunk`]).
    pub fn records(&self) -> impl Iterator<Item = ReplayRec> + '_ {
        let run_at = |i: usize| {
            if i < self.runs.len() {
                self.runs.get(i)
            } else {
                self.open_run
            }
        };
        let branches = self.branches.as_slice();
        let istalls = self.istalls.as_slice();
        let dlats = self.dlats.as_slice();
        let mut next_branch = 0usize;
        let mut left_in_run = run_at(0);
        (0..self.pcs.len()).map(move |i| {
            let branch = if left_in_run > 0 {
                left_in_run -= 1;
                0u8
            } else {
                let b = branches[next_branch];
                next_branch += 1;
                left_in_run = run_at(next_branch);
                b
            };
            ReplayRec {
                pc: self.pcs.get(i),
                branch,
                istall: istalls[i],
                dlat: dlats[i],
            }
        })
    }

    /// Drops the slack capacity of every stream (final chunk of a
    /// materialized trace).
    fn shrink_to_fit(&mut self) {
        self.pcs.shrink_to_fit();
        self.istalls.shrink_to_fit();
        self.dlats.shrink_to_fit();
        self.branches.shrink_to_fit();
        self.runs.shrink_to_fit();
        self.breqs.shrink_to_fit();
        self.breq_prob.shrink_to_fit();
    }

    /// Rebuilds the derived request stream from the raw streams — for
    /// chunks reassembled from a persisted trace, whose serialized form
    /// carries only the raw streams.
    pub(crate) fn rebuild_breqs(&mut self) {
        let TraceChunk {
            pcs,
            runs,
            branches,
            breqs,
            breq_prob,
            ..
        } = self;
        breqs.clear();
        breq_prob.clear();
        let mut idx = 0usize;
        for (run, &byte) in runs.iter().zip(branches.as_slice()) {
            idx += run as usize;
            if byte & !(BR_TAKEN | BR_PROB) == BR_PRESENT {
                breqs.push(BranchReq::new(pcs.get(idx) as u64, byte & BR_TAKEN != 0));
                breq_prob.push(byte & BR_PROB != 0);
            }
            idx += 1;
        }
    }

    /// Heap bytes held by the chunk's stream buffers (capacity, not
    /// length — the number that matters for peak-memory accounting).
    /// Mapped streams count 0: their pages belong to the OS page cache,
    /// not the trace pool's budget.
    pub fn bytes(&self) -> usize {
        self.pcs.heap_bytes()
            + self.istalls.heap_bytes()
            + self.dlats.heap_bytes()
            + self.branches.heap_bytes()
            + self.runs.heap_bytes()
            + self.breqs.capacity() * std::mem::size_of::<BranchReq>()
            + self.breq_prob.capacity()
    }
}

/// A cursor over a [`TraceChunk`]'s zero-filled record streams (see
/// [`TraceChunk::begin_fill`]). Every emission is a plain indexed
/// store at the cursor behind a watermark check — the streams grow by
/// doubling toward `budget` rather than pre-sizing upfront, so short
/// captures only pay for the pages they actually fill. The
/// branch-side streams stay push-based (they are an order of
/// magnitude sparser than the record streams).
pub(crate) struct ChunkWriter<'a> {
    pcs: &'a mut Vec<u32>,
    istalls: &'a mut Vec<u8>,
    dlats: &'a mut Vec<u8>,
    branches: &'a mut Vec<u8>,
    runs: &'a mut Vec<u32>,
    breqs: &'a mut Vec<BranchReq>,
    breq_prob: &'a mut Vec<bool>,
    cur: usize,
    open_run: u32,
    /// Zero-filled length of the record streams; indexed stores are
    /// valid below it.
    sized: usize,
    /// Chunk record budget — the growth ceiling (callers never emit
    /// past it).
    budget: usize,
}

impl ChunkWriter<'_> {
    /// Records written so far.
    #[inline(always)]
    pub(crate) fn written(&self) -> u64 {
        self.cur as u64
    }

    /// Raises the zero-filled watermark to cover `need` records.
    #[cold]
    fn grow(&mut self, need: usize) {
        let new = self.budget.min((self.sized * 2).max(4096)).max(need);
        self.pcs.resize(new, 0);
        self.istalls.resize(new, 0);
        self.dlats.resize(new, 0);
        self.sized = new;
    }

    /// Bulk-appends `n` straight-line records at consecutive pcs
    /// `start..start + n` — the block engine's warm fast path. No
    /// branch bytes (a block body is branch-free by construction), and
    /// the zero istalls/dlats are already in place from the zero-fill
    /// growth: only the pcs and the load-latency patches are written.
    #[inline(always)]
    pub(crate) fn emit_straight(&mut self, start: u32, n: u32, dlat_patch: &[(u32, u8)]) {
        let base = self.cur;
        if base + n as usize > self.sized {
            self.grow(base + n as usize);
        }
        for i in 0..n as usize {
            self.pcs[base + i] = start + i as u32;
        }
        for &(i, d) in dlat_patch {
            self.dlats[base + i as usize] = d;
        }
        self.open_run += n;
        self.cur = base + n as usize;
    }

    /// Appends one record in its raw stream form —
    /// [`TraceChunk::push_raw`] in cursor form, byte for byte.
    #[inline(always)]
    pub(crate) fn emit_record(&mut self, pc: u32, branch_byte: u8, istall: u8, dlat: u8) {
        if self.cur == self.sized {
            self.grow(self.cur + 1);
        }
        self.pcs[self.cur] = pc;
        self.istalls[self.cur] = istall;
        self.dlats[self.cur] = dlat;
        self.cur += 1;
        if branch_byte != 0 {
            self.runs.push(self.open_run);
            self.branches.push(branch_byte);
            self.open_run = 0;
            // A conditional branch has kind bits 0: only the present/
            // taken/prob flags may be set.
            if branch_byte & !(BR_TAKEN | BR_PROB) == BR_PRESENT {
                self.breqs
                    .push(BranchReq::new(pc as u64, branch_byte & BR_TAKEN != 0));
                self.breq_prob.push(branch_byte & BR_PROB != 0);
            }
        } else {
            self.open_run += 1;
        }
    }

    /// Ends the session, returning `(written, open_run)` for
    /// [`TraceChunk::end_fill`].
    pub(crate) fn finish(self) -> (usize, u32) {
        (self.cur, self.open_run)
    }
}

impl PartialEq for TraceChunk {
    /// Logical equality over the *raw* streams — backing-agnostic (an
    /// owned chunk equals its mapped round-trip), and the derived
    /// `breqs`/`breq_prob` are excluded because the raw streams
    /// determine them.
    fn eq(&self, other: &TraceChunk) -> bool {
        self.open_run == other.open_run
            && self.pcs == other.pcs
            && self.istalls == other.istalls
            && self.dlats == other.dlats
            && self.branches == other.branches
            && self.runs == other.runs
    }
}

/// A per-record visitor for [`walk_chunk`]: `plain` sees every
/// non-branch record, `branch` every branch record with its event
/// decoded exactly once. Both receive the record's stream values
/// directly — the walk owns all stream indexing, so visitors do no
/// bounds-checked loads of their own.
pub(crate) trait ChunkVisitor {
    /// One non-branch record.
    fn plain(&mut self, pc: u32, istall: u8, dlat: u8);
    /// One branch record.
    fn branch(&mut self, pc: u32, istall: u8, dlat: u8, ev: BranchEvent);
}

/// Drives `v` over every record of `chunk` in program order, iterating
/// whole non-branch runs through `plain` — the branch test runs once
/// per *run*, not once per record, and inside a run the `branch: None`
/// arm of the cycle-accounting core constant-folds away. Each span is
/// walked as three zipped per-record streams, so the per-record loads
/// carry no per-record bounds checks.
///
/// The walk monomorphizes over the chunk's u32 backing ([`U32Slice`]):
/// the owned arm is the pre-mmap slice walk unchanged, and the mapped
/// arm decodes each little-endian element in place of a slice load —
/// one specialization per (pcs, runs) backing pair, resolved once per
/// chunk.
#[inline(always)]
pub(crate) fn walk_chunk<V: ChunkVisitor>(chunk: &TraceChunk, v: &mut V) {
    let istalls = chunk.istalls.as_slice();
    let dlats = chunk.dlats.as_slice();
    let branches = chunk.branches.as_slice();
    match (&chunk.pcs, &chunk.runs) {
        (U32s::Owned(pcs), U32s::Owned(runs)) => walk_streams(
            pcs.as_slice(),
            runs.as_slice(),
            istalls,
            dlats,
            branches,
            chunk.open_run,
            v,
        ),
        (U32s::Owned(pcs), U32s::Mapped(runs)) => walk_streams(
            pcs.as_slice(),
            LeU32s(runs.as_slice()),
            istalls,
            dlats,
            branches,
            chunk.open_run,
            v,
        ),
        (U32s::Mapped(pcs), U32s::Owned(runs)) => walk_streams(
            LeU32s(pcs.as_slice()),
            runs.as_slice(),
            istalls,
            dlats,
            branches,
            chunk.open_run,
            v,
        ),
        (U32s::Mapped(pcs), U32s::Mapped(runs)) => walk_streams(
            LeU32s(pcs.as_slice()),
            LeU32s(runs.as_slice()),
            istalls,
            dlats,
            branches,
            chunk.open_run,
            v,
        ),
    }
}

/// The backing-generic body of [`walk_chunk`].
#[inline(always)]
fn walk_streams<P: U32Slice, R: U32Slice, V: ChunkVisitor>(
    pcs: P,
    runs: R,
    istalls: &[u8],
    dlats: &[u8],
    branches: &[u8],
    open_run: u32,
    v: &mut V,
) {
    #[inline(always)]
    fn span<P: U32Slice, V: ChunkVisitor>(
        pcs: P,
        istalls: &[u8],
        dlats: &[u8],
        start: usize,
        len: usize,
        v: &mut V,
    ) {
        let end = start + len;
        for ((pc, &istall), &dlat) in pcs
            .iter_range(start, end)
            .zip(&istalls[start..end])
            .zip(&dlats[start..end])
        {
            v.plain(pc, istall, dlat);
        }
    }
    let mut idx = 0usize;
    for (i, &byte) in branches.iter().enumerate() {
        let run = runs.get(i) as usize;
        span(pcs, istalls, dlats, idx, run, v);
        idx += run;
        v.branch(pcs.get(idx), istalls[idx], dlats[idx], decode_branch(byte));
        idx += 1;
    }
    span(pcs, istalls, dlats, idx, open_run as usize, v);
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

/// Pre-simulates and packs one interpreter record — the shared
/// per-record path of every capture tier: the interpreter fill loop,
/// the block engine's fallback single-steps and its block terminators
/// all go through here, so the hierarchy evolution and the packed
/// bytes cannot drift between tiers.
///
/// The L1-I-resident fast path: once a line has been fetched it can
/// never leave the L1-I (see [`TraceStream::itouched`]), so only the
/// first touch walks the hierarchy (and inserts into the shared L2,
/// exactly as the full simulation would).
#[inline(always)]
pub(crate) fn pack_record(
    presim: &mut MemoryHierarchy,
    timings: &[InstTiming],
    itouched: &mut [bool],
    pcs_per_line: usize,
    chunk: &mut TraceChunk,
    rec: StepRecord,
) {
    let (istall, dlat) = record_costs(presim, timings, itouched, pcs_per_line, &rec);
    chunk.push_raw(rec.pc, encode_branch(rec.branch), istall, dlat);
}

/// The latency half of [`pack_record`] — evolves the pre-simulated
/// hierarchy and returns the record's `(istall, dlat)` bytes. Shared
/// with the block engine's cursor writer, which packs the record
/// itself.
#[inline(always)]
pub(crate) fn record_costs(
    presim: &mut MemoryHierarchy,
    timings: &[InstTiming],
    itouched: &mut [bool],
    pcs_per_line: usize,
    rec: &StepRecord,
) -> (u8, u8) {
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
    let dlat = if timings[rec.pc as usize].class == ExecClass::Load.index() as u8 {
        let addr = rec.mem_addr().expect("loads carry an address");
        presim.data_access(addr)
    } else {
        0
    };
    debug_assert!(istall <= u8::MAX as u64 && dlat <= u8::MAX as u64);
    (istall as u8, dlat as u8)
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
    /// The block-compiled form of the program (see `crate::aot`), when
    /// the selected capture tier, the `capture.block` failpoint and the
    /// L1-I-residency precondition all allow block execution. `None`
    /// runs the per-instruction decoded interpreter.
    pub(crate) blocks: Option<BlockProgram>,
    /// Per-block warmth verdicts, parallel to `blocks`' block indices.
    /// Warmth is monotonic — `itouched` lines are only ever set — so a
    /// block found warm stays warm and the dispatch loop skips the
    /// per-execution line scan.
    pub(crate) warm_blocks: Box<[bool]>,
    /// Scratch for the block executor: `(body index, latency)` of the
    /// loads in the currently executing block body.
    pub(crate) dlat_scratch: Vec<(u32, u8)>,
    pub(crate) executed: u64,
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
        // large for `itouched` stay on the interpreter. The
        // `capture.block` failpoint degrades block capture to the
        // interpreter silently — torture runs prove the fallback is
        // byte-invisible.
        let blocks = if itouched.is_empty() {
            None
        } else {
            match crate::aot::selected_tier() {
                CaptureTier::Interp => None,
                tier => {
                    let salt = [timings.len() as u64, config.max_insts];
                    if faults::injected(faults::Site::CaptureBlock, &salt) {
                        None
                    } else {
                        let compiled =
                            BlockProgram::compile(emu.decoded(), tier == CaptureTier::Generated);
                        (compiled.compiled_blocks() > 0).then_some(compiled)
                    }
                }
            }
        };
        let warm_blocks = blocks.as_ref().map_or_else(Box::default, |b| {
            vec![false; b.compiled_blocks()].into_boxed_slice()
        });
        TraceStream {
            emu,
            presim,
            timings,
            itouched,
            pcs_per_line,
            blocks,
            warm_blocks,
            dlat_scratch: Vec::new(),
            executed: 0,
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

    /// Refills `chunk` with the next run of records (clearing it first)
    /// and pre-simulates their latencies. Returns `false` — with `chunk`
    /// left empty — once the machine has halted.
    ///
    /// # Errors
    ///
    /// Propagates emulator faults, and returns
    /// [`EmuError::InstLimitExceeded`] at exactly the dynamic
    /// instruction where the reference engine would: when the dynamic
    /// instruction count reaches `max_insts` without a halt.
    pub fn fill(&mut self, chunk: &mut TraceChunk) -> Result<bool, EmuError> {
        if self.blocks.is_some() {
            return self.fill_block(chunk);
        }
        self.fill_interp(chunk)
    }

    /// The interpreter tier of [`fill`](TraceStream::fill): one
    /// [`Emulator::step_decoded`] call per record.
    pub(crate) fn fill_interp(&mut self, chunk: &mut TraceChunk) -> Result<bool, EmuError> {
        chunk.clear();
        if self.halted {
            return Ok(false);
        }
        // Cooperative cancellation: one poll per chunk bounds how much
        // work a cancelled capture or convoy performs after the fact
        // (a chunk is exactly the 64 Ki-instruction poll stride).
        crate::cancel::check_current()?;
        // Cap the chunk at the remaining instruction budget so the limit
        // trips at exactly the same dynamic instruction as the
        // reference engine.
        let budget = (self.max_insts - self.executed).clamp(1, TRACE_CHUNK_RECORDS as u64) as usize;
        let TraceStream {
            emu,
            presim,
            timings,
            itouched,
            pcs_per_line,
            ..
        } = self;
        let pcs_per_line = *pcs_per_line;
        // Emulate, pre-simulate and pack in one pass: each record is
        // handed straight from the interpreter to the chunk's SoA
        // streams, no intermediate record buffer.
        let n = emu.step_block_with(budget, |rec| {
            pack_record(presim, timings, itouched, pcs_per_line, chunk, rec);
        })?;
        if n == 0 {
            self.halted = true;
            return Ok(false);
        }
        self.executed += n as u64;
        if self.executed >= self.max_insts {
            self.halted = true;
            return Err(EmuError::InstLimitExceeded {
                limit: self.max_insts,
            });
        }
        Ok(true)
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
/// in SoA chunks, the per-pc timing metadata, the pre-simulated cache
/// latencies and the architectural results — everything `N` timing
/// models need to replay the run without re-emulating it.
#[derive(Debug, Clone, PartialEq)]
pub struct DynTrace {
    pub(crate) timings: Box<[InstTiming]>,
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
            let mut chunk = TraceChunk::with_chunk_capacity();
            if !stream.fill(&mut chunk)? {
                break;
            }
            chunks.push(chunk);
        }
        if let Some(last) = chunks.last_mut() {
            last.shrink_to_fit();
        }
        Ok(DynTrace {
            timings: stream.timings.clone(),
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

    /// The architectural results of the captured run.
    pub fn functional(&self) -> &TraceFunctional {
        &self.functional
    }

    /// How many chunks are zero-copy views over a mapped trace file
    /// (all of them after a warm-start load, none after a capture).
    pub fn mapped_chunks(&self) -> usize {
        self.chunks.iter().filter(|c| c.is_mapped()).count()
    }

    /// Heap bytes held by the trace (record streams, timing table
    /// and architectural results) — the number the trace pool's memory
    /// budget meters. Mapped record streams count 0
    /// (their pages are the OS page cache's, reclaimable at will), so
    /// demoting a trace to disk genuinely shrinks its pooled footprint
    /// to the timing table plus derived request streams.
    pub fn bytes(&self) -> usize {
        self.chunks.iter().map(TraceChunk::bytes).sum::<usize>()
            + self.timings.len() * std::mem::size_of::<InstTiming>()
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

/// The consume half of the replay engines: one timing model and its
/// statically dispatched predictor, fed chunks of a captured trace.
///
/// Each chunk drains in two phases. First the consumer's batch
/// predictor runs the chunk's predictor-visible branches through
/// [`BranchPredictor::predict_update_batch`] in one dispatch, with the
/// predictor free to pipeline its own internal work across the batch.
/// Then the record walk replays the precomputed predictions through a
/// position-only feed into the unchanged cycle-accounting core. This is
/// a pure replay-side reordering: the predictor observes exactly the
/// serial request stream, so reports stay byte-identical to the
/// reference engine.
#[derive(Debug)]
pub struct ReplayConsumer {
    timing: OooTimingModel,
    batch: BatchPredictor,
}

/// The predictor half of a replay consumer: a statically dispatched
/// predictor and its per-chunk batch scratch.
#[derive(Debug)]
struct BatchPredictor {
    predictor: PredictorDispatch,
    filter_prob: bool,
    /// The filter mode's copy of a chunk's predictor-visible requests…
    reqs: Vec<BranchReq>,
    /// …and the batch-computed predictions of the visible requests.
    preds: Vec<bool>,
}

impl BatchPredictor {
    fn new(config: &SimConfig) -> BatchPredictor {
        BatchPredictor {
            predictor: config.predictor.build_dispatch(),
            filter_prob: config.filter_prob_from_predictor,
            reqs: Vec::new(),
            preds: Vec::new(),
        }
    }

    /// Runs the chunk's predictor-visible branches ([`visible_reqs`] — a
    /// zero-copy borrow of the chunk's precomputed request stream unless
    /// this predictor filters probabilistic branches) through the
    /// predictor in one dispatch ([`PredictorDispatch::visit_batch`]).
    /// Returns the requests and their predictions, in program order.
    fn predict<'a>(&'a mut self, chunk: &'a TraceChunk) -> (&'a [BranchReq], &'a [bool]) {
        let BatchPredictor {
            predictor,
            filter_prob,
            reqs,
            preds,
        } = self;
        let reqs = visible_reqs(chunk, *filter_prob, reqs);
        preds.clear();
        preds.resize(reqs.len(), false);
        predictor.visit_batch(reqs, preds);
        (reqs, preds)
    }
}

/// The chunk's *predictor-visible* branch requests, in program order:
/// conditional branches, minus probabilistic ones when the Figure 9
/// filter diverts those to the PBS oracle — exactly the records for
/// which [`OooTimingModel::consume_core`] consults the predictor
/// (PBS-directed and unconditional control flow never touch it).
/// Unfiltered consumers borrow the chunk's pre-built request stream
/// outright; the filter mode copies the non-probabilistic subset into
/// `scratch`.
fn visible_reqs<'a>(
    chunk: &'a TraceChunk,
    filter_prob: bool,
    scratch: &'a mut Vec<BranchReq>,
) -> &'a [BranchReq] {
    if !filter_prob {
        return &chunk.breqs;
    }
    scratch.clear();
    scratch.extend(
        chunk
            .breqs
            .iter()
            .zip(&chunk.breq_prob)
            .filter(|&(_, &prob)| !prob)
            .map(|(&req, _)| req),
    );
    scratch
}

/// Replays a chunk's batch-precomputed predictions into the unchanged
/// cycle-accounting core. [`OooTimingModel::consume_core`] consults its
/// predictor through exactly one entry point — `predict_and_update`,
/// once per predictor-visible branch in program order — so a feed that
/// pops the next precomputed prediction is indistinguishable from the
/// live predictor the batch already ran.
struct PredFeed<'a> {
    preds: &'a [bool],
    next: usize,
}

impl<'a> PredFeed<'a> {
    fn new(preds: &'a [bool]) -> PredFeed<'a> {
        PredFeed { preds, next: 0 }
    }

    /// Whether the drain consumed every batched prediction — the
    /// request collection and the record walk agreeing on which records
    /// are predictor-visible.
    fn consumed_all(&self) -> bool {
        self.next == self.preds.len()
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
        let pred = self.preds[self.next];
        self.next += 1;
        pred
    }

    fn storage_bits(&self) -> usize {
        0
    }

    fn name(&self) -> &'static str {
        "pred-feed"
    }
}

/// The chunk-drain loop: one timing model stepping over its prediction
/// feed (the predictor itself already ran the chunk through the batch
/// API).
struct Drain<'a> {
    timings: &'a [InstTiming],
    timing: &'a mut OooTimingModel,
    feed: PredFeed<'a>,
    filter_prob: bool,
}

impl Drain<'_> {
    /// Advances the model by one record, with the branch event passed
    /// as a compile-time-known `Option` shape per call site.
    #[inline(always)]
    fn advance(&mut self, pc: u32, istall: u8, dlat: u8, ev: Option<BranchEvent>) {
        let t = &self.timings[pc as usize];
        let exec_lat = if t.class == ExecClass::Load.index() as u8 {
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
    fn plain(&mut self, pc: u32, istall: u8, dlat: u8) {
        self.advance(pc, istall, dlat, None);
    }

    #[inline(always)]
    fn branch(&mut self, pc: u32, istall: u8, dlat: u8, ev: BranchEvent) {
        self.advance(pc, istall, dlat, Some(ev));
    }
}

impl ReplayConsumer {
    /// A consumer for `config`'s timing side (core, predictor, filter
    /// mode, branch tracing).
    pub fn new(config: &SimConfig) -> ReplayConsumer {
        let mut timing = OooTimingModel::new(config.core.clone());
        if config.collect_branch_trace {
            timing.enable_trace();
        }
        ReplayConsumer {
            timing,
            batch: BatchPredictor::new(config),
        }
    }

    /// Drains one chunk through the timing model: batch-predict, then
    /// walk the chunk's records through the cycle-accounting core,
    /// replaying the batched predictions in program order. `timings` is
    /// the per-pc metadata of the trace the chunk came from.
    #[inline]
    pub fn consume_chunk(&mut self, timings: &[InstTiming], chunk: &TraceChunk) {
        let filter_prob = self.batch.filter_prob;
        let (_, preds) = self.batch.predict(chunk);
        let mut v = Drain {
            timings,
            timing: &mut self.timing,
            feed: PredFeed::new(preds),
            filter_prob,
        };
        walk_chunk(chunk, &mut v);
        debug_assert!(
            v.feed.consumed_all(),
            "drain consumed {} of {} batched predictions",
            v.feed.next,
            preds.len(),
        );
    }

    /// Finishes the replay: the timing model's statistics joined with
    /// the trace's architectural results into the same [`SimReport`] the
    /// reference engine would have produced.
    pub fn into_report(mut self, functional: &TraceFunctional) -> SimReport {
        SimReport {
            timing: self.timing.stats(),
            pbs: functional.pbs,
            outputs: functional.outputs.clone(),
            prob_consumed: functional.prob_consumed.clone(),
            branch_trace: self.timing.take_trace(),
        }
    }
}

/// The consume half of the predictor-only pass: a replay consumer's
/// [`BatchPredictor`] with no timing model behind it.
///
/// A trace fixes every branch outcome and the batch fixes every
/// prediction, so the counts [`OooTimingModel::consume_core`] keeps
/// follow from the chunk alone: branch kinds from its branch-byte
/// stream (PBS-directed and unconditional transfers never reach the
/// request stream), mispredictions from the predictions against the
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

    /// Counts one chunk's records, branches and mispredictions.
    pub(crate) fn consume_chunk(&mut self, chunk: &TraceChunk) {
        let s = &mut self.stats;
        s.instructions += chunk.len() as u64;
        s.dyn_branches += chunk.branch_count() as u64;
        for &byte in chunk.branches.as_slice() {
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
        // Unfiltered, the visible requests are the chunk's whole request
        // stream, parallel to `breq_prob`; filtered, they are all regular.
        let filter_prob = self.batch.filter_prob;
        let (reqs, preds) = self.batch.predict(chunk);
        for (i, (req, &pred)) in reqs.iter().zip(preds).enumerate() {
            if pred != req.taken {
                let prob = !filter_prob && chunk.breq_prob[i];
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{EngineKind, PredictorChoice, Simulation};
    use probranch_isa::{CmpOp, ProgramBuilder, Reg};

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

    #[test]
    fn soa_chunks_round_trip_their_record_view() {
        let p = workload(4000);
        let trace = DynTrace::capture(&p, &SimConfig::default().with_pbs()).unwrap();
        let mut branches = 0usize;
        for chunk in trace.chunks() {
            let recs: Vec<ReplayRec> = chunk.records().collect();
            assert_eq!(recs.len(), chunk.len());
            branches += chunk.branch_count();
            // Re-packing the AoS view reproduces the SoA streams
            // exactly.
            let mut repacked = TraceChunk::default();
            for r in &recs {
                repacked.push(*r);
            }
            assert_eq!(&repacked, chunk);
            // The run index elides exactly the zero branch bytes.
            assert_eq!(
                recs.iter().filter(|r| r.branch().is_some()).count(),
                chunk.branch_count()
            );
        }
        assert!(branches > 0, "workload must record branches");
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
