//! The out-of-order superscalar timing model.
//!
//! A trace-driven window model in the style of Sniper's detailed core: it
//! consumes the emulator's [`DynInst`] stream in program order and
//! computes, per instruction, the fetch / dispatch / issue / complete /
//! commit cycles under the machine's resource constraints:
//!
//! * fetch width, with fetch-group breaks after taken branches and
//!   I-cache miss stalls;
//! * a reorder buffer that back-pressures fetch when full;
//! * register dataflow (including the condition flag as a renamed
//!   pseudo-register) and issue-width contention;
//! * functional-unit latencies per [`ExecClass`], with load latencies
//!   from the cache hierarchy;
//! * branch resolution at execute: a mispredicted branch redirects fetch
//!   at `complete + mispredict_penalty` (the paper's 10-cycle front-end
//!   refill);
//! * in-order commit at the pipeline width.
//!
//! Wrong-path instructions are not simulated; their cost is the redirect
//! bubble — the standard trace-driven approximation.

use probranch_isa::ExecClass;
use probranch_predictor::{BranchPredictor, BranchReq};

use crate::cache::MemoryHierarchy;
use crate::decode::InstTiming;
use crate::machine::{BranchEvent, BranchEventKind, DynInst};

/// Functional-unit latencies in cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecLatencies {
    /// Simple integer ops.
    pub int_alu: u64,
    /// Integer multiply.
    pub int_mul: u64,
    /// Integer divide/remainder.
    pub int_div: u64,
    /// FP add/sub/conversions.
    pub fp_add: u64,
    /// FP multiply.
    pub fp_mul: u64,
    /// FP divide / sqrt.
    pub fp_div: u64,
    /// Transcendentals (exp, ln, sin, cos).
    pub fp_long: u64,
    /// Store address/data (memory update happens post-commit).
    pub store: u64,
    /// Branch resolution.
    pub branch: u64,
    /// Everything else.
    pub other: u64,
}

impl Default for ExecLatencies {
    fn default() -> ExecLatencies {
        ExecLatencies {
            int_alu: 1,
            int_mul: 3,
            int_div: 20,
            fp_add: 3,
            fp_mul: 4,
            fp_div: 12,
            fp_long: 20,
            store: 1,
            branch: 1,
            other: 1,
        }
    }
}

impl ExecLatencies {
    /// Resolves the per-class latencies into a flat table indexed by
    /// [`ExecClass::index`], so the hot loop replaces an enum match with
    /// one array load. The [`ExecClass::Load`] slot is unused (loads
    /// defer to the cache hierarchy) and stays 0.
    pub fn table(&self) -> [u64; ExecClass::COUNT] {
        let mut t = [0u64; ExecClass::COUNT];
        t[ExecClass::IntAlu.index()] = self.int_alu;
        t[ExecClass::IntMul.index()] = self.int_mul;
        t[ExecClass::IntDiv.index()] = self.int_div;
        t[ExecClass::FpAdd.index()] = self.fp_add;
        t[ExecClass::FpMul.index()] = self.fp_mul;
        t[ExecClass::FpDiv.index()] = self.fp_div;
        t[ExecClass::FpLong.index()] = self.fp_long;
        t[ExecClass::Store.index()] = self.store;
        t[ExecClass::Branch.index()] = self.branch;
        t[ExecClass::Other.index()] = self.other;
        t
    }
}

/// Core configuration. Defaults model the paper's baseline: a 4-wide
/// out-of-order core with a 168-entry ROB "configured after Intel's
/// Sandy Bridge" and a 10-cycle branch misprediction penalty
/// (Section VI-B). The 8-wide configuration of Figure 8 uses
/// [`OooConfig::wide`].
#[derive(Debug, Clone)]
pub struct OooConfig {
    /// Instructions fetched/dispatched/committed per cycle.
    pub width: u32,
    /// Reorder-buffer entries.
    pub rob_size: usize,
    /// Front-end depth in cycles (fetch to dispatch).
    pub frontend_depth: u64,
    /// Cycles to re-fill the front end after a resolved misprediction.
    pub mispredict_penalty: u64,
    /// Functional-unit latencies.
    pub latencies: ExecLatencies,
}

impl Default for OooConfig {
    fn default() -> OooConfig {
        OooConfig {
            width: 4,
            rob_size: 168,
            frontend_depth: 5,
            mispredict_penalty: 10,
            latencies: ExecLatencies::default(),
        }
    }
}

impl OooConfig {
    /// The paper's 8-wide configuration (Figure 8): 8-wide, 256-entry
    /// ROB.
    pub fn wide() -> OooConfig {
        OooConfig {
            width: 8,
            rob_size: 256,
            ..OooConfig::default()
        }
    }
}

/// One predictor-consulted conditional branch, as recorded by the
/// optional branch trace (golden-trace regression testing).
///
/// Only branches that actually query the predictor appear: PBS-directed
/// instances and filtered probabilistic branches resolve without a
/// prediction and are excluded, so the trace is exactly the predictor's
/// observable behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchTraceEntry {
    /// Program counter of the branch.
    pub pc: u32,
    /// The predictor's direction guess.
    pub predicted: bool,
    /// The architecturally resolved direction.
    pub taken: bool,
    /// Whether this was a probabilistic branch.
    pub is_prob: bool,
}

/// Aggregate statistics of a timing-model run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimingStats {
    /// Total cycles (cycle of the last commit).
    pub cycles: u64,
    /// Committed instructions.
    pub instructions: u64,
    /// Dynamic control-transfer instructions.
    pub dyn_branches: u64,
    /// Dynamic conditional branches (including probabilistic ones
    /// executing as regular branches).
    pub cond_branches: u64,
    /// Dynamic probabilistic jumps (all resolutions).
    pub prob_branches: u64,
    /// Probabilistic jumps steered by PBS (no predictor involvement).
    pub pbs_directed: u64,
    /// Mispredictions, total.
    pub mispredicts: u64,
    /// Mispredictions of probabilistic branches.
    pub mispredicts_prob: u64,
    /// Mispredictions of regular branches.
    pub mispredicts_regular: u64,
}

impl TimingStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Mispredictions per 1000 instructions.
    pub fn mpki(&self) -> f64 {
        BranchStats::from(*self).mpki()
    }

    /// Regular-branch mispredictions per 1000 instructions (the Figure 9
    /// interference metric).
    pub fn mpki_regular(&self) -> f64 {
        BranchStats::from(*self).mpki_regular()
    }
}

/// The branch and misprediction counts of a run: every [`TimingStats`]
/// field except `cycles`.
///
/// The predictor-only pass ([`Simulation::run_branches`] and
/// [`Simulation::replay_branches`]) produces these without the
/// out-of-order timing walk, since a trace fixes every branch outcome
/// and the batch predictor fixes every prediction before the walk
/// starts. With no cycle count there is no IPC to print by mistake.
///
/// [`Simulation::run_branches`]: crate::Simulation::run_branches
/// [`Simulation::replay_branches`]: crate::Simulation::replay_branches
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchStats {
    /// Committed instructions.
    pub instructions: u64,
    /// Dynamic control-transfer instructions.
    pub dyn_branches: u64,
    /// Dynamic conditional branches (including probabilistic ones
    /// executing as regular branches).
    pub cond_branches: u64,
    /// Dynamic probabilistic jumps (all resolutions).
    pub prob_branches: u64,
    /// Probabilistic jumps steered by PBS (no predictor involvement).
    pub pbs_directed: u64,
    /// Mispredictions, total.
    pub mispredicts: u64,
    /// Mispredictions of probabilistic branches.
    pub mispredicts_prob: u64,
    /// Mispredictions of regular branches.
    pub mispredicts_regular: u64,
}

impl BranchStats {
    /// Mispredictions per 1000 instructions.
    pub fn mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.mispredicts as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// Regular-branch mispredictions per 1000 instructions (the Figure 9
    /// interference metric).
    pub fn mpki_regular(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.mispredicts_regular as f64 * 1000.0 / self.instructions as f64
        }
    }
}

impl From<TimingStats> for BranchStats {
    /// The timing statistics without their cycle count.
    fn from(t: TimingStats) -> BranchStats {
        BranchStats {
            instructions: t.instructions,
            dyn_branches: t.dyn_branches,
            cond_branches: t.cond_branches,
            prob_branches: t.prob_branches,
            pbs_directed: t.pbs_directed,
            mispredicts: t.mispredicts,
            mispredicts_prob: t.mispredicts_prob,
            mispredicts_regular: t.mispredicts_regular,
        }
    }
}

/// The issue-bandwidth ring length for `cfg`: the ring may only alias
/// two cycles that can never be live at the same time. In-flight
/// instructions are bounded by the ROB, and one instruction's issue
/// cycle exceeds the window's oldest by at most the largest single
/// latency (memory, the slowest functional unit, the misprediction
/// refill) plus the front end, so the live span is bounded by
/// `rob_size * (max latency + frontend + penalty + 1)`. Rounded up to a
/// power of two for mask indexing; 64 Ki entries (256 KiB at 4 bytes
/// per slot, see [`OooTimingModel::issue_ring`]) for the default
/// 168-entry ROB with 200-cycle memory.
/// Bits of an issue-ring slot holding the per-cycle issue count; the
/// remaining 16 bits hold the cycle's epoch tag.
const RING_COUNT_BITS: u32 = 16;
/// Mask of the count field.
const RING_COUNT_MASK: u32 = (1 << RING_COUNT_BITS) - 1;
/// Mask of an (unshifted) epoch tag.
const RING_TAG_MASK: u32 = (1 << (32 - RING_COUNT_BITS)) - 1;
/// Epochs between issue-ring scrub passes: half the 16-bit tag space,
/// so at every scrub a stale slot's *wrapped* tag age equals its true
/// age (no slot can get within half a wrap of aliasing between two
/// passes) and the `age > 3` test is unambiguous.
const RING_SCRUB_EPOCHS: u64 = 1 << 15;

fn issue_ring_len(cfg: &OooConfig) -> usize {
    let l = &cfg.latencies;
    let max_exec = [
        l.int_alu, l.int_mul, l.int_div, l.fp_add, l.fp_mul, l.fp_div, l.fp_long, l.store,
        l.branch, l.other,
    ]
    .into_iter()
    .max()
    .unwrap_or(1);
    // Memory latency of the default hierarchy (the model constructs its
    // own `MemoryHierarchy::default()`).
    let max_lat = max_exec.max(crate::cache::MemLatencies::default().mem);
    let span = (cfg.rob_size as u64)
        .saturating_mul(max_lat + cfg.frontend_depth + cfg.mispredict_penalty + 1)
        .max(1);
    usize::try_from(span)
        .unwrap_or(usize::MAX / 2)
        .next_power_of_two()
}

/// The trace-driven out-of-order timing model.
#[derive(Debug, Clone)]
pub struct OooTimingModel {
    cfg: OooConfig,
    hierarchy: MemoryHierarchy,
    /// Cycle at which the next instruction can be fetched.
    fetch_cycle: u64,
    /// Instructions already fetched in `fetch_cycle`.
    fetched_in_cycle: u32,
    /// Ready cycle per architectural register + flag. Sized 64 (only
    /// 0..=32 are used) so `u8 & 63` indexing needs no bounds check.
    reg_ready: [u64; 64],
    /// Commit cycles of in-flight instructions (ROB occupancy), as a
    /// fixed-capacity ring buffer: `rob_len` entries starting at
    /// `rob_head`, capacity `cfg.rob_size` — no deque bookkeeping on the
    /// per-instruction push/pop pair.
    rob: Vec<u64>,
    rob_head: usize,
    rob_len: usize,
    /// Issue-bandwidth ring, sized at construction to a power of two
    /// covering the worst-case span of live issue cycles (see
    /// [`issue_ring_len`]) and indexed by mask. Each `u32` slot packs
    /// `epoch_tag << 16 | count`, where the epoch tag is the low 16
    /// bits of `cycle >> ring_bits` — together with the slot index that
    /// identifies the cycle a slot's count belongs to, at half the
    /// cache footprint of the previous full-cycle `u64` packing
    /// (256 KiB instead of 512 KiB per consumer for the default core).
    /// Tag aliasing (two cycles 2^16 epochs apart) is made impossible
    /// by [`scrub_issue_ring`](Self::scrub_issue_ring), which zeroes
    /// every non-live slot at least once per 2^15 epochs — a zeroed
    /// slot reads as "no issues recorded" for every future probe, which
    /// is exact for any slot whose true cycle has passed.
    issue_ring: Box<[u32]>,
    /// `issue_ring.len() - 1`.
    issue_mask: usize,
    /// `issue_ring.len().trailing_zeros()` — the epoch shift.
    ring_bits: u32,
    /// Fetch cycle at which the next [`scrub_issue_ring`]
    /// (Self::scrub_issue_ring) pass runs.
    ring_scrub_at: u64,
    /// `cfg.width` capped to the ring's 16-bit count field. Exact for
    /// every feasible core: a cycle can only reach 2^16 issues with
    /// more than 2^16 instructions in flight, i.e. `rob_size` ≥ 2^16
    /// *and* `width` ≥ 2^16 (asserted against in [`OooTimingModel::new`]).
    width_cap: u32,
    last_commit: u64,
    committed_in_commit_cycle: u32,
    stats: TimingStats,
    /// `cfg.latencies` resolved per [`ExecClass::index`] (Load slot
    /// unused — loads ask the cache hierarchy). Padded to 16 entries so
    /// `class & 15` indexing needs no bounds check.
    lat_table: [u64; 16],
    /// Per-branch (pc, predicted, actual) log; `None` unless enabled.
    trace: Option<Vec<BranchTraceEntry>>,
}

impl OooTimingModel {
    /// Creates a model with the given configuration and a default memory
    /// hierarchy.
    pub fn new(cfg: OooConfig) -> OooTimingModel {
        let ring_len = issue_ring_len(&cfg);
        assert!(
            cfg.width < 1 << 16 || cfg.rob_size < 1 << 16,
            "issue ring count field cannot express a 2^16-wide, 2^16-deep core"
        );
        OooTimingModel {
            hierarchy: MemoryHierarchy::default(),
            fetch_cycle: 0,
            fetched_in_cycle: 0,
            reg_ready: [0; 64],
            rob: vec![0; cfg.rob_size],
            rob_head: 0,
            rob_len: 0,
            // All-zero init is exact: a zero slot reads as "no issues
            // recorded at this slot's cycle yet", which the probe treats
            // identically to an unused slot — and `vec![0]` is an
            // `alloc_zeroed` of untouched pages instead of a sentinel
            // fill per model.
            issue_ring: vec![0u32; ring_len].into_boxed_slice(),
            issue_mask: ring_len - 1,
            ring_bits: ring_len.trailing_zeros(),
            ring_scrub_at: RING_SCRUB_EPOCHS << ring_len.trailing_zeros(),
            width_cap: cfg.width.min((1 << 16) - 1),
            last_commit: 0,
            committed_in_commit_cycle: 0,
            stats: TimingStats::default(),
            lat_table: {
                let mut t = [0u64; 16];
                t[..ExecClass::COUNT].copy_from_slice(&cfg.latencies.table());
                t
            },
            trace: None,
            cfg,
        }
    }

    /// Starts recording every predictor-consulted conditional branch as
    /// a [`BranchTraceEntry`]; retrieve the log with
    /// [`take_trace`](Self::take_trace).
    pub fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// Takes the recorded branch trace (empty if tracing was never
    /// enabled).
    pub fn take_trace(&mut self) -> Vec<BranchTraceEntry> {
        self.trace.take().unwrap_or_default()
    }

    #[inline]
    fn issue_slot(&mut self, from: u64) -> u64 {
        let mut c = from;
        loop {
            let tag = (((c >> self.ring_bits) as u32) & RING_TAG_MASK) << RING_COUNT_BITS;
            let slot = &mut self.issue_ring[(c as usize) & self.issue_mask];
            if *slot & !RING_COUNT_MASK != tag {
                *slot = tag | 1;
                return c;
            }
            if (*slot & RING_COUNT_MASK) < self.width_cap {
                *slot += 1;
                return c;
            }
            c += 1;
        }
    }

    /// Re-zeroes every issue-ring slot whose epoch tag is outside the
    /// live window, so a slot written ≥ 2^16 epochs ago can never be
    /// misread as current once the 16-bit tags wrap.
    ///
    /// Exactness: all probe-able cycles lie in
    /// `[fetch_cycle, fetch_cycle + live span]` with the live span ≤ one
    /// ring length (the ring-sizing invariant the previous full-cycle
    /// encoding relied on too), i.e. within epochs `E ..= E + 1` of
    /// `E = fetch_cycle >> ring_bits`. Slots tagged inside a
    /// four-epoch window around `E` are preserved verbatim; everything
    /// else is architecturally dead — a zeroed slot then reads as "no
    /// issues recorded", which is exactly what a fresh probe of a
    /// passed cycle would conclude — so a pass costs one linear sweep
    /// (256 KiB) per 2^15 epochs (≥ 2 × 10^9 cycles for the default
    /// core) and changes no observable timing.
    #[cold]
    fn scrub_issue_ring(&mut self) {
        let live_base = (self.fetch_cycle >> self.ring_bits) as u32 & RING_TAG_MASK;
        for slot in self.issue_ring.iter_mut() {
            let age = (*slot >> RING_COUNT_BITS).wrapping_sub(live_base) & RING_TAG_MASK;
            if age > 3 {
                *slot = 0;
            }
        }
        self.ring_scrub_at =
            ((self.fetch_cycle >> self.ring_bits) + RING_SCRUB_EPOCHS) << self.ring_bits;
    }

    /// Consumes one dynamic instruction from the reference
    /// ([`DynInst`]-streaming) engine.
    ///
    /// `predictor` is consulted for conditional branches; when
    /// `filter_prob` is set, probabilistic branches neither access nor
    /// update the predictor and are treated as perfectly resolved — the
    /// Figure 9 interference-isolation mode.
    ///
    /// Derives the dataflow/latency metadata from the carried
    /// [`Inst`](probranch_isa::Inst) on the fly and asks the live
    /// memory hierarchy for the fetch stall and (for loads) the data
    /// latency, then feeds the cycle-accounting core.
    ///
    /// The replay engines call [`consume_core`](Self::consume_core)
    /// directly instead, with latencies pre-simulated at trace-capture
    /// time — the hierarchy's evolution depends only on the pc/address
    /// stream, which the trace fixes, never on the predictor or core
    /// configuration.
    pub fn consume(&mut self, d: &DynInst, predictor: &mut dyn BranchPredictor, filter_prob: bool) {
        let timing = InstTiming::of(&d.inst);
        let istall = self.hierarchy.inst_access(d.pc as u64 * 8);
        // Resolving the load latency here instead of at issue is exact:
        // the issue-slot probe touches no hierarchy state, and the
        // access order the caches observe (instruction fetch, then data
        // access, per record in program order) is unchanged.
        let exec_lat = if timing.is_load() {
            let addr = d.mem_addr.expect("loads carry an address");
            self.hierarchy.data_access(addr)
        } else {
            self.static_latency(timing.class)
        };
        self.consume_core(
            d.pc,
            &timing,
            d.branch,
            istall,
            exec_lat,
            predictor,
            filter_prob,
        );
    }

    /// The per-class latency table entry for `class` (replay helper).
    #[inline(always)]
    pub(crate) fn static_latency(&self, class: u8) -> u64 {
        self.lat_table[(class & 15) as usize]
    }

    /// The cycle-accounting core: everything downstream of the memory
    /// hierarchy, with the fetch stall and the execute latency already
    /// resolved. Shared verbatim by the reference engine (through
    /// [`consume`](Self::consume)) and the trace-replay engines, so the
    /// two paths cannot drift apart.
    // The argument list mirrors the record layout of the hot loops; a
    // grouping struct would be rebuilt per dynamic instruction.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub(crate) fn consume_core<P: BranchPredictor + ?Sized>(
        &mut self,
        pc: u32,
        timing: &InstTiming,
        branch: Option<BranchEvent>,
        istall: u64,
        exec_lat: u64,
        predictor: &mut P,
        filter_prob: bool,
    ) {
        // Epoch-tag maintenance for the u32 issue ring: at most one
        // linear sweep per 2^15 ring epochs (one predictable
        // never-taken compare per record otherwise).
        if self.fetch_cycle >= self.ring_scrub_at {
            self.scrub_issue_ring();
        }
        // ---- fetch -----------------------------------------------------------
        // Both stall conditions are data-dependent and mispredict as
        // host branches; written in conditional-move form (an I-miss
        // resets the fetch group, then a full group bumps the cycle —
        // with a reset group `0 >= width` can't fire, exactly as the
        // branchy original).
        let istalled = istall > 0;
        self.fetch_cycle += istall;
        let fic = if istalled { 0 } else { self.fetched_in_cycle };
        let group_full = fic >= self.cfg.width;
        self.fetch_cycle += group_full as u64;
        self.fetched_in_cycle = if group_full { 0 } else { fic };
        // ROB back-pressure: the instruction cannot enter until the entry
        // `rob_size` older has committed.
        if self.rob_len >= self.cfg.rob_size {
            let free_at = self.rob[self.rob_head];
            self.rob_head += 1;
            if self.rob_head == self.cfg.rob_size {
                self.rob_head = 0;
            }
            self.rob_len -= 1;
            // Written to favour conditional moves: the stall condition is
            // data-dependent and mispredicts as a branch.
            let stalled = free_at > self.fetch_cycle;
            self.fetch_cycle = if stalled { free_at } else { self.fetch_cycle };
            self.fetched_in_cycle = if stalled { 0 } else { self.fetched_in_cycle };
        }
        let fetch = self.fetch_cycle;
        self.fetched_in_cycle += 1;

        // ---- dispatch / register dataflow -----------------------------------
        // The flag pseudo-register is already folded into uses/defs.
        // Fixed-trip over all four (padded) slots: the PAD_USE_REG slot
        // is never written, so its ready cycle is always 0 and the max
        // equals the max over the live prefix — with no data-dependent
        // loop bound in the hottest path.
        let dispatch = fetch + self.cfg.frontend_depth;
        let mut ready = dispatch;
        for &r in &timing.uses {
            ready = ready.max(self.reg_ready[(r & 63) as usize]);
        }

        // ---- issue / execute --------------------------------------------------
        let issue = self.issue_slot(ready);
        let complete = issue + exec_lat;
        // Fixed-trip over both (padded) slots: PAD_DEF_REG is never
        // read, so writing its ready cycle is invisible to the dataflow.
        for &r in &timing.defs {
            self.reg_ready[(r & 63) as usize] = complete;
        }

        // ---- branch resolution -------------------------------------------------
        if let Some(ev) = branch {
            self.stats.dyn_branches += 1;
            let mispredicted = match ev.kind {
                BranchEventKind::Conditional => {
                    self.stats.cond_branches += 1;
                    self.stats.prob_branches += ev.is_prob as u64;
                    if ev.is_prob && filter_prob {
                        false // oracle-resolved, predictor untouched
                    } else {
                        let predicted =
                            predictor.predict_and_update(BranchReq::new(pc as u64, ev.taken));
                        if let Some(trace) = &mut self.trace {
                            trace.push(BranchTraceEntry {
                                pc,
                                predicted,
                                taken: ev.taken,
                                is_prob: ev.is_prob,
                            });
                        }
                        predicted != ev.taken
                    }
                }
                BranchEventKind::PbsDirected => {
                    self.stats.cond_branches += 1;
                    self.stats.prob_branches += 1;
                    self.stats.pbs_directed += 1;
                    false // direction known at fetch; no predictor access
                }
                // Direct jumps/calls resolve in the front end; returns
                // are covered by a return-address-stack model assumed
                // perfect for our call depths.
                BranchEventKind::Unconditional | BranchEventKind::Call | BranchEventKind::Ret => {
                    false
                }
            };
            // Redirect/fetch-group bookkeeping in conditional-move form:
            // `ev.taken` on a correctly predicted branch is essentially a
            // coin flip to the *host's* branch predictor, and a
            // mispredicted model branch is rare — both were costly
            // branches here. A mispredicted branch redirects fetch to
            // `complete + penalty` (the front-end refill); a correctly
            // predicted taken branch merely ends the fetch group.
            self.stats.mispredicts += mispredicted as u64;
            self.stats.mispredicts_prob += (mispredicted && ev.is_prob) as u64;
            self.stats.mispredicts_regular += (mispredicted && !ev.is_prob) as u64;
            let fg_break = !mispredicted && ev.taken;
            let redirected_fetch = if mispredicted {
                complete + self.cfg.mispredict_penalty
            } else {
                fetch + 1
            };
            let bumped = mispredicted || fg_break;
            self.fetch_cycle = if bumped {
                redirected_fetch
            } else {
                self.fetch_cycle
            };
            self.fetched_in_cycle = if bumped { 0 } else { self.fetched_in_cycle };
        }

        // ---- commit -------------------------------------------------------------
        // Commit-bandwidth bump, in conditional-move form (the cycle
        // comparison is data-dependent).
        let mut commit = complete.max(self.last_commit);
        let same_cycle = commit == self.last_commit;
        let full = same_cycle && self.committed_in_commit_cycle >= self.cfg.width;
        commit += full as u64;
        self.committed_in_commit_cycle = if same_cycle && !full {
            self.committed_in_commit_cycle + 1
        } else {
            1
        };
        self.last_commit = commit;
        let mut slot = self.rob_head + self.rob_len;
        if slot >= self.cfg.rob_size {
            slot -= self.cfg.rob_size;
        }
        self.rob[slot] = commit;
        self.rob_len += 1;
        self.stats.instructions += 1;
        // `stats.cycles` is derived from `last_commit` in `stats()`
        // rather than stored per instruction.
    }

    /// The accumulated statistics.
    pub fn stats(&self) -> TimingStats {
        let mut s = self.stats;
        s.cycles = self.last_commit;
        s
    }

    /// The memory hierarchy (for cache statistics).
    pub fn hierarchy(&self) -> &MemoryHierarchy {
        &self.hierarchy
    }

    /// The configuration.
    pub fn config(&self) -> &OooConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use probranch_isa::{AluOp, CmpOp, Inst, Operand, Reg};
    use probranch_predictor::StaticPredictor;

    fn alu(pc: u32, dst: Reg, src: Reg) -> DynInst {
        DynInst {
            pc,
            inst: Inst::Alu {
                op: AluOp::Add,
                dst,
                src1: src,
                src2: Operand::imm(1),
            },
            branch: None,
            mem_addr: None,
        }
    }

    fn branch(pc: u32, taken: bool) -> DynInst {
        DynInst {
            pc,
            inst: Inst::Br {
                op: CmpOp::Lt,
                fp: false,
                lhs: Reg::R1,
                rhs: Operand::imm(0),
                target: 0,
            },
            branch: Some(crate::machine::BranchEvent {
                taken,
                kind: BranchEventKind::Conditional,
                is_prob: false,
            }),
            mem_addr: None,
        }
    }

    #[test]
    fn independent_instructions_reach_width_ipc() {
        let mut m = OooTimingModel::new(OooConfig::default());
        let mut p = StaticPredictor::taken();
        // Independent single-cycle instructions on distinct registers
        // (cycled); a 4-wide core should approach IPC 4 once the cold
        // I-cache misses are amortized.
        for i in 0..100_000u32 {
            let r = Reg::new(1 + (i % 8)).unwrap();
            m.consume(&alu(i % 64, r, r), &mut p, false);
        }
        let ipc = m.stats().ipc();
        assert!(ipc > 3.5, "ipc {ipc}");
    }

    #[test]
    fn dependent_chain_is_serial() {
        let mut m = OooTimingModel::new(OooConfig::default());
        let mut p = StaticPredictor::taken();
        for i in 0..4000u32 {
            m.consume(&alu(i % 64, Reg::R1, Reg::R1), &mut p, false);
        }
        let ipc = m.stats().ipc();
        assert!(ipc < 1.1, "dependent chain must serialize, ipc {ipc}");
    }

    #[test]
    fn mispredictions_cost_cycles() {
        // Always-taken branches predicted not-taken by the static
        // predictor: every branch is a full redirect.
        let run = |taken: bool| {
            let mut m = OooTimingModel::new(OooConfig::default());
            let mut p = StaticPredictor::not_taken();
            for i in 0..2000u32 {
                m.consume(&branch(i % 64, taken), &mut p, false);
                for j in 0..3u32 {
                    let r = Reg::new(2 + j).unwrap();
                    m.consume(&alu((i * 4 + j) % 64, r, r), &mut p, false);
                }
            }
            m.stats()
        };
        let bad = run(true); // all mispredicted
        let good = run(false); // all correct
        assert_eq!(bad.mispredicts, 2000);
        assert_eq!(good.mispredicts, 0);
        assert!(
            bad.cycles > good.cycles * 3,
            "mispredicts {} cycles vs clean {} cycles",
            bad.cycles,
            good.cycles
        );
    }

    #[test]
    fn pbs_directed_branches_do_not_touch_predictor_or_mispredict() {
        let mut m = OooTimingModel::new(OooConfig::default());
        let mut p = StaticPredictor::not_taken();
        for i in 0..100u32 {
            let mut d = branch(i % 16, true);
            d.branch = Some(crate::machine::BranchEvent {
                taken: true,
                kind: BranchEventKind::PbsDirected,
                is_prob: true,
            });
            m.consume(&d, &mut p, false);
        }
        let s = m.stats();
        assert_eq!(s.mispredicts, 0);
        assert_eq!(s.pbs_directed, 100);
        assert_eq!(s.prob_branches, 100);
    }

    #[test]
    fn filter_mode_isolates_prob_branches() {
        let mut m = OooTimingModel::new(OooConfig::default());
        let mut p = StaticPredictor::not_taken();
        let mut d = branch(5, true);
        d.branch = Some(crate::machine::BranchEvent {
            taken: true,
            kind: BranchEventKind::Conditional,
            is_prob: true,
        });
        m.consume(&d, &mut p, true);
        let s = m.stats();
        assert_eq!(s.mispredicts, 0, "filtered prob branch cannot mispredict");
        assert_eq!(s.prob_branches, 1);
    }

    #[test]
    fn loads_hit_in_cache_after_warmup() {
        let mut m = OooTimingModel::new(OooConfig::default());
        let mut p = StaticPredictor::taken();
        let load = |pc: u32, addr: u64| DynInst {
            pc,
            inst: Inst::Load {
                dst: Reg::R1,
                base: Reg::R2,
                offset: 0,
            },
            branch: None,
            mem_addr: Some(addr),
        };
        m.consume(&load(0, 0x100), &mut p, false);
        let cold_cycles = m.stats().cycles;
        for i in 1..100u32 {
            m.consume(&load(i % 16, 0x100), &mut p, false);
        }
        let s = m.stats();
        assert!(s.cycles < cold_cycles + 400, "warm loads must be fast");
        assert!(m.hierarchy().l1d().hits() >= 99);
    }

    #[test]
    fn taken_branches_limit_fetch_bandwidth() {
        // All-taken, perfectly predicted branches: one fetch group per
        // branch caps IPC near 1 even on a 4-wide machine.
        let mut m = OooTimingModel::new(OooConfig::default());
        let mut p = StaticPredictor::taken();
        for i in 0..4000u32 {
            m.consume(&branch(i % 64, true), &mut p, false);
        }
        let ipc = m.stats().ipc();
        assert!(ipc < 1.2, "ipc {ipc}");
    }

    #[test]
    fn wide_config_is_faster_on_parallel_code() {
        let run = |cfg: OooConfig| {
            let mut m = OooTimingModel::new(cfg);
            let mut p = StaticPredictor::taken();
            for i in 0..8000u32 {
                let r = Reg::new(1 + (i % 16)).unwrap();
                m.consume(&alu(i % 64, r, r), &mut p, false);
            }
            m.stats().cycles
        };
        let narrow = run(OooConfig::default());
        let wide = run(OooConfig::wide());
        assert!(wide < narrow, "8-wide {wide} cycles vs 4-wide {narrow}");
    }

    #[test]
    fn issue_ring_stays_exact_across_epoch_scrubs() {
        // A tiny core gives a small ring (fast epochs); a serial
        // dependent chain on a 20-cycle divider walks the clock past
        // several scrub passes. The run's cycle count has a closed
        // form — one divide issuing every `int_div` cycles once the
        // pipeline fills — so a stale-count misread or an over-eager
        // scrub of a live slot would show up as an exact-cycle drift.
        let cfg = OooConfig {
            width: 2,
            rob_size: 1,
            latencies: ExecLatencies {
                int_div: 20,
                ..ExecLatencies::default()
            },
            ..OooConfig::default()
        };
        let div = |pc: u32| DynInst {
            pc,
            inst: Inst::Alu {
                op: AluOp::Div,
                dst: Reg::R1,
                src1: Reg::R1,
                src2: Operand::imm(3),
            },
            branch: None,
            mem_addr: None,
        };
        let run = |n: u64| {
            let mut m = OooTimingModel::new(cfg.clone());
            let mut p = StaticPredictor::taken();
            for i in 0..n {
                m.consume(&div((i % 16) as u32), &mut p, false);
            }
            (m.stats().cycles, m.issue_ring.len() as u64)
        };
        // Calibrate the chain's exact steady-state period on short
        // (scrub-free) runs…
        let (c1, ring_len) = run(10_000);
        let (c2, _) = run(20_000);
        let period = (c2 - c1) / 10_000;
        assert_eq!((c2 - c1) % 10_000, 0, "chain must be exactly periodic");
        // …then extrapolate across several scrub passes: any stale
        // count misread or over-eager scrub of a live slot breaks the
        // exact linearity.
        let scrub_span = RING_SCRUB_EPOCHS * ring_len;
        let n = (5 * scrub_span / 2) / period + 1000;
        let (cycles, _) = run(n);
        assert!(
            cycles > 2 * scrub_span,
            "run must cross scrub passes: {cycles} cycles vs {scrub_span}-cycle span"
        );
        assert_eq!(
            cycles,
            c1 + period * (n - 10_000),
            "dependent divide chain drifted across ring scrubs (period {period})"
        );
    }

    #[test]
    fn stats_ipc_and_mpki() {
        let s = TimingStats {
            cycles: 1000,
            instructions: 2000,
            mispredicts: 10,
            mispredicts_regular: 4,
            ..TimingStats::default()
        };
        assert_eq!(s.ipc(), 2.0);
        assert_eq!(s.mpki(), 5.0);
        assert_eq!(s.mpki_regular(), 2.0);
        assert_eq!(TimingStats::default().ipc(), 0.0);
        assert_eq!(TimingStats::default().mpki(), 0.0);
    }
}
