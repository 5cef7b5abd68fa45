//! # probranch-pipeline
//!
//! The CPU-simulation substrate for the `probranch` reproduction of
//! *Architectural Support for Probabilistic Branches* (MICRO 2018): a
//! functional emulator for the `probranch` ISA and a trace-driven
//! out-of-order timing model, co-simulating the baseline branch
//! predictors (`probranch-predictor`) and the PBS unit
//! (`probranch-core`).
//!
//! The paper evaluates on Sniper 6.0 with a 4-wide, 168-entry-ROB core
//! configured after Sandy Bridge, split 32 KB L1 caches, a 2 MB L2, and
//! a 10-cycle branch misprediction refill penalty (Section VI-B). This
//! crate rebuilds that stack:
//!
//! * [`Emulator`] — executes programs, drives the PBS unit (value swap,
//!   bootstrap, context tracking) and streams [`DynInst`] records;
//! * [`Cache`], [`MemoryHierarchy`] — set-associative LRU caches;
//! * [`OooTimingModel`] — fetch/dispatch/issue/complete/commit cycle
//!   accounting with ROB back-pressure and misprediction redirects;
//! * [`DecodedProgram`] — the one-time predecode pass feeding trace
//!   capture (see `decode`);
//! * [`TraceStream`] — trace capture: one loop that runs the program's
//!   warm basic blocks as compiled straight-line code and single-steps
//!   every other pc through the decoded interpreter (see `aot`), writing
//!   the records into chunks through the chunk format's one writer.
//!   [`Emulator::run_to_halt`] runs the same loop with nothing to
//!   record. The `capture.block` failpoint forces the interpreter (a
//!   scoped plan in tests, `--fault-plan` from outside the process);
//! * [`Simulation`] / [`run_functional`] — one-call experiment drivers
//!   returning [`SimReport`]s with IPC, MPKI, PBS counters, program
//!   outputs and the consumed probabilistic-value stream.
//!   [`Simulation`] is keyed by [`EngineKind`]: the replay engine and
//!   its streaming mode below, and the per-instruction reference loop
//!   (the differential oracle producing identical reports);
//! * [`DynTrace`] + [`EngineKind::Replay`] / [`EngineKind::Convoy`] —
//!   emulate once, time many: the dynamic record stream (plus
//!   pre-simulated cache latencies) is captured once per emulation key
//!   `(workload, PBS config, emulator config)` into structure-of-arrays
//!   chunks and re-timed against any number of predictor/core
//!   configurations — from a materialized trace, or chunk by chunk
//!   from a streamed capture — with each chunk's branches
//!   batch-predicted through
//!   [`probranch_predictor::BranchPredictor::predict_update_batch`]
//!   ahead of the timing walk (see `trace`), and optional on-disk
//!   persistence keyed by content hash (see `persist`);
//! * [`BranchStats`] — the predictor-only pass
//!   ([`Simulation::run_branches`], [`Simulation::replay_branches`]):
//!   branch and misprediction counts from the batch predictor alone,
//!   with no timing walk;
//! * [`PredTape`] — predict once, time many: one pass's predictions
//!   over a trace, one bit per predictor-visible branch, which later
//!   replays and predictor-only passes under the same [`TapeKey`] read
//!   instead of running the predictor
//!   ([`Simulation::replay_taped`], [`Simulation::replay_branches_taped`]).
//!
//! ```
//! use probranch_isa::{ProgramBuilder, Reg, CmpOp};
//! use probranch_pipeline::{EngineKind, SimConfig, Simulation};
//!
//! let mut b = ProgramBuilder::new();
//! let top = b.label("top");
//! b.li(Reg::R1, 0);
//! b.bind(top);
//! b.add(Reg::R1, Reg::R1, 1)
//!  .br(CmpOp::Lt, Reg::R1, 100, top)
//!  .halt();
//! let report = Simulation::new(EngineKind::Replay).run(&b.build()?, &SimConfig::default())?;
//! assert_eq!(report.timing.instructions, 202);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aot;
mod cache;
pub mod cancel;
mod decode;
mod machine;
mod ooo;
mod persist;
mod sim;
mod tape;
mod trace;

pub use aot::{capture_overlap, set_capture_overlap};
pub use cache::{Cache, MemLatencies, MemoryHierarchy};
pub use cancel::{CancelScope, CancelToken};
pub use decode::{
    DecOp, DecodedInst, DecodedProgram, InstTiming, FLAG_REG, PAD_DEF_REG, PAD_USE_REG,
};
pub use machine::{
    BranchEvent, BranchEventKind, DynInst, EmuConfig, EmuError, Emulator, StepRecord,
};
pub use ooo::{
    BranchStats, BranchTraceEntry, ExecLatencies, OooConfig, OooTimingModel, TimingStats,
};
pub use persist::{sweep_old_quarantined, sweep_stale_temps, TraceLoad, TRACE_FILE_VERSION};
pub use sim::{run_functional, EngineKind, PredictorChoice, SimConfig, SimReport, Simulation};
pub use tape::{PredTape, TapeKey};
pub use trace::{
    DynTrace, FlowTable, ReplayConsumer, TraceChunk, TraceFunctional, TraceStream,
    TRACE_CHUNK_RECORDS,
};
