//! The top-level simulator: functional emulation co-simulated with the
//! branch predictor, the PBS unit and the out-of-order timing model.
//!
//! [`Simulation`] is the single entry point, keyed by [`EngineKind`]:
//!
//! * [`EngineKind::Replay`] — emulate once, time many: cells re-time a
//!   captured [`DynTrace`], with each chunk's branches batch-predicted
//!   through the statically dispatched [`PredictorDispatch`] ahead of
//!   the timing walk (see `trace.rs`);
//! * [`EngineKind::Convoy`] — replay's streaming mode: one capture
//!   stream whose chunks each of a key's timing cells drains in turn,
//!   so no trace is materialized and memory stays bounded on
//!   arbitrarily long workloads;
//! * [`EngineKind::Reference`] — the original per-instruction loop (a
//!   [`DynInst`](crate::DynInst) stream into `Box<dyn BranchPredictor>`
//!   with a live memory hierarchy), kept as the differential oracle
//!   the equivalence suite checks replay against.
//!
//! All three produce byte-identical [`SimReport`]s — equality over every
//! field, error paths included — locked in by
//! `tests/engine_equivalence.rs`.
//!
//! Beside the full timing runs, [`Simulation::run_branches`] and
//! [`Simulation::replay_branches`] are the *predictor-only pass*: the
//! same capture and batch prediction, no out-of-order timing walk, and a
//! [`BranchStats`] (every [`TimingStats`] field but `cycles`) as the
//! result — for figures that print branch counts and misprediction
//! shares but no cycle count.

use probranch_core::{PbsConfig, PbsStats, PbsUnit};
use probranch_isa::Program;
use probranch_predictor::{
    BranchPredictor, PredictorDispatch, StaticPredictor, TageScL, Tournament,
};

use std::sync::mpsc;

use crate::cancel::CANCEL_STRIDE;
use crate::decode::InstTiming;
use crate::machine::{EmuConfig, EmuError, Emulator};
use crate::ooo::{BranchStats, OooConfig, OooTimingModel, TimingStats};
use crate::trace::{BranchCounter, DynTrace, ReplayConsumer, TraceChunk, TraceStream};

/// Which baseline branch predictor to instantiate (paper Section VI-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictorChoice {
    /// The 1 KB Pentium-M-style tournament predictor.
    Tournament,
    /// The 8 KB TAGE-SC-L predictor.
    TageScL,
    /// Static always-taken (lower bound, for ablations).
    StaticTaken,
    /// Static always-not-taken.
    StaticNotTaken,
}

impl PredictorChoice {
    /// Instantiates the predictor as a trait object (the reference
    /// engine's dispatch; prefer [`build_dispatch`](Self::build_dispatch)
    /// on hot paths).
    pub fn build(self) -> Box<dyn BranchPredictor> {
        match self {
            PredictorChoice::Tournament => Box::new(Tournament::default()),
            PredictorChoice::TageScL => Box::new(TageScL::default()),
            PredictorChoice::StaticTaken => Box::new(StaticPredictor::taken()),
            PredictorChoice::StaticNotTaken => Box::new(StaticPredictor::not_taken()),
        }
    }

    /// Instantiates the predictor behind the static [`PredictorDispatch`]
    /// enum — the replay consumers' predictor, batch-predicted one
    /// dispatch per chunk.
    pub fn build_dispatch(self) -> PredictorDispatch {
        match self {
            PredictorChoice::Tournament => PredictorDispatch::from(Tournament::default()),
            PredictorChoice::TageScL => PredictorDispatch::from(TageScL::default()),
            PredictorChoice::StaticTaken => PredictorDispatch::from(StaticPredictor::taken()),
            PredictorChoice::StaticNotTaken => {
                PredictorDispatch::from(StaticPredictor::not_taken())
            }
        }
    }

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            PredictorChoice::Tournament => "tournament",
            PredictorChoice::TageScL => "tage-sc-l",
            PredictorChoice::StaticTaken => "static-taken",
            PredictorChoice::StaticNotTaken => "static-not-taken",
        }
    }
}

/// Full-system simulation configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Core (timing) configuration.
    pub core: OooConfig,
    /// Baseline branch predictor.
    pub predictor: PredictorChoice,
    /// PBS hardware, or `None` for the baseline machine (probabilistic
    /// branches execute as regular branches).
    pub pbs: Option<PbsConfig>,
    /// Figure 9 mode: probabilistic branches neither access nor update
    /// the predictor (isolating their interference on regular branches).
    pub filter_prob_from_predictor: bool,
    /// Emulator configuration.
    pub emu: EmuConfig,
    /// Instruction budget (guards against authoring bugs).
    pub max_insts: u64,
    /// Record every predictor-consulted conditional branch into
    /// [`SimReport::branch_trace`] (golden-trace regression tests; off
    /// by default — tracing a long run allocates per branch).
    pub collect_branch_trace: bool,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            core: OooConfig::default(),
            predictor: PredictorChoice::TageScL,
            pbs: None,
            filter_prob_from_predictor: false,
            emu: EmuConfig::default(),
            max_insts: 200_000_000,
            collect_branch_trace: false,
        }
    }
}

impl SimConfig {
    /// Convenience: the same configuration with PBS enabled at the
    /// paper's default design point.
    pub fn with_pbs(mut self) -> SimConfig {
        self.pbs = Some(PbsConfig::default());
        self
    }

    /// Convenience: selects the predictor.
    pub fn predictor(mut self, p: PredictorChoice) -> SimConfig {
        self.predictor = p;
        self
    }

    /// A stable 64-bit fingerprint of the configuration's *emulation
    /// key* — every field that shapes the dynamic instruction stream a
    /// trace captures (PBS configuration, emulator configuration,
    /// instruction budget) plus the ISA version — and none of the
    /// timing-side fields (predictor, core, filter, tracing).
    ///
    /// This is the content-hash ingredient for on-disk trace
    /// persistence: two configurations with equal fingerprints capture
    /// byte-identical traces of the same program.
    pub fn emu_key_fingerprint(&self) -> u64 {
        let pbs = match &self.pbs {
            None => [0u64; 5],
            Some(p) => [
                1,
                p.num_branches as u64,
                p.values_per_branch as u64,
                p.in_flight as u64,
                p.context_tracking as u64,
            ],
        };
        let mut parts = vec![u64::from(probranch_isa::ISA_VERSION)];
        parts.extend_from_slice(&pbs);
        parts.extend_from_slice(&[
            self.emu.mem_words as u64,
            self.emu.max_call_depth as u64,
            self.max_insts,
        ]);
        probranch_rng::SplitMix64::mix_fold(&parts)
    }
}

/// The result of a simulation run.
///
/// `PartialEq` compares every field — the engine-equivalence suite
/// asserts whole-report equality between the replay and reference
/// engines.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Timing statistics (cycles, IPC, MPKI, branch breakdown).
    pub timing: TimingStats,
    /// PBS event counters, when PBS was enabled.
    pub pbs: Option<PbsStats>,
    /// Program outputs: `(port, values)` pairs in ascending port order —
    /// a dense table whose iteration order is structural, not
    /// hash-order-by-luck.
    pub outputs: Vec<(u16, Vec<u64>)>,
    /// Probabilistic values in consumption order (Table III input).
    pub prob_consumed: Vec<u64>,
    /// Per-branch (pc, predicted, actual) log; empty unless
    /// [`SimConfig::collect_branch_trace`] was set.
    pub branch_trace: Vec<crate::ooo::BranchTraceEntry>,
}

impl SimReport {
    /// The values emitted on `port`.
    pub fn output(&self, port: u16) -> &[u64] {
        self.outputs
            .iter()
            .find(|(p, _)| *p == port)
            .map_or(&[], |(_, v)| v.as_slice())
    }

    /// The values emitted on `port`, as doubles.
    pub fn output_f64(&self, port: u16) -> Vec<f64> {
        self.output(port)
            .iter()
            .map(|&v| f64::from_bits(v))
            .collect()
    }
}

/// Which engine a [`Simulation`] runs its timing cells through.
///
/// The engines produce byte-identical [`SimReport`]s — equality over
/// every field, error paths included — locked in by
/// `tests/engine_equivalence.rs`. They differ only in execution shape,
/// and therefore in throughput and memory footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineKind {
    /// The emulate-once/time-many replay engine (default): each cell
    /// re-times a captured [`DynTrace`], with every chunk's
    /// predictor-visible branches batch-predicted through
    /// [`BranchPredictor::predict_update_batch`] ahead of the timing
    /// walk.
    #[default]
    Replay,
    /// Replay's streaming mode: one capture stream, each chunk drained
    /// through every one of a key's timing cells in turn — no
    /// materialized trace, bounded memory on arbitrarily long
    /// workloads.
    Convoy,
    /// The original per-instruction loop (a [`DynInst`](crate::DynInst)
    /// stream into `Box<dyn BranchPredictor>`, consulted serially per
    /// branch) — the slow differential oracle.
    Reference,
}

impl EngineKind {
    /// Every engine, replay first — the order differential matrices
    /// iterate.
    pub const ALL: [EngineKind; 3] = [
        EngineKind::Replay,
        EngineKind::Convoy,
        EngineKind::Reference,
    ];

    /// Parses a sweep engine name, as accepted by `figures --engine`
    /// and the sweep service: `replay` or `reference`. No sweep runs
    /// [`EngineKind::Convoy`], so it has no name here.
    pub fn parse(name: &str) -> Option<EngineKind> {
        match name {
            "replay" => Some(EngineKind::Replay),
            "reference" => Some(EngineKind::Reference),
            _ => None,
        }
    }

    /// The engine's name (stderr trailers and degraded-cell labels).
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Replay => "replay",
            EngineKind::Convoy => "convoy",
            EngineKind::Reference => "reference",
        }
    }
}

/// The simulator's single entry point: an [`EngineKind`] plus the four
/// run shapes every engine supports — live single cell ([`run`]),
/// live multi-cell ([`run_many`]), materialized-trace single cell
/// ([`replay`]) and materialized-trace multi-cell ([`replay_many`]) —
/// and the predictor-only pass over a live run ([`run_branches`]) or a
/// materialized trace ([`replay_branches`]).
///
/// [`run`]: Simulation::run
/// [`run_many`]: Simulation::run_many
/// [`replay`]: Simulation::replay
/// [`replay_many`]: Simulation::replay_many
/// [`run_branches`]: Simulation::run_branches
/// [`replay_branches`]: Simulation::replay_branches
///
/// ```
/// use probranch_isa::{ProgramBuilder, Reg, CmpOp};
/// use probranch_pipeline::{EngineKind, SimConfig, Simulation};
///
/// let mut b = ProgramBuilder::new();
/// let top = b.label("top");
/// b.li(Reg::R1, 0);
/// b.bind(top);
/// b.add(Reg::R1, Reg::R1, 1)
///  .br(CmpOp::Lt, Reg::R1, 1000, top)
///  .halt();
/// let program = b.build()?;
/// let report = Simulation::new(EngineKind::Reference).run(&program, &SimConfig::default())?;
/// assert!(report.timing.ipc() > 0.5);
/// // Any other engine produces the byte-identical report.
/// let replayed = Simulation::default().run(&program, &SimConfig::default())?;
/// assert_eq!(replayed, report);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Simulation {
    engine: EngineKind,
}

impl Simulation {
    /// A simulation entry point over `engine`.
    pub fn new(engine: EngineKind) -> Simulation {
        Simulation { engine }
    }

    /// The engine this entry point dispatches to.
    pub fn engine(self) -> EngineKind {
        self.engine
    }

    /// Runs `program` to completion under a full timing simulation.
    ///
    /// Under [`EngineKind::Replay`] the trace is captured and replayed
    /// internally; use [`replay`](Simulation::replay) when a
    /// [`DynTrace`] for the configuration's emulation key is already
    /// materialized.
    ///
    /// # Errors
    ///
    /// Propagates any [`EmuError`] (faults indicate workload bugs),
    /// identically across engines.
    pub fn run(self, program: &Program, config: &SimConfig) -> Result<SimReport, EmuError> {
        match self.engine {
            EngineKind::Reference => run_reference(program, config),
            EngineKind::Convoy => run_convoy(program, std::slice::from_ref(config))
                .map(|mut reports| reports.pop().expect("one report per config")),
            EngineKind::Replay => {
                let trace = DynTrace::capture(program, config)?;
                replay_one(&trace, config)
            }
        }
    }

    /// Runs one timing cell per configuration, in input order.
    ///
    /// Under [`EngineKind::Replay`] and [`EngineKind::Convoy`] the
    /// configurations must share an emulation key (equal `pbs`, `emu`
    /// and `max_insts`) so one captured stream serves every cell; the
    /// reference engine simply runs them back to back.
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty, or (replay/convoy) the emulation
    /// keys differ.
    ///
    /// # Errors
    ///
    /// Propagates any [`EmuError`], identically across engines.
    pub fn run_many(
        self,
        program: &Program,
        configs: &[SimConfig],
    ) -> Result<Vec<SimReport>, EmuError> {
        match self.engine {
            EngineKind::Reference => configs
                .iter()
                .map(|cfg| run_reference(program, cfg))
                .collect(),
            EngineKind::Convoy => run_convoy(program, configs),
            EngineKind::Replay => {
                let key = check_convoy_key(configs);
                let trace = DynTrace::capture(program, key)?;
                configs.iter().map(|cfg| replay_one(&trace, cfg)).collect()
            }
        }
    }

    /// Re-times a captured [`DynTrace`] under `config`'s timing side
    /// (predictor, core, filter mode, branch tracing) without
    /// re-emulating.
    ///
    /// The materialized-trace path is shared by every engine — a trace
    /// fixes the dynamic instruction stream, so the engine choice
    /// cannot change the report — which keeps this method total over
    /// [`EngineKind`] (the reference engine has nothing left to
    /// re-execute).
    ///
    /// # Panics
    ///
    /// Panics if `config`'s emulation key (PBS and emulator
    /// configuration) differs from the one the trace was captured
    /// under.
    ///
    /// # Errors
    ///
    /// [`EmuError::InstLimitExceeded`] exactly when a live run would
    /// return it: the trace carries a completed run, so any
    /// `config.max_insts` at or below its dynamic instruction count
    /// would have tripped.
    pub fn replay(self, trace: &DynTrace, config: &SimConfig) -> Result<SimReport, EmuError> {
        replay_one(trace, config)
    }

    /// Re-times a captured [`DynTrace`] once per configuration, in
    /// input order: independent replays under every engine (see
    /// [`replay`](Simulation::replay)).
    ///
    /// # Panics
    ///
    /// Panics if the trace's emulation key differs from a
    /// configuration's.
    ///
    /// # Errors
    ///
    /// The first cell's [`EmuError::InstLimitExceeded`], exactly when a
    /// live run of that cell would return it.
    pub fn replay_many(
        self,
        trace: &DynTrace,
        configs: &[SimConfig],
    ) -> Result<Vec<SimReport>, EmuError> {
        configs.iter().map(|cfg| replay_one(trace, cfg)).collect()
    }

    /// The predictor-only pass over a live run: one [`BranchStats`] per
    /// configuration, in input order, equal to the projected
    /// [`TimingStats`] of [`run_many`](Simulation::run_many) without
    /// running the out-of-order timing walk.
    ///
    /// Under [`EngineKind::Replay`] and [`EngineKind::Convoy`] one
    /// capture stream feeds every configuration chunk by chunk (serial
    /// fill, one chunk live), each configuration batch-predicting the
    /// chunk's branches as a replay would; the configurations must share
    /// an emulation key. Under [`EngineKind::Reference`] each
    /// configuration is a reference run, projected. Branch tracing is
    /// ignored.
    ///
    /// # Panics
    ///
    /// As [`run_many`](Simulation::run_many).
    ///
    /// # Errors
    ///
    /// Exactly the errors [`run_many`](Simulation::run_many) returns:
    /// emulator faults, the instruction budget and cancellation, polled
    /// once per chunk.
    pub fn run_branches(
        self,
        program: &Program,
        configs: &[SimConfig],
    ) -> Result<Vec<BranchStats>, EmuError> {
        match self.engine {
            EngineKind::Reference => configs
                .iter()
                .map(|cfg| run_reference(program, cfg).map(|r| r.timing.into()))
                .collect(),
            EngineKind::Replay | EngineKind::Convoy => {
                let key = check_convoy_key(configs);
                let mut stream = TraceStream::new(program, key);
                let mut counters: Vec<BranchCounter> =
                    configs.iter().map(BranchCounter::new).collect();
                for_each_chunk(&mut stream, |_, chunk| {
                    for c in &mut counters {
                        c.consume_chunk(chunk);
                    }
                })?;
                Ok(counters.iter().map(BranchCounter::stats).collect())
            }
        }
    }

    /// The predictor-only pass over a captured [`DynTrace`]: equal to the
    /// projected [`TimingStats`] of [`replay`](Simulation::replay), with
    /// each chunk's branches batch-predicted and the out-of-order timing
    /// walk skipped. Engine-independent, as `replay` is. Branch tracing
    /// is ignored.
    ///
    /// # Panics
    ///
    /// As [`replay`](Simulation::replay).
    ///
    /// # Errors
    ///
    /// Exactly the errors [`replay`](Simulation::replay) returns: the
    /// instruction budget, and cancellation, polled once per chunk.
    pub fn replay_branches(
        self,
        trace: &DynTrace,
        config: &SimConfig,
    ) -> Result<BranchStats, EmuError> {
        check_replay(trace, config)?;
        let mut counter = BranchCounter::new(config);
        for chunk in trace.chunks() {
            crate::cancel::check_current()?;
            counter.consume_chunk(chunk);
        }
        Ok(counter.stats())
    }
}

/// The reference engine body (see [`EngineKind::Reference`]):
/// per-instruction [`DynInst`](crate::DynInst) records and a
/// `Box<dyn BranchPredictor>`. Polls cancellation before the first
/// instruction, as the chunked engines do before their first chunk, and
/// every [`CANCEL_STRIDE`] instructions after it.
fn run_reference(program: &Program, config: &SimConfig) -> Result<SimReport, EmuError> {
    let mut emu = build_emulator(program, config);
    let mut predictor = config.predictor.build();
    let mut timing = OooTimingModel::new(config.core.clone());
    if config.collect_branch_trace {
        timing.enable_trace();
    }

    let mut executed: u64 = 0;
    loop {
        if executed % CANCEL_STRIDE == 0 {
            crate::cancel::check_current()?;
        }
        let Some(d) = emu.step()? else { break };
        timing.consume(&d, predictor.as_mut(), config.filter_prob_from_predictor);
        executed += 1;
        if executed >= config.max_insts {
            return Err(EmuError::InstLimitExceeded {
                limit: config.max_insts,
            });
        }
    }

    Ok(report_of(emu, timing))
}

/// Panics unless `config` shares the trace's emulation key, and returns
/// [`EmuError::InstLimitExceeded`] exactly when a live run under
/// `config` would: the trace carries a completed run, so any budget at or
/// below its dynamic instruction count would have tripped.
fn check_replay(trace: &DynTrace, config: &SimConfig) -> Result<(), EmuError> {
    trace.check_compatible(config);
    if trace.instructions() >= config.max_insts {
        return Err(EmuError::InstLimitExceeded {
            limit: config.max_insts,
        });
    }
    Ok(())
}

/// The single-cell replay body (see [`EngineKind::Replay`]).
fn replay_one(trace: &DynTrace, config: &SimConfig) -> Result<SimReport, EmuError> {
    check_replay(trace, config)?;
    let mut consumer = ReplayConsumer::new(config);
    for chunk in trace.chunks() {
        crate::cancel::check_current()?;
        consumer.consume_chunk(trace.timings(), chunk);
    }
    Ok(consumer.into_report(trace.functional()))
}

/// Asserts every configuration of a [`Simulation::run_many`] shares the
/// first one's emulation key (`pbs`, `emu`, `max_insts`); timing-side
/// fields are free to differ.
fn check_convoy_key(configs: &[SimConfig]) -> &SimConfig {
    let key = configs
        .first()
        .expect("run_many needs at least one configuration");
    for cfg in &configs[1..] {
        assert_eq!(cfg.pbs, key.pbs, "convoy cells must share the PBS config");
        assert_eq!(
            cfg.emu, key.emu,
            "convoy cells must share the emulator config"
        );
        assert_eq!(
            cfg.max_insts, key.max_insts,
            "convoy cells must share the instruction budget"
        );
    }
    key
}

/// The streamed-convoy body (see [`EngineKind::Convoy`]): emulates
/// `program` once and drains each captured chunk through one timing
/// consumer per configuration, one consumer after another, while the
/// chunk is cache-hot. Emulation and cache pre-simulation run once,
/// and only a single chunk-sized buffer is ever live.
fn run_convoy(program: &Program, configs: &[SimConfig]) -> Result<Vec<SimReport>, EmuError> {
    let key = check_convoy_key(configs);
    let mut stream = TraceStream::new(program, key);
    let mut consumers: Vec<ReplayConsumer> = configs.iter().map(ReplayConsumer::new).collect();
    if crate::aot::capture_overlap() {
        run_convoy_pipelined(&mut stream, &mut consumers)?;
    } else {
        for_each_chunk(&mut stream, |timings, chunk| {
            for c in &mut consumers {
                c.consume_chunk(timings, chunk);
            }
        })?;
    }
    let functional = stream.finish();
    Ok(consumers
        .into_iter()
        .map(|c| c.into_report(&functional))
        .collect())
}

/// The serial streaming loop: fills one chunk buffer from `stream` and
/// hands each chunk, with the trace's per-pc metadata, to `drain` — only
/// one chunk is ever live. Cancellation is polled by each fill.
fn for_each_chunk(
    stream: &mut TraceStream,
    mut drain: impl FnMut(&[InstTiming], &TraceChunk),
) -> Result<(), EmuError> {
    let mut chunk = TraceChunk::with_chunk_capacity();
    while stream.fill(&mut chunk)? {
        drain(stream.timings(), &chunk);
    }
    Ok(())
}

/// The chunk-pipelined convoy loop: a helper thread captures chunk
/// `N + 1` while the caller drains chunk `N` through the timing
/// consumers, overlapping emulation with timing on multi-core hosts.
///
/// Chunks travel caller-ward through a depth-1 rendezvous channel and
/// return through an unbounded free list seeded with three buffers, so
/// at most three chunk-sized allocations are ever live (filling,
/// in-flight, draining) — the same bounded-memory story as the serial
/// loop, one buffer wider. The rendezvous channel keeps delivery in
/// capture order, so a fault or cancellation surfaces after exactly the
/// chunks a serial fill would have delivered — byte-identical error
/// semantics. The helper re-enters the caller's [`CancelScope`]
/// (cancellation scopes are thread-local), so supervised cells still
/// stop within one poll stride.
fn run_convoy_pipelined(
    stream: &mut TraceStream,
    consumers: &mut [ReplayConsumer],
) -> Result<(), EmuError> {
    // Instruction timings are fixed at predecode; clone them so the
    // drain side can classify records while the helper thread holds the
    // stream mutably.
    let timings: Box<[InstTiming]> = stream.timings().into();
    let token = crate::cancel::current();
    let (full_tx, full_rx) = mpsc::sync_channel::<Result<Option<TraceChunk>, EmuError>>(1);
    let (free_tx, free_rx) = mpsc::channel::<TraceChunk>();
    for _ in 0..3 {
        free_tx
            .send(TraceChunk::with_chunk_capacity())
            .expect("free list holds its receiver");
    }
    std::thread::scope(|scope| {
        let capture = scope.spawn(move || {
            let _guard = token.map(crate::cancel::CancelScope::enter);
            while let Ok(mut chunk) = free_rx.recv() {
                match stream.fill(&mut chunk) {
                    Ok(true) => {
                        if full_tx.send(Ok(Some(chunk))).is_err() {
                            return; // drain side bailed; nothing left to report
                        }
                    }
                    Ok(false) => {
                        let _ = full_tx.send(Ok(None));
                        return;
                    }
                    Err(e) => {
                        let _ = full_tx.send(Err(e));
                        return;
                    }
                }
            }
        });
        let mut result = Ok(());
        while let Ok(msg) = full_rx.recv() {
            match msg {
                Ok(Some(chunk)) => {
                    for c in consumers.iter_mut() {
                        c.consume_chunk(&timings, &chunk);
                    }
                    // The helper exits after its final send; a closed
                    // free list here is expected, not an error.
                    let _ = free_tx.send(chunk);
                }
                Ok(None) => break,
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        // Close the free list so a helper still waiting for a buffer
        // unblocks, then surface any capture-thread panic.
        drop(free_tx);
        drop(full_rx);
        capture.join().expect("capture thread panicked");
        result
    })
}

fn build_emulator(program: &Program, config: &SimConfig) -> Emulator {
    match &config.pbs {
        Some(pbs_cfg) => Emulator::with_pbs(
            program.clone(),
            config.emu.clone(),
            PbsUnit::new(pbs_cfg.clone()),
        ),
        None => Emulator::new(program.clone(), config.emu.clone()),
    }
}

fn report_of(emu: Emulator, mut timing: OooTimingModel) -> SimReport {
    SimReport {
        timing: timing.stats(),
        pbs: emu.pbs_stats(),
        outputs: emu.outputs_sorted(),
        prob_consumed: emu.prob_consumed().to_vec(),
        branch_trace: timing.take_trace(),
    }
}

/// Runs a program functionally only (no timing model) — used for output
/// accuracy and randomness experiments where only the architectural
/// results matter. Roughly an order of magnitude faster than a full
/// [`Simulation`] run.
///
/// # Errors
///
/// Propagates any [`EmuError`].
pub fn run_functional(
    program: &Program,
    pbs: Option<PbsConfig>,
    max_insts: u64,
) -> Result<SimReport, EmuError> {
    let mut emu = match pbs {
        Some(pbs_cfg) => {
            Emulator::with_pbs(program.clone(), EmuConfig::default(), PbsUnit::new(pbs_cfg))
        }
        None => Emulator::new(program.clone(), EmuConfig::default()),
    };
    emu.run_to_halt(max_insts)?;
    Ok(SimReport {
        timing: TimingStats {
            instructions: emu.executed(),
            ..TimingStats::default()
        },
        pbs: emu.pbs_stats(),
        outputs: emu.outputs_sorted(),
        prob_consumed: emu.prob_consumed().to_vec(),
        branch_trace: Vec::new(),
    })
}

// The parallel experiment harness moves configurations into worker
// threads and results back out; keep that capability a compile-time
// guarantee rather than an accident of field choices.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SimConfig>();
    assert_send_sync::<SimReport>();
    assert_send_sync::<PredictorChoice>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use probranch_isa::{CmpOp, ProgramBuilder, Reg};

    /// A loop with one ~50% probabilistic branch implemented over an
    /// ISA-level xorshift64* generator.
    fn prob_workload(iters: i64) -> Program {
        let mut b = ProgramBuilder::new();
        let top = b.label("top");
        let join = b.label("join");
        b.li(Reg::R1, 0x9E3779B97F4A7C15u64 as i64);
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
        b.prob_jmp(None, join);
        b.add(Reg::R3, Reg::R3, 1);
        b.bind(join);
        b.add(Reg::R2, Reg::R2, 1);
        b.br(CmpOp::Lt, Reg::R2, iters, top);
        b.out(Reg::R3, 0);
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn pbs_eliminates_prob_mispredictions() {
        let p = prob_workload(20_000);
        let base = Simulation::default()
            .run(&p, &SimConfig::default())
            .unwrap();
        let pbs = Simulation::default()
            .run(&p, &SimConfig::default().with_pbs())
            .unwrap();
        // Baseline: the ~50% branch mispredicts heavily.
        assert!(
            base.timing.mispredicts_prob > 5000,
            "baseline prob mispredicts: {}",
            base.timing.mispredicts_prob
        );
        // PBS: only the bootstrap instances can mispredict.
        assert!(
            pbs.timing.mispredicts_prob < 50,
            "PBS prob mispredicts: {}",
            pbs.timing.mispredicts_prob
        );
        assert!(pbs.timing.pbs_directed > 19_000);
        // And performance improves.
        assert!(
            pbs.timing.cycles < base.timing.cycles,
            "PBS {} cycles vs baseline {}",
            pbs.timing.cycles,
            base.timing.cycles
        );
        let speedup = base.timing.cycles as f64 / pbs.timing.cycles as f64;
        assert!(speedup > 1.02, "speedup {speedup}");
    }

    #[test]
    fn pbs_preserves_functional_output_statistics() {
        let p = prob_workload(20_000);
        let base = run_functional(&p, None, 10_000_000).unwrap();
        let pbs = run_functional(&p, Some(PbsConfig::default()), 10_000_000).unwrap();
        let c_base = base.output(0)[0] as f64;
        let c_pbs = pbs.output(0)[0] as f64;
        // Not-taken counts agree within a few per mille (the bootstrap
        // phase shifts consumption by 4 values).
        assert!(
            (c_base - c_pbs).abs() / c_base < 0.05,
            "{c_base} vs {c_pbs}"
        );
    }

    #[test]
    fn tournament_with_pbs_beats_plain_tage() {
        // The paper's headline observation (Section VII-B): "the
        // tournament branch predictor with PBS outperforms the
        // TAGE-SC-L predictor."
        let p = prob_workload(20_000);
        let tage = Simulation::default()
            .run(
                &p,
                &SimConfig::default().predictor(PredictorChoice::TageScL),
            )
            .unwrap();
        let tour_pbs = Simulation::default()
            .run(
                &p,
                &SimConfig::default()
                    .predictor(PredictorChoice::Tournament)
                    .with_pbs(),
            )
            .unwrap();
        assert!(
            tour_pbs.timing.cycles < tage.timing.cycles,
            "tournament+PBS {} vs TAGE {}",
            tour_pbs.timing.cycles,
            tage.timing.cycles
        );
    }

    #[test]
    fn filter_mode_reports_regular_only_mpki() {
        let p = prob_workload(5_000);
        let mut cfg = SimConfig::default().predictor(PredictorChoice::Tournament);
        cfg.filter_prob_from_predictor = true;
        let filtered = Simulation::default().run(&p, &cfg).unwrap();
        assert_eq!(filtered.timing.mispredicts_prob, 0);
        let unfiltered = Simulation::default()
            .run(
                &p,
                &SimConfig::default().predictor(PredictorChoice::Tournament),
            )
            .unwrap();
        // Interference: filtering prob branches out cannot hurt the
        // regular branches.
        assert!(filtered.timing.mpki_regular() <= unfiltered.timing.mpki_regular() + 0.01);
    }

    #[test]
    fn determinism_across_runs() {
        let p = prob_workload(3_000);
        let a = Simulation::default()
            .run(&p, &SimConfig::default().with_pbs())
            .unwrap();
        let b = Simulation::default()
            .run(&p, &SimConfig::default().with_pbs())
            .unwrap();
        assert_eq!(a.timing, b.timing);
        assert_eq!(a.prob_consumed, b.prob_consumed);
        assert_eq!(a.output(0), b.output(0));
    }

    #[test]
    fn inst_limit_guards() {
        let p = prob_workload(1_000_000);
        let cfg = SimConfig {
            max_insts: 1000,
            ..SimConfig::default()
        };
        assert!(matches!(
            Simulation::default().run(&p, &cfg),
            Err(EmuError::InstLimitExceeded { .. })
        ));
    }

    #[test]
    fn every_engine_stops_under_an_already_cancelled_scope() {
        // 2,002 instructions: far below the reference engine's poll
        // stride, so only a poll before the first instruction sees the
        // cancellation.
        let mut b = ProgramBuilder::new();
        let top = b.label("top");
        b.li(Reg::R1, 0);
        b.bind(top);
        b.add(Reg::R1, Reg::R1, 1)
            .br(CmpOp::Lt, Reg::R1, 1000, top)
            .halt();
        let p = b.build().unwrap();
        let cfg = SimConfig::default();
        let trace = DynTrace::capture(&p, &cfg).unwrap();
        let token = crate::cancel::CancelToken::new();
        token.cancel("stop");
        let _scope = crate::cancel::CancelScope::enter(token);
        let cancelled = EmuError::Cancelled {
            reason: "stop".into(),
        };
        for engine in EngineKind::ALL {
            let sim = Simulation::new(engine);
            assert_eq!(sim.run(&p, &cfg), Err(cancelled.clone()), "{engine:?}");
            assert_eq!(
                sim.run_branches(&p, std::slice::from_ref(&cfg)),
                Err(cancelled.clone()),
                "{engine:?} predictor-only"
            );
            assert_eq!(
                sim.replay_branches(&trace, &cfg),
                Err(cancelled.clone()),
                "{engine:?} predictor-only replay"
            );
        }
    }

    #[test]
    fn predictor_only_pass_equals_projected_timing_under_every_engine() {
        // ~280k instructions: several chunks per stream.
        let p = prob_workload(20_000);
        let unfiltered = SimConfig::default().predictor(PredictorChoice::Tournament);
        let mut filtered = unfiltered.clone();
        filtered.filter_prob_from_predictor = true;
        let configs = [unfiltered, filtered];
        let projected: Vec<BranchStats> = Simulation::new(EngineKind::Reference)
            .run_many(&p, &configs)
            .unwrap()
            .iter()
            .map(|r| r.timing.into())
            .collect();
        assert!(projected[0].mispredicts_prob > 0 && projected[1].mispredicts_prob == 0);
        for engine in EngineKind::ALL {
            assert_eq!(
                Simulation::new(engine).run_branches(&p, &configs).unwrap(),
                projected,
                "{engine:?}"
            );
        }
    }

    #[test]
    fn predictor_choice_builds_all() {
        for c in [
            PredictorChoice::Tournament,
            PredictorChoice::TageScL,
            PredictorChoice::StaticTaken,
            PredictorChoice::StaticNotTaken,
        ] {
            let mut p = c.build();
            let _ = p.predict(0);
            p.update(0, true);
            assert!(!c.name().is_empty());
        }
    }

    #[test]
    fn wide_core_does_not_regress_ipc() {
        let p = prob_workload(5_000);
        let narrow = Simulation::default()
            .run(&p, &SimConfig::default())
            .unwrap();
        let wide_cfg = SimConfig {
            core: OooConfig::wide(),
            ..SimConfig::default()
        };
        let wide = Simulation::default().run(&p, &wide_cfg).unwrap();
        assert!(wide.timing.ipc() >= narrow.timing.ipc() * 0.99);
    }
}
