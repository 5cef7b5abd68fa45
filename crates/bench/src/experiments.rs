//! Experiment runners, one per paper table/figure.
//!
//! Every sweep is expressed as a grid of independent cells and executed
//! through [`probranch_harness::run_cells`], so a run with `N` workers
//! produces byte-identical rows to a serial run (the determinism
//! integration tests lock this in). Per-cell workload seeds are derived
//! from the cell identity ([`Cell::workload_seed`]) — no RNG state is
//! shared across cells.
//!
//! The timing sweeps run through the **shared-trace replay engine** by
//! default ([`Engine::Replay`]): cells that differ only in predictor,
//! core or filter configuration share one captured [`DynTrace`] per
//! emulation key instead of re-emulating the workload, through a
//! run-wide [`EngineContext`] trace pool — Figures 1, 6, 7 and 8 sweep
//! the *same* keys, so one `figures` invocation emulates each key
//! exactly once. Only Figures 6, 7 and 8 run the out-of-order timing
//! model. Figures 1 and 9 print branch counts and misprediction shares,
//! which the batch predictor fixes before any timing walk, so they run
//! the **predictor-only pass** ([`Simulation::replay_branches_taped`],
//! [`Simulation::run_branches`]): Figure 1 over its pooled traces, and
//! Figure 9 over pooled or persisted traces where its keys have one and
//! over one bounded-memory capture stream per unfiltered/filtered pair
//! where they don't.
//!
//! Every pass over a pooled trace runs through the pool's **prediction
//! tapes** ([`EngineContext::taped`]): a prediction depends on the
//! trace, the predictor and the filter mode, never on the core, so the
//! first pass under a (key, predictor, filter) triple records its
//! predictions beside the trace and every later one — Figure 6's PBS-off
//! cells after Figure 1, all of Figure 8, Figure 9's seed-0 unfiltered
//! runs — reads them instead of predicting again. Table III and §VII-D
//! read the architectural results of pooled traces
//! ([`DynTrace::functional`]) instead of re-emulating the same runs.
//! Their other runs, and Table II's, are functional runs
//! ([`run_functional`]): the capture loop's compiled blocks with nothing
//! recorded, polling the caller's cancellation scope — so a served
//! request's deadline stops these sections too, on every worker
//! [`run_cells`] starts. The reference engine remains selectable for
//! differential debugging
//! (`figures --engine reference`); it never reads a tape, and both
//! engines produce byte-identical rows.

use probranch_core::PbsConfig;
use probranch_faults as faults;
use probranch_harness::{
    run_cells, run_cells_supervised, workload_seed, Attempt, Cell, CellOutcome, EngineContext, Jobs,
};
use probranch_pipeline::{
    run_functional, BranchStats, DynTrace, EmuError, OooConfig, PredictorChoice, SimConfig,
    SimReport, Simulation, TapeKey, TraceFunctional,
};
use probranch_rng::SplitMix64;
use probranch_stats::randomness::{run_battery, BatteryCounts};
use probranch_stats::summary::Summary;
use probranch_workloads::accuracy::{normalized_rms, relative_error, SuccessRate};
use probranch_workloads::{BenchmarkId, HostRng, McInteg, Pi, Scale};

/// Run-size selection for the whole harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExperimentScale {
    /// Smoke runs: the full sweep in about 0.2 s.
    Smoke,
    /// Default: the full sweep in 1.1–1.8 s on one worker of a 2-vCPU VM.
    Bench,
    /// Figure-quality runs: 6.9–8.1 s on one worker of the same VM.
    Paper,
}

impl ExperimentScale {
    /// Parses a scale name (`smoke` / `bench` / `paper`) as accepted by
    /// the `figures --scale` flag.
    pub fn parse(name: &str) -> Option<ExperimentScale> {
        match name {
            "smoke" => Some(ExperimentScale::Smoke),
            "bench" => Some(ExperimentScale::Bench),
            "paper" => Some(ExperimentScale::Paper),
            _ => None,
        }
    }

    /// The scale's name, as accepted by [`ExperimentScale::parse`].
    pub fn name(self) -> &'static str {
        match self {
            ExperimentScale::Smoke => "smoke",
            ExperimentScale::Bench => "bench",
            ExperimentScale::Paper => "paper",
        }
    }

    /// The workload scale preset.
    pub fn workload(self) -> Scale {
        match self {
            ExperimentScale::Smoke => Scale::Smoke,
            ExperimentScale::Bench => Scale::Bench,
            ExperimentScale::Paper => Scale::Paper,
        }
    }

    /// Number of seeds for seed-averaged experiments (paper: 7–8).
    pub fn seeds(self) -> u64 {
        match self {
            ExperimentScale::Smoke => 2,
            ExperimentScale::Bench | ExperimentScale::Paper => 7,
        }
    }
}

const MAX_INSTS: u64 = 2_000_000_000;

/// Which simulation engine a sweep runs its timing cells through — the
/// pipeline crate's [`EngineKind`](probranch_pipeline::EngineKind),
/// re-exported under the name the bench crate and the `figures` binary
/// have always used.
///
/// The engines produce byte-identical `SimReport`s (locked in by
/// `tests/engine_equivalence.rs`); the figures binary exposes the
/// choice as `--engine` for differential debugging. Under
/// [`Engine::Replay`] (the default) cells sharing an emulation key
/// `(workload, seed, PBS)` replay one captured trace pooled in the
/// run-wide [`EngineContext`]; Figure 9's paired predictor-only runs
/// read a materialized (pooled or persisted) trace, or one capture
/// stream when there is none. A sweep asked for [`Engine::Convoy`] runs
/// exactly as under [`Engine::Replay`]; [`Engine::Reference`]
/// re-simulates every cell in full.
pub use probranch_pipeline::EngineKind as Engine;

/// The emulation key of a timing cell: the fields that determine the
/// dynamic instruction stream. Predictor and core configuration are
/// deliberately absent — cells differing only in those share a trace.
/// The scale is included so one [`EngineContext`] could serve runs at
/// several scales without ever conflating their streams.
pub type EmuKey = (BenchmarkId, u64, bool, ExperimentScale);

/// The content hash identifying one emulation key's captured stream on
/// disk: the workload identity (benchmark, scale, derived RNG seed) and
/// the architectural fingerprint (PBS/emulator configuration,
/// instruction budget, ISA version). Everything that shapes a captured
/// trace, nothing timing-side.
fn trace_content_hash(cell: &Cell, scale: ExperimentScale, cfg: &SimConfig) -> u64 {
    SplitMix64::mix_fold(&[
        cell.workload as u64,
        scale as u64,
        cell.workload_seed(),
        cfg.emu_key_fingerprint(),
    ])
}

/// A stable fingerprint of a core (timing) configuration, for grid
/// memo keys: every field that can change a timing result.
fn core_fingerprint(core: &OooConfig) -> u64 {
    let l = &core.latencies;
    SplitMix64::mix_fold(&[
        core.width as u64,
        core.rob_size as u64,
        core.frontend_depth,
        core.mispredict_penalty,
        l.int_alu,
        l.int_mul,
        l.int_div,
        l.fp_add,
        l.fp_mul,
        l.fp_div,
        l.fp_long,
        l.store,
        l.branch,
        l.other,
    ])
}

/// One memoized benchmark × [`FOUR_CONFIGS`] grid (see
/// [`four_config_reports`]), keyed by everything that shapes its rows.
type GridKey = (ExperimentScale, Engine, u64);

/// The run-wide simulation context: the trace pool plus a memo of the
/// four-config report grids several figures share.
///
/// Figures 6 and 7 sweep the *identical* timing cells (same predictors,
/// same default core) and differ only in which statistic they render;
/// Figure 8 re-times the same traces on the wide core. The context
/// therefore pools at two levels: captured [`DynTrace`]s per emulation
/// key (each key emulated — or disk-loaded, see
/// [`EngineContext`] — exactly once per run) and finished
/// [`SimReport`] grids per (scale, engine, core) point, so a `figures`
/// run never re-times a cell grid it has already retired. Both pools
/// are deterministic memoizations of pure functions, so rows are
/// byte-identical with or without sharing — the engine-diff and
/// determinism gates check exactly that.
#[derive(Debug)]
pub struct Context {
    traces: EngineContext<EmuKey>,
    grids:
        std::sync::Mutex<std::collections::HashMap<GridKey, std::sync::Arc<Vec<Vec<SimReport>>>>>,
    grid_hits: std::sync::atomic::AtomicUsize,
    outcomes: std::sync::Mutex<Vec<CellOutcome>>,
}

impl Default for Context {
    fn default() -> Context {
        Context::with_robustness(None, None)
    }
}

impl Context {
    /// A context with empty pools and no disk persistence.
    pub fn new() -> Context {
        Context::default()
    }

    /// A context whose trace pool is backed by trace files under `dir`.
    pub fn with_trace_dir(dir: impl Into<std::path::PathBuf>) -> Context {
        Context::with_robustness(Some(dir.into()), None)
    }

    /// The fully general constructor: an optional trace directory and
    /// an optional in-memory pool budget in bytes (see
    /// [`EngineContext`] for the demotion/eviction semantics).
    pub fn with_robustness(
        trace_dir: Option<std::path::PathBuf>,
        mem_budget: Option<usize>,
    ) -> Context {
        Context {
            traces: EngineContext::with_robustness(trace_dir, mem_budget),
            grids: std::sync::Mutex::default(),
            grid_hits: std::sync::atomic::AtomicUsize::new(0),
            outcomes: std::sync::Mutex::default(),
        }
    }

    /// The underlying trace pool.
    pub fn traces(&self) -> &EngineContext<EmuKey> {
        &self.traces
    }

    /// Supervised cells that needed more than one attempt.
    pub fn retried_cells(&self) -> usize {
        self.outcomes
            .lock()
            .expect("outcome lock")
            .iter()
            .filter(|o| o.attempts > 1)
            .count()
    }

    /// Supervised cells whose surviving attempt ran a degraded engine.
    pub fn degraded_cells(&self) -> usize {
        self.outcomes
            .lock()
            .expect("outcome lock")
            .iter()
            .filter(|o| !o.label.is_empty())
            .count()
    }

    /// Runs one supervised sweep: results in cell-index order
    /// (byte-identical to an unsupervised run whenever every cell
    /// eventually succeeds), non-clean outcomes folded into this
    /// context's tally. A cell that exhausts its attempts raises the
    /// typed [`SupervisedError`](probranch_harness::SupervisedError)
    /// as a panic payload; the figures binary catches it and renders a
    /// structured error instead of a crash (the quiet panic hook keeps
    /// the unwind silent).
    fn sweep<T: Sync, R: Send>(
        &self,
        cells: &[T],
        jobs: Jobs,
        run: impl Fn(&T, &Attempt) -> R + Sync,
    ) -> Vec<R> {
        match run_cells_supervised(cells, jobs, run) {
            Ok(done) => {
                if !done.outcomes.is_empty() {
                    self.outcomes
                        .lock()
                        .expect("outcome lock")
                        .extend(done.outcomes);
                }
                done.results
            }
            Err(e) => std::panic::panic_any(e),
        }
    }

    /// Emulations actually performed through this context.
    pub fn captures(&self) -> usize {
        self.traces.captures()
    }

    /// Traces served from the trace directory instead of captured.
    pub fn disk_loads(&self) -> usize {
        self.traces.disk_loads()
    }

    /// Distinct emulation keys currently pooled.
    pub fn keys(&self) -> usize {
        self.traces.keys()
    }

    /// Total heap bytes held by the pooled traces.
    pub fn bytes(&self) -> usize {
        self.traces.bytes()
    }

    /// Four-config grids served from the grid memo instead of re-timed.
    pub fn grid_hits(&self) -> usize {
        self.grid_hits.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Pool hits: trace gets served from an already-pooled trace.
    pub fn store_hits(&self) -> usize {
        self.traces.store_hits()
    }

    /// Pooled traces dropped under the memory budget with their file
    /// on disk (see [`EngineContext::demotions`]).
    pub fn demotions(&self) -> usize {
        self.traces.demotions()
    }

    /// Pooled traces dropped under the memory budget with no file to
    /// reload (see [`EngineContext::evictions`]).
    pub fn evictions(&self) -> usize {
        self.traces.evictions()
    }

    /// High-water mark of pooled trace bytes.
    pub fn peak_bytes(&self) -> usize {
        self.traces.peak_bytes()
    }

    /// The memoized grid for `key`, computing it with `compute` on
    /// first use.
    fn grid(
        &self,
        key: GridKey,
        compute: impl FnOnce() -> Vec<Vec<SimReport>>,
    ) -> std::sync::Arc<Vec<Vec<SimReport>>> {
        if let Some(grid) = self.grids.lock().expect("grid memo lock").get(&key) {
            self.grid_hits
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            return std::sync::Arc::clone(grid);
        }
        // Computed outside the lock: grids are deterministic, so a
        // racing duplicate compute is waste, never a wrong answer —
        // and in practice the figures run retires sweeps sequentially.
        let grid = std::sync::Arc::new(compute());
        self.grids
            .lock()
            .expect("grid memo lock")
            .entry(key)
            .or_insert_with(|| std::sync::Arc::clone(&grid))
            .clone()
    }
}

/// The benchmark's paper name, without running anything (benchmark
/// constructors only store parameters).
fn name_of(id: BenchmarkId) -> &'static str {
    id.build(Scale::Smoke, 0).name()
}

/// The cell's full simulation configuration.
fn cell_config(cell: &Cell, core: OooConfig) -> SimConfig {
    let mut cfg = SimConfig {
        core,
        predictor: cell.predictor,
        ..SimConfig::default()
    };
    if cell.pbs {
        cfg.pbs = Some(PbsConfig::default());
    }
    cfg.max_insts = MAX_INSTS;
    cfg
}

/// The emulation key of `cell` at `scale`.
fn emu_key(cell: &Cell, scale: ExperimentScale) -> EmuKey {
    (cell.workload, cell.seed, cell.pbs, scale)
}

/// The cell's trace, through the run-wide pool: the first cell of an
/// emulation key captures (or disk-loads) the [`DynTrace`], every later
/// cell — possibly on another worker thread, possibly in a *different
/// sweep* — replays the shared copy without re-emulating.
fn cell_trace(
    cell: &Cell,
    scale: ExperimentScale,
    cfg: &SimConfig,
    ctx: &Context,
    attempt: u64,
) -> std::sync::Arc<DynTrace> {
    let key = emu_key(cell, scale);
    let hash = trace_content_hash(cell, scale, cfg);
    ctx.traces
        .get_or_capture(key, hash, cfg, || {
            if faults::injected(faults::Site::Capture, &[hash, attempt]) {
                return Err(EmuError::InjectedFault {
                    site: faults::Site::Capture.name(),
                });
            }
            let bench = cell.workload.build(scale.workload(), cell.workload_seed());
            DynTrace::capture(&bench.program(), cfg)
        })
        .unwrap_or_else(|e| panic!("{:?}: {e}", cell.workload))
}

/// Simulates the cell's workload (at its derived seed) under the cell's
/// predictor/PBS configuration. Under [`Engine::Replay`] the cell
/// replays the pooled trace of its emulation key (see [`cell_trace`]),
/// reading its predictions from the key's prediction tape when an
/// earlier pass under the same predictor and filter mode recorded one.
fn sim_cell_engine(
    cell: &Cell,
    scale: ExperimentScale,
    core: OooConfig,
    engine: Engine,
    ctx: &Context,
    attempt: u64,
) -> SimReport {
    match engine {
        Engine::Reference => {
            let bench = cell.workload.build(scale.workload(), cell.workload_seed());
            let cfg = cell_config(cell, core);
            Simulation::new(Engine::Reference)
                .run(&bench.program(), &cfg)
                .unwrap_or_else(|e| panic!("{}: {e}", bench.name()))
        }
        Engine::Replay | Engine::Convoy => {
            let cfg = cell_config(cell, core);
            let trace = cell_trace(cell, scale, &cfg, ctx, attempt);
            ctx.traces
                .taped(&emu_key(cell, scale), TapeKey::of(&cfg), |tape| {
                    Simulation::new(Engine::Replay).replay_taped(&trace, &cfg, tape)
                })
                .unwrap_or_else(|e| panic!("{:?}: {e}", cell.workload))
        }
    }
}

/// The engine attempt `number` of a supervised cell actually runs: the
/// requested engine for the first two of its four attempts, then the
/// reference engine, which captures no trace — so a cell whose trace
/// capture or replay keeps failing still retires. Engine equivalence
/// (locked in by `tests/engine_equivalence.rs`) keeps degraded rows
/// byte-identical to clean ones.
fn engine_for_attempt(requested: Engine, number: u32) -> Engine {
    match number {
        0 | 1 => requested,
        _ => Engine::Reference,
    }
}

/// The engine one attempt of a supervised cell runs: the injectable
/// cell-body fault sites fire first (salted by cell identity and attempt
/// ordinal, so retries re-roll), then the cascade picks the attempt's
/// engine, and the cell labels itself when it degraded.
fn attempt_engine(cell: &Cell, requested: Engine, attempt: &Attempt) -> Engine {
    faults::cell_faults(&[cell.stable_hash(), attempt.number as u64]);
    probranch_pipeline::cancel::inject_spurious(&[cell.stable_hash(), attempt.number as u64]);
    let engine = engine_for_attempt(requested, attempt.number);
    if engine != requested {
        attempt.set_label(engine.name());
    }
    engine
}

/// One supervised timing cell, simulated under the cascade engine for
/// this attempt (see [`attempt_engine`]).
fn sim_cell_supervised(
    cell: &Cell,
    scale: ExperimentScale,
    core: OooConfig,
    requested: Engine,
    ctx: &Context,
    attempt: &Attempt,
) -> SimReport {
    let engine = attempt_engine(cell, requested, attempt);
    sim_cell_engine(cell, scale, core, engine, ctx, attempt.number as u64)
}

// ---------------------------------------------------------------------------
// Figure 1
// ---------------------------------------------------------------------------

/// One Figure 1 row: the share of probabilistic branches in dynamic
/// branches and in mispredictions, per predictor.
#[derive(Debug, Clone)]
pub struct Fig1Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Probabilistic share of dynamic conditional branches (%).
    pub prob_branch_share: f64,
    /// Probabilistic share of tournament mispredictions (%).
    pub tournament_mispredict_share: f64,
    /// Probabilistic share of TAGE-SC-L mispredictions (%).
    pub tage_mispredict_share: f64,
}

/// Figure 1: probabilistic branches are a small fraction of dynamic
/// branches but a disproportionate fraction of mispredictions.
pub fn fig1(scale: ExperimentScale, jobs: Jobs) -> Vec<Fig1Row> {
    fig1_with_ctx(scale, jobs, Engine::default(), &Context::new())
}

/// [`fig1`] under an explicit engine and the run-wide trace pool. The
/// rows are branch counts and misprediction shares, so each cell runs
/// the predictor-only pass ([`Simulation::replay_branches_taped`]) over
/// its pooled trace, with no timing walk, and leaves its prediction tape
/// in the pool for Figures 6–9 — or returns the counts of the tape an
/// earlier request already left there. The two predictor cells of each
/// benchmark share one emulation key, so the replay engine emulates each
/// workload at most once per `ctx` — zero times when an earlier sweep
/// already pooled the key. A cell degraded to the reference engine runs
/// a full reference simulation.
pub fn fig1_with_ctx(
    scale: ExperimentScale,
    jobs: Jobs,
    engine: Engine,
    ctx: &Context,
) -> Vec<Fig1Row> {
    const PREDICTORS: [PredictorChoice; 2] =
        [PredictorChoice::Tournament, PredictorChoice::TageScL];
    let cells: Vec<Cell> = BenchmarkId::ALL
        .iter()
        .flat_map(|&w| PREDICTORS.map(|p| Cell::new(w, p, false, 0)))
        .collect();
    let stats = ctx.sweep(&cells, jobs, |c, attempt| {
        let core = OooConfig::default();
        let number = attempt.number as u64;
        match attempt_engine(c, engine, attempt) {
            Engine::Reference => BranchStats::from(
                sim_cell_engine(c, scale, core, Engine::Reference, ctx, number).timing,
            ),
            Engine::Replay | Engine::Convoy => {
                let cfg = cell_config(c, core);
                let trace = cell_trace(c, scale, &cfg, ctx, number);
                ctx.traces
                    .taped(&emu_key(c, scale), TapeKey::of(&cfg), |tape| {
                        Simulation::new(Engine::Replay).replay_branches_taped(&trace, &cfg, tape)
                    })
                    .unwrap_or_else(|e| panic!("{:?}: {e}", c.workload))
            }
        }
    });
    let share = |s: &BranchStats| 100.0 * s.prob_branches as f64 / s.cond_branches.max(1) as f64;
    let mshare = |s: &BranchStats| 100.0 * s.mispredicts_prob as f64 / s.mispredicts.max(1) as f64;
    BenchmarkId::ALL
        .iter()
        .zip(stats.chunks_exact(2))
        .map(|(&id, pair)| {
            let (tour, tage) = (&pair[0], &pair[1]);
            Fig1Row {
                name: name_of(id),
                prob_branch_share: share(tour),
                tournament_mispredict_share: mshare(tour),
                tage_mispredict_share: mshare(tage),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Table I
// ---------------------------------------------------------------------------

/// One Table I row: baseline applicability per benchmark.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Whether if-conversion applies to all its probabilistic branches.
    pub predication: bool,
    /// First predication failure reason, if any.
    pub predication_reason: Option<String>,
    /// Whether CFD applies to all its probabilistic branches.
    pub cfd: bool,
    /// First CFD failure reason, if any.
    pub cfd_reason: Option<String>,
}

/// Table I: whether predication and control-flow decoupling can be
/// applied (static analysis of the eight workloads).
pub fn table1(jobs: Jobs) -> Vec<Table1Row> {
    // No predictor/PBS axis: the cells are the benchmarks themselves.
    run_cells(&BenchmarkId::ALL, jobs, |&id| {
        let b = id.build(Scale::Smoke, workload_seed(id, 0));
        let p = b.program();
        let pred = probranch_compiler::predication::analyze_program(&p);
        let cfd = probranch_compiler::cfd::analyze_program(&p);
        let first_err = |v: &[(u32, probranch_compiler::Applicability)]| {
            v.iter()
                .find_map(|(_, a)| a.as_ref().err().map(|e| e.to_string()))
        };
        Table1Row {
            name: b.name(),
            predication: pred.iter().all(|(_, a)| a.is_ok()),
            predication_reason: first_err(&pred),
            cfd: cfd.iter().all(|(_, a)| a.is_ok()),
            cfd_reason: first_err(&cfd),
        }
    })
}

// ---------------------------------------------------------------------------
// Table II
// ---------------------------------------------------------------------------

/// One Table II row: benchmark characteristics.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Static probabilistic branch sites.
    pub prob_branches: usize,
    /// Total static conditional branch sites.
    pub total_branches: usize,
    /// Category ("1" or "2").
    pub category: String,
    /// Dynamically executed instructions at this scale.
    pub dynamic_insts: u64,
}

/// Table II: benchmark characteristics (branch counts, category,
/// instruction counts).
pub fn table2(scale: ExperimentScale, jobs: Jobs) -> Vec<Table2Row> {
    table2_with_ctx(scale, jobs, &Context::new())
}

/// [`table2`] over the run-wide trace pool: a benchmark whose PBS-off
/// seed-0 run the pool holds — the emulation key Figure 1 captures —
/// reads its dynamic instruction count from the pooled trace instead of
/// emulating the workload again. `figures` runs Table II before any key
/// is pooled, so only a served request after Figure 1 reads the pool.
/// The rows are byte-identical either way.
pub fn table2_with_ctx(scale: ExperimentScale, jobs: Jobs, ctx: &Context) -> Vec<Table2Row> {
    run_cells(&BenchmarkId::ALL, jobs, |&id| {
        let b = id.build(scale.workload(), workload_seed(id, 0));
        let p = b.program();
        let (prob, total) = p.branch_counts();
        let dynamic_insts = match ctx.traces.peek(&(id, 0, false, scale)) {
            Some(trace) => trace.instructions(),
            None => {
                run_functional(&p, None, MAX_INSTS)
                    .unwrap_or_else(|e| panic!("{}: {e}", b.name()))
                    .timing
                    .instructions
            }
        };
        Table2Row {
            name: b.name(),
            prob_branches: prob,
            total_branches: total,
            category: b.category().to_string(),
            dynamic_insts,
        }
    })
}

// ---------------------------------------------------------------------------
// Figures 6, 7, 8
// ---------------------------------------------------------------------------

/// One Figure 6 row: MPKI with and without PBS, per predictor.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Tournament MPKI without PBS.
    pub tournament_base: f64,
    /// Tournament MPKI with PBS.
    pub tournament_pbs: f64,
    /// TAGE-SC-L MPKI without PBS.
    pub tage_base: f64,
    /// TAGE-SC-L MPKI with PBS.
    pub tage_pbs: f64,
}

impl Fig6Row {
    /// MPKI reduction (%) for the tournament predictor.
    pub fn tournament_reduction(&self) -> f64 {
        100.0 * (self.tournament_base - self.tournament_pbs) / self.tournament_base.max(1e-9)
    }

    /// MPKI reduction (%) for TAGE-SC-L.
    pub fn tage_reduction(&self) -> f64 {
        100.0 * (self.tage_base - self.tage_pbs) / self.tage_base.max(1e-9)
    }
}

/// The four machine configurations every benchmark is swept over:
/// tournament / TAGE-SC-L, each without and with PBS.
const FOUR_CONFIGS: [(PredictorChoice, bool); 4] = [
    (PredictorChoice::Tournament, false),
    (PredictorChoice::Tournament, true),
    (PredictorChoice::TageScL, false),
    (PredictorChoice::TageScL, true),
];

/// The benchmark × [`FOUR_CONFIGS`] grid, one run per cell, merged back
/// per benchmark in config order. Under the replay engine each
/// benchmark's four cells collapse onto two emulation keys (PBS off /
/// on), each captured at most once into the run-wide pool and replayed
/// for both predictors.
fn four_config_reports(
    scale: ExperimentScale,
    core: OooConfig,
    jobs: Jobs,
    engine: Engine,
    ctx: &Context,
) -> std::sync::Arc<Vec<Vec<SimReport>>> {
    ctx.grid((scale, engine, core_fingerprint(&core)), || {
        let cells: Vec<Cell> = BenchmarkId::ALL
            .iter()
            .flat_map(|&w| FOUR_CONFIGS.map(|(p, pbs)| Cell::new(w, p, pbs, 0)))
            .collect();
        let reports = ctx.sweep(&cells, jobs, |c, attempt| {
            sim_cell_supervised(c, scale, core.clone(), engine, ctx, attempt)
        });
        reports
            .chunks_exact(FOUR_CONFIGS.len())
            .map(<[SimReport]>::to_vec)
            .collect()
    })
}

/// Figure 6: MPKI reduction through PBS for both predictors.
pub fn fig6(scale: ExperimentScale, jobs: Jobs) -> Vec<Fig6Row> {
    fig6_with_ctx(scale, jobs, Engine::default(), &Context::new())
}

/// [`fig6`] under an explicit engine and the run-wide trace pool.
pub fn fig6_with_ctx(
    scale: ExperimentScale,
    jobs: Jobs,
    engine: Engine,
    ctx: &Context,
) -> Vec<Fig6Row> {
    BenchmarkId::ALL
        .iter()
        .zip(four_config_reports(scale, OooConfig::default(), jobs, engine, ctx).iter())
        .map(|(&id, r)| Fig6Row {
            name: name_of(id),
            tournament_base: r[0].timing.mpki(),
            tournament_pbs: r[1].timing.mpki(),
            tage_base: r[2].timing.mpki(),
            tage_pbs: r[3].timing.mpki(),
        })
        .collect()
}

/// One Figure 7/8 row: IPC under the four predictor/PBS configurations,
/// normalized to the tournament baseline.
#[derive(Debug, Clone)]
pub struct IpcRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Tournament baseline IPC (the normalization denominator).
    pub tournament: f64,
    /// TAGE-SC-L IPC / tournament IPC.
    pub tage: f64,
    /// Tournament+PBS IPC / tournament IPC.
    pub tournament_pbs: f64,
    /// TAGE-SC-L+PBS IPC / tournament IPC.
    pub tage_pbs: f64,
}

fn ipc_rows(
    scale: ExperimentScale,
    core: OooConfig,
    jobs: Jobs,
    engine: Engine,
    ctx: &Context,
) -> Vec<IpcRow> {
    BenchmarkId::ALL
        .iter()
        .zip(four_config_reports(scale, core, jobs, engine, ctx).iter())
        .map(|(&id, r)| {
            let base = r[0].timing.ipc();
            IpcRow {
                name: name_of(id),
                tournament: base,
                tage: r[2].timing.ipc() / base,
                tournament_pbs: r[1].timing.ipc() / base,
                tage_pbs: r[3].timing.ipc() / base,
            }
        })
        .collect()
}

/// Figure 7: normalized IPC on the 4-wide, 168-ROB core.
pub fn fig7(scale: ExperimentScale, jobs: Jobs) -> Vec<IpcRow> {
    fig7_with_ctx(scale, jobs, Engine::default(), &Context::new())
}

/// [`fig7`] under an explicit engine and the run-wide trace pool —
/// Figures 6, 7 and 8 sweep the *same* emulation keys, so a shared
/// `ctx` re-times pooled traces instead of re-emulating anything.
pub fn fig7_with_ctx(
    scale: ExperimentScale,
    jobs: Jobs,
    engine: Engine,
    ctx: &Context,
) -> Vec<IpcRow> {
    ipc_rows(scale, OooConfig::default(), jobs, engine, ctx)
}

/// Figure 8: normalized IPC on the 8-wide, 256-ROB core.
pub fn fig8(scale: ExperimentScale, jobs: Jobs) -> Vec<IpcRow> {
    fig8_with_ctx(scale, jobs, Engine::default(), &Context::new())
}

/// [`fig8`] under an explicit engine and the run-wide trace pool. The
/// 8-wide core is timing-side only: Figure 8 replays the very traces
/// Figures 6 and 7 captured.
pub fn fig8_with_ctx(
    scale: ExperimentScale,
    jobs: Jobs,
    engine: Engine,
    ctx: &Context,
) -> Vec<IpcRow> {
    ipc_rows(scale, OooConfig::wide(), jobs, engine, ctx)
}

// ---------------------------------------------------------------------------
// Figure 9
// ---------------------------------------------------------------------------

/// One Figure 9 row: regular-branch MPKI increase due to probabilistic
/// branches interfering in the tournament predictor.
#[derive(Debug, Clone)]
pub struct Fig9Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Maximum MPKI increase (%) across seeds.
    pub max_increase_pct: f64,
}

/// Figure 9: negative interference of probabilistic branches in the
/// 1 KB tournament predictor — the maximum (over seeds) increase in
/// regular-branch MPKI when probabilistic branches access the predictor
/// versus when they are filtered out.
pub fn fig9(scale: ExperimentScale, jobs: Jobs) -> Vec<Fig9Row> {
    fig9_with_ctx(scale, jobs, Engine::default(), &Context::new())
}

/// [`fig9`] under an explicit engine and the run-wide trace pool. The
/// rows are regular-branch MPKIs, so both runs of a cell — unfiltered
/// and filtered — are the predictor-only pass, with no timing walk. They
/// share the dynamic instruction stream, which comes from the pooled
/// trace when the run-wide context already holds the cell's key (its
/// seed-0 keys are exactly Figures 1/6/7/8's, whose unfiltered
/// tournament tapes answer the unfiltered run), from an ephemeral
/// load-or-capture trace when a trace directory is configured (persisted
/// but never pooled — no later sweep revisits a fig9-private seed), and
/// otherwise from one capture stream that feeds both runs chunk by
/// chunk. Either way the extra seeds never bloat the pool.
pub fn fig9_with_ctx(
    scale: ExperimentScale,
    jobs: Jobs,
    engine: Engine,
    ctx: &Context,
) -> Vec<Fig9Row> {
    // One cell per (benchmark, seed): both the unfiltered and the
    // filtered run need the same workload instance, so they pair up
    // inside the cell rather than across cells.
    let seeds = scale.seeds();
    let cells: Vec<Cell> = BenchmarkId::ALL
        .iter()
        .flat_map(|&w| (0..seeds).map(move |s| Cell::new(w, PredictorChoice::Tournament, false, s)))
        .collect();
    let increases = ctx.sweep(&cells, jobs, |cell, attempt| {
        let engine = attempt_engine(cell, engine, attempt);
        let cfg = SimConfig {
            predictor: cell.predictor,
            max_insts: MAX_INSTS,
            ..SimConfig::default()
        };
        let mut filtered_cfg = cfg.clone();
        filtered_cfg.filter_prob_from_predictor = true;
        let pair = [cfg, filtered_cfg];
        let sim = Simulation::new(engine);
        let live = || {
            // No pooled or stored trace, or the reference engine: one
            // live run of the pair — under replay, a single
            // bounded-memory capture stream.
            let bench = cell.workload.build(scale.workload(), cell.workload_seed());
            sim.run_branches(&bench.program(), &pair)
        };
        let key = emu_key(cell, scale);
        let stats = match engine {
            Engine::Reference => live(),
            Engine::Replay | Engine::Convoy => match ctx.traces.peek(&key) {
                Some(trace) => pair
                    .iter()
                    .map(|cfg| {
                        ctx.traces.taped(&key, TapeKey::of(cfg), |tape| {
                            sim.replay_branches_taped(&trace, cfg, tape)
                        })
                    })
                    .collect(),
                // Fig9-private key with a trace directory: load or
                // capture+persist WITHOUT pooling — no later sweep
                // revisits it, and the pool never evicts.
                None if ctx.traces.persistent() => {
                    let hash = trace_content_hash(cell, scale, &pair[0]);
                    let trace = ctx
                        .traces
                        .load_or_capture_unpooled(hash, &pair[0], || {
                            if faults::injected(
                                faults::Site::Capture,
                                &[hash, attempt.number as u64],
                            ) {
                                return Err(EmuError::InjectedFault {
                                    site: faults::Site::Capture.name(),
                                });
                            }
                            let bench = cell.workload.build(scale.workload(), cell.workload_seed());
                            DynTrace::capture(&bench.program(), &pair[0])
                        })
                        .unwrap_or_else(|e| panic!("{:?}: {e}", cell.workload));
                    pair.iter()
                        .map(|cfg| sim.replay_branches(&trace, cfg))
                        .collect()
                }
                None => live(),
            },
        }
        .unwrap_or_else(|e| panic!("{:?}: {e}", cell.workload));
        let base = stats[1].mpki_regular();
        if base > 0.0 {
            100.0 * (stats[0].mpki_regular() - base) / base
        } else {
            0.0
        }
    });
    BenchmarkId::ALL
        .iter()
        .zip(increases.chunks_exact(seeds as usize))
        .map(|(&id, incs)| Fig9Row {
            name: name_of(id),
            max_increase_pct: incs.iter().fold(0.0f64, |a, &b| a.max(b)),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Table III
// ---------------------------------------------------------------------------

/// The architectural results of running `program` with PBS `pbs` at the
/// default design point: read from the trace `pooled` returns, when the
/// pool holds the run's emulation key, else from a fresh
/// [`run_functional`]. A capture records exactly the results a
/// functional run returns, so either way they are the same.
fn functional_run(
    program: impl FnOnce() -> probranch_isa::Program,
    pbs: bool,
    pooled: impl FnOnce() -> Option<std::sync::Arc<DynTrace>>,
) -> TraceFunctional {
    match pooled() {
        Some(trace) => trace.functional().clone(),
        None => run_functional(&program(), pbs.then(PbsConfig::default), MAX_INSTS)
            .unwrap_or_else(|e| panic!("functional run: {e}"))
            .into(),
    }
}

/// The `(original, PBS)` uniform value streams of one run, for the
/// randomness battery. `None` for DOP and Greeks (Gaussian-derived, as
/// the paper excludes them).
pub fn uniform_stream_pair(
    id: BenchmarkId,
    scale: Scale,
    seed: u64,
) -> Option<(Vec<f64>, Vec<f64>)> {
    uniform_streams(id, scale, seed, || None)
}

/// [`uniform_stream_pair`], with the PBS run read from the trace
/// `pooled_pbs` returns when the pool holds that run's emulation key.
fn uniform_streams(
    id: BenchmarkId,
    scale: Scale,
    seed: u64,
    pooled_pbs: impl FnOnce() -> Option<std::sync::Arc<DynTrace>>,
) -> Option<(Vec<f64>, Vec<f64>)> {
    let bench = id.build(scale, seed);
    if !bench.uniform_controlled() {
        return None;
    }
    match id {
        BenchmarkId::Pi | BenchmarkId::McInteg => {
            // The probabilistic value is *derived* from the two uniform
            // draws (dx²+dy²−1 / x²−y); the battery needs the underlying
            // uniforms. PBS consumption is deterministic (bootstrap B,
            // then generation order lagged by B), so the consumed-order
            // uniform stream is reconstructed exactly.
            let samples = match id {
                BenchmarkId::Pi => Pi::new(scale, seed).samples,
                _ => McInteg::new(scale, seed).samples,
            } as usize;
            let mut rng = HostRng::new(seed.max(1));
            let pairs: Vec<(f64, f64)> = (0..samples)
                .map(|_| (rng.next_f64(), rng.next_f64()))
                .collect();
            let b = PbsConfig::default().in_flight;
            let original: Vec<f64> = pairs.iter().flat_map(|&(a, c)| [a, c]).collect();
            let mut pbs: Vec<f64> = pairs[..b.min(samples)]
                .iter()
                .flat_map(|&(a, c)| [a, c])
                .collect();
            pbs.extend(
                pairs[..samples.saturating_sub(b)]
                    .iter()
                    .flat_map(|&(a, c)| [a, c]),
            );
            Some((original, pbs))
        }
        _ => {
            // The probabilistic values are the uniforms themselves:
            // record consumption order directly. The "original" order is
            // obtained with an effectively infinite in-flight window
            // (every instance bootstraps, consuming its own value).
            let huge = PbsConfig {
                in_flight: usize::MAX / 2,
                ..PbsConfig::default()
            };
            let orig = run_functional(&bench.program(), Some(huge), MAX_INSTS)
                .unwrap_or_else(|e| panic!("functional run: {e}"));
            let pbs = functional_run(|| bench.program(), true, pooled_pbs);
            let tof = |values: &[u64]| values.iter().map(|&b| f64::from_bits(b)).collect();
            Some((tof(&orig.prob_consumed), tof(&pbs.prob_consumed)))
        }
    }
}

/// One Table III row: battery counts for original and PBS streams, as
/// 95% confidence intervals over seeds.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Benchmark name.
    pub name: &'static str,
    /// PASS interval, original.
    pub orig_pass: Summary,
    /// WEAK interval, original.
    pub orig_weak: Summary,
    /// FAIL interval, original.
    pub orig_fail: Summary,
    /// PASS interval, PBS.
    pub pbs_pass: Summary,
    /// WEAK interval, PBS.
    pub pbs_weak: Summary,
    /// FAIL interval, PBS.
    pub pbs_fail: Summary,
}

/// The six uniform-controlled benchmarks of Table III, in paper order.
const TABLE3_IDS: [BenchmarkId; 6] = [
    BenchmarkId::Swaptions,
    BenchmarkId::Genetic,
    BenchmarkId::Photon,
    BenchmarkId::McInteg,
    BenchmarkId::Pi,
    BenchmarkId::Bandit,
];

/// Table III: the randomness battery over original versus PBS-processed
/// value streams, for the uniform-controlled benchmarks.
pub fn table3(scale: ExperimentScale, jobs: Jobs) -> Vec<Table3Row> {
    table3_with_ctx(scale, jobs, &Context::new())
}

/// [`table3`] over the run-wide trace pool: a PBS stream whose emulation
/// key the pool holds — seed 0 of the benchmarks whose streams come from
/// functional runs, once Figure 6 has run — is read from the pooled
/// trace's consumed values instead of emulating the workload again. The
/// rows are byte-identical either way.
pub fn table3_with_ctx(scale: ExperimentScale, jobs: Jobs, ctx: &Context) -> Vec<Table3Row> {
    let seeds = scale.seeds();
    let cells: Vec<Cell> = TABLE3_IDS
        .iter()
        .flat_map(|&w| (0..seeds).map(move |s| Cell::new(w, PredictorChoice::Tournament, true, s)))
        .collect();
    let batteries = run_cells(&cells, jobs, |cell| {
        let (orig, pbs) = uniform_streams(
            cell.workload,
            scale.workload(),
            cell.workload_seed(),
            || ctx.traces.peek(&emu_key(cell, scale)),
        )
        .expect("uniform benchmark");
        let co = BatteryCounts::of(&run_battery(&orig));
        let cp = BatteryCounts::of(&run_battery(&pbs));
        [co.pass, co.weak, co.fail, cp.pass, cp.weak, cp.fail]
    });
    TABLE3_IDS
        .iter()
        .zip(batteries.chunks_exact(seeds as usize))
        .map(|(&id, per_seed)| {
            let column = |i: usize| per_seed.iter().map(|c| c[i] as f64).collect::<Vec<f64>>();
            Table3Row {
                name: name_of(id),
                orig_pass: Summary::of(&column(0)),
                orig_weak: Summary::of(&column(1)),
                orig_fail: Summary::of(&column(2)),
                pbs_pass: Summary::of(&column(3)),
                pbs_weak: Summary::of(&column(4)),
                pbs_fail: Summary::of(&column(5)),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// §VII-D output accuracy
// ---------------------------------------------------------------------------

/// One accuracy row (paper Section VII-D).
#[derive(Debug, Clone)]
pub struct AccuracyRow {
    /// Benchmark name.
    pub name: &'static str,
    /// The metric used ("relative error", "success-rate CI overlap",
    /// "normalized RMS").
    pub metric: &'static str,
    /// The measured error/indicator (0 = identical).
    pub value: f64,
    /// Whether the result is within the paper's acceptance criterion.
    pub acceptable: bool,
}

/// One unit of §VII-D work: a benchmark's base-vs-PBS functional run
/// pair, or one Genetic success-rate trial.
#[derive(Debug, Clone, Copy)]
enum AccuracyCell {
    /// Max relative error over the primary outputs.
    RelErr(BenchmarkId),
    /// One Genetic trial at a seed index; trials aggregate into one row.
    GeneticTrial(u64),
    /// Normalized RMS over the absorption histogram.
    Photon,
    /// Reward relative error.
    Bandit,
}

/// Base and PBS functional runs of the same workload instance, each
/// read from `ctx`'s pooled trace when the pool holds its emulation key.
fn base_pbs_pair(
    id: BenchmarkId,
    scale: ExperimentScale,
    seed_index: u64,
    ctx: &Context,
) -> (TraceFunctional, TraceFunctional) {
    let program = || {
        id.build(scale.workload(), workload_seed(id, seed_index))
            .program()
    };
    let run = |pbs: bool| {
        functional_run(program, pbs, || {
            ctx.traces.peek(&(id, seed_index, pbs, scale))
        })
    };
    (run(false), run(true))
}

/// Section VII-D: output accuracy of PBS versus the original run.
pub fn accuracy(scale: ExperimentScale, jobs: Jobs) -> Vec<AccuracyRow> {
    accuracy_with_ctx(scale, jobs, &Context::new())
}

/// [`accuracy`] over the run-wide trace pool: a base or PBS run whose
/// emulation key the pool holds — seed 0 of every benchmark, once
/// Figures 1 and 6 have run — reads the pooled trace's outputs instead
/// of emulating the workload again. The rows are byte-identical either
/// way.
pub fn accuracy_with_ctx(scale: ExperimentScale, jobs: Jobs, ctx: &Context) -> Vec<AccuracyRow> {
    let trials = match scale {
        ExperimentScale::Smoke => 8,
        _ => 24,
    };

    // Relative-error benchmarks: DOP, Greeks, Swaptions, MC-integ, PI.
    const REL_ERR_IDS: [BenchmarkId; 5] = [
        BenchmarkId::Dop,
        BenchmarkId::Greeks,
        BenchmarkId::Swaptions,
        BenchmarkId::McInteg,
        BenchmarkId::Pi,
    ];
    let mut cells: Vec<AccuracyCell> = REL_ERR_IDS.map(AccuracyCell::RelErr).to_vec();
    cells.extend((0..trials).map(AccuracyCell::GeneticTrial));
    cells.push(AccuracyCell::Photon);
    cells.push(AccuracyCell::Bandit);

    // Each cell yields either a finished row (Err) or one Genetic
    // (ok_base, ok_pbs) sample (Ok) to be aggregated below.
    let outcomes = run_cells(&cells, jobs, |cell| match *cell {
        AccuracyCell::RelErr(id) => {
            let (base, pbs) = base_pbs_pair(id, scale, 0, ctx);
            // Compare the primary result values (port 1 when present,
            // port 0 counts otherwise), interpreting counts as
            // magnitudes.
            let (a, p) = if base.output(1).is_empty() {
                (
                    base.output(0).iter().map(|&v| v as f64).collect::<Vec<_>>(),
                    pbs.output(0).iter().map(|&v| v as f64).collect::<Vec<_>>(),
                )
            } else {
                (base.output_f64(1), pbs.output_f64(1))
            };
            let err = a
                .iter()
                .zip(&p)
                .map(|(&x, &y)| relative_error(x, y))
                .fold(0.0, f64::max);
            Err(AccuracyRow {
                name: name_of(id),
                metric: "max relative error",
                value: err,
                acceptable: err < 0.02,
            })
        }
        AccuracyCell::GeneticTrial(s) => {
            let (base, pbs) = base_pbs_pair(BenchmarkId::Genetic, scale, s, ctx);
            Ok((base.output(0)[0], pbs.output(0)[0]))
        }
        AccuracyCell::Photon => {
            let (base, pbs) = base_pbs_pair(BenchmarkId::Photon, scale, 0, ctx);
            let rms = normalized_rms(&base.output_f64(0), &pbs.output_f64(0));
            // The paper observed 3.9% at 6.2G instructions; the per-bin
            // Monte-Carlo variance scales as 1/sqrt(photons), so the
            // acceptance bound is scale-aware (AxBench-style
            // image-quality ranges). The accuracy table prints the
            // measured value at each scale.
            let bound = match scale {
                ExperimentScale::Smoke => 0.40,
                ExperimentScale::Bench => 0.20,
                ExperimentScale::Paper => 0.10,
            };
            Err(AccuracyRow {
                name: "Photon",
                metric: "normalized RMS",
                value: rms,
                acceptable: rms < bound,
            })
        }
        AccuracyCell::Bandit => {
            let (base, pbs) = base_pbs_pair(BenchmarkId::Bandit, scale, 0, ctx);
            let err = relative_error(base.output(0)[0] as f64, pbs.output(0)[0] as f64);
            Err(AccuracyRow {
                name: "Bandit",
                metric: "reward relative error",
                value: err,
                acceptable: err < 0.02,
            })
        }
    });

    let mut rows = Vec::new();
    let (mut ok_base, mut ok_pbs) = (0u64, 0u64);
    for outcome in outcomes {
        match outcome {
            Err(row) => rows.push(row),
            Ok((b, p)) => {
                ok_base += b;
                ok_pbs += p;
            }
        }
    }
    // Genetic: success-rate confidence intervals over the trials,
    // re-inserted at its paper position (after the relative-error rows).
    let a = SuccessRate::from_counts(ok_base, trials);
    let b = SuccessRate::from_counts(ok_pbs, trials);
    rows.insert(
        REL_ERR_IDS.len(),
        AccuracyRow {
            name: "Genetic",
            metric: "success-rate CI overlap",
            value: (a.rate - b.rate).abs(),
            acceptable: a.overlaps(&b),
        },
    );
    rows
}

// ---------------------------------------------------------------------------
// Hardware cost (§V-C2)
// ---------------------------------------------------------------------------

/// One hardware-cost row.
#[derive(Debug, Clone)]
pub struct CostRow {
    /// Configuration description.
    pub config: String,
    /// Total bytes of PBS state.
    pub bytes: usize,
}

/// Section V-C2: the hardware-cost table, including the paper's
/// 193-byte design point.
pub fn hardware_cost() -> Vec<CostRow> {
    let mut rows = Vec::new();
    for (desc, cfg) in [
        (
            "paper default (4 br × 2 val × 4 in-flight + context)",
            PbsConfig::default(),
        ),
        (
            "1 branch, no context",
            PbsConfig {
                num_branches: 1,
                context_tracking: false,
                ..PbsConfig::default()
            },
        ),
        (
            "8 branches",
            PbsConfig {
                num_branches: 8,
                ..PbsConfig::default()
            },
        ),
        (
            "Category-1 only (1 value)",
            PbsConfig {
                values_per_branch: 1,
                ..PbsConfig::default()
            },
        ),
        (
            "8 in flight",
            PbsConfig {
                in_flight: 8,
                ..PbsConfig::default()
            },
        ),
    ] {
        rows.push(CostRow {
            config: desc.to_string(),
            bytes: probranch_core::cost::total_bytes(&cfg),
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_shape_holds_at_smoke_scale() {
        let rows = fig1(ExperimentScale::Smoke, Jobs::default());
        assert_eq!(rows.len(), 8);
        // Averages: the misprediction share must exceed the execution
        // share (the paper's headline observation).
        let avg_share: f64 = rows.iter().map(|r| r.prob_branch_share).sum::<f64>() / 8.0;
        let avg_mis: f64 = rows.iter().map(|r| r.tage_mispredict_share).sum::<f64>() / 8.0;
        assert!(
            avg_mis > avg_share,
            "prob branches should cause a disproportionate misprediction share: {avg_share:.1}% exec vs {avg_mis:.1}% mispredicts"
        );
    }

    #[test]
    fn table1_matches_paper() {
        let rows = table1(Jobs::default());
        let by_name: std::collections::HashMap<&str, (bool, bool)> = rows
            .iter()
            .map(|r| (r.name, (r.predication, r.cfd)))
            .collect();
        assert_eq!(by_name["DOP"], (true, true));
        assert_eq!(by_name["Greeks"], (false, true));
        assert_eq!(by_name["Swaptions"], (false, false));
        assert_eq!(by_name["Genetic"], (false, true));
        assert_eq!(by_name["Photon"], (false, false));
        assert_eq!(by_name["MC-integ"], (true, true));
        assert_eq!(by_name["PI"], (true, true));
        assert_eq!(by_name["Bandit"], (false, false));
    }

    #[test]
    fn table2_counts() {
        let rows = table2(ExperimentScale::Smoke, Jobs::default());
        let expected = [2, 3, 3, 2, 2, 1, 1, 1];
        for (r, e) in rows.iter().zip(expected) {
            assert_eq!(r.prob_branches, e, "{}", r.name);
            assert!(r.dynamic_insts > 1000, "{}", r.name);
        }
    }

    #[test]
    fn fig6_pbs_reduces_mpki_everywhere() {
        for r in fig6(ExperimentScale::Smoke, Jobs::default()) {
            assert!(
                r.tournament_pbs <= r.tournament_base + 0.05,
                "{}: {r:?}",
                r.name
            );
            assert!(r.tage_pbs <= r.tage_base + 0.05, "{}: {r:?}", r.name);
        }
    }

    #[test]
    fn figures_share_forty_tapes_across_ninety_six_pooled_passes() {
        let (scale, jobs, ctx) = (ExperimentScale::Smoke, Jobs::serial(), Context::new());
        let tapes = |ctx: &Context| (ctx.traces().tapes_recorded(), ctx.traces().tape_reads());
        // fig1 records the 16 PBS-off tapes. fig6 reads them for its
        // PBS-off cells and records 16 PBS-on tapes; fig7 is fig6's
        // memoized grid; fig8 reads all 32. fig9's seed 0 reads fig1's
        // 8 tournament tapes and records 8 filtered ones.
        fig1_with_ctx(scale, jobs, Engine::Replay, &ctx);
        assert_eq!(tapes(&ctx), (16, 0));
        fig6_with_ctx(scale, jobs, Engine::Replay, &ctx);
        fig7_with_ctx(scale, jobs, Engine::Replay, &ctx);
        assert_eq!(tapes(&ctx), (32, 16));
        fig8_with_ctx(scale, jobs, Engine::Replay, &ctx);
        assert_eq!(tapes(&ctx), (32, 48));
        fig9_with_ctx(scale, jobs, Engine::Replay, &ctx);
        assert_eq!(tapes(&ctx), (40, 56));
        assert_eq!(ctx.captures(), 16);
        // The reference engine neither reads nor records a tape.
        fig1_with_ctx(scale, jobs, Engine::Reference, &ctx);
        assert_eq!(tapes(&ctx), (40, 56));
    }

    #[test]
    fn pooled_functional_results_equal_functional_runs() {
        let (scale, ctx) = (ExperimentScale::Smoke, Context::new());
        fig6_with_ctx(scale, Jobs::default(), Engine::Replay, &ctx);
        for id in BenchmarkId::ALL {
            for pbs in [false, true] {
                let trace = ctx
                    .traces()
                    .peek(&(id, 0, pbs, scale))
                    .expect("fig6 pools every seed-0 key");
                let program = id.build(scale.workload(), workload_seed(id, 0)).program();
                let fresh = run_functional(&program, pbs.then(PbsConfig::default), MAX_INSTS)
                    .expect("functional run");
                assert_eq!(
                    trace.functional(),
                    &TraceFunctional::from(fresh),
                    "{id:?}, PBS {pbs}"
                );
            }
        }
    }

    #[test]
    fn uniform_stream_pairs_exist_for_the_six() {
        for id in [
            BenchmarkId::Swaptions,
            BenchmarkId::Genetic,
            BenchmarkId::Photon,
            BenchmarkId::McInteg,
            BenchmarkId::Pi,
            BenchmarkId::Bandit,
        ] {
            let (o, p) = uniform_stream_pair(id, Scale::Smoke, 3).expect("eligible");
            assert!(o.len() >= 100, "{id:?}: {}", o.len());
            // Workloads whose control flow depends on the branch
            // outcomes (Photon's bounce count, Genetic's convergence)
            // may consume a different number of values under PBS; the
            // counts must still be in the same ballpark.
            let ratio = o.len() as f64 / p.len() as f64;
            assert!(
                (0.7..1.4).contains(&ratio),
                "{id:?}: {} vs {}",
                o.len(),
                p.len()
            );
            assert!(o.iter().all(|v| (0.0..1.0).contains(v)), "{id:?}");
        }
        assert!(uniform_stream_pair(BenchmarkId::Dop, Scale::Smoke, 3).is_none());
        assert!(uniform_stream_pair(BenchmarkId::Greeks, Scale::Smoke, 3).is_none());
    }

    #[test]
    fn pi_reconstruction_matches_pbs_lag_semantics() {
        let (o, p) = uniform_stream_pair(BenchmarkId::Pi, Scale::Smoke, 5).unwrap();
        // First B pairs identical, then the original replays.
        let b = PbsConfig::default().in_flight * 2;
        assert_eq!(&o[..b], &p[..b]);
        assert_eq!(&p[b..], &o[..o.len() - b]);
    }

    #[test]
    fn hardware_cost_headline() {
        let rows = hardware_cost();
        assert_eq!(rows[0].bytes, 193);
        assert_eq!(rows[1].bytes, 51);
    }
}
