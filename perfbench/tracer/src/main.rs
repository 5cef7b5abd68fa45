//! Traced run of the `figures` regeneration, for the per-layer metrics
//! of `perfbench/run.py --trace 1`.
//!
//! ```text
//! perfbench-tracer fill  --scale bench --trace-dir DIR --spans FILE
//! perfbench-tracer trace --scale bench --jobs 1 [--trace-dir DIR] [--warm]
//!                        --spans FILE --stdout FILE
//! ```
//!
//! `fill` writes the trace store a cold `figures --trace-dir DIR` run
//! writes, by direct `DynTrace::capture` and `DynTrace::write_file`
//! calls.
//!
//! `trace` regenerates every section through `service::section_text`
//! under one span per section and writes the concatenated text (the
//! `figures` stdout) to `--stdout`. Right after each section it
//! re-executes that section's cells as the direct public calls of the
//! layers: workload build,
//! capture, trace load, replay, convoy, functional run, value streams,
//! randomness battery, static analysis and render, one span per call.
//! The re-executed capture and load counts must equal the section's,
//! and every pooled trace's instruction count must equal the
//! re-executed one; any difference is reported as a mismatch. `--warm`
//! first runs one untraced pass of both, so the traced pass sees the
//! warmed pools of a running `figures --serve`.
//!
//! Spans are kept in memory and written once, as JSON lines, at the
//! end. The last line of standard output is one JSON object with the
//! run's counts and mismatches.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use probranch_bench::experiments::{self, Context, Engine, ExperimentScale};
use probranch_bench::{render, service};
use probranch_compiler::{cfd, predication};
use probranch_core::PbsConfig;
use probranch_harness::{workload_seed, Jobs};
use probranch_pipeline::{
    run_functional, DynTrace, EngineKind, OooConfig, PredictorChoice, SimConfig, Simulation,
};
use probranch_rng::SplitMix64;
use probranch_serve::SECTIONS;
use probranch_stats::randomness::run_battery;
use probranch_workloads::{BenchmarkId, Scale};

/// The instruction budget of every experiment cell (`experiments.rs`).
const MAX_INSTS: u64 = 2_000_000_000;

/// The four predictor/PBS configurations of the Figure 6–8 grids.
const FOUR_CONFIGS: [(PredictorChoice, bool); 4] = [
    (PredictorChoice::Tournament, false),
    (PredictorChoice::Tournament, true),
    (PredictorChoice::TageScL, false),
    (PredictorChoice::TageScL, true),
];

/// The uniform-controlled benchmarks of Table III.
const TABLE3_IDS: [BenchmarkId; 6] = [
    BenchmarkId::Swaptions,
    BenchmarkId::Genetic,
    BenchmarkId::Photon,
    BenchmarkId::McInteg,
    BenchmarkId::Pi,
    BenchmarkId::Bandit,
];

/// The relative-error benchmarks of the accuracy section.
const REL_ERR_IDS: [BenchmarkId; 5] = [
    BenchmarkId::Dop,
    BenchmarkId::Greeks,
    BenchmarkId::Swaptions,
    BenchmarkId::McInteg,
    BenchmarkId::Pi,
];

/// Work counted at a span's boundary.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    insts: u64,
    bytes: u64,
    values: u64,
}

impl Counts {
    fn insts(insts: u64) -> Counts {
        Counts {
            insts,
            ..Counts::default()
        }
    }
}

#[derive(Debug)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    counts: Counts,
}

/// In-memory span recorder. Spans nest by call order: a span's parent
/// is the innermost span still open when it begins. When off, nothing
/// is recorded.
#[derive(Debug)]
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    on: bool,
}

impl Tracer {
    fn new(on: bool) -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            on,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    fn begin(&mut self, name: &str) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            counts: Counts::default(),
        });
        self.open.push(id);
        Some(id)
    }

    fn end(&mut self, id: Option<usize>, counts: Counts) {
        let Some(id) = id else { return };
        let end_ns = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.counts = counts;
    }

    /// Runs `f` under a span named `name`; `f` returns its result and
    /// the work it did.
    fn span<R>(&mut self, name: &str, f: impl FnOnce() -> (R, Counts)) -> R {
        let id = self.begin(name);
        let (result, counts) = f();
        self.end(id, counts);
        result
    }

    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"seq\":0,\"insts\":{},\"bytes\":{},\"values\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.counts.insts, s.counts.bytes, s.counts.values
            )
            .expect("writing to a String cannot fail");
        }
        std::fs::write(path, out)
    }
}

/// A timing cell's configuration, as `experiments::cell_config` builds
/// it.
fn cell_config(predictor: PredictorChoice, pbs: bool, core: OooConfig) -> SimConfig {
    SimConfig {
        core,
        predictor,
        pbs: pbs.then(PbsConfig::default),
        max_insts: MAX_INSTS,
        ..SimConfig::default()
    }
}

/// The content hash naming an emulation key's trace file, as
/// `experiments::trace_content_hash` computes it.
fn content_hash(id: BenchmarkId, seed: u64, scale: ExperimentScale, cfg: &SimConfig) -> u64 {
    SplitMix64::mix_fold(&[
        id as u64,
        scale as u64,
        workload_seed(id, seed),
        cfg.emu_key_fingerprint(),
    ])
}

/// The trace file of a content hash, as `EngineContext` names it.
fn trace_path(dir: &Path, hash: u64) -> PathBuf {
    dir.join(format!("trace-{hash:016x}.bin"))
}

fn build(t: &mut Tracer, id: BenchmarkId, scale: Scale, seed: u64) -> probranch_isa::Program {
    t.span("workloads.build", || {
        (id.build(scale, seed).program(), Counts::default())
    })
}

/// Builds an emulation key's workload and captures its trace.
fn capture(
    t: &mut Tracer,
    id: BenchmarkId,
    seed: u64,
    scale: ExperimentScale,
    cfg: &SimConfig,
) -> DynTrace {
    let program = build(t, id, scale.workload(), workload_seed(id, seed));
    t.span("pipeline.capture", || {
        let trace = DynTrace::capture(&program, cfg).expect("capture");
        let insts = trace.instructions();
        (trace, Counts::insts(insts))
    })
}

fn functional(t: &mut Tracer, program: &probranch_isa::Program, pbs: Option<PbsConfig>) {
    t.span("pipeline.functional", || {
        let report = run_functional(program, pbs, MAX_INSTS).expect("functional run");
        let insts = report.timing.instructions;
        (black_box(report), Counts::insts(insts))
    });
}

fn replay(t: &mut Tracer, trace: &DynTrace, configs: &[SimConfig]) {
    t.span("pipeline.replay", || {
        let reports = Simulation::new(EngineKind::Replay)
            .replay_many(trace, configs)
            .expect("replay");
        let insts = trace.instructions() * configs.len() as u64;
        (black_box(reports), Counts::insts(insts))
    });
}

/// Rows of every section at smoke scale, for timing the render layer:
/// a table has one row per benchmark at every scale, so rendering cost
/// does not depend on the scale the rows were computed at.
struct Rows {
    table2: Vec<experiments::Table2Row>,
    table1: Vec<experiments::Table1Row>,
    fig1: Vec<experiments::Fig1Row>,
    fig6: Vec<experiments::Fig6Row>,
    fig7: Vec<experiments::IpcRow>,
    fig8: Vec<experiments::IpcRow>,
    fig9: Vec<experiments::Fig9Row>,
    table3: Vec<experiments::Table3Row>,
    accuracy: Vec<experiments::AccuracyRow>,
    cost: Vec<experiments::CostRow>,
}

impl Rows {
    fn smoke(jobs: Jobs) -> Rows {
        let s = ExperimentScale::Smoke;
        let ctx = Context::new();
        Rows {
            table2: experiments::table2(s, jobs),
            table1: experiments::table1(jobs),
            fig1: experiments::fig1_with_ctx(s, jobs, Engine::Replay, &ctx),
            fig6: experiments::fig6_with_ctx(s, jobs, Engine::Replay, &ctx),
            fig7: experiments::fig7_with_ctx(s, jobs, Engine::Replay, &ctx),
            fig8: experiments::fig8_with_ctx(s, jobs, Engine::Replay, &ctx),
            fig9: experiments::fig9_with_ctx(s, jobs, Engine::Replay, &ctx),
            table3: experiments::table3(s, jobs),
            accuracy: experiments::accuracy(s, jobs),
            cost: experiments::hardware_cost(),
        }
    }

    fn render(&self, section: &str) -> String {
        match section {
            "table2" => render::table2(&self.table2),
            "table1" => render::table1(&self.table1),
            "fig1" => render::fig1(&self.fig1),
            "fig6" => render::fig6(&self.fig6),
            "fig7" => render::ipc(&self.fig7, "FIG 7"),
            "fig8" => render::ipc(&self.fig8, "FIG 8"),
            "fig9" => render::fig9(&self.fig9),
            "table3" => render::table3(&self.table3),
            "accuracy" => render::accuracy(&self.accuracy),
            "cost" => render::cost(&self.cost),
            other => panic!("unknown section `{other}`"),
        }
    }
}

/// The re-execution state: the seed-0 trace pool Figures 1/6/7/8 share
/// and Figure 9 peeks, the grids already timed, and the work done.
struct Replica {
    scale: ExperimentScale,
    store: Option<PathBuf>,
    pool: HashMap<(BenchmarkId, bool), Arc<DynTrace>>,
    grids: Vec<(u32, usize)>,
    captures: usize,
    loads: usize,
}

impl Replica {
    fn new(scale: ExperimentScale, store: Option<PathBuf>) -> Replica {
        Replica {
            scale,
            store,
            pool: HashMap::new(),
            grids: Vec::new(),
            captures: 0,
            loads: 0,
        }
    }

    /// An emulation key's trace: loaded from the store when one is
    /// configured and holds it, captured otherwise.
    fn materialize(&mut self, t: &mut Tracer, id: BenchmarkId, seed: u64, pbs: bool) -> DynTrace {
        let cfg = cell_config(PredictorChoice::Tournament, pbs, OooConfig::default());
        let hash = content_hash(id, seed, self.scale, &cfg);
        if let Some(dir) = &self.store {
            let path = trace_path(dir, hash);
            let loaded = t.span("persist.load", || {
                let trace = DynTrace::read_file(&path, hash, &cfg);
                let counts = Counts {
                    insts: trace.as_ref().map_or(0, DynTrace::instructions),
                    bytes: std::fs::metadata(&path).map_or(0, |m| m.len()),
                    values: 0,
                };
                (trace, counts)
            });
            if let Some(trace) = loaded {
                self.loads += 1;
                return trace;
            }
        }
        self.captures += 1;
        capture(t, id, seed, self.scale, &cfg)
    }

    fn pooled(&mut self, t: &mut Tracer, id: BenchmarkId, pbs: bool) -> Arc<DynTrace> {
        if let Some(trace) = self.pool.get(&(id, pbs)) {
            return Arc::clone(trace);
        }
        let trace = Arc::new(self.materialize(t, id, 0, pbs));
        self.pool.insert((id, pbs), Arc::clone(&trace));
        trace
    }

    /// The benchmark × four-config grid on `core`, timed once per core
    /// like the grid memo of `experiments::Context`.
    fn grid(&mut self, t: &mut Tracer, core: &OooConfig) {
        let key = (core.width, core.rob_size);
        if self.grids.contains(&key) {
            return;
        }
        self.grids.push(key);
        for id in BenchmarkId::ALL {
            for (predictor, pbs) in FOUR_CONFIGS {
                let trace = self.pooled(t, id, pbs);
                replay(t, &trace, &[cell_config(predictor, pbs, core.clone())]);
            }
        }
    }

    fn fig9(&mut self, t: &mut Tracer) {
        let cfg = SimConfig {
            predictor: PredictorChoice::Tournament,
            max_insts: MAX_INSTS,
            ..SimConfig::default()
        };
        let mut filtered = cfg.clone();
        filtered.filter_prob_from_predictor = true;
        let pair = [cfg, filtered];
        for id in BenchmarkId::ALL {
            for seed in 0..self.scale.seeds() {
                let pooled = if seed == 0 {
                    self.pool.get(&(id, false)).cloned()
                } else {
                    None
                };
                if let Some(trace) = pooled {
                    replay(t, &trace, &pair);
                } else if self.store.is_some() {
                    let trace = self.materialize(t, id, seed, false);
                    replay(t, &trace, &pair);
                } else {
                    let program = build(t, id, self.scale.workload(), workload_seed(id, seed));
                    t.span("pipeline.convoy", || {
                        let reports = Simulation::new(EngineKind::Convoy)
                            .run_many(&program, &pair)
                            .expect("convoy");
                        let insts = reports[0].timing.instructions;
                        (black_box(reports), Counts::insts(insts))
                    });
                }
            }
        }
    }

    /// Re-executes one section's cells as direct layer calls, then
    /// renders its rows.
    fn section(&mut self, t: &mut Tracer, section: &str, rows: &Rows) {
        let w = self.scale.workload();
        let id = t.begin(&format!("reexec.{section}"));
        match section {
            "table2" => {
                for id in BenchmarkId::ALL {
                    let program = build(t, id, w, workload_seed(id, 0));
                    black_box(program.branch_counts());
                    functional(t, &program, None);
                }
            }
            "table1" => {
                for id in BenchmarkId::ALL {
                    let program = build(t, id, Scale::Smoke, workload_seed(id, 0));
                    t.span("compiler.analyze", || {
                        let found = (
                            predication::analyze_program(&program),
                            cfd::analyze_program(&program),
                        );
                        (black_box(found), Counts::default())
                    });
                }
            }
            "fig1" => {
                for id in BenchmarkId::ALL {
                    let trace = self.pooled(t, id, false);
                    for predictor in [PredictorChoice::Tournament, PredictorChoice::TageScL] {
                        replay(
                            t,
                            &trace,
                            &[cell_config(predictor, false, OooConfig::default())],
                        );
                    }
                }
            }
            "fig6" | "fig7" => self.grid(t, &OooConfig::default()),
            "fig8" => self.grid(t, &OooConfig::wide()),
            "fig9" => self.fig9(t),
            "table3" => {
                for id in TABLE3_IDS {
                    for seed in 0..self.scale.seeds() {
                        let (orig, pbs) = t.span("experiments.streams", || {
                            let pair =
                                experiments::uniform_stream_pair(id, w, workload_seed(id, seed))
                                    .expect("uniform-controlled benchmark");
                            let values = (pair.0.len() + pair.1.len()) as u64;
                            (
                                pair,
                                Counts {
                                    values,
                                    ..Counts::default()
                                },
                            )
                        });
                        for values in [&orig, &pbs] {
                            t.span("stats.battery", || {
                                let counts = Counts {
                                    values: values.len() as u64,
                                    ..Counts::default()
                                };
                                (black_box(run_battery(values)), counts)
                            });
                        }
                    }
                }
            }
            "accuracy" => {
                let trials = match self.scale {
                    ExperimentScale::Smoke => 8,
                    _ => 24,
                };
                let pairs = REL_ERR_IDS
                    .iter()
                    .map(|&id| (id, 0))
                    .chain((0..trials).map(|s| (BenchmarkId::Genetic, s)))
                    .chain([(BenchmarkId::Photon, 0), (BenchmarkId::Bandit, 0)]);
                for (id, seed) in pairs {
                    let program = build(t, id, w, workload_seed(id, seed));
                    functional(t, &program, None);
                    functional(t, &program, Some(PbsConfig::default()));
                }
            }
            "cost" => {
                black_box(experiments::hardware_cost());
            }
            other => panic!("unknown section `{other}`"),
        }
        t.span("render.render", || {
            (black_box(rows.render(section)), Counts::default())
        });
        t.end(id, Counts::default());
    }
}

/// Writes the store a cold `figures --trace-dir` run writes: the
/// seed-0 keys of Figures 1/6/7/8 and Figure 9's other seeds.
fn fill(t: &mut Tracer, scale: ExperimentScale, dir: &Path) {
    std::fs::create_dir_all(dir).expect("creating the trace directory");
    let keys = BenchmarkId::ALL
        .iter()
        .flat_map(|&id| [(id, 0, false), (id, 0, true)])
        .chain(
            BenchmarkId::ALL
                .iter()
                .flat_map(|&id| (1..scale.seeds()).map(move |s| (id, s, false))),
        );
    for (id, seed, pbs) in keys {
        let cfg = cell_config(PredictorChoice::Tournament, pbs, OooConfig::default());
        let hash = content_hash(id, seed, scale, &cfg);
        let trace = capture(t, id, seed, scale, &cfg);
        let path = trace_path(dir, hash);
        t.span("persist.write", || {
            trace.write_file(&path, hash).expect("writing a trace file");
            let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
            (
                (),
                Counts {
                    insts: trace.instructions(),
                    bytes,
                    values: 0,
                },
            )
        });
    }
}

/// The traced regeneration and re-execution; returns the JSON summary.
fn trace(
    t: &mut Tracer,
    scale: ExperimentScale,
    jobs: Jobs,
    store: Option<PathBuf>,
    warm: bool,
    stdout_path: &Path,
) -> String {
    let ctx = match &store {
        Some(dir) => Context::with_trace_dir(dir),
        None => Context::new(),
    };
    let rows = Rows::smoke(jobs);
    let mut replica = Replica::new(scale, store);
    if warm {
        let mut off = Tracer::new(false);
        for section in SECTIONS {
            black_box(service::section_text(
                section,
                scale,
                jobs,
                Engine::Replay,
                &ctx,
            ));
            replica.section(&mut off, section, &rows);
        }
    }

    // Each section is re-executed right after it runs, so that host
    // speed, which drifts over seconds, is about the same for both.
    let mut out = format!("probranch — regenerating all tables & figures at {scale:?} scale\n\n");
    let mut regen_s = 0.0;
    let mut mismatches = Vec::new();
    for section in SECTIONS {
        let (captures, loads) = (ctx.captures(), ctx.disk_loads());
        let t0 = Instant::now();
        let text = t.span(&format!("section.{section}"), || {
            let text = service::section_text(section, scale, jobs, Engine::Replay, &ctx)
                .expect("SECTIONS names known sections");
            (text, Counts::default())
        });
        regen_s += t0.elapsed().as_secs_f64();
        out.push_str(&text);
        out.push('\n');
        let section_counts = (ctx.captures() - captures, ctx.disk_loads() - loads);
        let before = (replica.captures, replica.loads);
        replica.section(t, section, &rows);
        let again = (replica.captures - before.0, replica.loads - before.1);
        if again != section_counts {
            mismatches.push(format!(
                "{section}: section made {} captures and {} loads, re-execution {} and {}",
                section_counts.0, section_counts.1, again.0, again.1
            ));
        }
    }
    std::fs::write(stdout_path, &out).expect("writing the regenerated stdout");
    let mut keys: Vec<_> = replica.pool.iter().collect();
    keys.sort_by_key(|(&(id, pbs), _)| (id as u64, pbs));
    for (&(id, pbs), trace) in keys {
        let pooled = ctx.traces().peek(&(id, 0, pbs, scale));
        let section_insts = pooled.as_ref().map_or(0, |p| p.instructions());
        if section_insts != trace.instructions() {
            mismatches.push(format!(
                "{id:?} pbs={pbs}: pooled trace has {section_insts} instructions, re-execution {}",
                trace.instructions()
            ));
        }
    }

    let mismatches: Vec<String> = mismatches.iter().map(|m| format!("\"{m}\"")).collect();
    format!(
        "{{\"regen_s\":{regen_s},\"ctx\":{{\"keys\":{},\"captures\":{},\"disk_loads\":{},\"store_hits\":{},\"grid_hits\":{},\"pool_peak_mb\":{},\"retried_cells\":{},\"degraded_cells\":{}}},\"mismatches\":[{}]}}",
        ctx.keys(),
        ctx.captures(),
        ctx.disk_loads(),
        ctx.store_hits(),
        ctx.grid_hits(),
        ctx.peak_bytes() >> 20,
        ctx.retried_cells(),
        ctx.degraded_cells(),
        mismatches.join(","),
    )
}

fn usage(error: &str) -> ! {
    eprintln!(
        "error: {error}\nusage: perfbench-tracer fill --scale S --trace-dir DIR --spans FILE\n       perfbench-tracer trace --scale S --jobs N [--trace-dir DIR] [--warm] --spans FILE --stdout FILE"
    );
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mode = args.next().unwrap_or_else(|| usage("missing mode"));
    let (mut scale, mut jobs, mut store, mut spans, mut stdout, mut warm) =
        (None, Jobs::serial(), None, None, None, false);
    while let Some(flag) = args.next() {
        if flag == "--warm" {
            warm = true;
            continue;
        }
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--scale" => {
                scale = Some(
                    ExperimentScale::parse(&value)
                        .unwrap_or_else(|| usage(&format!("unknown scale `{value}`"))),
                );
            }
            "--jobs" => {
                jobs = Jobs::new(
                    value
                        .parse()
                        .unwrap_or_else(|_| usage(&format!("invalid job count `{value}`"))),
                );
            }
            "--trace-dir" => store = Some(PathBuf::from(value)),
            "--spans" => spans = Some(PathBuf::from(value)),
            "--stdout" => stdout = Some(PathBuf::from(value)),
            _ => usage(&format!("unknown flag `{flag}`")),
        }
    }
    let scale = scale.unwrap_or_else(|| usage("--scale is required"));
    let spans = spans.unwrap_or_else(|| usage("--spans is required"));
    // As `figures` does: the capture/drain overlap runs only at jobs > 1.
    probranch_pipeline::set_capture_overlap(jobs.get() > 1);
    let mut t = Tracer::new(true);
    let summary = match mode.as_str() {
        "fill" => {
            let dir = store.unwrap_or_else(|| usage("fill needs --trace-dir"));
            fill(&mut t, scale, &dir);
            "{}".to_string()
        }
        "trace" => {
            let stdout = stdout.unwrap_or_else(|| usage("trace needs --stdout"));
            trace(&mut t, scale, jobs, store, warm, &stdout)
        }
        other => usage(&format!("unknown mode `{other}`")),
    };
    t.write_jsonl(&spans).expect("writing the spans file");
    println!("{summary}");
}
