//! Regenerates every table and figure of the PBS paper in one run.
//!
//! ```text
//! cargo run -p probranch-bench --bin figures --release -- --scale bench --jobs 8
//! ```
//!
//! Scales: `smoke` (about 0.2 s), `bench` (default, 1.1–1.8 s with
//! one worker), `paper` (figure-quality, 6.9–8.1 s with one worker),
//! measured on a 2-vCPU VM whose speed swings by tens of percent.
//!
//! `--jobs N` selects the worker count of the parallel experiment
//! engine (default: `PROBRANCH_JOBS`, else all available cores). The
//! printed tables are byte-identical for every worker count — the
//! default run performs **no wall-clock measurement at all**, so stdout
//! stays byte-diffable across machines and worker counts.
//!
//! All timing sweeps share **one trace pool** for the whole run (an
//! [`experiments::Context`]): Figures 1, 6, 7 and 8 revisit the same
//! emulation keys, so each key is emulated exactly once per
//! invocation, and each predictor runs over a pooled trace once: its
//! predictions stay in the pool as a prediction tape that later
//! figures read. `--trace-dir DIR` extends the pool to disk — traces are
//! persisted per content-hashed key and later runs load instead of
//! emulating, with stale/corrupt files falling back to capture. The
//! printed tables are byte-identical with or without a (warm or cold)
//! trace directory.
//!
//! Timing lives outside this binary: `perfbench/run.py` times whole
//! runs and per-layer calls (see `perfbench/README.md`).

use probranch_bench::experiments::{self, Engine, ExperimentScale};
use probranch_bench::service;
use probranch_faults as faults;
use probranch_harness::Jobs;

struct Options {
    scale: ExperimentScale,
    jobs: Option<Jobs>,
    engine: Engine,
    trace_dir: Option<String>,
    fault_plan: Option<faults::FaultPlan>,
    serve: Option<String>,
}

fn parse_args() -> Options {
    let mut scale: Option<ExperimentScale> = None;
    let mut jobs: Option<Jobs> = None;
    let mut engine: Option<Engine> = None;
    let mut trace_dir: Option<String> = None;
    let mut fault_plan: Option<faults::FaultPlan> = None;
    let mut serve: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let (flag, value) = match arg.as_str() {
            "--help" | "-h" => usage(""),
            "--scale" | "--jobs" | "--engine" | "--trace-dir" | "--fault-plan" | "--serve" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage(&format!("{arg} needs a value")));
                (arg.clone(), v)
            }
            _ if arg.starts_with("--scale=")
                || arg.starts_with("--jobs=")
                || arg.starts_with("--engine=")
                || arg.starts_with("--trace-dir=")
                || arg.starts_with("--fault-plan=")
                || arg.starts_with("--serve=") =>
            {
                let (f, v) = arg.split_once('=').expect("checked above");
                (f.to_string(), v.to_string())
            }
            _ => usage(&format!("unknown argument `{arg}`")),
        };
        match flag.as_str() {
            "--scale" => {
                if scale.is_some() {
                    usage("--scale given twice");
                }
                scale = Some(
                    ExperimentScale::parse(&value)
                        .unwrap_or_else(|| usage(&format!("unknown scale `{value}`"))),
                );
            }
            "--jobs" => {
                if jobs.is_some() {
                    usage("--jobs given twice");
                }
                let n: usize = value
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("invalid job count `{value}`")));
                // 0 means "auto", matching PROBRANCH_JOBS.
                jobs = Some(if n == 0 {
                    Jobs::available()
                } else {
                    Jobs::new(n)
                });
            }
            "--engine" => {
                if engine.is_some() {
                    usage("--engine given twice");
                }
                engine = Some(
                    Engine::parse(&value)
                        .unwrap_or_else(|| usage(&format!("unknown engine `{value}`"))),
                );
            }
            "--trace-dir" => {
                if trace_dir.is_some() {
                    usage("--trace-dir given twice");
                }
                trace_dir = Some(value);
            }
            "--fault-plan" => {
                if fault_plan.is_some() {
                    usage("--fault-plan given twice");
                }
                fault_plan = Some(
                    faults::FaultPlan::parse(&value)
                        .unwrap_or_else(|e| usage(&format!("invalid fault plan `{value}`: {e}"))),
                );
            }
            "--serve" => {
                if serve.is_some() {
                    usage("--serve given twice");
                }
                serve = Some(value);
            }
            _ => unreachable!(),
        }
    }
    Options {
        scale: scale.unwrap_or(ExperimentScale::Bench),
        jobs,
        engine: engine.unwrap_or_default(),
        trace_dir,
        fault_plan,
        serve,
    }
}

fn usage(error: &str) -> ! {
    let text = "usage: figures [--scale smoke|bench|paper] [--jobs N]\n               [--engine replay|reference]\n               [--trace-dir DIR] [--fault-plan SPEC]\n               [--serve ADDR]\n       --scale: how large a run is (default: bench); smoke is a\n        quick check, paper gives figure-quality numbers.\n       --jobs N: worker threads for the sweeps; 0 means all\n        available cores (default: the PROBRANCH_JOBS environment\n        variable, or all cores when it is unset or 0). stdout is\n        byte-identical for every worker count.\n       --engine: simulation engine for the timing sweeps (default:\n        replay — emulate each workload once per (workload, seed, PBS)\n        key into a run-wide trace pool shared by every sweep, and\n        re-time the pooled trace for every predictor/core/filter cell;\n        Figures 1 and 9 print no cycle count and run only the batch\n        predictor, Figure 9 streaming the seeds no other figure uses\n        with bounded memory; each pass over a pooled trace keeps its\n        predictions beside the trace as a prediction tape, which\n        later passes under the same predictor and filter read instead\n        of predicting again — Figure 1's tapes serve Figures 6, 8 and\n        9 — and Table III and the accuracy check read pooled traces'\n        program results instead of re-emulating; reference\n        re-simulates every cell with the per-instruction oracle, for\n        differential debugging). Both print byte-identical tables.\n       --trace-dir DIR: persist captured traces under DIR, keyed by a\n        content hash of (workload, seed derivation, PBS/emulator\n        config, ISA version); later runs load the files instead of\n        emulating. Stale or corrupt files fall back to capture;\n        orphaned writer temp files and old quarantined files are\n        swept on open. stdout stays byte-identical with or without\n        the flag.\n       --fault-plan SPEC: arm seeded failpoints for the run, e.g.\n        `seed=7,persist.write=0.5x3,cell.panic=0.2` (sites:\n        persist.write/.enospc/.short/.fsync/.rename, trace.load (the\n        trace-file read), capture, capture.block, cell.panic,\n        cell.delay, cancel.spurious, serve.accept/.read/.write/.drop;\n        probability in [0,1], optional xCOUNT budget). Decisions are\n        pure functions of (seed, site, salt), so a plan misbehaves\n        identically across reruns and worker counts. Every timing\n        cell gets four attempts (the requested engine twice, then\n        the reference engine twice) and the trace store heals itself\n        (retries, quarantine, stale overwrite, a persistence breaker),\n        so the run either survives with byte-identical stdout or exits\n        3 with a structured error naming the exhausted cell.\n       --serve ADDR: run as the resilient sweep service instead of a\n        one-shot sweep — bind ADDR (e.g. 127.0.0.1:7633), answer\n        probranch-client requests over one shared trace pool with\n        admission control (4 sweeps in flight), request coalescing\n        and per-request cancellation deadlines. A section that\n        finished ok is kept in memory under its (section, scale,\n        engine) and answers every later identical request without\n        re-running; cancelled and failed sweeps are not kept, so a\n        retry recomputes.\n        SIGINT/SIGTERM or a `shutdown` request drains in-flight sweeps,\n        writes pooled traces the store is missing, prints the service\n        counters and exits 0. Each section's bytes match the\n        in-process run exactly.";
    if error.is_empty() {
        println!("{text}");
        std::process::exit(0);
    }
    eprintln!("error: {error}\n\n{text}");
    std::process::exit(2);
}

/// The full figure run, in paper order — the same
/// [`service::section_text`] path the sweep service serves, so the two
/// are byte-identical by construction. Panics raised by supervised
/// sweeps carry typed payloads `main` renders as structured errors.
fn run_figures(scale: ExperimentScale, jobs: Jobs, engine: Engine, ctx: &experiments::Context) {
    for section in probranch_serve::SECTIONS {
        let text = service::section_text(section, scale, jobs, engine, ctx)
            .unwrap_or_else(|| panic!("SECTIONS names unknown section `{section}`"));
        println!("{text}");
    }
}

/// Service mode (`--serve ADDR`): every request shares `ctx`'s trace
/// pool; drain writes pooled traces the store is missing before exit.
fn run_serve(addr: &str, jobs: Jobs, ctx: &experiments::Context) {
    let server = probranch_serve::Server::bind(addr).unwrap_or_else(|e| {
        eprintln!("error: binding {addr}: {e}");
        std::process::exit(2);
    });
    let bound = server.local_addr().expect("bound listener has an address");
    // A persistence fault trips the breaker; in service mode it
    // half-opens after a cooldown instead of staying dark for the
    // (indefinite) process lifetime.
    ctx.traces()
        .set_persist_cooldown(std::time::Duration::from_secs(30));
    // The server's drain gate watches the signal flag itself.
    probranch_serve::install_signal_shutdown();
    eprintln!("serving sweeps on {bound}; SIGTERM or `probranch-client {bound} --shutdown` drains");
    let stats = server
        .run(service::sweep_handler(ctx, jobs))
        .unwrap_or_else(|e| {
            eprintln!("error: serve loop: {e}");
            std::process::exit(2);
        });
    let flushed = ctx.traces().flush_to_disk();
    eprintln!(
        "service: {}; drained, {flushed} pending traces flushed",
        stats.summary()
    );
}

fn main() {
    let opts = parse_args();
    let scale = opts.scale;
    let jobs = opts.jobs.unwrap_or_else(Jobs::from_env);
    let engine = opts.engine;
    // Armed on this thread; the sweep workers and the server's threads
    // join it, and its hit counters total theirs.
    let plan = opts.fault_plan.map(|plan| {
        eprintln!("fault plan armed: {}", plan.spec());
        faults::PlanScope::enter(plan)
    });
    // One trace pool for the whole run: every timing sweep below shares
    // it, so an emulation key is captured (or disk-loaded) exactly once
    // per invocation no matter how many figures revisit it.
    let ctx = opts.trace_dir.map_or_else(
        experiments::Context::new,
        experiments::Context::with_trace_dir,
    );
    if let Some(addr) = &opts.serve {
        run_serve(addr, jobs, &ctx);
        if plan.is_some() {
            eprintln!("fault sites hit: {}", faults::hits_summary());
        }
        return;
    }
    // The job count and engine go to stderr: stdout must stay
    // byte-identical across worker counts, engines *and* warm/cold
    // trace directories (the determinism guarantees CI diffs on).
    println!("probranch — regenerating all tables & figures at {scale:?} scale\n");
    eprintln!("running with {jobs} jobs, {} engine", engine.name());

    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_figures(scale, jobs, engine, &ctx);
    }));
    eprintln!(
        "run pool: {} keys, {} captures, {} disk loads, {} grid hits, {} MiB",
        ctx.keys(),
        ctx.captures(),
        ctx.disk_loads(),
        ctx.grid_hits(),
        ctx.bytes() / (1 << 20)
    );
    // The pool never drops an entry; `0 demotions, 0 evictions` stays
    // because perfbench/run.py parses the fields.
    eprintln!(
        "trace store: {} hits, 0 demotions, 0 evictions, peak {} MiB",
        ctx.store_hits(),
        ctx.peak_bytes() / (1 << 20)
    );
    // Cells have no deadline; `0 over deadline` stays because
    // perfbench/run.py parses the field.
    eprintln!(
        "robustness: {} retried, {} degraded, 0 over deadline; {} stale rejected, {} quarantined, {} io retries, {} write failures, persistence {}",
        ctx.retried_cells(),
        ctx.degraded_cells(),
        ctx.traces().stale_rejected(),
        ctx.traces().quarantined(),
        ctx.traces().io_retries(),
        ctx.traces().write_failures(),
        if ctx.traces().persistence_disabled() {
            "disabled"
        } else {
            "on"
        }
    );
    if plan.is_some() {
        eprintln!("fault sites hit: {}", faults::hits_summary());
    }
    if let Err(payload) = outcome {
        // A supervised cell that exhausted every attempt surfaces as a
        // structured error attributing the exhausted site, not a crash.
        let Some(msg) = service::typed_failure(&*payload) else {
            // A genuine bug: re-raise so the default abort path (and
            // its backtrace machinery) reports it unchanged.
            std::panic::resume_unwind(payload);
        };
        eprintln!("error: {msg}");
        std::process::exit(3);
    }
}
