//! Engine-equivalence suite: the shared-trace replay engine
//! (`DynTrace::capture` + `Simulation::replay`, and the chunk-streaming
//! `EngineKind::Convoy`) must produce an **identical** `SimReport` to the
//! per-instruction reference engine (`EngineKind::Reference`) — timing
//! statistics, PBS counters, outputs, the consumed probabilistic-value
//! stream, and the per-branch trace — for every workload of the
//! golden/determinism suites, under every machine configuration the
//! paper sweeps. Error paths included: the instruction budget trips at
//! the same dynamic instruction in every engine. The predictor-only pass
//! (`Simulation::run_branches` / `replay_branches`) must equal the
//! reference engine's timing statistics without their cycle count, with
//! the same errors.
//!
//! The reference engine shares the timing core with replay but not the
//! capture path: it runs the `Inst`-interpreting emulator against a
//! live memory hierarchy and consults a `Box<dyn BranchPredictor>`
//! serially per branch, where replay pre-simulates the hierarchy at
//! capture and batch-predicts each chunk through
//! `predict_update_batch`.
//!
//! The comparison sweeps run through the parallel experiment harness
//! with default jobs, so the CI matrix (PROBRANCH_JOBS=1 vs default)
//! exercises the suite — including the trace captures and replays —
//! both serially and in parallel. Every case that runs a convoy runs it
//! with the capture/drain overlap off and on ([`under_both_overlaps`]).

use std::sync::{Mutex, PoisonError};

use probranch::harness::{run_cells, workload_seed, Cell, Jobs};
use probranch::isa::Program;
use probranch::pbs::PbsConfig;
use probranch::pipeline::{
    run_functional, set_capture_overlap, BranchStats, DynTrace, EmuError, EngineKind, OooConfig,
    PredictorChoice, SimConfig, SimReport, Simulation, TraceFunctional,
};
use probranch::workloads::{BenchmarkId, Scale};
use probranch_faults::{FaultPlan, PlanScope, Site};

/// The golden-trace suite's fixed workload seed: equivalence at exactly
/// the stream the golden files pin.
const GOLDEN_SEED: u64 = 0xB5EED;

fn config_for(cell: &Cell, core: OooConfig, trace: bool) -> SimConfig {
    let mut cfg = SimConfig {
        core,
        predictor: cell.predictor,
        collect_branch_trace: trace,
        ..SimConfig::default()
    };
    if cell.pbs {
        cfg.pbs = Some(PbsConfig::default());
    }
    cfg
}

fn reference(program: &Program, cfg: &SimConfig) -> Result<SimReport, EmuError> {
    Simulation::new(EngineKind::Reference).run(program, cfg)
}

/// Runs `f` with the process-wide capture/drain overlap of convoy runs
/// off (the serial fill loop), then on (the default, restored), and
/// returns both results. Every case that runs a convoy goes through
/// here and holds the lock throughout, so no case flips the switch
/// while another one's convoys run.
fn under_both_overlaps<R>(f: impl Fn() -> R) -> [R; 2] {
    static SWITCH: Mutex<()> = Mutex::new(());
    let _held = SWITCH.lock().unwrap_or_else(PoisonError::into_inner);
    [false, true].map(|overlap| {
        set_capture_overlap(overlap);
        f()
    })
}

/// Runs the replay engine (capture once, replay once) for `cfg`.
fn replayed(program: &Program, cfg: &SimConfig) -> SimReport {
    let trace = DynTrace::capture(program, cfg).expect("capture");
    Simulation::default().replay(&trace, cfg).expect("replay")
}

fn assert_reports_equal(cell: &Cell, replay: &SimReport, reference: &SimReport) {
    // Field-by-field first, so a drift names the diverging component…
    assert_eq!(replay.timing, reference.timing, "timing drift on {cell:?}");
    assert_eq!(replay.pbs, reference.pbs, "PBS-counter drift on {cell:?}");
    assert_eq!(
        replay.outputs, reference.outputs,
        "output drift on {cell:?}"
    );
    assert_eq!(
        replay.prob_consumed, reference.prob_consumed,
        "consumed-stream drift on {cell:?}"
    );
    assert_eq!(
        replay.branch_trace, reference.branch_trace,
        "branch-trace drift on {cell:?}"
    );
    // …then the whole report, so no future field escapes the net.
    assert_eq!(replay, reference, "report drift on {cell:?}");
}

/// Every benchmark × {tournament, TAGE-SC-L} × {PBS off, on} on the
/// default 4-wide core — the fig6/fig7 grid the determinism suite runs.
fn fig6_grid() -> Vec<Cell> {
    BenchmarkId::ALL
        .iter()
        .flat_map(|&w| {
            [
                (PredictorChoice::Tournament, false),
                (PredictorChoice::Tournament, true),
                (PredictorChoice::TageScL, false),
                (PredictorChoice::TageScL, true),
            ]
            .map(|(p, pbs)| Cell::new(w, p, pbs, 0))
        })
        .collect()
}

/// A materialized capture, replayed once, against the reference engine
/// on the fig6 grid — compared field by field.
#[test]
fn replay_engine_matches_reference_on_the_fig6_grid() {
    let cells = fig6_grid();
    let outcomes = run_cells(&cells, Jobs::default(), |cell| {
        let program = cell
            .workload
            .build(Scale::Smoke, cell.workload_seed())
            .program();
        let cfg = config_for(cell, OooConfig::default(), false);
        (
            replayed(&program, &cfg),
            reference(&program, &cfg).expect("reference"),
        )
    });
    for (cell, (replay, reference)) in cells.iter().zip(&outcomes) {
        assert_reports_equal(cell, replay, reference);
    }
}

/// The `Simulation` entry point under every `EngineKind` on the fig6
/// grid. The TAGE-SC-L cells are the load-bearing ones: they pin the
/// history-parallel batched TAGE path of replay byte-identical to the
/// serial predictions the reference engine makes.
#[test]
fn simulation_api_engines_agree_on_the_fig6_grid() {
    assert_eq!(Simulation::default().engine(), EngineKind::Replay);
    let cells = fig6_grid();
    let runs = under_both_overlaps(|| {
        run_cells(&cells, Jobs::default(), |cell| {
            let program = cell
                .workload
                .build(Scale::Smoke, cell.workload_seed())
                .program();
            let cfg = config_for(cell, OooConfig::default(), false);
            let reports = EngineKind::ALL
                .map(|engine| Simulation::new(engine).run(&program, &cfg).expect("run"));
            // `Simulation::replay` is engine-independent by design: a trace
            // fixes the branch stream, so every engine re-times it the same
            // way. Pin that with a capture replayed under every kind.
            let trace = DynTrace::capture(&program, &cfg).expect("capture");
            let replays = EngineKind::ALL.map(|engine| {
                Simulation::new(engine)
                    .replay(&trace, &cfg)
                    .expect("replay")
            });
            (reports, replays)
        })
    });
    for (overlap, outcomes) in [false, true].iter().zip(&runs) {
        for (cell, (reports, replays)) in cells.iter().zip(outcomes) {
            let [replay, convoy, reference] = reports;
            assert_eq!(
                replay, reference,
                "batched replay vs reference drift on {cell:?}"
            );
            assert_eq!(
                convoy, reference,
                "convoy (overlap {overlap}) vs reference drift on {cell:?}"
            );
            for r in replays {
                assert_eq!(r, replay, "engine-dependent trace replay on {cell:?}");
            }
        }
    }
}

/// One trace per (workload, PBS) emulation key must serve *every*
/// predictor and filter configuration — including a convoy draining all
/// of them from a single streamed capture — and the predictor-only pass
/// must equal the reference engine's timing statistics without their
/// cycle count, over the materialized trace, its loaded copy and a
/// streamed capture.
#[test]
fn one_trace_serves_every_timing_configuration() {
    let keys: Vec<Cell> = BenchmarkId::ALL
        .iter()
        .flat_map(|&w| [false, true].map(|pbs| Cell::new(w, PredictorChoice::Tournament, pbs, 0)))
        .collect();
    let runs = under_both_overlaps(|| {
        run_cells(&keys, Jobs::default(), |key| {
            let program = key
                .workload
                .build(Scale::Smoke, key.workload_seed())
                .program();
            let configs: Vec<SimConfig> = [
                PredictorChoice::Tournament,
                PredictorChoice::TageScL,
                PredictorChoice::StaticTaken,
                PredictorChoice::StaticNotTaken,
            ]
            .iter()
            .flat_map(|&p| {
                let mut plain = config_for(key, OooConfig::default(), false);
                plain.predictor = p;
                let mut filtered = plain.clone();
                filtered.filter_prob_from_predictor = true;
                [plain, filtered]
            })
            .collect();
            let direct = Simulation::new(EngineKind::Reference)
                .run_many(&program, &configs)
                .expect("reference");
            // Mode (a): one materialized trace, one replay per config.
            let trace = DynTrace::capture(&program, &configs[0]).expect("capture");
            let replays = Simulation::default()
                .replay_many(&trace, &configs)
                .expect("replay");
            // Mode (b): one streamed convoy over all eight configs.
            let convoy = Simulation::new(EngineKind::Convoy)
                .run_many(&program, &configs)
                .expect("convoy");
            // Mode (c): the predictor-only pass over the materialized trace,
            // over the same trace written to disk and loaded, and over one
            // streamed capture feeding all eight configs.
            let path = std::env::temp_dir().join(format!(
                "probranch-branch-pass-{}-{:?}-{}.bin",
                std::process::id(),
                key.workload,
                key.pbs
            ));
            trace.write_file(&path, 1).expect("write trace");
            let loaded = DynTrace::read_file(&path, 1, &configs[0]).expect("load trace");
            std::fs::remove_file(&path).ok();
            let per_config = |trace: &DynTrace| -> Vec<BranchStats> {
                configs
                    .iter()
                    .map(|cfg| {
                        Simulation::default()
                            .replay_branches(trace, cfg)
                            .expect("predictor-only replay")
                    })
                    .collect()
            };
            let branches = [
                per_config(&trace),
                per_config(&loaded),
                Simulation::default()
                    .run_branches(&program, &configs)
                    .expect("predictor-only stream"),
            ];
            (direct, replays, convoy, branches)
        })
    });
    for (overlap, outcomes) in [false, true].iter().zip(&runs) {
        for (key, (direct, replays, convoy, branches)) in keys.iter().zip(outcomes) {
            assert_eq!(direct, replays, "shared-trace replay drift on {key:?}");
            assert_eq!(
                direct, convoy,
                "convoy (overlap {overlap}) drift on {key:?}"
            );
            let projected: Vec<BranchStats> = direct.iter().map(|r| r.timing.into()).collect();
            for (input, stats) in ["trace", "loaded trace", "stream"].iter().zip(branches) {
                assert_eq!(
                    stats, &projected,
                    "predictor-only drift over the {input} on {key:?}"
                );
            }
        }
    }
}

/// Prediction tapes: every pass over a trace records its predictions,
/// and a later replay or predictor-only pass under the same predictor and
/// filter mode reads them instead of running the predictor. For every
/// benchmark × {tournament, TAGE-SC-L} × filter × PBS × {4-wide, 8-wide}
/// core, the tapes recorded by a 4-wide replay, an 8-wide replay over
/// the loaded copy and the predictor-only pass must be equal, and each
/// must feed replays and predictor-only passes — over the materialized
/// trace and the loaded one, on both cores — that equal the tape-less
/// passes and the reference engine.
#[test]
fn tape_fed_passes_match_tape_less_ones_and_the_reference() {
    let keys: Vec<Cell> = BenchmarkId::ALL
        .iter()
        .flat_map(|&w| [false, true].map(|pbs| Cell::new(w, PredictorChoice::Tournament, pbs, 0)))
        .collect();
    run_cells(&keys, Jobs::default(), |key| {
        let program = key
            .workload
            .build(Scale::Smoke, key.workload_seed())
            .program();
        let base = config_for(key, OooConfig::default(), false);
        let trace = DynTrace::capture(&program, &base).expect("capture");
        let path = std::env::temp_dir().join(format!(
            "probranch-tapes-{}-{:?}-{}.bin",
            std::process::id(),
            key.workload,
            key.pbs
        ));
        trace.write_file(&path, 1).expect("write trace");
        let loaded = DynTrace::read_file(&path, 1, &base).expect("load trace");
        std::fs::remove_file(&path).ok();
        let sim = Simulation::default();
        for predictor in [PredictorChoice::Tournament, PredictorChoice::TageScL] {
            for filter in [false, true] {
                let [narrow, wide] = [OooConfig::default(), OooConfig::wide()].map(|core| {
                    let mut cfg = config_for(key, core, false);
                    cfg.predictor = predictor;
                    cfg.filter_prob_from_predictor = filter;
                    cfg
                });
                let what = format!("{key:?}, {predictor:?}, filter {filter}");
                let direct =
                    [&narrow, &wide].map(|cfg| reference(&program, cfg).expect("reference"));
                let (replayed, tape) = sim.replay_taped(&trace, &narrow, None).expect("replay");
                let (wide_replayed, wide_tape) =
                    sim.replay_taped(&loaded, &wide, None).expect("replay");
                let (counted, counted_tape) = sim
                    .replay_branches_taped(&trace, &narrow, None)
                    .expect("predictor-only pass");
                assert_eq!(replayed, direct[0], "tape-less replay drift on {what}");
                assert_eq!(
                    wide_replayed, direct[1],
                    "tape-less wide replay drift on {what}"
                );
                let projected = BranchStats::from(direct[0].timing);
                assert_eq!(counted, projected, "predictor-only drift on {what}");
                let tapes = [tape, wide_tape, counted_tape].map(|t| t.expect("recorded tape"));
                assert!(
                    tapes.iter().all(|t| t == &tapes[0]),
                    "tapes differ by core or pass on {what}"
                );
                for tape in &tapes {
                    for input in [&trace, &loaded] {
                        for (cfg, direct) in [&narrow, &wide].iter().zip(&direct) {
                            assert_eq!(
                                sim.replay_taped(input, cfg, Some(tape))
                                    .expect("tape-fed replay"),
                                (direct.clone(), None),
                                "tape-fed replay drift on {what}, {:?}",
                                cfg.core.width
                            );
                            assert_eq!(
                                sim.replay_branches_taped(input, cfg, Some(tape))
                                    .expect("tape-fed predictor-only pass"),
                                (projected, None),
                                "tape-fed predictor-only drift on {what}"
                            );
                        }
                    }
                }
            }
        }
    });
}

/// The streamed two-consumer convoy — the shape the Figure 9 sweep
/// drains for seeds no other figure pools — must equal independent
/// replays, and the reference engine, for **every predictor pair** of
/// the fig9 grid (each predictor against itself and every other, with
/// the second consumer in the filtered mode).
#[test]
fn streamed_convoy_matches_independent_replays_for_every_predictor_pair() {
    const PREDICTORS: [PredictorChoice; 4] = [
        PredictorChoice::Tournament,
        PredictorChoice::TageScL,
        PredictorChoice::StaticTaken,
        PredictorChoice::StaticNotTaken,
    ];
    let pairs: Vec<(PredictorChoice, PredictorChoice)> = PREDICTORS
        .iter()
        .flat_map(|&a| PREDICTORS.map(|b| (a, b)))
        .collect();
    let runs = under_both_overlaps(|| {
        run_cells(&pairs, Jobs::default(), |&(a, b)| {
            let program = BenchmarkId::Bandit
                .build(Scale::Smoke, workload_seed(BenchmarkId::Bandit, 2))
                .program();
            let mut unfiltered = SimConfig::default().predictor(a);
            unfiltered.collect_branch_trace = true;
            let mut filtered = SimConfig::default().predictor(b);
            filtered.filter_prob_from_predictor = true;
            let pair = [unfiltered, filtered];
            let direct: Vec<SimReport> = pair
                .iter()
                .map(|cfg| reference(&program, cfg).expect("reference"))
                .collect();
            let streamed = Simulation::new(EngineKind::Convoy)
                .run_many(&program, &pair)
                .expect("streamed convoy");
            let trace = DynTrace::capture(&program, &pair[0]).expect("capture");
            let independent = Simulation::default()
                .replay_many(&trace, &pair)
                .expect("replays");
            (direct, streamed, independent)
        })
    });
    for (overlap, outcomes) in [false, true].iter().zip(&runs) {
        for ((a, b), (direct, streamed, independent)) in pairs.iter().zip(outcomes) {
            assert_eq!(
                independent, streamed,
                "streamed pair-convoy (overlap {overlap}) drift for {a:?}/{b:?}"
            );
            assert_eq!(direct, independent, "replay drift for {a:?}/{b:?}");
        }
    }
}

/// The golden-trace workloads with branch tracing enabled: the traces —
/// the predictor's observable behaviour — must match entry for entry.
#[test]
fn replay_engine_matches_reference_traces_on_golden_workloads() {
    let cells = [
        Cell::new(BenchmarkId::Pi, PredictorChoice::TageScL, false, 0),
        Cell::new(BenchmarkId::Bandit, PredictorChoice::Tournament, false, 0),
        Cell::new(BenchmarkId::Pi, PredictorChoice::TageScL, true, 0),
        Cell::new(BenchmarkId::Bandit, PredictorChoice::Tournament, true, 0),
    ];
    let outcomes = run_cells(&cells, Jobs::default(), |cell| {
        let program = cell.workload.build(Scale::Smoke, GOLDEN_SEED).program();
        let cfg = config_for(cell, OooConfig::default(), true);
        (
            replayed(&program, &cfg),
            reference(&program, &cfg).expect("reference"),
        )
    });
    for (cell, (replay, reference)) in cells.iter().zip(&outcomes) {
        assert!(
            !reference.branch_trace.is_empty(),
            "trace must be populated for {cell:?}"
        );
        assert_reports_equal(cell, replay, reference);
    }
}

/// The wide (8-wide / 256-ROB) core, the static predictors, and the
/// Figure 9 filter mode — the remaining machine axes.
#[test]
fn replay_engine_matches_reference_on_remaining_machine_axes() {
    let program = BenchmarkId::Photon
        .build(Scale::Smoke, workload_seed(BenchmarkId::Photon, 1))
        .program();
    for predictor in [
        PredictorChoice::Tournament,
        PredictorChoice::TageScL,
        PredictorChoice::StaticTaken,
        PredictorChoice::StaticNotTaken,
    ] {
        for (core, filter, pbs) in [
            (OooConfig::wide(), false, true),
            (OooConfig::default(), true, false),
            (OooConfig::wide(), true, true),
        ] {
            let mut cfg = SimConfig {
                core,
                predictor,
                collect_branch_trace: true,
                ..SimConfig::default()
            };
            cfg.filter_prob_from_predictor = filter;
            if pbs {
                cfg.pbs = Some(PbsConfig::default());
            }
            assert_eq!(
                replayed(&program, &cfg),
                reference(&program, &cfg).expect("reference"),
                "replay drift: {predictor:?}, filter={filter}, pbs={pbs}"
            );
        }
    }
}

/// Every engine must also agree on *errors*: the instruction budget
/// trips at the same dynamic instruction — at capture time, and at
/// replay time when a completed trace is re-timed under a tighter
/// budget.
#[test]
fn engines_match_on_instruction_limits() {
    let program = BenchmarkId::Pi.build(Scale::Smoke, GOLDEN_SEED).program();
    for max_insts in [1, 2, 64, 65, 1000] {
        let cfg = SimConfig {
            max_insts,
            ..SimConfig::default()
        };
        let direct = reference(&program, &cfg);
        assert!(direct.is_err(), "limit {max_insts} must trip");
        assert_eq!(
            Simulation::default().run(&program, &cfg),
            direct,
            "replay limit {max_insts}"
        );
        // Capture under the same budget errors identically…
        let captured = DynTrace::capture(&program, &cfg);
        assert_eq!(
            captured.as_ref().err(),
            direct.as_ref().err(),
            "capture limit {max_insts}"
        );
        // …and a convoy propagates it to every cell…
        let convoys = under_both_overlaps(|| {
            Simulation::new(EngineKind::Convoy).run_many(&program, std::slice::from_ref(&cfg))
        });
        for (overlap, convoy) in [false, true].iter().zip(convoys) {
            assert_eq!(
                convoy.err(),
                direct.clone().err(),
                "convoy (overlap {overlap}) limit {max_insts}"
            );
        }
        // …as does the predictor-only pass under every engine.
        for engine in EngineKind::ALL {
            let branches =
                Simulation::new(engine).run_branches(&program, &[cfg.clone(), cfg.clone()]);
            assert_eq!(
                branches.err(),
                direct.clone().err(),
                "{engine:?} predictor-only limit {max_insts}"
            );
        }
    }
    // A completed trace replayed under budgets at/below its length must
    // return the same error the reference engine would, in full or
    // predictor-only.
    let full = DynTrace::capture(&program, &SimConfig::default()).expect("capture");
    for max_insts in [1, full.instructions(), full.instructions() + 1] {
        let cfg = SimConfig {
            max_insts,
            ..SimConfig::default()
        };
        let direct = reference(&program, &cfg);
        assert_eq!(
            Simulation::default().replay(&full, &cfg),
            direct,
            "replay limit {max_insts}"
        );
        assert_eq!(
            Simulation::default().replay_branches(&full, &cfg),
            direct.map(|r| BranchStats::from(r.timing)),
            "predictor-only replay limit {max_insts}"
        );
    }
}

/// Functional runs execute the capture loop's compiled blocks with
/// nothing to record: under either capture tier they must return
/// exactly the architectural results — instructions, outputs, consumed
/// values and PBS counters — of the reference engine and of a capture,
/// for every workload with PBS off, at its default design point, and
/// with an in-flight window so large that every instance bootstraps
/// (Table III's original-order streams).
#[test]
fn functional_runs_match_the_reference_engine_and_capture_on_every_workload() {
    let pbs_points = [
        None,
        Some(PbsConfig::default()),
        Some(PbsConfig {
            in_flight: usize::MAX / 2,
            ..PbsConfig::default()
        }),
    ];
    let cells: Vec<(BenchmarkId, u64, usize)> = BenchmarkId::ALL
        .iter()
        .flat_map(|&id| (0..2).flat_map(move |seed| (0..3).map(move |p| (id, seed, p))))
        .collect();
    run_cells(&cells, Jobs::default(), |&(id, seed, p)| {
        let pbs = &pbs_points[p];
        let program = id.build(Scale::Smoke, workload_seed(id, seed)).program();
        let cfg = SimConfig {
            pbs: pbs.clone(),
            predictor: PredictorChoice::StaticTaken,
            ..SimConfig::default()
        };
        let label = format!("{id:?}, seed {seed}, PBS {pbs:?}");
        let direct = TraceFunctional::from(reference(&program, &cfg).expect("reference run"));
        let captured = DynTrace::capture(&program, &cfg).expect("capture");
        assert_eq!(captured.functional(), &direct, "capture: {label}");
        for interp in [false, true] {
            // `capture.block` at probability 1 forces the interpreter.
            let _plan =
                interp.then(|| PlanScope::enter(FaultPlan::default().arm(Site::CaptureBlock, 1.0)));
            let functional =
                run_functional(&program, pbs.clone(), cfg.max_insts).expect("functional run");
            assert_eq!(
                TraceFunctional::from(functional),
                direct,
                "interp {interp}: {label}"
            );
        }
    });
}
