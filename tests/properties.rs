//! Property-based tests (proptest) over the core data structures and
//! invariants, spanning crates.

use std::collections::BTreeMap;

use proptest::prelude::*;

use probranch::isa::{
    decode, encode_inst, parse_asm, AluOp, CmpOp, FpBinOp, FpUnOp, Inst, Operand, Program, Reg,
};
use probranch::pbs::{BranchResolution, PbsConfig, PbsUnit};
use probranch::pipeline::{
    Cache, DynTrace, EmuConfig, EmuError, Emulator, EngineKind, ExecLatencies, OooConfig,
    PredictorChoice, SimConfig, SimReport, Simulation, TraceChunk, TraceLoad, TRACE_CHUNK_RECORDS,
};
use probranch::predictor::{BranchPredictor, TageScL, Tournament};
use probranch_faults::{FaultPlan, PlanScope, Site};
use probranch_serve::{
    read_frame, write_frame, Request, Response, Status, SweepRequest, MAX_FRAME, PROTOCOL,
};

/// The reference engine: the per-instruction oracle the trace engines
/// are checked against.
fn reference(program: &Program, cfg: &SimConfig) -> Result<SimReport, EmuError> {
    Simulation::new(EngineKind::Reference).run(program, cfg)
}

/// Runs `f` with no compiled blocks when `interp` (under a scoped
/// `capture.block=1.0` plan), else with the default blocks.
fn on_tier<R>(interp: bool, f: impl FnOnce() -> R) -> R {
    let _plan = interp.then(|| PlanScope::enter(FaultPlan::default().arm(Site::CaptureBlock, 1.0)));
    f()
}

fn reg_strategy() -> impl Strategy<Value = Reg> {
    (0u32..32).prop_map(|i| Reg::new(i).unwrap())
}

fn operand_strategy() -> impl Strategy<Value = Operand> {
    prop_oneof![
        reg_strategy().prop_map(Operand::Reg),
        any::<i64>().prop_map(Operand::Imm),
    ]
}

fn cmp_strategy() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge)
    ]
}

/// Arbitrary instructions excluding control flow (whose targets need a
/// program context) — used for encode/display round-trips.
fn dataflow_inst_strategy() -> impl Strategy<Value = Inst> {
    prop_oneof![
        (
            proptest::sample::select(AluOp::ALL.to_vec()),
            reg_strategy(),
            reg_strategy(),
            operand_strategy()
        )
            .prop_map(|(op, dst, src1, src2)| Inst::Alu {
                op,
                dst,
                src1,
                src2
            }),
        (reg_strategy(), any::<u64>()).prop_map(|(dst, imm)| Inst::Li { dst, imm }),
        (reg_strategy(), reg_strategy()).prop_map(|(dst, src)| Inst::Mov { dst, src }),
        (
            proptest::sample::select(FpBinOp::ALL.to_vec()),
            reg_strategy(),
            reg_strategy(),
            reg_strategy()
        )
            .prop_map(|(op, dst, src1, src2)| Inst::FpBin {
                op,
                dst,
                src1,
                src2
            }),
        (
            proptest::sample::select(FpUnOp::ALL.to_vec()),
            reg_strategy(),
            reg_strategy()
        )
            .prop_map(|(op, dst, src)| Inst::FpUn { op, dst, src }),
        (reg_strategy(), reg_strategy()).prop_map(|(dst, src)| Inst::IntToFp { dst, src }),
        (reg_strategy(), reg_strategy()).prop_map(|(dst, src)| Inst::FpToInt { dst, src }),
        (
            reg_strategy(),
            reg_strategy(),
            reg_strategy(),
            reg_strategy()
        )
            .prop_map(|(dst, cond, if_true, if_false)| Inst::CMov {
                dst,
                cond,
                if_true,
                if_false
            }),
        (reg_strategy(), reg_strategy(), any::<i32>()).prop_map(|(dst, base, offset)| Inst::Load {
            dst,
            base,
            offset: offset as i64
        }),
        (reg_strategy(), reg_strategy(), any::<i32>()).prop_map(|(src, base, offset)| {
            Inst::Store {
                src,
                base,
                offset: offset as i64,
            }
        }),
        (cmp_strategy(), reg_strategy(), operand_strategy()).prop_map(|(op, lhs, rhs)| Inst::Cmp {
            op,
            fp: false,
            lhs,
            rhs
        }),
        (reg_strategy(), any::<u16>()).prop_map(|(src, port)| Inst::Out { src, port }),
        Just(Inst::Nop),
    ]
}

/// Arbitrary full-system simulation configurations: core geometry,
/// functional-unit latencies, predictor, PBS, the Figure 9 filter,
/// branch tracing and the instruction budget (small enough to trip on
/// longer runs, exercising the error paths).
fn sim_config_strategy() -> impl Strategy<Value = SimConfig> {
    (
        (1u32..9, 8usize..96, 1u64..7, 0u64..16),
        (1u64..4, 2u64..24, 4u64..30),
        prop_oneof![
            Just(PredictorChoice::Tournament),
            Just(PredictorChoice::TageScL),
            Just(PredictorChoice::StaticTaken),
            Just(PredictorChoice::StaticNotTaken),
        ],
        (any::<bool>(), any::<bool>(), any::<bool>()),
        800u64..40_000,
    )
        .prop_map(
            |(
                (width, rob_size, frontend_depth, mispredict_penalty),
                (int_mul, int_div, fp_long),
                predictor,
                (pbs, filter, trace),
                max_insts,
            )| {
                SimConfig {
                    core: OooConfig {
                        width,
                        rob_size,
                        frontend_depth,
                        mispredict_penalty,
                        latencies: ExecLatencies {
                            int_mul,
                            int_div,
                            fp_long,
                            ..ExecLatencies::default()
                        },
                    },
                    predictor,
                    pbs: pbs.then(PbsConfig::default),
                    filter_prob_from_predictor: filter,
                    collect_branch_trace: trace,
                    max_insts,
                    ..SimConfig::default()
                }
            },
        )
}

/// A small workload with probabilistic branches, regular branches and
/// memory traffic — every record shape a trace can carry.
fn replay_workload(iters: i64) -> Program {
    let mut b = probranch::isa::ProgramBuilder::new();
    let top = b.label("top");
    let join = b.label("join");
    b.li(Reg::R1, 0x9E3779B97F4A7C15u64 as i64);
    b.li(Reg::R2, 0);
    b.li(Reg::R3, 0);
    b.li(Reg::R4, (u64::MAX / 2) as i64);
    b.li(Reg::R6, 0x2545F4914F6CDD1Du64 as i64);
    b.li(Reg::R9, 128);
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

/// What a `run_to_halt` leaves behind: its result, and the machine's
/// halt flag, retired count, registers, outputs, consumed values and
/// PBS counters.
#[derive(Debug, PartialEq)]
struct MachineAfterRun {
    result: Result<u64, EmuError>,
    halted: bool,
    executed: u64,
    regs: Vec<u64>,
    outputs: Vec<(u16, Vec<u64>)>,
    prob_consumed: Vec<u64>,
    pbs: Option<probranch::pbs::PbsStats>,
}

/// Runs `program` with `run_to_halt(max_insts)`, on the interpreter
/// when `interp`.
fn machine_after_run(
    program: &Program,
    emu: &EmuConfig,
    max_insts: u64,
    interp: bool,
) -> MachineAfterRun {
    let mut e = Emulator::new(program.clone(), emu.clone());
    let result = on_tier(interp, || e.run_to_halt(max_insts));
    MachineAfterRun {
        result,
        halted: e.is_halted(),
        executed: e.executed(),
        regs: (0..32).map(|i| e.reg(Reg::new(i).unwrap())).collect(),
        outputs: e.outputs_sorted(),
        prob_consumed: e.prob_consumed().to_vec(),
        pbs: e.pbs_stats(),
    }
}

/// One access of a random memory program: `Some(value)` stores,
/// `None` loads, and `(region, pick, skew, offset)` place it (see
/// [`mem_addr`]).
type MemAccess = (Option<u64>, (u8, u64, u64, i64));

fn mem_access_strategy() -> impl Strategy<Value = MemAccess> {
    (
        prop_oneof![any::<u64>().prop_map(Some), Just(None)],
        (0u8..16, any::<u64>(), 0u64..448, -64i64..64),
    )
}

/// The byte address an access targets, below `8 · mem_words + 64`:
/// a low word, a word straddling the architectural end, or any word
/// below `mem_words + 8`; misaligned for 7 of the 448 skews. Faults
/// stay rare enough that about two programs in five halt.
fn mem_addr(mem_words: u64, (region, pick, skew, _): (u8, u64, u64, i64)) -> u64 {
    let word = match region {
        0..=7 => pick % 64,
        8 => mem_words - 8 + pick % 16,
        _ => pick % (mem_words + 8),
    };
    word * 8 + if skew < 7 { skew + 1 } else { 0 }
}

/// Lowers `accesses` to a program that sends every loaded value to
/// port 0, and predicts its run with a model that shares no code with
/// the emulator: a map of stored words, 0 for the rest, and a
/// `MemoryFault` at the first misaligned or out-of-bounds access.
fn mem_program(mem_words: u64, accesses: &[MemAccess]) -> (Program, Vec<u64>, Option<EmuError>) {
    let mut b = probranch::isa::ProgramBuilder::new();
    let mut words = BTreeMap::new();
    let mut outputs = Vec::new();
    let mut fault = None;
    for &(store, place) in accesses {
        let addr = mem_addr(mem_words, place);
        let offset = place.3;
        b.li(Reg::R1, addr.wrapping_sub(offset as u64) as i64);
        if let Some(value) = store {
            b.li(Reg::R2, value as i64);
        }
        let pc = b.pc();
        match store {
            Some(_) => b.st(Reg::R2, Reg::R1, offset),
            None => b.ld(Reg::R3, Reg::R1, offset).out(Reg::R3, 0),
        };
        if fault.is_some() {
            continue;
        }
        if addr % 8 != 0 || addr / 8 >= mem_words {
            fault = Some(EmuError::MemoryFault { addr, pc });
        } else if let Some(value) = store {
            words.insert(addr / 8, value);
        } else {
            outputs.push(words.get(&(addr / 8)).copied().unwrap_or(0));
        }
    }
    b.halt();
    (b.build().unwrap(), outputs, fault)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn capture_then_replay_equals_direct_simulation(
        cfg in sim_config_strategy(),
        iters in 40i64..400,
    ) {
        // The tentpole invariant of the shared-trace engine: for any
        // machine configuration, capturing the dynamic trace once and
        // re-timing it produces the *identical* `SimReport` (timing,
        // outputs, `prob_consumed`, `branch_trace`) — or the identical
        // error — as the reference engine simulating directly. And both
        // capture tiers — compiled blocks with native fragments, and no
        // blocks at all — must capture the identical trace, error
        // paths (`InstLimitExceeded` at the same dynamic trip point)
        // included. `replay_workload` is a mixed program for the block
        // compiler: straight-line xorshift bodies (a native fragment)
        // with the PBS probes inside them, inline `PROB_JMP` and branch
        // terminators, and single-stepped `out` and `halt`.
        let program = replay_workload(iters);
        let direct = reference(&program, &cfg);
        let interp = on_tier(true, || DynTrace::capture(&program, &cfg));
        let generated = on_tier(false, || DynTrace::capture(&program, &cfg));
        prop_assert_eq!(&generated, &interp);
        let via_trace = interp.and_then(|trace| Simulation::default().replay(&trace, &cfg));
        prop_assert_eq!(via_trace, direct);
    }

    #[test]
    fn capture_tiers_agree_on_memory_faults(
        pad in 1usize..40,
        budget in 3u64..2_000,
    ) {
        // A straight-line block faulting mid-body: both capture tiers
        // must commit exactly the same record prefix and surface the
        // identical structured error — `MemoryFault` when the budget
        // covers the faulting load, `InstLimitExceeded` when it trips
        // first. A functional run, which runs the block on its first
        // visit, must leave the same machine under both tiers.
        let mut b = probranch::isa::ProgramBuilder::new();
        for _ in 0..pad {
            b.add(Reg::R1, Reg::R1, 1);
        }
        b.li(Reg::R9, (1u64 << 40) as i64);
        b.ld(Reg::R2, Reg::R9, 0);
        b.halt();
        let program = b.build().unwrap();
        let cfg = SimConfig { max_insts: budget, ..SimConfig::default() };
        let interp = on_tier(true, || DynTrace::capture(&program, &cfg));
        let generated = on_tier(false, || DynTrace::capture(&program, &cfg));
        prop_assert_eq!(&generated, &interp);
        prop_assert!(generated.is_err());
        prop_assert_eq!(generated.err(), reference(&program, &cfg).err());
        let run = machine_after_run(&program, &EmuConfig::default(), budget, true);
        prop_assert_eq!(run.result.as_ref().err(), interp.as_ref().err());
        prop_assert_eq!(machine_after_run(&program, &EmuConfig::default(), budget, false), run);
    }

    #[test]
    fn memory_matches_a_map_model_under_every_engine(
        mem_words in 64u64..4097,
        accesses in proptest::collection::vec(mem_access_strategy(), 1..40),
    ) {
        // Memory allocated on demand must be invisible: every load
        // reads the last value stored to its word (0 if none), and the
        // first misaligned or out-of-bounds access faults with its
        // address and pc — under functional runs and captures in both
        // tiers, and the reference engine.
        let (program, outputs, fault) = mem_program(mem_words, &accesses);
        let emu = EmuConfig { mem_words: mem_words as usize, ..EmuConfig::default() };
        let by_port = if outputs.is_empty() { vec![] } else { vec![(0u16, outputs)] };
        let run = machine_after_run(&program, &emu, 1_000, true);
        prop_assert_eq!(run.result.as_ref().err(), fault.as_ref());
        prop_assert_eq!(&run.outputs, &by_port);
        prop_assert_eq!(machine_after_run(&program, &emu, 1_000, false), run);
        let cfg = SimConfig { emu, ..SimConfig::default() };
        let direct = reference(&program, &cfg);
        prop_assert_eq!(direct.as_ref().err(), fault.as_ref());
        if let Ok(report) = &direct {
            prop_assert_eq!(&report.outputs, &by_port);
        }
        for interp in [false, true] {
            let captured = on_tier(interp, || DynTrace::capture(&program, &cfg));
            prop_assert_eq!(captured.as_ref().err(), fault.as_ref());
            if let Ok(trace) = &captured {
                prop_assert_eq!(&trace.functional().outputs, &by_port);
            }
        }
    }

    #[test]
    fn captured_chunks_are_full_and_count_the_reference_branches(
        iters in 1i64..9_000,
        pbs in any::<bool>(),
        interp in any::<bool>(),
    ) {
        // Under either capture tier, every chunk but the last holds
        // exactly `TRACE_CHUNK_RECORDS` records (the capture loop fills
        // each chunk to its budget), and the chunks' branch counts add
        // up to the reference engine's branch records.
        let program = replay_workload(iters);
        let cfg = SimConfig { pbs: pbs.then(PbsConfig::default), ..SimConfig::default() };
        let trace = on_tier(interp, || DynTrace::capture(&program, &cfg)).unwrap();
        let Some((last, full)) = trace.chunks().split_last() else {
            return Err(TestCaseError::fail("a completed run captures a chunk"));
        };
        for chunk in full {
            prop_assert_eq!(chunk.len(), TRACE_CHUNK_RECORDS);
        }
        prop_assert!(!last.is_empty() && last.len() <= TRACE_CHUNK_RECORDS);
        let branches: usize = trace.chunks().iter().map(TraceChunk::branch_count).sum();
        let direct = reference(&program, &cfg).unwrap();
        prop_assert_eq!(branches as u64, direct.timing.dyn_branches);
    }

    #[test]
    fn soa_capture_round_trips_for_arbitrary_sim_configs(
        cfg in sim_config_strategy(),
        iters in 40i64..400,
    ) {
        // For any machine configuration — including budgets that trip
        // the error path — a capture either fails exactly as the
        // reference engine does, or its SoA chunks carry exactly the
        // committed dynamic stream.
        let program = replay_workload(iters);
        match DynTrace::capture(&program, &cfg) {
            Err(e) => {
                prop_assert_eq!(Err(e), reference(&program, &cfg).map(|_| ()));
            }
            Ok(trace) => {
                let total: usize = trace.chunks().iter().map(TraceChunk::len).sum();
                prop_assert_eq!(total as u64, trace.instructions());
            }
        }
    }

    #[test]
    fn loaded_trace_matches_capture_and_replay(
        cfg in sim_config_strategy(),
        iters in 40i64..200,
        content_hash in any::<u64>(),
    ) {
        // The load invariant of the trace store: for any capturable
        // configuration, persisting a trace and loading it back yields
        // a `DynTrace` equal to the captured one, and replays of the
        // loaded trace — under one configuration or several — return
        // byte-identical reports to the freshly captured trace.
        let program = replay_workload(iters);
        // Budget-tripping configs have no trace to persist; the error
        // agreement is covered by the capture round-trip test above.
        let Ok(trace) = DynTrace::capture(&program, &cfg) else {
            return Ok(());
        };
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "probranch-prop-{}-{}.bin",
            std::process::id(),
            SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        trace.write_file(&path, content_hash).unwrap();
        let loaded = DynTrace::read_file(&path, content_hash, &cfg);
        let _ = std::fs::remove_file(&path);
        let Some(loaded) = loaded else {
            return Err(TestCaseError::fail("persisted trace failed to load"));
        };
        prop_assert_eq!(&loaded, &trace);
        let sim = Simulation::default();
        prop_assert_eq!(sim.replay(&loaded, &cfg), sim.replay(&trace, &cfg));
        // Two configurations replaying the one loaded trace.
        let mut other = cfg.clone();
        other.predictor = match cfg.predictor {
            PredictorChoice::Tournament => PredictorChoice::TageScL,
            _ => PredictorChoice::Tournament,
        };
        let configs = [cfg.clone(), other];
        prop_assert_eq!(sim.replay_many(&loaded, &configs), sim.replay_many(&trace, &configs));
    }

    #[test]
    fn binary_encode_round_trips(inst in dataflow_inst_strategy()) {
        let mut words = Vec::new();
        encode_inst(&inst, &mut words);
        let back = decode(&words).unwrap();
        prop_assert_eq!(back, vec![inst]);
    }

    #[test]
    fn text_round_trips(inst in dataflow_inst_strategy()) {
        let text = format!("{inst}\nhalt");
        let p = parse_asm(&text).unwrap();
        prop_assert_eq!(*p.fetch(0), inst);
    }

    #[test]
    fn emulator_is_deterministic_on_random_dataflow(
        insts in proptest::collection::vec(dataflow_inst_strategy(), 1..60),
        seed in any::<u64>(),
    ) {
        // Random base registers would fault; memory determinism is
        // covered by the workload round-trip tests, so strip memory ops
        // here and keep the pure dataflow.
        let mut insts: Vec<Inst> = insts
            .into_iter()
            .map(|i| match i {
                Inst::Load { dst, .. } => Inst::Li { dst, imm: 7 },
                Inst::Store { .. } => Inst::Nop,
                other => other,
            })
            .collect();
        insts.push(Inst::Halt);
        let program = Program::new(insts).unwrap();
        let run = || {
            let mut e = Emulator::new(program.clone(), EmuConfig { mem_words: 1024, max_call_depth: 8 });
            e.set_reg(Reg::R0, 0);
            e.set_reg(Reg::R1, seed);
            e.run_to_halt(1_000).unwrap();
            (0..32).map(|r| e.reg(Reg::new(r).unwrap())).collect::<Vec<u64>>()
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn pbs_fifo_preserves_value_order(values in proptest::collection::vec(any::<u64>(), 8..100)) {
        // Directed instances replay generated values in order, lagged by
        // the in-flight depth.
        let mut unit = PbsUnit::new(PbsConfig::default());
        let depth = PbsConfig::default().in_flight;
        let mut consumed = Vec::new();
        for &v in &values {
            match unit.execute_prob_branch(10, &[v], 12345, v % 2 == 0) {
                BranchResolution::Directed { swapped, .. } => consumed.push(swapped[0]),
                BranchResolution::Bootstrap { .. } => consumed.push(v),
                BranchResolution::Bypassed { .. } => prop_assert!(false, "unexpected bypass"),
            }
        }
        prop_assert_eq!(&consumed[..depth], &values[..depth]);
        prop_assert_eq!(&consumed[depth..], &values[..values.len() - depth]);
    }

    #[test]
    fn pbs_directed_outcome_matches_swapped_value(values in proptest::collection::vec(0u64..1000, 8..60)) {
        let mut unit = PbsUnit::new(PbsConfig::default());
        for &v in &values {
            let taken = v < 500;
            if let BranchResolution::Directed { taken: dir, swapped } =
                unit.execute_prob_branch(7, &[v], 500, taken)
            {
                prop_assert_eq!(dir, swapped[0] < 500, "semantic consistency of the swap");
            }
        }
    }

    #[test]
    fn cache_invariants_hold_under_random_access(addrs in proptest::collection::vec(any::<u32>(), 1..500)) {
        let mut c = Cache::new(4096, 4, 64);
        for a in addrs {
            c.access(a as u64);
            prop_assert!(c.check_invariants());
        }
    }

    #[test]
    fn cache_hit_plus_miss_equals_accesses(addrs in proptest::collection::vec(0u64..100_000, 1..300)) {
        let mut c = Cache::new(2048, 2, 64);
        for &a in &addrs {
            c.access(a);
        }
        prop_assert_eq!(c.hits() + c.misses(), addrs.len() as u64);
    }

    #[test]
    fn predictors_never_panic_and_stay_in_budget(
        pattern in proptest::collection::vec((0u64..64, any::<bool>()), 1..500)
    ) {
        let mut tour = Tournament::default();
        let mut tage = TageScL::default();
        for &(pc, taken) in &pattern {
            let _ = tour.predict(pc);
            tour.update(pc, taken);
            let _ = tage.predict(pc);
            tage.update(pc, taken);
        }
        prop_assert!(tour.storage_bits() <= 8 * 1024);
        prop_assert!(tage.storage_bits() <= 8 * 8 * 1024);
    }

    #[test]
    fn simulation_cycle_count_is_at_least_width_bound(iters in 100i64..2000) {
        // cycles >= instructions / width: the core cannot beat its width.
        let pi = probranch::workloads::Pi { samples: iters, seed: 7 };
        use probranch::workloads::Benchmark;
        let r = Simulation::default().run(&pi.program(), &SimConfig::default()).unwrap();
        prop_assert!(r.timing.cycles >= r.timing.instructions / 4);
    }
}

// ---------------------------------------------------------------------------
// The `--fault-plan` spec parser
// ---------------------------------------------------------------------------

/// Characters a fault spec is made of, plus a few that never belong.
const SPEC_CHARS: &str = "seed=,.xX0123456789-+eE _pathcnrsiwofmubyldk\t;é∞";

/// A spec-shaped token: a site name, a key, a number or a separator.
fn spec_token() -> impl Strategy<Value = String> {
    let sites: Vec<String> = probranch_faults::ALL_SITES
        .iter()
        .map(|s| s.name().to_string())
        .collect();
    let words: Vec<String> = [
        "seed",
        "=",
        ",",
        "x",
        "X",
        "0",
        "1",
        "0.5",
        "1e-3",
        "-0",
        "2",
        "inf",
        "NaN",
        " ",
        "18446744073709551616",
        "0x1p-3",
        "",
    ]
    .iter()
    .map(|w| w.to_string())
    .collect();
    let chars: Vec<char> = SPEC_CHARS.chars().collect();
    prop_oneof![
        proptest::sample::select(sites),
        proptest::sample::select(words),
        proptest::sample::select(chars).prop_map(String::from),
        any::<u32>()
            .prop_map(|c| char::from_u32(c % 0x11_0000).map_or_else(String::new, String::from)),
    ]
}

/// A valid plan: a seed and up to five clauses, some with budgets.
fn valid_plan() -> impl Strategy<Value = probranch_faults::FaultPlan> {
    let clause = (
        0usize..probranch_faults::ALL_SITES.len(),
        prop_oneof![
            Just(0.0f64),
            Just(1.0f64),
            Just(-0.0f64),
            Just(5e-324f64),
            any::<u64>().prop_map(|x| (x >> 11) as f64 / (1u64 << 53) as f64),
        ],
        prop_oneof![Just(None), any::<u64>().prop_map(Some)],
    );
    (any::<u64>(), proptest::collection::vec(clause, 0..6)).prop_map(|(seed, clauses)| {
        clauses.into_iter().fold(
            probranch_faults::FaultPlan::seeded(seed),
            |plan, (site, p, budget)| {
                let site = probranch_faults::ALL_SITES[site];
                match budget {
                    Some(n) => plan.arm_capped(site, p, n),
                    None => plan.arm(site, p),
                }
            },
        )
    })
}

/// One edit of a spec: delete, insert or replace the character at a
/// position, or repeat a stretch of it.
fn spec_edit() -> impl Strategy<Value = (u8, usize, usize, char)> {
    let chars: Vec<char> = SPEC_CHARS.chars().collect();
    (
        0u8..4,
        any::<usize>(),
        0usize..12,
        proptest::sample::select(chars),
    )
}

/// Applies edits (see [`spec_edit`]) to a sequence of characters or
/// bytes.
fn mutate<T: Clone>(items: &[T], edits: &[(u8, usize, usize, T)]) -> Vec<T> {
    let mut s = items.to_vec();
    for (kind, at, len, c) in edits {
        let at = at % (s.len() + 1);
        match kind {
            0 if at < s.len() => {
                s.remove(at);
            }
            1 => s.insert(at, c.clone()),
            2 if at < s.len() => s[at] = c.clone(),
            _ => {
                let end = (at + len).min(s.len());
                let copy = s[at..end].to_vec();
                s.splice(at..at, copy);
            }
        }
    }
    s
}

/// Checks one parse outcome: an `Ok` plan survives rendering and
/// re-parsing unchanged, and an `Err` quotes a clause of the spec, or
/// that clause's site, value, probability or budget.
fn check_parse(spec: &str) -> Result<(), TestCaseError> {
    match probranch_faults::FaultPlan::parse(spec) {
        Ok(plan) => {
            let rendered = plan.spec();
            prop_assert_eq!(
                probranch_faults::FaultPlan::parse(&rendered),
                Ok(plan),
                "`{}` rendered as `{}`",
                spec,
                rendered
            );
        }
        Err(msg) => {
            let named = spec.split(',').map(str::trim).any(|clause| {
                let mut parts = vec![clause];
                if let Some((key, value)) = clause.split_once('=') {
                    let value = value.trim();
                    parts.extend([key.trim(), value]);
                    if let Some((p, n)) = value.split_once(['x', 'X']) {
                        parts.extend([p, n]);
                    }
                }
                parts.iter().any(|p| msg.contains(&format!("`{p}`")))
            });
            prop_assert!(
                named,
                "error for `{}` names no clause or value: {}",
                spec,
                msg
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn fault_plan_parse_never_panics_on_arbitrary_specs(
        tokens in proptest::collection::vec(spec_token(), 0..24)
    ) {
        check_parse(&tokens.concat())?;
    }

    #[test]
    fn fault_plan_parse_round_trips_valid_and_mutated_specs(
        plan in valid_plan(),
        edits in proptest::collection::vec(spec_edit(), 0..5)
    ) {
        let spec = plan.spec();
        prop_assert_eq!(probranch_faults::FaultPlan::parse(&spec), Ok(plan));
        let chars: Vec<char> = spec.chars().collect();
        check_parse(&mutate(&chars, &edits).into_iter().collect::<String>())?;
    }
}

// ---- trace-file decoder fuzzing ---------------------------------------

/// The trailing digest of a trace file's body, computed as the writer
/// does: a SplitMix64 fold of its little-endian words, seeded with its
/// length, closed by the zero-padded tail word. Test-side copy, so a
/// mutated body can be resealed and reach the structural checks.
fn trace_file_digest(body: &[u8]) -> u64 {
    let mix = probranch::rng::SplitMix64::mix;
    let mut h = 0x9E37_79B9_7F4A_7C15u64 ^ body.len() as u64;
    let mut words = body.chunks_exact(8);
    for w in &mut words {
        h = mix(h ^ u64::from_le_bytes(w.try_into().unwrap()));
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    mix(h ^ u64::from_le_bytes(tail))
}

/// Rewrites a trace file's trailing digest to match its body.
fn reseal(file: &mut [u8]) {
    let at = file.len() - 8;
    let d = trace_file_digest(&file[..at]);
    file[at..].copy_from_slice(&d.to_le_bytes());
}

/// Where one chunk's structural fields sit in a v5 trace file.
struct ChunkFields {
    /// Offsets of the record, branch, load and stall counts and the
    /// return-stack depth (u64 each), and of the entry pc (u32).
    len: usize,
    n_branches: usize,
    n_loads: usize,
    n_stalls: usize,
    entry_pc: usize,
    depth: usize,
    /// The record count.
    records: u64,
    /// Offsets of the entry stack's return addresses (u32 each).
    stack: Vec<usize>,
    /// Offsets of the branch bytes.
    branches: Vec<usize>,
    /// Offsets of the stall record indices (u32 each) and the stall
    /// cycles (u8 each).
    stall_at: Vec<usize>,
    stalls: Vec<usize>,
}

/// A v5 trace file's structural fields.
struct Layout {
    /// The pcs in the timing and flow tables.
    pcs: u64,
    /// Offsets of the flow-table targets (u32 each) of the pcs whose
    /// control op jumps to one: every kind code but 0 (no control op)
    /// and 5 (`ret`).
    targets: Vec<usize>,
    chunks: Vec<ChunkFields>,
}

/// Walks a v5 trace file's layout (README, "File format (v5)") to its
/// flow table's targets and every chunk's structural fields.
fn chunk_fields(file: &[u8]) -> Layout {
    let u64_at = |at: usize| u64::from_le_bytes(file[at..at + 8].try_into().unwrap());
    // Magic, version, content hash, instruction count.
    let mut at = 8 + 4 + 8 + 8;
    let pcs = u64_at(at) as usize;
    // The timing table, then the flow table: a kind code and a target
    // per pc.
    at += 8 + 9 * pcs;
    let targets = (0..pcs)
        .map(|pc| at + 5 * pc)
        .filter(|&entry| !matches!(file[entry], 0 | 5))
        .map(|entry| entry + 1)
        .collect();
    at += 5 * pcs;
    let ports = u64_at(at);
    at += 8;
    for _ in 0..ports {
        at += 2;
        at += 8 + 8 * u64_at(at) as usize;
    }
    at += 8 + 8 * u64_at(at) as usize;
    at += 1 + if file[at] == 1 { 56 } else { 0 };
    let n_chunks = u64_at(at);
    at += 8;
    let chunks = (0..n_chunks)
        .map(|_| {
            let (nb, nl) = (u64_at(at + 8) as usize, u64_at(at + 16) as usize);
            let (ns, depth) = (u64_at(at + 24) as usize, u64_at(at + 36) as usize);
            let stack_at = at + 44;
            let branches_at = stack_at + 4 * depth;
            let stall_at_at = branches_at + nb + nl;
            let fields = ChunkFields {
                len: at,
                n_branches: at + 8,
                n_loads: at + 16,
                n_stalls: at + 24,
                entry_pc: at + 32,
                depth: at + 36,
                records: u64_at(at),
                stack: (0..depth).map(|i| stack_at + 4 * i).collect(),
                branches: (0..nb).map(|i| branches_at + i).collect(),
                stall_at: (0..ns).map(|i| stall_at_at + 4 * i).collect(),
                stalls: (0..ns).map(|i| stall_at_at + 4 * ns + i).collect(),
            };
            at = stall_at_at + 5 * ns;
            fields
        })
        .collect();
    assert_eq!(at, file.len() - 8, "the layout walk must end at the digest");
    Layout {
        pcs: pcs as u64,
        targets,
        chunks,
    }
}

/// Which kind of control op a branch byte fits, by the byte alone:
/// a conditional branch (taken or not), a `PROB_JMP` (taken or not,
/// PBS-directed or not), a jump, a call or a return — `None` for a
/// byte no op produces. In a valid file every byte fits the op it
/// lands on, so a byte of another class contradicts it.
fn fit_class(byte: u8) -> Option<u8> {
    match byte {
        0x01 | 0x03 => Some(1),
        0x05 | 0x07 | 0x0D | 0x0F => Some(2),
        0x13 => Some(3),
        0x1B => Some(4),
        0x23 => Some(5),
        _ => None,
    }
}

/// Mutates one structural field of chunk `c` in `file`, by `field`:
/// the entry pc (0), the return-stack depth (1), a return address on
/// the entry stack (2), a branch byte (3), the whole entry stack of a
/// chunk entering inside a call, emptied, so its first `ret` finds the
/// stack empty (4), a flow-table target (5), the record count (6), the
/// branch count (7), the load count (8), the stall count (9), a stall's
/// record index (10) or a stall's cycles (11). A value goes next to the
/// old one when `near`, else to an arbitrary one, and never to the old
/// value. Near, a branch byte flips one bit other than its taken bit, a
/// stall index repeats a neighbour's, goes out of order or lands at or
/// past the record count, and a stall's cycles go to 0; far, a branch
/// byte leaves its class ([`fit_class`]) and a stall index stays below
/// twice the chunk's length. A flow-table target always leaves the
/// table. Returns whether the file stays structurally valid: only a
/// `PROB_JMP` byte that keeps its class (its PBS-directed bit flipped,
/// which moves no pc), a stall index still strictly between its
/// neighbours (or the record count), and nonzero stall cycles are.
fn mutate_chunk_field(
    file: &mut Vec<u8>,
    layout: &Layout,
    c: &ChunkFields,
    field: u8,
    pick: usize,
    value: u64,
    near: bool,
) -> bool {
    if field == 4 {
        file[c.depth..c.depth + 8].copy_from_slice(&0u64.to_le_bytes());
        file.drain(c.stack[0]..c.stack[0] + 4 * c.stack.len());
        return false;
    }
    let read = |at: usize, width: usize| {
        let mut raw = [0u8; 8];
        raw[..width].copy_from_slice(&file[at..at + width]);
        u64::from_le_bytes(raw)
    };
    let stall = (field == 10 || field == 11) && !c.stalls.is_empty();
    let s = pick % c.stalls.len().max(1);
    let (at, width) = match field {
        0 => (c.entry_pc, 4),
        1 => (c.depth, 8),
        2 if !c.stack.is_empty() => (c.stack[pick % c.stack.len()], 4),
        3 if !c.branches.is_empty() => (c.branches[pick % c.branches.len()], 1),
        5 => (layout.targets[pick % layout.targets.len()], 4),
        10 if stall => (c.stall_at[s], 4),
        11 if stall => (c.stalls[s], 1),
        7 => (c.n_branches, 8),
        8 => (c.n_loads, 8),
        9..=11 => (c.n_stalls, 8),
        _ => (c.len, 8),
    };
    let branch_byte = field == 3 && !c.branches.is_empty();
    let old = read(at, width);
    let mask = u64::MAX >> (64 - 8 * width);
    // A stall index's neighbours: the indices a valid one lies between.
    let below = (s > 0).then(|| read(c.stall_at[s - 1], 4));
    let above = c.stall_at.get(s + 1).map_or(c.records, |&a| read(a, 4));
    let v = match field {
        3 if branch_byte && near => old ^ 1 << [0, 2, 3, 4, 5, 6, 7][value as usize % 7],
        3 if branch_byte => {
            let v = value & 0xFF;
            if fit_class(v as u8) == fit_class(old as u8) {
                v | 0x80
            } else {
                v
            }
        }
        5 => layout.pcs + value % (u64::from(u32::MAX) + 1 - layout.pcs),
        10 if stall && near => match (value % 3, below) {
            (0, Some(b)) => b,
            (0, None) => above,
            (1, Some(b)) => b.saturating_sub(1),
            (1, None) if above < c.records => above + 1,
            _ => c.records + value % 3,
        },
        10 if stall => value % (2 * c.records),
        11 if stall && near => 0,
        _ if near => old.wrapping_add(value % 7).wrapping_sub(3),
        _ => value,
    } & mask;
    let v = if v == old {
        v.wrapping_add(1) & mask
    } else {
        v
    };
    file[at..at + width].copy_from_slice(&v.to_le_bytes()[..width]);
    match field {
        3 if branch_byte => fit_class(v as u8) == fit_class(old as u8),
        10 if stall => below.is_none_or(|b| v > b) && v < above,
        11 if stall => v != 0,
        _ => false,
    }
}

/// A persisted smoke-scale trace — the Bandit benchmark, several
/// chunks long — with the configuration and content hash it loads
/// under.
fn smoke_trace_file() -> &'static (Vec<u8>, SimConfig, u64) {
    static FILE: std::sync::OnceLock<(Vec<u8>, SimConfig, u64)> = std::sync::OnceLock::new();
    FILE.get_or_init(|| {
        use probranch::workloads::{BenchmarkId, Scale};
        let program = BenchmarkId::Bandit.build(Scale::Smoke, 1).program();
        let cfg = SimConfig::default().with_pbs();
        let hash = cfg.emu_key_fingerprint();
        let trace = DynTrace::capture(&program, &cfg).unwrap();
        assert!(trace.chunk_count() > 1);
        let path = fuzz_path();
        trace.write_file(&path, hash).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        (bytes, cfg, hash)
    })
}

/// A fresh temp-file path for one fuzz case.
fn fuzz_path() -> std::path::PathBuf {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "probranch-fuzz-{}-{}.bin",
        std::process::id(),
        SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ))
}

/// Loads `file`, which must either be rejected as
/// [`TraceLoad::Corrupt`] or load a trace that replays — every pc it
/// yields indexes the timing table, or the replay would panic. Returns
/// whether the file loaded.
fn load(file: &[u8], cfg: &SimConfig, hash: u64) -> Result<bool, TestCaseError> {
    let path = fuzz_path();
    std::fs::write(&path, file).unwrap();
    let loaded = DynTrace::load_file(&path, hash, cfg, 0);
    std::fs::remove_file(&path).unwrap();
    match loaded {
        TraceLoad::Corrupt => Ok(false),
        TraceLoad::Loaded(trace) => {
            let sim = Simulation::default();
            prop_assert!(sim.replay(&trace, cfg).is_ok());
            prop_assert!(sim.replay_branches(&trace, cfg).is_ok());
            Ok(true)
        }
        other => Err(TestCaseError::fail(format!(
            "neither corrupt nor loaded: {other:?}"
        ))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn trace_file_decoder_rejects_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..600),
        sealed in any::<bool>(),
    ) {
        // Arbitrary bytes fail the digest. Sealed behind a valid magic,
        // version and content hash with a matching digest, they reach
        // the decoder, whose counts must be bounded by the bytes left
        // before anything is allocated for them.
        let (pristine, cfg, hash) = smoke_trace_file();
        let mut file = bytes;
        if sealed {
            let mut head = pristine[..8 + 4 + 8].to_vec();
            head.extend_from_slice(&file);
            head.extend_from_slice(&[0; 8]);
            reseal(&mut head);
            file = head;
        }
        prop_assert!(!load(&file, cfg, *hash)?);
    }

    #[test]
    fn trace_file_decoder_checks_every_structural_field(
        chunk in any::<usize>(),
        field in 0u8..12,
        pick in any::<usize>(),
        value in any::<u64>(),
        near in any::<bool>(),
    ) {
        // One structural field of a valid file mutated — the entry pc,
        // the return-stack depth or an address on it, a branch byte, an
        // entry stack emptied, a flow-table target, the record, branch,
        // load or stall count, a stall's record index or its cycles —
        // and the digest recomputed, so that only the structural checks
        // stand between the decoder and the edit. A stack field is drawn
        // from the chunks that enter inside a call, a branch byte from
        // the chunks that hold branches, a stall field from the chunks
        // that hold stalls.
        let (pristine, cfg, hash) = smoke_trace_file();
        let layout = chunk_fields(pristine);
        let holding = |has: fn(&ChunkFields) -> bool| -> Vec<&ChunkFields> {
            layout.chunks.iter().filter(|c| has(c)).collect()
        };
        let (in_calls, branching, stalled) = (
            holding(|c| !c.stack.is_empty()),
            holding(|c| !c.branches.is_empty()),
            holding(|c| !c.stalls.is_empty()),
        );
        prop_assert!(!in_calls.is_empty(), "Bandit's chunks cut its selection call");
        prop_assert!(!stalled.is_empty(), "the first fetches of every line stall");
        let c = match field {
            2 | 4 => in_calls[chunk % in_calls.len()],
            3 => branching[chunk % branching.len()],
            10 | 11 => stalled[chunk % stalled.len()],
            _ => &layout.chunks[chunk % layout.chunks.len()],
        };
        let mut file = pristine.clone();
        let may_load = mutate_chunk_field(&mut file, &layout, c, field, pick, value, near);
        reseal(&mut file);
        prop_assert_eq!(load(&file, cfg, *hash)?, may_load);
    }
}

// ---- framed protocol fuzzing ------------------------------------------

/// Pieces request and response payloads are made of, plus a few that
/// never belong.
fn protocol_token() -> impl Strategy<Value = String> {
    let words: Vec<String> = [
        PROTOCOL,
        "probranch-serve/2",
        " ",
        "\t",
        "\n",
        "\r\n",
        "\n\n",
        "=",
        "ping",
        "shutdown",
        "sweep",
        "section=",
        "scale=",
        "engine=",
        "jobs=",
        "deadline-ms=",
        "fig6",
        "smoke",
        "reference",
        "0",
        "+7",
        "-1",
        "18446744073709551616",
        "ok",
        "overloaded",
        "shutting-down",
        "bad-request",
        "cancelled",
        "failed",
        "é",
        "\u{85}",
        "\u{2028}",
        "",
    ]
    .iter()
    .map(|w| w.to_string())
    .collect();
    prop_oneof![
        proptest::sample::select(words),
        any::<u32>()
            .prop_map(|c| char::from_u32(c % 0x11_0000).map_or_else(String::new, String::from)),
    ]
}

/// A request that encodes and parses back to itself: its values hold no
/// line break and end in no whitespace, which the parser trims.
fn valid_request() -> impl Strategy<Value = Request> {
    fn value(extra: &[&'static str]) -> impl Strategy<Value = String> {
        let mut words = vec!["fig6", "table3", "bench", "replay", "a=b", " é", "x\ry"];
        words.extend_from_slice(extra);
        proptest::sample::select(words).prop_map(String::from)
    }
    let sweep = (
        value(&[]),
        value(&[""]),
        value(&[""]),
        prop_oneof![Just(None), any::<usize>().prop_map(Some)],
        prop_oneof![Just(None), any::<u64>().prop_map(Some)],
    )
        .prop_map(|(section, scale, engine, jobs, deadline_ms)| {
            Request::Sweep(SweepRequest {
                section,
                scale,
                engine,
                jobs,
                deadline_ms,
            })
        });
    prop_oneof![Just(Request::Ping), Just(Request::Shutdown), sweep]
}

/// One edit of a payload (see [`mutate`]).
fn byte_edit() -> impl Strategy<Value = (u8, usize, usize, u8)> {
    (0u8..4, any::<usize>(), 0usize..12, any::<u8>())
}

/// Checks both parsers on one payload: an `Ok` request or response
/// re-encodes to bytes that parse back to itself, and an `Err` is one
/// non-empty line, fit for a `bad-request` body or a client message.
fn check_payload(payload: &[u8]) -> Result<(), TestCaseError> {
    let one_line = |msg: &str| !msg.is_empty() && !msg.contains('\n');
    match Request::parse(payload) {
        Ok(req) => prop_assert_eq!(Request::parse(&req.encode()), Ok(req)),
        Err(msg) => prop_assert!(one_line(&msg), "request error {:?}", msg),
    }
    match Response::parse(payload) {
        Ok(resp) => prop_assert_eq!(Response::parse(&resp.encode()), Ok(resp)),
        Err(msg) => prop_assert!(one_line(&msg), "response error {:?}", msg),
    }
    Ok(())
}

/// A reader that hands out at most `step` bytes per call, as a socket
/// may.
struct Trickle<'a> {
    data: &'a [u8],
    step: usize,
}

impl std::io::Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.step).min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

/// What `read_frame` must make of the stream `rest`: the payload and the
/// bytes its frame spans when the header and every byte it claims are
/// there, else the error kind.
fn frame_model(rest: &[u8]) -> Result<(&[u8], usize), std::io::ErrorKind> {
    use std::io::ErrorKind;
    let head = rest.get(..4).ok_or(ErrorKind::UnexpectedEof)?;
    let len = u32::from_le_bytes(head.try_into().unwrap()) as usize;
    if len > MAX_FRAME {
        return Err(ErrorKind::InvalidData);
    }
    let payload = rest.get(4..4 + len).ok_or(ErrorKind::UnexpectedEof)?;
    Ok((payload, 4 + len))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn protocol_parsers_never_panic_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..160)
    ) {
        check_payload(&bytes)?;
    }

    #[test]
    fn protocol_parsers_round_trip_shaped_payloads(
        headed in any::<bool>(),
        tokens in proptest::collection::vec(protocol_token(), 0..16)
    ) {
        let head = if headed { PROTOCOL } else { "" };
        check_payload(format!("{head}{}", tokens.concat()).as_bytes())?;
    }

    #[test]
    fn protocol_parsers_round_trip_valid_and_mutated_encodings(
        req in valid_request(),
        status in 0usize..6,
        body in proptest::collection::vec(protocol_token(), 0..8),
        edits in proptest::collection::vec(byte_edit(), 0..5)
    ) {
        let statuses = [
            Status::Ok,
            Status::Overloaded,
            Status::ShuttingDown,
            Status::BadRequest,
            Status::Cancelled,
            Status::Failed,
        ];
        let resp = Response::new(statuses[status], body.concat());
        prop_assert_eq!(Request::parse(&req.encode()), Ok(req.clone()));
        prop_assert_eq!(Response::parse(&resp.encode()), Ok(resp.clone()));
        check_payload(&mutate(&req.encode(), &edits))?;
        check_payload(&mutate(&resp.encode(), &edits))?;
    }

    #[test]
    fn read_frame_returns_whole_frames_or_an_error(
        frames in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 0..48), 0u8..3, any::<u32>()),
            0..5,
        ),
        tail in proptest::collection::vec(any::<u8>(), 0..16),
        cut in any::<usize>(),
        step in 1usize..9,
    ) {
        // Frames as the writer lays them out, some with a header that
        // claims more bytes than follow or an arbitrary length, then
        // stray bytes, the whole stream cut anywhere and read a few
        // bytes at a time. Each read must return a frame's whole payload
        // or fail: an over-cap length as `InvalidData`, a header or
        // payload cut short as `UnexpectedEof`, never a short payload.
        let mut stream = Vec::new();
        for (payload, edit, word) in &frames {
            write_frame(&mut stream, payload).unwrap();
            let at = stream.len() - payload.len() - 4;
            let claim = match edit {
                1 => payload.len() as u32 + 1 + word % 16,
                2 => *word,
                _ => continue,
            };
            stream[at..at + 4].copy_from_slice(&claim.to_le_bytes());
        }
        stream.extend_from_slice(&tail);
        stream.truncate(cut % (stream.len() + 1));
        let mut reader = Trickle { data: &stream, step };
        let mut at = 0;
        loop {
            match (read_frame(&mut reader), frame_model(&stream[at..])) {
                (Ok(got), Ok((want, spans))) => {
                    prop_assert_eq!(&got[..], want);
                    at += spans;
                }
                (Err(e), Err(kind)) => {
                    prop_assert_eq!(e.kind(), kind, "{}", e);
                    break;
                }
                (got, want) => {
                    return Err(TestCaseError::fail(format!(
                        "at byte {at}: read {got:?}, want {want:?}"
                    )));
                }
            }
        }
    }
}
