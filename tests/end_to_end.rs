//! Cross-crate integration tests: the full paper pipeline from ISA
//! encoding through PBS-enabled cycle simulation on the real workloads.

use probranch::prelude::*;

#[test]
fn every_workload_runs_under_all_four_configurations() {
    for b in all_benchmarks(Scale::Smoke, 7) {
        let program = b.program();
        for predictor in [PredictorChoice::Tournament, PredictorChoice::TageScL] {
            for pbs in [false, true] {
                let mut cfg = SimConfig::default().predictor(predictor);
                if pbs {
                    cfg = cfg.with_pbs();
                }
                let r = Simulation::default()
                    .run(&program, &cfg)
                    .unwrap_or_else(|e| panic!("{} {predictor:?} pbs={pbs}: {e}", b.name()));
                assert!(r.timing.instructions > 1000, "{}", b.name());
                assert!(r.timing.ipc() > 0.05, "{}", b.name());
            }
        }
    }
}

#[test]
fn pbs_reduces_mpki_on_every_workload_with_tage() {
    for b in all_benchmarks(Scale::Smoke, 3) {
        let program = b.program();
        let base = Simulation::default()
            .run(&program, &SimConfig::default())
            .unwrap();
        let pbs = Simulation::default()
            .run(&program, &SimConfig::default().with_pbs())
            .unwrap();
        assert!(
            pbs.timing.mpki() <= base.timing.mpki() + 0.01,
            "{}: base {:.3} vs pbs {:.3}",
            b.name(),
            base.timing.mpki(),
            pbs.timing.mpki()
        );
        // The probabilistic mispredictions drop sharply. Only bootstrap
        // instances may miss; workloads whose probabilistic branch sits
        // in a short inner loop (Genetic's per-bit mutation loop)
        // re-bootstrap at every context flush and retain a residue, as
        // the paper's own context-flush design implies.
        assert!(
            pbs.timing.mispredicts_prob * 2 <= base.timing.mispredicts_prob.max(10),
            "{}: prob mispredicts {} -> {}",
            b.name(),
            base.timing.mispredicts_prob,
            pbs.timing.mispredicts_prob
        );
    }
}

#[test]
fn paper_headline_tournament_pbs_beats_plain_tage_on_average() {
    // Section VII-B: "the tournament branch predictor with PBS
    // outperforms the TAGE-SC-L predictor."
    let mut tage_cycles = 0u64;
    let mut tour_pbs_cycles = 0u64;
    for b in all_benchmarks(Scale::Smoke, 5) {
        let program = b.program();
        tage_cycles += Simulation::default()
            .run(
                &program,
                &SimConfig::default().predictor(PredictorChoice::TageScL),
            )
            .unwrap()
            .timing
            .cycles;
        tour_pbs_cycles += Simulation::default()
            .run(
                &program,
                &SimConfig::default()
                    .predictor(PredictorChoice::Tournament)
                    .with_pbs(),
            )
            .unwrap()
            .timing
            .cycles;
    }
    assert!(
        tour_pbs_cycles < tage_cycles,
        "tournament+PBS {tour_pbs_cycles} cycles vs TAGE {tage_cycles}"
    );
}

#[test]
fn wider_core_gets_larger_pbs_benefit() {
    // The Figure 8 observation: "even higher improvements are obtained
    // for a wider processor pipeline." Checked on the aggregate.
    let mut narrow_speedup = 0.0;
    let mut wide_speedup = 0.0;
    for b in all_benchmarks(Scale::Smoke, 9) {
        let program = b.program();
        for (cfgs, acc) in [
            (OooConfig::default(), &mut narrow_speedup),
            (OooConfig::wide(), &mut wide_speedup),
        ] {
            let base_cfg = SimConfig {
                core: cfgs.clone(),
                ..SimConfig::default()
            };
            let base = Simulation::default().run(&program, &base_cfg).unwrap();
            let pbs_cfg = SimConfig {
                core: cfgs,
                ..SimConfig::default().with_pbs()
            };
            let pbs = Simulation::default().run(&program, &pbs_cfg).unwrap();
            *acc += base.timing.cycles as f64 / pbs.timing.cycles as f64;
        }
    }
    assert!(
        wide_speedup > narrow_speedup,
        "wide {wide_speedup:.3} vs narrow {narrow_speedup:.3} total speedup"
    );
}

#[test]
fn binary_round_trip_preserves_simulation_results() {
    // Encode the workload to its binary image, decode, and re-simulate:
    // identical results.
    let b = Pi::new(Scale::Smoke, 3);
    let program = b.program();
    let image = probranch::isa::encode(&program);
    let decoded = probranch::isa::Program::new(probranch::isa::decode(&image).unwrap()).unwrap();
    let r1 = Simulation::default()
        .run(&program, &SimConfig::default().with_pbs())
        .unwrap();
    let r2 = Simulation::default()
        .run(&decoded, &SimConfig::default().with_pbs())
        .unwrap();
    assert_eq!(r1.timing, r2.timing);
    assert_eq!(r1.output(0), r2.output(0));
}

#[test]
fn legacy_decode_runs_probabilistic_binaries_as_regular() {
    // Paper Section V-A2 backward compatibility: a machine without PBS
    // support decodes the same binary and produces the same
    // architectural results as the baseline machine.
    let b = McInteg::new(Scale::Smoke, 3);
    let program = b.program();
    let image = probranch::isa::encode(&program);
    let legacy =
        probranch::isa::Program::new(probranch::isa::decode_compat(&image).unwrap()).unwrap();
    assert_eq!(
        legacy.branch_counts().0,
        0,
        "no probabilistic branches after legacy decode"
    );
    let marked = run_functional(&program, None, 10_000_000).unwrap();
    let unmarked = run_functional(&legacy, None, 10_000_000).unwrap();
    assert_eq!(marked.output(0), unmarked.output(0));
}

#[test]
fn whole_workload_survives_text_round_trip() {
    // Disassemble a full workload and re-assemble it.
    let b = Swaptions::new(Scale::Smoke, 3);
    let program = b.program();
    let text = program.to_string();
    let back = probranch::isa::parse_asm(&text).unwrap();
    assert_eq!(program, back);
}

#[test]
fn determinism_across_identical_runs() {
    // Paper Section III-B: "PBS replays the same stream of data values
    // when given the same initial random seed."
    let b = Photon::new(Scale::Smoke, 11);
    let program = b.program();
    let r1 = Simulation::default()
        .run(&program, &SimConfig::default().with_pbs())
        .unwrap();
    let r2 = Simulation::default()
        .run(&program, &SimConfig::default().with_pbs())
        .unwrap();
    assert_eq!(r1.timing, r2.timing);
    assert_eq!(r1.prob_consumed, r2.prob_consumed);
    assert_eq!(r1.outputs, r2.outputs);
}

#[test]
fn pbs_unit_stats_are_consistent_with_timing_stats() {
    let b = Greeks::new(Scale::Smoke, 5);
    let r = Simulation::default()
        .run(&b.program(), &SimConfig::default().with_pbs())
        .unwrap();
    let pbs = r.pbs.expect("PBS attached");
    assert_eq!(
        pbs.directed, r.timing.pbs_directed,
        "unit and timing model must agree on directed instances"
    );
    assert_eq!(
        pbs.directed + pbs.bootstrap + pbs.bypassed,
        r.timing.prob_branches,
        "every dynamic probabilistic jump is accounted for"
    );
}

#[test]
fn context_switch_flush_rebootstraps() {
    use probranch::pipeline::{EmuConfig, Emulator};

    let b = Pi::new(Scale::Smoke, 3);
    let mut emu = Emulator::with_pbs(
        b.program(),
        EmuConfig::default(),
        PbsUnit::new(PbsConfig::default()),
    );
    // Run half the program, then model an unsaved context switch.
    for _ in 0..5_000 {
        emu.step().unwrap();
    }
    let _before = emu.pbs_stats().unwrap();
    emu.run_to_halt(100_000_000).unwrap();
    let after = emu.pbs_stats().unwrap();
    assert!(after.directed > 0);
}
