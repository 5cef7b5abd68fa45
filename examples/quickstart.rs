//! Quickstart: write a tiny probabilistic kernel with the builder DSL,
//! run it on the cycle simulator with and without PBS, and compare.
//!
//! ```text
//! cargo run --example quickstart --release
//! ```

use probranch::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A Monte-Carlo coin-flip kernel: draw a uniform value with an
    // inline xorshift64* generator, compare it against 0.5 with the
    // paper's PROB_CMP/PROB_JMP pair, and count the "heads".
    let mut b = ProgramBuilder::new();
    let top = b.label("top");
    let skip = b.label("skip");

    // RNG state and constants.
    b.li(Reg::R24, 0x1234_5678_9abc_def1u64 as i64);
    b.li(Reg::R25, 0x2545_F491_4F6C_DD1Du64 as i64);
    b.lif(Reg::R26, 1.0 / (1u64 << 53) as f64);
    b.li(Reg::R1, 0); // heads
    b.li(Reg::R2, 0); // i
    b.lif(Reg::R10, 0.5); // threshold (constant in context: PBS-safe)

    b.bind(top);
    // xorshift64* + [0,1) conversion — random numbers cost real
    // simulated instructions.
    b.shr(Reg::R27, Reg::R24, 12)
        .xor(Reg::R24, Reg::R24, Reg::R27);
    b.shl(Reg::R27, Reg::R24, 25)
        .xor(Reg::R24, Reg::R24, Reg::R27);
    b.shr(Reg::R27, Reg::R24, 27)
        .xor(Reg::R24, Reg::R24, Reg::R27);
    b.mul(Reg::R3, Reg::R24, Reg::R25);
    b.shr(Reg::R3, Reg::R3, 11);
    b.itof(Reg::R3, Reg::R3);
    b.fmul(Reg::R3, Reg::R3, Reg::R26);
    // The probabilistic branch.
    b.prob_fcmp(CmpOp::Ge, Reg::R3, Reg::R10);
    b.prob_jmp(None, skip);
    b.add(Reg::R1, Reg::R1, 1);
    b.bind(skip);
    b.add(Reg::R2, Reg::R2, 1);
    b.br(CmpOp::Lt, Reg::R2, 50_000, top);
    b.out(Reg::R1, 0);
    b.halt();
    let program = b.build()?;

    // Baseline: the probabilistic branch is ~50/50 — the TAGE-SC-L
    // predictor cannot learn it.
    let base = Simulation::default().run(&program, &SimConfig::default())?;
    // PBS: fetch follows the recorded outcome of the previous execution.
    let pbs = Simulation::default().run(&program, &SimConfig::default().with_pbs())?;

    println!("heads (baseline): {}", base.output(0)[0]);
    println!("heads (PBS):      {}", pbs.output(0)[0]);
    println!();
    println!("                 baseline        PBS");
    println!(
        "MPKI        {:>10.3} {:>10.3}",
        base.timing.mpki(),
        pbs.timing.mpki()
    );
    println!(
        "IPC         {:>10.3} {:>10.3}",
        base.timing.ipc(),
        pbs.timing.ipc()
    );
    println!(
        "cycles      {:>10} {:>10}",
        base.timing.cycles, pbs.timing.cycles
    );
    let stats = pbs.pbs.expect("PBS attached");
    println!();
    println!(
        "PBS events: {} directed, {} bootstrap, {} bypassed",
        stats.directed, stats.bootstrap, stats.bypassed
    );
    println!(
        "speedup: {:.2}x",
        base.timing.cycles as f64 / pbs.timing.cycles as f64
    );
    Ok(())
}
