//! Advanced example: authoring a custom probabilistic workload with
//! *regular* branches, letting the compiler crate's taint analysis mark
//! the probabilistic ones automatically (paper Section V-B), and
//! verifying PBS safety — the full software-support flow.
//!
//! ```text
//! cargo run --example custom_workload --release
//! ```

use probranch::compiler::{safety, taint};
use probranch::prelude::*;

/// A reservoir-sampling-flavoured kernel written with ordinary
/// `cmp`/`jf` branches: each element replaces the reservoir slot with
/// probability threshold.
fn build_unmarked() -> Result<probranch::isa::Program, Box<dyn std::error::Error>> {
    let mut b = ProgramBuilder::new();
    let top = b.label("top");
    let keep = b.label("keep");
    // Inline xorshift64* (the taint analysis recognizes this pattern).
    b.li(Reg::R24, 0xfeed_f00d_dead_beefu64 as i64);
    b.li(Reg::R25, 0x2545_F491_4F6C_DD1Du64 as i64);
    b.lif(Reg::R26, 1.0 / (1u64 << 53) as f64);
    b.li(Reg::R1, 0); // replacements
    b.li(Reg::R2, 0); // i
    b.lif(Reg::R10, 0.25); // replacement probability (run constant)
    b.bind(top);
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
    // An ordinary compare-and-jump — nothing probabilistic marked yet.
    b.fcmp(CmpOp::Ge, Reg::R3, Reg::R10);
    b.jf(keep);
    b.add(Reg::R1, Reg::R1, 1); // replace the reservoir slot
    b.bind(keep);
    b.add(Reg::R2, Reg::R2, 1);
    b.br(CmpOp::Lt, Reg::R2, 40_000, top);
    b.out(Reg::R1, 0);
    b.halt();
    Ok(b.build()?)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let unmarked = build_unmarked()?;
    println!(
        "unmarked program: {} probabilistic branches",
        unmarked.branch_counts().0
    );

    // 1. Find the random-number generators.
    let roots = taint::detect_xorshift_roots(&unmarked);
    println!(
        "detected {} inline RNG root(s) at pcs {roots:?}",
        roots.len()
    );

    // 2. Propagate taint and mark controlled branches.
    let t = taint::propagate(&unmarked, &roots);
    let candidates = taint::find_candidates(&unmarked, &t);
    println!(
        "taint analysis found {} candidate branch(es)",
        candidates.len()
    );
    let marked = taint::mark_probabilistic(&unmarked, &t);
    println!(
        "marked program:   {} probabilistic branches",
        marked.branch_counts().0
    );

    // 3. Static safety: the threshold must be constant in context.
    for (pc, verdict) in safety::check_program(&marked) {
        println!("safety @ pc {pc}: {verdict:?}");
    }
    assert!(safety::all_safe(&marked));

    // 4. Compare all three machines.
    println!();
    println!(
        "{:<34} {:>8} {:>8} {:>12}",
        "machine", "MPKI", "IPC", "replacements"
    );
    for (label, program, pbs) in [
        ("legacy (unmarked binary)", &unmarked, false),
        ("PBS hardware, unmarked binary", &unmarked, true),
        ("PBS hardware, auto-marked binary", &marked, true),
    ] {
        let mut cfg = SimConfig::default();
        if pbs {
            cfg = cfg.with_pbs();
        }
        let r = Simulation::default().run(program, &cfg)?;
        println!(
            "{:<34} {:>8.3} {:>8.3} {:>12}",
            label,
            r.timing.mpki(),
            r.timing.ipc(),
            r.output(0)[0]
        );
    }
    println!();
    println!("note: the middle row shows backward compatibility — PBS hardware");
    println!("runs unmarked binaries exactly like a legacy machine.");
    Ok(())
}
