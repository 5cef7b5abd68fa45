//! Domain example: evolutionary optimization (the paper's Genetic
//! workload and §VII-D accuracy experiment). Runs the genetic algorithm
//! over several seeds with and without PBS and compares the success
//! rates with 95% confidence intervals, exactly like the paper.
//!
//! ```text
//! cargo run --example genetic_search --release
//! ```

use probranch::prelude::*;
use probranch::workloads::accuracy::SuccessRate;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trials = 24u64;
    let mut ok_base = 0u64;
    let mut ok_pbs = 0u64;

    println!("running {trials} genetic-algorithm trials (seed-varied)...");
    for seed in 0..trials {
        let g = Genetic::new(Scale::Bench, 1000 + seed);
        let program = g.program();
        let base = run_functional(&program, None, 1_000_000_000)?;
        let pbs = run_functional(&program, Some(PbsConfig::default()), 1_000_000_000)?;
        ok_base += base.output(0)[0];
        ok_pbs += pbs.output(0)[0];
        println!(
            "  seed {seed:>2}: baseline {} in {} gens | PBS {} in {} gens",
            if base.output(0)[0] == 1 {
                "hit "
            } else {
                "miss"
            },
            base.output(0)[1],
            if pbs.output(0)[0] == 1 {
                "hit "
            } else {
                "miss"
            },
            pbs.output(0)[1],
        );
    }

    let a = SuccessRate::from_counts(ok_base, trials);
    let b = SuccessRate::from_counts(ok_pbs, trials);
    println!();
    println!(
        "success rate, baseline: {:.3} [{:.3}, {:.3}]",
        a.rate, a.lo, a.hi
    );
    println!(
        "success rate, PBS:      {:.3} [{:.3}, {:.3}]",
        b.rate, b.lo, b.hi
    );
    if a.overlaps(&b) {
        println!("confidence intervals overlap: no statistical evidence that PBS differs");
    } else {
        println!("WARNING: intervals do not overlap — PBS altered the algorithm");
    }

    // One timing run to show the branch-predictor story.
    let g = Genetic::new(Scale::Bench, 1000);
    let base = Simulation::default().run(&g.program(), &SimConfig::default())?;
    let pbs = Simulation::default().run(&g.program(), &SimConfig::default().with_pbs())?;
    println!();
    println!(
        "MPKI {:.2} -> {:.2}, IPC {:.2} -> {:.2} with PBS",
        base.timing.mpki(),
        pbs.timing.mpki(),
        base.timing.ipc(),
        pbs.timing.ipc()
    );
    Ok(())
}
