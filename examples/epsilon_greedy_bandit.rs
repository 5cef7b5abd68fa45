//! Domain example: reinforcement learning with an epsilon-greedy
//! multi-armed bandit (the paper's Bandit workload). The probabilistic
//! explore/exploit branch sits inside a function called from the pull
//! loop — the structure neither predication nor CFD can handle
//! (Table I) while PBS's calling-context support covers it.
//!
//! ```text
//! cargo run --example epsilon_greedy_bandit --release
//! ```

use probranch::compiler::{cfd, predication};
use probranch::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bandit = Bandit::new(Scale::Bench, 11);
    let program = bandit.program();

    // Static story first: what can the baseline techniques do here?
    println!("baseline applicability for the explore/exploit branch:");
    for (pc, verdict) in predication::analyze_program(&program) {
        match verdict {
            Ok(()) => println!("  predication @ pc {pc}: applicable"),
            Err(e) => println!("  predication @ pc {pc}: NOT applicable — {e}"),
        }
    }
    for (pc, verdict) in cfd::analyze_program(&program) {
        match verdict {
            Ok(()) => println!("  CFD         @ pc {pc}: applicable"),
            Err(e) => println!("  CFD         @ pc {pc}: NOT applicable — {e}"),
        }
    }
    println!();

    // Dynamic story: PBS handles it via the Context-Table's Function-PC.
    let base = Simulation::default().run(&program, &SimConfig::default())?;
    let pbs = Simulation::default().run(&program, &SimConfig::default().with_pbs())?;

    let (reward_base, best_base) = (base.output(0)[0], base.output(0)[1]);
    let (reward_pbs, best_pbs) = (pbs.output(0)[0], pbs.output(0)[1]);
    println!("total reward:   baseline {reward_base}, PBS {reward_pbs}");
    println!("best-arm pulls: baseline {best_base}, PBS {best_pbs}");
    println!(
        "average reward: baseline {:.3}, PBS {:.3} (best arm pays {:.2})",
        reward_base as f64 / bandit.pulls as f64,
        reward_pbs as f64 / bandit.pulls as f64,
        Bandit::arm_probability(7),
    );
    println!();
    let stats = pbs.pbs.expect("PBS attached");
    println!(
        "PBS: {} directed / {} bootstrap / {} bypassed ({} context flushes)",
        stats.directed, stats.bootstrap, stats.bypassed, stats.context_flushes
    );
    println!(
        "prob-branch mispredicts: baseline {}, PBS {}",
        base.timing.mispredicts_prob, pbs.timing.mispredicts_prob
    );
    println!(
        "MPKI: baseline {:.3}, PBS {:.3}",
        base.timing.mpki(),
        pbs.timing.mpki()
    );
    Ok(())
}
