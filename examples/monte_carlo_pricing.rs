//! Domain example: financial Monte-Carlo pricing (the paper's DOP and
//! Greeks workloads). Compares branch-predictor behaviour and output
//! accuracy with and without PBS across both predictors.
//!
//! ```text
//! cargo run --example monte_carlo_pricing --release
//! ```

use probranch::prelude::*;

fn run(name: &str, program: &probranch::isa::Program) -> Result<(), Box<dyn std::error::Error>> {
    println!("== {name} ==");
    println!(
        "{:<24} {:>8} {:>8} {:>10}",
        "configuration", "MPKI", "IPC", "cycles"
    );
    let mut baseline_cycles = 0u64;
    for (label, predictor, pbs) in [
        ("tournament", PredictorChoice::Tournament, false),
        ("tage-sc-l", PredictorChoice::TageScL, false),
        ("tournament + PBS", PredictorChoice::Tournament, true),
        ("tage-sc-l + PBS", PredictorChoice::TageScL, true),
    ] {
        let mut cfg = SimConfig::default().predictor(predictor);
        if pbs {
            cfg = cfg.with_pbs();
        }
        let r = Simulation::default().run(program, &cfg)?;
        if label == "tournament" {
            baseline_cycles = r.timing.cycles;
        }
        println!(
            "{:<24} {:>8.3} {:>8.3} {:>10} ({:.2}x)",
            label,
            r.timing.mpki(),
            r.timing.ipc(),
            r.timing.cycles,
            baseline_cycles as f64 / r.timing.cycles as f64
        );
    }
    println!();
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dop = Dop::new(Scale::Bench, 7);
    run("DOP — digital option pricing (Category 1)", &dop.program())?;

    // Output accuracy: the paper reports zero relative error for DOP.
    let base = run_functional(&dop.program(), None, 1_000_000_000)?;
    let pbs = run_functional(&dop.program(), Some(PbsConfig::default()), 1_000_000_000)?;
    println!(
        "DOP digital-call price: baseline {:.5}, PBS {:.5}",
        base.output_f64(1)[0],
        pbs.output_f64(1)[0]
    );
    println!();

    let greeks = Greeks::new(Scale::Bench, 7);
    run(
        "Greeks — option sensitivities (Category 2, value swap)",
        &greeks.program(),
    )?;
    let (price, delta, gamma) = greeks.reference_greeks();
    println!("reference greeks: price {price:.3}, delta {delta:.3}, gamma {gamma:.4}");
    Ok(())
}
