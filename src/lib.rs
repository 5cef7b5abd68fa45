//! # probranch
//!
//! A full reproduction of **Architectural Support for Probabilistic
//! Branches** (Adileh, Lilja, Eeckhout — MICRO 2018) as a Rust
//! workspace: the PBS hardware unit, its ISA extension, the baseline
//! branch predictors, a cycle-level out-of-order simulator, the eight
//! probabilistic workloads, the compiler-side analyses, and a benchmark
//! harness regenerating every table and figure of the paper.
//!
//! This umbrella crate re-exports the public API of each subsystem:
//!
//! * [`isa`] — the instruction set with `PROB_CMP`/`PROB_JMP`
//!   ([`probranch_isa`]);
//! * [`rng`] — deterministic random-number substrate ([`probranch_rng`]);
//! * [`predictor`] — 1 KB tournament and 8 KB TAGE-SC-L baselines
//!   ([`probranch_predictor`]);
//! * [`pbs`] — the paper's contribution: Prob-BTB, SwapTable,
//!   Prob-in-Flight, Context-Table ([`probranch_core`]);
//! * [`pipeline`] — functional emulator + out-of-order timing model
//!   ([`probranch_pipeline`]);
//! * [`workloads`] — DOP, Greeks, Swaptions, Genetic, Photon, MC-integ,
//!   PI, Bandit ([`probranch_workloads`]);
//! * [`compiler`] — taint marking, predication, CFD, safety analyses
//!   ([`probranch_compiler`]);
//! * [`stats`] — summary statistics and the randomness battery
//!   ([`probranch_stats`]);
//! * [`harness`] — the deterministic parallel experiment engine driving
//!   all sweeps ([`probranch_harness`]).
//!
//! ## Quickstart
//!
//! ```
//! use probranch::prelude::*;
//!
//! // Build the paper's PI workload and simulate it with and without PBS.
//! let pi = Pi::new(Scale::Smoke, 42);
//! let base = Simulation::default().run(&pi.program(), &SimConfig::default())?;
//! let pbs = Simulation::default().run(&pi.program(), &SimConfig::default().with_pbs())?;
//! assert!(pbs.timing.mpki() < base.timing.mpki());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use probranch_compiler as compiler;
pub use probranch_core as pbs;
pub use probranch_harness as harness;
pub use probranch_isa as isa;
pub use probranch_pipeline as pipeline;
pub use probranch_predictor as predictor;
pub use probranch_rng as rng;
pub use probranch_stats as stats;
pub use probranch_workloads as workloads;

/// The most common imports for experiments.
pub mod prelude {
    pub use probranch_core::{BranchResolution, PbsConfig, PbsUnit};
    pub use probranch_harness::{run_cells, Cell, Jobs};
    pub use probranch_isa::{CmpOp, Inst, Program, ProgramBuilder, Reg};
    pub use probranch_pipeline::{
        run_functional, EngineKind, OooConfig, PredictorChoice, SimConfig, SimReport, Simulation,
    };
    pub use probranch_predictor::{BranchPredictor, TageScL, Tournament};
    pub use probranch_workloads::{
        all_benchmarks, Bandit, Benchmark, BenchmarkId, Category, Dop, Genetic, Greeks, McInteg,
        Photon, Pi, Scale, Swaptions,
    };
}
