//! # probranch-bench
//!
//! The experiment harness regenerating **every table and figure** of
//! *Architectural Support for Probabilistic Branches* (MICRO 2018):
//!
//! | Paper artifact | Runner | Criterion bench |
//! |----------------|--------|-----------------|
//! | Figure 1 (branch/misprediction breakdown) | [`experiments::fig1`] | `fig1_breakdown` |
//! | Table I (predication/CFD applicability) | [`experiments::table1`] | `table1_applicability` |
//! | Table II (benchmark characteristics) | [`experiments::table2`] | `table2_characteristics` |
//! | Figure 6 (MPKI reduction) | [`experiments::fig6`] | `fig6_mpki` |
//! | Figure 7 (IPC, 4-wide) | [`experiments::fig7`] | `fig7_ipc_4wide` |
//! | Figure 8 (IPC, 8-wide) | [`experiments::fig8`] | `fig8_ipc_8wide` |
//! | Figure 9 (predictor interference) | [`experiments::fig9`] | `fig9_interference` |
//! | Table III (randomness battery) | [`experiments::table3`] | `table3_randomness` |
//! | §VII-D (output accuracy) | [`experiments::accuracy`] | `accuracy_outputs` |
//! | §V-C2 (hardware cost) | [`experiments::hardware_cost`] | — (unit tested) |
//!
//! The `figures` binary prints all of them; set `PROBRANCH_SCALE` to
//! `smoke`, `bench` (default) or `paper` to choose run sizes.
//!
//! Every sweep runs on the deterministic parallel engine of
//! [`probranch_harness`]: pass a [`Jobs`] (worker count) to any runner —
//! the rows are byte-identical whether it computes serially or across
//! all cores. `figures --jobs N` and the `PROBRANCH_JOBS` environment
//! variable control the default.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod render;
pub mod service;

pub use experiments::ExperimentScale;
pub use probranch_harness::{run_cells, Cell, Jobs};
