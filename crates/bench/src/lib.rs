//! # probranch-bench
//!
//! The experiment harness regenerating **every table and figure** of
//! *Architectural Support for Probabilistic Branches* (MICRO 2018):
//!
//! | Paper artifact | Runner |
//! |----------------|--------|
//! | Figure 1 (branch/misprediction breakdown) | [`experiments::fig1`] |
//! | Table I (predication/CFD applicability) | [`experiments::table1`] |
//! | Table II (benchmark characteristics) | [`experiments::table2`] |
//! | Figure 6 (MPKI reduction) | [`experiments::fig6`] |
//! | Figure 7 (IPC, 4-wide) | [`experiments::fig7`] |
//! | Figure 8 (IPC, 8-wide) | [`experiments::fig8`] |
//! | Figure 9 (predictor interference) | [`experiments::fig9`] |
//! | Table III (randomness battery) | [`experiments::table3`] |
//! | §VII-D (output accuracy) | [`experiments::accuracy`] |
//! | §V-C2 (hardware cost) | [`experiments::hardware_cost`] |
//!
//! The `figures` binary prints all of them; `figures --scale` chooses
//! the run size: `smoke`, `bench` (default) or `paper`. Wall time per
//! section is measured outside the binary, by `perfbench/run.py`.
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
