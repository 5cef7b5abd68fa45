//! # probranch-core
//!
//! The paper's primary contribution: **Probabilistic Branch Support
//! (PBS)**, from *Architectural Support for Probabilistic Branches*
//! (Adileh, Lilja, Eeckhout — MICRO 2018), as a functional hardware
//! model.
//!
//! PBS eliminates mispredictions of *probabilistic branches* — branches
//! steered by freshly drawn random values — by exploiting the observation
//! that their outcome only needs to be correct *in a statistical sense*.
//! Instead of predicting, the fetch stage follows the **recorded outcome
//! of a previous execution** of the branch, and the execute stage swaps
//! the newly generated probabilistic value(s) with the recorded one(s) so
//! that control-dependent code observes values consistent with the
//! direction that was followed.
//!
//! The hardware structures modeled here (paper Section V-C):
//!
//! * **Prob-BTB** — one entry per tracked probabilistic branch: target,
//!   the T/NT direction to follow at fetch, a pointer to the value that
//!   matches that direction, and the `Const-Val` safety snapshot;
//! * **SwapTable** — extra value slots for branches carrying more than
//!   one probabilistic value (Category-2 codes);
//! * **Prob-in-Flight** — the FIFO of executed-but-not-yet-consumed
//!   `(values, outcome)` records, bounding overlapping instances;
//! * **Context-Table** — a two-entry innermost-loop tracker with
//!   function-call context (dynamic loop detection via backward
//!   branches), providing context disambiguation and context-end
//!   flushing.
//!
//! [`PbsUnit`] ties them together and is driven by the emulator in
//! `probranch-pipeline`. [`cost`] reproduces the paper's 193-byte
//! hardware budget arithmetic.
//!
//! ```
//! use probranch_core::{PbsConfig, PbsUnit, BranchResolution};
//!
//! let mut pbs = PbsUnit::new(PbsConfig::default());
//! // One probabilistic branch executing repeatedly at pc 100: the first
//! // `in_flight` (4) executions bootstrap, the rest are PBS-directed.
//! for i in 0..10u64 {
//!     let value = 0.1 * i as f64;
//!     let taken = value < 0.5;
//!     let r = pbs.execute_prob_branch(100, &[value.to_bits()], 0.5f64.to_bits(), taken);
//!     match r {
//!         BranchResolution::Bootstrap { .. } => assert!(i < 4),
//!         BranchResolution::Directed { .. } => assert!(i >= 4),
//!         BranchResolution::Bypassed { .. } => unreachable!(),
//!     }
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod context;
pub mod cost;
mod tables;
mod unit;

pub use config::PbsConfig;
pub use context::{ContextKey, ContextTable};
pub use tables::{ProbBtb, ProbBtbEntry, ProbInFlight};
pub use unit::{BranchResolution, BypassReason, PbsStats, PbsUnit};

// The parallel experiment harness ships PBS configurations and result
// counters across worker threads; assert thread-safety at compile time
// so a future interior-mutability field cannot silently break it.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PbsConfig>();
    assert_send_sync::<PbsStats>();
    assert_send_sync::<PbsUnit>();
};
