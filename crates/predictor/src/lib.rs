//! # probranch-predictor
//!
//! Branch-predictor models for the `probranch` reproduction of
//! *Architectural Support for Probabilistic Branches* (MICRO 2018).
//!
//! The paper evaluates PBS against two baselines (Section VI-B):
//!
//! * a **1 KB tournament predictor** "modeled after the Pentium-M,
//!   consisting of a global branch predictor, a bimodal branch predictor
//!   and a loop branch predictor" — [`Tournament`];
//! * an **8 KB TAGE-SC-L** predictor from the 2016 Branch Prediction
//!   Championship — [`TageScL`] (a faithful-in-structure, reduced-size
//!   implementation: tagged geometric-history tables, a statistical
//!   corrector, and a loop predictor).
//!
//! Building blocks ([`Bimodal`], [`Gshare`], [`LoopPredictor`],
//! saturating counters, folded histories) are public so downstream code
//! can compose its own predictors, and every predictor reports its
//! storage budget via [`BranchPredictor::storage_bits`].
//!
//! ## Contract
//!
//! The simulator drives predictors in trace order: for every conditional
//! branch it calls [`BranchPredictor::predict`] followed immediately by
//! [`BranchPredictor::update`] with the actual outcome. Implementations
//! may cache metadata from the last `predict` call.
//!
//! ```
//! use probranch_predictor::{BranchPredictor, Tournament};
//! let mut p = Tournament::default();
//! let pred = p.predict(0x40);
//! p.update(0x40, true);
//! assert!(p.storage_bits() <= 1024 * 8);
//! let _ = pred;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bimodal;
mod counters;
mod dispatch;
mod gshare;
mod history;
mod loop_pred;
mod tage;
mod tournament;

pub use bimodal::Bimodal;
pub use counters::SatCounter;
pub use dispatch::PredictorDispatch;
pub use gshare::Gshare;
pub use history::{FoldedHistory, HistoryBuffer, PackedFoldFamily};
pub use loop_pred::LoopPredictor;
pub use tage::{TageConfig, TageScL};
pub use tournament::Tournament;

/// One resolved conditional branch: the program counter the predictor is
/// consulted for and the actual outcome it is trained with.
///
/// This is the shared request record of the per-branch
/// [`BranchPredictor::predict_and_update`] pair and the batched
/// [`BranchPredictor::predict_update_batch`] entry point — a replay
/// consumer that knows all outcomes in advance hands the predictor whole
/// slices of these instead of one branch at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchReq {
    /// PC of the conditional branch.
    pub pc: u64,
    /// Actual direction of the branch.
    pub taken: bool,
}

impl BranchReq {
    /// A request from its parts.
    #[inline]
    pub fn new(pc: u64, taken: bool) -> BranchReq {
        BranchReq { pc, taken }
    }
}

/// A dynamic direction predictor for conditional branches.
///
/// Implementors must tolerate the strict alternation
/// `predict(pc); update(pc, taken)` per dynamic branch; the simulator
/// never interleaves predictions of different branches between a
/// `predict` and its `update`.
pub trait BranchPredictor {
    /// Predicts the direction of the conditional branch at `pc`.
    fn predict(&mut self, pc: u64) -> bool;

    /// Trains with the actual outcome of the branch at `pc`. Must follow
    /// the matching [`predict`](Self::predict) call.
    fn update(&mut self, pc: u64, taken: bool);

    /// The simulator's per-branch pair — [`predict`](Self::predict)
    /// immediately followed by [`update`](Self::update) — as one call,
    /// returning the prediction. Closed dispatch types override this to
    /// pay a single dispatch per branch instead of two.
    #[inline]
    fn predict_and_update(&mut self, req: BranchReq) -> bool {
        let predicted = self.predict(req.pc);
        self.update(req.pc, req.taken);
        predicted
    }

    /// The batched form of [`predict_and_update`](Self::predict_and_update):
    /// predicts and trains every request of `reqs` in order, writing the
    /// prediction of `reqs[i]` to `out[i]`.
    ///
    /// Semantically this **is** the serial loop — the default does
    /// exactly that, so every predictor supports the batch entry point —
    /// but an implementation may reorder its *internal* work across the
    /// batch as long as the produced predictions and the final predictor
    /// state stay bit-identical to the serial pairs ([`TageScL`] rolls
    /// its folded histories ahead of the table walks this way). Callers
    /// that know all outcomes up front (trace replay) should prefer this
    /// entry point.
    ///
    /// # Panics
    ///
    /// Panics if `reqs` and `out` differ in length.
    fn predict_update_batch(&mut self, reqs: &[BranchReq], out: &mut [bool]) {
        assert_eq!(
            reqs.len(),
            out.len(),
            "one prediction slot per batched request"
        );
        for (req, slot) in reqs.iter().zip(out.iter_mut()) {
            *slot = self.predict_and_update(*req);
        }
    }

    /// Total storage in bits (for hardware-budget accounting).
    fn storage_bits(&self) -> usize;

    /// A short human-readable name ("tournament", "tage-sc-l", ...).
    fn name(&self) -> &'static str;
}

/// A trivial static predictor, useful as an experimental lower bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticPredictor {
    taken: bool,
}

impl StaticPredictor {
    /// Always predicts taken.
    pub fn taken() -> StaticPredictor {
        StaticPredictor { taken: true }
    }

    /// Always predicts not-taken.
    pub fn not_taken() -> StaticPredictor {
        StaticPredictor { taken: false }
    }
}

impl BranchPredictor for StaticPredictor {
    fn predict(&mut self, _pc: u64) -> bool {
        self.taken
    }

    fn update(&mut self, _pc: u64, _taken: bool) {}

    fn storage_bits(&self) -> usize {
        0
    }

    fn name(&self) -> &'static str {
        if self.taken {
            "static-taken"
        } else {
            "static-not-taken"
        }
    }
}

#[cfg(test)]
pub(crate) mod test_util {
    use super::BranchPredictor;

    /// Drives a predictor over a synthetic pattern and returns accuracy.
    pub fn accuracy_on<P: BranchPredictor>(
        p: &mut P,
        pattern: impl Iterator<Item = (u64, bool)>,
    ) -> f64 {
        let mut correct = 0usize;
        let mut total = 0usize;
        for (pc, taken) in pattern {
            if p.predict(pc) == taken {
                correct += 1;
            }
            p.update(pc, taken);
            total += 1;
        }
        correct as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::test_util::accuracy_on;
    use super::*;

    #[test]
    fn static_predictors() {
        let mut t = StaticPredictor::taken();
        assert!(t.predict(0));
        let mut nt = StaticPredictor::not_taken();
        assert!(!nt.predict(0));
        assert_eq!(t.storage_bits(), 0);
        assert_eq!(t.name(), "static-taken");
        assert_eq!(nt.name(), "static-not-taken");
    }

    #[test]
    fn all_predictors_learn_always_taken() {
        let pattern: Vec<(u64, bool)> = (0..2000).map(|_| (0x80u64, true)).collect();
        let mut tour = Tournament::default();
        assert!(accuracy_on(&mut tour, pattern.iter().copied()) > 0.95);
        let mut tage = TageScL::default();
        assert!(accuracy_on(&mut tage, pattern.iter().copied()) > 0.95);
        let mut bim = Bimodal::new(10);
        assert!(accuracy_on(&mut bim, pattern.iter().copied()) > 0.95);
        let mut gsh = Gshare::new(10, 10);
        assert!(accuracy_on(&mut gsh, pattern.iter().copied()) > 0.95);
    }

    #[test]
    fn budget_claims_hold() {
        let tour = Tournament::default();
        assert!(
            tour.storage_bits() <= 1024 * 8,
            "tournament exceeds 1 KB: {} bits",
            tour.storage_bits()
        );
        let tage = TageScL::default();
        assert!(
            tage.storage_bits() <= 8 * 1024 * 8,
            "TAGE-SC-L exceeds 8 KB: {} bits",
            tage.storage_bits()
        );
    }
}
