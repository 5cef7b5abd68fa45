//! Static predictor dispatch: a closed enum over the predictor models
//! the simulator instantiates, replacing `Box<dyn BranchPredictor>` on
//! the per-branch hot path.
//!
//! A trace-driven simulation consults the predictor twice per dynamic
//! conditional branch (`predict` then `update`). Through a trait object
//! each call is a virtual dispatch the optimizer cannot see through;
//! through [`PredictorDispatch`] the pair is one predictable match whose
//! arms inline into the (monomorphized) simulation loop. The open trait
//! remains the extension point — this enum only closes the set the
//! simulator itself ships.

use crate::{BranchPredictor, BranchReq, StaticPredictor, TageScL, Tournament};

/// A closed sum of the simulator's baseline predictors, dispatching
/// [`BranchPredictor`] statically.
///
/// ```
/// use probranch_predictor::{BranchPredictor, PredictorDispatch, Tournament};
/// let mut p = PredictorDispatch::from(Tournament::default());
/// let guess = p.predict(0x40);
/// p.update(0x40, true);
/// assert_eq!(p.name(), "tournament");
/// let _ = guess;
/// ```
#[derive(Debug, Clone)]
pub enum PredictorDispatch {
    /// The 1 KB Pentium-M-style tournament predictor.
    Tournament(Tournament),
    /// The 8 KB TAGE-SC-L predictor.
    TageScL(Box<TageScL>),
    /// A static always-taken / always-not-taken predictor.
    Static(StaticPredictor),
}

impl From<Tournament> for PredictorDispatch {
    fn from(p: Tournament) -> PredictorDispatch {
        PredictorDispatch::Tournament(p)
    }
}

impl From<TageScL> for PredictorDispatch {
    fn from(p: TageScL) -> PredictorDispatch {
        PredictorDispatch::TageScL(Box::new(p))
    }
}

impl From<StaticPredictor> for PredictorDispatch {
    fn from(p: StaticPredictor) -> PredictorDispatch {
        PredictorDispatch::Static(p)
    }
}

/// Expands `$body` once per [`PredictorDispatch`] variant with `$p`
/// bound to the concrete `&mut` predictor — the single definition of the
/// per-variant dispatch behind [`PredictorDispatch::visit_batch`] and the
/// enum's own [`BranchPredictor`] methods (each of which would otherwise
/// repeat the same three-arm match, the boxed-TAGE deref included).
macro_rules! with_concrete {
    ($dispatch:expr, |$p:ident| $body:expr) => {
        match $dispatch {
            PredictorDispatch::Tournament($p) => $body,
            PredictorDispatch::TageScL(boxed) => {
                let $p = &mut **boxed;
                $body
            }
            PredictorDispatch::Static($p) => $body,
        }
    };
}

/// The shared-reference sibling of `with_concrete!` for the `&self`
/// accessors (`storage_bits`, `name`).
macro_rules! with_concrete_ref {
    ($dispatch:expr, |$p:ident| $body:expr) => {
        match $dispatch {
            PredictorDispatch::Tournament($p) => $body,
            PredictorDispatch::TageScL(boxed) => {
                let $p = &**boxed;
                $body
            }
            PredictorDispatch::Static($p) => $body,
        }
    };
}

impl PredictorDispatch {
    /// Runs [`BranchPredictor::predict_update_batch`] against the
    /// concrete predictor: one dispatch for the whole batch, so a replay
    /// loop that hands the predictor an entire chunk's branch runs pays
    /// the match once per batch instead of once per branch.
    #[inline]
    pub fn visit_batch(&mut self, reqs: &[BranchReq], out: &mut [bool]) {
        with_concrete!(self, |p| p.predict_update_batch(reqs, out))
    }
}

impl BranchPredictor for PredictorDispatch {
    #[inline]
    fn predict(&mut self, pc: u64) -> bool {
        with_concrete!(self, |p| p.predict(pc))
    }

    #[inline]
    fn update(&mut self, pc: u64, taken: bool) {
        with_concrete!(self, |p| p.update(pc, taken))
    }

    #[inline]
    fn predict_and_update(&mut self, req: BranchReq) -> bool {
        // One match for the whole per-branch pair; each arm resolves to
        // the concrete type's (default) predict-then-update body.
        with_concrete!(self, |p| p.predict_and_update(req))
    }

    #[inline]
    fn predict_update_batch(&mut self, reqs: &[BranchReq], out: &mut [bool]) {
        self.visit_batch(reqs, out);
    }

    fn storage_bits(&self) -> usize {
        with_concrete_ref!(self, |p| p.storage_bits())
    }

    fn name(&self) -> &'static str {
        with_concrete_ref!(self, |p| p.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Any (pc, taken) sequence must drive the dispatch enum and the
    /// boxed trait object to identical predictions.
    fn lockstep(mut a: PredictorDispatch, mut b: Box<dyn BranchPredictor>) {
        let mut x = 0x9E3779B97F4A7C15u64;
        for i in 0..5000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let pc = (x >> 32) % 97;
            let taken = (x & 3) != 0 || i % 7 == 0;
            assert_eq!(a.predict(pc), b.predict(pc), "iteration {i}");
            a.update(pc, taken);
            b.update(pc, taken);
        }
    }

    #[test]
    fn dispatch_matches_dyn_tournament() {
        lockstep(
            PredictorDispatch::from(Tournament::default()),
            Box::new(Tournament::default()),
        );
    }

    #[test]
    fn dispatch_matches_dyn_tage() {
        lockstep(
            PredictorDispatch::from(TageScL::default()),
            Box::new(TageScL::default()),
        );
    }

    #[test]
    fn dispatch_matches_dyn_static() {
        lockstep(
            PredictorDispatch::from(StaticPredictor::not_taken()),
            Box::new(StaticPredictor::not_taken()),
        );
    }

    #[test]
    fn names_and_budgets_pass_through() {
        let t = PredictorDispatch::from(Tournament::default());
        assert_eq!(t.name(), "tournament");
        assert_eq!(t.storage_bits(), Tournament::default().storage_bits());
        assert_eq!(
            PredictorDispatch::from(StaticPredictor::taken()).storage_bits(),
            0
        );
    }
}
