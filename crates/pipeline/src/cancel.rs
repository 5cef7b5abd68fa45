//! Cooperative cancellation for long-running simulation work.
//!
//! A [`CancelToken`] is a cheap, cloneable handle (an `Arc` around an
//! atomic flag plus an optional hard deadline) that a driver hands to
//! in-flight work. The pipeline's loops — trace capture, convoy
//! streaming, replay drains and the reference engine — poll the token
//! before their first chunk and between chunks (every ~64 Ki
//! instructions for the chunkless reference loop), so a cancelled cell
//! stops within one chunk of work instead of running to completion.
//! Cancellation surfaces as
//! [`EmuError::Cancelled`], which propagates through the same error
//! paths as any emulator fault and therefore participates in the
//! harness's retry/degradation cascade unchanged.
//!
//! Tokens are delivered to the pipeline through a thread-local scope
//! rather than threaded through every simulation signature:
//! [`CancelScope::enter`] installs a token for the current thread (and
//! restores the previous one on drop), and [`check_current`] is the
//! poll the hot loops call. With no scope installed the poll is a
//! single thread-local read that always succeeds, so unsupervised
//! callers pay ~nothing.
//!
//! Tokens form a parent/child tree: a request-level token (carrying
//! the request deadline) parents the per-attempt tokens the supervisor
//! mints (carrying the per-cell deadline), and cancelling the parent
//! cancels every child.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::machine::EmuError;

/// Cancellation poll cadence of the chunkless hot loops (the reference
/// engine and block-compiled capture): cheap relative to ~64 Ki
/// instructions of work, frequent enough that a cancelled cell stops
/// within one trace chunk's worth of instructions.
pub(crate) const CANCEL_STRIDE: u64 = 1 << 16;

#[derive(Debug, Default)]
struct Inner {
    cancelled: AtomicBool,
    /// Set once, by whoever cancels first; read for the error message.
    reason: Mutex<Option<String>>,
    /// Hard deadline: `(fires_at, budget)` — the budget is kept only
    /// for the "deadline exceeded (250ms)" message.
    deadline: Option<(Instant, Duration)>,
    parent: Option<CancelToken>,
}

/// A cloneable cancellation handle. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A token that only cancels when [`cancel`](CancelToken::cancel)
    /// is called.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// A token that additionally self-cancels `budget` from now.
    pub fn with_deadline(budget: Duration) -> CancelToken {
        CancelToken {
            inner: Arc::new(Inner {
                deadline: Some((Instant::now() + budget, budget)),
                ..Inner::default()
            }),
        }
    }

    /// A child of this token: cancelled when the parent is, with an
    /// optional deadline of its own (`budget` from now).
    pub fn child(&self, budget: Option<Duration>) -> CancelToken {
        CancelToken {
            inner: Arc::new(Inner {
                deadline: budget.map(|b| (Instant::now() + b, b)),
                parent: Some(self.clone()),
                ..Inner::default()
            }),
        }
    }

    /// Cancels the token (and, transitively, every child). The first
    /// caller's `reason` wins and becomes the [`EmuError::Cancelled`]
    /// message.
    pub fn cancel(&self, reason: &str) {
        let mut guard = self
            .inner
            .reason
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if guard.is_none() {
            *guard = Some(reason.to_string());
        }
        drop(guard);
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Whether the token is cancelled — explicitly, by an ancestor, or
    /// by its deadline having passed (which latches the flag and the
    /// reason on first observation).
    pub fn is_cancelled(&self) -> bool {
        if self.inner.cancelled.load(Ordering::Acquire) {
            return true;
        }
        if let Some((at, budget)) = self.inner.deadline {
            if Instant::now() >= at {
                self.cancel(&format!("deadline exceeded ({budget:?})"));
                return true;
            }
        }
        match &self.inner.parent {
            Some(p) if p.is_cancelled() => {
                self.cancel(&p.reason());
                true
            }
            _ => false,
        }
    }

    /// Whether this token's own deadline (not an ancestor's) has
    /// passed. Used by the supervisor to flag over-deadline cells even
    /// when the body completed without ever polling.
    pub fn deadline_passed(&self) -> bool {
        self.inner
            .deadline
            .is_some_and(|(at, _)| Instant::now() >= at)
    }

    /// The cancellation reason (empty string when not cancelled).
    pub fn reason(&self) -> String {
        self.inner
            .reason
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
            .unwrap_or_default()
    }

    /// `Ok(())` while live; [`EmuError::Cancelled`] once cancelled.
    ///
    /// # Errors
    ///
    /// [`EmuError::Cancelled`] carrying the cancellation reason.
    pub fn check(&self) -> Result<(), EmuError> {
        if self.is_cancelled() {
            return Err(EmuError::Cancelled {
                reason: self.reason(),
            });
        }
        Ok(())
    }
}

thread_local! {
    /// The token the pipeline loops on this thread poll, if any.
    static CURRENT: RefCell<Option<CancelToken>> = const { RefCell::new(None) };
}

/// RAII guard installing a token as the current thread's cancellation
/// scope; the previous scope (if any) is restored on drop, so scopes
/// nest.
#[derive(Debug)]
pub struct CancelScope {
    prev: Option<CancelToken>,
}

impl CancelScope {
    /// Installs `token` for the current thread until the guard drops.
    pub fn enter(token: CancelToken) -> CancelScope {
        let prev = CURRENT.with(|c| c.borrow_mut().replace(token));
        CancelScope { prev }
    }
}

impl Drop for CancelScope {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.prev.take());
    }
}

/// The current thread's token, if a [`CancelScope`] is active.
pub fn current() -> Option<CancelToken> {
    CURRENT.with(|c| c.borrow().clone())
}

/// The poll the pipeline's chunk loops call: `Ok(())` when no scope is
/// installed or the scope's token is live, [`EmuError::Cancelled`]
/// otherwise.
///
/// # Errors
///
/// [`EmuError::Cancelled`] when the installed token is cancelled.
pub fn check_current() -> Result<(), EmuError> {
    CURRENT.with(|c| match &*c.borrow() {
        Some(token) => token.check(),
        None => Ok(()),
    })
}

/// The `cancel.spurious` failpoint: rolls the current fault plan and,
/// on a hit, cancels the current scope's token with a reason naming the
/// injected site — so torture runs exercise the cancellation path and
/// the structured-error contract still attributes the failure to an
/// injected fault. A no-op without an active scope or armed plan.
pub fn inject_spurious(salt: &[u64]) {
    if probranch_faults::injected(probranch_faults::Site::CancelSpurious, salt) {
        if let Some(token) = current() {
            token.cancel("injected fault: cancel.spurious");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_tokens_are_live_and_cancel_latches_a_reason() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert!(t.check().is_ok());
        t.cancel("first");
        t.cancel("second");
        assert!(t.is_cancelled());
        assert_eq!(t.reason(), "first");
        assert_eq!(
            t.check(),
            Err(EmuError::Cancelled {
                reason: "first".into()
            })
        );
    }

    #[test]
    fn deadlines_latch_and_name_the_budget() {
        let t = CancelToken::with_deadline(Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(5));
        assert!(t.is_cancelled());
        assert!(t.deadline_passed());
        assert!(t.reason().contains("deadline exceeded"));
        let far = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!far.is_cancelled() && !far.deadline_passed());
    }

    #[test]
    fn children_inherit_parent_cancellation() {
        let parent = CancelToken::new();
        let child = parent.child(None);
        assert!(!child.is_cancelled());
        parent.cancel("parent gone");
        assert!(child.is_cancelled());
        assert_eq!(child.reason(), "parent gone");
        // A child deadline does not cancel the parent.
        let strict_child = parent.child(Some(Duration::from_secs(3600)));
        assert!(strict_child.is_cancelled(), "parent already cancelled");
    }

    #[test]
    fn scopes_nest_and_restore() {
        assert!(current().is_none());
        assert!(check_current().is_ok());
        let outer = CancelToken::new();
        let _a = CancelScope::enter(outer.clone());
        {
            let inner = CancelToken::new();
            let _b = CancelScope::enter(inner.clone());
            inner.cancel("inner");
            assert!(check_current().is_err());
        }
        // Back to the outer scope, which is still live.
        assert!(check_current().is_ok());
        outer.cancel("outer");
        assert!(check_current().is_err());
        drop(_a);
        assert!(current().is_none());
    }
}
