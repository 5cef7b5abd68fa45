//! Supervised cell execution: per-cell panic isolation, a fixed four
//! attempts per cell, and structured failure reporting.
//!
//! [`run_cells`](crate::run_cells) keeps the engine's original
//! contract — a panic anywhere tears down the whole grid — which is
//! right for tests and wrong for a long sweep: one poisoned cell (an
//! injected fault, a pathological workload, a broken trace file)
//! should cost *that cell* a retry, not the other several hundred
//! cells their results. [`run_cells_supervised`] runs a per-cell
//! attempt loop as the body of a `run_cells` grid: it wraps each
//! attempt in `catch_unwind` and re-runs a failed cell until it has had
//! four attempts, passing the attempt ordinal so deterministic fault
//! schedules re-roll and the degradation cascade can switch engines
//! (the requested engine twice, then the reference engine twice). Workers, claims and the cell-index-order merge are
//! `run_cells`'s own, so a supervised run is **byte-identical to an
//! unsupervised run whenever every cell eventually succeeds**, because
//! a retried cell recomputes the same pure function of the same cell
//! identity.
//!
//! Every attempt runs under a fresh [`CancelToken`], a child of
//! whatever [`cancel::current`] scope the caller installed (a served
//! request's token, carrying its `deadline-ms`). The pipeline's chunk
//! loops poll it, so a cancelled attempt stops within one chunk of work
//! and fails with a structured `cancelled: …` message. A cancel aimed
//! at one attempt (the `cancel.spurious` failpoint) costs that attempt
//! a retry; a cancelled caller scope fails the cell at once, since
//! every retry would be cancelled too.
//!
//! When a cell exhausts its attempts the whole run returns a
//! [`SupervisedError`] naming the cell and carrying every attempt's
//! panic message — the structured, attributable form the `figures`
//! binary turns into a non-zero exit instead of an abort trace.

use std::panic::AssertUnwindSafe;
use std::sync::{Mutex, PoisonError};

use probranch_pipeline::cancel::{self, CancelScope, CancelToken};

use crate::{lock_ignore_poison, run_cells, Jobs};

/// Attempts per supervised cell: the requested engine twice, then the
/// reference engine twice.
const ATTEMPTS: u32 = 4;

/// One attempt at one cell, handed to the cell body: the ordinal
/// drives fault re-rolls and engine cascades, and the body labels the
/// attempt with whatever engine it actually used so outcomes stay
/// attributable.
#[derive(Debug)]
pub struct Attempt {
    /// 0-based attempt ordinal (0 is the clean first try).
    pub number: u32,
    label: std::cell::Cell<&'static str>,
}

impl Attempt {
    fn new(number: u32) -> Attempt {
        Attempt {
            number,
            label: std::cell::Cell::new(""),
        }
    }

    /// Records which engine/path this attempt used (shows up in the
    /// cell's [`CellOutcome`]).
    pub fn set_label(&self, label: &'static str) {
        self.label.set(label);
    }
}

/// What happened to one supervised cell that did *not* sail through on
/// its first attempt: how many attempts it took, the label its final
/// attempt set, and every failed attempt's panic message.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// The cell's grid index.
    pub index: usize,
    /// Attempts consumed (1 = clean first try).
    pub attempts: u32,
    /// The label the successful attempt set via [`Attempt::set_label`]
    /// (empty when the body never labelled itself).
    pub label: &'static str,
    /// Panic messages of the failed attempts, in attempt order.
    pub failures: Vec<String>,
}

/// The structured failure of a supervised run: the first cell (in
/// claim order) that exhausted every attempt.
#[derive(Debug, Clone)]
pub struct SupervisedError {
    /// The failing cell's grid index.
    pub index: usize,
    /// Attempts consumed before giving up.
    pub attempts: u32,
    /// Panic messages of every failed attempt, in attempt order.
    pub failures: Vec<String>,
}

impl std::fmt::Display for SupervisedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cell {} failed after {} attempt{}: {}",
            self.index,
            self.attempts,
            if self.attempts == 1 { "" } else { "s" },
            self.failures.last().map_or("unknown", |s| s.as_str())
        )
    }
}

impl std::error::Error for SupervisedError {}

/// A completed supervised run: results in cell-index order plus the
/// outcome records of every cell that needed supervision (retried or
/// degraded) — clean cells stay silent.
#[derive(Debug)]
pub struct SupervisedRun<R> {
    /// Per-cell results, index order, byte-identical to an
    /// unsupervised run of the same grid.
    pub results: Vec<R>,
    /// Outcomes of the non-clean cells, in cell-index order.
    pub outcomes: Vec<CellOutcome>,
}

impl<R> SupervisedRun<R> {
    /// Cells that needed more than one attempt.
    pub fn retried(&self) -> usize {
        self.outcomes.iter().filter(|o| o.attempts > 1).count()
    }

    /// Cells whose final attempt ran under a fallback label (the body
    /// marked itself as degraded via [`Attempt::set_label`]).
    pub fn degraded(&self) -> usize {
        self.outcomes.iter().filter(|o| !o.label.is_empty()).count()
    }
}

thread_local! {
    /// Set while a supervised attempt is in flight on this thread: the
    /// wrapped panic hook stays silent for panics supervision is about
    /// to catch and handle.
    static QUIET: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Wraps the process panic hook (once) so supervised attempts and a
/// [`SupervisedError`] raised as a panic payload do not spray abort
/// traces for failures the harness catches and reports in structured
/// form.
fn install_quiet_panic_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().is::<SupervisedError>() || QUIET.with(|q| q.get()) {
                return;
            }
            prev(info);
        }));
    });
}

/// The panic payload as a human-readable message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one closure per cell across `jobs` workers with per-cell panic
/// isolation and up to four attempts per cell; results return
/// **in cell-index order**. The per-cell attempt loop runs as the body
/// of a [`run_cells`] grid, so worker spawning, index claiming and the
/// index-order merge are `run_cells`'s own: one worker runs the cells
/// on the caller's thread.
///
/// Each attempt receives an [`Attempt`] carrying its 0-based ordinal:
/// deterministic fault schedules salt on it (so retries re-roll) and
/// degradation cascades key engine choice off it. A panicking attempt
/// is caught and the cell runs again until it has had four attempts.
/// Once any cell exhausts its attempts, cells claimed after it return
/// without running, and the run returns that cell's
/// [`SupervisedError`]; sibling cells already in flight finish normally
/// (they are never torn down mid-simulation).
///
/// Every attempt runs under its own [`CancelToken`], a child of the
/// caller's [`cancel::current`] scope (if any) so an outer request
/// token — a service deadline, a drained connection — cancels cells
/// here too, and fails a cell without retrying it.
///
/// # Errors
///
/// The first claimed cell to exhaust its attempts, as a
/// [`SupervisedError`].
pub fn run_cells_supervised<T, R, F>(
    cells: &[T],
    jobs: Jobs,
    run: F,
) -> Result<SupervisedRun<R>, SupervisedError>
where
    T: Sync,
    R: Send,
    F: Fn(&T, &Attempt) -> R + Sync,
{
    install_quiet_panic_hook();
    // The caller's cancel scope (a service request token, say) parents
    // every attempt token, so cancelling it cancels the whole grid.
    let parent = cancel::current();
    let error: Mutex<Option<SupervisedError>> = Mutex::new(None);
    let indices: Vec<usize> = (0..cells.len()).collect();
    let done = run_cells(&indices, jobs, |&i| {
        // A fatal cell stops the grid: cells claimed after it stay
        // unrun.
        if lock_ignore_poison(&error).is_some() {
            return None;
        }
        match supervise_cell(i, &cells[i], parent.as_ref(), &run) {
            Ok(done) => Some(done),
            Err(e) => {
                lock_ignore_poison(&error).get_or_insert(e);
                None
            }
        }
    });
    if let Some(e) = error.into_inner().unwrap_or_else(PoisonError::into_inner) {
        return Err(e);
    }
    // No cell failed, so every cell ran and returned its result.
    let (results, outcomes): (Vec<R>, Vec<Option<CellOutcome>>) =
        done.into_iter().flatten().unzip();
    Ok(SupervisedRun {
        results,
        outcomes: outcomes.into_iter().flatten().collect(),
    })
}

/// The attempt loop of cell `index`: its result with its outcome
/// record, if it did not sail through on its first attempt, or its
/// [`SupervisedError`] once it has exhausted its attempts.
fn supervise_cell<T, R>(
    index: usize,
    cell: &T,
    parent: Option<&CancelToken>,
    run: &impl Fn(&T, &Attempt) -> R,
) -> Result<(R, Option<CellOutcome>), SupervisedError> {
    let mut failures: Vec<String> = Vec::new();
    let mut a = 0;
    loop {
        // A fresh token per attempt, so a cancel aimed at one attempt
        // leaves the next one live.
        let token = parent.map_or_else(CancelToken::new, CancelToken::child);
        let attempt = Attempt::new(a);
        let quiet = QUIET.replace(true);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _scope = CancelScope::enter(token);
            run(cell, &attempt)
        }));
        QUIET.set(quiet);
        match caught {
            Ok(r) => {
                let label = attempt.label.get();
                let outcome = (a > 0 || !label.is_empty()).then(|| CellOutcome {
                    index,
                    attempts: a + 1,
                    label,
                    failures,
                });
                return Ok((r, outcome));
            }
            Err(payload) => {
                failures.push(panic_message(payload));
                // Out of attempts — or retrying cannot help: an outer
                // cancellation (not this attempt's own token) dooms
                // every retry too.
                if a + 1 == ATTEMPTS || parent.is_some_and(CancelToken::is_cancelled) {
                    return Err(SupervisedError {
                        index,
                        attempts: a + 1,
                        failures,
                    });
                }
            }
        }
        a += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use probranch_faults as faults;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn clean_runs_match_the_plain_driver() {
        let cells: Vec<u64> = (0..64).collect();
        let run = run_cells_supervised(&cells, Jobs::new(4), |&c, _| c * 7).expect("clean run");
        assert_eq!(
            run.results,
            crate::run_cells(&cells, Jobs::serial(), |&c| c * 7)
        );
        assert!(run.outcomes.is_empty(), "clean cells report no outcomes");
        assert_eq!((run.retried(), run.degraded()), (0, 0));
    }

    #[test]
    fn a_panicking_cell_is_retried_not_fatal_and_siblings_survive() {
        // Cell 13 fails all but its last attempt.
        let cells: Vec<u64> = (0..32).collect();
        let tries = AtomicU32::new(0);
        let run = run_cells_supervised(&cells, Jobs::new(4), |&c, attempt| {
            if c == 13 && attempt.number + 1 < ATTEMPTS {
                tries.fetch_add(1, Ordering::Relaxed);
                panic!("transient failure on cell 13");
            }
            if c == 13 {
                attempt.set_label("fallback");
            }
            c + 1
        })
        .expect("retries must rescue the cell");
        assert_eq!(run.results, (1..=32).collect::<Vec<u64>>());
        assert_eq!(tries.load(Ordering::Relaxed), 3);
        assert_eq!(run.outcomes.len(), 1);
        let o = &run.outcomes[0];
        assert_eq!((o.index, o.attempts, o.label), (13, 4, "fallback"));
        assert_eq!(o.failures.len(), 3);
        assert!(o.failures[0].contains("transient failure"));
        assert_eq!((run.retried(), run.degraded()), (1, 1));
    }

    #[test]
    fn exhausted_retries_return_a_structured_error() {
        for jobs in [Jobs::serial(), Jobs::new(4)] {
            let cells: Vec<u64> = (0..8).collect();
            let calls: Vec<AtomicU32> = cells.iter().map(|_| AtomicU32::new(0)).collect();
            let err = run_cells_supervised(&cells, jobs, |&c, _| {
                calls[c as usize].fetch_add(1, Ordering::Relaxed);
                if c == 3 {
                    panic!("cell 3 is cursed");
                }
                c
            })
            .expect_err("an always-failing cell must fail the run");
            assert_eq!((err.index, err.attempts), (3, 4));
            assert_eq!(err.failures.len(), 4);
            assert!(err.to_string().contains("cell 3 failed after 4 attempts"));
            assert!(err.to_string().contains("cursed"));
            let calls: Vec<u32> = calls.iter().map(|c| c.load(Ordering::Relaxed)).collect();
            assert_eq!(calls[3], 4, "every attempt of the failing cell ran");
            if jobs == Jobs::serial() {
                // The cells before it ran once each; no cell after it
                // ran at all.
                assert_eq!(
                    calls,
                    [1, 1, 1, 4, 0, 0, 0, 0],
                    "cells after the fatal one never run"
                );
            }
        }
    }

    #[test]
    fn polling_bodies_cancelled_on_their_own_token_can_retry() {
        // The `cancel.spurious` failpoint, armed once, cancels cell 1's
        // first attempt mid-poll. The attempt fails with a structured
        // cancellation, the retry runs under a fresh token and rescues
        // the cell, and the caller's scope stays live.
        let _plan = faults::PlanScope::enter(faults::FaultPlan::seeded(1).arm_capped(
            faults::Site::CancelSpurious,
            1.0,
            1,
        ));
        let request = CancelToken::new();
        let _scope = CancelScope::enter(request.clone());
        let cells: Vec<u64> = (0..4).collect();
        let run = run_cells_supervised(&cells, Jobs::new(2), |&c, attempt| {
            if c == 1 {
                cancel::inject_spurious(&[c, u64::from(attempt.number)]);
                cancel::check_current().unwrap_or_else(|e| panic!("cell: {e}"));
            }
            c + 10
        })
        .expect("the retry must rescue the cancelled cell");
        assert_eq!(run.results, vec![10, 11, 12, 13]);
        assert_eq!(run.retried(), 1);
        let o = run.outcomes.iter().find(|o| o.index == 1).expect("outcome");
        assert_eq!(o.attempts, 2);
        assert!(
            o.failures[0].contains("cancelled: injected fault: cancel.spurious"),
            "structured cancellation, got: {}",
            o.failures[0]
        );
        assert!(!request.is_cancelled(), "one attempt, not the request");
        assert_eq!(faults::hits(), vec![(faults::Site::CancelSpurious, 1)]);
    }

    #[test]
    fn an_outer_cancel_scope_cancels_the_grid_without_retry_burn() {
        let outer = CancelToken::new();
        outer.cancel("request dropped");
        let _scope = CancelScope::enter(outer);
        for jobs in [Jobs::serial(), Jobs::new(4)] {
            let cells: Vec<u64> = (0..4).collect();
            let attempts_seen: Vec<AtomicU32> = cells.iter().map(|_| AtomicU32::new(0)).collect();
            let err = run_cells_supervised(&cells, jobs, |&c, _| {
                attempts_seen[c as usize].fetch_add(1, Ordering::Relaxed);
                cancel::check_current().unwrap_or_else(|e| panic!("cell: {e}"));
                c
            })
            .expect_err("a cancelled parent fails the run");
            assert!(err.failures[0].contains("cancelled: request dropped"));
            assert_eq!(
                err.attempts, 1,
                "jobs {jobs}: no retry under a cancelled parent"
            );
            let seen: Vec<u32> = attempts_seen
                .iter()
                .map(|a| a.load(Ordering::Relaxed))
                .collect();
            assert!(
                seen.iter().all(|&n| n <= 1),
                "retries are pointless under a cancelled parent: {seen:?} at jobs {jobs}"
            );
            if jobs == Jobs::serial() {
                assert_eq!(seen, [1, 0, 0, 0], "no cell runs after the first failure");
            }
        }
    }

    #[test]
    fn retried_results_stay_byte_identical_to_clean() {
        // The core guarantee: a cell that fails transiently and retries
        // computes the same pure function — the merged output cannot
        // tell supervision happened.
        let cells: Vec<u64> = (0..40).collect();
        let work = |c: u64| {
            let mut acc = c;
            for _ in 0..100 {
                acc = acc
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
            }
            acc
        };
        let clean = crate::run_cells(&cells, Jobs::serial(), |&c| work(c));
        let faulty = run_cells_supervised(&cells, Jobs::new(4), |&c, attempt| {
            // Every third cell fails its first two attempts.
            if c % 3 == 0 && attempt.number < 2 {
                panic!("injected transient");
            }
            work(c)
        })
        .expect("all cells rescued");
        assert_eq!(faulty.results, clean);
        assert_eq!(
            faulty.retried(),
            cells.iter().filter(|c| *c % 3 == 0).count()
        );
    }

    #[test]
    fn empty_grids_are_fine() {
        let run = run_cells_supervised(&[] as &[u8], Jobs::new(4), |_, _| 0u8).expect("empty grid");
        assert!(run.results.is_empty() && run.outcomes.is_empty());
    }
}
