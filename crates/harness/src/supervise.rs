//! Supervised cell execution: per-cell panic isolation, bounded
//! retries, hard per-cell deadlines via cooperative cancellation, and
//! structured failure reporting.
//!
//! [`run_cells`](crate::run_cells) keeps the engine's original
//! contract — a panic anywhere tears down the whole grid — which is
//! right for tests and wrong for a long sweep: one poisoned cell (an
//! injected fault, a pathological workload, a broken trace file)
//! should cost *that cell* a retry, not the other several hundred
//! cells their results. [`run_cells_supervised`] runs a per-cell
//! attempt loop as the body of a `run_cells` grid: it wraps each
//! attempt in `catch_unwind`, re-runs failed cells up to a retry budget
//! (passing the attempt ordinal so deterministic fault schedules
//! re-roll and degradation cascades can switch engines), and cancels
//! attempts that overrun the per-cell deadline. Workers, claims and the
//! cell-index-order merge are `run_cells`'s own, so a supervised run is
//! **byte-identical to an unsupervised run whenever every cell
//! eventually succeeds**, because a retried cell recomputes the same
//! pure function of the same cell identity.
//!
//! Deadlines are enforced through [`CancelToken`]s: every attempt
//! runs under a fresh token (child of whatever [`cancel::current`]
//! scope the caller installed — e.g. a sweep-service request token
//! carrying the request deadline) and the pipeline's chunk loops poll
//! it, so an over-deadline cell stops within one chunk of work and
//! fails with a structured `cancelled: deadline exceeded (…)` message
//! that participates in the retry cascade. A body that never polls
//! (pure computation outside the pipeline) still completes and is
//! merely flagged over-deadline.
//!
//! When a cell exhausts its attempts the whole run returns a
//! [`SupervisedError`] naming the cell and carrying every attempt's
//! panic message — the structured, attributable form the `figures`
//! binary turns into a non-zero exit instead of an abort trace.

use std::panic::AssertUnwindSafe;
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use probranch_pipeline::cancel::{self, CancelScope, CancelToken};

use crate::{lock_ignore_poison, run_cells, Jobs};

/// A strict-mode violation: some degradation path (trace quarantine,
/// persistence shutdown, engine fallback) fired while `--strict-traces`
/// demanded hard failure. Raised via [`std::panic::panic_any`] so it
/// crosses cell bodies like any panic, but typed so supervision knows
/// not to retry (strict violations are deterministic) and the panic
/// hook knows not to print an abort trace for it.
#[derive(Debug, Clone)]
pub struct StrictViolation(pub String);

impl std::fmt::Display for StrictViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "strict-traces violation: {}", self.0)
    }
}

/// Retry and deadline policy for [`run_cells_supervised`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Supervision {
    /// Extra attempts after the first (0 = fail on first panic).
    pub retries: u32,
    /// Per-cell, per-attempt deadline, enforced by cooperative
    /// cancellation: each attempt runs under a [`CancelToken`] with
    /// this budget, which the pipeline's chunk loops poll — an
    /// overrunning attempt stops within one chunk and fails with a
    /// structured `deadline exceeded` message (retryable like any
    /// other failure). Bodies that never reach a poll point still
    /// complete and are only flagged in their [`CellOutcome`].
    pub deadline: Option<Duration>,
}

impl Supervision {
    /// No supervision: first panic fails the run (still structured —
    /// the panic is caught and reported, not propagated raw).
    pub fn none() -> Supervision {
        Supervision {
            retries: 0,
            deadline: None,
        }
    }

    /// The default robustness envelope: up to 4 attempts per cell
    /// (requested engine twice, then the reference engine twice), no
    /// deadline.
    pub fn default_robust() -> Supervision {
        Supervision {
            retries: 3,
            deadline: None,
        }
    }

    /// This policy with a per-cell hard deadline (cooperatively
    /// enforced; see [`Supervision::deadline`]).
    pub fn with_deadline(mut self, deadline: Duration) -> Supervision {
        self.deadline = Some(deadline);
        self
    }

    /// This policy with a retry budget.
    pub fn with_retries(mut self, retries: u32) -> Supervision {
        self.retries = retries;
        self
    }
}

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
/// attempt set, whether it overran the deadline, and every failed
/// attempt's panic message.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// The cell's grid index.
    pub index: usize,
    /// Attempts consumed (1 = clean first try).
    pub attempts: u32,
    /// The label the successful attempt set via [`Attempt::set_label`]
    /// (empty when the body never labelled itself).
    pub label: &'static str,
    /// Whether any attempt of this cell ran past the deadline (and was
    /// cancelled at its next poll point, or completed without polling).
    pub over_deadline: bool,
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
    /// Whether the failure is a [`StrictViolation`] (never retried).
    pub strict: bool,
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
/// outcome records of every cell that needed supervision (retried,
/// degraded, or overran its deadline) — clean cells stay silent.
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

    /// Cells the watchdog flagged as over-deadline.
    pub fn over_deadline(&self) -> usize {
        self.outcomes.iter().filter(|o| o.over_deadline).count()
    }
}

thread_local! {
    /// Set while a supervised attempt is in flight on this thread: the
    /// wrapped panic hook stays silent for panics supervision is about
    /// to catch and handle.
    static QUIET: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Wraps the process panic hook (once) so supervised attempts and
/// typed control-flow panics ([`StrictViolation`], [`SupervisedError`])
/// do not spray abort traces for failures the harness catches and
/// reports in structured form.
pub fn install_quiet_panic_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let typed =
                info.payload().is::<StrictViolation>() || info.payload().is::<SupervisedError>();
            if typed || QUIET.with(|q| q.get()) {
                return;
            }
            prev(info);
        }));
    });
}

/// The panic payload as a human-readable message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> (String, bool) {
    if let Some(v) = payload.downcast_ref::<StrictViolation>() {
        return (v.to_string(), true);
    }
    let msg = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    };
    (msg, false)
}

/// Runs one closure per cell across `jobs` workers with per-cell panic
/// isolation, bounded retries and an optional hard (cooperatively
/// cancelled) per-attempt deadline; results return **in cell-index
/// order**. The per-cell attempt loop runs as the body of a
/// [`run_cells`] grid, so worker spawning, index claiming and the
/// index-order merge are `run_cells`'s own: one worker runs the cells
/// on the caller's thread.
///
/// Each attempt receives an [`Attempt`] carrying its 0-based ordinal:
/// deterministic fault schedules salt on it (so retries re-roll) and
/// degradation cascades key engine choice off it. A panicking attempt
/// is caught and retried up to `sup.retries` times; a
/// [`StrictViolation`] payload is never retried. Once any cell
/// exhausts its attempts, cells claimed after it return without
/// running, and the run returns that cell's [`SupervisedError`];
/// sibling cells already in flight finish normally (they are never
/// torn down mid-simulation).
///
/// Every attempt runs under its own [`CancelToken`], a child of the
/// caller's [`cancel::current`] scope (if any) so an outer request
/// token — a service deadline, a drained connection — cancels cells
/// here too. With `sup.deadline` set the attempt token self-cancels
/// after that budget; the pipeline's chunk loops turn that into a
/// structured `cancelled: deadline exceeded (…)` failure.
///
/// # Errors
///
/// The first claimed cell to exhaust its attempts, as a
/// [`SupervisedError`].
pub fn run_cells_supervised<T, R, F>(
    cells: &[T],
    jobs: Jobs,
    sup: Supervision,
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
        match supervise_cell(i, &cells[i], sup, parent.as_ref(), &run) {
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
    sup: Supervision,
    parent: Option<&CancelToken>,
    run: &impl Fn(&T, &Attempt) -> R,
) -> Result<(R, Option<CellOutcome>), SupervisedError> {
    let mut failures: Vec<String> = Vec::new();
    let mut over = false;
    let mut a = 0;
    loop {
        // A fresh token per attempt: each retry gets the full deadline
        // budget again.
        let token = match parent {
            Some(p) => p.child(sup.deadline),
            None => match sup.deadline {
                Some(d) => CancelToken::with_deadline(d),
                None => CancelToken::new(),
            },
        };
        let attempt = Attempt::new(a);
        let quiet = QUIET.replace(true);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _scope = CancelScope::enter(token.clone());
            run(cell, &attempt)
        }));
        QUIET.set(quiet);
        if token.deadline_passed() && !over {
            over = true;
            eprintln!(
                "warning: cell {index} exceeded deadline ({:?}); cancelled at its next poll point",
                sup.deadline.unwrap_or_default()
            );
        }
        match caught {
            Ok(r) => {
                let label = attempt.label.get();
                let outcome = (a > 0 || over || !label.is_empty()).then(|| CellOutcome {
                    index,
                    attempts: a + 1,
                    label,
                    over_deadline: over,
                    failures,
                });
                return Ok((r, outcome));
            }
            Err(payload) => {
                let (msg, strict) = panic_message(payload);
                failures.push(msg);
                // Out of retries — or retrying cannot help: a strict
                // violation is deterministic by definition, and an
                // outer cancellation (not this attempt's own deadline)
                // dooms every retry too.
                if a == sup.retries || strict || parent.is_some_and(CancelToken::is_cancelled) {
                    return Err(SupervisedError {
                        index,
                        attempts: a + 1,
                        failures,
                        strict,
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
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn clean_runs_match_the_plain_driver() {
        let cells: Vec<u64> = (0..64).collect();
        let sup = Supervision::default_robust();
        let run =
            run_cells_supervised(&cells, Jobs::new(4), sup, |&c, _| c * 7).expect("clean run");
        assert_eq!(
            run.results,
            crate::run_cells(&cells, Jobs::serial(), |&c| c * 7)
        );
        assert!(run.outcomes.is_empty(), "clean cells report no outcomes");
        assert_eq!(
            (run.retried(), run.degraded(), run.over_deadline()),
            (0, 0, 0)
        );
    }

    #[test]
    fn a_panicking_cell_is_retried_not_fatal_and_siblings_survive() {
        let cells: Vec<u64> = (0..32).collect();
        let tries = AtomicU32::new(0);
        let sup = Supervision::none().with_retries(2);
        let run = run_cells_supervised(&cells, Jobs::new(4), sup, |&c, attempt| {
            if c == 13 && attempt.number < 2 {
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
        assert_eq!(tries.load(Ordering::Relaxed), 2);
        assert_eq!(run.outcomes.len(), 1);
        let o = &run.outcomes[0];
        assert_eq!((o.index, o.attempts, o.label), (13, 3, "fallback"));
        assert_eq!(o.failures.len(), 2);
        assert!(o.failures[0].contains("transient failure"));
        assert_eq!((run.retried(), run.degraded()), (1, 1));
    }

    #[test]
    fn exhausted_retries_return_a_structured_error() {
        for jobs in [Jobs::serial(), Jobs::new(4)] {
            let cells: Vec<u64> = (0..8).collect();
            let calls: Vec<AtomicU32> = cells.iter().map(|_| AtomicU32::new(0)).collect();
            let sup = Supervision::none().with_retries(1);
            let err = run_cells_supervised(&cells, jobs, sup, |&c, _| {
                calls[c as usize].fetch_add(1, Ordering::Relaxed);
                if c == 3 {
                    panic!("cell 3 is cursed");
                }
                c
            })
            .expect_err("an always-failing cell must fail the run");
            assert_eq!((err.index, err.attempts, err.strict), (3, 2, false));
            assert_eq!(err.failures.len(), 2);
            assert!(err.to_string().contains("cell 3 failed after 2 attempts"));
            assert!(err.to_string().contains("cursed"));
            let calls: Vec<u32> = calls.iter().map(|c| c.load(Ordering::Relaxed)).collect();
            assert_eq!(calls[3], 2, "every attempt of the failing cell ran");
            if jobs == Jobs::serial() {
                // The cells before it ran once each; no cell after it
                // ran at all.
                assert_eq!(
                    calls,
                    [1, 1, 1, 2, 0, 0, 0, 0],
                    "cells after the fatal one never run"
                );
            }
        }
    }

    #[test]
    fn strict_violations_are_never_retried() {
        let cells: Vec<u64> = (0..4).collect();
        let tries = AtomicU32::new(0);
        let sup = Supervision::none().with_retries(5);
        let err = run_cells_supervised(&cells, Jobs::serial(), sup, |&c, _| {
            if c == 1 {
                tries.fetch_add(1, Ordering::Relaxed);
                std::panic::panic_any(StrictViolation("degradation forbidden".into()));
            }
            c
        })
        .expect_err("strict violations are fatal");
        assert_eq!(tries.load(Ordering::Relaxed), 1, "no retry on strict");
        assert!(err.strict);
        assert_eq!(err.attempts, 1);
        assert!(err.failures[0].contains("strict-traces violation"));
        assert!(err.failures[0].contains("degradation forbidden"));
    }

    #[test]
    fn non_polling_bodies_that_overrun_are_flagged_not_killed() {
        // A body that never reaches a cancellation poll point (pure
        // computation, sleeps) cannot be cooperatively stopped: it
        // completes, keeps its result, and is flagged over-deadline.
        let cells: Vec<u64> = (0..6).collect();
        let sup = Supervision::none().with_deadline(Duration::from_millis(5));
        let run = run_cells_supervised(&cells, Jobs::new(2), sup, |&c, _| {
            if c == 2 {
                std::thread::sleep(Duration::from_millis(40));
            }
            c * 2
        })
        .expect("slow non-polling cells still complete");
        assert_eq!(run.results, vec![0, 2, 4, 6, 8, 10]);
        assert_eq!(run.over_deadline(), 1);
        assert!(run.outcomes.iter().any(|o| o.index == 2 && o.over_deadline));
    }

    #[test]
    fn polling_bodies_are_cancelled_at_the_deadline_and_can_retry() {
        // A cooperative body (polling like the pipeline's chunk loops)
        // is actually stopped: the attempt fails with a structured
        // deadline message, and a faster retry rescues the cell.
        let cells: Vec<u64> = (0..4).collect();
        let sup = Supervision::none()
            .with_retries(1)
            .with_deadline(Duration::from_millis(10));
        let run = run_cells_supervised(&cells, Jobs::new(2), sup, |&c, attempt| {
            if c == 1 && attempt.number == 0 {
                // Simulates a runaway first attempt: chunk loop that
                // never halts on its own.
                loop {
                    cancel::check_current().unwrap_or_else(|e| panic!("cell: {e}"));
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
            c + 10
        })
        .expect("the retry must rescue the cancelled cell");
        assert_eq!(run.results, vec![10, 11, 12, 13]);
        assert_eq!(run.over_deadline(), 1);
        assert_eq!(run.retried(), 1);
        let o = run.outcomes.iter().find(|o| o.index == 1).expect("outcome");
        assert!(o.over_deadline && o.attempts == 2);
        assert!(
            o.failures[0].contains("deadline exceeded"),
            "structured deadline failure, got: {}",
            o.failures[0]
        );
    }

    #[test]
    fn exhausted_deadlines_return_a_structured_deadline_error() {
        let cells: Vec<u64> = vec![0];
        let sup = Supervision::none().with_deadline(Duration::from_millis(5));
        let err = run_cells_supervised(&cells, Jobs::serial(), sup, |_, _| loop {
            cancel::check_current().unwrap_or_else(|e| panic!("cell: {e}"));
            std::thread::sleep(Duration::from_micros(200));
        })
        .expect_err("a cell that can never meet its deadline fails the run");
        assert_eq!(err.attempts, 1);
        assert!(err.failures[0].contains("cancelled: deadline exceeded"));
    }

    #[test]
    fn an_outer_cancel_scope_cancels_the_grid_without_retry_burn() {
        let outer = CancelToken::new();
        outer.cancel("request dropped");
        let _scope = CancelScope::enter(outer);
        for jobs in [Jobs::serial(), Jobs::new(4)] {
            let cells: Vec<u64> = (0..4).collect();
            let attempts_seen: Vec<AtomicU32> = cells.iter().map(|_| AtomicU32::new(0)).collect();
            let sup = Supervision::none().with_retries(5);
            let err = run_cells_supervised(&cells, jobs, sup, |&c, _| {
                attempts_seen[c as usize].fetch_add(1, Ordering::Relaxed);
                cancel::check_current().unwrap_or_else(|e| panic!("cell: {e}"));
                c
            })
            .expect_err("a cancelled parent fails the run");
            assert!(err.failures[0].contains("cancelled: request dropped"));
            assert_eq!(err.attempts, 1, "jobs {jobs}");
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
        let sup = Supervision::default_robust();
        let faulty = run_cells_supervised(&cells, Jobs::new(4), sup, |&c, attempt| {
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
        let run = run_cells_supervised(&[] as &[u8], Jobs::new(4), Supervision::none(), |_, _| 0u8)
            .expect("empty grid");
        assert!(run.results.is_empty() && run.outcomes.is_empty());
    }
}
