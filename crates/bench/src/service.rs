//! Glue between the transport-only sweep service
//! ([`probranch_serve`]) and the experiment layer: renders one named
//! section of the figure run, and wraps that in the
//! `Fn(&SweepRequest) -> SweepOutcome` handler the server is generic
//! over.
//!
//! Byte-identity is by construction: the in-process `figures` run and
//! the served path both iterate [`probranch_serve::SECTIONS`] through
//! [`section_text`], so there is exactly one rendering code path for
//! CI to diff.

use std::time::Duration;

use probranch_harness::{Jobs, SupervisedError};
use probranch_pipeline::cancel::{CancelScope, CancelToken};
use probranch_serve::{SweepOutcome, SweepRequest};

use crate::experiments::{self, Engine, ExperimentScale};
use crate::render;

/// Renders one named section of the figure run — the strings
/// `figures` prints, in [`probranch_serve::SECTIONS`] order. Returns
/// `None` for an unknown section name.
///
/// Panics raised by supervised sweeps (exhausted cells, cancellation)
/// propagate to the caller, which owns turning them into structured
/// errors.
pub fn section_text(
    section: &str,
    scale: ExperimentScale,
    jobs: Jobs,
    engine: Engine,
    ctx: &experiments::Context,
) -> Option<String> {
    Some(match section {
        "table2" => render::table2(&experiments::table2_with_ctx(scale, jobs, ctx)),
        "table1" => render::table1(&experiments::table1(jobs)),
        "fig1" => render::fig1(&experiments::fig1_with_ctx(scale, jobs, engine, ctx)),
        "fig6" => render::fig6(&experiments::fig6_with_ctx(scale, jobs, engine, ctx)),
        "fig7" => render::ipc(
            &experiments::fig7_with_ctx(scale, jobs, engine, ctx),
            "FIG 7 — normalized IPC, 4-wide / 168-entry ROB",
        ),
        "fig8" => render::ipc(
            &experiments::fig8_with_ctx(scale, jobs, engine, ctx),
            "FIG 8 — normalized IPC, 8-wide / 256-entry ROB",
        ),
        "fig9" => render::fig9(&experiments::fig9_with_ctx(scale, jobs, engine, ctx)),
        "table3" => render::table3(&experiments::table3_with_ctx(scale, jobs, ctx)),
        "accuracy" => render::accuracy(&experiments::accuracy_with_ctx(scale, jobs, ctx)),
        "cost" => render::cost(&experiments::hardware_cost()),
        _ => return None,
    })
}

/// Builds the sweep handler `figures --serve` (and the in-process
/// tests) hand to [`probranch_serve::Server::run`]: parses the
/// request, scopes an optional per-request cancellation deadline over
/// the sweep, and maps supervised panics to structured
/// [`SweepOutcome`]s instead of crashing a connection thread.
pub fn sweep_handler(
    ctx: &experiments::Context,
    default_jobs: Jobs,
) -> impl Fn(&SweepRequest) -> SweepOutcome + Sync + '_ {
    move |req: &SweepRequest| {
        let Some(scale) = ExperimentScale::parse(&req.scale) else {
            return SweepOutcome::BadRequest(format!("unknown scale `{}`", req.scale));
        };
        let Some(engine) = Engine::parse(&req.engine) else {
            return SweepOutcome::BadRequest(format!("unknown engine `{}`", req.engine));
        };
        let jobs = match req.jobs {
            Some(0) | None => default_jobs,
            Some(n) => Jobs::new(n),
        };
        // The request deadline becomes the parent cancel token for
        // every supervised cell the sweep spawns: an expired request
        // stops consuming CPU at the next pipeline poll point.
        let token = match req.deadline_ms {
            Some(ms) => CancelToken::with_deadline(Duration::from_millis(ms)),
            None => CancelToken::new(),
        };
        let _scope = CancelScope::enter(token);
        let section = req.section.clone();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            section_text(&section, scale, jobs, engine, ctx)
        }));
        match outcome {
            Ok(Some(body)) => SweepOutcome::Ok(body),
            Ok(None) => SweepOutcome::BadRequest(format!("unknown section `{section}`")),
            Err(payload) => {
                let msg = typed_failure(&*payload)
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                    .unwrap_or_else(|| "sweep panicked with a non-string payload".to_string());
                if msg.contains("cancelled") {
                    SweepOutcome::Cancelled(msg)
                } else {
                    SweepOutcome::Failed(msg)
                }
            }
        }
    }
}

/// The message of a typed sweep failure — a supervised cell that
/// exhausted its attempts ([`SupervisedError`]) — or `None` for any
/// other panic payload. The `figures` binary and [`sweep_handler`] both
/// render typed failures through it, each with its own fallback for the
/// rest.
pub fn typed_failure(payload: &(dyn std::any::Any + Send)) -> Option<String> {
    payload
        .downcast_ref::<SupervisedError>()
        .map(ToString::to_string)
}
