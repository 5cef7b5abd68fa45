//! End-to-end coalescing gate for the sweep service: N concurrent
//! identical requests through one served [`experiments::Context`] must
//! produce byte-identical bodies, match the in-process rendering
//! exactly, and — the shared-pool invariant — perform no more captures
//! than a single request would. Requests naming an engine the service
//! does not run are rejected before any work. A served sweep sequence
//! repeated on one server is answered from the kept outcomes, so the
//! warm pool under it is checked in process here.

use std::time::Duration;

use probranch_bench::experiments::{self, Engine, ExperimentScale};
use probranch_bench::service;
use probranch_harness::Jobs;
use probranch_serve::{request, Request, Server, Status, SweepOutcome, SweepRequest, SECTIONS};

fn fig6_request() -> Request {
    Request::Sweep(SweepRequest {
        section: "fig6".into(),
        scale: "smoke".into(),
        engine: "replay".into(),
        jobs: Some(2),
        deadline_ms: None,
    })
}

#[test]
fn concurrent_identical_sweeps_share_one_capture_pass() {
    // In-process reference: the bytes `figures` would print, and the
    // capture count one fig6 pass costs.
    let reference_ctx = experiments::Context::new();
    let reference = service::section_text(
        "fig6",
        ExperimentScale::Smoke,
        Jobs::new(2),
        Engine::Replay,
        &reference_ctx,
    )
    .expect("fig6 is a known section");
    let reference_captures = reference_ctx.captures();
    assert!(reference_captures > 0, "fig6 must capture traces");

    let served_ctx = experiments::Context::new();
    let server = Server::bind("127.0.0.1:0").expect("bind");
    let addr = server.local_addr().expect("addr");
    std::thread::scope(|scope| {
        let server = &server;
        let ctx = &served_ctx;
        let run = scope.spawn(move || {
            server
                .run(service::sweep_handler(ctx, Jobs::new(2)))
                .expect("serve loop")
        });
        assert!(probranch_serve::wait_ready(addr, Duration::from_secs(10)));
        let clients: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(move || {
                    request(addr, &fig6_request(), Duration::from_secs(600)).expect("sweep")
                })
            })
            .collect();
        let bodies: Vec<String> = clients
            .into_iter()
            .map(|c| {
                let resp = c.join().expect("client thread");
                assert_eq!(resp.status, Status::Ok, "body: {}", resp.body);
                resp.body
            })
            .collect();
        for body in &bodies {
            assert_eq!(
                body, &reference,
                "served bytes must match the in-process rendering"
            );
        }
        let resp = request(addr, &Request::Shutdown, Duration::from_secs(5)).expect("shutdown");
        assert_eq!(resp.status, Status::Ok);
        let stats = run.join().expect("server thread");
        // Every request was admitted (coalesced waiters still count as
        // requests); whether any shared a leader is timing-dependent,
        // but the capture bound below holds either way.
        assert_eq!(stats.requests + stats.shed, 4);
    });
    // The load-bearing invariant: four concurrent identical sweeps
    // cost exactly one capture pass — the per-key slot locks (and the
    // run-wide grid memo) make the extra requests hits, not work.
    assert_eq!(
        served_ctx.captures(),
        reference_captures,
        "concurrent identical requests must not re-capture"
    );
}

#[test]
fn expired_deadlines_cancel_instead_of_running_the_sweep() {
    // Supervised timing sweeps and the plain cell grids of the
    // functional-run sections alike, on the caller's thread and on
    // workers.
    let ctx = experiments::Context::new();
    let handler = service::sweep_handler(&ctx, Jobs::new(2));
    for section in ["fig6", "table2", "table3", "accuracy"] {
        for jobs in [1, 2] {
            let req = SweepRequest {
                section: section.into(),
                scale: "smoke".into(),
                engine: "replay".into(),
                jobs: Some(jobs),
                deadline_ms: Some(0),
            };
            match handler(&req) {
                SweepOutcome::Cancelled(msg) => {
                    assert!(
                        msg.contains("deadline exceeded"),
                        "{section} at jobs {jobs}: cancellation must attribute the deadline: {msg}"
                    );
                }
                other => panic!(
                    "{section} at jobs {jobs}: a 0ms deadline must cancel the sweep, got {other:?}"
                ),
            }
        }
    }
}

#[test]
fn removed_engine_names_are_bad_requests() {
    let ctx = experiments::Context::new();
    let handler = service::sweep_handler(&ctx, Jobs::new(2));
    for engine in ["fused", "convoy"] {
        let req = SweepRequest {
            section: "fig1".into(),
            scale: "smoke".into(),
            engine: engine.into(),
            jobs: Some(2),
            deadline_ms: None,
        };
        match handler(&req) {
            SweepOutcome::BadRequest(msg) => {
                assert!(
                    msg.contains(engine),
                    "the error must name `{engine}`: {msg}"
                );
            }
            other => panic!("engine `{engine}` must be rejected, got {other:?}"),
        }
    }
    assert_eq!(ctx.captures(), 0, "a rejected request runs nothing");
}

#[test]
fn a_warm_context_renders_every_section_like_a_fresh_one() {
    // The second pass runs over the warm pool — prediction tapes, the
    // grid memo and pooled functional results — which a server's kept
    // outcomes no longer reach on repeated requests.
    let render = |ctx: &experiments::Context| -> Vec<String> {
        SECTIONS
            .iter()
            .map(|section| {
                service::section_text(
                    section,
                    ExperimentScale::Smoke,
                    Jobs::new(2),
                    Engine::Replay,
                    ctx,
                )
                .expect("SECTIONS names known sections")
            })
            .collect()
    };
    let fresh = render(&experiments::Context::new());
    let ctx = experiments::Context::new();
    let cold = render(&ctx);
    let (keys, captures) = (ctx.keys(), ctx.captures());
    let warm = render(&ctx);
    assert_eq!(cold, fresh, "the first pass differs from a fresh context's");
    assert_eq!(warm, fresh, "the warm pass differs from a fresh context's");
    assert_eq!(
        (ctx.keys(), ctx.captures()),
        (keys, captures),
        "the warm pass must add no key and no capture"
    );
}
