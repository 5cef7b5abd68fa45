//! Randomized fault-injection torture over the fig6 smoke grid.
//!
//! Every case arms an arbitrary seeded fault plan (random subset of
//! sites, random probabilities and budgets) and runs the figure sweep
//! through a fresh [`experiments::Context`] — sometimes with a trace
//! directory, followed by a warm second pass over whatever the faulted
//! first pass left on disk. The locked-in dichotomy: the run either
//! completes with rows **byte-identical** to the fault-free baseline,
//! or fails with a structured [`SupervisedError`] whose exhausted
//! attempts all name an injected fault site. Nothing else — no torn
//! output, no wrong-but-plausible rows, no raw unwinds.
//!
//! Each test arms its plan on its own thread ([`faults::PlanScope`]);
//! the sweep workers and the server's threads join it, and no other
//! test sees it.

use std::panic::AssertUnwindSafe;
use std::sync::OnceLock;

use probranch_bench::experiments::{self, Engine, ExperimentScale};
use probranch_bench::render;
use probranch_faults as faults;
use probranch_harness::{Jobs, SupervisedError};
use probranch_rng::SplitMix64;
use proptest::prelude::*;

/// One fig6 sweep at smoke scale on two workers, rendered to the
/// byte-comparable fingerprint the assertions diff.
fn fig6_fingerprint(ctx: &experiments::Context) -> String {
    format!(
        "{:?}",
        experiments::fig6_with_ctx(ExperimentScale::Smoke, Jobs::new(2), Engine::Replay, ctx)
    )
}

/// The fault-free baseline, computed once with no plan armed.
fn baseline() -> &'static str {
    static BASELINE: OnceLock<String> = OnceLock::new();
    BASELINE.get_or_init(|| fig6_fingerprint(&experiments::Context::new()))
}

/// Derives an arbitrary plan from two random words: roughly half the
/// sites armed, probabilities across the whole range (including the
/// certain-failure end — that is the structured-error branch of the
/// dichotomy), about a third of the clauses budget-capped.
fn arbitrary_plan(plan_seed: u64, dice: u64) -> faults::FaultPlan {
    let mut plan = faults::FaultPlan::seeded(plan_seed);
    for (i, &site) in faults::ALL_SITES.iter().enumerate() {
        let roll = SplitMix64::mix_fold(&[dice, i as u64]);
        if roll & 1 == 0 {
            continue;
        }
        let probability = ((roll >> 11) & 0xFFFF) as f64 / 65536.0;
        plan = if roll & 0b110 == 0b110 {
            plan.arm_capped(site, probability, (roll >> 40) & 3)
        } else {
            plan.arm(site, probability)
        };
    }
    plan
}

/// Whether a caught sweep failure is the structured kind the torture
/// contract allows: a [`SupervisedError`] every one of whose exhausted
/// attempts was an injected fault.
fn is_structured_fault(payload: &(dyn std::any::Any + Send)) -> bool {
    payload.downcast_ref::<SupervisedError>().is_some_and(|e| {
        !e.failures.is_empty() && e.failures.iter().all(|f| f.contains("injected fault"))
    })
}

#[test]
fn table2_over_a_warmed_pool_emulates_nothing() {
    // Every capture and every functional run rolls `capture.block` once,
    // so with the site armed its hits count emulations — and the
    // interpreter tier they then run prints the same rows.
    let _plan =
        faults::PlanScope::enter(faults::FaultPlan::seeded(1).arm(faults::Site::CaptureBlock, 1.0));
    let emulations = || {
        faults::hits()
            .into_iter()
            .find(|&(site, _)| site == faults::Site::CaptureBlock)
            .map_or(0, |(_, n)| n)
    };
    let (scale, jobs) = (ExperimentScale::Smoke, Jobs::new(2));
    let ctx = experiments::Context::new();
    let cold = render::table2(&experiments::table2_with_ctx(scale, jobs, &ctx));
    assert_eq!(emulations(), 8, "an empty pool runs 8 functional runs");
    // Figure 1 captures the 8 PBS-off seed-0 keys Table II reads.
    experiments::fig1_with_ctx(scale, jobs, Engine::Replay, &ctx);
    assert_eq!(emulations(), 16);
    let warm = render::table2(&experiments::table2_with_ctx(scale, jobs, &ctx));
    assert_eq!(
        emulations(),
        16,
        "a warmed pool answers Table II from its traces"
    );
    assert_eq!(warm, cold);
}

/// Service-mode torture: the same dichotomy, but the sweep travels a
/// real socket through `probranch-serve` with the transport failpoints
/// armed. For every seeded plan the client either heals (via retry) to
/// a response byte-identical to the clean rendering, or receives a
/// structured error naming only injected sites. Never a hang, never
/// torn bytes.
#[test]
fn service_mode_faults_heal_or_fail_structured_over_the_socket() {
    use std::time::Duration;

    use probranch_bench::service;
    use probranch_serve::{
        request_with_retry, Request, Server, ServerConfig, Status, SweepRequest,
    };

    let clean_body = service::section_text(
        "fig6",
        ExperimentScale::Smoke,
        Jobs::new(2),
        Engine::Replay,
        &experiments::Context::new(),
    )
    .expect("fig6 renders");

    // Budget-capped transport/cancel/cell faults (healable by retries)
    // plus one uncapped certain-failure plan (the structured branch).
    let plans: Vec<(faults::FaultPlan, bool)> = vec![
        (
            faults::FaultPlan::seeded(11)
                .arm_capped(faults::Site::ServeAccept, 1.0, 2)
                .arm_capped(faults::Site::ServeDrop, 1.0, 1)
                .arm_capped(faults::Site::ServeWrite, 1.0, 1),
            true,
        ),
        (
            faults::FaultPlan::seeded(12)
                .arm_capped(faults::Site::CancelSpurious, 1.0, 2)
                .arm_capped(faults::Site::CellPanic, 1.0, 2)
                .arm_capped(faults::Site::ServeRead, 1.0, 1),
            true,
        ),
        (
            faults::FaultPlan::seeded(13).arm(faults::Site::CellPanic, 1.0),
            false,
        ),
    ];
    for (plan, healable) in plans {
        let _plan = faults::PlanScope::enter(plan);
        let plan = faults::current();
        let ctx = experiments::Context::new();
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
        let addr = server.local_addr().expect("addr");
        let (outcome, drain) = std::thread::scope(|scope| {
            let (server, ctx) = (&server, &ctx);
            let run = scope.spawn(move || {
                let _plan = plan.map(faults::PlanScope::join);
                server
                    .run(service::sweep_handler(ctx, Jobs::new(2)))
                    .expect("serve loop")
            });
            let req = Request::Sweep(SweepRequest {
                section: "fig6".into(),
                scale: "smoke".into(),
                engine: "replay".into(),
                jobs: Some(2),
                deadline_ms: None,
            });
            // Generous retry budget: every armed transport fault is
            // budget-capped, so retries always reach a live exchange.
            let outcome = request_with_retry(addr, &req, Duration::from_secs(600), 10);
            // Shutdown itself rides the faulted transport; retry too.
            let drain = request_with_retry(addr, &Request::Shutdown, Duration::from_secs(5), 10);
            run.join().expect("server thread");
            (outcome, drain)
        });
        // Asserted after the drain: a failure inside the scope would
        // leave the server running and the test hung.
        match outcome {
            Ok(resp) if resp.status == Status::Ok => {
                assert!(healable, "uncapped cell.panic cannot produce a clean sweep");
                assert_eq!(
                    resp.body, clean_body,
                    "surviving served sweep must be byte-identical"
                );
            }
            Ok(resp) => {
                assert_eq!(resp.status, Status::Failed);
                assert!(
                    resp.body.contains("injected fault"),
                    "structured failure must name an injected site: {}",
                    resp.body
                );
            }
            Err(e) => panic!("transport must heal within the retry budget: {e}"),
        }
        assert_eq!(drain.expect("drain").status, Status::Ok);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn arbitrary_fault_plans_are_byte_identical_or_structured(
        plan_seed in any::<u64>(),
        dice in any::<u64>(),
        use_dir in any::<u64>(),
    ) {
        let clean = baseline().to_string();

        let plan = arbitrary_plan(plan_seed, dice);
        let dir = std::env::temp_dir().join(format!(
            "probranch-torture-{}-{plan_seed:016x}",
            std::process::id()
        ));
        let use_dir = use_dir & 1 == 1;
        if use_dir {
            std::fs::create_dir_all(&dir).expect("torture trace dir");
        }
        let _plan = faults::PlanScope::enter(plan);

        // Cold pass (capturing), then — if it survived and persisted —
        // a warm pass over whatever mangled store the faults left.
        let mut passes = 1;
        for pass in 0..2 {
            if pass >= passes {
                break;
            }
            let ctx = if use_dir {
                experiments::Context::with_trace_dir(&dir)
            } else {
                experiments::Context::new()
            };
            match std::panic::catch_unwind(AssertUnwindSafe(|| fig6_fingerprint(&ctx))) {
                Ok(rows) => {
                    prop_assert_eq!(&rows, &clean, "surviving run must be byte-identical");
                    if use_dir {
                        passes = 2;
                    }
                }
                Err(payload) => {
                    prop_assert!(
                        is_structured_fault(payload.as_ref()),
                        "failure must be a structured SupervisedError naming injected sites"
                    );
                    break;
                }
            }
        }
        if use_dir {
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
