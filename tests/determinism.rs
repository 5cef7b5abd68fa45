//! Scheduling-independence tests for the parallel experiment engine:
//! a sweep computed by one worker and by many workers must produce
//! byte-identical rows. This is the guarantee that lets `figures
//! --jobs N` be trusted for paper figures — and that the CI matrix
//! (PROBRANCH_JOBS=1 vs default) re-checks on every push.

use probranch_bench::experiments::{self, Engine, ExperimentScale};
use probranch_bench::{render, Jobs};

#[test]
fn fig6_rows_are_byte_identical_across_worker_counts() {
    let serial = render::fig6(&experiments::fig6(ExperimentScale::Smoke, Jobs::serial()));
    for jobs in [Jobs::new(2), Jobs::new(8)] {
        let parallel = render::fig6(&experiments::fig6(ExperimentScale::Smoke, jobs));
        assert_eq!(
            serial, parallel,
            "fig6 rendering differs between 1 worker and {jobs} workers"
        );
    }
}

#[test]
fn table3_rows_are_byte_identical_across_worker_counts() {
    let serial = render::table3(&experiments::table3(ExperimentScale::Smoke, Jobs::serial()));
    let parallel = render::table3(&experiments::table3(ExperimentScale::Smoke, Jobs::new(8)));
    assert_eq!(
        serial, parallel,
        "table3 rendering differs between 1 worker and 8 workers"
    );
}

#[test]
fn remaining_sweeps_match_across_worker_counts() {
    // The cheaper sweeps, all through the same engine: serial vs 4-way.
    let scale = ExperimentScale::Smoke;
    assert_eq!(
        render::fig1(&experiments::fig1(scale, Jobs::serial())),
        render::fig1(&experiments::fig1(scale, Jobs::new(4)))
    );
    assert_eq!(
        render::table1(&experiments::table1(Jobs::serial())),
        render::table1(&experiments::table1(Jobs::new(4)))
    );
    assert_eq!(
        render::table2(&experiments::table2(scale, Jobs::serial())),
        render::table2(&experiments::table2(scale, Jobs::new(4)))
    );
    assert_eq!(
        render::fig9(&experiments::fig9(scale, Jobs::serial())),
        render::fig9(&experiments::fig9(scale, Jobs::new(4)))
    );
    assert_eq!(
        render::accuracy(&experiments::accuracy(scale, Jobs::serial())),
        render::accuracy(&experiments::accuracy(scale, Jobs::new(4)))
    );
}

#[test]
fn ipc_sweeps_match_across_worker_counts() {
    let scale = ExperimentScale::Smoke;
    let title = "determinism-check";
    assert_eq!(
        render::ipc(&experiments::fig7(scale, Jobs::serial()), title),
        render::ipc(&experiments::fig7(scale, Jobs::new(4)), title)
    );
    assert_eq!(
        render::ipc(&experiments::fig8(scale, Jobs::serial()), title),
        render::ipc(&experiments::fig8(scale, Jobs::new(4)), title)
    );
}

#[test]
fn pooled_functional_runs_render_like_fresh_ones() {
    // Figures 1 and 6 pool every seed-0 key, so Table II, §VII-D and
    // Table III read those runs' results from the pool instead of
    // emulating.
    let scale = ExperimentScale::Smoke;
    let ctx = experiments::Context::new();
    experiments::fig1_with_ctx(scale, Jobs::serial(), Engine::Replay, &ctx);
    experiments::fig6_with_ctx(scale, Jobs::serial(), Engine::Replay, &ctx);
    assert_eq!(ctx.keys(), 16);
    for jobs in [Jobs::serial(), Jobs::new(8)] {
        assert_eq!(
            render::table2(&experiments::table2_with_ctx(scale, jobs, &ctx)),
            render::table2(&experiments::table2(scale, jobs)),
            "table2 over a warmed pool differs at {jobs} workers"
        );
        assert_eq!(
            render::accuracy(&experiments::accuracy_with_ctx(scale, jobs, &ctx)),
            render::accuracy(&experiments::accuracy(scale, jobs)),
            "accuracy over a warmed pool differs at {jobs} workers"
        );
        assert_eq!(
            render::table3(&experiments::table3_with_ctx(scale, jobs, &ctx)),
            render::table3(&experiments::table3(scale, jobs)),
            "table3 over a warmed pool differs at {jobs} workers"
        );
    }
}
