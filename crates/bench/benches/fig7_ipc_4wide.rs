#![allow(unused_imports)]
//! Regenerates paper Figure 7 (normalized IPC, 4-wide core).
use criterion::{criterion_group, criterion_main, Criterion};
use probranch_bench::{experiments, render, ExperimentScale, Jobs};
use probranch_core::PbsConfig;
use probranch_pipeline::{PredictorChoice, SimConfig, Simulation};
use probranch_workloads::{Benchmark, BenchmarkId, Scale};

fn bench(c: &mut Criterion) {
    println!(
        "{}",
        render::ipc(
            &experiments::fig7(ExperimentScale::from_env(), Jobs::from_env()),
            "FIG 7 — normalized IPC, 4-wide / 168-entry ROB"
        )
    );
    let prog = BenchmarkId::Greeks.build(Scale::Smoke, 1).program();
    c.bench_function("fig7/greeks_4wide_pbs_sim", |b| {
        let cfg = SimConfig {
            pbs: Some(PbsConfig::default()),
            ..SimConfig::default()
        };
        b.iter(|| Simulation::default().run(&prog, &cfg).unwrap().timing.ipc())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
