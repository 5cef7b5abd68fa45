#![allow(unused_imports)]
//! Regenerates paper Figure 8 (normalized IPC, 8-wide core).
use criterion::{criterion_group, criterion_main, Criterion};
use probranch_bench::{experiments, render, ExperimentScale, Jobs};
use probranch_core::PbsConfig;
use probranch_pipeline::{PredictorChoice, SimConfig, Simulation};
use probranch_workloads::{Benchmark, BenchmarkId, Scale};

use probranch_pipeline::OooConfig;

fn bench(c: &mut Criterion) {
    println!(
        "{}",
        render::ipc(
            &experiments::fig8(ExperimentScale::from_env(), Jobs::from_env()),
            "FIG 8 — normalized IPC, 8-wide / 256-entry ROB"
        )
    );
    let prog = BenchmarkId::Greeks.build(Scale::Smoke, 1).program();
    c.bench_function("fig8/greeks_8wide_pbs_sim", |b| {
        let cfg = SimConfig {
            core: OooConfig::wide(),
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
