#![allow(unused_imports)]
//! Regenerates the paper's §VII-D output-accuracy results.
use criterion::{criterion_group, criterion_main, Criterion};
use probranch_bench::{experiments, render, ExperimentScale, Jobs};
use probranch_core::PbsConfig;
use probranch_pipeline::{PredictorChoice, SimConfig, Simulation};
use probranch_workloads::{Benchmark, BenchmarkId, Scale};

use probranch_pipeline::run_functional;

fn bench(c: &mut Criterion) {
    println!(
        "{}",
        render::accuracy(&experiments::accuracy(
            ExperimentScale::from_env(),
            Jobs::from_env()
        ))
    );
    println!("{}", render::cost(&experiments::hardware_cost()));
    let prog = BenchmarkId::Photon.build(Scale::Smoke, 1).program();
    c.bench_function("accuracy/photon_pbs_functional", |b| {
        b.iter(|| {
            run_functional(&prog, Some(PbsConfig::default()), 100_000_000)
                .unwrap()
                .timing
                .instructions
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
