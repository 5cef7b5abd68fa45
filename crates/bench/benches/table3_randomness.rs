#![allow(unused_imports)]
//! Regenerates paper Table III (randomness battery over original vs
//! PBS-processed value streams).
use criterion::{criterion_group, criterion_main, Criterion};
use probranch_bench::{experiments, render, ExperimentScale, Jobs};
use probranch_core::PbsConfig;
use probranch_pipeline::{PredictorChoice, SimConfig, Simulation};
use probranch_workloads::{Benchmark, BenchmarkId, Scale};

fn bench(c: &mut Criterion) {
    println!(
        "{}",
        render::table3(&experiments::table3(
            ExperimentScale::from_env(),
            Jobs::from_env()
        ))
    );
    let (orig, _) = experiments::uniform_stream_pair(BenchmarkId::Pi, Scale::Bench, 7).unwrap();
    c.bench_function("table3/battery_20k_values", |b| {
        b.iter(|| probranch_stats::run_battery(&orig).len())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
