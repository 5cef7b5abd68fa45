#![allow(unused_imports)]
//! Regenerates paper Table II (benchmark characteristics) and times a
//! functional workload run.
use criterion::{criterion_group, criterion_main, Criterion};
use probranch_bench::{experiments, render, ExperimentScale, Jobs};
use probranch_core::PbsConfig;
use probranch_pipeline::{PredictorChoice, SimConfig, Simulation};
use probranch_workloads::{Benchmark, BenchmarkId, Scale};

use probranch_pipeline::run_functional;

fn bench(c: &mut Criterion) {
    println!(
        "{}",
        render::table2(&experiments::table2(
            ExperimentScale::from_env(),
            Jobs::from_env()
        ))
    );
    let prog = BenchmarkId::Genetic.build(Scale::Smoke, 1).program();
    c.bench_function("table2/genetic_functional_run", |b| {
        b.iter(|| {
            run_functional(&prog, None, 100_000_000)
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
