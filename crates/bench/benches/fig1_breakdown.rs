#![allow(unused_imports)]
//! Regenerates paper Figure 1 (probabilistic vs regular branch and
//! misprediction breakdown) and times the underlying baseline
//! simulation.
use criterion::{criterion_group, criterion_main, Criterion};
use probranch_bench::{experiments, render, ExperimentScale, Jobs};
use probranch_core::PbsConfig;
use probranch_pipeline::{PredictorChoice, SimConfig, Simulation};
use probranch_workloads::{Benchmark, BenchmarkId, Scale};

fn bench(c: &mut Criterion) {
    println!(
        "{}",
        render::fig1(&experiments::fig1(
            ExperimentScale::from_env(),
            Jobs::from_env()
        ))
    );
    let prog = BenchmarkId::Dop.build(Scale::Smoke, 1).program();
    c.bench_function("fig1/dop_tournament_baseline_sim", |b| {
        let cfg = SimConfig {
            predictor: PredictorChoice::Tournament,
            ..SimConfig::default()
        };
        b.iter(|| {
            Simulation::default()
                .run(&prog, &cfg)
                .unwrap()
                .timing
                .mpki()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
