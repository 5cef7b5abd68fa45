#![allow(unused_imports)]
//! Regenerates paper Figure 9 (branch-predictor interference from
//! probabilistic branches).
use criterion::{criterion_group, criterion_main, Criterion};
use probranch_bench::{experiments, render, ExperimentScale, Jobs};
use probranch_core::PbsConfig;
use probranch_pipeline::{PredictorChoice, SimConfig, Simulation};
use probranch_workloads::{Benchmark, BenchmarkId, Scale};

fn bench(c: &mut Criterion) {
    println!(
        "{}",
        render::fig9(&experiments::fig9(
            ExperimentScale::from_env(),
            Jobs::from_env()
        ))
    );
    let prog = BenchmarkId::Bandit.build(Scale::Smoke, 1).program();
    c.bench_function("fig9/bandit_filtered_predictor_sim", |b| {
        let cfg = SimConfig {
            predictor: PredictorChoice::Tournament,
            filter_prob_from_predictor: true,
            ..SimConfig::default()
        };
        b.iter(|| {
            Simulation::default()
                .run(&prog, &cfg)
                .unwrap()
                .timing
                .mpki_regular()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
