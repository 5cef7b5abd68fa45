#![allow(unused_imports)]
//! Regenerates paper Figure 6 (MPKI reduction through PBS) and times
//! the PBS-enabled simulation.
use criterion::{criterion_group, criterion_main, Criterion};
use probranch_bench::{experiments, render, ExperimentScale, Jobs};
use probranch_core::PbsConfig;
use probranch_pipeline::{PredictorChoice, SimConfig, Simulation};
use probranch_workloads::{Benchmark, BenchmarkId, Scale};

fn bench(c: &mut Criterion) {
    println!(
        "{}",
        render::fig6(&experiments::fig6(
            ExperimentScale::from_env(),
            Jobs::from_env()
        ))
    );
    let prog = BenchmarkId::Pi.build(Scale::Smoke, 1).program();
    c.bench_function("fig6/pi_tage_pbs_sim", |b| {
        let cfg = SimConfig {
            pbs: Some(PbsConfig::default()),
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
