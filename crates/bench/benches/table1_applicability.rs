#![allow(unused_imports)]
//! Regenerates paper Table I (predication / CFD applicability) and
//! times the static analyses.
use criterion::{criterion_group, criterion_main, Criterion};
use probranch_bench::{experiments, render, ExperimentScale, Jobs};
use probranch_core::PbsConfig;
use probranch_pipeline::{PredictorChoice, SimConfig, Simulation};
use probranch_workloads::{Benchmark, BenchmarkId, Scale};

fn bench(c: &mut Criterion) {
    println!("{}", render::table1(&experiments::table1(Jobs::from_env())));
    let prog = BenchmarkId::Photon.build(Scale::Smoke, 1).program();
    c.bench_function("table1/photon_predication_and_cfd_analysis", |b| {
        b.iter(|| {
            let p = probranch_compiler::predication::analyze_program(&prog);
            let f = probranch_compiler::cfd::analyze_program(&prog);
            (p.len(), f.len())
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
