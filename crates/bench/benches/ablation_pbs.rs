#![allow(unused_imports)]
//! Ablation study beyond the paper's figures: sweeps the PBS design
//! parameters (Prob-BTB entries, in-flight depth, context tracking) and
//! reports MPKI on a representative workload, quantifying each
//! mechanism's contribution.
use criterion::{criterion_group, criterion_main, Criterion};
use probranch_bench::{experiments, render, ExperimentScale, Jobs};
use probranch_core::PbsConfig;
use probranch_pipeline::{PredictorChoice, SimConfig, Simulation};
use probranch_workloads::{Benchmark, BenchmarkId, Scale};

fn run(prog: &probranch_isa::Program, pbs: PbsConfig) -> f64 {
    let cfg = SimConfig {
        pbs: Some(pbs),
        ..SimConfig::default()
    };
    Simulation::default().run(prog, &cfg).unwrap().timing.mpki()
}

fn bench(c: &mut Criterion) {
    let scale = ExperimentScale::from_env();
    let w = scale.workload();
    println!("ABLATION — PBS design-parameter sweep (MPKI, TAGE-SC-L)");
    println!(
        "{:<12} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "benchmark", "base", "pbs", "1-entry", "infl=1", "infl=16", "no-ctx"
    );
    for id in [
        BenchmarkId::Swaptions,
        BenchmarkId::Genetic,
        BenchmarkId::Photon,
        BenchmarkId::Pi,
    ] {
        let b = id.build(w, 12345);
        let prog = b.program();
        let base = Simulation::default()
            .run(&prog, &SimConfig::default())
            .unwrap()
            .timing
            .mpki();
        let dflt = run(&prog, PbsConfig::default());
        let one = run(
            &prog,
            PbsConfig {
                num_branches: 1,
                ..PbsConfig::default()
            },
        );
        let if1 = run(
            &prog,
            PbsConfig {
                in_flight: 1,
                ..PbsConfig::default()
            },
        );
        let if16 = run(
            &prog,
            PbsConfig {
                in_flight: 16,
                ..PbsConfig::default()
            },
        );
        let noctx = run(
            &prog,
            PbsConfig {
                context_tracking: false,
                ..PbsConfig::default()
            },
        );
        println!(
            "{:<12} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
            b.name(),
            base,
            dflt,
            one,
            if1,
            if16,
            noctx
        );
    }
    let prog = BenchmarkId::Pi.build(Scale::Smoke, 1).program();
    c.bench_function("ablation/pi_pbs_1_entry", |b| {
        b.iter(|| {
            run(
                &prog,
                PbsConfig {
                    num_branches: 1,
                    ..PbsConfig::default()
                },
            )
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
