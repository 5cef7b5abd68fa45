//! Integration tests over the PBS design space: the knobs the paper
//! fixes at design time (Section V-C2), swept to verify the mechanism
//! degrades gracefully rather than breaking.

use probranch::prelude::*;

fn run_with(pbs: PbsConfig, bench: &dyn Benchmark) -> probranch::pipeline::SimReport {
    let cfg = SimConfig {
        pbs: Some(pbs),
        ..SimConfig::default()
    };
    Simulation::default()
        .run(&bench.program(), &cfg)
        .unwrap_or_else(|e| panic!("{}: {e}", bench.name()))
}

#[test]
fn single_btb_entry_still_works_for_single_branch_workloads() {
    let b = Pi::new(Scale::Smoke, 3);
    let r = run_with(
        PbsConfig {
            num_branches: 1,
            ..PbsConfig::default()
        },
        &b,
    );
    let stats = r.pbs.unwrap();
    assert!(stats.directed > stats.bypassed, "{stats:?}");
}

#[test]
fn single_btb_entry_thrashes_on_multi_branch_workloads() {
    // Greeks has three probabilistic branches in one loop; one entry
    // forces constant eviction, but execution stays correct.
    let b = Greeks::new(Scale::Smoke, 3);
    let full = run_with(PbsConfig::default(), &b);
    let tiny = run_with(
        PbsConfig {
            num_branches: 1,
            ..PbsConfig::default()
        },
        &b,
    );
    let s_full = full.pbs.unwrap();
    let s_tiny = tiny.pbs.unwrap();
    assert!(
        s_tiny.directed < s_full.directed,
        "thrashing must reduce coverage: {s_tiny:?} vs {s_full:?}"
    );
    // Outputs remain positive payoff sums either way.
    assert!(f64::from_bits(tiny.output(0)[1]) > 0.0);
}

#[test]
fn deeper_in_flight_lengthens_bootstrap_but_still_directs() {
    let b = McInteg::new(Scale::Smoke, 3);
    let shallow = run_with(
        PbsConfig {
            in_flight: 1,
            ..PbsConfig::default()
        },
        &b,
    );
    let deep = run_with(
        PbsConfig {
            in_flight: 16,
            ..PbsConfig::default()
        },
        &b,
    );
    let s_shallow = shallow.pbs.unwrap();
    let s_deep = deep.pbs.unwrap();
    assert!(s_deep.bootstrap >= s_shallow.bootstrap);
    assert!(s_deep.directed > 0 && s_shallow.directed > 0);
}

#[test]
fn context_tracking_off_is_functional_on_flat_loops() {
    let b = Pi::new(Scale::Smoke, 3);
    let r = run_with(
        PbsConfig {
            context_tracking: false,
            ..PbsConfig::default()
        },
        &b,
    );
    let stats = r.pbs.unwrap();
    assert_eq!(stats.context_flushes, 0);
    assert!(stats.directed > 0);
}

#[test]
fn all_design_points_preserve_output_statistics() {
    // Whatever the configuration, the algorithmic result must stay in
    // the statistical ballpark of the baseline.
    let b = Pi::new(Scale::Bench, 3);
    let base = run_functional(&b.program(), None, 1_000_000_000).unwrap();
    let base_hits = base.output(0)[0] as f64;
    for cfg in [
        PbsConfig::default(),
        PbsConfig {
            num_branches: 1,
            ..PbsConfig::default()
        },
        PbsConfig {
            in_flight: 1,
            ..PbsConfig::default()
        },
        PbsConfig {
            in_flight: 16,
            ..PbsConfig::default()
        },
        PbsConfig {
            context_tracking: false,
            ..PbsConfig::default()
        },
        PbsConfig {
            values_per_branch: 1,
            ..PbsConfig::default()
        },
    ] {
        let r = run_functional(&b.program(), Some(cfg.clone()), 1_000_000_000).unwrap();
        let hits = r.output(0)[0] as f64;
        assert!(
            (base_hits - hits).abs() / base_hits < 0.02,
            "{cfg:?}: {base_hits} vs {hits}"
        );
    }
}

#[test]
fn category2_workload_needs_swap_capacity() {
    // Swaptions carries one probabilistic value per branch; a
    // zero-swap-capacity... the minimum is 1 value (the PROB_CMP
    // register), which suffices here.
    let b = Swaptions::new(Scale::Smoke, 3);
    let r = run_with(
        PbsConfig {
            values_per_branch: 1,
            ..PbsConfig::default()
        },
        &b,
    );
    assert!(r.pbs.unwrap().directed > 0);
}

#[test]
fn every_workload_disassembles_and_reassembles() {
    for b in all_benchmarks(Scale::Smoke, 3) {
        let p = b.program();
        let text = p.to_string();
        let back = probranch::isa::parse_asm(&text).unwrap_or_else(|e| panic!("{}: {e}", b.name()));
        assert_eq!(p, back, "{}", b.name());
    }
}

#[test]
fn every_workload_survives_binary_encoding() {
    for b in all_benchmarks(Scale::Smoke, 3) {
        let p = b.program();
        let image = probranch::isa::encode(&p);
        let back = probranch::isa::Program::new(probranch::isa::decode(&image).unwrap()).unwrap();
        assert_eq!(p, back, "{}", b.name());
    }
}

#[test]
fn seeds_change_outputs_but_not_structure() {
    for seed in [1u64, 2, 3] {
        let a = Pi::new(Scale::Smoke, seed);
        let b = Pi::new(Scale::Smoke, seed + 10);
        assert_ne!(a.reference_hits(), b.reference_hits());
        assert_eq!(a.program().len(), b.program().len());
    }
}
