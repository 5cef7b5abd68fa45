//! Workspace-level checks of the paper's headline claims, run against
//! the real experiment harness (smoke scale).

use probranch::pipeline::DynTrace;
use probranch::prelude::*;
use probranch_bench::experiments::{self, ExperimentScale};

#[test]
fn abstract_claim_mpki_reduction_is_substantial() {
    // Abstract: "PBS improves MPKI by 45% on average (and up to 99%)".
    // Shape check: average reduction well above zero, maximum ~99%.
    let rows = experiments::fig6(ExperimentScale::Smoke, Jobs::default());
    let tage_reductions: Vec<f64> = rows.iter().map(|r| r.tage_reduction()).collect();
    let avg = tage_reductions.iter().sum::<f64>() / tage_reductions.len() as f64;
    let max = tage_reductions.iter().cloned().fold(f64::MIN, f64::max);
    assert!(avg > 40.0, "average TAGE MPKI reduction {avg:.1}%");
    assert!(max > 95.0, "max TAGE MPKI reduction {max:.1}%");
}

#[test]
fn abstract_claim_ipc_improves_on_average() {
    // Abstract: "and IPC by 6.7% (up to 17%) over the TAGE-SC-L
    // predictor".
    let rows = experiments::fig7(ExperimentScale::Smoke, Jobs::default());
    let avg_tage_pbs: f64 =
        rows.iter().map(|r| r.tage_pbs / r.tage).sum::<f64>() / rows.len() as f64;
    assert!(
        avg_tage_pbs > 1.05,
        "TAGE+PBS / TAGE average IPC ratio {avg_tage_pbs:.3}"
    );
}

#[test]
fn section_vii_tage_reduction_exceeds_tournament() {
    // Section VII-A: "We achieve even higher reductions in MPKI for the
    // TAGE-SC-L predictor" — because TAGE leaves probabilistic branches
    // as a larger fraction of the remaining mispredictions.
    let rows = experiments::fig6(ExperimentScale::Smoke, Jobs::default());
    let tour_avg: f64 =
        rows.iter().map(|r| r.tournament_reduction()).sum::<f64>() / rows.len() as f64;
    let tage_avg: f64 = rows.iter().map(|r| r.tage_reduction()).sum::<f64>() / rows.len() as f64;
    assert!(
        tage_avg > tour_avg,
        "TAGE reduction {tage_avg:.1}% should exceed tournament {tour_avg:.1}%"
    );
}

#[test]
fn figure1_misprediction_share_grows_under_better_predictor() {
    // "Note also that the misprediction rate for the probabilistic
    // branches tends to be higher for the more sophisticated TAGE-SC-L
    // predictor."
    let rows = experiments::fig1(ExperimentScale::Smoke, Jobs::default());
    let tour: f64 = rows
        .iter()
        .map(|r| r.tournament_mispredict_share)
        .sum::<f64>()
        / rows.len() as f64;
    let tage: f64 = rows.iter().map(|r| r.tage_mispredict_share).sum::<f64>() / rows.len() as f64;
    assert!(
        tage >= tour - 1.0,
        "TAGE share {tage:.1}% vs tournament {tour:.1}%"
    );
}

#[test]
fn table1_verdicts_match_paper_exactly() {
    let rows = experiments::table1(Jobs::default());
    let expected = [
        ("DOP", true, true),
        ("Greeks", false, true),
        ("Swaptions", false, false),
        ("Genetic", false, true),
        ("Photon", false, false),
        ("MC-integ", true, true),
        ("PI", true, true),
        ("Bandit", false, false),
    ];
    for (name, pred, cfd) in expected {
        let row = rows.iter().find(|r| r.name == name).unwrap();
        assert_eq!((row.predication, row.cfd), (pred, cfd), "{name}");
    }
}

#[test]
fn hardware_cost_is_193_bytes() {
    assert_eq!(
        probranch::pbs::cost::total_bytes(&PbsConfig::default()),
        193
    );
}

#[test]
fn accuracy_metrics_are_acceptable() {
    for row in experiments::accuracy(ExperimentScale::Smoke, Jobs::default()) {
        assert!(
            row.acceptable,
            "{}: {} = {}",
            row.name, row.metric, row.value
        );
    }
}

#[test]
fn randomness_battery_intervals_overlap_for_every_benchmark() {
    // Table III's conclusion: "the results of PBS and the original code
    // significantly overlap, indicating that the two techniques are
    // statistically identical."
    for row in experiments::table3(ExperimentScale::Smoke, Jobs::default()) {
        assert!(
            row.orig_pass.overlaps(&row.pbs_pass),
            "{}: PASS intervals disjoint",
            row.name
        );
        assert!(
            row.orig_fail.overlaps(&row.pbs_fail),
            "{}: FAIL intervals disjoint",
            row.name
        );
    }
}

#[test]
fn fig9_interference_is_bounded() {
    // "reaching up to 5.8% and a couple of percents on average" — ours
    // must stay in a plausible band (no runaway interference).
    let rows = experiments::fig9(ExperimentScale::Smoke, Jobs::default());
    for r in &rows {
        assert!(
            (-1.0..30.0).contains(&r.max_increase_pct),
            "{}: {}%",
            r.name,
            r.max_increase_pct
        );
    }
}

/// A loop of `k` iterations around one jumping `PROB_JMP` whose
/// comparison holds for every value (`value >= 0`, values `1000 + i`),
/// so every instance jumps — bootstrapped or PBS-directed — and the
/// not-taken counter on port 0 stays 0. The loop is entered through its
/// back-edge test, so the first taken back-edge opens the loop context
/// before the first instance runs and every instance shares one PBS
/// context.
fn jumping_prob_loop(k: i64) -> Program {
    let mut b = ProgramBuilder::new();
    let top = b.label("top");
    let join = b.label("join");
    let test = b.label("test");
    b.li(Reg::R1, 0).li(Reg::R2, 0);
    b.jmp(test);
    b.bind(top);
    b.add(Reg::R3, Reg::R1, 1000);
    b.prob_cmp(CmpOp::Ge, Reg::R3, 0);
    b.prob_jmp(None, join);
    b.add(Reg::R2, Reg::R2, 1);
    b.bind(join);
    b.add(Reg::R1, Reg::R1, 1);
    b.bind(test);
    b.br(CmpOp::Lt, Reg::R1, k, top);
    b.out(Reg::R2, 0);
    b.halt();
    b.build().expect("microprogram builds")
}

#[test]
fn pbs_microprogram_consumes_bootstraps_and_directs_in_closed_form() {
    // Section III-B by hand: K dynamic instances of one probabilistic
    // branch under PBS with B in flight consume exactly K values (one
    // per PROB_CMP, in generation order lagged by B after the
    // bootstrap), bootstrap the first B as regular branches and direct
    // the other K - B. The predictor sees the B bootstrap
    // instances and the K + 1 executions of the back-edge test, nothing
    // else: that is the prediction tape's length, and the probabilistic
    // entries of the reference engine's branch log.
    for (k, b) in [
        (1u64, 4usize),
        (4, 4),
        (5, 4),
        (40, 1),
        (40, 4),
        (40, 8),
        (300, 16),
    ] {
        let program = jumping_prob_loop(k as i64);
        let mut cfg = SimConfig::default().predictor(PredictorChoice::Tournament);
        cfg.pbs = Some(PbsConfig {
            in_flight: b,
            ..PbsConfig::default()
        });
        cfg.collect_branch_trace = true;
        let bootstraps = k.min(b as u64);
        let what = format!("K = {k}, B = {b}");

        let report = Simulation::new(EngineKind::Reference)
            .run(&program, &cfg)
            .expect("reference run");
        let pbs = report.pbs.expect("PBS stats");
        assert_eq!(
            report.prob_consumed.len() as u64,
            k,
            "values consumed, {what}"
        );
        // Bootstrap instances consume their own value; each directed
        // instance swaps in the value generated B instances earlier.
        let lagged: Vec<u64> = (0..k)
            .map(|i| 1000 + if i < bootstraps { i } else { i - bootstraps })
            .collect();
        assert_eq!(report.prob_consumed, lagged, "consumption order, {what}");
        assert_eq!(pbs.bootstrap, bootstraps, "bootstraps, {what}");
        assert_eq!(pbs.directed, k - bootstraps, "directed, {what}");
        assert_eq!(pbs.bypassed, 0, "bypassed, {what}");
        assert_eq!(report.output(0), &[0], "every instance jumps, {what}");
        let t = report.timing;
        assert_eq!(t.cond_branches, 2 * k + 1, "conditional branches, {what}");
        assert_eq!(t.prob_branches, k, "probabilistic branches, {what}");
        assert_eq!(t.pbs_directed, k - bootstraps, "directed in timing, {what}");
        assert!(
            t.mispredicts_prob <= bootstraps,
            "no mispredicts after the bootstrap, {what}"
        );
        let seen_prob = report.branch_trace.iter().filter(|e| e.is_prob).count() as u64;
        assert_eq!(seen_prob, bootstraps, "predictor-visible instances, {what}");

        let trace = DynTrace::capture(&program, &cfg).expect("capture");
        let (_, tape) = Simulation::default()
            .replay_branches_taped(&trace, &cfg, None)
            .expect("predictor-only pass");
        let tape = tape.expect("recorded tape");
        assert_eq!(
            tape.predictions(),
            k + 1 + bootstraps,
            "tape length, {what}"
        );
        let mut filtered = cfg.clone();
        filtered.filter_prob_from_predictor = true;
        let (_, tape) = Simulation::default()
            .replay_branches_taped(&trace, &filtered, None)
            .expect("filtered predictor-only pass");
        assert_eq!(
            tape.expect("recorded tape").predictions(),
            k + 1,
            "filtered tape length, {what}"
        );
    }
}

#[test]
fn pbs_bootstrap_length_matches_in_flight_depth() {
    // Section III-B: the first few executions are treated as a normal
    // branch; the count equals the in-flight provisioning.
    for depth in [1usize, 2, 4, 8] {
        let mut unit = PbsUnit::new(PbsConfig {
            in_flight: depth,
            ..PbsConfig::default()
        });
        let mut bootstraps = 0;
        for i in 0..20u64 {
            match unit.execute_prob_branch(5, &[i], 100, i < 100) {
                BranchResolution::Bootstrap { .. } => bootstraps += 1,
                BranchResolution::Directed { .. } => {}
                BranchResolution::Bypassed { .. } => panic!("unexpected bypass"),
            }
        }
        assert_eq!(bootstraps, depth, "in_flight {depth}");
    }
}
