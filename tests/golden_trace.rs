//! Golden-trace regression tests: the per-branch (pc, predicted,
//! actual) stream of a small fixed-seed workload is serialized under
//! `tests/golden/` and replayed here, so a predictor or pipeline
//! refactor that changes *any* prediction — even one that leaves the
//! aggregate MPKI looking plausible — fails loudly instead of silently
//! drifting the paper's figures.
//!
//! To regenerate after an *intentional* behaviour change:
//!
//! ```text
//! PROBRANCH_REGEN_GOLDEN=1 cargo test --test golden_trace
//! git diff tests/golden/   # review the drift before committing it
//! ```

use probranch::pipeline::{BranchTraceEntry, PredictorChoice, SimConfig, Simulation};
use probranch::workloads::{BenchmarkId, Scale};

/// Fixed workload seed: golden files pin one exact dynamic stream.
const GOLDEN_SEED: u64 = 0xB5EED;

/// Verbatim trace prefix kept in the golden file; the rest of the run
/// is covered by the trailing count + FNV hash.
const PREFIX: usize = 512;

fn trace_of(id: BenchmarkId, predictor: PredictorChoice) -> Vec<BranchTraceEntry> {
    let bench = id.build(Scale::Smoke, GOLDEN_SEED);
    let cfg = SimConfig {
        predictor,
        collect_branch_trace: true,
        ..SimConfig::default()
    };
    let report = Simulation::default()
        .run(&bench.program(), &cfg)
        .expect("golden workload simulates");
    assert!(
        report.branch_trace.len() > PREFIX,
        "{id:?}: trace too short ({}) to be a meaningful golden",
        report.branch_trace.len()
    );
    report.branch_trace
}

/// FNV-1a over the full trace, so drift beyond the verbatim prefix is
/// still caught.
fn fnv_hash(trace: &[BranchTraceEntry]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |b: u64| {
        for byte in b.to_le_bytes() {
            h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for e in trace {
        eat(e.pc as u64);
        eat(((e.predicted as u64) << 2) | ((e.taken as u64) << 1) | e.is_prob as u64);
    }
    h
}

fn render(id: BenchmarkId, predictor: PredictorChoice, trace: &[BranchTraceEntry]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# golden branch trace: {id:?} / {} / Scale::Smoke / seed {GOLDEN_SEED:#x}\n",
        predictor.name(),
    ));
    out.push_str(&format!(
        "# columns: pc predicted taken is_prob (first {PREFIX} predictor-consulted branches)\n"
    ));
    for e in &trace[..PREFIX] {
        out.push_str(&format!(
            "{} {} {} {}\n",
            e.pc, e.predicted as u8, e.taken as u8, e.is_prob as u8
        ));
    }
    out.push_str(&format!(
        "total {} fnv {:016x}\n",
        trace.len(),
        fnv_hash(trace)
    ));
    out
}

fn check_golden(file: &str, id: BenchmarkId, predictor: PredictorChoice) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    let actual = render(id, predictor, &trace_of(id, predictor));
    if std::env::var("PROBRANCH_REGEN_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir");
        std::fs::write(&path, &actual).expect("write golden");
        eprintln!("regenerated {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with PROBRANCH_REGEN_GOLDEN=1 to create it",
            path.display()
        )
    });
    if expected != actual {
        // Point at the first diverging line instead of dumping 500 of them.
        let line = expected
            .lines()
            .zip(actual.lines())
            .position(|(e, a)| e != a)
            .map_or(expected.lines().count().min(actual.lines().count()), |i| i);
        let show = |s: &str| s.lines().nth(line).unwrap_or("<eof>").to_string();
        panic!(
            "golden trace drift in {} at line {}:\n  expected: {}\n  actual:   {}\n\
             If the change is intentional, regenerate with PROBRANCH_REGEN_GOLDEN=1 \
             and review the diff.",
            path.display(),
            line + 1,
            show(&expected),
            show(&actual),
        );
    }
}

#[test]
fn pi_tage_trace_matches_golden() {
    check_golden(
        "pi_tage_smoke.trace",
        BenchmarkId::Pi,
        PredictorChoice::TageScL,
    );
}

#[test]
fn bandit_tournament_trace_matches_golden() {
    check_golden(
        "bandit_tournament_smoke.trace",
        BenchmarkId::Bandit,
        PredictorChoice::Tournament,
    );
}

#[test]
fn golden_trace_is_reproducible_in_process() {
    // The precondition for golden files making sense at all.
    let a = trace_of(BenchmarkId::Pi, PredictorChoice::TageScL);
    let b = trace_of(BenchmarkId::Pi, PredictorChoice::TageScL);
    assert_eq!(a, b);
    assert_eq!(fnv_hash(&a), fnv_hash(&b));
}

#[test]
fn trace_collection_is_off_by_default() {
    let bench = BenchmarkId::Pi.build(Scale::Smoke, GOLDEN_SEED);
    let report = Simulation::default()
        .run(&bench.program(), &SimConfig::default())
        .expect("sim");
    assert!(report.branch_trace.is_empty());
}
