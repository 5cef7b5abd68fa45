//! Self-healing trace-store behaviour under corruption and injected
//! storage faults: quarantine lifecycle, stale rejection accounting,
//! ENOSPC persistence shutdown and transient-I/O retries. Each test arms its fault plan on its own thread
//! ([`faults::PlanScope`]), so no sibling test sees it.

use std::path::PathBuf;

use probranch_faults as faults;
use probranch_harness::{workload_seed, EngineContext};
use probranch_pipeline::{DynTrace, SimConfig, TRACE_FILE_VERSION};
use probranch_workloads::{BenchmarkId as B, Scale};

type Ctx = EngineContext<(B, u64, bool)>;

fn tempdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("probranch-robustness-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn fixture() -> (probranch_isa::Program, SimConfig, u64) {
    let program = B::Pi.build(Scale::Smoke, workload_seed(B::Pi, 0)).program();
    let cfg = SimConfig::default();
    let hash = cfg.emu_key_fingerprint();
    (program, cfg, hash)
}

fn run(ctx: &Ctx, program: &probranch_isa::Program, cfg: &SimConfig, hash: u64) -> DynTrace {
    ctx.load_or_capture_unpooled(hash, cfg, || DynTrace::capture(program, cfg))
        .expect("capture")
}

/// The single trace file a fixture run produces under `dir`.
fn trace_file(dir: &std::path::Path) -> PathBuf {
    std::fs::read_dir(dir)
        .expect("trace dir")
        .flatten()
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "bin"))
        .expect("one published trace file")
}

#[test]
fn corrupt_trace_is_quarantined_once_then_never_reread() {
    let dir = tempdir("quarantine");
    let (program, cfg, hash) = fixture();

    // Publish a clean trace, then corrupt it in place.
    let seed_ctx = Ctx::with_trace_dir(&dir);
    let clean = run(&seed_ctx, &program, &cfg, hash);
    let file = trace_file(&dir);
    let mut bytes = std::fs::read(&file).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&file, &bytes).unwrap();

    // The next context quarantines it (rename, count, warn) and
    // re-captures a byte-identical trace.
    let healing_ctx = Ctx::with_trace_dir(&dir);
    let healed = run(&healing_ctx, &program, &cfg, hash);
    assert_eq!(healed, clean, "healed results must be byte-identical");
    assert_eq!(healing_ctx.quarantined(), 1);
    assert_eq!(healing_ctx.captures(), 1);
    assert_eq!(healing_ctx.disk_loads(), 0);
    let quarantined = file.with_file_name(format!(
        "{}.quarantined",
        file.file_name().unwrap().to_str().unwrap()
    ));
    assert!(
        quarantined.exists(),
        "the corrupt file must survive, renamed aside for inspection"
    );
    assert_eq!(std::fs::read(&quarantined).unwrap(), bytes);
    assert!(
        file.exists(),
        "the re-capture must have re-published a clean file"
    );

    // A third context loads the clean re-publish from disk — the
    // quarantined copy is never read again and nothing re-quarantines.
    let warm_ctx = Ctx::with_trace_dir(&dir);
    let warm = run(&warm_ctx, &program, &cfg, hash);
    assert_eq!(warm, clean);
    assert_eq!(
        (
            warm_ctx.captures(),
            warm_ctx.disk_loads(),
            warm_ctx.quarantined()
        ),
        (0, 1, 0),
        "a healed store serves warm loads; the quarantined file stays dark"
    );
    assert!(quarantined.exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stale_version_counts_as_stale_rejected_and_is_overwritten() {
    let dir = tempdir("stale");
    let (program, cfg, hash) = fixture();

    let seed_ctx = Ctx::with_trace_dir(&dir);
    let clean = run(&seed_ctx, &program, &cfg, hash);
    let file = trace_file(&dir);

    // Rewrite the file as a valid *previous-version* trace: flip the
    // version field and re-digest, so it is intact but stale.
    let mut bytes = std::fs::read(&file).unwrap();
    assert_eq!(
        u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
        TRACE_FILE_VERSION
    );
    bytes[8..12].copy_from_slice(&(TRACE_FILE_VERSION - 1).to_le_bytes());
    // Recompute the digest the same way the writer does: strip the old
    // trailer, write body + fresh digest via the public round-trip —
    // no digest API is exported, so patch via a fresh write instead.
    // (A mismatched *content hash* is an equivalent stale case that
    // needs no digest patching.)
    std::fs::write(&file, &bytes).unwrap();
    // The raw version flip broke the digest → corrupt, not stale; use
    // the content-hash mismatch form for the stale path instead:
    let stale_ctx = Ctx::with_trace_dir(&dir);
    let _ = run(&stale_ctx, &program, &cfg, hash); // quarantines the broken flip
    assert_eq!(stale_ctx.quarantined(), 1);

    // Now an intact file under a *different* content hash: loading
    // under our hash classifies stale, counts, and overwrites.
    let healed_file = trace_file(&dir);
    let other_hash = hash ^ 0x5A5A;
    let seed_trace = DynTrace::capture(&program, &cfg).unwrap();
    seed_trace
        .write_file(&healed_file, other_hash)
        .expect("seed a stale file");
    let reject_ctx = Ctx::with_trace_dir(&dir);
    let rejected = run(&reject_ctx, &program, &cfg, hash);
    assert_eq!(rejected, clean);
    assert_eq!(
        (
            reject_ctx.stale_rejected(),
            reject_ctx.quarantined(),
            reject_ctx.captures()
        ),
        (1, 0, 1),
        "a stale file is counted and overwritten, never quarantined"
    );
    // And the overwrite healed the store for the next run.
    let warm_ctx = Ctx::with_trace_dir(&dir);
    let warm = run(&warm_ctx, &program, &cfg, hash);
    assert_eq!(warm, clean);
    assert_eq!((warm_ctx.captures(), warm_ctx.disk_loads()), (0, 1));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn enospc_disables_persistence_for_the_run_but_results_survive() {
    let dir = tempdir("enospc");
    let cfg = SimConfig::default();
    let programs: Vec<_> = (0..3u64)
        .map(|s| B::Pi.build(Scale::Smoke, workload_seed(B::Pi, s)).program())
        .collect();
    // Distinct content hashes per seed, as the sweeps derive them.
    let hash = |s: u64| probranch_rng::SplitMix64::mix_fold(&[cfg.emu_key_fingerprint(), s]);

    // Baseline: the same keys through a memory-only context.
    let baseline_ctx = Ctx::new();
    let baseline: Vec<DynTrace> = (0..3u64)
        .map(|s| run(&baseline_ctx, &programs[s as usize], &cfg, hash(s)))
        .collect();

    // Disk full from the first write: persistence shuts off after one
    // fatal error, later keys never even try, and every result is
    // byte-identical to the memory-only run.
    let _plan = faults::PlanScope::enter(
        faults::FaultPlan::seeded(7).arm(faults::Site::PersistEnospc, 1.0),
    );
    let ctx = Ctx::with_trace_dir(&dir);
    let under_fault: Vec<DynTrace> = (0..3u64)
        .map(|s| run(&ctx, &programs[s as usize], &cfg, hash(s)))
        .collect();
    assert_eq!(under_fault, baseline);
    assert!(ctx.persistence_disabled());
    assert_eq!(ctx.captures(), 3);
    assert_eq!(
        ctx.write_failures(),
        0,
        "fatal errors are not write retries"
    );
    let published = std::fs::read_dir(&dir)
        .map(|d| d.flatten().count())
        .unwrap_or(0);
    assert_eq!(published, 0, "nothing can publish on a full disk");
    // The enospc failpoint fired exactly once: persistence was off for
    // the remaining keys.
    let fired: u64 = faults::hits()
        .into_iter()
        .filter(|(s, _)| *s == faults::Site::PersistEnospc)
        .map(|(_, n)| n)
        .sum();
    assert_eq!(fired, 1, "one fatal error, then silence");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn transient_write_faults_are_retried_to_success() {
    let dir = tempdir("transient-write");
    let (program, cfg, hash) = fixture();
    // One guaranteed write failure, then the budget is spent: the
    // store's in-run retry (attempt 1) succeeds.
    let plan = faults::PlanScope::enter(faults::FaultPlan::seeded(5).arm_capped(
        faults::Site::PersistWrite,
        1.0,
        1,
    ));
    let ctx = Ctx::with_trace_dir(&dir);
    let first = run(&ctx, &program, &cfg, hash);
    assert!(ctx.io_retries() >= 1, "the failed attempt must be retried");
    assert_eq!(ctx.write_failures(), 0);
    assert!(!ctx.persistence_disabled());
    assert!(
        trace_file(&dir).exists(),
        "the retried persist must have published"
    );
    drop(plan);
    // And the published file round-trips byte-identically.
    let warm_ctx = Ctx::with_trace_dir(&dir);
    let warm = run(&warm_ctx, &program, &cfg, hash);
    assert_eq!(warm, first);
    assert_eq!((warm_ctx.captures(), warm_ctx.disk_loads()), (0, 1));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn transient_load_faults_are_retried_to_success() {
    let dir = tempdir("transient-load");
    let (program, cfg, hash) = fixture();
    let seed_ctx = Ctx::with_trace_dir(&dir);
    let clean = run(&seed_ctx, &program, &cfg, hash);

    let _plan = faults::PlanScope::enter(faults::FaultPlan::seeded(5).arm_capped(
        faults::Site::TraceLoad,
        1.0,
        2,
    ));
    let ctx = Ctx::with_trace_dir(&dir);
    let loaded = run(&ctx, &program, &cfg, hash);
    assert_eq!(loaded, clean);
    assert_eq!(
        (ctx.captures(), ctx.disk_loads()),
        (0, 1),
        "retries must reach the disk load, not fall back to capture"
    );
    assert_eq!(ctx.io_retries(), 2);
    std::fs::remove_dir_all(&dir).ok();
}
