//! Failpoint coverage for the persistence layer. Each test arms its
//! fault plan on its own thread ([`faults::PlanScope`]).

use std::path::PathBuf;

use probranch_faults as faults;
use probranch_pipeline::{DynTrace, SimConfig, TraceLoad};

use probranch_isa::{CmpOp, ProgramBuilder, Reg};

fn workload(iters: i64) -> probranch_isa::Program {
    let mut b = ProgramBuilder::new();
    let top = b.label("top");
    let join = b.label("join");
    b.li(Reg::R1, 0x243F6A8885A308D3u64 as i64);
    b.li(Reg::R2, 0);
    b.li(Reg::R3, 0);
    b.li(Reg::R4, (u64::MAX / 3) as i64);
    b.li(Reg::R9, 256);
    b.bind(top);
    b.shr(Reg::R5, Reg::R1, 12).xor(Reg::R1, Reg::R1, Reg::R5);
    b.shl(Reg::R5, Reg::R1, 25).xor(Reg::R1, Reg::R1, Reg::R5);
    b.st(Reg::R1, Reg::R9, 0).ld(Reg::R8, Reg::R9, 0);
    b.sltu(Reg::R8, Reg::R8, Reg::R4);
    b.prob_cmp(CmpOp::Eq, Reg::R8, 1);
    b.prob_jmp(None, join);
    b.add(Reg::R3, Reg::R3, 1);
    b.bind(join);
    b.add(Reg::R2, Reg::R2, 1);
    b.br(CmpOp::Lt, Reg::R2, iters, top);
    b.out(Reg::R3, 0);
    b.halt();
    b.build().unwrap()
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "probranch-fault-persist-{tag}-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Whether a directory entry is a writer temp (`*.tmp.<pid>.<n>`).
fn is_temp(name: &str) -> bool {
    let mut rev = name.rsplit('.');
    let seq = rev.next();
    let pid = rev.next();
    matches!(
        (seq, pid, rev.next()),
        (Some(s), Some(p), Some("tmp"))
            if s.parse::<u64>().is_ok() && p.parse::<u32>().is_ok()
    )
}

#[test]
fn injected_write_faults_fail_cleanly_and_name_their_site() {
    let cfg = SimConfig::default();
    let trace = DynTrace::capture(&workload(300), &cfg).unwrap();
    let hash = cfg.emu_key_fingerprint();
    let dir = tempdir("sites");

    for site in [
        faults::Site::PersistWrite,
        faults::Site::PersistEnospc,
        faults::Site::PersistShort,
        faults::Site::PersistFsync,
        faults::Site::PersistRename,
    ] {
        let _plan = faults::PlanScope::enter(faults::FaultPlan::seeded(11).arm(site, 1.0));
        let path = dir.join(format!("trace-{}.bin", site.name().replace('.', "-")));
        let err = trace
            .write_file(&path, hash)
            .expect_err("armed write fault must surface");
        assert!(
            err.to_string().contains(site.name()),
            "{site}: error must name the site, got `{err}`"
        );
        assert!(
            !path.exists(),
            "{site}: a failed write must never publish the final name"
        );
        // No torn temp survives a failed in-process attempt.
        let temps = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_str().is_some_and(is_temp))
            .count();
        assert_eq!(temps, 0, "{site}: failed attempts must clean their temps");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn enospc_carries_the_storage_full_kind() {
    let cfg = SimConfig::default();
    let trace = DynTrace::capture(&workload(200), &cfg).unwrap();
    let hash = cfg.emu_key_fingerprint();
    let dir = tempdir("enospc");
    let _plan = faults::PlanScope::enter(
        faults::FaultPlan::seeded(11).arm(faults::Site::PersistEnospc, 1.0),
    );
    let err = trace.write_file(&dir.join("t.bin"), hash).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::StorageFull);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn retries_reroll_write_and_load_faults_deterministically() {
    let cfg = SimConfig::default();
    let trace = DynTrace::capture(&workload(300), &cfg).unwrap();
    let hash = cfg.emu_key_fingerprint();
    let dir = tempdir("retry");
    let path = dir.join("trace-retry.bin");

    // A transient plan (budget 1) fails attempt 0 and lets the
    // re-salted retry through — deterministically.
    {
        let _plan = faults::PlanScope::enter(faults::FaultPlan::seeded(11).arm_capped(
            faults::Site::PersistWrite,
            1.0,
            1,
        ));
        assert!(trace.write_file_attempt(&path, hash, 0).is_err());
        trace
            .write_file_attempt(&path, hash, 1)
            .expect("retry past the budget must succeed");
        assert_eq!(DynTrace::read_file(&path, hash, &cfg).unwrap(), trace);
    }

    // An injected load fault surfaces as a retryable I/O error, and
    // the next attempt loads clean.
    {
        let _plan = faults::PlanScope::enter(faults::FaultPlan::seeded(11).arm_capped(
            faults::Site::TraceLoad,
            1.0,
            1,
        ));
        assert!(matches!(
            DynTrace::load_file(&path, hash, &cfg, 0),
            TraceLoad::Io(_)
        ));
        assert!(matches!(
            DynTrace::load_file(&path, hash, &cfg, 1),
            TraceLoad::Loaded(_)
        ));
    }
    std::fs::remove_dir_all(&dir).ok();
}
