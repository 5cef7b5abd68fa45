//! Control-flow decoupling (CFD) applicability analysis — the paper's
//! second baseline technique (Sheikh, Tuck & Rotenberg, MICRO 2012;
//! paper Section II-B2, Table I).
//!
//! CFD splits a loop containing a *separable* branch into two loops: the
//! first computes branch predicates (and any data values) into a queue;
//! the second pops them to steer the control-dependent code. It fails
//! when:
//!
//! * the branch is reached through a non-inlined function call from the
//!   loop ("the compiler is unable to inline the function, and hence CFD
//!   cannot split the loop" — Swaptions, Bandit);
//! * the control-dependent code feeds values back into the code leading
//!   to the branch in later iterations (a "hard-to-split loop-carried
//!   dependence" — Photon);
//! * the branch is not inside any loop, or has no recognizable guarded
//!   region.

use std::collections::BTreeSet;

use probranch_isa::{Inst, Program, Reg};

use crate::loops::{find_loops, innermost_containing};
use crate::predication::guarded_region;
use crate::{Applicability, Inapplicable};

/// Registers holding inline random-number-generator state: the
/// registers written by the xorshift step sequence feeding each detected
/// generator root (state and scratch).
fn generator_state_regs(program: &Program) -> BTreeSet<Reg> {
    let mut regs = BTreeSet::new();
    for root in crate::taint::detect_xorshift_roots(program) {
        let start = root.saturating_sub(6);
        for pc in start..root {
            for d in program.fetch(pc).defs().iter() {
                regs.insert(d);
            }
        }
    }
    regs
}

/// The extent of the function containing `pc`: from the nearest callee
/// entry at or before `pc` to its `ret`. Returns `None` when `pc` is in
/// the main (entry) region.
fn containing_function(program: &Program, pc: u32) -> Option<(u32, u32)> {
    // Callee entries are the targets of call instructions.
    let mut entries: Vec<u32> = program
        .iter()
        .filter_map(|(_, i)| match i {
            Inst::Call { target } => Some(*target),
            _ => None,
        })
        .collect();
    entries.sort_unstable();
    entries.dedup();
    let entry = entries.iter().rev().find(|&&e| e <= pc).copied()?;
    // Function extends to its first `ret` at or after `pc`'s entry.
    let ret = (entry..program.len() as u32).find(|&p| matches!(program.fetch(p), Inst::Ret))?;
    (pc <= ret).then_some((entry, ret))
}

/// CFD applicability for the probabilistic (or any conditional) branch
/// at `branch_pc`.
pub fn analyze(program: &Program, branch_pc: u32) -> Applicability {
    let loops = find_loops(program);
    let enclosing = innermost_containing(&loops, branch_pc);

    // Branch inside a function? CFD needs the branch in the loop body
    // proper; a call boundary between loop and branch defeats the split.
    if let Some((entry, ret)) = containing_function(program, branch_pc) {
        // Is the function called from within a loop (and the branch's
        // innermost loop does not itself sit inside the function)?
        let called_from_loop = program.iter().any(|(pc, i)| {
            matches!(i, Inst::Call { target } if *target == entry)
                && innermost_containing(&loops, pc).is_some()
        });
        let branch_loop_inside_fn = enclosing.is_some_and(|l| l.head >= entry && l.latch <= ret);
        if called_from_loop && !branch_loop_inside_fn {
            return Err(Inapplicable::ReachedThroughCall);
        }
    }

    let Some(l) = enclosing else {
        return Err(Inapplicable::NotInLoop);
    };
    let region = guarded_region(program, branch_pc)?;

    // Loop-carried dependence: registers defined by the
    // control-dependent code that are read by the code leading to the
    // branch (the first split loop) in later iterations. Random-number
    // generator state is excluded: CFD's first loop hoists the draws and
    // queues the drawn values alongside the predicates, so generator
    // state never crosses the split.
    let rng_state = generator_state_regs(program);
    let region_defs: BTreeSet<Reg> = (region.start..region.end.min(l.latch + 1))
        .flat_map(|pc| program.fetch(pc).defs().iter().collect::<Vec<_>>())
        .filter(|r| !rng_state.contains(r))
        .collect();
    let pre_branch_uses: BTreeSet<Reg> = (l.head..=branch_pc)
        .flat_map(|pc| program.fetch(pc).uses().iter().collect::<Vec<_>>())
        .collect();
    if region_defs.intersection(&pre_branch_uses).next().is_some() {
        return Err(Inapplicable::LoopCarriedDependence);
    }
    Ok(())
}

/// Analyzes every probabilistic branch site; the benchmark-level Table I
/// verdict is "applicable" iff all sites are.
pub fn analyze_program(program: &Program) -> Vec<(u32, Applicability)> {
    program
        .iter()
        .filter(|(_, i)| {
            matches!(
                i,
                Inst::ProbJmp {
                    target: Some(_),
                    ..
                }
            )
        })
        .map(|(pc, _)| (pc, analyze(program, pc)))
        .collect()
}

/// Estimated dynamic-instruction overhead of applying CFD to a loop:
/// per-iteration push/pop pairs plus duplicated loop bookkeeping — the
/// cost PBS avoids ("CFD incurs overhead compared to PBS because of
/// increased loop overhead ... and additional push and pop operations").
pub fn overhead_per_iteration(num_branches: usize, data_values: usize) -> usize {
    // One push + one pop per predicate, one per queued data value, plus
    // a duplicated loop-control branch and induction update.
    2 * num_branches + 2 * data_values + 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use probranch_isa::parse_asm;

    #[test]
    fn separable_branch_in_loop_is_applicable() {
        let p = parse_asm(
            r"
            li r1, 0
            li r2, 0
        top:
            add r2, r2, 1
            and r3, r2, 7
            br ne, r3, 0, skip
            add r1, r1, 1
        skip:
            br lt, r2, 50, top
            halt
        ",
        )
        .unwrap();
        assert_eq!(analyze(&p, 4), Ok(()));
    }

    #[test]
    fn branch_outside_loop_is_rejected() {
        let p = parse_asm("br eq, r1, 0, 2\n nop\n halt").unwrap();
        assert_eq!(analyze(&p, 0), Err(Inapplicable::NotInLoop));
    }

    #[test]
    fn loop_carried_dependence_is_detected() {
        // The guarded region writes r2, which the pre-branch code reads
        // next iteration.
        let p = parse_asm(
            r"
        top:
            add r2, r2, 1
            br ge, r2, 100, skip
            mul r2, r2, 2
        skip:
            add r1, r1, 1
            br lt, r1, 50, top
            halt
        ",
        )
        .unwrap();
        assert_eq!(analyze(&p, 1), Err(Inapplicable::LoopCarriedDependence));
    }

    #[test]
    fn branch_in_function_called_from_loop_is_rejected() {
        let p = parse_asm(
            r"
            li r1, 0
        top:
            call f
            add r1, r1, 1
            br lt, r1, 10, top
            halt
        f:
            br eq, r2, 0, fskip
            add r3, r3, 1
        fskip:
            ret
        ",
        )
        .unwrap();
        // The branch inside f (pc 5).
        assert_eq!(analyze(&p, 5), Err(Inapplicable::ReachedThroughCall));
    }

    #[test]
    fn loop_inside_function_is_fine() {
        // A loop wholly inside a called function: CFD can split it.
        let p = parse_asm(
            r"
            call f
            halt
        f:
            li r1, 0
        ftop:
            add r1, r1, 1
            and r3, r1, 3
            br ne, r3, 0, fskip
            add r2, r2, 1
        fskip:
            br lt, r1, 20, ftop
            ret
        ",
        )
        .unwrap();
        assert_eq!(analyze(&p, 5), Ok(()));
    }

    #[test]
    fn overhead_model_is_monotone() {
        assert!(overhead_per_iteration(1, 0) < overhead_per_iteration(2, 0));
        assert!(overhead_per_iteration(1, 0) < overhead_per_iteration(1, 2));
        assert_eq!(overhead_per_iteration(1, 0), 4);
    }

    #[test]
    fn table_i_cfd_verdicts() {
        // Paper Table I: CFD applies to DOP, Greeks, Genetic, MC-integ
        // and PI; it fails for Swaptions, Photon and Bandit.
        use probranch_workloads::{all_benchmarks, Scale};
        let expected = [
            ("DOP", true),
            ("Greeks", true),
            ("Swaptions", false),
            ("Genetic", true),
            ("Photon", false),
            ("PI", true),
            ("MC-integ", true),
            ("Bandit", false),
        ];
        let mut by_name = std::collections::HashMap::new();
        for bench in all_benchmarks(Scale::Smoke, 1) {
            let verdicts = analyze_program(&bench.program());
            assert!(!verdicts.is_empty(), "{} has prob branches", bench.name());
            by_name.insert(
                bench.name().to_string(),
                verdicts.iter().all(|(_, v)| v.is_ok()),
            );
        }
        for (name, ok) in expected {
            assert_eq!(by_name[name], ok, "{name}");
        }
    }
}
