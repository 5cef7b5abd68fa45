//! Predecode: lowers a validated [`Program`] once into a dense array of
//! [`DecodedInst`]s so trace capture and the replay timing walk stop
//! re-deriving per-instruction facts on every *dynamic* instruction.
//!
//! The original engine pays three recurring costs per executed
//! instruction: the emulator re-matches the full [`Inst`] enum
//! (including the nested [`Operand`] register/immediate split), and the
//! timing model re-computes `uses()`, `defs()` and `exec_class()` —
//! three more matches that rebuild register lists every time. A
//! [`DecodedProgram`] hoists all of that to program-load time:
//!
//! * [`DecOp`] splits every register/immediate operand into its own
//!   variant (`AluRR`/`AluRI`, `BrRR`/`BrRI`, …), so execution is a
//!   single monomorphic match with no inner operand dispatch;
//! * [`InstTiming`] carries the resolved operand indices (with the
//!   condition flag folded in as pseudo-register [`FLAG_REG`]) and the
//!   [`ExecClass`](probranch_isa::ExecClass) latency-class index, so the out-of-order model reads
//!   dataflow straight from two tiny arrays.
//!
//! Decoding is semantically lossless: `DecOp` execution and
//! `InstTiming`-driven timing are byte-for-byte equivalent to the
//! `Inst`-interpreting reference engine, which the golden-trace suite,
//! `tests/engine_equivalence.rs` and a lock-step test of the two
//! interpreters over every workload lock in.

use probranch_isa::{AluOp, CmpOp, ExecClass, FpBinOp, FpUnOp, Inst, Operand, Program, Reg};

/// Pseudo-register index modeling the condition flag in the timing
/// model's ready-cycle scoreboard (one past the 32 architectural
/// registers).
pub const FLAG_REG: usize = 32;

/// Scoreboard index padding unused `uses` slots: never written by any
/// instruction, so its ready cycle stays 0 and a fixed-trip max over
/// all four slots equals the max over the live prefix.
pub const PAD_USE_REG: usize = 63;

/// Scoreboard index padding unused `defs` slots: never read by any
/// instruction (real uses are `0..=32` plus [`PAD_USE_REG`]), so a
/// fixed-trip write of both slots is invisible to the dataflow.
pub const PAD_DEF_REG: usize = 62;

/// A fully decoded micro-operation: the execution form of one [`Inst`]
/// with every operand kind resolved at decode time.
///
/// Register/immediate [`Operand`]s are split into dedicated variants so
/// the interpreter never matches twice per instruction; immediates are
/// pre-converted to the `u64` bit pattern the datapath consumes.
#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(missing_docs)]
pub enum DecOp {
    /// Integer ALU, register-register.
    AluRR {
        op: AluOp,
        dst: Reg,
        src1: Reg,
        src2: Reg,
    },
    /// Integer ALU, register-immediate.
    AluRI {
        op: AluOp,
        dst: Reg,
        src1: Reg,
        imm: u64,
    },
    /// Load immediate.
    Li { dst: Reg, imm: u64 },
    /// Register move.
    Mov { dst: Reg, src: Reg },
    /// FP two-source operation.
    FpBin {
        op: FpBinOp,
        dst: Reg,
        src1: Reg,
        src2: Reg,
    },
    /// FP one-source operation.
    FpUn { op: FpUnOp, dst: Reg, src: Reg },
    /// Signed integer → double.
    IntToFp { dst: Reg, src: Reg },
    /// Double → signed integer.
    FpToInt { dst: Reg, src: Reg },
    /// Conditional move.
    CMov {
        dst: Reg,
        cond: Reg,
        if_true: Reg,
        if_false: Reg,
    },
    /// 64-bit load.
    Load { dst: Reg, base: Reg, offset: i64 },
    /// 64-bit store.
    Store { src: Reg, base: Reg, offset: i64 },
    /// Compare, register-register.
    CmpRR {
        op: CmpOp,
        fp: bool,
        lhs: Reg,
        rhs: Reg,
    },
    /// Compare, register-immediate.
    CmpRI {
        op: CmpOp,
        fp: bool,
        lhs: Reg,
        imm: u64,
    },
    /// Jump if flag.
    Jf { target: u32 },
    /// Fused compare-and-branch, register-register.
    BrRR {
        op: CmpOp,
        fp: bool,
        lhs: Reg,
        rhs: Reg,
        target: u32,
    },
    /// Fused compare-and-branch, register-immediate.
    BrRI {
        op: CmpOp,
        fp: bool,
        lhs: Reg,
        imm: u64,
        target: u32,
    },
    /// Unconditional jump.
    Jmp { target: u32 },
    /// Call.
    Call { target: u32 },
    /// Return.
    Ret,
    /// Probabilistic compare, register-register.
    ProbCmpRR {
        op: CmpOp,
        fp: bool,
        prob: Reg,
        rhs: Reg,
    },
    /// Probabilistic compare, register-immediate.
    ProbCmpRI {
        op: CmpOp,
        fp: bool,
        prob: Reg,
        imm: u64,
    },
    /// Intermediate `PROB_JMP` registering one more swap register.
    ProbJmpPush { prob: Reg },
    /// Intermediate `PROB_JMP` with neither register nor target.
    ProbJmpQuiet,
    /// The jumping `PROB_JMP`.
    ProbJmp { prob: Option<Reg>, target: u32 },
    /// Emit on an output port.
    Out { src: Reg, port: u16 },
    /// Stop the machine.
    Halt,
    /// No operation.
    Nop,
}

impl DecOp {
    /// Whether the op transfers control: it ends a compiled block as its
    /// terminator, and single steps and terminators alike run it through
    /// [`Emulator::exec_control`](crate::Emulator::exec_control).
    #[inline(always)]
    pub(crate) fn is_control(&self) -> bool {
        matches!(
            self,
            DecOp::Jf { .. }
                | DecOp::BrRR { .. }
                | DecOp::BrRI { .. }
                | DecOp::Jmp { .. }
                | DecOp::Call { .. }
                | DecOp::Ret
                | DecOp::ProbJmp { .. }
        )
    }
}

/// Predecoded timing metadata of one static instruction: the dataflow
/// the out-of-order model needs, as flat index lists.
///
/// `uses`/`defs` hold ready-cycle scoreboard indices — architectural
/// register indices in `0..32` plus [`FLAG_REG`] for the condition flag
/// (reads by `jf`/`prob_jmp`, writes by `cmp`/`prob_cmp`), exactly
/// mirroring the reference model's flag handling. Unused slots are
/// padded with [`PAD_USE_REG`] / [`PAD_DEF_REG`], so the hot loops read
/// and write a fixed number of slots with no data-dependent trip count;
/// the live prefixes remain available through
/// [`uses`](InstTiming::uses) / [`defs`](InstTiming::defs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstTiming {
    /// Scoreboard indices whose ready cycles gate issue, padded with
    /// [`PAD_USE_REG`].
    pub uses: [u8; 4],
    /// Number of live entries in `uses`.
    pub n_uses: u8,
    /// Scoreboard indices written at complete, padded with
    /// [`PAD_DEF_REG`].
    pub defs: [u8; 2],
    /// Number of live entries in `defs`.
    pub n_defs: u8,
    /// [`ExecClass::index`](probranch_isa::ExecClass::index) of the instruction (functional-unit latency
    /// class; [`ExecClass::Load`](probranch_isa::ExecClass::Load) defers to the cache hierarchy).
    pub class: u8,
}

impl InstTiming {
    /// Derives the timing metadata of `inst` — the same facts the
    /// reference timing model recomputes per dynamic instruction.
    pub fn of(inst: &Inst) -> InstTiming {
        let mut uses = [PAD_USE_REG as u8; 4];
        let mut n_uses = 0u8;
        for r in inst.uses().iter() {
            uses[n_uses as usize] = r.index() as u8;
            n_uses += 1;
        }
        if matches!(inst, Inst::Jf { .. } | Inst::ProbJmp { .. }) {
            uses[n_uses as usize] = FLAG_REG as u8;
            n_uses += 1;
        }
        let mut defs = [PAD_DEF_REG as u8; 2];
        let mut n_defs = 0u8;
        for r in inst.defs().iter() {
            defs[n_defs as usize] = r.index() as u8;
            n_defs += 1;
        }
        if matches!(inst, Inst::Cmp { .. } | Inst::ProbCmp { .. }) {
            defs[n_defs as usize] = FLAG_REG as u8;
            n_defs += 1;
        }
        InstTiming {
            uses,
            n_uses,
            defs,
            n_defs,
            class: inst.exec_class().index() as u8,
        }
    }

    /// The live prefix of `uses`.
    #[inline]
    pub fn uses(&self) -> &[u8] {
        &self.uses[..self.n_uses as usize]
    }

    /// The live prefix of `defs`.
    #[inline]
    pub fn defs(&self) -> &[u8] {
        &self.defs[..self.n_defs as usize]
    }

    /// Whether the instruction is a load: its execute latency is the
    /// cache hierarchy's, not its class's.
    #[inline(always)]
    pub(crate) fn is_load(&self) -> bool {
        self.class == ExecClass::Load.index() as u8
    }
}

/// One predecoded instruction: the execution micro-op capture runs,
/// plus the timing metadata replay reads (copied out per pc into each
/// trace).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecodedInst {
    /// The execution form.
    pub op: DecOp,
    /// The timing form.
    pub timing: InstTiming,
}

/// A program lowered to a dense `Vec<DecodedInst>`, indexed by pc.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedProgram {
    insts: Vec<DecodedInst>,
}

/// Converts an operand into `(register, imm-bit-pattern)` split form.
fn split(o: Operand) -> Result<Reg, u64> {
    match o {
        Operand::Reg(r) => Ok(r),
        Operand::Imm(v) => Err(v as u64),
    }
}

fn lower(inst: &Inst) -> DecOp {
    match *inst {
        Inst::Alu {
            op,
            dst,
            src1,
            src2,
        } => match split(src2) {
            Ok(src2) => DecOp::AluRR {
                op,
                dst,
                src1,
                src2,
            },
            Err(imm) => DecOp::AluRI { op, dst, src1, imm },
        },
        Inst::Li { dst, imm } => DecOp::Li { dst, imm },
        Inst::Mov { dst, src } => DecOp::Mov { dst, src },
        Inst::FpBin {
            op,
            dst,
            src1,
            src2,
        } => DecOp::FpBin {
            op,
            dst,
            src1,
            src2,
        },
        Inst::FpUn { op, dst, src } => DecOp::FpUn { op, dst, src },
        Inst::IntToFp { dst, src } => DecOp::IntToFp { dst, src },
        Inst::FpToInt { dst, src } => DecOp::FpToInt { dst, src },
        Inst::CMov {
            dst,
            cond,
            if_true,
            if_false,
        } => DecOp::CMov {
            dst,
            cond,
            if_true,
            if_false,
        },
        Inst::Load { dst, base, offset } => DecOp::Load { dst, base, offset },
        Inst::Store { src, base, offset } => DecOp::Store { src, base, offset },
        Inst::Cmp { op, fp, lhs, rhs } => match split(rhs) {
            Ok(rhs) => DecOp::CmpRR { op, fp, lhs, rhs },
            Err(imm) => DecOp::CmpRI { op, fp, lhs, imm },
        },
        Inst::Jf { target } => DecOp::Jf { target },
        Inst::Br {
            op,
            fp,
            lhs,
            rhs,
            target,
        } => match split(rhs) {
            Ok(rhs) => DecOp::BrRR {
                op,
                fp,
                lhs,
                rhs,
                target,
            },
            Err(imm) => DecOp::BrRI {
                op,
                fp,
                lhs,
                imm,
                target,
            },
        },
        Inst::Jmp { target } => DecOp::Jmp { target },
        Inst::Call { target } => DecOp::Call { target },
        Inst::Ret => DecOp::Ret,
        Inst::ProbCmp { op, fp, prob, rhs } => match split(rhs) {
            Ok(rhs) => DecOp::ProbCmpRR { op, fp, prob, rhs },
            Err(imm) => DecOp::ProbCmpRI { op, fp, prob, imm },
        },
        Inst::ProbJmp { prob, target } => match (prob, target) {
            (_, Some(target)) => DecOp::ProbJmp { prob, target },
            (Some(prob), None) => DecOp::ProbJmpPush { prob },
            (None, None) => DecOp::ProbJmpQuiet,
        },
        Inst::Out { src, port } => DecOp::Out { src, port },
        Inst::Halt => DecOp::Halt,
        Inst::Nop => DecOp::Nop,
    }
}

impl DecodedProgram {
    /// Lowers `program` (one pass, O(static instructions)).
    pub fn of(program: &Program) -> DecodedProgram {
        DecodedProgram {
            insts: program
                .insts()
                .iter()
                .map(|i| DecodedInst {
                    op: lower(i),
                    timing: InstTiming::of(i),
                })
                .collect(),
        }
    }

    /// The decoded instruction at `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of range; validated programs keep the
    /// program counter in range.
    #[inline]
    pub fn fetch(&self, pc: u32) -> &DecodedInst {
        &self.insts[pc as usize]
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program is empty (never true for validated input).
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The decoded instructions.
    pub fn insts(&self) -> &[DecodedInst] {
        &self.insts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use probranch_isa::ProgramBuilder;

    #[test]
    fn operand_split_resolves_at_decode_time() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::R1, 7)
            .add(Reg::R2, Reg::R1, 3)
            .add(Reg::R3, Reg::R1, Reg::R2)
            .cmp(CmpOp::Lt, Reg::R3, 100)
            .halt();
        let p = b.build().unwrap();
        let d = DecodedProgram::of(&p);
        assert_eq!(d.len(), p.len());
        assert!(matches!(d.fetch(1).op, DecOp::AluRI { imm: 3, .. }));
        assert!(matches!(d.fetch(2).op, DecOp::AluRR { src2: Reg::R2, .. }));
        assert!(matches!(d.fetch(3).op, DecOp::CmpRI { imm: 100, .. }));
    }

    #[test]
    fn timing_matches_reference_facts_for_every_shape() {
        // Every instruction shape the ISA can express: the predecoded
        // dataflow must equal uses()/defs()/exec_class() plus the flag
        // rules of the reference timing model.
        let samples = [
            Inst::Alu {
                op: AluOp::Mul,
                dst: Reg::R1,
                src1: Reg::R2,
                src2: Operand::Reg(Reg::R3),
            },
            Inst::Li {
                dst: Reg::R4,
                imm: 9,
            },
            Inst::CMov {
                dst: Reg::R1,
                cond: Reg::R2,
                if_true: Reg::R3,
                if_false: Reg::R4,
            },
            Inst::Cmp {
                op: CmpOp::Eq,
                fp: false,
                lhs: Reg::R5,
                rhs: Operand::imm(1),
            },
            Inst::Jf { target: 0 },
            Inst::Br {
                op: CmpOp::Lt,
                fp: true,
                lhs: Reg::R6,
                rhs: Operand::Reg(Reg::R7),
                target: 0,
            },
            Inst::ProbCmp {
                op: CmpOp::Lt,
                fp: false,
                prob: Reg::R8,
                rhs: Operand::imm(10),
            },
            Inst::ProbJmp {
                prob: Some(Reg::R9),
                target: None,
            },
            Inst::ProbJmp {
                prob: None,
                target: Some(0),
            },
            Inst::Load {
                dst: Reg::R1,
                base: Reg::R2,
                offset: 8,
            },
            Inst::Store {
                src: Reg::R1,
                base: Reg::R2,
                offset: 8,
            },
            Inst::Ret,
            Inst::Halt,
        ];
        for inst in samples {
            let t = InstTiming::of(&inst);
            let mut want_uses: Vec<u8> = inst.uses().iter().map(|r| r.index() as u8).collect();
            if matches!(inst, Inst::Jf { .. } | Inst::ProbJmp { .. }) {
                want_uses.push(FLAG_REG as u8);
            }
            let mut want_defs: Vec<u8> = inst.defs().iter().map(|r| r.index() as u8).collect();
            if matches!(inst, Inst::Cmp { .. } | Inst::ProbCmp { .. }) {
                want_defs.push(FLAG_REG as u8);
            }
            assert_eq!(t.uses(), want_uses.as_slice(), "{inst:?}");
            assert_eq!(t.defs(), want_defs.as_slice(), "{inst:?}");
            assert_eq!(t.class as usize, inst.exec_class().index(), "{inst:?}");
        }
    }

    #[test]
    fn prob_jmp_lowering_distinguishes_all_three_forms() {
        let jumping = Inst::ProbJmp {
            prob: Some(Reg::R3),
            target: Some(4),
        };
        assert!(matches!(
            lower(&jumping),
            DecOp::ProbJmp {
                prob: Some(Reg::R3),
                target: 4
            }
        ));
        assert!(matches!(
            lower(&Inst::ProbJmp {
                prob: Some(Reg::R2),
                target: None
            }),
            DecOp::ProbJmpPush { prob: Reg::R2 }
        ));
        assert!(matches!(
            lower(&Inst::ProbJmp {
                prob: None,
                target: None
            }),
            DecOp::ProbJmpQuiet
        ));
    }

    #[test]
    fn fp_immediates_keep_their_bit_patterns() {
        let i = Inst::Cmp {
            op: CmpOp::Lt,
            fp: true,
            lhs: Reg::R1,
            rhs: Operand::imm(2.5f64.to_bits() as i64),
        };
        match lower(&i) {
            DecOp::CmpRI { imm, .. } => assert_eq!(f64::from_bits(imm), 2.5),
            other => panic!("unexpected lowering {other:?}"),
        }
    }
}
