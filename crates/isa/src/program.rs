use std::fmt;

use crate::{Inst, IsaError};

/// Classification of a static branch site, as reported by
/// [`Program::static_branches`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchKind {
    /// A regular conditional branch (`br` or `cmp`/`jf`).
    Conditional,
    /// A probabilistic jump (`prob_jmp` with a target).
    Probabilistic,
    /// An unconditional direct jump.
    Unconditional,
    /// A call.
    Call,
    /// A return.
    Return,
}

/// A static branch site within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticBranch {
    /// Instruction index of the branch.
    pub pc: u32,
    /// The branch's classification.
    pub kind: BranchKind,
    /// Direct target, if statically known (`None` for returns).
    pub target: Option<u32>,
}

/// A validated `probranch` program: a sequence of instructions executed
/// starting at index 0.
///
/// Construct programs with [`ProgramBuilder`](crate::ProgramBuilder), the
/// text assembler [`parse_asm`](crate::parse_asm), or [`Program::new`]
/// from raw instructions.
///
/// ```
/// use probranch_isa::{Inst, Program, Reg};
/// let p = Program::new(vec![Inst::Li { dst: Reg::R1, imm: 7 }, Inst::Halt])?;
/// assert_eq!(p.len(), 2);
/// # Ok::<(), probranch_isa::IsaError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    insts: Vec<Inst>,
}

impl Program {
    /// Validates and wraps an instruction sequence.
    ///
    /// # Errors
    ///
    /// * [`IsaError::EmptyProgram`] if `insts` is empty;
    /// * [`IsaError::MissingHalt`] if no `halt` instruction exists;
    /// * [`IsaError::TargetOutOfRange`] if any direct control transfer
    ///   targets an index outside the program.
    pub fn new(insts: Vec<Inst>) -> Result<Program, IsaError> {
        if insts.is_empty() {
            return Err(IsaError::EmptyProgram);
        }
        if !insts.iter().any(|i| matches!(i, Inst::Halt)) {
            return Err(IsaError::MissingHalt);
        }
        let len = insts.len() as u32;
        for (pc, inst) in insts.iter().enumerate() {
            if let Some(target) = inst.target() {
                if target >= len {
                    return Err(IsaError::TargetOutOfRange {
                        pc: pc as u32,
                        target,
                        len,
                    });
                }
            }
        }
        Ok(Program { insts })
    }

    /// The instruction at `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of range; the emulator guarantees in-range
    /// program counters for validated programs.
    #[inline]
    pub fn fetch(&self, pc: u32) -> &Inst {
        &self.insts[pc as usize]
    }

    /// The instruction at `pc`, or `None` when out of range.
    pub fn get(&self, pc: u32) -> Option<&Inst> {
        self.insts.get(pc as usize)
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program is empty (never true for a validated program).
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The underlying instructions.
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// Enumerates all static branch sites (conditional, probabilistic,
    /// unconditional, calls and returns).
    pub fn static_branches(&self) -> Vec<StaticBranch> {
        let mut out = Vec::new();
        for (pc, inst) in self.insts.iter().enumerate() {
            let pc = pc as u32;
            let kind = match inst {
                Inst::Br { .. } | Inst::Jf { .. } => BranchKind::Conditional,
                Inst::ProbJmp {
                    target: Some(_), ..
                } => BranchKind::Probabilistic,
                Inst::Jmp { .. } => BranchKind::Unconditional,
                Inst::Call { .. } => BranchKind::Call,
                Inst::Ret => BranchKind::Return,
                _ => continue,
            };
            out.push(StaticBranch {
                pc,
                kind,
                target: inst.target(),
            });
        }
        out
    }

    /// Counts static conditional branch sites, probabilistic and regular,
    /// in the spirit of the paper's Table II ("No. prob. branch" column,
    /// e.g. `2/47`).
    pub fn branch_counts(&self) -> (usize, usize) {
        let mut prob = 0;
        let mut total = 0;
        for b in self.static_branches() {
            match b.kind {
                BranchKind::Probabilistic => {
                    prob += 1;
                    total += 1;
                }
                BranchKind::Conditional => total += 1,
                _ => {}
            }
        }
        (prob, total)
    }

    /// Iterates over `(pc, instruction)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &Inst)> {
        self.insts.iter().enumerate().map(|(pc, i)| (pc as u32, i))
    }
}

impl fmt::Display for Program {
    /// Disassembles the whole program, one instruction per line, prefixed
    /// with the instruction index.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (pc, inst) in self.iter() {
            writeln!(f, "{pc:6}: {inst}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CmpOp, Operand, Reg};

    fn halt_only() -> Vec<Inst> {
        vec![Inst::Halt]
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(Program::new(vec![]), Err(IsaError::EmptyProgram));
    }

    #[test]
    fn rejects_missing_halt() {
        assert_eq!(Program::new(vec![Inst::Nop]), Err(IsaError::MissingHalt));
    }

    #[test]
    fn rejects_out_of_range_target() {
        let p = Program::new(vec![Inst::Jmp { target: 5 }, Inst::Halt]);
        assert_eq!(
            p,
            Err(IsaError::TargetOutOfRange {
                pc: 0,
                target: 5,
                len: 2
            })
        );
    }

    #[test]
    fn accepts_valid() {
        let p = Program::new(halt_only()).unwrap();
        assert_eq!(p.len(), 1);
        assert!(!p.is_empty());
        assert_eq!(*p.fetch(0), Inst::Halt);
        assert_eq!(p.get(1), None);
    }

    #[test]
    fn static_branches_classification() {
        let insts = vec![
            Inst::Br {
                op: CmpOp::Lt,
                fp: false,
                lhs: Reg::R1,
                rhs: Operand::imm(0),
                target: 0,
            },
            Inst::ProbJmp {
                prob: None,
                target: Some(0),
            },
            Inst::ProbJmp {
                prob: Some(Reg::R1),
                target: None,
            }, // intermediate: not a branch site
            Inst::Jmp { target: 0 },
            Inst::Call { target: 0 },
            Inst::Ret,
            Inst::Jf { target: 0 },
            Inst::Halt,
        ];
        let p = Program::new(insts).unwrap();
        let b = p.static_branches();
        assert_eq!(b.len(), 6);
        assert_eq!(b[0].kind, BranchKind::Conditional);
        assert_eq!(b[1].kind, BranchKind::Probabilistic);
        assert_eq!(b[2].kind, BranchKind::Unconditional);
        assert_eq!(b[3].kind, BranchKind::Call);
        assert_eq!(b[4].kind, BranchKind::Return);
        assert_eq!(b[4].target, None);
        assert_eq!(b[5].kind, BranchKind::Conditional);
        assert_eq!(p.branch_counts(), (1, 3));
    }

    #[test]
    fn display_contains_every_pc() {
        let p = Program::new(vec![Inst::Nop, Inst::Halt]).unwrap();
        let s = p.to_string();
        assert!(s.contains("0:"));
        assert!(s.contains("1:"));
        assert!(s.contains("halt"));
    }
}
