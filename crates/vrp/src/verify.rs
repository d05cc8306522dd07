//! Admission-control verification (paper, section 4.6).
//!
//! "For any forwarder to be installed on the MicroEngines, the admission
//! control mechanism must inspect the code to determine the number of
//! cycles and memory accesses it requires. (The number of cycles required
//! is slightly larger than the instruction counts reported in Table 5
//! since branch delays must be taken into consideration.)"
//!
//! Because branches are forward-only, the control-flow graph is a DAG
//! and the worst-case cost is a single backward dynamic-programming pass.

use crate::isa::{Insn, Src, VrpProgram, MAX_STATE_BYTES, NUM_GPRS};

/// Extra cycles charged when a branch is taken (the MicroEngines'
/// branch-delay shadow).
pub const BRANCH_DELAY_CYCLES: u32 = 1;

/// The resource budget a program must fit in. Defaults are the paper's
/// prototype VRP at 8 x 100 Mbps line rate (section 4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VrpBudget {
    /// Worst-case cycles per MP ("up to 240 cycles worth of
    /// instructions").
    pub cycles: u32,
    /// SRAM transfers per MP ("up to 24 SRAM transfers (reads or writes)
    /// of 4 bytes each").
    pub sram_transfers: u32,
    /// Hash-unit uses per MP ("3 hashes with support of the hardware
    /// hashing unit").
    pub hashes: u32,
    /// Free ISTORE slots available for this installation.
    pub istore_slots: usize,
}

impl Default for VrpBudget {
    fn default() -> Self {
        Self {
            cycles: 240,
            sram_transfers: 24,
            hashes: 3,
            istore_slots: 650,
        }
    }
}

/// Runtime-overrun hook (paper, section 4.6): MicroEngine programs are
/// bounded *statically* by [`verify`], but StrongARM and Pentium
/// forwarders only *declare* a per-packet cost at admission and are
/// policed dynamically. The health monitor feeds measured per-packet
/// cycle averages through this predicate; `true` means the forwarder is
/// running past `slack` times its declared budget and should start
/// climbing the escalation ladder.
pub fn runtime_overrun(declared_cycles: u64, measured_avg_cycles: f64, slack: f64) -> bool {
    declared_cycles > 0 && measured_avg_cycles > declared_cycles as f64 * slack.max(1.0)
}

/// Static worst-case cost of a verified program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VrpCost {
    /// Instruction count (= ISTORE slots).
    pub insns: usize,
    /// Worst-case cycles including branch delays.
    pub worst_cycles: u32,
    /// Worst-case SRAM reads on any path.
    pub sram_reads: u32,
    /// Worst-case SRAM writes on any path.
    pub sram_writes: u32,
    /// Worst-case SRAM bytes touched (4 per transfer).
    pub sram_bytes: u32,
    /// Worst-case hash-unit uses.
    pub hashes: u32,
    /// Distinct GPRs referenced.
    pub registers: u32,
}

/// Why a program was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// Empty program.
    Empty,
    /// A branch target is not strictly forward.
    BackwardBranch {
        /// Instruction index of the branch.
        at: usize,
        /// Its target.
        target: usize,
    },
    /// A branch target is past the end of the program.
    BranchOutOfRange {
        /// Instruction index of the branch.
        at: usize,
        /// Its target.
        target: usize,
    },
    /// A register index is >= 8.
    BadRegister {
        /// Instruction index.
        at: usize,
    },
    /// An MP access crosses the 64-byte boundary.
    MpOutOfRange {
        /// Instruction index.
        at: usize,
    },
    /// A flow-state access exceeds the declared state size.
    StateOutOfRange {
        /// Instruction index.
        at: usize,
    },
    /// Declared state exceeds 96 bytes.
    StateTooLarge,
    /// Execution can fall off the end (no terminal on some path).
    MissingTerminal,
    /// Budget exceeded.
    OverBudget {
        /// Measured cost.
        cost: VrpCost,
        /// Budget it was checked against.
        budget: VrpBudget,
    },
}

impl core::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            VerifyError::Empty => write!(f, "empty program"),
            VerifyError::BackwardBranch { at, target } => {
                write!(f, "backward branch at {at} -> {target}")
            }
            VerifyError::BranchOutOfRange { at, target } => {
                write!(f, "branch at {at} targets {target}, past the end")
            }
            VerifyError::BadRegister { at } => write!(f, "bad register at {at}"),
            VerifyError::MpOutOfRange { at } => write!(f, "MP access out of range at {at}"),
            VerifyError::StateOutOfRange { at } => {
                write!(f, "flow-state access out of range at {at}")
            }
            VerifyError::StateTooLarge => write!(f, "declared state exceeds 96 bytes"),
            VerifyError::MissingTerminal => write!(f, "execution can fall off the end"),
            VerifyError::OverBudget { cost, budget } => write!(
                f,
                "over budget: {} cycles (max {}), {} sram transfers (max {}), \
                 {} hashes (max {}), {} slots (max {})",
                cost.worst_cycles,
                budget.cycles,
                cost.sram_reads + cost.sram_writes,
                budget.sram_transfers,
                cost.hashes,
                budget.hashes,
                cost.insns,
                budget.istore_slots
            ),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Verifies structural soundness and computes worst-case cost, then
/// checks the cost against `budget`. Returns the cost on success.
pub fn verify(prog: &VrpProgram, budget: &VrpBudget) -> Result<VrpCost, VerifyError> {
    let cost = analyze(prog)?;
    if cost.worst_cycles > budget.cycles
        || cost.sram_reads + cost.sram_writes > budget.sram_transfers
        || cost.hashes > budget.hashes
        || cost.insns > budget.istore_slots
    {
        return Err(VerifyError::OverBudget {
            cost,
            budget: *budget,
        });
    }
    Ok(cost)
}

/// Structural checks + worst-case cost analysis (no budget comparison).
pub fn analyze(prog: &VrpProgram) -> Result<VrpCost, VerifyError> {
    let n = prog.insns.len();
    if n == 0 {
        return Err(VerifyError::Empty);
    }
    if usize::from(prog.state_bytes) > MAX_STATE_BYTES {
        return Err(VerifyError::StateTooLarge);
    }

    let mut regs_used = [false; NUM_GPRS];
    fn mark(regs_used: &mut [bool; NUM_GPRS], r: u8, at: usize) -> Result<(), VerifyError> {
        if usize::from(r) >= NUM_GPRS {
            return Err(VerifyError::BadRegister { at });
        }
        regs_used[usize::from(r)] = true;
        Ok(())
    }
    let check_src = |s: &Src, at: usize| -> Result<Option<u8>, VerifyError> {
        match s {
            Src::Reg(r) if usize::from(*r) >= NUM_GPRS => Err(VerifyError::BadRegister { at }),
            Src::Reg(r) => Ok(Some(*r)),
            Src::Imm(_) => Ok(None),
        }
    };

    // Structural pass.
    for (at, insn) in prog.insns.iter().enumerate() {
        match insn {
            Insn::Imm { dst, .. } => mark(&mut regs_used, *dst, at)?,
            Insn::Mov { dst, src } => {
                mark(&mut regs_used, *dst, at)?;
                mark(&mut regs_used, *src, at)?;
            }
            Insn::Alu { dst, a, b, .. } => {
                mark(&mut regs_used, *dst, at)?;
                mark(&mut regs_used, *a, at)?;
                if let Some(r) = check_src(b, at)? {
                    regs_used[usize::from(r)] = true;
                }
            }
            Insn::LdB { dst, off } | Insn::LdH { dst, off } | Insn::LdW { dst, off } => {
                mark(&mut regs_used, *dst, at)?;
                let width = match insn {
                    Insn::LdB { .. } => 1,
                    Insn::LdH { .. } => 2,
                    _ => 4,
                };
                if usize::from(*off) + width > 64 {
                    return Err(VerifyError::MpOutOfRange { at });
                }
            }
            Insn::StB { src, off } | Insn::StH { src, off } | Insn::StW { src, off } => {
                mark(&mut regs_used, *src, at)?;
                let width = match insn {
                    Insn::StB { .. } => 1,
                    Insn::StH { .. } => 2,
                    _ => 4,
                };
                if usize::from(*off) + width > 64 {
                    return Err(VerifyError::MpOutOfRange { at });
                }
            }
            Insn::SramRd { dst, off } => {
                mark(&mut regs_used, *dst, at)?;
                if usize::from(*off) + 4 > usize::from(prog.state_bytes) {
                    return Err(VerifyError::StateOutOfRange { at });
                }
            }
            Insn::SramWr { src, off } => {
                mark(&mut regs_used, *src, at)?;
                if usize::from(*off) + 4 > usize::from(prog.state_bytes) {
                    return Err(VerifyError::StateOutOfRange { at });
                }
            }
            Insn::Hash { dst, src } => {
                mark(&mut regs_used, *dst, at)?;
                mark(&mut regs_used, *src, at)?;
            }
            Insn::Br { target } => {
                check_branch(at, usize::from(*target), n)?;
            }
            Insn::BrCond { a, b, target, .. } => {
                mark(&mut regs_used, *a, at)?;
                if let Some(r) = check_src(b, at)? {
                    regs_used[usize::from(r)] = true;
                }
                check_branch(at, usize::from(*target), n)?;
            }
            Insn::SetQueue { q } => {
                if let Some(r) = check_src(q, at)? {
                    regs_used[usize::from(r)] = true;
                }
            }
            Insn::Drop | Insn::ToSa | Insn::ToPe | Insn::Done => {}
        }
    }

    // Fall-through check: requiring the final instruction to be
    // terminal guarantees sequential execution cannot fall off the end.
    // Branching to index n is *not* falling off: the DP below models
    // dp[n] as zero-cost termination, and the interpreter executes a
    // branch-to-end as a graceful `Done`-style exit. (A final `Br` to n
    // would also be safe but is conservatively rejected here.)
    if !prog.insns[n - 1].is_terminal() {
        return Err(VerifyError::MissingTerminal);
    }

    // Worst-case analysis: backward DP over the DAG.
    // cost[i] = cost of executing from instruction i to termination.
    #[derive(Clone, Copy, Default)]
    struct C {
        cycles: u32,
        rd: u32,
        wr: u32,
        hash: u32,
    }
    let mut dp = vec![C::default(); n + 1];
    for i in (0..n).rev() {
        let insn = &prog.insns[i];
        let mut c = C {
            cycles: 1,
            rd: 0,
            wr: 0,
            hash: 0,
        };
        match insn {
            Insn::SramRd { .. } => c.rd = 1,
            Insn::SramWr { .. } => c.wr = 1,
            Insn::Hash { .. } => c.hash = 1,
            _ => {}
        }
        let succ = if insn.is_terminal() {
            C::default()
        } else {
            match insn {
                Insn::Br { target } => {
                    let t = dp[usize::from(*target)];
                    C {
                        cycles: t.cycles + BRANCH_DELAY_CYCLES,
                        ..t
                    }
                }
                Insn::BrCond { target, .. } => {
                    let taken = dp[usize::from(*target)];
                    let taken = C {
                        cycles: taken.cycles + BRANCH_DELAY_CYCLES,
                        ..taken
                    };
                    let fall = dp[i + 1];
                    // Per-resource worst case (sound upper bound).
                    C {
                        cycles: taken.cycles.max(fall.cycles),
                        rd: taken.rd.max(fall.rd),
                        wr: taken.wr.max(fall.wr),
                        hash: taken.hash.max(fall.hash),
                    }
                }
                _ => dp[i + 1],
            }
        };
        dp[i] = C {
            cycles: c.cycles + succ.cycles,
            rd: c.rd + succ.rd,
            wr: c.wr + succ.wr,
            hash: c.hash + succ.hash,
        };
    }

    Ok(VrpCost {
        insns: n,
        worst_cycles: dp[0].cycles,
        sram_reads: dp[0].rd,
        sram_writes: dp[0].wr,
        sram_bytes: (dp[0].rd + dp[0].wr) * 4,
        hashes: dp[0].hash,
        registers: regs_used.iter().filter(|&&b| b).count() as u32,
    })
}

fn check_branch(at: usize, target: usize, n: usize) -> Result<(), VerifyError> {
    if target > n {
        return Err(VerifyError::BranchOutOfRange { at, target });
    }
    if target <= at {
        return Err(VerifyError::BackwardBranch { at, target });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::isa::Cond;

    #[test]
    fn straight_line_cost_is_instruction_count() {
        let mut a = Asm::new("t");
        a.imm(0, 1).imm(1, 2).add(2, 0, Src::Reg(1)).done();
        let p = a.finish(0).unwrap();
        let c = analyze(&p).unwrap();
        assert_eq!(c.insns, 4);
        assert_eq!(c.worst_cycles, 4);
        assert_eq!(c.registers, 3);
        assert_eq!(c.sram_reads + c.sram_writes, 0);
    }

    #[test]
    fn branch_adds_delay_on_worst_path() {
        let mut a = Asm::new("t");
        let l = a.new_label();
        a.imm(0, 0);
        a.br_cond(Cond::Eq, 0, Src::Imm(0), l);
        a.drop(); // Fall-through path: 3 insns total.
        a.bind(l);
        a.imm(1, 1); // Taken path: longer.
        a.imm(2, 2);
        a.done();
        let p = a.finish(0).unwrap();
        let c = analyze(&p).unwrap();
        // imm(1) + brcond(1) + delay(1) + imm+imm+done(3) = 6.
        assert_eq!(c.worst_cycles, 6);
    }

    #[test]
    fn per_resource_worst_case_is_sound() {
        // One arm does 2 SRAM reads, the other 1 read + 1 hash: worst
        // case must report 2 reads AND 1 hash (conservative join).
        let mut a = Asm::new("t");
        let l = a.new_label();
        let end = a.new_label();
        a.br_cond(Cond::Eq, 0, Src::Imm(0), l);
        a.sram_rd(1, 0);
        a.sram_rd(2, 4);
        a.br(end);
        a.bind(l);
        a.sram_rd(1, 0);
        a.hash(2, 1);
        a.bind(end);
        a.done();
        let p = a.finish(8).unwrap();
        let c = analyze(&p).unwrap();
        assert_eq!(c.sram_reads, 2);
        assert_eq!(c.hashes, 1);
        assert_eq!(c.sram_bytes, 8);
    }

    #[test]
    fn rejects_backward_branch() {
        let p = VrpProgram {
            name: "bad".into(),
            insns: vec![Insn::Br { target: 0 }, Insn::Done],
            state_bytes: 0,
        };
        assert!(matches!(
            analyze(&p),
            Err(VerifyError::BackwardBranch { .. })
        ));
    }

    #[test]
    fn rejects_branch_past_end() {
        let p = VrpProgram {
            name: "bad".into(),
            insns: vec![Insn::Br { target: 9 }, Insn::Done],
            state_bytes: 0,
        };
        assert!(matches!(
            analyze(&p),
            Err(VerifyError::BranchOutOfRange { .. })
        ));
    }

    #[test]
    fn rejects_bad_register() {
        let p = VrpProgram {
            name: "bad".into(),
            insns: vec![Insn::Imm { dst: 8, val: 0 }, Insn::Done],
            state_bytes: 0,
        };
        assert!(matches!(analyze(&p), Err(VerifyError::BadRegister { .. })));
    }

    #[test]
    fn rejects_mp_overflow() {
        let p = VrpProgram {
            name: "bad".into(),
            insns: vec![Insn::LdW { dst: 0, off: 62 }, Insn::Done],
            state_bytes: 0,
        };
        assert!(matches!(analyze(&p), Err(VerifyError::MpOutOfRange { .. })));
    }

    #[test]
    fn rejects_state_overflow() {
        let p = VrpProgram {
            name: "bad".into(),
            insns: vec![Insn::SramRd { dst: 0, off: 4 }, Insn::Done],
            state_bytes: 4,
        };
        assert!(matches!(
            analyze(&p),
            Err(VerifyError::StateOutOfRange { .. })
        ));
    }

    #[test]
    fn rejects_missing_terminal() {
        let p = VrpProgram {
            name: "bad".into(),
            insns: vec![Insn::Imm { dst: 0, val: 0 }],
            state_bytes: 0,
        };
        assert_eq!(analyze(&p), Err(VerifyError::MissingTerminal));
    }

    #[test]
    fn rejects_empty() {
        let p = VrpProgram {
            name: "bad".into(),
            insns: vec![],
            state_bytes: 0,
        };
        assert_eq!(analyze(&p), Err(VerifyError::Empty));
    }

    #[test]
    fn budget_enforced() {
        let mut a = Asm::new("expensive");
        for i in 0..100 {
            a.imm(0, i);
        }
        a.done();
        let p = a.finish(0).unwrap();
        let tight = VrpBudget {
            cycles: 50,
            ..VrpBudget::default()
        };
        assert!(matches!(
            verify(&p, &tight),
            Err(VerifyError::OverBudget { .. })
        ));
        assert!(verify(&p, &VrpBudget::default()).is_ok());
    }

    #[test]
    fn paper_default_budget_values() {
        let b = VrpBudget::default();
        assert_eq!((b.cycles, b.sram_transfers, b.hashes), (240, 24, 3));
    }
}
