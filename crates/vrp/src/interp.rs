//! The VRP interpreter.
//!
//! Executes a (verified) program against real MP bytes and flow state,
//! producing both the packet-level effect and the exact dynamic cost of
//! the path taken, which the simulator charges against the input
//! context's cycle budget.

use npr_ixp::hash48;

use crate::isa::{AluOp, Insn, Src, VrpProgram, NUM_GPRS};
use crate::verify::BRANCH_DELAY_CYCLES;

/// What the program decided to do with the packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VrpAction {
    /// Forward normally (possibly with an overridden queue).
    Forward,
    /// Drop the packet.
    Drop,
    /// Escalate to the StrongARM.
    ToSa,
    /// Escalate to the Pentium.
    ToPe,
}

/// Result of one execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunResult {
    /// The action taken.
    pub action: VrpAction,
    /// Output queue override, if the program issued `SetQueue`.
    pub queue_override: Option<u32>,
    /// Cycles consumed on the path actually taken (incl. branch delays).
    pub cycles: u32,
    /// SRAM reads performed.
    pub sram_reads: u32,
    /// SRAM writes performed.
    pub sram_writes: u32,
    /// Hash-unit uses.
    pub hashes: u32,
}

/// Dynamic execution errors. A *verified* program can never produce one
/// of these; they exist so the interpreter is safe on arbitrary input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunError {
    /// Register index out of range.
    BadRegister,
    /// MP access out of range.
    MpOutOfRange,
    /// Flow-state access out of range.
    StateOutOfRange,
    /// Branch target not strictly forward or past the end.
    BadBranch,
    /// Execution fell off the end without a terminal instruction.
    FellOffEnd,
}

impl core::fmt::Display for RunError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            RunError::BadRegister => "bad register",
            RunError::MpOutOfRange => "MP access out of range",
            RunError::StateOutOfRange => "state access out of range",
            RunError::BadBranch => "bad branch",
            RunError::FellOffEnd => "fell off the end",
        };
        f.write_str(s)
    }
}

impl std::error::Error for RunError {}

/// Runs `prog` over the 64-byte `mp` with `state` as the flow-state
/// window. Both may be mutated.
///
/// # Examples
///
/// ```
/// use npr_vrp::{run, Asm, Src, VrpAction};
///
/// // Increment a counter in flow state, then forward.
/// let mut a = Asm::new("count");
/// a.sram_rd(0, 0);
/// a.add(0, 0, Src::Imm(1));
/// a.sram_wr(0, 0);
/// a.done();
/// let prog = a.finish(4).unwrap();
///
/// let mut mp = [0u8; 64];
/// let mut state = [0u8; 4];
/// let r = run(&prog, &mut mp, &mut state).unwrap();
/// assert_eq!(r.action, VrpAction::Forward);
/// assert_eq!(state, [0, 0, 0, 1]);
/// assert_eq!(r.cycles, 4);
/// ```
pub fn run(prog: &VrpProgram, mp: &mut [u8; 64], state: &mut [u8]) -> Result<RunResult, RunError> {
    let mut regs = [0u32; NUM_GPRS];
    let mut pc = 0usize;
    let mut res = RunResult {
        action: VrpAction::Forward,
        queue_override: None,
        cycles: 0,
        sram_reads: 0,
        sram_writes: 0,
        hashes: 0,
    };
    let n = prog.insns.len();

    let reg = |regs: &[u32; NUM_GPRS], r: u8| -> Result<u32, RunError> {
        regs.get(usize::from(r))
            .copied()
            .ok_or(RunError::BadRegister)
    };
    let src = |regs: &[u32; NUM_GPRS], s: &Src| -> Result<u32, RunError> {
        match s {
            Src::Reg(r) => reg(regs, *r),
            Src::Imm(v) => Ok(*v),
        }
    };

    while pc < n {
        let insn = &prog.insns[pc];
        res.cycles += 1;
        let mut next = pc + 1;
        match insn {
            Insn::Imm { dst, val } => {
                *regs
                    .get_mut(usize::from(*dst))
                    .ok_or(RunError::BadRegister)? = *val;
            }
            Insn::Mov { dst, src: s } => {
                let v = reg(&regs, *s)?;
                *regs
                    .get_mut(usize::from(*dst))
                    .ok_or(RunError::BadRegister)? = v;
            }
            Insn::Alu { op, dst, a, b } => {
                let x = reg(&regs, *a)?;
                let y = src(&regs, b)?;
                let v = match op {
                    AluOp::Add => x.wrapping_add(y),
                    AluOp::Sub => x.wrapping_sub(y),
                    AluOp::And => x & y,
                    AluOp::Or => x | y,
                    AluOp::Xor => x ^ y,
                    AluOp::Shl => x << (y & 31),
                    AluOp::Shr => x >> (y & 31),
                };
                *regs
                    .get_mut(usize::from(*dst))
                    .ok_or(RunError::BadRegister)? = v;
            }
            Insn::LdB { dst, off } => {
                let o = usize::from(*off);
                let v = *mp.get(o).ok_or(RunError::MpOutOfRange)?;
                *regs
                    .get_mut(usize::from(*dst))
                    .ok_or(RunError::BadRegister)? = u32::from(v);
            }
            Insn::LdH { dst, off } => {
                let o = usize::from(*off);
                let b = mp.get(o..o + 2).ok_or(RunError::MpOutOfRange)?;
                *regs
                    .get_mut(usize::from(*dst))
                    .ok_or(RunError::BadRegister)? = u32::from(u16::from_be_bytes([b[0], b[1]]));
            }
            Insn::LdW { dst, off } => {
                let o = usize::from(*off);
                let b = mp.get(o..o + 4).ok_or(RunError::MpOutOfRange)?;
                *regs
                    .get_mut(usize::from(*dst))
                    .ok_or(RunError::BadRegister)? = u32::from_be_bytes([b[0], b[1], b[2], b[3]]);
            }
            Insn::StB { off, src: s } => {
                let v = reg(&regs, *s)?;
                let o = usize::from(*off);
                *mp.get_mut(o).ok_or(RunError::MpOutOfRange)? = v as u8;
            }
            Insn::StH { off, src: s } => {
                let v = reg(&regs, *s)? as u16;
                let o = usize::from(*off);
                mp.get_mut(o..o + 2)
                    .ok_or(RunError::MpOutOfRange)?
                    .copy_from_slice(&v.to_be_bytes());
            }
            Insn::StW { off, src: s } => {
                let v = reg(&regs, *s)?;
                let o = usize::from(*off);
                mp.get_mut(o..o + 4)
                    .ok_or(RunError::MpOutOfRange)?
                    .copy_from_slice(&v.to_be_bytes());
            }
            Insn::SramRd { dst, off } => {
                let o = usize::from(*off);
                let b = state.get(o..o + 4).ok_or(RunError::StateOutOfRange)?;
                *regs
                    .get_mut(usize::from(*dst))
                    .ok_or(RunError::BadRegister)? = u32::from_be_bytes([b[0], b[1], b[2], b[3]]);
                res.sram_reads += 1;
            }
            Insn::SramWr { off, src: s } => {
                let v = reg(&regs, *s)?;
                let o = usize::from(*off);
                state
                    .get_mut(o..o + 4)
                    .ok_or(RunError::StateOutOfRange)?
                    .copy_from_slice(&v.to_be_bytes());
                res.sram_writes += 1;
            }
            Insn::Hash { dst, src: s } => {
                let v = reg(&regs, *s)?;
                *regs
                    .get_mut(usize::from(*dst))
                    .ok_or(RunError::BadRegister)? = hash48(u64::from(v)) as u32;
                res.hashes += 1;
            }
            Insn::Br { target } => {
                let t = usize::from(*target);
                if t <= pc || t > n {
                    return Err(RunError::BadBranch);
                }
                res.cycles += BRANCH_DELAY_CYCLES;
                // `target == n` is graceful termination, exactly as the
                // verifier's DP models it (dp[n] = zero cost): the
                // program exits forwarding, same as `Done`.
                if t == n {
                    return Ok(res);
                }
                next = t;
            }
            Insn::BrCond { cond, a, b, target } => {
                let x = reg(&regs, *a)?;
                let y = src(&regs, b)?;
                if cond.eval(x, y) {
                    let t = usize::from(*target);
                    if t <= pc || t > n {
                        return Err(RunError::BadBranch);
                    }
                    res.cycles += BRANCH_DELAY_CYCLES;
                    if t == n {
                        return Ok(res);
                    }
                    next = t;
                }
            }
            Insn::SetQueue { q } => {
                res.queue_override = Some(src(&regs, q)?);
            }
            Insn::Drop => {
                res.action = VrpAction::Drop;
                return Ok(res);
            }
            Insn::ToSa => {
                res.action = VrpAction::ToSa;
                return Ok(res);
            }
            Insn::ToPe => {
                res.action = VrpAction::ToPe;
                return Ok(res);
            }
            Insn::Done => {
                return Ok(res);
            }
        }
        pc = next;
    }
    Err(RunError::FellOffEnd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::isa::Cond;
    use crate::verify::{analyze, VrpBudget};

    #[test]
    fn alu_and_mp_round_trip() {
        let mut a = Asm::new("t");
        a.ldw(0, 0)
            .add(0, 0, Src::Imm(1))
            .stw(0, 0)
            .ldb(1, 63)
            .sth(60, 1)
            .done();
        let p = a.finish(0).unwrap();
        let mut mp = [0u8; 64];
        mp[3] = 41;
        mp[63] = 0xee;
        let r = run(&p, &mut mp, &mut []).unwrap();
        assert_eq!(r.action, VrpAction::Forward);
        assert_eq!(mp[3], 42);
        assert_eq!(&mp[60..62], &[0x00, 0xee]);
    }

    #[test]
    fn branch_taken_costs_delay() {
        let mut a = Asm::new("t");
        let l = a.new_label();
        a.imm(0, 1);
        a.br_cond(Cond::Eq, 0, Src::Imm(1), l);
        a.drop();
        a.bind(l);
        a.done();
        let p = a.finish(0).unwrap();
        let r = run(&p, &mut [0; 64], &mut []).unwrap();
        // imm + brcond + delay + done = 4.
        assert_eq!(r.cycles, 4);
        assert_eq!(r.action, VrpAction::Forward);
    }

    #[test]
    fn branch_not_taken_is_cheaper() {
        let mut a = Asm::new("t");
        let l = a.new_label();
        a.imm(0, 0);
        a.br_cond(Cond::Eq, 0, Src::Imm(1), l);
        a.drop();
        a.bind(l);
        a.done();
        let p = a.finish(0).unwrap();
        let r = run(&p, &mut [0; 64], &mut []).unwrap();
        assert_eq!(r.action, VrpAction::Drop);
        assert_eq!(r.cycles, 3);
    }

    #[test]
    fn queue_override_and_escalation() {
        let mut a = Asm::new("t");
        a.set_queue(Src::Imm(5)).to_pe();
        let p = a.finish(0).unwrap();
        let r = run(&p, &mut [0; 64], &mut []).unwrap();
        assert_eq!(r.queue_override, Some(5));
        assert_eq!(r.action, VrpAction::ToPe);
    }

    #[test]
    fn sram_state_and_hash_counted() {
        let mut a = Asm::new("t");
        a.sram_rd(0, 0).hash(1, 0).sram_wr(4, 1).done();
        let p = a.finish(8).unwrap();
        let mut state = [0u8; 8];
        state[3] = 7;
        let r = run(&p, &mut [0; 64], &mut state).unwrap();
        assert_eq!((r.sram_reads, r.sram_writes, r.hashes), (1, 1, 1));
        assert_ne!(&state[4..8], &[0, 0, 0, 0]);
    }

    #[test]
    fn dynamic_errors_on_bad_programs() {
        let bad = VrpProgram {
            name: "bad".into(),
            insns: vec![Insn::SramRd { dst: 0, off: 0 }, Insn::Done],
            state_bytes: 0,
        };
        assert_eq!(
            run(&bad, &mut [0; 64], &mut []).unwrap_err(),
            RunError::StateOutOfRange
        );
        let off_end = VrpProgram {
            name: "bad".into(),
            insns: vec![Insn::Imm { dst: 0, val: 0 }],
            state_bytes: 0,
        };
        assert_eq!(
            run(&off_end, &mut [0; 64], &mut []).unwrap_err(),
            RunError::FellOffEnd
        );
    }

    npr_check::proptest! {
        #![proptest_config(npr_check::ProptestConfig::with_cases(128))]
        /// Soundness of the admission-control analysis: on any input, a
        /// verified program's dynamic cost never exceeds its static
        /// worst-case bound. This is the property that lets the router
        /// trust installed forwarders not to break line rate.
        #[test]
        fn verified_cost_bounds_dynamic_cost(
            mp in npr_check::array::uniform32(npr_check::any::<u8>()),
            seed in npr_check::any::<u64>(),
        ) {
            // Generate a structurally valid random program from the
            // shared fuzz corpus.
            let prog = crate::gen::random_program(seed);
            if let Ok(cost) = analyze(&prog) {
                let mut full_mp = [0u8; 64];
                full_mp[..32].copy_from_slice(&mp);
                let mut state = vec![0u8; usize::from(prog.state_bytes)];
                let r = run(&prog, &mut full_mp, &mut state).unwrap();
                npr_check::prop_assert!(r.cycles <= cost.worst_cycles,
                    "dynamic {} > static {}", r.cycles, cost.worst_cycles);
                npr_check::prop_assert!(r.sram_reads <= cost.sram_reads);
                npr_check::prop_assert!(r.sram_writes <= cost.sram_writes);
                npr_check::prop_assert!(r.hashes <= cost.hashes);
                // And a verified-at-default-budget program obeys it too.
                if crate::verify::verify(&prog, &VrpBudget::default()).is_ok() {
                    npr_check::prop_assert!(r.cycles <= 240);
                    npr_check::prop_assert!(r.sram_reads + r.sram_writes <= 24);
                }
            }
        }
    }

    #[test]
    fn branch_to_end_is_graceful_termination() {
        // The verifier admits `target == n` (its DP models index n as
        // zero-cost termination), so the interpreter must exit
        // forwarding — never `FellOffEnd` — on that path.
        let taken = VrpProgram {
            name: "br-to-end".into(),
            insns: vec![
                Insn::Imm { dst: 0, val: 1 },
                Insn::BrCond {
                    cond: Cond::Eq,
                    a: 0,
                    b: Src::Imm(1),
                    target: 3,
                },
                Insn::Done,
            ],
            state_bytes: 0,
        };
        analyze(&taken).expect("verifier admits branch-to-end");
        let r = run(&taken, &mut [0; 64], &mut []).unwrap();
        assert_eq!(r.action, VrpAction::Forward);
        assert_eq!(r.cycles, 2 + BRANCH_DELAY_CYCLES);

        let uncond = VrpProgram {
            name: "br-to-end-uncond".into(),
            insns: vec![Insn::Br { target: 2 }, Insn::Done],
            state_bytes: 0,
        };
        analyze(&uncond).expect("verifier admits branch-to-end");
        let r = run(&uncond, &mut [0; 64], &mut []).unwrap();
        assert_eq!(r.action, VrpAction::Forward);
        assert_eq!(r.cycles, 1 + BRANCH_DELAY_CYCLES);
        // The dynamic cost still matches the static bound exactly.
        assert_eq!(analyze(&uncond).unwrap().worst_cycles, r.cycles);
    }

    #[test]
    fn verified_programs_never_take_dynamic_errors() {
        // The whole point of admission control: every structural check
        // the interpreter performs at run time was already discharged
        // statically, including branch-to-end. Sweep the shared corpus.
        for seed in 0..512u64 {
            let prog = crate::gen::random_program(seed);
            analyze(&prog).expect("corpus programs verify");
            let mut state = vec![0u8; usize::from(prog.state_bytes)];
            run(&prog, &mut [0x5A; 64], &mut state)
                .expect("verified program hit a dynamic RunError");
        }
        // Arbitrary raw sequences: the interpreter runs every one
        // without panicking, and the few that pass `analyze` never
        // trap either. Count every verdict so no case is vacuous.
        let (mut verified, mut ran, mut trapped) = (0u32, 0u32, 0u32);
        for seed in 0..2048u64 {
            let prog = crate::gen::random_raw_program(seed);
            let mut state = vec![0x3C; usize::from(prog.state_bytes)];
            let r = run(&prog, &mut [0x3C; 64], &mut state);
            if analyze(&prog).is_ok() {
                r.expect("verified raw program hit a dynamic RunError");
                verified += 1;
            } else if r.is_ok() {
                ran += 1;
            } else {
                trapped += 1;
            }
        }
        assert!(verified > 0, "no raw seed verified: the raw set is vacuous");
        assert!(ran > 0, "no unverified raw seed ran to completion");
        assert!(trapped > 0, "no raw seed produced a dynamic error");
    }

    #[test]
    fn shift_amounts_use_modulo_32_semantics() {
        // Register shift amounts are taken mod 32: a shift by 32 is the
        // identity, 33 shifts by one. Both directions.
        for (amt, expect_shl, expect_shr) in [
            (31u32, 0x8000_0000u32, 0u32),
            (32, 3, 3),
            (33, 6, 1),
            (u32::MAX, 0x8000_0000, 0),
        ] {
            let mut a = Asm::new("shift");
            a.imm(0, 3).imm(1, amt);
            a.shl(2, 0, Src::Reg(1));
            a.shr(3, 0, Src::Reg(1));
            a.stw(0, 2).stw(4, 3).done();
            let p = a.finish(0).unwrap();
            let mut mp = [0u8; 64];
            let r = run(&p, &mut mp, &mut []).unwrap();
            assert_eq!(r.action, VrpAction::Forward);
            assert_eq!(u32::from_be_bytes(mp[0..4].try_into().unwrap()), expect_shl);
            assert_eq!(u32::from_be_bytes(mp[4..8].try_into().unwrap()), expect_shr);
        }
    }

    #[test]
    fn shift_semantics_are_modulo_32() {
        // Immediate shift amounts follow the same mod-32 rule.
        let mut a = Asm::new("t");
        a.imm(0, 3)
            .shl(1, 0, Src::Imm(32))
            .shr(2, 0, Src::Imm(33))
            .stw(0, 1)
            .stb(4, 2)
            .done();
        let p = a.finish(0).unwrap();
        let mut mp = [0u8; 64];
        run(&p, &mut mp, &mut []).unwrap();
        assert_eq!(u32::from_be_bytes(mp[0..4].try_into().unwrap()), 3);
        assert_eq!(mp[4], 1);
    }

    #[test]
    fn hash_is_low_32_bits_of_hash48() {
        // Find an input whose 48-bit hash has high bits set, and
        // require exactly the low-32-bit truncation.
        let v = (0u32..)
            .find(|&v| hash48(u64::from(v)) > u64::from(u32::MAX))
            .expect("some small input hashes above 2^32");
        let mut a = Asm::new("hash");
        a.imm(0, v).hash(1, 0).stw(0, 1).done();
        let p = a.finish(0).unwrap();
        let mut mp = [0u8; 64];
        let r = run(&p, &mut mp, &mut []).unwrap();
        assert_eq!(r.hashes, 1);
        let got = u32::from_be_bytes(mp[0..4].try_into().unwrap());
        assert_eq!(u64::from(got), hash48(u64::from(v)) & 0xFFFF_FFFF);
    }
}
