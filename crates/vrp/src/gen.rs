//! Deterministic random-program generators: the shared fuzz corpus.
//!
//! One seed, one program — the interpreter soundness properties and the
//! simulator benchmark draw from the same generators so every property
//! is checked over the same program population.
//!
//! * [`random_program`] emits *structurally valid* programs through the
//!   assembler (forward labels, in-range registers and offsets, a
//!   terminal `Done`). These always pass [`crate::analyze`].
//! * [`random_raw_program`] emits arbitrary raw instruction sequences —
//!   out-of-range registers, wild branch targets, missing terminals —
//!   for exercising dynamic errors and verifier rejection.

use crate::asm::{Asm, Label};
use crate::isa::{AluOp, Cond, Insn, Src, VrpProgram};

/// Local xorshift64*, same parameters as `npr_sim::XorShift64` (this
/// crate sits below the simulator, so the algorithm is mirrored rather
/// than imported — corpora stay seed-stable across both).
struct Rng {
    state: u64,
}

impl Rng {
    fn new(seed: u64) -> Self {
        Self {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }
}

/// Generates a structurally valid program from `seed`: a mix of ALU,
/// MP, SRAM, hash, and forward-branch instructions terminated by
/// `Done`, declaring 24 bytes of flow state. Always verifies under
/// [`crate::analyze`]; may still exceed a tight [`crate::VrpBudget`].
pub fn random_program(seed: u64) -> VrpProgram {
    let mut rng = Rng::new(seed);
    let n = 4 + (rng.below(40) as usize);
    let mut a = Asm::new("rand");
    // Pre-allocate labels we may bind later.
    let mut open: Vec<(Label, usize)> = Vec::new();
    for i in 0..n {
        // Bind any label whose time has come.
        open.retain(|&(l, at)| {
            if at <= i {
                a.bind(l);
                false
            } else {
                true
            }
        });
        match rng.below(12) {
            0 => {
                a.imm((rng.below(8)) as u8, rng.next_u32());
            }
            1 => {
                a.add((rng.below(8)) as u8, (rng.below(8)) as u8, Src::Imm(1));
            }
            2 => {
                a.ldw((rng.below(8)) as u8, (rng.below(60)) as u8);
            }
            3 => {
                a.stb((rng.below(64)) as u8, (rng.below(8)) as u8);
            }
            4 => {
                a.sram_rd((rng.below(8)) as u8, (rng.below(5) * 4) as u8);
            }
            5 => {
                a.sram_wr((rng.below(5) * 4) as u8, (rng.below(8)) as u8);
            }
            6 => {
                a.hash((rng.below(8)) as u8, (rng.below(8)) as u8);
            }
            7 => {
                // Forward conditional branch to a future point.
                let l = a.new_label();
                let dist = 1 + rng.below(5) as usize;
                a.br_cond(Cond::Lt, (rng.below(8)) as u8, Src::Imm(rng.next_u32()), l);
                open.push((l, i + dist));
            }
            8 => {
                // Shift by a register whose value may well exceed 31 —
                // keeps the modulo-32 semantics under differential test.
                let op = if rng.below(2) == 0 {
                    AluOp::Shl
                } else {
                    AluOp::Shr
                };
                a.alu(
                    op,
                    (rng.below(8)) as u8,
                    (rng.below(8)) as u8,
                    Src::Reg((rng.below(8)) as u8),
                );
            }
            9 => {
                a.set_queue(Src::Reg((rng.below(8)) as u8));
            }
            _ => {
                a.mov((rng.below(8)) as u8, (rng.below(8)) as u8);
            }
        }
    }
    for (l, _) in open {
        a.bind(l);
    }
    a.done();
    a.finish(24).expect("generator emits valid programs")
}

/// Generates an arbitrary raw instruction sequence from `seed`. No
/// structural guarantees: registers may be out of range, branches wild
/// or backward, terminals missing, state accesses past the declared
/// window. Most seeds fail verification; the few that pass feed the
/// interpreter's "verified programs never trap" soundness test.
pub fn random_raw_program(seed: u64) -> VrpProgram {
    let mut rng = Rng::new(seed ^ 0xDEAD_BEEF_CAFE_F00D);
    let n = 1 + (rng.below(12) as usize);
    let mut insns = Vec::with_capacity(n);
    for _ in 0..n {
        let reg = |rng: &mut Rng| (rng.below(10)) as u8; // 8,9 are invalid
        let insn = match rng.below(12) {
            0 => Insn::Imm {
                dst: reg(&mut rng),
                val: rng.next_u32(),
            },
            1 => Insn::Alu {
                op: AluOp::Shl,
                dst: reg(&mut rng),
                a: reg(&mut rng),
                b: Src::Imm(rng.next_u32()),
            },
            2 => Insn::LdW {
                dst: reg(&mut rng),
                off: (rng.below(70)) as u8, // may cross the MP boundary
            },
            3 => Insn::StW {
                off: (rng.below(70)) as u8,
                src: reg(&mut rng),
            },
            4 => Insn::SramRd {
                dst: reg(&mut rng),
                off: (rng.below(100)) as u8,
            },
            5 => Insn::SramWr {
                off: (rng.below(100)) as u8,
                src: reg(&mut rng),
            },
            6 => Insn::Hash {
                dst: reg(&mut rng),
                src: reg(&mut rng),
            },
            7 => Insn::Br {
                target: (rng.below(16)) as u16, // possibly backward / wild
            },
            8 => Insn::BrCond {
                cond: Cond::Ne,
                a: reg(&mut rng),
                b: Src::Reg(reg(&mut rng)),
                target: (rng.below(16)) as u16,
            },
            9 => Insn::SetQueue {
                q: Src::Reg(reg(&mut rng)),
            },
            10 => Insn::Done,
            _ => Insn::Mov {
                dst: reg(&mut rng),
                src: reg(&mut rng),
            },
        };
        insns.push(insn);
    }
    // Half the corpus keeps whatever last instruction it drew (often a
    // missing terminal); the other half is made to end cleanly so more
    // seeds survive verification and execute deeper.
    if rng.below(2) == 0 {
        insns.push(Insn::Done);
    }
    VrpProgram {
        name: "raw".into(),
        insns,
        state_bytes: (rng.below(16) * 4) as u8,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::analyze;

    #[test]
    fn valid_generator_always_verifies() {
        for seed in 0..256 {
            let p = random_program(seed);
            analyze(&p).expect("structurally valid by construction");
        }
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(random_program(42).insns, random_program(42).insns);
        assert_eq!(
            random_raw_program(42).insns,
            random_raw_program(42).insns
        );
    }

    #[test]
    fn raw_generator_covers_both_verdicts() {
        let (mut ok, mut bad) = (0, 0);
        for seed in 0..256 {
            match analyze(&random_raw_program(seed)) {
                Ok(_) => ok += 1,
                Err(_) => bad += 1,
            }
        }
        assert!(ok > 0, "raw corpus never verifies — parity test is vacuous");
        assert!(bad > 0, "raw corpus always verifies — no rejection parity");
    }
}
