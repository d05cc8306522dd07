//! The VRP instruction set.
//!
//! Values are 32-bit; packet data is addressed by byte offset within the
//! current 64-byte MP (the paper's "16 registers that hold packet data",
//! exposed with the MicroEngines' byte-alignment unit); flow state is a
//! small SRAM window addressed by byte offset. Multi-byte accesses are
//! big-endian, matching the wire.

/// Number of general-purpose registers available to a forwarder
/// ("the forwarder has access to 8 general purpose 32-bit registers",
/// paper section 4.3).
pub const NUM_GPRS: usize = 8;

/// Maximum flow-state bytes ("sufficient SRAM capacity to load and store
/// up to 96 bytes of state", section 4.3).
pub const MAX_STATE_BYTES: usize = 96;

/// ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left. Canonical semantics: the shift amount is
    /// taken modulo 32 (`x << (y & 31)`), so a shift by 32 leaves the
    /// value unchanged rather than zeroing it — matching the
    /// MicroEngine barrel shifter, which only decodes the low five
    /// bits.
    Shl,
    /// Logical shift right, same modulo-32 semantics as [`AluOp::Shl`].
    Shr,
}

/// Branch conditions (unsigned comparisons).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cond {
    /// `a == b`.
    Eq,
    /// `a != b`.
    Ne,
    /// `a < b`.
    Lt,
    /// `a >= b`.
    Ge,
    /// `a > b`.
    Gt,
    /// `a <= b`.
    Le,
}

impl Cond {
    /// Evaluates the condition.
    pub fn eval(self, a: u32, b: u32) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt => a < b,
            Cond::Ge => a >= b,
            Cond::Gt => a > b,
            Cond::Le => a <= b,
        }
    }
}

/// Second ALU / comparison operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Src {
    /// A GPR.
    Reg(u8),
    /// An immediate.
    Imm(u32),
}

/// One VRP instruction. Each costs one cycle unless noted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Insn {
    /// `dst = val`.
    Imm {
        /// Destination GPR.
        dst: u8,
        /// Immediate value.
        val: u32,
    },
    /// `dst = src`.
    Mov {
        /// Destination GPR.
        dst: u8,
        /// Source GPR.
        src: u8,
    },
    /// `dst = a <op> b`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination GPR.
        dst: u8,
        /// First operand GPR.
        a: u8,
        /// Second operand.
        b: Src,
    },
    /// Load byte from MP offset: `dst = mp[off]`.
    LdB {
        /// Destination GPR.
        dst: u8,
        /// Byte offset within the MP (0..64).
        off: u8,
    },
    /// Load big-endian half-word: `dst = be16(mp[off..off+2])`.
    LdH {
        /// Destination GPR.
        dst: u8,
        /// Byte offset (0..63).
        off: u8,
    },
    /// Load big-endian word: `dst = be32(mp[off..off+4])`.
    LdW {
        /// Destination GPR.
        dst: u8,
        /// Byte offset (0..61).
        off: u8,
    },
    /// Store low byte of `src` at MP offset.
    StB {
        /// Byte offset.
        off: u8,
        /// Source GPR.
        src: u8,
    },
    /// Store low half of `src` big-endian at MP offset.
    StH {
        /// Byte offset.
        off: u8,
        /// Source GPR.
        src: u8,
    },
    /// Store `src` big-endian at MP offset.
    StW {
        /// Byte offset.
        off: u8,
        /// Source GPR.
        src: u8,
    },
    /// Read 4 bytes of flow state (one SRAM transfer):
    /// `dst = be32(state[off..off+4])`.
    SramRd {
        /// Destination GPR.
        dst: u8,
        /// Byte offset within the flow state.
        off: u8,
    },
    /// Write 4 bytes of flow state (one SRAM transfer).
    SramWr {
        /// Byte offset within the flow state.
        off: u8,
        /// Source GPR.
        src: u8,
    },
    /// Hardware hash. Canonical semantics: `dst` receives the **low 32
    /// bits** of the 48-bit hardware hash (`hash48(src) & 0xFFFF_FFFF`);
    /// the top 16 bits are discarded, never folded in. One cycle plus
    /// one hash-unit use (budget: 3 per MP).
    Hash {
        /// Destination GPR.
        dst: u8,
        /// Source GPR.
        src: u8,
    },
    /// Unconditional forward branch. A target equal to the program
    /// length is a graceful exit (equivalent to `Done`), mirroring the
    /// verifier's cost model where the one-past-the-end node terminates
    /// at zero cost.
    Br {
        /// Target instruction index (must be > current index; may equal
        /// the program length, which terminates like `Done`).
        target: u16,
    },
    /// Conditional forward branch; branch-to-end semantics as [`Insn::Br`].
    BrCond {
        /// Condition.
        cond: Cond,
        /// Left operand GPR.
        a: u8,
        /// Right operand.
        b: Src,
        /// Target instruction index (must be > current index; may equal
        /// the program length, which terminates like `Done`).
        target: u16,
    },
    /// Select the output queue for this packet.
    SetQueue {
        /// Queue index source.
        q: Src,
    },
    /// Drop the packet; ends execution.
    Drop,
    /// Escalate to the StrongARM; ends execution.
    ToSa,
    /// Escalate to the Pentium; ends execution.
    ToPe,
    /// Finish normally (forward along the classifier's decision).
    Done,
}

impl Insn {
    /// Whether executing this instruction ends the program.
    pub fn is_terminal(&self) -> bool {
        matches!(self, Insn::Drop | Insn::ToSa | Insn::ToPe | Insn::Done)
    }

    /// Whether this is a branch (subject to the forward-only rule and
    /// the branch-delay cost).
    pub fn is_branch(&self) -> bool {
        matches!(self, Insn::Br { .. } | Insn::BrCond { .. })
    }
}

/// A complete VRP program.
#[derive(Debug, Clone)]
pub struct VrpProgram {
    /// Human-readable name (reports, Table 5).
    pub name: String,
    /// The code.
    pub insns: Vec<Insn>,
    /// Bytes of per-flow SRAM state the forwarder declares.
    pub state_bytes: u8,
}

impl VrpProgram {
    /// ISTORE slots this program occupies.
    pub fn istore_slots(&self) -> usize {
        self.insns.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cond_eval_matrix() {
        assert!(Cond::Eq.eval(3, 3));
        assert!(Cond::Ne.eval(3, 4));
        assert!(Cond::Lt.eval(3, 4));
        assert!(Cond::Ge.eval(4, 4));
        assert!(Cond::Gt.eval(5, 4));
        assert!(Cond::Le.eval(4, 4));
        assert!(!Cond::Lt.eval(4, 3));
        // Unsigned semantics.
        assert!(Cond::Gt.eval(u32::MAX, 0));
    }

    #[test]
    fn terminal_and_branch_classification() {
        assert!(Insn::Done.is_terminal());
        assert!(Insn::Drop.is_terminal());
        assert!(!Insn::Br { target: 1 }.is_terminal());
        assert!(Insn::Br { target: 1 }.is_branch());
        assert!(!Insn::Done.is_branch());
    }
}
