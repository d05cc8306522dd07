//! `npr-vrp`: the Virtual Router Processor.
//!
//! The paper's key extensibility mechanism is an abstract machine — the
//! VRP — that runs injected per-packet code on the MicroEngines inside a
//! statically verified budget (sections 4.2–4.6). This crate implements
//! that machine as a small bytecode:
//!
//! * **ISA** ([`isa`]): straight-line code with *forward-only* branches
//!   over 8 general-purpose registers, byte/half/word access to the
//!   current 64-byte MP, a 96-byte flow-state window in SRAM, and the
//!   hardware hash unit. Forward-only branches make worst-case cost
//!   analysis trivial — the paper's admission-control insight:
//!   "Verifying that the forwarder lives within the available VRP budget
//!   is trivial since there is no reason for the forwarder to contain a
//!   loop ... any processing loop ... is already effectively unrolled."
//! * **Assembler** ([`asm`]): a builder with labels for writing
//!   forwarders in Rust.
//! * **Verifier** ([`verify()`]): the admission-control analysis — ISTORE
//!   slots, worst-case cycles (with branch delays), SRAM transfers,
//!   hash uses, and flow-state size, checked against a [`VrpBudget`].
//! * **Interpreter** ([`interp`]): executes a program against real MP
//!   bytes and flow state, returning the action taken and the exact
//!   dynamic cost (which the simulator charges to the input context).
//!   It is the one execution semantics: the router runs every installed
//!   forwarder through [`run`], and it runs anything, including
//!   unverifiable programs, whose dynamic checks surface their traps.
//!   Host speed of this tier never changes the model, because the cost
//!   is charged in simulated time.

pub mod asm;
pub mod disasm;
pub mod gen;
pub mod interp;
pub mod isa;
pub mod verify;

pub use asm::{Asm, AsmError};
pub use disasm::{disasm, disasm_insn};
pub use interp::{run, RunError, RunResult, VrpAction};
pub use isa::{AluOp, Cond, Insn, Src, VrpProgram, NUM_GPRS};
pub use verify::{analyze, runtime_overrun, verify, VerifyError, VrpBudget, VrpCost};
