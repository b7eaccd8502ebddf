//! `csl-isa` — the MiniISA instruction set: encoding, assembler, and the
//! single-cycle reference interpreter.
//!
//! MiniISA is the reproduction of the paper's in-house SimpleOoO ISA
//! (Table 1: "4 customized insts — loadimm, ALU, load, branch"), extended
//! with the faulting-load semantics needed to reproduce the BOOM
//! exception attacks of §7.1.4 and an optional multiply for the
//! constant-time contract's FU-operand observations.
//!
//! The [`interp`] module is the architectural ground truth: the contract
//! constraint check's ISA observations are projections of its
//! [`interp::StepInfo`] records, and every processor generator in
//! `csl-cpu` is co-simulated against it.
//!
//! # Example
//!
//! ```
//! use csl_isa::{assemble, ArchState, IsaConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = IsaConfig::default();
//! let imem = assemble(&cfg, "
//!         LI  r1, 2
//!         LD  r2, (r1)      ; r2 = dmem[2] (secret region)
//! loop:   BNZ r1, loop
//! ")?;
//! let dmem = vec![0, 0, 9, 0];
//! let mut st = ArchState::reset(&cfg);
//! csl_isa::interp::run(&cfg, &mut st, &imem, &dmem, 2);
//! assert_eq!(st.regs[2], 9);
//! # Ok(())
//! # }
//! ```

pub mod asm;
pub mod config;
pub mod inst;
pub mod interp;
pub mod progen;

pub use asm::{assemble, AsmError};
pub use config::IsaConfig;
pub use inst::{decode, encode, mnemonic, opcode, Inst};
pub use interp::{resolve_load, transient_load_word, ArchState, Exception, StepInfo};
pub use progen::{
    random_dmem, random_imem, random_inst, random_program, random_stimulus, random_stimulus_batch,
    OpMix, StimulusPair,
};
