//! `csl-hdl` — a word-level hardware-construction DSL over an AIG netlist.
//!
//! This crate replaces the Verilog/Chisel front end of the original paper:
//! processors, defence mechanisms and the contract shadow logic are all
//! *generators* — Rust functions that emit gates and latches into a
//! [`Design`] — and the resulting [`Aig`] is what the model checker in
//! `csl-mc` consumes.
//!
//! Layers, bottom-up:
//!
//! * [`aig`]: two-input AND gates with complemented edges, latches with
//!   declared reset behaviour, per-cycle `assume` constraints and `bad`
//!   (assertion-violation) bits — the AIGER-style core.
//! * [`word`]: fixed-width bit bundles.
//! * [`design`]: named registers with scoping, enable gating (the paper's
//!   clock-pause trick), and the word-level operator library
//!   (add/sub/mul/compare/mux/select/decode).
//! * [`mem`]: register-file / memory arrays with queued write ports and
//!   read-only (symbolic constant) sealing for instruction memory.
//! * [`xform`]: post-build netlist reduction, one rebuild
//!   ([`xform::reduce`]) that folds stuck-at-reset latches and the logic
//!   constant under them, re-strashes across the two machine copies and
//!   keeps only what the verification roots reach, with a
//!   [`Reconstruction`] back-map for lifting counterexamples on the
//!   reduced netlist back to original names.
//!
//! # Example
//!
//! ```
//! use csl_hdl::{Design, Init, MemArray};
//!
//! // A tiny accumulator machine: acc += rom[pc]; pc += 1.
//! let mut d = Design::new("acc");
//! let rom = MemArray::new(&mut d, "rom", 4, 8, Init::Symbolic);
//! let pc = d.reg("pc", 2, Init::Zero);
//! let acc = d.reg("acc", 8, Init::Zero);
//! let data = rom.read(&mut d, &pc.q());
//! let sum = d.add(&acc.q(), &data);
//! d.set_next(&acc, sum);
//! let pc1 = d.add_const(&pc.q(), 1);
//! d.set_next(&pc, pc1);
//! rom.seal_const(&mut d);
//! let aig = d.finish();
//! assert_eq!(aig.num_latches(), 4 * 8 + 2 + 8);
//! ```

pub mod aig;
pub mod design;
pub mod fxhash;
pub mod mem;
pub mod word;
pub mod xform;

pub use aig::{
    Aig, BadInfo, Bit, CoiMarks, Init, InputInfo, LatchInfo, Node, PrefixStats, ProbeInfo,
};
pub use design::{Design, Reg, RegMark};
pub use fxhash::FxHashMap;
pub use mem::MemArray;
pub use word::Word;
pub use xform::{PassStats, Reconstruction, Shape};
