//! `csl-mc` — model-checking engines over `csl-hdl` netlists.
//!
//! This crate is the reproduction's stand-in for the commercial model
//! checker (Cadence JasperGold) used by the paper. It provides:
//!
//! * [`ts::TransitionSystem`] — cone-of-influence-reduced view of a netlist,
//! * [`sim`] — concrete simulation, counterexample replay and waveforms,
//!   including the 64-lane bit-parallel [`sim::BatchSim`] behind the
//!   differential-fuzzing backend,
//! * [`bmc`](mod@bmc) — bounded model checking (attack finding; the paper's `Ht`
//!   engine role),
//! * [`kind`] — k-induction with optional unique-state constraints,
//! * [`houdini`](mod@houdini) — invariant filtering over candidate relational
//!   invariants (the mechanism behind the LEAVE comparison scheme),
//! * [`pdr`](mod@pdr) — IC3/property-directed reachability (unbounded proofs; the
//!   paper's `Mp`/`AM` engine role),
//! * [`engine::check_safety`] — the engine driver producing the paper's
//!   three outcomes (attack counterexample, unbounded proof, or
//!   timeout) by running a [`Schedule`]: stages of lanes, one merge rule,
//! * [`portfolio`] — the [`portfolio::Backend`] trait, the engine lanes,
//!   and the race that runs one stage: the lanes run concurrently and in
//!   isolation (no lane sees another's clauses or lemmas), and the first
//!   decisive lane cancels the rest through a stop flag shared via
//!   `csl_sat::Budget`,
//! * [`lane`] — the engine lanes and their per-run solver counters,
//! * [`prepare`](mod@prepare) — instance preparation: the one-rebuild
//!   `csl_hdl::xform::reduce` (stuck-at-reset constants folded,
//!   cross-copy logic re-strashed, only the verification roots' cone
//!   kept) the engines run behind, except in a stage of BMC alone, with
//!   [`prepare::PreparedInstance`] carrying the reconstruction that
//!   lifts counterexamples back to raw-netlist vocabulary.
//!
//! # Example: prove a saturating counter never overflows
//!
//! ```
//! use csl_hdl::{Design, Init};
//! use csl_mc::{check_safety, CheckOptions, SafetyCheck};
//!
//! let mut d = Design::new("sat");
//! let r = d.reg("r", 3, Init::Zero);
//! let at_max = d.eq_const(&r.q(), 3);
//! let inc = d.add_const(&r.q(), 1);
//! let nxt = d.mux(at_max, &r.q(), &inc);
//! d.set_next(&r, nxt);
//! let bad = d.eq_const(&r.q(), 7);
//! d.assert_always("no7", bad.not());
//!
//! let task = SafetyCheck { aig: d.finish(), candidates: vec![] };
//! let report = check_safety(&task, &CheckOptions::default());
//! assert!(report.verdict.is_proof());
//! ```

pub mod bmc;
pub mod cert;
pub mod engine;
pub mod houdini;
pub mod kind;
pub mod lane;
pub mod pdr;
pub mod portfolio;
pub mod prepare;
pub mod sim;
pub mod trace;
pub mod ts;
pub mod unroll;

pub use bmc::{bmc, BmcResult, BmcSession};
pub use cert::{CertKind, Certificate};
pub use engine::{
    check_safety, check_schedule, CheckOptions, CheckReport, ExecMode, FuzzStats,
    InconclusiveReason, ProofEngine, SafetyCheck, Schedule, Step, Undecided, Verdict,
};
pub use houdini::{houdini, houdini_with_stats, Candidate, HoudiniOutcome, HoudiniResult};
pub use kind::{k_induction, KindOptions, KindResult, KindSession};
pub use lane::{Lane, LaneSolverStats, SharedContext};
pub use pdr::{pdr, pdr_with_stats, Cube, PdrOptions, PdrResult};
pub use portfolio::{
    race, Backend, BmcBackend, EngineOutcome, HoudiniBackend, KindBackend, LaneFactory, LaneResult,
    LaneRun, PdrBackend, RaceReport,
};
pub use prepare::{prepare, PrepareConfig, PreparedInstance};
pub use sim::{
    BatchCycleValues, BatchMasks, BatchSim, BatchState, BatchStep, CycleValues, Sim, SimState,
    StepResult,
};
pub use trace::Trace;
pub use ts::TransitionSystem;
pub use unroll::{InitMode, Unroller};
