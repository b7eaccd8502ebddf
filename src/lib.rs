//! # Contract Shadow Logic — RTL verification for secure speculation
//!
//! A full-system Rust reproduction of *"RTL Verification for Secure
//! Speculation Using Contract Shadow Logic"* (ASPLOS 2025,
//! arXiv:2407.12232): formal verification of software-hardware contracts
//! for secure speculation on out-of-order processors, built from scratch —
//! SAT solver, AIG netlist DSL, model-checking engines, processors,
//! defences, contracts and the shadow-logic methodology itself.
//!
//! This façade crate re-exports the workspace layers:
//!
//! | module | crate | role |
//! |--------|-------|------|
//! | [`sat`] | `csl-sat` | CDCL SAT solver (the decision procedure) |
//! | [`hdl`] | `csl-hdl` | word-level hardware DSL over an AIG netlist |
//! | [`mc`]  | `csl-mc`  | BMC / k-induction / Houdini / PDR engines |
//! | [`isa`] | `csl-isa` | MiniISA: encoding, assembler, interpreter |
//! | [`contracts`] | `csl-contracts` | sandboxing & constant-time contracts |
//! | [`cpu`] | `csl-cpu` | in-order, SimpleOoO (+5 defences), superscalar, BigOoO |
//! | [`certify`] | `csl-certify` | independent checking of proof certificates & attack witnesses |
//! | [`core`] | `csl-core` | **the paper's contribution**: shadow logic + schemes |
//! | [`synth`] | `csl-synth` | CEGIS contract synthesis over the observation-set lattice |
//!
//! # Quickstart
//!
//! ```no_run
//! use contract_shadow_logic::prelude::*;
//! use std::time::Duration;
//!
//! // Hunt for speculative-execution attacks on the insecure SimpleOoO
//! // core under the sandboxing contract, with Contract Shadow Logic.
//! let report = Verifier::new()
//!     .design(DesignKind::SimpleOoo(Defense::None))
//!     .contract(Contract::Sandboxing)
//!     .scheme(Scheme::Shadow)
//!     .wall(Duration::from_secs(60))
//!     .query()
//!     .unwrap()
//!     .run();
//! println!("verdict: {}", report.cell()); // "CEX": Spectre found
//! std::fs::write("report.json", report.to_json()).unwrap(); // persist it
//! ```
//!
//! See `examples/` for runnable scenarios: `quickstart` (attack + proof),
//! `spectre_hunt` (the §7.1.4 iterative attack discovery on the BOOM
//! stand-in), and `defense_audit` (the §7.2 defence comparison).

pub use csl_certify as certify;
pub use csl_contracts as contracts;
pub use csl_core as core;
pub use csl_cpu as cpu;
pub use csl_hdl as hdl;
pub use csl_isa as isa;
pub use csl_mc as mc;
pub use csl_sat as sat;
pub use csl_synth as synth;

/// The commonly-needed types in one import: the [`csl_core::api`]
/// session types plus the enums and configs they consume.
pub mod prelude {
    pub use csl_certify::{check_certificate, check_witness, Rejection, Witness};
    pub use csl_contracts::{Contract, ObsAtom, ObsSet};
    pub use csl_core::api::{
        Budget, CampaignDiff, CampaignReport, FuzzPlan, FuzzStats, Lane, LaneBudget, Matrix, Mode,
        PrepareConfig, PreparedInstance, Query, Report, ReportCache, Verifier,
    };
    pub use csl_core::{
        matrix, CampaignCell, DesignKind, ExcludeRule, InstanceConfig, Scheme, ShadowOptions,
    };
    pub use csl_cpu::{CpuConfig, Defense};
    pub use csl_isa::IsaConfig;
    pub use csl_mc::{
        CertKind, Certificate, CheckOptions, CheckReport, ExecMode, InconclusiveReason,
        ProofEngine, Verdict,
    };
    pub use csl_synth::{SynthOutcome, SynthPhase, SynthStep, SynthesisResult, Synthesizer};
}
