//! `csl-core` — Contract Shadow Logic: RTL verification for secure
//! speculation (reproduction of the ASPLOS'25 paper).
//!
//! The crate assembles everything below it into the paper's verification
//! methodology:
//!
//! * [`record`] — RTL-side `O_ISA` record extraction from commit ports
//!   (§5.1's shadow metadata),
//! * [`fifo`] — commit-record skid FIFOs (§5.3's superscalar trace
//!   buffering),
//! * [`shadow`] — the two-phase shadow monitor: divergence detection,
//!   pause-based re-alignment (synchronisation requirement) and drain
//!   tracking (instruction-inclusion requirement),
//! * [`harness`] — verification-instance construction for the two-machine
//!   (Fig. 1b) and four-machine baseline (Fig. 1a) setups,
//! * [`verify`] — the four schemes of Table 2 (Baseline, LEAVE, UPEC,
//!   Contract Shadow Logic) run to one of the paper's verdicts: an attack
//!   counterexample, an unbounded proof, UNKNOWN, or a timeout,
//! * [`fuzz`] — differential fuzzing as a first-class backend (§9's
//!   contrast class): a [`FuzzPlan`] runs on the 64-way bit-parallel
//!   simulator, races the solver lanes through [`FuzzBackend`] (a
//!   `csl_mc::Backend`), and reports findings as replayable
//!   counterexample traces; every trial is drawn blind from the seeded
//!   stimulus stream,
//! * [`campaign`] — the scheme × design × contract matrix evaluated on a
//!   worker pool with per-cell budgets and a deterministic result table
//!   (the Table-2 reproduction engine),
//! * [`api`] — **the unified entry point**: the fluent [`api::Verifier`]
//!   session builder (including the instance-preparation knob,
//!   `.prepare(..)`), typed [`api::Query`]s with stable cache keys
//!   whose `.instance()` yields a prepared (reduced) instance with a
//!   trace back-map, a persistent [`api::ReportCache`] with optional
//!   LRU size caps, and persistable
//!   [`api::Report`]/[`api::CampaignReport`] results (JSON/CSV writers,
//!   round-trip parsing, cross-run diffing, per-lane solver counters,
//!   preparation stats), with proof certificates and attack
//!   witnesses carried alongside for independent re-checking via
//!   `csl-certify`.
//!
//! # Quickstart
//!
//! ```no_run
//! use csl_contracts::Contract;
//! use csl_core::api::Verifier;
//! use csl_core::DesignKind;
//! use csl_cpu::Defense;
//!
//! // Is the insecure SimpleOoO core safe under the sandboxing contract?
//! let report = Verifier::new()
//!     .design(DesignKind::SimpleOoo(Defense::None))
//!     .contract(Contract::Sandboxing)
//!     .query()
//!     .unwrap()
//!     .run();
//! assert!(report.verdict.is_attack()); // Spectre-style leak found
//! ```

pub mod api;
pub mod campaign;
pub mod fifo;
pub mod fuzz;
pub mod harness;
pub mod record;
pub mod shadow;
pub mod verify;

pub use campaign::{matrix, CampaignCell};
pub use fifo::{FifoPlan, RecordFifo};
pub use fuzz::{fuzz_lane, run_fuzz, FuzzBackend, FuzzFinding, FuzzOutcome, FuzzPlan, FuzzReport};
pub use harness::{DesignKind, ExcludeRule, InstanceConfig};
pub use record::{extract_record, pack_isa_record, RecordTooWide};
pub use shadow::{uarch_trace_diff, ShadowOptions, ShadowPre};
pub use verify::Scheme;
