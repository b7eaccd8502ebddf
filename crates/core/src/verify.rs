//! The top-level verification API: scheme × design × contract → verdict.
//!
//! Dispatches to the four verification schemes the paper compares
//! (Table 2). They differ only in the instance they build and the
//! [`csl_mc::Schedule`] the engine driver runs on it:
//!
//! * [`Scheme::Shadow`] — Contract Shadow Logic (this paper): the
//!   two-machine instance plus the full engine schedule (BMC attack
//!   search, Houdini lemmas, k-induction, PDR).
//! * [`Scheme::Baseline`] — the four-machine instance of §4.1, same
//!   engines.
//! * [`Scheme::Leave`] — LEAVE's method (§7.1.3): the relational-invariant
//!   Houdini search *alone*; if the surviving invariants do not imply
//!   safety the result is UNKNOWN ("false counterexamples").
//! * [`Scheme::Upec`] — an approximation of UPEC (§7.1.4): the user fixes
//!   the mis-speculation source to branch misprediction (faults are
//!   assumed away), and unbounded proofs only come from the 1-cycle
//!   induction that UPEC's conservative-defence invariant admits.

use csl_mc::{check_schedule, CheckOptions, CheckReport, SafetyCheck, Schedule, Step, Undecided};

use crate::harness::{ExcludeRule, InstanceConfig};

/// The verification schemes compared in Table 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheme {
    Shadow,
    Baseline,
    Leave,
    Upec,
}

impl Scheme {
    pub const ALL: [Scheme; 4] = [
        Scheme::Baseline,
        Scheme::Leave,
        Scheme::Upec,
        Scheme::Shadow,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Scheme::Shadow => "ContractShadowLogic",
            Scheme::Baseline => "Baseline",
            Scheme::Leave => "LEAVE",
            Scheme::Upec => "UPEC",
        }
    }

    /// Inverse of [`Scheme::name`] (used when reading persisted reports).
    pub fn from_name(name: &str) -> Option<Scheme> {
        Scheme::ALL.into_iter().find(|s| s.name() == name)
    }
}

/// Builds the model-checking instance for a scheme (internal form; the
/// public surface is `api::Query::instance`).
pub(crate) fn instance_for(scheme: Scheme, cfg: &InstanceConfig) -> SafetyCheck {
    match scheme {
        Scheme::Baseline => crate::harness::baseline_instance(cfg),
        Scheme::Leave => crate::harness::leave_instance(cfg),
        Scheme::Shadow => crate::harness::shadow_instance(cfg),
        Scheme::Upec => {
            let mut cfg = cfg.clone();
            // UPEC's user-declared speculation source: branch misprediction
            // only. Exception speculation is assumed away.
            if !cfg.excludes.contains(&ExcludeRule::AnyFault) {
                cfg.excludes.push(ExcludeRule::AnyFault);
            }
            crate::harness::shadow_instance(&cfg)
        }
    }
}

/// Runs a scheme to a verdict (internal form; the public surface is
/// `api::Query::run`). LEAVE and UPEC ignore the execution mode and the
/// extra lanes.
pub(crate) fn run_scheme(scheme: Scheme, cfg: &InstanceConfig, opts: &CheckOptions) -> CheckReport {
    run_instance(scheme, &instance_for(scheme, cfg), opts)
}

/// [`run_scheme`] on the scheme's raw instance, already built by
/// [`instance_for`].
pub(crate) fn run_instance(scheme: Scheme, task: &SafetyCheck, opts: &CheckOptions) -> CheckReport {
    let schedule = match scheme {
        Scheme::Shadow | Scheme::Baseline => Schedule::for_options(task, opts),
        // Houdini-filtered relational invariants or bust: survivors that
        // do not imply safety mean UNKNOWN ("false counterexamples").
        Scheme::Leave => {
            Schedule::new(Undecided::InvariantsInsufficient).stage([Step::Houdini { tail: false }])
        }
        // Attack search, then only the 1-cycle induction UPEC's
        // conservative-defence invariant shape admits.
        Scheme::Upec => Schedule::new(Undecided::InductionGap { max_k: 1 })
            .stage([Step::Bmc])
            .stage([Step::KInduction { max_k: 1 }]),
    };
    check_schedule(task, opts, &schedule)
}
