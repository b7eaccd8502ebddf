//! Instance preparation: netlist reduction in front of the engines.
//!
//! [`prepare`] runs [`csl_hdl::xform::reduce`] over a [`SafetyCheck`] —
//! one rebuild that folds stuck-at-reset latches and the logic constant
//! under them, re-strashes across the two machine copies, and keeps only
//! what the verification roots reach — producing a [`PreparedInstance`]:
//! the reduced task, a [`Reconstruction`] that lifts counterexample
//! traces back to the original netlist's latch/input indices, and the
//! before/after sizes.
//!
//! Houdini candidate invariants are threaded through the reduction as
//! extra roots, so their bits stay meaningful (remapped) on the reduced
//! netlist and the candidate set never silently shrinks.
//!
//! [`check_safety`](crate::check_safety) prepares by default
//! ([`CheckOptions::prepare`](crate::CheckOptions)), on demand: the
//! engine driver builds the [`PreparedInstance`] when the first stage
//! holding an engine other than BMC starts. BMC's reset unrolling folds
//! the same reset constants and shares the same gates on the raw
//! netlist, so a check that BMC decides never prepares.
//! `PrepareConfig::off()` is the escape hatch that reproduces the
//! raw-instance behaviour exactly.

use csl_hdl::xform::{reduce, PassStats, Reconstruction};
use csl_hdl::Aig;

use crate::cert::{CertKind, Certificate};
use crate::engine::SafetyCheck;
use crate::houdini::Candidate;

/// Whether [`reduce`] runs before the engines see an instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PrepareConfig {
    /// `false` hands the engines the raw instance.
    pub enabled: bool,
}

impl Default for PrepareConfig {
    /// Preparation on.
    fn default() -> PrepareConfig {
        PrepareConfig::on()
    }
}

impl PrepareConfig {
    /// Preparation enabled.
    pub fn on() -> PrepareConfig {
        PrepareConfig { enabled: true }
    }

    /// Preparation disabled (engines run on the raw instance).
    pub fn off() -> PrepareConfig {
        PrepareConfig { enabled: false }
    }
}

/// A verification instance after preparation: the reduced task the
/// engines run on, the back-map to the original netlist, and the
/// reduction statistics.
pub struct PreparedInstance {
    /// The reduced netlist plus candidates remapped into its vocabulary.
    pub task: SafetyCheck,
    /// Lifts reduced-netlist traces back to original latch/input
    /// indices (identity when preparation was off).
    pub reconstruction: Reconstruction,
    /// The reduction's before/after sizes: one `"reduce"` entry, none
    /// when preparation was off.
    pub stats: Vec<PassStats>,
}

impl PreparedInstance {
    /// The reduced netlist.
    pub fn aig(&self) -> &Aig {
        &self.task.aig
    }

    /// Whether the reduction ran.
    pub fn was_prepared(&self) -> bool {
        !self.stats.is_empty()
    }

    /// The report's `prepare:` note line: the reduction's before/after
    /// sizes (`None` when preparation was off).
    pub(crate) fn note(&self) -> Option<String> {
        self.stats.first().map(|s| {
            format!(
                "prepare: {} -> {} ({} ands, {} latches removed)",
                s.before,
                s.after,
                s.ands_removed(),
                s.latches_removed()
            )
        })
    }

    /// Re-expresses a certificate found on the prepared netlist in the
    /// vocabulary of `original`, the netlist `prepare` ran on. Candidate
    /// (survivor) indices are stable — `prepare` rebuilds the candidate
    /// list index-aligned — so only blocked cubes need mapping; the
    /// constants the reduction folded away join the certificate's
    /// `restored` set, restoring the part of the invariant the engines
    /// never saw. A certificate whose invariant mentions a latch with no
    /// original image cannot be lifted: `None`, rather than one shipped
    /// wrong. (Attack traces lift through [`crate::Trace::lifted`].)
    pub(crate) fn lift_certificate(
        &self,
        original: &Aig,
        mut cert: Certificate,
    ) -> Option<Certificate> {
        cert.restored = self.reconstruction.restored_constants(original);
        if let CertKind::Inductive { blocked } = &mut cert.kind {
            for cube in blocked.iter_mut() {
                for (latch, _) in cube.iter_mut() {
                    *latch = self.reconstruction.original_latch(*latch)?;
                }
            }
        }
        Some(cert)
    }
}

/// Runs [`reduce`] over `task` when `cfg` enables it. Candidate bits
/// ride along as extra roots and come back remapped; with preparation
/// disabled the result is a clone of `task` with an identity
/// reconstruction.
pub fn prepare(task: &SafetyCheck, cfg: &PrepareConfig, keep_probes: bool) -> PreparedInstance {
    if !cfg.enabled {
        return PreparedInstance {
            task: SafetyCheck {
                aig: task.aig.clone(),
                candidates: task.candidates.clone(),
            },
            reconstruction: Reconstruction::identity(&task.aig),
            stats: Vec::new(),
        };
    }
    let roots: Vec<csl_hdl::Bit> = task.candidates.iter().map(|c| c.bit).collect();
    let prepared = reduce(&task.aig, &roots, keep_probes);
    let candidates = task
        .candidates
        .iter()
        .zip(&prepared.root_images)
        .map(|(c, &bit)| Candidate {
            name: c.name.clone(),
            bit,
        })
        .collect();
    PreparedInstance {
        task: SafetyCheck {
            aig: prepared.aig,
            candidates,
        },
        reconstruction: prepared.reconstruction,
        stats: vec![prepared.stats],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csl_hdl::{Design, Init};

    fn task_with_dead_state() -> SafetyCheck {
        let mut d = Design::new("t");
        let live = d.reg("live", 3, Init::Zero);
        let nxt = d.add_const(&live.q(), 1);
        d.set_next(&live, nxt);
        let dead = d.reg("dead", 6, Init::Zero);
        let dn = d.add_const(&dead.q(), 2);
        d.set_next(&dead, dn);
        let hit = d.eq_const(&live.q(), 5);
        d.assert_always("no5", hit.not());
        SafetyCheck {
            aig: d.finish(),
            candidates: vec![Candidate {
                name: "not5".into(),
                bit: hit.not(),
            }],
        }
    }

    #[test]
    fn off_is_identity() {
        let task = task_with_dead_state();
        let p = prepare(&task, &PrepareConfig::off(), true);
        assert!(!p.was_prepared());
        assert_eq!(p.aig().num_nodes(), task.aig.num_nodes());
        assert_eq!(p.task.candidates[0].bit, task.candidates[0].bit);
        assert_eq!(p.reconstruction.original_latch(3), Some(3));
    }

    #[test]
    fn on_reduces_and_remaps_candidates() {
        let task = task_with_dead_state();
        let p = prepare(&task, &PrepareConfig::on(), false);
        assert!(p.was_prepared());
        assert!(p.aig().num_latches() < task.aig.num_latches());
        assert_eq!(p.task.candidates.len(), 1);
        // The candidate's bit now lives in the reduced vocabulary.
        assert!(!p.task.candidates[0].bit.is_const());
        assert!(p.stats[0].latches_removed() >= 6);
        assert!(p.aig().validate().is_ok());
    }
}
