//! Instance preparation: netlist reduction in front of the engines.
//!
//! [`prepare`] runs the `csl_hdl::xform` pass pipeline over a
//! [`SafetyCheck`] — cone-of-influence reduction, constant sweep with
//! cross-copy re-strash, dead-latch elimination, and probe-preserving
//! compaction — producing a [`PreparedInstance`]: the reduced task, a
//! [`Reconstruction`] that lifts counterexample traces back to the
//! original netlist's latch/input indices, and per-pass statistics.
//!
//! Houdini candidate invariants are threaded through the pipeline as
//! extra roots, so their bits stay meaningful (remapped) on the reduced
//! netlist and the candidate set never silently shrinks.
//!
//! [`check_safety`](crate::check_safety) prepares by default
//! ([`CheckOptions::prepare`](crate::CheckOptions)); `PrepareConfig::off()`
//! is the escape hatch that reproduces the raw-instance behaviour
//! exactly.

use csl_hdl::xform::{
    CoiPass, CompactPass, ConstSweepPass, DeadLatchPass, PassOpts, Pipeline, Reconstruction,
};
use csl_hdl::Aig;

use crate::cert::{CertKind, Certificate};
use crate::engine::{CheckReport, SafetyCheck, Verdict};
use crate::houdini::Candidate;

pub use csl_hdl::xform::PipelineStats as PrepareStats;

/// Which reduction passes run before the engines see an instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PrepareConfig {
    /// Master switch; `false` hands the engines the raw instance.
    pub enabled: bool,
    /// Cone-of-influence reduction w.r.t. assumes/bads (+probes).
    pub coi: bool,
    /// Stuck-at-reset constant sweep + cross-copy re-strash.
    pub const_sweep: bool,
    /// Removal of latches orphaned by earlier passes.
    pub dead_latches: bool,
    /// Probe-preserving node compaction.
    pub compact: bool,
}

impl Default for PrepareConfig {
    /// Preparation on, all passes enabled.
    fn default() -> PrepareConfig {
        PrepareConfig::on()
    }
}

impl PrepareConfig {
    /// The full standard pipeline.
    pub fn on() -> PrepareConfig {
        PrepareConfig {
            enabled: true,
            coi: true,
            const_sweep: true,
            dead_latches: true,
            compact: true,
        }
    }

    /// Preparation disabled (engines run on the raw instance).
    pub fn off() -> PrepareConfig {
        PrepareConfig {
            enabled: false,
            coi: false,
            const_sweep: false,
            dead_latches: false,
            compact: false,
        }
    }

    /// The `csl_hdl::xform` pipeline these knobs describe (empty when
    /// disabled).
    pub fn pipeline(&self, keep_probes: bool) -> Pipeline {
        let opts = PassOpts { keep_probes };
        let mut p = Pipeline::new(opts);
        if !self.enabled {
            return p;
        }
        if self.coi {
            p = p.with_pass(CoiPass);
        }
        if self.const_sweep {
            p = p.with_pass(ConstSweepPass);
        }
        if self.dead_latches {
            p = p.with_pass(DeadLatchPass);
        }
        if self.compact {
            p = p.with_pass(CompactPass);
        }
        p
    }
}

/// A verification instance after preparation: the reduced task the
/// engines run on, the back-map to the original netlist, and the
/// per-pass reduction statistics.
pub struct PreparedInstance {
    /// The reduced netlist plus candidates remapped into its vocabulary.
    pub task: SafetyCheck,
    /// Lifts reduced-netlist traces back to original latch/input
    /// indices (identity when preparation was off).
    pub reconstruction: Reconstruction,
    /// Per-pass node/latch reduction statistics (empty when preparation
    /// was off).
    pub stats: PrepareStats,
}

impl PreparedInstance {
    /// The reduced netlist.
    pub fn aig(&self) -> &Aig {
        &self.task.aig
    }

    /// Whether any pass actually ran.
    pub fn was_prepared(&self) -> bool {
        !self.stats.passes.is_empty()
    }

    /// Rewrites `report` into original-netlist vocabulary: attack traces
    /// and proof certificates are lifted through the reconstruction
    /// (certificates additionally pick up the constants the pipeline
    /// restored, via
    /// [`Reconstruction::restored_constants`]), and the preparation
    /// statistics (plus a summary note) are attached. `original` is the
    /// netlist `prepare` ran on. A certificate whose invariant mentions
    /// a latch with no original image cannot be lifted; it is dropped
    /// with a note rather than shipped wrong.
    pub fn finalize_report(&self, original: &Aig, mut report: CheckReport) -> CheckReport {
        if let Verdict::Attack(trace) = report.verdict {
            report.verdict = Verdict::Attack(Box::new(trace.lifted(&self.reconstruction)));
        }
        if let Some(cert) = report.certificate.take() {
            match self.lift_certificate(original, cert) {
                Some(lifted) => report.certificate = Some(lifted),
                None => report
                    .notes
                    .push("certificate dropped: invariant latch lost in preparation".into()),
            }
        }
        if self.was_prepared() {
            report.notes.insert(0, self.stats.summary());
            report.prepare = self.stats.passes.clone();
        }
        report
    }

    /// Re-expresses a certificate found on the prepared netlist in the
    /// original netlist's latch indices. Candidate (survivor) indices
    /// are stable — `prepare` rebuilds the candidate list index-aligned
    /// — so only blocked cubes need mapping; the constants the pipeline
    /// folded away join the certificate's `restored` set, restoring the
    /// part of the invariant the engines never saw.
    fn lift_certificate(&self, original: &Aig, mut cert: Certificate) -> Option<Certificate> {
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

/// Runs the configured reduction pipeline over `task`. Candidate bits
/// ride along as extra roots and come back remapped; with preparation
/// disabled the result is a clone of `task` with an identity
/// reconstruction.
pub fn prepare(task: &SafetyCheck, cfg: &PrepareConfig, keep_probes: bool) -> PreparedInstance {
    let pipeline = cfg.pipeline(keep_probes);
    if pipeline.is_empty() {
        return PreparedInstance {
            task: SafetyCheck {
                aig: task.aig.clone(),
                candidates: task.candidates.clone(),
            },
            reconstruction: Reconstruction::identity(&task.aig),
            stats: PrepareStats::default(),
        };
    }
    let roots: Vec<csl_hdl::Bit> = task.candidates.iter().map(|c| c.bit).collect();
    let prepared = pipeline.run(&task.aig, &roots);
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
        stats: prepared.stats,
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
        assert!(p.stats.latches_removed() >= 6);
        assert!(p.aig().validate().is_ok());
    }
}
