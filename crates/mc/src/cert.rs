//! Certificate material: self-contained proof artifacts.
//!
//! A [`Certificate`] captures, in **raw-netlist vocabulary**, everything
//! an independent checker needs to re-establish a `Proven` verdict
//! without rerunning the engines: the inductive invariant PDR converged
//! on (or Houdini's surviving candidates, or k-induction's closing
//! `k`), plus the constants preparation folded away before
//! the engines ever saw the instance.
//!
//! The engines *emit* this material (it is free — no extra SAT calls at
//! proof time); the `csl_certify` crate *checks* it with three fresh SAT
//! queries (init ⊆ Inv, consecution, Inv ⊆ safe) against the unprepared
//! netlist, independently auditing preparation and the engines end to
//! end. Attack verdicts are covered by the dual artifact: the lifted
//! [`Trace`](crate::Trace) replayed concretely by
//! [`Sim::replay`](crate::Sim::replay).

use crate::pdr::Cube;

/// How a certificate's support set proves safety.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CertKind {
    /// A 1-inductive invariant: the conjunction of the support set and
    /// the negation of every blocked cube is init-true, closed under
    /// one transition (with assumes held), and excludes all bad states.
    Inductive {
        /// Blocked cubes over raw latch `(index, value)` pairs; each
        /// contributes the clause ¬cube to the invariant.
        blocked: Vec<Cube>,
    },
    /// A k-induction proof: no bad state within `k` steps of reset, and
    /// `k` consecutive good states (under the support set and assumes)
    /// force a good successor.
    KInduction {
        /// The closing depth (≥ 1).
        k: usize,
    },
}

/// A checkable proof artifact in raw-netlist vocabulary.
///
/// The invariant it denotes is the conjunction of three parts:
///
/// 1. each `restored` latch holds its constant value,
/// 2. each surviving candidate invariant (indexed into the raw task's
///    candidate list) holds,
/// 3. for [`CertKind::Inductive`], the negation of every blocked cube.
///
/// All three parts are established jointly (mutual induction over a
/// conjunction is sound), so the checker asserts them together and
/// queries each conjunct's consecution separately.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Certificate {
    /// Raw latches preparation proved stuck at a constant,
    /// as `(latch_index, value)` — from
    /// [`Reconstruction::restored_constants`](csl_hdl::xform::Reconstruction::restored_constants).
    pub restored: Vec<(u32, bool)>,
    /// Indices into the raw task's candidate list that survived Houdini
    /// (empty when no candidate filtering ran).
    pub survivors: Vec<usize>,
    /// The engine-specific closing argument.
    pub kind: CertKind,
}

impl Certificate {
    /// Total conjuncts in the invariant this certificate denotes.
    pub fn conjuncts(&self) -> usize {
        self.restored.len()
            + self.survivors.len()
            + match &self.kind {
                CertKind::Inductive { blocked } => blocked.len(),
                CertKind::KInduction { .. } => 0,
            }
    }

    /// Short human summary for notes and logs.
    pub fn summary(&self) -> String {
        match &self.kind {
            CertKind::Inductive { blocked } => format!(
                "inductive certificate: {} clauses, {} survivors, {} restored constants",
                blocked.len(),
                self.survivors.len(),
                self.restored.len()
            ),
            CertKind::KInduction { k } => format!(
                "k-induction certificate: k={}, {} survivors, {} restored constants",
                k,
                self.survivors.len(),
                self.restored.len()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjunct_count_spans_all_parts() {
        let c = Certificate {
            restored: vec![(0, false), (3, true)],
            survivors: vec![1],
            kind: CertKind::Inductive {
                blocked: vec![vec![(2, true)], vec![(0, false), (1, true)]],
            },
        };
        assert_eq!(c.conjuncts(), 5);
        assert!(c.summary().contains("2 clauses"));
        let k = Certificate {
            restored: vec![],
            survivors: vec![],
            kind: CertKind::KInduction { k: 4 },
        };
        assert_eq!(k.conjuncts(), 0);
        assert!(k.summary().contains("k=4"));
    }
}
