//! Transition-system view of a netlist.
//!
//! [`TransitionSystem`] wraps an [`Aig`] with its cone-of-influence
//! reduction: the set of latches and inputs that can affect the
//! verification roots (assumes + bad bits). Engines iterate over the
//! *active* latches/inputs only, which is the main scalability lever the
//! paper attributes to removing the two single-cycle machines — dead logic
//! simply never reaches the solver.

use std::sync::Arc;

use csl_hdl::{Aig, Bit, CoiMarks, Init};

/// A netlist plus cone-of-influence bookkeeping.
pub struct TransitionSystem {
    aig: Aig,
    coi: CoiMarks,
    active_latches: Vec<u32>,
    active_inputs: Vec<u32>,
}

impl TransitionSystem {
    /// Builds the system, computing the cone of influence of all assumes
    /// and bad bits. Probes are kept alive too when `keep_probes` (useful
    /// for readable traces; slightly larger encodings).
    ///
    /// # Panics
    /// Panics if the netlist has unsealed latches.
    pub fn new(aig: Aig, keep_probes: bool) -> TransitionSystem {
        aig.validate()
            .unwrap_or_else(|names| panic!("unsealed latches: {names:?}"));
        let coi = aig.cone_of_influence(keep_probes);
        let mut active_latches = Vec::new();
        for (i, l) in aig.latches().iter().enumerate() {
            if coi.contains(l.output) {
                active_latches.push(i as u32);
            }
        }
        let mut active_inputs = Vec::new();
        for (i, inp) in aig.inputs().iter().enumerate() {
            if coi.contains(inp.output) {
                active_inputs.push(i as u32);
            }
        }
        TransitionSystem {
            aig,
            coi,
            active_latches,
            active_inputs,
        }
    }

    /// [`TransitionSystem::new`] wrapped in the [`Arc`] every engine and
    /// [`crate::Unroller`] takes: a solver session owns its unrollers, and
    /// each unroller owns a share of the system instead of borrowing it.
    pub fn shared(aig: Aig, keep_probes: bool) -> Arc<TransitionSystem> {
        Arc::new(TransitionSystem::new(aig, keep_probes))
    }

    /// The underlying netlist.
    pub fn aig(&self) -> &Aig {
        &self.aig
    }

    /// Latch indices inside the cone of influence.
    pub fn active_latches(&self) -> &[u32] {
        &self.active_latches
    }

    /// Input indices inside the cone of influence.
    pub fn active_inputs(&self) -> &[u32] {
        &self.active_inputs
    }

    /// Whether `b`'s node is in the cone of influence.
    pub fn in_coi(&self, b: Bit) -> bool {
        self.coi.contains(b)
    }

    /// Initial value of latch `idx` as a concrete bool, or `None` when
    /// symbolic.
    pub fn latch_init(&self, idx: u32) -> Option<bool> {
        match self.aig.latches()[idx as usize].init {
            Init::Zero => Some(false),
            Init::One => Some(true),
            Init::Symbolic => None,
        }
    }

    /// Summary line for logs and the Table 1 inventory.
    pub fn summary(&self) -> String {
        format!(
            "{} ands, {}/{} latches in COI, {}/{} inputs in COI, {} assumes, {} bads",
            self.aig.num_ands(),
            self.active_latches.len(),
            self.aig.num_latches(),
            self.active_inputs.len(),
            self.aig.num_inputs(),
            self.aig.assumes().len(),
            self.aig.bads().len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csl_hdl::Design;

    #[test]
    fn coi_prunes_dead_state() {
        let mut d = Design::new("t");
        let live = d.reg("live", 2, Init::Zero);
        let dead = d.reg("dead", 8, Init::Zero);
        let next = d.add_const(&live.q(), 1);
        d.set_next(&live, next);
        let dnext = d.add_const(&dead.q(), 3);
        d.set_next(&dead, dnext);
        let flag = d.eq_const(&live.q(), 3);
        d.assert_always("live_lt3", flag.not());
        let ts = TransitionSystem::new(d.finish(), false);
        assert_eq!(ts.active_latches().len(), 2);
        assert_eq!(ts.aig().num_latches(), 10);
    }

    #[test]
    fn keep_probes_enlarges_cone() {
        let mut d = Design::new("t");
        let r = d.reg("r", 4, Init::Zero);
        d.hold(&r);
        let q = r.q();
        d.probe("r", &q);
        let t = csl_hdl::Bit::TRUE;
        d.assert_always("trivial", t);
        let without = TransitionSystem::new(
            {
                let mut d2 = Design::new("t");
                let r2 = d2.reg("r", 4, Init::Zero);
                d2.hold(&r2);
                let q2 = r2.q();
                d2.probe("r", &q2);
                d2.assert_always("trivial", csl_hdl::Bit::TRUE);
                d2.finish()
            },
            false,
        );
        let with = TransitionSystem::new(d.finish(), true);
        assert_eq!(without.active_latches().len(), 0);
        assert_eq!(with.active_latches().len(), 4);
    }

    #[test]
    fn latch_init_reporting() {
        let mut d = Design::new("t");
        let a = d.reg("a", 1, Init::Zero);
        let b = d.reg("b", 1, Init::Symbolic);
        d.hold(&a);
        d.hold(&b);
        let ts = TransitionSystem::new(d.finish(), false);
        assert_eq!(ts.latch_init(0), Some(false));
        assert_eq!(ts.latch_init(1), None);
    }
}
