//! k-induction.
//!
//! Proves a property by showing (base) no counterexample exists within `k`
//! steps of the initial states, and (step) any `k` consecutive violation-free
//! assume-satisfying states are followed by another violation-free state.
//! Both halves run in incremental SAT instances that persist across
//! increasing `k`. Optional unique-states ("simple path") constraints make
//! the method complete for finite systems at the cost of quadratic clauses.

use std::sync::Arc;

use csl_sat::{Budget, Lit, SolveResult, SolverStats};

use crate::trace::Trace;
use crate::ts::TransitionSystem;
use crate::unroll::{InitMode, Unroller};

/// Outcome of a k-induction run.
#[derive(Debug)]
pub enum KindResult {
    /// Property proved inductively at depth `k`.
    Proof { k: usize },
    /// A real counterexample surfaced in a base-case check.
    Cex(Box<Trace>),
    /// Not inductive for any tried `k <= max_k`.
    Unknown { max_k_tried: usize },
    /// Budget exhausted.
    Timeout,
}

/// Options for [`k_induction`].
#[derive(Clone, Debug)]
pub struct KindOptions {
    /// Largest induction depth to try.
    pub max_k: usize,
    /// Add pairwise state-distinctness constraints to the step case.
    pub unique_states: bool,
    pub budget: Budget,
}

impl Default for KindOptions {
    fn default() -> Self {
        KindOptions {
            max_k: 10,
            unique_states: false,
            budget: Budget::unlimited(),
        }
    }
}

/// Runs k-induction for `k = 1..=max_k`.
pub fn k_induction(ts: &Arc<TransitionSystem>, opts: KindOptions) -> KindResult {
    KindSession::new(ts, opts.unique_states)
        .run(opts.max_k, opts.budget)
        .0
}

/// One k-induction run: the reset-initialised *base* and
/// free-initialised *step* [`Unroller`] pair, driven together through
/// `k = 1..=max_k` (the step instance's accumulated "no bad at shallow
/// frames" units are only meaningful together with the base instance
/// that proved them).
///
/// # Soundness
/// The step instance accumulates `!bad(0..k-1)` hypothesis units as `k`
/// grows, so any query shallower than the deepest one posed would be
/// vacuously UNSAT and fabricate a proof. The session is therefore
/// single-use by type: [`KindSession::run`] consumes it.
pub struct KindSession {
    base: Unroller,
    step: Unroller,
    unique_states: bool,
}

impl KindSession {
    /// A fresh session over `ts`; `unique_states` adds pairwise
    /// state-distinctness constraints to the step instance.
    pub fn new(ts: &Arc<TransitionSystem>, unique_states: bool) -> KindSession {
        KindSession {
            base: Unroller::new(ts, InitMode::Reset),
            step: Unroller::new(ts, InitMode::Free),
            unique_states,
        }
    }

    /// Runs the sweep for `k = 1..=max_k` under `budget`. Returns the
    /// result and the statistics summed over the base and step solvers.
    pub fn run(mut self, max_k: usize, budget: Budget) -> (KindResult, SolverStats) {
        let result = self.sweep(max_k, budget);
        (result, self.base.solver.stats + self.step.solver.stats)
    }

    /// The body of [`KindSession::run`], called once per session.
    fn sweep(&mut self, max_k: usize, budget: Budget) -> KindResult {
        self.base.set_budget(budget.clone());
        self.step.set_budget(budget.clone());
        let ts = Arc::clone(self.step.ts());

        for k in 1..=max_k {
            if budget.out_of_time() {
                return KindResult::Timeout;
            }

            // ---- base: no violation in frames 0..k-1 -------------------------
            let f = k - 1;
            self.base.assert_assumes_through(f);
            let bad = self.base.bad_any_at(f);
            match self.base.solve_with(&[bad]) {
                SolveResult::Sat => {
                    let name = self
                        .base
                        .fired_bad_name(f)
                        .unwrap_or_else(|| "<unknown bad>".to_string());
                    let trace = self.base.extract_trace(f + 1, name);
                    return KindResult::Cex(Box::new(trace));
                }
                SolveResult::Unsat => {
                    self.base.solver.add_clause(&[!bad]);
                }
                SolveResult::Canceled => return KindResult::Timeout,
            }

            // ---- step: k clean frames imply a clean frame k ------------------
            self.step.assert_assumes_through(k);
            // Bads known false at frames 0..k-1 (units accumulate across k).
            let prev_bad = self.step.bad_any_at(k - 1);
            self.step.solver.add_clause(&[!prev_bad]);
            if self.unique_states {
                add_unique_state_constraints(&ts, &mut self.step, k);
            }
            let bad_k = self.step.bad_any_at(k);
            match self.step.solve_with(&[bad_k]) {
                SolveResult::Unsat => return KindResult::Proof { k },
                SolveResult::Sat => { /* not inductive at this k; deepen */ }
                SolveResult::Canceled => return KindResult::Timeout,
            }
        }
        KindResult::Unknown { max_k_tried: max_k }
    }
}

/// Adds `state(new_frame) != state(f)` for every earlier frame `f`.
fn add_unique_state_constraints(ts: &TransitionSystem, u: &mut Unroller, new_frame: usize) {
    for f in 0..new_frame {
        let mut diff_clause: Vec<Lit> = Vec::new();
        for &li in ts.active_latches() {
            let out = ts.aig().latches()[li as usize].output;
            let a = u.lit_of(out, f);
            let b = u.lit_of(out, new_frame);
            // x = a XOR b
            let x = u.solver.new_var().positive();
            u.solver.add_clause(&[!x, a, b]);
            u.solver.add_clause(&[!x, !a, !b]);
            u.solver.add_clause(&[x, !a, b]);
            u.solver.add_clause(&[x, a, !b]);
            diff_clause.push(x);
        }
        u.solver.add_clause(&diff_clause);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csl_hdl::{Design, Init};

    /// A register that moves 0 -> 1 -> 2 and saturates; bad at 7.
    fn saturating() -> std::sync::Arc<TransitionSystem> {
        let mut d = Design::new("sat3");
        let r = d.reg("r", 3, Init::Zero);
        let at2 = d.eq_const(&r.q(), 2);
        let inc = d.add_const(&r.q(), 1);
        let nxt = d.mux(at2, &r.q(), &inc);
        d.set_next(&r, nxt);
        let bad = d.eq_const(&r.q(), 7);
        d.assert_always("never7", bad.not());
        TransitionSystem::shared(d.finish(), false)
    }

    #[test]
    fn saturating_counter_needs_simple_path() {
        // Plain k-induction fails (a state "6" is its own bogus predecessor
        // chain), but unique-states makes it complete.
        let ts = saturating();
        let plain = k_induction(
            &ts,
            KindOptions {
                max_k: 4,
                unique_states: false,
                budget: Budget::unlimited(),
            },
        );
        assert!(matches!(plain, KindResult::Unknown { .. }), "{plain:?}");
        let unique = k_induction(
            &ts,
            KindOptions {
                max_k: 8,
                unique_states: true,
                budget: Budget::unlimited(),
            },
        );
        assert!(matches!(unique, KindResult::Proof { .. }), "{unique:?}");
    }

    #[test]
    fn inductive_at_k1() {
        // Invariant r[2] == 0 is 1-inductive when the next state masks bit 2.
        let mut d = Design::new("t");
        let r = d.reg("r", 3, Init::Zero);
        let inc = d.add_const(&r.q(), 1);
        let masked = csl_hdl::Word::from_bits(vec![inc.bit(0), inc.bit(1), csl_hdl::Bit::FALSE]);
        d.set_next(&r, masked);
        let bad = r.q().bit(2);
        d.assert_always("bit2_clear", bad.not());
        let ts = TransitionSystem::shared(d.finish(), false);
        match k_induction(&ts, KindOptions::default()) {
            KindResult::Proof { k } => assert_eq!(k, 1),
            other => panic!("expected proof, got {other:?}"),
        }
    }

    #[test]
    fn base_case_finds_real_cex() {
        let mut d = Design::new("t");
        let r = d.reg("r", 3, Init::Zero);
        let inc = d.add_const(&r.q(), 1);
        d.set_next(&r, inc);
        let bad = d.eq_const(&r.q(), 2);
        d.assert_always("no2", bad.not());
        let ts = TransitionSystem::shared(d.finish(), false);
        match k_induction(
            &ts,
            KindOptions {
                max_k: 6,
                ..Default::default()
            },
        ) {
            KindResult::Cex(t) => assert_eq!(t.depth(), 3),
            other => panic!("expected cex, got {other:?}"),
        }
    }

    #[test]
    fn respects_budget() {
        let ts = saturating();
        let r = k_induction(
            &ts,
            KindOptions {
                max_k: 30,
                unique_states: true,
                budget: Budget {
                    max_conflicts: 1,
                    ..Budget::unlimited()
                },
            },
        );
        assert!(matches!(r, KindResult::Timeout | KindResult::Proof { .. }));
    }
}
