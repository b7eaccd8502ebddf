//! Houdini-style invariant filtering.
//!
//! Given a set of *candidate* invariant bits (in this project: relational
//! equalities between corresponding registers of the two processor copies,
//! the candidate family LEAVE generates automatically), compute the largest
//! subset that is simultaneously (a) true in all constrained initial states
//! and (b) inductive under the constrained transition relation. The
//! survivors are sound invariants: they may be conjoined to other engines
//! as assumes, and if they exclude the bad states the property is proved —
//! exactly LEAVE's proof structure, and the concrete version of the paper's
//! §8 observation that shadow-logic constraints act as invariants.

use csl_hdl::Bit;
use std::sync::Arc;

use csl_sat::{Budget, Lit, SolveResult, SolverStats};

use crate::ts::TransitionSystem;
use crate::unroll::{InitMode, Unroller};

/// A named candidate invariant bit.
#[derive(Clone, Debug)]
pub struct Candidate {
    pub name: String,
    pub bit: Bit,
}

/// Outcome of a Houdini run.
#[derive(Debug)]
pub enum HoudiniResult {
    /// Fixpoint reached.
    Done(HoudiniOutcome),
    /// Budget exhausted mid-search.
    Timeout,
}

/// The surviving invariant set and run diagnostics.
#[derive(Debug)]
pub struct HoudiniOutcome {
    /// Indices into the candidate slice that survived filtering.
    pub survivors: Vec<usize>,
    /// How many got dropped by the init-state filter.
    pub dropped_at_init: usize,
    /// Consecution refinement iterations performed.
    pub rounds: usize,
    /// Whether the surviving invariants exclude every bad state — i.e.
    /// whether this alone constitutes a safety proof (LEAVE's success case).
    pub proves_safety: bool,
}

/// Runs the Houdini fixpoint. See the module docs.
pub fn houdini(
    ts: &Arc<TransitionSystem>,
    candidates: &[Candidate],
    budget: Budget,
) -> HoudiniResult {
    houdini_with_stats(ts, candidates, budget).0
}

/// [`houdini`] that also returns the statistics summed over its two
/// solvers (the initial-state filter and the consecution instance).
pub fn houdini_with_stats(
    ts: &Arc<TransitionSystem>,
    candidates: &[Candidate],
    budget: Budget,
) -> (HoudiniResult, SolverStats) {
    let mut init = Unroller::new(ts, InitMode::Reset);
    let mut step = Unroller::new(ts, InitMode::Free);
    let result = filter(&mut init, &mut step, candidates, budget);
    (result, init.solver.stats + step.solver.stats)
}

/// The body of [`houdini_with_stats`] over its reset-initialised
/// (`init`) and free-initialised (`step`) instances.
fn filter(
    init: &mut Unroller,
    step: &mut Unroller,
    candidates: &[Candidate],
    budget: Budget,
) -> HoudiniResult {
    // ---- phase 1: drop candidates violated in some initial state ---------
    init.set_budget(budget.clone());
    init.assert_assumes_through(0);
    let mut alive: Vec<bool> = vec![true; candidates.len()];
    let mut dropped_at_init = 0;
    for (i, c) in candidates.iter().enumerate() {
        let l = init.lit_of(c.bit, 0);
        match init.solve_with(&[!l]) {
            SolveResult::Sat => {
                alive[i] = false;
                dropped_at_init += 1;
            }
            SolveResult::Unsat => {}
            SolveResult::Canceled => return HoudiniResult::Timeout,
        }
    }

    // ---- phase 2: consecution fixpoint ------------------------------------
    step.set_budget(budget.clone());
    step.assert_assumes_through(1);
    let lits0: Vec<Lit> = candidates.iter().map(|c| step.lit_of(c.bit, 0)).collect();
    let lits1: Vec<Lit> = candidates.iter().map(|c| step.lit_of(c.bit, 1)).collect();

    let mut rounds = 0;
    loop {
        rounds += 1;
        let survivors: Vec<usize> = (0..candidates.len()).filter(|&i| alive[i]).collect();
        if survivors.is_empty() {
            break;
        }
        // y -> (some surviving candidate is false at frame 1)
        let y = step.solver.new_var().positive();
        let mut clause = vec![!y];
        clause.extend(survivors.iter().map(|&i| !lits1[i]));
        step.solver.add_clause(&clause);
        let mut assumptions: Vec<Lit> = survivors.iter().map(|&i| lits0[i]).collect();
        assumptions.push(y);
        match step.solve_with(&assumptions) {
            SolveResult::Unsat => {
                // Fixpoint: every remaining candidate passed consecution
                // simultaneously. Retire the helper variable and finish.
                step.solver.add_clause(&[!y]);
                break;
            }
            SolveResult::Sat => {
                let mut dropped_any = false;
                for &i in &survivors {
                    if step.solver.value(lits1[i]) == Some(false) {
                        alive[i] = false;
                        dropped_any = true;
                    }
                }
                debug_assert!(dropped_any, "SAT consecution round must drop something");
                step.solver.add_clause(&[!y]);
            }
            SolveResult::Canceled => return HoudiniResult::Timeout,
        }
    }

    // ---- phase 3: do the survivors exclude the bad states? ----------------
    let survivors: Vec<usize> = (0..candidates.len()).filter(|&i| alive[i]).collect();
    let bad = step.bad_any_at(0);
    let mut assumptions: Vec<Lit> = survivors.iter().map(|&i| lits0[i]).collect();
    assumptions.push(bad);
    let proves_safety = match step.solve_with(&assumptions) {
        SolveResult::Unsat => true,
        SolveResult::Sat => false,
        SolveResult::Canceled => return HoudiniResult::Timeout,
    };

    HoudiniResult::Done(HoudiniOutcome {
        survivors,
        dropped_at_init,
        rounds,
        proves_safety,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use csl_hdl::{Design, Init};

    /// Two identical counters; candidate: they stay equal. Bad: they differ.
    #[test]
    fn equality_of_lockstep_counters_survives_and_proves() {
        let mut d = Design::new("t");
        let a = d.reg("a", 3, Init::Zero);
        let b = d.reg("b", 3, Init::Zero);
        let an = d.add_const(&a.q(), 1);
        let bn = d.add_const(&b.q(), 1);
        d.set_next(&a, an);
        d.set_next(&b, bn);
        let eq = d.eq(&a.q(), &b.q());
        d.assert_always("equal", eq);
        let cand = Candidate {
            name: "a==b".into(),
            bit: eq,
        };
        let ts = TransitionSystem::shared(d.finish(), false);
        match houdini(&ts, &[cand], Budget::unlimited()) {
            HoudiniResult::Done(o) => {
                assert_eq!(o.survivors, vec![0]);
                assert!(o.proves_safety);
            }
            HoudiniResult::Timeout => panic!("unexpected timeout"),
        }
    }

    /// Candidate violated at init gets dropped and the proof fails.
    #[test]
    fn init_violated_candidate_dropped() {
        let mut d = Design::new("t");
        let a = d.reg("a", 2, Init::Zero);
        let b = d.reg("b", 2, Init::Symbolic);
        d.hold(&a);
        d.hold(&b);
        let eq = d.eq(&a.q(), &b.q());
        d.assert_always("equal", eq);
        let cand = Candidate {
            name: "a==b".into(),
            bit: eq,
        };
        let ts = TransitionSystem::shared(d.finish(), false);
        match houdini(&ts, &[cand], Budget::unlimited()) {
            HoudiniResult::Done(o) => {
                assert!(o.survivors.is_empty());
                assert_eq!(o.dropped_at_init, 1);
                assert!(!o.proves_safety);
            }
            HoudiniResult::Timeout => panic!("unexpected timeout"),
        }
    }

    /// A non-inductive candidate is eliminated in the consecution loop:
    /// two counters that diverge after an input pulse.
    #[test]
    fn non_inductive_candidate_eliminated() {
        let mut d = Design::new("t");
        let x = d.input_bit("x");
        let a = d.reg("a", 3, Init::Zero);
        let b = d.reg("b", 3, Init::Zero);
        let an = d.add_const(&a.q(), 1);
        d.set_next(&a, an);
        let binc = d.add_const(&b.q(), 1);
        let b2 = d.add_const(&b.q(), 2);
        let bn = d.mux(x, &b2, &binc);
        d.set_next(&b, bn);
        let eq = d.eq(&a.q(), &b.q());
        d.assert_always("equal", eq);
        let cand = Candidate {
            name: "a==b".into(),
            bit: eq,
        };
        let ts = TransitionSystem::shared(d.finish(), false);
        match houdini(&ts, &[cand], Budget::unlimited()) {
            HoudiniResult::Done(o) => {
                assert!(o.survivors.is_empty());
                assert_eq!(o.dropped_at_init, 0);
                assert!(!o.proves_safety, "LEAVE-style UNKNOWN expected");
            }
            HoudiniResult::Timeout => panic!("unexpected timeout"),
        }
    }

    /// An assume can rescue a candidate that would otherwise not be
    /// inductive — the mechanism behind the shadow logic's constraining
    /// power (§8).
    #[test]
    fn assumes_strengthen_induction() {
        let mut d = Design::new("t");
        let x = d.input_bit("x");
        let a = d.reg("a", 3, Init::Zero);
        let b = d.reg("b", 3, Init::Zero);
        let an = d.add_const(&a.q(), 1);
        d.set_next(&a, an);
        let binc = d.add_const(&b.q(), 1);
        let b2 = d.add_const(&b.q(), 2);
        let bn = d.mux(x, &b2, &binc);
        d.set_next(&b, bn);
        let eq = d.eq(&a.q(), &b.q());
        d.assert_always("equal", eq);
        d.assume(x.not()); // forbid the divergence-inducing input
        let cand = Candidate {
            name: "a==b".into(),
            bit: eq,
        };
        let ts = TransitionSystem::shared(d.finish(), false);
        match houdini(&ts, &[cand], Budget::unlimited()) {
            HoudiniResult::Done(o) => {
                assert_eq!(o.survivors, vec![0]);
                assert!(o.proves_safety);
            }
            HoudiniResult::Timeout => panic!("unexpected timeout"),
        }
    }
}
