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
//!
//! The filter runs in three phases:
//!
//! 1. **Initiation**, on a reset-initialised instance: drop every
//!    candidate some initial state violates.
//! 2. **Consecution**, on free-initialised instances: assume every
//!    survivor at frame 0 and drop the ones some successor violates,
//!    until a round drops nothing. The first round is *speculatively
//!    reduced*: a survivor whose bit is the XNOR of two latch outputs —
//!    every LEAVE candidate is — is built into the encoding, because
//!    both latches share one frame-0 literal (`Unroller::with_aliases`)
//!    and the XNOR folds to true. The two copies' next-state logic then
//!    encodes once wherever their inputs agree, and the round decides by
//!    structure instead of rediscovering the copies' equality gate by
//!    gate. Aliasing is exactly assuming the equalities at frame 0, and
//!    the greatest inductive subset is unique, so the survivors are the
//!    plain loop's. If the round refutes, its drops stand and the
//!    remaining rounds share one incremental instance: rebuilding the
//!    reduced instance every round loses on runs that drop one candidate
//!    per round.
//! 3. **Safety**, on a fresh frame-0 instance aliased the same way: do
//!    the survivors and the assumes at frame 0 exclude every bad state?
//!    Assumes at frame 0 only, as the certificate checker's safety
//!    obligation poses it: assume clauses at frame 1 would hide a bad
//!    state that has no assume-satisfying successor.

use csl_hdl::{Aig, Bit, Node};
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
    /// Consecution rounds performed, counting the one that closes (or
    /// finds no survivor left). The speculatively reduced round, when it
    /// runs, is round 1.
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

/// [`houdini`] that also returns the statistics summed over its solvers
/// (the initial-state filter, the consecution instances and the safety
/// check).
pub fn houdini_with_stats(
    ts: &Arc<TransitionSystem>,
    candidates: &[Candidate],
    budget: Budget,
) -> (HoudiniResult, SolverStats) {
    let mut stats = SolverStats::default();
    let result = match filter(ts, candidates, &budget, &mut stats) {
        Some(outcome) => HoudiniResult::Done(outcome),
        None => HoudiniResult::Timeout,
    };
    (result, stats)
}

/// The body of [`houdini_with_stats`]; `None` when the budget runs out.
/// Every instance adds its solver counters to `stats`.
fn filter(
    ts: &Arc<TransitionSystem>,
    candidates: &[Candidate],
    budget: &Budget,
    stats: &mut SolverStats,
) -> Option<HoudiniOutcome> {
    let mut alive = initiation(ts, candidates, budget, stats)?;
    let dropped_at_init = alive.iter().filter(|&&a| !a).count();
    let pairs: Vec<Option<(Bit, Bit)>> = candidates
        .iter()
        .map(|c| equated_latches(ts.aig(), c.bit))
        .collect();

    // ---- phase 2: consecution fixpoint ------------------------------------
    let mut rounds = 0;
    let mut closed = false;
    if alive.iter().zip(&pairs).any(|(&a, p)| a && p.is_some()) {
        rounds += 1;
        let mut reduced = Unroller::with_aliases(ts, &aliases(&alive, &pairs));
        reduced.set_budget(budget.clone());
        reduced.assert_assumes_through(1);
        let survivors: Vec<(usize, Lit, Lit)> = (0..candidates.len())
            .filter(|&i| alive[i])
            .map(|i| {
                let bit = candidates[i].bit;
                (i, reduced.lit_of(bit, 0), reduced.lit_of(bit, 1))
            })
            .collect();
        let result = round(&mut reduced, &survivors, &mut alive);
        *stats = *stats + reduced.solver.stats;
        closed = result?;
    }
    if !closed {
        let mut step = Unroller::new(ts, InitMode::Free);
        step.set_budget(budget.clone());
        step.assert_assumes_through(1);
        let lits0: Vec<Lit> = candidates.iter().map(|c| step.lit_of(c.bit, 0)).collect();
        let lits1: Vec<Lit> = candidates.iter().map(|c| step.lit_of(c.bit, 1)).collect();
        let result = loop {
            rounds += 1;
            let survivors: Vec<(usize, Lit, Lit)> = (0..candidates.len())
                .filter(|&i| alive[i])
                .map(|i| (i, lits0[i], lits1[i]))
                .collect();
            if survivors.is_empty() {
                break Some(());
            }
            match round(&mut step, &survivors, &mut alive) {
                Some(true) => break Some(()),
                Some(false) => {}
                None => break None,
            }
        };
        *stats = *stats + step.solver.stats;
        result?;
    }

    // ---- phase 3: do the survivors exclude the bad states? ----------------
    let survivors: Vec<usize> = (0..candidates.len()).filter(|&i| alive[i]).collect();
    let mut safety = Unroller::with_aliases(ts, &aliases(&alive, &pairs));
    safety.set_budget(budget.clone());
    safety.assert_assumes_through(0);
    let mut assumptions: Vec<Lit> = survivors
        .iter()
        .map(|&i| safety.lit_of(candidates[i].bit, 0))
        .collect();
    assumptions.push(safety.bad_any_at(0));
    let result = safety.solve_with(&assumptions);
    *stats = *stats + safety.solver.stats;
    let proves_safety = match result {
        SolveResult::Unsat => true,
        SolveResult::Sat => false,
        SolveResult::Canceled => return None,
    };

    Some(HoudiniOutcome {
        survivors,
        dropped_at_init,
        rounds,
        proves_safety,
    })
}

/// Phase 1: which candidates hold in every constrained initial state.
fn initiation(
    ts: &Arc<TransitionSystem>,
    candidates: &[Candidate],
    budget: &Budget,
    stats: &mut SolverStats,
) -> Option<Vec<bool>> {
    let mut init = Unroller::new(ts, InitMode::Reset);
    init.set_budget(budget.clone());
    init.assert_assumes_through(0);
    let mut alive = Vec::with_capacity(candidates.len());
    for c in candidates {
        let l = init.lit_of(c.bit, 0);
        match init.solve_with(&[!l]) {
            SolveResult::Sat => alive.push(false),
            SolveResult::Unsat => alive.push(true),
            SolveResult::Canceled => break,
        }
    }
    *stats = *stats + init.solver.stats;
    (alive.len() == candidates.len()).then_some(alive)
}

/// One consecution round on `u`, whose assumes are asserted through frame
/// 1: can a state where every survivor holds step to one where some
/// survivor fails? `survivors` holds each live candidate's index and its
/// frame-0 and frame-1 literals. On SAT every survivor the model violates
/// at frame 1 is dropped from `alive`. Returns whether the round closed
/// (UNSAT), `None` on timeout.
fn round(u: &mut Unroller, survivors: &[(usize, Lit, Lit)], alive: &mut [bool]) -> Option<bool> {
    // y -> (some surviving candidate is false at frame 1)
    let y = u.solver.new_var().positive();
    let mut clause = vec![!y];
    clause.extend(survivors.iter().map(|&(_, _, l1)| !l1));
    u.solver.add_clause(&clause);
    let mut assumptions: Vec<Lit> = survivors.iter().map(|&(_, l0, _)| l0).collect();
    assumptions.push(y);
    let closed = match u.solve_with(&assumptions) {
        SolveResult::Unsat => true,
        SolveResult::Sat => {
            let mut dropped_any = false;
            for &(i, _, l1) in survivors {
                if u.solver.value(l1) == Some(false) {
                    alive[i] = false;
                    dropped_any = true;
                }
            }
            debug_assert!(dropped_any, "SAT consecution round must drop something");
            false
        }
        SolveResult::Canceled => return None,
    };
    // Retire the helper variable.
    u.solver.add_clause(&[!y]);
    Some(closed)
}

/// The latch pairs the live candidates equate: the frame-0 aliases that
/// build those candidates into a session.
fn aliases(alive: &[bool], pairs: &[Option<(Bit, Bit)>]) -> Vec<(Bit, Bit)> {
    pairs
        .iter()
        .zip(alive)
        .filter_map(|(&p, &a)| if a { p } else { None })
        .collect()
}

/// The two latch outputs a candidate equates, when its bit is their XNOR
/// `¬(¬(a ∧ b) ∧ ¬(¬a ∧ ¬b))` — the shape `xor(a, b).not()` builds — over
/// uncomplemented latch outputs `a` and `b`.
fn equated_latches(aig: &Aig, bit: Bit) -> Option<(Bit, Bit)> {
    let Node::And(x, y) = aig.node(bit) else {
        return None;
    };
    if !bit.is_complemented() || !x.is_complemented() || !y.is_complemented() {
        return None;
    }
    let (Node::And(p, q), Node::And(r, s)) = (aig.node(x), aig.node(y)) else {
        return None;
    };
    // One operand gate is `a ∧ b`, the other `¬a ∧ ¬b`, in either role.
    if !((r == p.not() && s == q.not()) || (r == q.not() && s == p.not())) {
        return None;
    }
    let latch = |l: Bit| !l.is_complemented() && matches!(aig.node(l), Node::Latch(_));
    if latch(p) && latch(q) {
        Some((p, q))
    } else if latch(r) && latch(s) {
        Some((r, s))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csl_hdl::{Design, Init, Reg};

    /// LEAVE's candidate shape: one XNOR per corresponding latch bit.
    fn bitwise_equalities(d: &mut Design, a: &Reg, b: &Reg) -> Vec<Candidate> {
        (0..a.width())
            .map(|i| Candidate {
                name: format!("a[{i}]==b[{i}]"),
                bit: d.xor_bit(a.q().bit(i), b.q().bit(i)).not(),
            })
            .collect()
    }

    fn run(ts: &Arc<TransitionSystem>, candidates: &[Candidate]) -> HoudiniOutcome {
        match houdini(ts, candidates, Budget::unlimited()) {
            HoudiniResult::Done(o) => o,
            HoudiniResult::Timeout => panic!("an unlimited Houdini run cannot time out"),
        }
    }

    /// `r` (reset 0) rises to 1 and stays there, and `q` follows it one
    /// cycle behind under `assume(!q)`: the state after reset fires
    /// `r_low` and is reachable, but has no assume-satisfying successor.
    /// With `copy`, a second copy `r2` of `r` must agree with it, and the
    /// copies' equality is the one candidate.
    fn late_assume_design(copy: bool) -> (Arc<TransitionSystem>, Vec<Candidate>) {
        let mut d = Design::new("t");
        let r = d.reg("r", 1, Init::Zero);
        let q = d.reg("q", 1, Init::Zero);
        let one = d.lit(1, 1);
        d.set_next(&r, one.clone());
        d.set_next(&q, r.q());
        d.assume(q.q().bit(0).not());
        d.assert_always("r_low", r.q().bit(0).not());
        let mut candidates = Vec::new();
        if copy {
            let r2 = d.reg("r2", 1, Init::Zero);
            d.set_next(&r2, one);
            candidates = bitwise_equalities(&mut d, &r, &r2);
            d.assert_always("copies_agree", candidates[0].bit);
        }
        (TransitionSystem::shared(d.finish(), false), candidates)
    }

    /// The safety check assumes nothing at frame 1, so the bad state of
    /// [`late_assume_design`] is not excluded — on the plain path and on
    /// the reduced one.
    #[test]
    fn bad_state_without_assume_satisfying_successor_is_not_excluded() {
        let (ts, _) = late_assume_design(false);
        let o = run(&ts, &[]);
        assert!(!o.proves_safety, "{o:?}");
        let (ts, candidates) = late_assume_design(true);
        let o = run(&ts, &candidates);
        assert_eq!((o.survivors.as_slice(), o.rounds), (&[0][..], 1), "{o:?}");
        assert!(!o.proves_safety, "{o:?}");
    }

    /// Bitwise equalities of lockstep counters are all recognised, so the
    /// reduced round decides them alone: every copy's next-state gate
    /// merges with the other's and the round closes without a conflict.
    #[test]
    fn lockstep_bit_equalities_close_in_the_reduced_round() {
        let mut d = Design::new("t");
        let a = d.reg("a", 3, Init::Zero);
        let b = d.reg("b", 3, Init::Zero);
        let an = d.add_const(&a.q(), 1);
        let bn = d.add_const(&b.q(), 1);
        d.set_next(&a, an);
        d.set_next(&b, bn);
        let eq = d.eq(&a.q(), &b.q());
        d.assert_always("equal", eq);
        let candidates = bitwise_equalities(&mut d, &a, &b);
        let ts = TransitionSystem::shared(d.finish(), false);
        let (HoudiniResult::Done(o), stats) =
            houdini_with_stats(&ts, &candidates, Budget::unlimited())
        else {
            panic!("an unlimited Houdini run cannot time out");
        };
        assert_eq!(o.survivors, vec![0, 1, 2]);
        assert_eq!(o.rounds, 1);
        assert!(o.proves_safety);
        assert_eq!(stats.conflicts, 0, "{stats:?}");
    }

    /// A refuting reduced round keeps its drops and hands the rest to the
    /// incremental loop: `b` skips a value on input `x`, so its low bit
    /// and then the carries diverge from `a`'s.
    #[test]
    fn refuting_reduced_round_hands_over_to_the_incremental_loop() {
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
        let candidates = bitwise_equalities(&mut d, &a, &b);
        let ts = TransitionSystem::shared(d.finish(), false);
        let o = run(&ts, &candidates);
        assert!(o.survivors.is_empty(), "{o:?}");
        assert!(o.rounds > 1, "{o:?}");
        assert!(!o.proves_safety);
    }

    /// Fresh latches `a`, `b`, `c` and an input `i` on their own netlist.
    fn latches() -> (Aig, [Bit; 4]) {
        let mut aig = Aig::new();
        let a = aig.latch("a", Init::Zero);
        let b = aig.latch("b", Init::Zero);
        let c = aig.latch("c", Init::Zero);
        let i = aig.input("i");
        (aig, [a, b, c, i])
    }

    #[test]
    fn recogniser_accepts_an_xnor_of_two_latches_in_either_operand_order() {
        let (mut aig, [a, b, ..]) = latches();
        let ab = aig.xnor(a, b);
        let ba = aig.xnor(b, a);
        assert_eq!(equated_latches(&aig, ab), Some((a, b)));
        assert_eq!(equated_latches(&aig, ba), Some((a, b)));
        // The operand gates built in the other order swap their roles.
        let neither = aig.and(a.not(), b.not());
        let both = aig.and(a, b);
        let swapped = aig.and(neither.not(), both.not()).not();
        assert_eq!(equated_latches(&aig, swapped), Some((a, b)));
    }

    #[test]
    fn recogniser_rejects_everything_else() {
        let (mut aig, [a, b, c, i]) = latches();
        let xor = aig.xor(a, b);
        let ac = aig.and(a, c);
        let over_gate = aig.xnor(ac, b);
        let over_input = aig.xnor(a, i);
        let flipped = aig.xnor(a.not(), b);
        for bit in [
            xor,
            a,
            a.not(),
            Bit::TRUE,
            Bit::FALSE,
            over_gate,
            over_input,
            flipped,
        ] {
            assert_eq!(equated_latches(&aig, bit), None, "{bit:?}");
        }
    }

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
