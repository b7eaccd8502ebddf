//! Invariant soundness: the invariants the proof engines hand on must
//! hold in every reachable state.
//!
//! * **Houdini survivors** strengthen the instance the later stages of a
//!   schedule run on and go into every proof certificate built on it, so
//!   each survivor must hold at every reset-reachable assume-satisfying
//!   frame — its negation at any such frame must be UNSAT.
//! * **PDR's converged invariant** is the certificate of a PDR proof:
//!   every blocked cube must be unreachable, so asserting the cube at any
//!   reset-reachable frame must be UNSAT.
//!
//! Both are checked on a hand-built design whose invariant is known to
//! exist and as a property over random small AIGs (one or two register
//! copies). Every check unrolls with the naive reference encoder in
//! `common`, not the production [`csl_mc::Unroller`] the engines use, so
//! an encoder bug cannot validate its own invariants.

mod common;

use std::sync::Arc;

use common::{random_design, NaiveUnroller};
use csl_hdl::{Design, Init};
use csl_mc::{
    houdini, pdr, Candidate, Cube, HoudiniResult, InitMode, PdrOptions, PdrResult, TransitionSystem,
};
use csl_sat::{Budget, Lit, SolveResult};

/// Reachable frames every invariant is checked at.
const DEPTH: usize = 8;

/// Asserts that `candidate` holds at frames `0..=DEPTH` of every
/// reset-initialised, assume-satisfying run.
fn assert_holds_on_reachable_frames(ts: &Arc<TransitionSystem>, candidate: &Candidate, ctx: &str) {
    let mut u = NaiveUnroller::new(ts, InitMode::Reset);
    u.assert_assumes_through(DEPTH);
    for k in 0..=DEPTH {
        let l = u.lit_of(candidate.bit, k);
        assert_eq!(
            u.solve_with(&[!l]),
            SolveResult::Unsat,
            "{ctx}: survivor `{}` violated at reachable frame {k}",
            candidate.name
        );
    }
}

/// Asserts that no state satisfying `cube` is reachable at frames
/// `0..=DEPTH` of a reset-initialised, assume-satisfying run.
fn assert_cube_unreachable(ts: &Arc<TransitionSystem>, cube: &Cube, ctx: &str) {
    let mut u = NaiveUnroller::new(ts, InitMode::Reset);
    u.assert_assumes_through(DEPTH);
    for k in 0..=DEPTH {
        let lits: Vec<Lit> = cube
            .iter()
            .map(|&(latch, v)| {
                let l = u.lit_of(ts.aig().latches()[latch as usize].output, k);
                if v {
                    l
                } else {
                    !l
                }
            })
            .collect();
        assert_eq!(
            u.solve_with(&lits),
            SolveResult::Unsat,
            "{ctx}: blocked cube {cube:?} reachable at frame {k}"
        );
    }
}

/// Every active latch in both polarities: the constant ones survive
/// Houdini, the rest must be dropped.
fn latch_candidates(ts: &TransitionSystem) -> Vec<Candidate> {
    ts.active_latches()
        .iter()
        .flat_map(|&li| {
            let out = ts.aig().latches()[li as usize].output;
            [
                Candidate {
                    name: format!("l{li}"),
                    bit: out,
                },
                Candidate {
                    name: format!("!l{li}"),
                    bit: out.not(),
                },
            ]
        })
        .collect()
}

/// Lockstep counters with an equality candidate: Houdini keeps it, and it
/// must hold at every reachable frame.
#[test]
fn houdini_survivors_hold_on_all_reachable_frames() {
    let mut d = Design::new("lockstep");
    let a = d.reg("a", 3, Init::Zero);
    let b = d.reg("b", 3, Init::Zero);
    let an = d.add_const(&a.q(), 1);
    let bn = d.add_const(&b.q(), 1);
    d.set_next(&a, an);
    d.set_next(&b, bn);
    let eq = d.eq(&a.q(), &b.q());
    d.assert_always("equal", eq);
    let candidates = vec![Candidate {
        name: "a==b".into(),
        bit: eq,
    }];
    let ts = TransitionSystem::shared(d.finish(), false);
    let HoudiniResult::Done(out) = houdini(&ts, &candidates, Budget::unlimited()) else {
        panic!("an unlimited Houdini run cannot time out");
    };
    assert_eq!(
        out.survivors,
        vec![0],
        "the lockstep candidate must survive"
    );
    for &i in &out.survivors {
        assert_holds_on_reachable_frames(&ts, &candidates[i], "lockstep");
    }

    let mut survivors = 0;
    for (seed, two_copy) in (0..12u64).flat_map(|s| [(s, false), (s, true)]) {
        let aig = random_design(seed, [Init::Zero, Init::One], two_copy);
        let ts = TransitionSystem::shared(aig, false);
        let candidates = latch_candidates(&ts);
        let HoudiniResult::Done(out) = houdini(&ts, &candidates, Budget::unlimited()) else {
            panic!("an unlimited Houdini run cannot time out");
        };
        let ctx = format!("seed {seed} two_copy {two_copy}");
        for &i in &out.survivors {
            assert_holds_on_reachable_frames(&ts, &candidates[i], &ctx);
            survivors += 1;
        }
    }
    assert!(survivors > 0, "no random design kept a latch candidate");
}

/// A counter that saturates at 2 with an unreachable bad at 7 — plain
/// k-induction fails on it, so a PDR proof genuinely needs learned frame
/// clauses — plus the random designs PDR proves: every cube of every
/// converged invariant must be unreachable.
#[test]
fn pdr_invariant_holds_on_reachable_frames() {
    let mut d = Design::new("sat");
    let r = d.reg("r", 3, Init::Zero);
    let at2 = d.eq_const(&r.q(), 2);
    let inc = d.add_const(&r.q(), 1);
    let nxt = d.mux(at2, &r.q(), &inc);
    d.set_next(&r, nxt);
    let bad = d.eq_const(&r.q(), 7);
    d.assert_always("never7", bad.not());
    let ts = TransitionSystem::shared(d.finish(), false);
    let PdrResult::Proof { invariant, .. } = pdr(&ts, PdrOptions::default()) else {
        panic!("the saturating counter is safe");
    };
    assert!(!invariant.is_empty(), "the proof needs frame clauses");
    for cube in &invariant {
        assert_cube_unreachable(&ts, cube, "saturating counter");
    }

    // Set-at-reset registers make several seeds' bads unreachable.
    let mut cubes = 0;
    for (seed, two_copy) in (0..12u64).flat_map(|s| [(s, false), (s, true)]) {
        let aig = random_design(seed, [Init::One; 2], two_copy);
        let ts = TransitionSystem::shared(aig, false);
        if let PdrResult::Proof { invariant, .. } = pdr(&ts, PdrOptions::default()) {
            let ctx = format!("seed {seed} two_copy {two_copy}");
            for cube in &invariant {
                assert_cube_unreachable(&ts, cube, &ctx);
                cubes += 1;
            }
        }
    }
    assert!(cubes > 0, "no random design yielded a PDR invariant");
}
