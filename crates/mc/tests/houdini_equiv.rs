//! Houdini equivalence: the production filter ([`csl_mc::houdini`]) runs
//! each consecution round on a speculatively reduced instance whose frame
//! 0 aliases the latch pairs its live candidates equate, drops candidates
//! by simulation between rounds (walks from each counterexample to
//! induction and from its neighbours with whole alias classes flipped),
//! and checks safety on an aliased frame-0 instance. The reference
//! Houdini in `common` builds a fresh naive instance every round, assumes
//! every candidate as a literal and simulates nothing. Over random
//! two-copy designs (every pair of reset kinds, with and without an extra
//! assume over state) and two candidate families — cross-copy latch-pair
//! XNORs alone, and those plus cross-register pairs, pairs over latches
//! outside the cone of influence and single-latch candidates — both must
//! keep exactly the same survivors and agree on `proves_safety`, on
//! designs where the first reduced round closes and on designs where it
//! refutes, and the walks must drop candidates somewhere in the corpus.

mod common;

use common::{random_design, reference_houdini};
use csl_hdl::{Aig, Bit, Init};
use csl_mc::{houdini, Candidate, HoudiniResult, TransitionSystem};
use csl_sat::Budget;

const SEEDS: u64 = 12;
const INITS: [Init; 3] = [Init::Zero, Init::One, Init::Symbolic];

/// The output of the latch named `name`.
fn latch(aig: &Aig, name: &str) -> Bit {
    aig.latches()
        .iter()
        .find(|l| l.name == name)
        .unwrap_or_else(|| panic!("no latch {name}"))
        .output
}

/// A candidate equating two latch outputs, LEAVE's shape.
fn pair(aig: &mut Aig, a: Bit, b: Bit, name: String) -> Candidate {
    Candidate {
        name,
        bit: aig.xnor(a, b),
    }
}

/// Candidates over the two-copy design `aig`, whose gates they add, and
/// how many latch-pair candidates lead them: the cross-copy pairs
/// `a[i] == a2[i]` and `b[i] == b2[i]`; with `mixed`, also the
/// cross-register pairs `a[i] == b[i]` and `a2[i] == b2[i]` (which chain
/// every bit's four latches into one alias class) and pairs over latches
/// outside the cone of influence, followed by both polarities of every
/// latch.
fn candidates(aig: &mut Aig, mixed: bool) -> (Vec<Candidate>, usize) {
    let width = (0..)
        .take_while(|i| aig.latches().iter().any(|l| l.name == format!("a[{i}]")))
        .count();
    let mut out = Vec::new();
    for i in 0..width {
        for r in ["a", "b"] {
            let (x, y) = (
                latch(aig, &format!("{r}[{i}]")),
                latch(aig, &format!("{r}2[{i}]")),
            );
            out.push(pair(aig, x, y, format!("{r}[{i}]=={r}2[{i}]")));
        }
    }
    if !mixed {
        let pairs = out.len();
        return (out, pairs);
    }
    for i in 0..width {
        for s in ["", "2"] {
            let (x, y) = (
                latch(aig, &format!("a{s}[{i}]")),
                latch(aig, &format!("b{s}[{i}]")),
            );
            out.push(pair(aig, x, y, format!("a{s}[{i}]==b{s}[{i}]")));
        }
    }
    // Two unobserved latches running the same logic: outside the cone,
    // their next state is not encoded, so the pairs over them must drop.
    let ghosts: Vec<Bit> = (0..2)
        .map(|k| aig.latch(format!("ghost{k}"), Init::Zero))
        .collect();
    let x = aig.inputs()[0].output;
    for &g in &ghosts {
        let next = aig.xor(g, x);
        aig.set_next(g, next);
    }
    out.push(pair(aig, ghosts[0], ghosts[1], "ghost0==ghost1".into()));
    let a0 = latch(aig, "a[0]");
    out.push(pair(aig, ghosts[0], a0, "ghost0==a[0]".into()));
    let pairs = out.len();
    let outputs: Vec<(String, Bit)> = aig
        .latches()
        .iter()
        .map(|l| (l.name.clone(), l.output))
        .collect();
    for (name, bit) in outputs {
        out.push(Candidate {
            name: name.clone(),
            bit,
        });
        out.push(Candidate {
            name: format!("!{name}"),
            bit: bit.not(),
        });
    }
    (out, pairs)
}

#[test]
fn houdini_matches_the_reference_houdini() {
    let (mut closed, mut refuted) = (0, 0);
    let mut by_walks = 0;
    for seed in 0..SEEDS {
        for inits in INITS.iter().flat_map(|&a| INITS.map(|b| [a, b])) {
            for (mixed, state_assume) in [(false, false), (true, false), (true, true)] {
                let mut aig = random_design(seed, inits, true);
                if state_assume {
                    let (a0, b0) = (latch(&aig, "a[0]"), latch(&aig, "b[0]"));
                    let imp = aig.implies(a0, b0);
                    aig.add_assume(imp);
                }
                let (cands, pairs) = candidates(&mut aig, mixed);
                let ts = TransitionSystem::shared(aig, false);
                let ctx =
                    format!("seed {seed} inits {inits:?} mixed {mixed} assume {state_assume}");
                let HoudiniResult::Done(out) = houdini(&ts, &cands, Budget::unlimited()) else {
                    panic!("{ctx}: an unlimited Houdini run cannot time out");
                };
                let reference = reference_houdini(&ts, &cands);
                assert_eq!(out.survivors, reference.survivors, "{ctx}");
                assert_eq!(out.proves_safety, reference.proves_safety, "{ctx}");
                assert_eq!(
                    out.dropped_at_init,
                    cands.len() - reference.initiated.len(),
                    "{ctx}"
                );
                by_walks += out.dropped_by_walks;
                // The first round was reduced exactly when a pair held at
                // reset.
                if reference.initiated.iter().any(|&i| i < pairs) {
                    if out.rounds == 1 {
                        closed += 1;
                    } else {
                        refuted += 1;
                    }
                }
            }
        }
    }
    assert!(closed > 0, "no reduced round closed");
    assert!(refuted > 0, "no reduced round refuted");
    // The walks dropped candidates, and the survivors above still matched
    // the reference's.
    assert!(by_walks > 0, "no walk dropped anything");
}
