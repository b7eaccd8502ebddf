//! Aliased certificate checking against the unaliased reference.
//!
//! [`check_certificate`] builds consecution, the inductive safety query
//! and the k-induction step on sessions whose frame 0 aliases the latch
//! pairs the certificate's XNOR unit conjuncts equate, once a SAT guard
//! has confirmed each claimed equality. The reference checker below runs
//! the same obligations on plain sessions: every free frame 0 is
//! unaliased, and every conjunct is only asserted. Over random two-copy
//! designs (every pair of reset kinds, with and without an assume over
//! state) with cross-copy latch-pair candidates, cross-register pairs
//! that chain each bit's four latches into one alias class, pairs over
//! latches outside the property's cone and single-latch candidates, the
//! certificates built from a reference Houdini's survivors — that set,
//! the set plus one dropped candidate, the set minus one survivor, random
//! subsets of the candidates that hold at reset, each alone, with a
//! restored constant and with a flipped one, and with a random blocked
//! cube — must get exactly the reference's answer from both checkers: the same `Ok`/`Err`, the same [`Rejection`] and the
//! same conjunct label, for inductive and k-induction certificates.

#[path = "../../mc/tests/common/mod.rs"]
mod common;

use std::collections::BTreeMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use common::{random_design, reference_houdini, ReferenceHoudini};
use csl_certify::{check_certificate, CertKind, Certificate, Rejection};
use csl_hdl::{Aig, Bit, Init};
use csl_mc::unroll::equated_latches;
use csl_mc::{Candidate, InitMode, SafetyCheck, TransitionSystem, Unroller};
use csl_sat::{Lit, SolveResult};

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

/// Candidates over the two-copy design `aig`, whose gates they add: the
/// cross-copy pairs `a[i] == a2[i]` and `b[i] == b2[i]`, the
/// cross-register pairs `a[i] == b[i]` and `a2[i] == b2[i]`, two pairs
/// over unobserved latches, and both polarities of `a[0]` and `b2[0]`.
fn candidates(aig: &mut Aig) -> Vec<Candidate> {
    let width = (0..)
        .take_while(|i| aig.latches().iter().any(|l| l.name == format!("a[{i}]")))
        .count();
    let mut out = Vec::new();
    let mut pairs = |aig: &mut Aig, x: &str, y: &str| {
        for i in 0..width {
            let (a, b) = (
                latch(aig, &format!("{x}[{i}]")),
                latch(aig, &format!("{y}[{i}]")),
            );
            out.push(pair(aig, a, b, format!("{x}[{i}]=={y}[{i}]")));
        }
    };
    pairs(aig, "a", "a2");
    pairs(aig, "b", "b2");
    pairs(aig, "a", "b");
    pairs(aig, "a2", "b2");
    // Two unobserved latches running the same logic: only the
    // certificate's probe keeps them in the checker's cone.
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
    for name in ["a[0]", "b2[0]"] {
        let bit = latch(aig, name);
        out.push(Candidate {
            name: name.into(),
            bit,
        });
        out.push(Candidate {
            name: format!("!{name}"),
            bit: bit.not(),
        });
    }
    out
}

/// The certificate checker as it ran before aliasing: the same
/// obligations, in the same order, with the same labels, on plain
/// sessions. Indices are assumed in range.
fn reference_check(task: &SafetyCheck, cert: &Certificate) -> Result<(), Rejection> {
    let latches = task.aig.latches();
    let mut conjuncts: Vec<(Vec<(Bit, bool)>, String)> = Vec::new();
    for &(i, v) in &cert.restored {
        conjuncts.push((
            vec![(latches[i as usize].output, v)],
            format!("restored constant (latch {i} = {v})"),
        ));
    }
    for &s in &cert.survivors {
        let c = &task.candidates[s];
        conjuncts.push((vec![(c.bit, true)], format!("survivor '{}'", c.name)));
    }
    if let CertKind::Inductive { blocked } = &cert.kind {
        for (n, cube) in blocked.iter().enumerate() {
            let lits = cube
                .iter()
                .map(|&(l, v)| (latches[l as usize].output, !v))
                .collect();
            conjuncts.push((lits, format!("blocked cube #{n}")));
        }
    }
    let mut aug = task.aig.clone();
    aug.add_probe(
        "certificate",
        conjuncts
            .iter()
            .flat_map(|(lits, _)| lits.iter().map(|&(b, _)| b))
            .collect(),
    );
    let ts = TransitionSystem::shared(aug, true);
    let violated = |u: &mut Unroller, lits: &[(Bit, bool)], t: usize| -> Vec<Lit> {
        lits.iter()
            .map(|&(b, v)| {
                let l = u.lit_of(b, t);
                if v {
                    !l
                } else {
                    l
                }
            })
            .collect()
    };
    let sat = |u: &mut Unroller, asmps: &[Lit]| u.solve_with(asmps) == SolveResult::Sat;
    let free = |ts: &Arc<TransitionSystem>| {
        let mut u = Unroller::new(ts, InitMode::Free);
        for (lits, _) in &conjuncts {
            u.assert_clause_at(lits, 0);
        }
        u
    };
    let invariance = || -> Result<(), Rejection> {
        let mut u = Unroller::new(&ts, InitMode::Reset);
        u.assert_assumes_through(0);
        for (lits, label) in &conjuncts {
            let asmps = violated(&mut u, lits, 0);
            if sat(&mut u, &asmps) {
                return Err(Rejection::InitViolated {
                    conjunct: label.clone(),
                });
            }
        }
        let mut u = free(&ts);
        u.assert_assumes_through(1);
        for (lits, label) in &conjuncts {
            let asmps = violated(&mut u, lits, 1);
            if sat(&mut u, &asmps) {
                return Err(Rejection::NotInductive {
                    conjunct: label.clone(),
                });
            }
        }
        Ok(())
    };
    match cert.kind {
        CertKind::Inductive { .. } => {
            invariance()?;
            let mut u = free(&ts);
            u.assert_assumes_through(0);
            let bad = u.bad_any_at(0);
            if sat(&mut u, &[bad]) {
                return Err(Rejection::NotSafe);
            }
        }
        CertKind::KInduction { k } => {
            if k == 0 {
                return Err(Rejection::ZeroK);
            }
            if !conjuncts.is_empty() {
                invariance()?;
            }
            let mut u = Unroller::new(&ts, InitMode::Reset);
            for t in 0..k {
                u.assert_assumes_through(t);
                let bad = u.bad_any_at(t);
                if sat(&mut u, &[bad]) {
                    return Err(Rejection::BaseFailed { frame: t });
                }
            }
            let mut u = free(&ts);
            u.assert_assumes_through(k);
            for t in 1..=k {
                for (lits, _) in &conjuncts {
                    u.assert_clause_at(lits, t);
                }
            }
            for t in 0..k {
                let bad = u.bad_any_at(t);
                u.solver.add_clause(&[!bad]);
            }
            let bad_k = u.bad_any_at(k);
            if sat(&mut u, &[bad_k]) {
                return Err(Rejection::StepFailed { k });
            }
        }
    }
    Ok(())
}

/// The survivor sets to certify: the reference Houdini's survivors, the
/// set plus one candidate consecution dropped, the set minus one
/// survivor, and two random subsets of the candidates that hold at reset.
fn survivor_sets(rng: &mut StdRng, houdini: &ReferenceHoudini) -> Vec<Vec<usize>> {
    let survivors = &houdini.survivors;
    let mut sets = vec![survivors.clone()];
    let dropped: Vec<usize> = houdini
        .initiated
        .iter()
        .copied()
        .filter(|i| !survivors.contains(i))
        .collect();
    if !dropped.is_empty() {
        let mut plus = survivors.clone();
        plus.push(dropped[rng.gen_range(0..dropped.len())]);
        plus.sort_unstable();
        sets.push(plus);
    }
    if !survivors.is_empty() {
        let mut minus = survivors.clone();
        minus.remove(rng.gen_range(0..minus.len()));
        sets.push(minus);
    }
    for _ in 0..2 {
        let subset = houdini.initiated.iter().copied();
        sets.push(subset.filter(|_| rng.gen_bool(0.5)).collect());
    }
    sets
}

/// The tally name of a check's answer.
fn outcome(answer: &Result<(), Rejection>) -> &'static str {
    match answer {
        Ok(()) => "accepted",
        Err(Rejection::InitViolated { .. }) => "InitViolated",
        Err(Rejection::NotInductive { .. }) => "NotInductive",
        Err(Rejection::NotSafe) => "NotSafe",
        Err(Rejection::BaseFailed { .. }) => "BaseFailed",
        Err(Rejection::StepFailed { .. }) => "StepFailed",
        Err(_) => "other",
    }
}

#[test]
fn aliased_checker_matches_the_unaliased_reference() {
    let mut outcomes: BTreeMap<&str, usize> = BTreeMap::new();
    let mut accepted_with_pairs = 0;
    for seed in 0..SEEDS {
        for inits in INITS.iter().flat_map(|&a| INITS.map(|b| [a, b])) {
            for state_assume in [false, true] {
                let mut aig = random_design(seed, inits, true);
                if state_assume {
                    let (a0, b0) = (latch(&aig, "a[0]"), latch(&aig, "b[0]"));
                    let imp = aig.implies(a0, b0);
                    aig.add_assume(imp);
                }
                let cands = candidates(&mut aig);
                let aliasable: Vec<bool> = cands
                    .iter()
                    .map(|c| equated_latches(&aig, c.bit).is_some())
                    .collect();
                let ts = TransitionSystem::shared(aig.clone(), false);
                let houdini = reference_houdini(&ts, &cands);
                let task = SafetyCheck {
                    aig,
                    candidates: cands,
                };
                let mut rng = StdRng::seed_from_u64(seed * 100 + state_assume as u64);
                // Latches with a concrete reset value, as restored
                // constants: held at that value, and flipped.
                let resets: Vec<(u32, bool)> = task
                    .aig
                    .latches()
                    .iter()
                    .enumerate()
                    .filter_map(|(i, l)| match l.init {
                        Init::Zero => Some((i as u32, false)),
                        Init::One => Some((i as u32, true)),
                        Init::Symbolic => None,
                    })
                    .collect();
                let mut restored_sets = vec![Vec::new()];
                if !resets.is_empty() {
                    let (i, v) = resets[rng.gen_range(0..resets.len())];
                    restored_sets.push(vec![(i, v)]);
                    restored_sets.push(vec![(i, !v)]);
                }
                let cube_latch = rng.gen_range(0..task.aig.num_latches()) as u32;
                let cube = vec![(cube_latch, rng.gen_bool(0.5))];
                for survivors in survivor_sets(&mut rng, &houdini) {
                    for restored in &restored_sets {
                        for kind in [
                            CertKind::Inductive {
                                blocked: Vec::new(),
                            },
                            CertKind::Inductive {
                                blocked: vec![cube.clone()],
                            },
                            CertKind::KInduction { k: 1 },
                            CertKind::KInduction { k: 2 },
                        ] {
                            let cert = Certificate {
                                restored: restored.clone(),
                                survivors: survivors.clone(),
                                kind,
                            };
                            let ctx = format!(
                                "seed {seed} inits {inits:?} assume {state_assume}: {cert:?}"
                            );
                            let got = check_certificate(&task, &cert).map(|_| ());
                            assert_eq!(got, reference_check(&task, &cert), "{ctx}");
                            *outcomes.entry(outcome(&got)).or_default() += 1;
                            if got.is_ok() && survivors.iter().any(|&s| aliasable[s]) {
                                accepted_with_pairs += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    // Every obligation rejected some certificates, and aliased sessions
    // accepted some.
    for outcome in [
        "accepted",
        "InitViolated",
        "NotInductive",
        "NotSafe",
        "BaseFailed",
        "StepFailed",
    ] {
        assert!(
            outcomes.get(outcome).is_some_and(|&n| n > 0),
            "no certificate {outcome}: {outcomes:?}"
        );
    }
    assert!(
        accepted_with_pairs > 0,
        "no accepted certificate named an aliasable pair: {outcomes:?}"
    );
}
