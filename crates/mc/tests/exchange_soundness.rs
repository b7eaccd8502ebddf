//! Exchange-bus soundness: everything a lane publishes must be implied
//! by the shared instance.
//!
//! * **Clauses** (property test over random small AIGs, with one or two
//!   register copies): every clause the BMC lane exports is checked
//!   against a *fresh* reset-initialised unrolling of the same netlist —
//!   asserting the clause's negation on top of `Init ∧ T ∧ assumes(0..h)`
//!   must be UNSAT. An exported clause that fails this check would let an
//!   importer prune real behaviour. The two-copy designs make the lane's
//!   encoder share variables between the copies, so exports over shared
//!   variables are checked too.
//! * **Lemmas**: every survivor Houdini streams must hold at every frame
//!   of every reachable assume-satisfying run — its negation at any
//!   reset-reachable frame must be UNSAT.
//!
//! Every check unrolls with the naive reference encoder in `common`, not
//! the production [`csl_mc::Unroller`] the lanes use, so an encoder bug
//! cannot validate its own exports.

mod common;

use common::{random_design, NaiveUnroller};
use csl_hdl::{Design, Init};
use csl_mc::exchange::{Exchange, ExchangeConfig, ExchangeItem, SharedClause, SharedContext};
use csl_mc::{
    bmc_with, houdini_with, pdr_with, Candidate, InitMode, Lane, PdrOptions, PdrResult,
    SharedInvariant, SharedLemma, TransitionSystem,
};
use csl_sat::{Budget, Lit, SolveResult};

/// Drains every clause currently on `bus` (as seen by a fresh consumer
/// on a different lane).
fn drain_clauses(bus: &std::sync::Arc<Exchange>) -> Vec<SharedClause> {
    let mut consumer = SharedContext::attached(bus.clone(), Lane::Pdr, true, false);
    let mut clauses = Vec::new();
    loop {
        let batch = consumer.poll();
        if batch.is_empty() {
            break;
        }
        for item in batch {
            if let ExchangeItem::Clause(c) = &*item {
                clauses.push(c.clone());
            }
        }
    }
    clauses
}

/// Checks one exported clause against a fresh reset-init unrolling:
/// `Init ∧ T ∧ assumes(0..assume_frames-1) ∧ ¬clause` must be UNSAT.
fn assert_clause_implied(
    ts: &std::sync::Arc<TransitionSystem>,
    clause: &SharedClause,
    design: &str,
) {
    let mut u = NaiveUnroller::new(ts, InitMode::Reset);
    if clause.assume_frames > 0 {
        u.assert_assumes_through(clause.assume_frames - 1);
    }
    u.ensure_frames(clause.max_frame);
    let negated: Vec<Lit> = clause
        .lits
        .iter()
        .map(|tl| !u.lit_of(tl.bit, tl.frame))
        .collect();
    assert_eq!(
        u.solve_with(&negated),
        SolveResult::Unsat,
        "{design}: exported clause {clause:?} is not implied by the source instance"
    );
}

#[test]
fn exported_bmc_clauses_are_implied_by_the_source_instance() {
    let mut checked = [0usize; 2];
    for (seed, two_copy) in (0..12u64).flat_map(|s| [(s, false), (s, true)]) {
        let aig = random_design(seed, [Init::Zero; 2], two_copy);
        let ts = TransitionSystem::shared(aig, false);
        let bus = Exchange::new(ExchangeConfig {
            enabled: true,
            // Generous filters so the probe sees plenty of exports.
            max_clause_len: 12,
            max_clause_lbd: 20,
            max_imports_per_poll: 256,
            capacity: 1 << 16,
            adaptive: false,
        });
        let mut ctx = SharedContext::attached(bus.clone(), Lane::Bmc, true, true);
        let _ = bmc_with(&ts, 10, Budget::unlimited(), &mut ctx);
        // Bound the per-seed verification work; implication checks are
        // individually cheap but the export stream can be long.
        let design = format!("seed {seed} two_copy {two_copy}");
        for clause in drain_clauses(&bus).into_iter().take(64) {
            assert_clause_implied(&ts, &clause, &design);
            checked[two_copy as usize] += 1;
        }
    }
    assert!(
        checked.iter().all(|&n| n > 0),
        "clauses checked (one copy, two copies): {checked:?} — a design family never exported"
    );
}

/// Lockstep counters with an equality candidate: the survivor Houdini
/// streams must hold at every reachable frame.
#[test]
fn streamed_houdini_lemmas_hold_on_all_reachable_frames() {
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

    let mut streamed: Vec<SharedLemma> = Vec::new();
    let mut stream = |_: usize, c: &Candidate| {
        streamed.push(SharedLemma {
            name: c.name.clone(),
            bit: c.bit,
            source: Lane::Houdini,
        });
    };
    let _ = houdini_with(&ts, &candidates, Budget::unlimited(), Some(&mut stream));
    assert_eq!(streamed.len(), 1, "the lockstep candidate must survive");

    let depth = 8;
    for lemma in &streamed {
        let mut u = NaiveUnroller::new(&ts, InitMode::Reset);
        u.assert_assumes_through(depth);
        for k in 0..=depth {
            let l = u.lit_of(lemma.bit, k);
            assert_eq!(
                u.solve_with(&[!l]),
                SolveResult::Unsat,
                "lemma `{}` violated at reachable frame {k}",
                lemma.name
            );
        }
    }
}

/// The shared PDR fixture: a counter that saturates at 2 with an
/// unreachable bad at 7 — plain k-induction fails on it, so a PDR proof
/// genuinely needs learned frame clauses.
fn saturating_counter_ts() -> std::sync::Arc<TransitionSystem> {
    let mut d = Design::new("sat");
    let r = d.reg("r", 3, Init::Zero);
    let at2 = d.eq_const(&r.q(), 2);
    let inc = d.add_const(&r.q(), 1);
    let nxt = d.mux(at2, &r.q(), &inc);
    d.set_next(&r, nxt);
    let bad = d.eq_const(&r.q(), 7);
    d.assert_always("never7", bad.not());
    TransitionSystem::shared(d.finish(), false)
}

/// A saturating counter whose proof needs PDR strengthening: at
/// convergence PDR must export its final inductive invariant onto the
/// bus, and every exported clause must hold at every reachable
/// assume-satisfying frame (its negation at any reset-reachable frame is
/// UNSAT).
#[test]
fn pdr_exports_its_final_invariant_and_it_holds_on_reachable_frames() {
    let ts = saturating_counter_ts();

    let bus = Exchange::new(ExchangeConfig::on());
    let mut ctx = SharedContext::attached(bus.clone(), Lane::Pdr, true, true);
    match pdr_with(&ts, PdrOptions::default(), &mut ctx) {
        PdrResult::Proof { .. } => {}
        other => panic!("expected proof, got {other:?}"),
    }
    assert!(ctx.exports() > 0, "convergence must publish the invariant");

    let mut consumer = SharedContext::attached(bus, Lane::Bmc, true, false);
    let mut invariants: Vec<SharedInvariant> = Vec::new();
    loop {
        let batch = consumer.poll();
        if batch.is_empty() {
            break;
        }
        for item in batch {
            if let ExchangeItem::Invariant(inv) = &*item {
                invariants.push(inv.clone());
            }
        }
    }
    assert!(!invariants.is_empty(), "no invariant clauses on the bus");

    let depth = 10;
    for inv in &invariants {
        let mut u = NaiveUnroller::new(&ts, InitMode::Reset);
        u.assert_assumes_through(depth);
        for k in 0..=depth {
            // ¬clause: every literal forced to its complementary value.
            let negated: Vec<Lit> = inv
                .lits
                .iter()
                .map(|&(b, v)| {
                    let l = u.lit_of(b, k);
                    if v {
                        !l
                    } else {
                        l
                    }
                })
                .collect();
            assert_eq!(
                u.solve_with(&negated),
                SolveResult::Unsat,
                "invariant clause `{}` violated at reachable frame {k}",
                inv.name
            );
        }
    }
}

/// Importing PDR's invariant clauses must not change a BMC verdict (the
/// clauses only exclude unreachable states) — and the importer's traffic
/// counter must see them.
#[test]
fn bmc_imports_pdr_invariants_without_verdict_change() {
    let ts = saturating_counter_ts();

    let bus = Exchange::new(ExchangeConfig::on());
    let mut pdr_ctx = SharedContext::attached(bus.clone(), Lane::Pdr, false, true);
    match pdr_with(&ts, PdrOptions::default(), &mut pdr_ctx) {
        PdrResult::Proof { .. } => {}
        other => panic!("expected proof, got {other:?}"),
    }
    let mut bmc_ctx = SharedContext::attached(bus, Lane::Bmc, true, false);
    let result = bmc_with(&ts, 10, Budget::unlimited(), &mut bmc_ctx);
    assert!(
        matches!(result, csl_mc::BmcResult::Clean { depth_checked: 10 }),
        "{result:?}"
    );
    assert!(
        bmc_ctx.imports() > 0,
        "bmc must count the imported invariant clauses"
    );
}
