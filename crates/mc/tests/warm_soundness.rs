//! Incremental-session soundness: a BMC session driven through a depth
//! schedule, as the BMC lane drives it, must be indistinguishable —
//! verdict for verdict — from solving each depth fresh.
//!
//! Property test over random small AIGs (the `invariant_soundness`
//! generator family): one [`BmcSession`] driven through an escalating
//! depth schedule must report, at every step, exactly what a fresh
//! solver reports for that depth — same clean bound, same
//! counterexample depth — and every counterexample must replay on the
//! concrete simulator.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use csl_hdl::{Aig, Design, Init};
use csl_mc::{bmc, BmcResult, BmcSession, Lane, SharedContext, Sim, TransitionSystem};
use csl_sat::Budget;

/// Same structure as the invariant-soundness generator: input-gated
/// counters, a cross-register comparison, an optional assume, and a bad
/// value that is unreachable, late-reachable, or immediate depending on
/// the seed — so the corpus mixes Cex and Clean outcomes.
fn random_design(seed: u64) -> Aig {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut d = Design::new("rand");
    let width = rng.gen_range(3usize..=4);
    let x = d.input_bit("x");
    let y = d.input_bit("y");

    let a = d.reg("a", width, Init::Zero);
    let b = d.reg("b", width, Init::Zero);
    let a_step = rng.gen_range(1u64..=2);
    let a_inc = d.add_const(&a.q(), a_step);
    let a_next = d.mux(x, &a_inc, &a.q());
    d.set_next(&a, a_next);
    let limit = rng.gen_range(2u64..(1 << width) - 1);
    let at_limit = d.eq_const(&b.q(), limit);
    let b_inc = d.add_const(&b.q(), 1);
    let b_next = d.mux(at_limit, &b.q(), &b_inc);
    d.set_next(&b, b_next);

    if rng.gen_bool(0.5) {
        let imp = d.implies_bit(y, x);
        d.assume(imp);
    }
    let target = rng.gen_range(1u64..(1 << width));
    let hit = d.eq_const(&a.q(), target);
    d.assert_always("a_hits", hit.not());
    if rng.gen_bool(0.5) {
        let eq = d.eq(&a.q(), &b.q());
        let marker = d.eq_const(&b.q(), limit);
        let both = d.and_bit(eq, marker);
        d.assert_always("agree_at_limit", both.not());
    }
    d.finish()
}

/// Two BMC results agree iff they classify the depth window identically;
/// counterexamples additionally must land at the same (shallowest)
/// depth and replay concretely.
fn assert_bmc_equiv(session: &BmcResult, fresh: &BmcResult, ts: &TransitionSystem, ctxt: String) {
    match (session, fresh) {
        (BmcResult::Cex(s), BmcResult::Cex(f)) => {
            assert_eq!(s.depth(), f.depth(), "{ctxt}: cex depths differ");
            for (label, t) in [("session", s), ("fresh", f)] {
                let (assumes_ok, bad) = Sim::new(ts.aig()).replay(t);
                assert!(assumes_ok && bad, "{ctxt}: {label} cex fails replay");
            }
        }
        (BmcResult::Clean { depth_checked: s }, BmcResult::Clean { depth_checked: f }) => {
            assert_eq!(s, f, "{ctxt}: clean bounds differ")
        }
        (s, f) => panic!("{ctxt}: verdicts diverge: session {s:?} vs fresh {f:?}"),
    }
}

#[test]
fn progressive_bmc_session_matches_fresh_solver_at_every_depth() {
    for seed in 0..16u64 {
        let ts = TransitionSystem::shared(random_design(seed), false);
        let mut session = BmcSession::new(&ts);
        for depth in [3usize, 6, 9, 14] {
            let stepped = session.run_to(
                depth,
                Budget::unlimited(),
                &mut SharedContext::disabled(Lane::Bmc),
            );
            let fresh = bmc(&ts, depth, Budget::unlimited());
            assert_bmc_equiv(&stepped, &fresh, &ts, format!("seed {seed} depth {depth}"));
            // A counterexample ends the lane; deeper re-queries of the
            // same session are not part of the contract.
            if matches!(stepped, BmcResult::Cex(_)) {
                break;
            }
        }
    }
}
