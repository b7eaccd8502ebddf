//! Instance preparation soundness (property tests over random AIGs).
//!
//! * **Verdict equivalence**: for every random design, `check_safety`
//!   with preparation on must reach the same verdict kind as with
//!   preparation off — the reduction may only make engines faster,
//!   never change what they conclude.
//! * **Trace back-mapping**: every attack found on the prepared
//!   (reduced) netlist is returned lifted through the
//!   [`csl_hdl::xform::Reconstruction`]; replaying the lifted trace on
//!   the *original* netlist must satisfy every assume and hit a bad
//!   state.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use csl_hdl::{Aig, Design, Init};
use csl_mc::{
    bmc, check_safety, prepare, BmcResult, CheckOptions, PrepareConfig, SafetyCheck, Sim,
    TransitionSystem, Verdict,
};
use csl_sat::Budget;

/// A random small sequential design exercising every pass: input-gated
/// counters (live logic), a latch provably stuck at reset (constant
/// sweep), a free-running counter nothing observes (cone-of-influence /
/// dead-latch), an optional assume, and a bad value that may or may not
/// be reachable.
fn random_design(seed: u64) -> Aig {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut d = Design::new("rand");
    let width = rng.gen_range(3usize..=4);
    let x = d.input_bit("x");
    let y = d.input_bit("y");

    // Live: a advances on x.
    let a = d.reg("a", width, Init::Zero);
    let a_step = rng.gen_range(1u64..=2);
    let a_inc = d.add_const(&a.q(), a_step);
    let a_next = d.mux(x, &a_inc, &a.q());
    d.set_next(&a, a_next);

    // Stuck: holds its reset value forever, but gates some live logic so
    // the constant sweep has something to fold.
    let stuck = d.reg("stuck", 1, Init::Zero);
    d.hold(&stuck);
    let noise = d.and_bit(stuck.q().bit(0), y);

    // Dead: advances every cycle, observed by nothing.
    let dead = d.reg("dead", 5, Init::Zero);
    let dn = d.add_const(&dead.q(), 3);
    d.set_next(&dead, dn);

    if rng.gen_bool(0.5) {
        let imp = d.implies_bit(y, x);
        d.assume(imp);
    }
    let target = rng.gen_range(1u64..(1 << width));
    let hit = d.eq_const(&a.q(), target);
    let bad = d.or_bit(hit, noise);
    d.assert_always("a_hits", bad.not());
    if rng.gen_bool(0.5) {
        let deep = d.eq_const(&a.q(), (1 << width) - 1);
        d.assert_always("a_max", deep.not());
    }
    d.finish()
}

fn opts(prepare: PrepareConfig) -> CheckOptions {
    CheckOptions {
        // Generous engine set so every tiny instance decides (PDR closes
        // whatever k-induction leaves open) and the equivalence check
        // compares decided verdicts, not budget luck.
        bmc_depth: 24,
        kind_max_k: 4,
        pdr_max_frames: 64,
        prepare,
        ..CheckOptions::default()
    }
}

#[test]
fn prepared_verdicts_match_unprepared_across_random_designs() {
    let mut attacks = 0usize;
    let mut proofs = 0usize;
    for seed in 0..24u64 {
        let task = SafetyCheck {
            aig: random_design(seed),
            candidates: vec![],
        };
        let off = check_safety(&task, &opts(PrepareConfig::off()));
        let on = check_safety(&task, &opts(PrepareConfig::on()));
        assert_eq!(
            off.verdict.cell(),
            on.verdict.cell(),
            "seed {seed}: prepare off {:?} vs on {:?}\nnotes: {:?}",
            off.verdict,
            on.verdict,
            on.notes
        );
        assert!(
            !on.prepare.is_empty(),
            "seed {seed}: prepared run must record pass stats"
        );
        assert!(
            off.prepare.is_empty(),
            "seed {seed}: unprepared run must not record pass stats"
        );
        match on.verdict {
            Verdict::Attack(_) => attacks += 1,
            Verdict::Proof(_) => proofs += 1,
            ref other => panic!("seed {seed}: tiny instance failed to decide: {other:?}"),
        }
    }
    // The generator must have exercised both outcomes, or the
    // equivalence check proved nothing.
    assert!(attacks > 0, "no seed produced an attack");
    assert!(proofs > 0, "no seed produced a proof");
}

#[test]
fn lifted_attack_traces_replay_on_the_original_netlist() {
    let mut replayed = 0usize;
    for seed in 0..24u64 {
        let aig = random_design(seed);
        let task = SafetyCheck {
            aig: aig.clone(),
            candidates: vec![],
        };
        // Through check_safety: the report's trace is already lifted.
        let report = check_safety(&task, &opts(PrepareConfig::on()));
        if let Verdict::Attack(trace) = &report.verdict {
            let (assumes_ok, bad) = Sim::new(&aig).replay(trace);
            assert!(
                assumes_ok && bad,
                "seed {seed}: lifted trace must replay to a bad-state hit \
                 on the original netlist (assumes_ok={assumes_ok}, bad={bad})"
            );
            replayed += 1;
        }
    }
    assert!(replayed > 0, "no seed produced an attack to lift");
}

/// The same property at the pipeline level, without `check_safety` in
/// the middle: BMC on the reduced netlist, manual lift, replay on the
/// original.
#[test]
fn manual_lift_through_reconstruction_replays() {
    let mut checked = 0usize;
    for seed in 0..24u64 {
        let aig = random_design(seed);
        let task = SafetyCheck {
            aig: aig.clone(),
            candidates: vec![],
        };
        let prepared = prepare(&task, &PrepareConfig::on(), false);
        assert!(
            prepared.aig().num_latches() < aig.num_latches(),
            "seed {seed}: the dead/stuck latches must be removed"
        );
        let ts = TransitionSystem::shared(prepared.aig().clone(), false);
        if let BmcResult::Cex(trace) = bmc(&ts, 24, Budget::unlimited()) {
            // Sanity: the raw reduced-vocabulary trace replays on the
            // reduced netlist…
            let (ok_r, bad_r) = Sim::new(prepared.aig()).replay(&trace);
            assert!(ok_r && bad_r, "seed {seed}: reduced replay failed");
            // …and the lifted trace replays on the original.
            let lifted = trace.lifted(&prepared.reconstruction);
            let (ok, bad) = Sim::new(&aig).replay(&lifted);
            assert!(
                ok && bad,
                "seed {seed}: lifted replay failed (assumes_ok={ok}, bad={bad})"
            );
            assert_eq!(lifted.bad_name, trace.bad_name);
            checked += 1;
        }
    }
    assert!(checked > 0, "no seed produced a BMC counterexample");
}

/// Candidates ride through preparation as roots: Houdini-backed checks
/// (candidates present) stay verdict-equivalent too.
#[test]
fn prepared_verdicts_match_with_candidates() {
    let mut d = Design::new("lockstep");
    let a = d.reg("a", 3, Init::Zero);
    let b = d.reg("b", 3, Init::Zero);
    let an = d.add_const(&a.q(), 1);
    let bn = d.add_const(&b.q(), 1);
    d.set_next(&a, an);
    d.set_next(&b, bn);
    // A stuck distractor so the sweep fires.
    let stuck = d.reg("stuck", 1, Init::One);
    d.hold(&stuck);
    let eq = d.eq(&a.q(), &b.q());
    d.assert_always("equal", eq);
    let candidates = vec![csl_mc::Candidate {
        name: "a==b".into(),
        bit: eq,
    }];
    let task = SafetyCheck {
        aig: d.finish(),
        candidates,
    };
    let off = check_safety(&task, &opts(PrepareConfig::off()));
    let on = check_safety(&task, &opts(PrepareConfig::on()));
    assert_eq!(off.verdict.cell(), on.verdict.cell());
    assert!(on.verdict.is_proof(), "{:?}", on.verdict);
}
