//! **Ablation** — why the two §5.2 requirements matter, and what the
//! scheme's structure buys.
//!
//! 1. *Instruction-inclusion requirement* (§5.2.1): with drain tracking
//!    disabled, the leakage assertion can fire before in-flight
//!    bound-to-commit instructions were contract-checked. Counterexamples
//!    then appear at depths where the sound scheme has none, and extending
//!    their replay shows the program violating the software constraint —
//!    false attacks.
//! 2. *Synchronisation requirement* (§5.2.2): the naive cycle-aligned
//!    record comparison (what LEAVE effectively does) collapses on
//!    out-of-order cores — compare the LEAVE rows of table2 — while the
//!    skid-FIFO + pause machinery keeps the comparison index-aligned; its
//!    overflow assertions stay unreachable with sync on (checked here).
//! 3. Baseline vs shadow head-to-head: same attack found by both (§7.1.2:
//!    "similar performance in finding attacks"), and the two single-cycle
//!    machines the shadow scheme eliminates are visible in the instance
//!    statistics.

use csl_bench::{bmc_depth, budget_secs, header, show, verifier};
use csl_contracts::Contract;
use csl_core::api::Verifier;
use csl_core::{DesignKind, Scheme, ShadowOptions};
use csl_cpu::Defense;
use csl_mc::{bmc, BmcResult, Sim, SimState, Trace, TransitionSystem, Verdict};
use csl_sat::Budget;
use std::time::{Duration, Instant};

fn assume_violated_extended(aig: &csl_hdl::Aig, trace: &Trace, extra: usize) -> bool {
    let mut sim = Sim::new(aig);
    let mut state = SimState::reset(aig);
    for &(i, v) in &trace.initial_latches {
        state.set_latch(i as usize, v);
    }
    let mut violated = false;
    for cycle in 0..trace.depth() + extra {
        let r = sim.step(&state, |i, _| trace.input(cycle, i as u32).unwrap_or(false));
        violated |= !r.violated_assumes.is_empty();
        state = r.next;
    }
    violated
}

fn main() {
    header(
        "ABLATION: the §5.2 requirements and the scheme structure",
        "paper §5.2 / §4.2 / §7.1.2",
    );
    let budget = Budget::until(Instant::now() + Duration::from_secs(budget_secs(240)));

    println!("-- (1) instruction-inclusion requirement (drain tracking) --");
    let base = Verifier::new()
        .design(DesignKind::SimpleOoo(Defense::None))
        .contract(Contract::Sandboxing)
        .scheme(Scheme::Shadow);
    let sound = base
        .clone()
        .query()
        .expect("design and contract are set")
        .instance();
    let ts = TransitionSystem::shared(sound.aig().clone(), false);
    let genuine = match bmc(&ts, bmc_depth(9), budget.clone()) {
        BmcResult::Cex(t) => {
            let clean = !assume_violated_extended(sound.aig(), &t, 16);
            println!(
                "sound scheme: attack at depth {}, constraint-clean in extension: {clean}",
                t.depth()
            );
            Some(t)
        }
        other => {
            println!("sound scheme: {other:?}");
            None
        }
    };
    let broken = base
        .clone()
        .shadow(ShadowOptions {
            enable_drain: false,
            ..ShadowOptions::default()
        })
        .with_candidates(false)
        .query()
        .expect("design and contract are set")
        .instance();
    let ts2 = TransitionSystem::shared(broken.aig().clone(), false);
    let shallow = genuine.as_ref().map(|t| t.depth() - 1).unwrap_or(5);
    match bmc(&ts2, shallow, budget.clone()) {
        BmcResult::Cex(t) => {
            let violated = assume_violated_extended(broken.aig(), &t, 16);
            let verdict = if violated {
                "FALSE ATTACK (the §5.2.1 failure mode)"
            } else if genuine.as_ref().is_some_and(|g| t.depth() >= g.depth()) {
                "coincides with the genuine attack (failure mode not \
                 expressible at MiniISA commit latency)"
            } else {
                "shallower yet constraint-clean — inspect manually"
            };
            println!(
                "no-drain scheme: cex at depth {}, constraint violated in \
                 extension: {violated} => {verdict}",
                t.depth()
            );
        }
        other => println!("no-drain scheme at depth {shallow}: {other:?}"),
    }

    println!();
    println!("-- (2) synchronisation requirement (skid FIFOs + pause) --");
    println!(
        "see table2's LEAVE rows: the naive cycle-aligned comparison proves \
         the in-order core but collapses on every OoO core."
    );
    // Positive guarantee: with sync on, the FIFO overflow assertions are
    // unreachable within the bound even on the timing-divergent DoM core.
    let task = Verifier::new()
        .design(DesignKind::SimpleOoo(Defense::DomSpectre))
        .contract(Contract::Sandboxing)
        .scheme(Scheme::Shadow)
        .query()
        .expect("design and contract are set")
        .instance();
    let ts3 = TransitionSystem::shared(task.aig().clone(), false);
    match bmc(&ts3, bmc_depth(10), budget) {
        BmcResult::Cex(t) => println!(
            "DoM cex at depth {}: bad `{}` (a leak, never an overflow)",
            t.depth(),
            t.bad_name
        ),
        other => println!("DoM: {other:?}"),
    }

    println!();
    println!("-- (3) attack finding: baseline vs shadow on insecure SimpleOoO --");
    for scheme in [Scheme::Baseline, Scheme::Shadow] {
        let report = verifier(&Verifier::new(), budget_secs(120), bmc_depth(10), true)
            .design(DesignKind::SimpleOoo(Defense::None))
            .contract(Contract::Sandboxing)
            .scheme(scheme)
            .query()
            .expect("design and contract are set")
            .run();
        show(&format!("{} attack search", scheme.name()), &report);
        if let Verdict::Attack(t) = &report.verdict {
            println!("    attack depth {}", t.depth());
        }
    }

    println!();
    println!("-- (4) instance sizes (machines eliminated by the shadow scheme) --");
    for scheme in [Scheme::Baseline, Scheme::Shadow] {
        let task = Verifier::new()
            .design(DesignKind::SimpleOoo(Defense::None))
            .contract(Contract::Sandboxing)
            .scheme(scheme)
            .query()
            .expect("design and contract are set")
            .instance();
        println!(
            "{:<10} latches={:<5} ands={:<6} machines={}",
            scheme.name(),
            task.aig().num_latches(),
            task.aig().num_ands(),
            if scheme == Scheme::Baseline { 4 } else { 2 },
        );
    }
}
