//! Preparation on/off equivalence over the smoke cells.
//!
//! The `csl_hdl::xform` pipeline is behaviour-preserving on the cone of
//! influence, so preparation can never flip a decided verdict: an
//! attack exists on the reduced netlist iff it exists on the raw one,
//! and a proof of the reduced netlist implies the raw one safe. What
//! preparation *can* do is decide cells the raw instance times out on —
//! the SingleCycle shadow cell proves in under a second prepared versus
//! ~2 minutes raw — so the contract checked here is monotone: decided
//! verdicts must agree, upgrades (T/O or UNK → decided) are the
//! feature, and downgrades are failures. Run as its own CI step so a
//! pipeline regression is legible on its own line. Also checks the
//! acceptance criteria end to end: a measurable AND-node reduction on
//! every smoke instance and every Table-2 Shadow/sandboxing instance,
//! and every SAT counterexample expressed in raw-netlist vocabulary
//! (replayable on the unprepared netlist).

use std::time::Duration;

use csl_bench::{smoke_cells, table2_designs};
use csl_contracts::Contract;
use csl_core::api::{Mode, PrepareConfig, Query, Report, Verifier};
use csl_core::{CampaignCell, Scheme};
use csl_mc::{Sim, Verdict};

fn query(cell: &CampaignCell, prepare: PrepareConfig) -> Query {
    Verifier::new()
        .design(cell.design)
        .contract(cell.contract)
        .scheme(cell.scheme)
        .mode(Mode::Portfolio)
        .prepare(prepare)
        .wall(Duration::from_secs(10))
        .bmc_depth(4)
        .query()
        .expect("cell carries design and contract")
}

#[test]
fn prepare_on_never_downgrades_or_flips_a_smoke_verdict() {
    let decided = |cell: &str| cell == "CEX" || cell == "PROOF";
    let mut upgrades = 0usize;
    for cell in smoke_cells() {
        let off = query(&cell, PrepareConfig::off()).run();
        let on_query = query(&cell, PrepareConfig::on());
        let on = on_query.run();
        if decided(off.cell()) {
            // A decided raw verdict must be reproduced exactly — a
            // CEX↔PROOF flip or a decided→undecided downgrade would be
            // a soundness bug in the pipeline.
            assert_eq!(
                off.cell(),
                on.cell(),
                "{}: prepare off {:?} vs on {:?}\non notes: {:?}",
                cell.label(),
                off.verdict,
                on.verdict,
                on.notes
            );
        } else if decided(on.cell()) {
            upgrades += 1;
        }
        assert!(
            off.prepare.is_empty(),
            "prepare-off reports must carry no pass stats"
        );
        assert!(
            !on.prepare.is_empty(),
            "{}: prepare-on reports must record per-pass stats",
            cell.label()
        );
        check_attack_lifts(&on_query, &on);
    }
    // At the 10 s test budget the SingleCycle shadow/baseline proofs are
    // only reachable on the reduced instances — the run must witness the
    // speedup, or preparation quietly stopped reducing anything.
    assert!(
        upgrades > 0,
        "no cell was decided only with preparation on; the reduction lost its teeth"
    );
}

/// A prepared run's attack must be expressed in raw-netlist vocabulary:
/// replaying it on the unprepared netlist satisfies the assumes and
/// hits a bad state.
fn check_attack_lifts(on_query: &Query, on: &Report) {
    if let Verdict::Attack(trace) = &on.verdict {
        let raw = on_query.raw_instance();
        let (assumes_ok, bad) = Sim::new(&raw.aig).replay(trace);
        assert!(
            assumes_ok && bad,
            "{}: lifted cex failed raw replay (assumes_ok={assumes_ok}, bad={bad})",
            on.label()
        );
    }
}

/// The acceptance criterion on instance size: preparation reduces the
/// AND-node count of every smoke instance and every Table-2
/// Shadow/sandboxing instance by a measurable margin, and the report
/// stats prove it.
#[test]
fn preparation_measurably_reduces_smoke_instances() {
    let table2 = table2_designs().into_iter().map(|design| CampaignCell {
        scheme: Scheme::Shadow,
        design,
        contract: Contract::Sandboxing,
    });
    for cell in smoke_cells().into_iter().chain(table2) {
        let q = query(&cell, PrepareConfig::on());
        let raw = q.raw_instance();
        let prepared = q.instance();
        assert!(
            prepared.aig().num_ands() < raw.aig.num_ands(),
            "{}: ands {} -> {} is not a reduction",
            cell.label(),
            raw.aig.num_ands(),
            prepared.aig().num_ands()
        );
        let stats = &prepared.stats;
        assert_eq!(
            stats[0].ands_removed(),
            raw.aig.num_ands() - prepared.aig().num_ands(),
            "pass stats must account for the whole reduction"
        );
        assert_eq!(stats.len(), 1, "preparation records one entry");
    }
}
