//! Portfolio-vs-sequential agreement on real verification instances, and
//! the campaign runner's wall-clock sanity.
//!
//! The single-cycle design is the smallest instance in the matrix and its
//! verdict landscape is stable across budgets. At this file's settings
//! (BMC depth 4, 10 s budget, release build):
//! * LEAVE proves by Houdini in a few milliseconds;
//! * UPEC is UNKNOWN (`InductionGap { max_k: 1 }`) in under 0.1 s;
//! * Shadow proves by 1-induction in under 0.1 s in either mode, with all
//!   19 relational candidates surviving Houdini;
//! * only Baseline exhausts the budget.
//!
//! That stability is what makes the cross-mode agreement checks below
//! deterministic: each cell is either decided far inside the budget or,
//! for Baseline, decisively out of reach, never near the budget boundary.

use std::time::{Duration, Instant};

use csl_contracts::Contract;
use csl_core::api::{Lane, Mode, Report, Verifier};
use csl_core::{DesignKind, Scheme};
use csl_cpu::Defense;
use csl_mc::{InconclusiveReason, ProofEngine, Verdict};

fn single_cycle(scheme: Scheme, mode: Mode) -> Report {
    Verifier::new()
        .design(DesignKind::SingleCycle)
        .contract(Contract::Sandboxing)
        .scheme(scheme)
        .mode(mode)
        .wall(Duration::from_secs(10))
        .bmc_depth(4)
        .query()
        .expect("design and contract are set")
        .run()
}

/// Every scheme on the single-cycle design: the portfolio must return the
/// same verdict kind as the sequential pipeline.
#[test]
fn portfolio_matches_sequential_on_single_cycle_for_all_schemes() {
    for scheme in Scheme::ALL {
        let seq = single_cycle(scheme, Mode::Sequential);
        let par = single_cycle(scheme, Mode::Portfolio);
        assert_eq!(
            seq.cell(),
            par.cell(),
            "{}: sequential {:?} vs portfolio {:?}\nseq notes: {:?}\npar notes: {:?}",
            scheme.name(),
            seq.verdict,
            par.verdict,
            seq.notes,
            par.notes
        );
    }
}

/// LEAVE on the speculation-free design is the decisive-proof anchor: its
/// Houdini candidates are all inductive and imply safety, so both modes
/// must return PROOF well inside the budget (not merely agree).
#[test]
fn single_cycle_leave_instance_is_proved_in_both_modes() {
    for mode in [Mode::Sequential, Mode::Portfolio] {
        let report = single_cycle(Scheme::Leave, mode);
        assert!(
            report.verdict.is_proof(),
            "{mode:?}: {:?} {:?}",
            report.verdict,
            report.notes
        );
    }
}

/// LEAVE's relational candidates equate latch pairs, so Houdini's first
/// consecution round aliases each pair and decides by structure: on
/// SingleCycle and InOrder the lane proves with all 19 and 34 candidates
/// in under 1,000 conflicts (5,837 and 2,718 when CDCL had to rediscover
/// the copies' equality gate by gate). LEAVE's schedule has one lane, so
/// the counts repeat exactly.
#[test]
fn leave_houdini_proves_in_few_conflicts() {
    for (design, invariants) in [(DesignKind::SingleCycle, 19), (DesignKind::InOrder, 34)] {
        let report = Verifier::new()
            .design(design)
            .contract(Contract::Sandboxing)
            .scheme(Scheme::Leave)
            .wall(Duration::from_secs(30))
            .query()
            .expect("design and contract are set")
            .run();
        assert_eq!(
            report.verdict,
            Verdict::Proof(ProofEngine::Houdini { invariants }),
            "{design:?}: {:?}",
            report.notes
        );
        let [lane] = report.solver.as_slice() else {
            panic!("{design:?}: one Houdini lane expected: {:?}", report.solver);
        };
        assert_eq!(lane.lane, Lane::Houdini, "{design:?}");
        assert!(
            lane.conflicts < 1_000,
            "{design:?}: {} conflicts",
            lane.conflicts
        );
    }
}

/// The campaign runner completes the smoke matrix no slower than running
/// the same cells in a plain sequential loop (modulo scheduling slack).
#[test]
fn campaign_wall_clock_no_worse_than_sequential_loop() {
    let matrix = Verifier::new()
        .mode(Mode::Portfolio)
        .wall(Duration::from_secs(10))
        .bmc_depth(4)
        .into_matrix(
            &Scheme::ALL,
            &[DesignKind::SingleCycle],
            &[Contract::Sandboxing],
        );

    let seq_start = Instant::now();
    let mut seq_verdicts = Vec::new();
    for cell in matrix.cells() {
        seq_verdicts.push(single_cycle(cell.scheme, Mode::Portfolio).cell());
    }
    let seq_wall = seq_start.elapsed();

    let report = matrix.run_all();
    let par_verdicts: Vec<&str> = report.reports.iter().map(|r| r.cell()).collect();
    assert_eq!(seq_verdicts, par_verdicts);
    // "No worse" with slack for scheduler overhead and noisy-neighbour CI:
    // the pool must never be meaningfully slower than the loop.
    let limit = seq_wall.mul_f64(1.25) + Duration::from_secs(2);
    assert!(
        report.wall <= limit,
        "campaign wall {:?} exceeds sequential loop {:?} (limit {:?})",
        report.wall,
        seq_wall,
        limit
    );
}

/// LEAVE and UPEC ignore the execution mode, so each reports the same
/// typed Unknown reason in both: LEAVE's ten SimpleOoO survivors do not
/// exclude the bad states, and UPEC's 1-cycle induction does not close
/// on the single-cycle design.
#[test]
fn leave_and_upec_report_typed_unknown_reasons_in_both_modes() {
    let cells = [
        (
            Scheme::Leave,
            DesignKind::SimpleOoo(Defense::None),
            InconclusiveReason::InvariantsInsufficient { survivors: 10 },
        ),
        (
            Scheme::Upec,
            DesignKind::SingleCycle,
            InconclusiveReason::InductionGap { max_k: 1 },
        ),
    ];
    for (scheme, design, reason) in cells {
        for mode in [Mode::Sequential, Mode::Portfolio] {
            let report = Verifier::new()
                .design(design)
                .contract(Contract::Sandboxing)
                .scheme(scheme)
                .mode(mode)
                .wall(Duration::from_secs(120))
                .bmc_depth(2)
                .query()
                .expect("design and contract are set")
                .run();
            assert_eq!(
                report.verdict,
                Verdict::Unknown {
                    reason: reason.clone()
                },
                "{}/{mode:?}: {:?}",
                scheme.name(),
                report.notes
            );
        }
    }
}

/// UPEC runs the same BMC and k-induction lanes as the other schemes, so
/// its reports carry their solver counters; LEAVE's Houdini filter
/// reports its own, in both modes.
#[test]
fn upec_reports_carry_bmc_and_kind_solver_counters() {
    let report = single_cycle(Scheme::Upec, Mode::Sequential);
    let lanes: Vec<Lane> = report.solver.iter().map(|s| s.lane).collect();
    assert_eq!(lanes, [Lane::Bmc, Lane::KInduction], "{:?}", report.notes);
    assert!(report.solver.iter().all(|s| s.propagations > 0));

    for mode in [Mode::Sequential, Mode::Portfolio] {
        let report = single_cycle(Scheme::Leave, mode);
        let lanes: Vec<Lane> = report.solver.iter().map(|s| s.lane).collect();
        assert_eq!(lanes, [Lane::Houdini], "{mode:?}: {:?}", report.notes);
        assert!(report.solver[0].propagations > 0, "{mode:?}");
    }
}
