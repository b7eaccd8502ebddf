//! Houdini on real instances: the prepared LEAVE and Shadow instances of
//! SingleCycle, InOrder and SimpleOoO-S under sandboxing.
//!
//! The filter drops candidates by simulation before SAT does: a walk
//! forward from each counterexample to induction and from its
//! neighbours, the same state with whole alias classes flipped. The
//! walks drop only candidates outside the unique greatest inductive
//! subset, so the survivors below — the ones the SAT-only filter kept —
//! and whether they prove safety must not move. LEAVE/SimpleOoO-S's round
//! count is bounded too: 7 with the neighbourhood walks, 27 when every
//! lane walked from the counterexample alone, 41 when the neighbours flip
//! single latches instead of whole classes and 190 without simulation. A
//! walk that silently stops dropping, or stops using its neighbours, fails
//! here.

use csl_contracts::Contract;
use csl_core::api::Verifier;
use csl_core::{DesignKind, Scheme};
use csl_cpu::Defense;
use csl_mc::{houdini, HoudiniResult, TransitionSystem};
use csl_sat::Budget;

/// The survivors on SimpleOoO-S, the same under LEAVE and Shadow.
const SIMPLE_OOO_S_SURVIVORS: [usize; 10] = [70, 71, 108, 109, 146, 147, 184, 185, 202, 203];

/// At most this many consecution rounds on LEAVE/SimpleOoO-S.
const SIMPLE_OOO_S_MAX_ROUNDS: usize = 15;

#[test]
fn houdini_keeps_the_pinned_survivors_on_real_instances() {
    let simple_s = DesignKind::SimpleOoo(Defense::DelaySpectre);
    let all = |n: usize| (0..n).collect::<Vec<usize>>();
    let cells = [
        (Scheme::Leave, DesignKind::SingleCycle, all(19), true),
        (Scheme::Leave, DesignKind::InOrder, all(34), true),
        (
            Scheme::Leave,
            simple_s,
            SIMPLE_OOO_S_SURVIVORS.to_vec(),
            false,
        ),
        (Scheme::Shadow, DesignKind::SingleCycle, all(19), false),
        (Scheme::Shadow, DesignKind::InOrder, Vec::new(), false),
        (
            Scheme::Shadow,
            simple_s,
            SIMPLE_OOO_S_SURVIVORS.to_vec(),
            false,
        ),
    ];
    for (scheme, design, survivors, proves_safety) in cells {
        let ctx = format!("{}/{}", scheme.name(), design.name());
        let query = Verifier::new()
            .design(design)
            .contract(Contract::Sandboxing)
            .scheme(scheme)
            .query()
            .expect("design and contract are set");
        let prepared = query.instance();
        let ts = TransitionSystem::shared(prepared.task.aig.clone(), query.options().keep_probes);
        let HoudiniResult::Done(out) = houdini(&ts, &prepared.task.candidates, Budget::unlimited())
        else {
            panic!("{ctx}: an unlimited Houdini run cannot time out");
        };
        assert_eq!(out.survivors, survivors, "{ctx}: {out:?}");
        assert_eq!(out.proves_safety, proves_safety, "{ctx}: {out:?}");
        if (scheme, design) == (Scheme::Leave, simple_s) {
            assert!(
                out.rounds <= SIMPLE_OOO_S_MAX_ROUNDS,
                "{ctx}: {} rounds: {out:?}",
                out.rounds
            );
        }
    }
}
