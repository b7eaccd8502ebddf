//! What preparation removes from the 24 scheme × design sandboxing
//! instances.
//!
//! `csl_hdl::xform::reduce` rebuilds each instance once. Per cell this
//! pins the raw AND count and, after preparation, the ANDs, latches and
//! inputs left and how many stuck-at-reset constants a certificate must
//! restore. A change to the reduction that shrinks an instance further
//! re-pins the cell and says so; one that leaves more behind, or
//! restores a different number of constants, fails here.
//!
//! The last column pins the solver variables BMC's encoding of the
//! prepared instance takes: a reset unrolling to depth 6 with the assumes
//! and the bad asserted at every depth, as perfbench's encode probe
//! builds it. Hash-consing makes the set of distinct gates a function of
//! the cone the queries read, so the variable count does not depend on
//! encoding order; clause counts do (a top-level unit drops clauses), so
//! they are not pinned. Before frames were encoded on demand, every new
//! frame encoded the next state of every cone-of-influence latch, and the
//! counts were, in the cell order below:
//!
//! | scheme | SingleCycle | InOrder | SimpleOoO | SimpleOoO-S | SuperOoO | BigOoO |
//! |---|---|---|---|---|---|---|
//! | Baseline | 5,023 | 7,990 | 12,153 | 12,232 | 36,345 | 14,479 |
//! | LEAVE | 5,023 | 3,997 | 7,501 | 7,580 | 31,813 | 9,699 |
//! | UPEC | 5,013 | 5,210 | 7,564 | 7,619 | 32,407 | 10,062 |
//! | Shadow | 5,013 | 5,210 | 7,564 | 7,619 | 32,407 | 9,458 |
//!
//! The nine `attack` cells (Baseline, UPEC and Shadow on SimpleOoO,
//! SuperOoO and BigOoO) summed to 162,439; they now sum to 86,613.

use std::sync::Arc;

use csl_contracts::Contract;
use csl_core::api::Verifier;
use csl_core::{DesignKind, Scheme};
use csl_cpu::Defense;
use csl_mc::{InitMode, TransitionSystem, Unroller};

/// The depth the Table-2 bins and the benchmark unroll BMC to.
const BMC_DEPTH: usize = 6;

/// Solver variables of a reset unrolling of `ts` to [`BMC_DEPTH`] with
/// the assumes and the bad asserted at every depth, as BMC builds it.
fn encoded_vars(ts: &Arc<TransitionSystem>) -> usize {
    let mut u = Unroller::new(ts, InitMode::Reset);
    for d in 0..=BMC_DEPTH {
        u.assert_assumes_through(d);
        u.bad_any_at(d);
    }
    u.solver.num_vars()
}

#[test]
fn preparation_removes_the_pinned_logic_on_every_cell() {
    use DesignKind::{BigOoo, InOrder, SingleCycle, SuperOoo};
    use Scheme::{Baseline, Leave, Shadow, Upec};
    let simple = DesignKind::SimpleOoo(Defense::None);
    let simple_s = DesignKind::SimpleOoo(Defense::DelaySpectre);
    // (scheme, design, raw ANDs, ANDs, latches, inputs, restored, variables)
    let cells = [
        (Baseline, SingleCycle, 2063, 2051, 188, 0, 0, 5023),
        (Baseline, InOrder, 2211, 2199, 218, 0, 0, 7340),
        (Baseline, simple, 6694, 6480, 552, 0, 20, 8539),
        (Baseline, simple_s, 6710, 6504, 552, 0, 20, 8620),
        (Baseline, SuperOoo, 19458, 18904, 930, 0, 40, 22770),
        (Baseline, BigOoo, 11845, 11715, 922, 0, 0, 10234),
        (Leave, SingleCycle, 1092, 1086, 150, 0, 0, 5023),
        (Leave, InOrder, 1241, 1235, 180, 0, 0, 3809),
        (Leave, simple, 5735, 5519, 514, 0, 20, 4615),
        (Leave, simple_s, 5751, 5543, 514, 0, 20, 4696),
        (Leave, SuperOoo, 18535, 17971, 892, 0, 40, 20101),
        (Leave, BigOoo, 10856, 10732, 884, 0, 0, 6133),
        (Upec, SingleCycle, 2311, 1087, 151, 0, 38, 5013),
        (Upec, InOrder, 2566, 2270, 251, 0, 8, 4670),
        (Upec, simple, 8287, 7665, 591, 0, 28, 3299),
        (Upec, simple_s, 8303, 7689, 591, 0, 28, 3323),
        (Upec, SuperOoo, 24122, 22646, 1013, 0, 52, 13896),
        (Upec, BigOoo, 14498, 14284, 987, 0, 0, 6760),
        (Shadow, SingleCycle, 2311, 1087, 151, 0, 38, 5013),
        (Shadow, InOrder, 2566, 2270, 251, 0, 8, 4670),
        (Shadow, simple, 8287, 7665, 591, 0, 28, 3299),
        (Shadow, simple_s, 8303, 7689, 591, 0, 28, 3323),
        (Shadow, SuperOoo, 24122, 22646, 1013, 0, 52, 13896),
        (Shadow, BigOoo, 14496, 14274, 987, 0, 0, 3920),
    ];
    for (scheme, design, raw_ands, ands, latches, inputs, restored, vars) in cells {
        let query = Verifier::new()
            .design(design)
            .contract(Contract::Sandboxing)
            .scheme(scheme)
            .query()
            .expect("design and contract are set");
        let raw = query.raw_instance();
        let prepared = query.instance();
        let aig = prepared.aig();
        let ts = TransitionSystem::shared(aig.clone(), query.options().keep_probes);
        let got = (
            raw.aig.num_ands(),
            aig.num_ands(),
            aig.num_latches(),
            aig.num_inputs(),
            prepared.reconstruction.restored_constants(&raw.aig).len(),
            encoded_vars(&ts),
        );
        assert_eq!(
            got,
            (raw_ands, ands, latches, inputs, restored, vars),
            "{}/{}: (raw ANDs, ANDs, latches, inputs, restored, variables)",
            scheme.name(),
            design.name()
        );
    }
}
