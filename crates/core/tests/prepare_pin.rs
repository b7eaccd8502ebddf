//! What preparation removes from the 24 scheme × design sandboxing
//! instances.
//!
//! `csl_hdl::xform::reduce` rebuilds each instance once. Per cell this
//! pins the raw AND count and, after preparation, the ANDs, latches and
//! inputs left and how many stuck-at-reset constants a certificate must
//! restore. A change to the reduction that shrinks an instance further
//! re-pins the cell and says so; one that leaves more behind, or
//! restores a different number of constants, fails here.

use csl_contracts::Contract;
use csl_core::api::Verifier;
use csl_core::{DesignKind, Scheme};
use csl_cpu::Defense;

#[test]
fn preparation_removes_the_pinned_logic_on_every_cell() {
    use DesignKind::{BigOoo, InOrder, SingleCycle, SuperOoo};
    use Scheme::{Baseline, Leave, Shadow, Upec};
    let simple = DesignKind::SimpleOoo(Defense::None);
    let simple_s = DesignKind::SimpleOoo(Defense::DelaySpectre);
    // (scheme, design, raw ANDs, ANDs, latches, inputs, restored)
    let cells = [
        (Baseline, SingleCycle, 2063, 2051, 188, 0, 0),
        (Baseline, InOrder, 2211, 2199, 218, 0, 0),
        (Baseline, simple, 6694, 6480, 552, 0, 20),
        (Baseline, simple_s, 6710, 6504, 552, 0, 20),
        (Baseline, SuperOoo, 19458, 18904, 930, 0, 40),
        (Baseline, BigOoo, 11845, 11715, 922, 0, 0),
        (Leave, SingleCycle, 1092, 1086, 150, 0, 0),
        (Leave, InOrder, 1241, 1235, 180, 0, 0),
        (Leave, simple, 5735, 5519, 514, 0, 20),
        (Leave, simple_s, 5751, 5543, 514, 0, 20),
        (Leave, SuperOoo, 18535, 17971, 892, 0, 40),
        (Leave, BigOoo, 10856, 10732, 884, 0, 0),
        (Upec, SingleCycle, 2311, 1087, 151, 0, 38),
        (Upec, InOrder, 2566, 2270, 251, 0, 8),
        (Upec, simple, 8287, 7665, 591, 0, 28),
        (Upec, simple_s, 8303, 7689, 591, 0, 28),
        (Upec, SuperOoo, 24122, 22646, 1013, 0, 52),
        (Upec, BigOoo, 14498, 14284, 987, 0, 0),
        (Shadow, SingleCycle, 2311, 1087, 151, 0, 38),
        (Shadow, InOrder, 2566, 2270, 251, 0, 8),
        (Shadow, simple, 8287, 7665, 591, 0, 28),
        (Shadow, simple_s, 8303, 7689, 591, 0, 28),
        (Shadow, SuperOoo, 24122, 22646, 1013, 0, 52),
        (Shadow, BigOoo, 14496, 14274, 987, 0, 0),
    ];
    for (scheme, design, raw_ands, ands, latches, inputs, restored) in cells {
        let query = Verifier::new()
            .design(design)
            .contract(Contract::Sandboxing)
            .scheme(scheme)
            .query()
            .expect("design and contract are set");
        let raw = query.raw_instance();
        let prepared = query.instance();
        let aig = prepared.aig();
        let got = (
            raw.aig.num_ands(),
            aig.num_ands(),
            aig.num_latches(),
            aig.num_inputs(),
            prepared.reconstruction.restored_constants(&raw.aig).len(),
        );
        assert_eq!(
            got,
            (raw_ands, ands, latches, inputs, restored),
            "{}/{}: (raw ANDs, ANDs, latches, inputs, restored)",
            scheme.name(),
            design.name()
        );
    }
}
