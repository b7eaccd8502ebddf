//! The certificate checker on real instances, with the `proof` benchmark's
//! settings (portfolio mode, BMC depth 6).
//!
//! Consecution, the inductive safety query and the k-induction step run
//! on sessions whose frame 0 aliases the latch pairs the certificate's
//! XNOR conjuncts equate, so the two processor copies' next-state logic
//! encodes once. The certificates of the three cells `proof` decides are
//! accepted in at most [`MAX_CONFLICTS`] conflicts each; on unaliased
//! sessions they took 6,740, 1,237 and 5,813. Aliasing must not change
//! what a check answers either: on LEAVE/SimpleOoO-S, which Houdini cannot
//! prove, a certificate naming Houdini's survivors is rejected as not
//! safe, and one naming every candidate as not inductive at the first
//! candidate consecution refutes — the answers of the unaliased checker.

use std::time::Duration;

use csl_certify::{check_certificate, CertKind, Certificate, Rejection};
use csl_contracts::Contract;
use csl_core::api::{Mode, Query, Verifier};
use csl_core::{DesignKind, Scheme};
use csl_cpu::Defense;

/// Conflicts a check of a `proof` certificate may take, summed over the
/// checker's sessions.
const MAX_CONFLICTS: u64 = 500;

/// Houdini's survivors on the prepared LEAVE/SimpleOoO-S instance (the
/// ones `houdini_pin` pins).
const SIMPLE_OOO_S_SURVIVORS: [usize; 10] = [70, 71, 108, 109, 146, 147, 184, 185, 202, 203];

/// The query a `proof` cell runs.
fn query(scheme: Scheme, design: DesignKind) -> Query {
    Verifier::new()
        .design(design)
        .contract(Contract::Sandboxing)
        .scheme(scheme)
        .bmc_depth(6)
        .wall(Duration::from_secs(30))
        .mode(Mode::Portfolio)
        .query()
        .expect("design and contract are set")
}

#[test]
fn proof_certificates_check_in_few_conflicts() {
    for (scheme, design) in [
        (Scheme::Leave, DesignKind::SingleCycle),
        (Scheme::Leave, DesignKind::InOrder),
        (Scheme::Shadow, DesignKind::SingleCycle),
    ] {
        let query = query(scheme, design);
        let report = query.run();
        let ctx = format!("{}/{}", scheme.name(), design.name());
        let cert = report
            .certificate
            .as_ref()
            .unwrap_or_else(|| panic!("{ctx}: {} carries no certificate", report.cell()));
        let check = check_certificate(&query.raw_instance(), cert)
            .unwrap_or_else(|why| panic!("{ctx}: {} rejected: {why}", cert.summary()));
        assert!(
            check.conflicts <= MAX_CONFLICTS,
            "{ctx}: {} took {} conflicts: {check:?}",
            cert.summary(),
            check.conflicts
        );
    }
}

#[test]
fn simple_ooo_s_certificates_are_rejected_as_before() {
    let query = query(Scheme::Leave, DesignKind::SimpleOoo(Defense::DelaySpectre));
    let raw = query.raw_instance();
    let restored = query.instance().reconstruction.restored_constants(&raw.aig);
    let certificate = |survivors: Vec<usize>| Certificate {
        restored: restored.clone(),
        survivors,
        kind: CertKind::Inductive {
            blocked: Vec::new(),
        },
    };

    let houdini = certificate(SIMPLE_OOO_S_SURVIVORS.to_vec());
    assert_eq!(check_certificate(&raw, &houdini), Err(Rejection::NotSafe));

    assert_eq!(raw.candidates.len(), 211);
    let all = certificate((0..raw.candidates.len()).collect());
    assert_eq!(
        check_certificate(&raw, &all),
        Err(Rejection::NotInductive {
            conjunct: "survivor 'eq:rob0.v1[0]'".into()
        })
    );
}
