//! Exit codes of the `csl-certify` audit CLI: 0 when a report's evidence
//! re-checks against the raw netlist its identity pins down (a LEAVE
//! proof certificate on SingleCycle, a Spectre witness on the undefended
//! SimpleOoO), 1 when that evidence was tampered with (a stripped
//! certificate, an out-of-range clause literal, a truncated trace), and
//! 2 when the file is not a report at all.

use std::path::Path;
use std::process::Command;
use std::time::Duration;

use csl_certify::CertKind;
use csl_contracts::Contract;
use csl_core::api::{Budget, Report, Verifier};
use csl_core::{DesignKind, Scheme};
use csl_cpu::Defense;
use csl_mc::Verdict;

fn run(scheme: Scheme, design: DesignKind) -> Report {
    Verifier::new()
        .design(design)
        .contract(Contract::Sandboxing)
        .scheme(scheme)
        .budget(Budget::wall(Duration::from_secs(60)))
        .bmc_depth(8)
        .query()
        .expect("design and contract are set")
        .run()
}

/// Writes `text` to `dir/name` and returns `csl-certify`'s exit code on
/// that file.
fn certify(dir: &Path, name: &str, text: &str) -> Option<i32> {
    let path = dir.join(name);
    std::fs::write(&path, text).unwrap();
    Command::new(env!("CARGO_BIN_EXE_csl-certify"))
        .arg(&path)
        .output()
        .expect("csl-certify runs")
        .status
        .code()
}

#[test]
fn certify_cli_accepts_genuine_evidence_and_rejects_tampering() {
    let dir = std::env::temp_dir().join(format!("csl-certify-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let proof = run(Scheme::Leave, DesignKind::SingleCycle);
    assert!(proof.verdict.is_proof(), "{}", proof.cell());
    let attack = run(Scheme::Shadow, DesignKind::SimpleOoo(Defense::None));
    assert!(attack.verdict.is_attack(), "{}", attack.cell());
    assert_eq!(certify(&dir, "proof.json", &proof.to_json()), Some(0));
    assert_eq!(certify(&dir, "attack.json", &attack.to_json()), Some(0));

    let mut stripped = proof.clone();
    stripped.certificate = None;
    assert_eq!(certify(&dir, "stripped.json", &stripped.to_json()), Some(1));

    let mut ranged = proof.clone();
    let cert = ranged.certificate.as_mut().expect("proofs are certified");
    match &mut cert.kind {
        CertKind::Inductive { blocked } => blocked.push(vec![(u32::MAX, true)]),
        kind => panic!("LEAVE proves by an inductive invariant, not {kind:?}"),
    }
    assert_eq!(certify(&dir, "ranged.json", &ranged.to_json()), Some(1));

    let mut truncated = attack.clone();
    if let Verdict::Attack(trace) = &mut truncated.verdict {
        trace.inputs.clear();
    }
    assert_eq!(
        certify(&dir, "truncated.json", &truncated.to_json()),
        Some(1)
    );

    assert_eq!(certify(&dir, "garbage.json", "not a report"), Some(2));
    let _ = std::fs::remove_dir_all(&dir);
}
