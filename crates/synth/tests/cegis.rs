//! CEGIS soundness on the small secure designs (SingleCycle, InOrder):
//! the synthesized contract carries a certified proof, dropping any
//! single atom from it re-attacks — i.e. the result is sound *and* a
//! confirmed local minimum of the observation lattice — and every step's
//! evidence, grow-phase attacks included, independently re-checks.

use std::time::Duration;

use csl_certify::{check_certificate, check_witness, Witness};
use csl_contracts::Contract;
use csl_core::api::{ReportCache, Verifier};
use csl_core::DesignKind;
use csl_mc::Verdict;
use csl_synth::{SynthOutcome, SynthPhase, SynthesisResult, Synthesizer};

fn synthesizer() -> Synthesizer {
    Synthesizer::new().verifier(Verifier::new().wall(Duration::from_secs(60)).bmc_depth(10))
}

/// Re-checks every step's evidence through `csl_certify` against an
/// independently rebuilt raw instance: an attack (grow or descent)
/// replays as a witness, a proof's certificate passes its obligations.
fn audit_steps(synth: &Synthesizer, result: &SynthesisResult) {
    for step in &result.steps {
        let at = format!("{:?} step on {}", step.phase, step.candidate.encode());
        let task = synth
            .query_for(result.design, step.candidate)
            .raw_instance();
        match &step.report.verdict {
            Verdict::Attack(trace) => {
                if let Err(why) = check_witness(&task.aig, &Witness::new((**trace).clone())) {
                    panic!("{at}: attack witness rejected: {why:?}");
                }
            }
            Verdict::Proof(_) => {
                let cert = step
                    .report
                    .certificate
                    .as_ref()
                    .unwrap_or_else(|| panic!("{at}: proof without a certificate"));
                if let Err(why) = check_certificate(&task, cert) {
                    panic!("{at}: certificate rejected: {why:?}");
                }
            }
            other => panic!("{at}: undecided step {other:?}"),
        }
    }
}

fn assert_sound_and_minimal(design: DesignKind) {
    let synth = synthesizer();
    let result = synth.synthesize(design);
    println!("{}", result.render());

    assert_eq!(result.outcome, SynthOutcome::Sound, "{}", result.render());
    assert!(
        !result.contract.is_empty(),
        "differing secrets leak through the memory bus, so the empty \
         contract cannot be sound"
    );
    // The strongest sound contract is at or below the paper's
    // constant-time point of the lattice.
    assert!(
        result.contract.is_subset(Contract::constant_time_set()),
        "synthesized {} is not <= constant-time",
        result.contract.encode()
    );

    // Soundness: the final grow step is a certified proof, and every
    // attack on the way to it and on the way down replays.
    let proof = result
        .steps
        .iter()
        .rfind(|s| s.phase == SynthPhase::Grow)
        .expect("a sound run ends its grow phase with a proof step");
    assert!(proof.report.verdict.is_proof());
    assert!(proof.report.certificate.is_some(), "certification is on");
    audit_steps(&synth, &result);

    // Minimality: every single-atom drop was refuted — either by a
    // descent attack, or by reuse of a grow-phase refutation.
    assert!(result.minimal_confirmed, "{}", result.render());
    let atoms: Vec<_> = result.contract.atoms().collect();
    assert_eq!(
        result.necessary, atoms,
        "every atom of a confirmed-minimal contract is necessary"
    );
    for step in result
        .steps
        .iter()
        .filter(|s| s.phase == SynthPhase::Descent)
    {
        assert!(
            step.report.verdict.is_attack(),
            "descent step on {} must attack",
            step.candidate.encode()
        );
    }

    // Reuse accounting: grow-phase refutations feed the descent, so at
    // least one drop never issued a query, and the step/solve counters
    // reconcile.
    assert!(result.reused >= 1, "{}", result.render());
    assert_eq!(result.solved + result.cache_hits, result.steps.len());

    // The refutation path grows strictly: each step adds exactly the
    // separating atom to the previous candidate.
    let path = result.refutation_path();
    assert!(!path.is_empty());
    for window in path.windows(2) {
        let (set, atom) = window[0];
        assert_eq!(set.with(atom), window[1].0);
    }
}

#[test]
fn single_cycle_synthesis_is_sound_and_minimal() {
    assert_sound_and_minimal(DesignKind::SingleCycle);
}

#[test]
fn in_order_synthesis_is_sound_and_minimal() {
    assert_sound_and_minimal(DesignKind::InOrder);
}

#[test]
fn repeated_synthesis_is_served_from_cache() {
    let dir = std::env::temp_dir().join(format!("csl-synth-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let synth = synthesizer().cache(ReportCache::new(&dir));
    for design in [DesignKind::SingleCycle, DesignKind::InOrder] {
        let first = synth.synthesize(design);
        assert_eq!(first.outcome, SynthOutcome::Sound);
        let second = synth.synthesize(design);
        assert_eq!(second.outcome, SynthOutcome::Sound);
        assert_eq!(second.contract, first.contract);
        assert_eq!(
            second.cache_hits,
            second.steps.len(),
            "a repeated walk re-solves nothing:\n{}",
            second.render()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
