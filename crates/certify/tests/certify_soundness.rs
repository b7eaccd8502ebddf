//! Certificate-subsystem soundness (property tests over random AIGs).
//!
//! * **Completeness of evidence**: every decided verdict `check_safety`
//!   produces on a random design, in every engine configuration
//!   (sequential or portfolio, preparation on or off), comes with
//!   evidence the independent checker accepts — proofs a certificate
//!   passing its three obligations against the *raw* (unprepared)
//!   netlist, attacks a witness that replays to a bad state with every
//!   assume held — and the configurations agree on the verdict kind.
//! * **Tamper rejection**: mutated certificates (an injected clause
//!   that blocks the reset state, a flipped restored-constant literal,
//!   dropped clauses, out-of-range indices, a zeroed `k`) and mutated
//!   witnesses (truncated or emptied traces, out-of-range inputs) are
//!   rejected.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use csl_certify::{check_certificate, check_witness, CertKind, Rejection, Witness};
use csl_hdl::{Aig, Design, Init};
use csl_mc::{
    check_safety, Candidate, CheckOptions, ExecMode, PrepareConfig, SafetyCheck, Trace, Verdict,
};

/// A random small sequential design with enough variety to hit every
/// engine: a gated counter (live logic) racing a fixed target, a latch
/// frozen at reset (so the constant sweep has something to restore), an
/// unobserved shifter (dead logic), an optional input-implication
/// assume, and a bad predicate whose reachability depends on the drawn
/// target and step.
fn random_design(seed: u64) -> Aig {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e3779b97f4a7c15));
    let mut d = Design::new("cert-rand");
    let width = rng.gen_range(3usize..=4);
    let go = d.input_bit("go");
    let sel = d.input_bit("sel");

    // Live: the counter advances by `step` whenever `go` is up.
    let ctr = d.reg("ctr", width, Init::Zero);
    let step = rng.gen_range(1u64..=3);
    let bumped = d.add_const(&ctr.q(), step);
    let next = d.mux(go, &bumped, &ctr.q());
    d.set_next(&ctr, next);

    // Frozen: never leaves its reset value, but feeds observable logic
    // so only the constant sweep (not dead-latch removal) can fold it.
    let frozen = d.reg("frozen", 1, Init::Zero);
    d.hold(&frozen);
    let glitch = d.and_bit(frozen.q().bit(0), sel);

    // Dead: churns every cycle, observed by nothing.
    let ghost = d.reg("ghost", 4, Init::Zero);
    let spun = d.add_const(&ghost.q(), 5);
    d.set_next(&ghost, spun);

    if rng.gen_bool(0.5) {
        let imp = d.implies_bit(sel, go);
        d.assume(imp);
    }
    // Reachability of `ctr == target` depends on `step` and `target`:
    // some seeds yield attacks, others proofs.
    let target = rng.gen_range(1u64..(1 << width));
    let hit = d.eq_const(&ctr.q(), target);
    let bad = d.or_bit(hit, glitch);
    d.assert_always("ctr_hits", bad.not());
    d.finish()
}

/// Generous engine set (k-induction plus PDR behind deep BMC) so every
/// tiny instance decides, with preparation on so certificates exercise
/// the restore maps.
fn opts() -> CheckOptions {
    CheckOptions {
        bmc_depth: 24,
        kind_max_k: 4,
        pdr_max_frames: 64,
        prepare: PrepareConfig::on(),
        ..CheckOptions::default()
    }
}

/// Every engine configuration: {sequential, portfolio} × {prepare on,
/// off}.
fn configurations() -> Vec<(&'static str, CheckOptions)> {
    let off = || opts().with_prepare(PrepareConfig::off());
    vec![
        ("sequential", opts()),
        ("sequential+unprepared", off()),
        ("portfolio", opts().portfolio()),
        ("portfolio+unprepared", off().portfolio()),
    ]
}

fn task(seed: u64) -> SafetyCheck {
    SafetyCheck {
        aig: random_design(seed),
        candidates: vec![],
    }
}

/// [`task`] with Houdini candidates: the property itself plus every
/// latch held at its reset value — the frozen latch survives, so the
/// proofs run on a strengthened instance.
fn task_with_candidates(seed: u64) -> SafetyCheck {
    let aig = random_design(seed);
    let mut candidates = vec![Candidate {
        name: "not_bad".into(),
        bit: aig.bads()[0].bit.not(),
    }];
    for (i, latch) in aig.latches().iter().enumerate() {
        let bit = match latch.init {
            Init::Zero => latch.output.not(),
            _ => latch.output,
        };
        candidates.push(Candidate {
            name: format!("reset{i}"),
            bit,
        });
    }
    SafetyCheck { aig, candidates }
}

const SEEDS: u64 = 24;

/// Every seed runs plain and with Houdini candidates (so certificates of
/// proofs on strengthened instances are audited too) under every engine
/// configuration; the configurations must agree on the verdict kind.
#[test]
fn every_decided_verdict_carries_accepted_evidence() {
    let mut proofs = 0usize;
    let mut attacks = 0usize;
    let mut strengthened = 0usize;
    for seed in 0..SEEDS {
        for (shape, task) in [
            ("plain", task(seed)),
            ("candidates", task_with_candidates(seed)),
        ] {
            let mut kinds: Vec<(&str, &str)> = Vec::new();
            for (config, opts) in configurations() {
                let input = format!("{shape} {config}");
                let report = check_safety(&task, &opts);
                kinds.push((config, report.verdict.cell()));
                match &report.verdict {
                    Verdict::Proof(engine) => {
                        proofs += 1;
                        let cert = report.certificate.as_ref().unwrap_or_else(|| {
                            panic!(
                                "seed {seed} {input}: proof ({engine:?}) must carry a certificate"
                            )
                        });
                        let check = check_certificate(&task, cert);
                        let check = check.unwrap_or_else(|e| {
                        panic!("seed {seed} {input}: certificate must validate ({engine:?}): {e:?}")
                    });
                        assert!(
                            check.sat_calls > 0,
                            "seed {seed} {input}: validation must query SAT"
                        );
                        if opts.mode == ExecMode::Sequential && !cert.survivors.is_empty() {
                            strengthened += 1;
                        }
                    }
                    Verdict::Attack(trace) => {
                        attacks += 1;
                        let check = check_witness(&task.aig, &Witness::new((**trace).clone()));
                        assert!(
                            check.is_ok(),
                            "seed {seed} {input}: witness must replay: {check:?}"
                        );
                    }
                    other => {
                        panic!("seed {seed} {input}: tiny instance failed to decide: {other:?}")
                    }
                }
            }
            assert!(
                kinds.iter().all(|&(_, kind)| kind == kinds[0].1),
                "seed {seed} {shape}: configurations disagree on the verdict: {kinds:?}"
            );
        }
    }
    // Both outcomes must occur, or half the property went unexercised.
    assert!(proofs > 0, "no seed produced a proof");
    assert!(attacks > 0, "no seed produced an attack");
    assert!(strengthened > 0, "no sequential proof leaned on survivors");
}

/// Mutations whose rejection is semantically forced, applied to every
/// proof in the corpus.
#[test]
fn tampered_certificates_are_rejected() {
    let mut flipped_restored = 0usize;
    let mut weakened = 0usize;
    let mut zeroed_k = 0usize;
    let mut proofs = 0usize;
    for seed in 0..SEEDS {
        let task = task(seed);
        let report = check_safety(&task, &opts());
        if !report.verdict.is_proof() {
            continue;
        }
        proofs += 1;
        let cert = report.certificate.as_ref().expect("proofs carry certs");

        // Out-of-range latch in a blocked cube: structural rejection.
        let mut mutant = cert.clone();
        mutant.kind = CertKind::Inductive {
            blocked: vec![vec![(u32::MAX, true)]],
        };
        assert!(
            matches!(
                check_certificate(&task, &mutant),
                Err(Rejection::LatchOutOfRange { .. })
            ),
            "seed {seed}: out-of-range cube latch must be rejected"
        );

        // Survivor index with no candidate list behind it.
        let mut mutant = cert.clone();
        mutant.survivors.push(7);
        assert!(
            matches!(
                check_certificate(&task, &mutant),
                Err(Rejection::SurvivorOutOfRange { .. })
            ),
            "seed {seed}: out-of-range survivor must be rejected"
        );

        // An injected clause that blocks the reset state itself (a
        // single-literal cube holding a latch at its init value covers
        // reset): initiation must fail.
        let mut mutant = cert.clone();
        let (idx, val) = task
            .aig
            .latches()
            .iter()
            .enumerate()
            .find_map(|(i, l)| match l.init {
                Init::Zero => Some((i as u32, false)),
                Init::One => Some((i as u32, true)),
                Init::Symbolic => None,
            })
            .expect("the generator only emits deterministic-init latches");
        let reset_cube = vec![(idx, val)];
        match &mut mutant.kind {
            CertKind::Inductive { blocked } => blocked.push(reset_cube),
            CertKind::KInduction { .. } => {
                mutant.kind = CertKind::Inductive {
                    blocked: vec![reset_cube],
                }
            }
        }
        assert!(
            matches!(
                check_certificate(&task, &mutant),
                Err(Rejection::InitViolated { .. })
            ),
            "seed {seed}: a clause excluding the reset state must fail initiation"
        );

        // Flipped restored-constant literal: the sweep proved the latch
        // stuck at its reset value, so the flipped claim is false at
        // init.
        if !cert.restored.is_empty() {
            let mut mutant = cert.clone();
            mutant.restored[0].1 = !mutant.restored[0].1;
            assert!(
                matches!(
                    check_certificate(&task, &mutant),
                    Err(Rejection::InitViolated { .. })
                ),
                "seed {seed}: flipped restored literal must fail initiation"
            );
            flipped_restored += 1;
        }

        match &cert.kind {
            // Dropping every clause (and survivor) leaves only the
            // restored constants, which never constrain the live
            // counter — yet the bad predicate is satisfiable in the raw
            // state space, so the gutted invariant cannot imply safety.
            CertKind::Inductive { blocked } if !blocked.is_empty() => {
                let mut mutant = cert.clone();
                mutant.survivors.clear();
                mutant.kind = CertKind::Inductive { blocked: vec![] };
                assert!(
                    matches!(check_certificate(&task, &mutant), Err(Rejection::NotSafe)),
                    "seed {seed}: dropping every clause must break inv ⊆ safe"
                );
                weakened += 1;
            }
            CertKind::Inductive { .. } => {}
            // `k = 0` claims nothing.
            CertKind::KInduction { .. } => {
                let mut mutant = cert.clone();
                mutant.kind = CertKind::KInduction { k: 0 };
                assert!(
                    matches!(check_certificate(&task, &mutant), Err(Rejection::ZeroK)),
                    "seed {seed}: k = 0 must be rejected"
                );
                zeroed_k += 1;
            }
        }
    }
    assert!(proofs > 0, "no seed produced a proof to tamper with");
    assert!(
        flipped_restored > 0,
        "no certificate carried a restored constant (sweep never fired?)"
    );
    assert!(
        weakened + zeroed_k > 0,
        "no certificate carried clauses or a k to strip"
    );
}

#[test]
fn tampered_witnesses_are_rejected() {
    let mut attacks = 0usize;
    for seed in 0..SEEDS {
        let task = task(seed);
        let report = check_safety(&task, &opts());
        let Verdict::Attack(trace) = &report.verdict else {
            continue;
        };
        attacks += 1;

        // Emptied trace: no cycles, no bad state.
        let mut gutted: Trace = (**trace).clone();
        gutted.inputs.clear();
        assert!(
            matches!(
                check_witness(&task.aig, &Witness::new(gutted)),
                Err(Rejection::EmptyTrace)
            ),
            "seed {seed}: an empty trace must be rejected"
        );

        // Truncated trace: BMC counterexamples are depth-minimal, so
        // chopping the final cycle leaves a run that never goes bad.
        let mut cut: Trace = (**trace).clone();
        cut.inputs.pop();
        let check = check_witness(&task.aig, &Witness::new(cut));
        assert!(
            check.is_err(),
            "seed {seed}: a truncated trace must be rejected, got {check:?}"
        );

        // An input index the netlist does not have.
        let mut alien: Trace = (**trace).clone();
        let cycle: &mut HashMap<u32, bool> = &mut alien.inputs[0];
        cycle.insert(task.aig.num_inputs() as u32 + 3, true);
        assert!(
            matches!(
                check_witness(&task.aig, &Witness::new(alien)),
                Err(Rejection::InputOutOfRange { .. })
            ),
            "seed {seed}: an out-of-range input must be rejected"
        );
    }
    assert!(attacks > 0, "no seed produced an attack to tamper with");
}
