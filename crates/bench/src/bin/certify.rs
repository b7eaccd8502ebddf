//! Independent audit of an archived verification report.
//!
//! `certify <report.json>` rebuilds the *raw* (unprepared) instance
//! from the report's scheme × design × contract identity and re-checks
//! the evidence the report carries: a proof's certificate must pass its
//! three obligations (init ⊆ inv, consecution, inv ⊆ safe) with fresh
//! SAT calls, an attack's witness must replay to the bad state with
//! every assume held. A proof without a certificate fails — the tool
//! only trusts what it can audit. Undecided verdicts carry no claim and
//! pass vacuously.
//!
//! Exit codes: 0 evidence validates (or nothing to audit), 1 evidence
//! rejected, 2 usage/IO/parse errors.

use csl_certify::{check_certificate, check_witness, Witness};
use csl_core::api::{Report, Verifier};
use csl_mc::Verdict;

fn load(path: &str) -> Report {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("certify: cannot read {path}: {e}");
        std::process::exit(2);
    });
    Report::from_json(&text).unwrap_or_else(|e| {
        eprintln!("certify: {path} is not a report: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [path] = args.as_slice() else {
        eprintln!("usage: certify <report.json>");
        std::process::exit(2);
    };
    let report = load(path);
    let label = report.label();

    // The report's identity pins the instance; rebuilding it from
    // scratch (rather than trusting anything else in the document) is
    // what makes the audit independent.
    let task = || {
        Verifier::new()
            .design(report.design)
            .contract(report.contract)
            .scheme(report.scheme)
            .query()
            .expect("reports always carry a design and a contract")
            .raw_instance()
    };

    match &report.verdict {
        Verdict::Attack(trace) => {
            match check_witness(&task().aig, &Witness::new((**trace).clone())) {
                Ok(check) => println!(
                    "{label}: attack witness replays to `{}` in {} cycles [{:.3}s]",
                    trace.bad_name,
                    check.cycles,
                    check.elapsed.as_secs_f64()
                ),
                Err(why) => {
                    eprintln!("certify: {label}: witness rejected: {why:?}");
                    std::process::exit(1);
                }
            }
        }
        Verdict::Proof(engine) => {
            let Some(cert) = &report.certificate else {
                eprintln!("certify: {label}: proof ({engine:?}) carries no certificate");
                std::process::exit(1);
            };
            match check_certificate(&task(), cert) {
                Ok(check) => println!(
                    "{label}: certificate validates against the raw netlist \
                     ({} conjuncts, {} SAT calls, {} conflicts) [{:.3}s]",
                    check.conjuncts,
                    check.sat_calls,
                    check.conflicts,
                    check.elapsed.as_secs_f64()
                ),
                Err(why) => {
                    eprintln!("certify: {label}: certificate rejected: {why:?}");
                    std::process::exit(1);
                }
            }
        }
        verdict => println!("{label}: {verdict:?} — nothing to audit"),
    }
}
