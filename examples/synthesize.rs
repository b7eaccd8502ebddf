//! Contract synthesis end to end: infer the strongest sound leakage
//! contract for the in-order pipeline with the CEGIS driver, printing
//! the refutation path and the final lattice position.
//!
//! ```text
//! cargo run --release --example synthesize
//! ```

use std::time::Duration;

use contract_shadow_logic::prelude::*;

fn main() {
    println!("== CEGIS contract synthesis: InOrder(Sodor) ==");
    println!(
        "grammar: {} observation atoms, lattice ordered by inclusion",
        ObsAtom::ALL.len()
    );
    println!();

    let synth =
        Synthesizer::new().verifier(Verifier::new().wall(Duration::from_secs(120)).bmc_depth(12));
    let result = synth.synthesize(DesignKind::InOrder);

    println!("refutation path (each attack forces one atom in):");
    for (set, atom) in result.refutation_path() {
        println!("  obs:{:<24} refuted  -> add {}", set.encode(), atom.name());
    }
    println!();
    println!("{}", result.render());

    match result.outcome {
        SynthOutcome::Sound => {
            let ct = Contract::constant_time_set();
            let pos = if result.contract == ct {
                "equal to".to_string()
            } else if result.contract.is_subset(ct) {
                format!(
                    "strictly below (observes {} of its {} atoms)",
                    result.contract.len(),
                    ct.len()
                )
            } else {
                "incomparable with".to_string()
            };
            println!(
                "synthesized contract `{}` is {} the hand-written constant-time contract",
                result.synthesized().name(),
                pos
            );
            println!(
                "minimality {}: necessary atoms: {}",
                if result.minimal_confirmed {
                    "confirmed"
                } else {
                    "not fully confirmed"
                },
                result
                    .necessary
                    .iter()
                    .map(|a| a.name())
                    .collect::<Vec<_>>()
                    .join(", ")
            );
        }
        SynthOutcome::NoSoundContract => {
            println!(
                "no sound contract exists: the last counterexample's retirement \
                 streams agree on every atom (a transient leak)"
            );
        }
        SynthOutcome::Inconclusive => {
            println!("inconclusive under this budget; raise it and re-run");
        }
    }
}
