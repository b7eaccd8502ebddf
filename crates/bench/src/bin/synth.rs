//! Contract-synthesis sweep: run the CEGIS driver over the Table-2
//! designs (plus the single-cycle smoke design) and print each design's
//! synthesized contract next to the hand-written lattice points.
//!
//! Where the paper proves a design secure, the synthesized contract is
//! the *strongest sound* observation set — typically strictly below the
//! hand-written constant-time contract (the hand-written set carries
//! atoms the design never leaks through, e.g. multiplier operands on a
//! core without the extension). Where the paper shows transient leaks,
//! the sweep terminates with **no sound contract**: the final
//! counterexample's retirement streams agree on every atom of the
//! grammar, so no retirement-stream contract can rule the leak out.
//!
//! ```text
//! cargo run --release -p csl-bench --bin csl-synth -- [--json <path>]
//!     [--csv <path>] [--cache <dir> | --no-cache] [--max-entries <n>]
//!     [--no-prepare]
//! ```

use csl_bench::{bmc_depth, budget_secs, header, report_args, table2_designs, verifier};
use csl_contracts::{Contract, ObsSet};
use csl_core::api::Json;
use csl_core::DesignKind;
use csl_synth::{SynthOutcome, SynthesisResult, Synthesizer};

/// Where a synthesized set sits relative to a hand-written one.
fn position(set: ObsSet, named: ObsSet) -> &'static str {
    if set == named {
        "="
    } else if set.is_subset(named) {
        "<"
    } else if named.is_subset(set) {
        ">"
    } else {
        "incomparable"
    }
}

fn outcome_name(o: SynthOutcome) -> &'static str {
    match o {
        SynthOutcome::Sound => "SOUND",
        SynthOutcome::NoSoundContract => "NO-CONTRACT",
        SynthOutcome::Inconclusive => "INCONCLUSIVE",
    }
}

fn json_row(r: &SynthesisResult) -> Json {
    Json::obj(vec![
        ("design", Json::Str(r.design.name())),
        ("outcome", Json::Str(outcome_name(r.outcome).into())),
        ("contract", Json::Str(r.synthesized().name())),
        (
            "vs_sandboxing",
            Json::Str(position(r.contract, Contract::sandboxing_set()).into()),
        ),
        (
            "vs_constant_time",
            Json::Str(position(r.contract, Contract::constant_time_set()).into()),
        ),
        ("minimal_confirmed", Json::Bool(r.minimal_confirmed)),
        ("steps", Json::Int(r.steps.len() as i128)),
        ("solved", Json::Int(r.solved as i128)),
        ("cache_hits", Json::Int(r.cache_hits as i128)),
        ("reused", Json::Int(r.reused as i128)),
        ("elapsed_ms", Json::Int(r.elapsed.as_millis() as i128)),
        (
            "path",
            Json::Arr(
                r.refutation_path()
                    .into_iter()
                    .map(|(set, atom)| {
                        Json::obj(vec![
                            ("refuted", Json::Str(set.encode())),
                            ("added", Json::Str(atom.name().into())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn main() {
    let args = report_args("csl-synth");
    let budget = budget_secs(120);
    let depth = bmc_depth(12);
    header(
        "Contract synthesis: strongest sound contract per design",
        "the contract-lattice view of Table 2",
    );

    let mut synth = Synthesizer::new().verifier(verifier(&args.verifier, budget, depth, false));
    if let Some(cache) = &args.cache {
        synth = synth.cache(cache.clone());
    }

    let mut designs = vec![DesignKind::SingleCycle];
    designs.extend(table2_designs());

    let mut results = Vec::new();
    for design in designs {
        let result = synth.synthesize(design);
        println!("{}", result.render());
        if result.outcome == SynthOutcome::Sound {
            println!(
                "    lattice: {} sandboxing, {} constant-time\n",
                position(result.contract, Contract::sandboxing_set()),
                position(result.contract, Contract::constant_time_set()),
            );
        } else {
            println!();
        }
        results.push(result);
    }

    println!(
        "{:<22} {:<13} {:<34} {:>4} {:>4}",
        "design", "outcome", "synthesized contract", "vs-S", "vs-CT"
    );
    for r in &results {
        let sound = r.outcome == SynthOutcome::Sound;
        println!(
            "{:<22} {:<13} {:<34} {:>4} {:>4}",
            r.design.name(),
            outcome_name(r.outcome),
            if sound {
                r.synthesized().name()
            } else {
                "-".into()
            },
            if sound {
                position(r.contract, Contract::sandboxing_set())
            } else {
                "-"
            },
            if sound {
                position(r.contract, Contract::constant_time_set())
            } else {
                "-"
            },
        );
    }

    if let Some(path) = &args.json {
        let doc = Json::obj(vec![
            ("probe", Json::Str("csl-synth".into())),
            ("budget_secs", Json::Int(budget as i128)),
            ("designs", Json::Arr(results.iter().map(json_row).collect())),
        ]);
        std::fs::write(path, doc.render()).expect("write json report");
        println!("json report written to {path}");
    }
    if let Some(path) = &args.csv {
        let mut csv = String::from(
            "design,outcome,contract,vs_sandboxing,vs_constant_time,steps,solved,cache_hits,reused,elapsed_ms\n",
        );
        for r in &results {
            csv.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{}\n",
                r.design.name(),
                outcome_name(r.outcome),
                r.synthesized().name(),
                position(r.contract, Contract::sandboxing_set()),
                position(r.contract, Contract::constant_time_set()),
                r.steps.len(),
                r.solved,
                r.cache_hits,
                r.reused,
                r.elapsed.as_millis(),
            ));
        }
        std::fs::write(path, csv).expect("write csv report");
        println!("csv report written to {path}");
    }
}
