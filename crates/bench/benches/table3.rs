//! **Table 3** — verification time of Contract Shadow Logic on SimpleOoO
//! augmented with the five §7.2 defences, under both contracts.
//!
//! Paper's result shape (red = attack, green = proof):
//!
//! | defence          | sandboxing   | constant-time |
//! |------------------|--------------|---------------|
//! | NoFwd-futuristic | PROOF 66min  | ATTACK 0.4s   |
//! | NoFwd-spectre    | PROOF 45h    | ATTACK 0.1s   |
//! | Delay-futuristic | PROOF 21min  | PROOF 10min   |
//! | Delay-spectre    | PROOF 151min | PROOF 37min   |
//! | DoM-spectre      | ATTACK 6.5m  | ATTACK 5.9min |
//!
//! Shapes of record: attacks are fast (seconds); proofs are much slower;
//! the conservative *futuristic* variants prove faster than the *spectre*
//! variants; the same shadow logic is reused across all ten cells.

use csl_bench::{bmc_depth, budget_secs, header, paper_cell, show, verifier};
use csl_contracts::Contract;
use csl_core::api::Verifier;
use csl_core::{DesignKind, Scheme};
use csl_cpu::Defense;

fn main() {
    header(
        "TABLE 3: defence mechanisms on SimpleOoO (Contract Shadow Logic)",
        "paper Table 3",
    );
    let mut rows = Vec::new();
    for defense in Defense::TABLE3 {
        let mut cells = Vec::new();
        for contract in Contract::ALL {
            let expect_secure = defense.expected_secure(contract == Contract::ConstantTime);
            // Insecure cells only need attack search; secure cells get the
            // full proof pipeline and a larger budget, mirroring the
            // paper's attack-fast / proof-slow asymmetry.
            let base = if expect_secure {
                verifier(&Verifier::new(), budget_secs(300), bmc_depth(8), false)
            } else {
                verifier(&Verifier::new(), budget_secs(120), bmc_depth(14), true)
            };
            let report = base
                .design(DesignKind::SimpleOoo(defense))
                .contract(contract)
                .scheme(Scheme::Shadow)
                .query()
                .expect("design and contract are set")
                .run();
            show(
                &format!("{} / {}", defense.name(), contract.name()),
                &report,
            );
            cells.push(format!(
                "{}({:.0}s)",
                paper_cell(&report.verdict),
                report.elapsed.as_secs_f64()
            ));
        }
        rows.push((defense.name(), cells));
    }
    println!();
    println!(
        "{:<20} {:<18} {:<18}",
        "defence", "sandboxing", "constant-time"
    );
    for (name, cells) in rows {
        println!("{name:<20} {:<18} {:<18}", cells[0], cells[1]);
    }
}
