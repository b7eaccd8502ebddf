//! **§7.1.4** — iterative attack discovery on the BOOM stand-in, and the
//! comparison with UPEC's fixed speculation source.
//!
//! Paper's sequence: (1) a misalignment-exception attack (120 min), then
//! after excluding misaligned programs (2) an illegal-access-exception
//! attack (8.7 h), then after excluding those (3) a branch-misprediction
//! attack under constant-time (1.4 h), and finally (4) a timeout once all
//! discovered sources are excluded. UPEC, whose manual invariants assume
//! branch misprediction is the only speculation source, cannot find (1) or
//! (2).

use csl_bench::{bmc_depth, budget_secs, header, show, verifier};
use csl_contracts::Contract;
use csl_core::api::Verifier;
use csl_core::{DesignKind, ExcludeRule, Scheme};
use csl_mc::Verdict;

fn round(excludes: Vec<ExcludeRule>, scheme: Scheme, label: &str) -> Option<String> {
    let report = verifier(&Verifier::new(), budget_secs(240), bmc_depth(12), true)
        .design(DesignKind::BigOoo)
        .contract(Contract::Sandboxing)
        .scheme(scheme)
        .excludes(&excludes)
        .query()
        .expect("design and contract are set")
        .run();
    show(label, &report);
    match &report.verdict {
        Verdict::Attack(t) => Some(t.bad_name.clone()),
        _ => None,
    }
}

fn main() {
    header(
        "§7.1.4: attack discovery on BigOoO (BOOM stand-in), sandboxing",
        "paper §7.1.4 attack sequence",
    );
    println!("-- Contract Shadow Logic: no speculation source specified --");
    round(
        vec![],
        Scheme::Shadow,
        "round 1: unrestricted program space",
    );
    round(
        vec![ExcludeRule::MisalignedAccesses],
        Scheme::Shadow,
        "round 2: misaligned accesses excluded",
    );
    round(
        vec![
            ExcludeRule::MisalignedAccesses,
            ExcludeRule::IllegalAccesses,
        ],
        Scheme::Shadow,
        "round 3: all exception sources excluded",
    );
    round(
        vec![
            ExcludeRule::MisalignedAccesses,
            ExcludeRule::IllegalAccesses,
            ExcludeRule::TakenBranches,
        ],
        Scheme::Shadow,
        "round 4: every discovered source excluded",
    );
    println!();
    println!("-- UPEC approximation: speculation source fixed to branches --");
    round(vec![], Scheme::Upec, "UPEC, unrestricted program space");
    println!(
        "\nUPEC's attack (when found) exploits branch misprediction only; \
         the exception attacks of rounds 1-2 are outside its model."
    );
}
