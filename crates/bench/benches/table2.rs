//! **Table 2** — comparing Baseline, LEAVE, UPEC and Contract Shadow Logic
//! on five processor designs under the sandboxing contract.
//!
//! Paper's result shape:
//!
//! | scheme   | Sodor | SimpleOoO-S | SimpleOoO | Ridecore | BOOM |
//! |----------|-------|-------------|-----------|----------|------|
//! | Baseline | T/O   | T/O         | ATTACK    | ATTACK   |  -   |
//! | LEAVE    | PROOF | UNKNOWN(⚠)  | UNKNOWN(⚠)|    -     |  -   |
//! | UPEC     |  -    |      -      |     -     |    -     | ATTACK (partial) |
//! | Ours     | PROOF | PROOF       | ATTACK    | ATTACK   | ATTACK |
//!
//! (`-` = not evaluated in the paper; we run every cell.)
//!
//! The whole matrix runs through the campaign runner: cells in parallel
//! on the worker pool, engines inside each cell racing as a portfolio.
//! Budgets stand in for the 7-day timeout; tune with `CSL_BUDGET_SECS`
//! (uniform override) or `CSL_FAST=1`.

use csl_bench::{bmc_depth, budget_secs, header, show, show_campaign, table2_matrix};
use csl_core::api::Verifier;

fn main() {
    header(
        "TABLE 2: scheme comparison, sandboxing contract",
        "paper Table 2",
    );
    // Proof-capable budget; the BMC prefix is kept shallow so the proof
    // engines (Houdini/k-induction/PDR) are not starved. The baseline is
    // expected to burn its budget on secure designs and time out.
    let report = table2_matrix(&Verifier::new(), budget_secs(180), bmc_depth(6)).run_all();
    for r in &report.reports {
        show(&r.label(), r);
    }
    show_campaign(&report);
}
