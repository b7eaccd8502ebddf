//! Diagnostic probe: sequential vs portfolio `check_safety` on the
//! single-cycle design, every scheme, with per-engine notes. Use
//! `CSL_BUDGET_SECS` to widen the per-cell budget when hunting for the
//! point where the proof engines converge. `--json <path>` /
//! `--csv <path>` dump the probe results (both modes, all schemes) as a
//! structured campaign report for cross-commit diffing. Decided cells
//! are served from the session cache (the two modes key separately —
//! the mode is part of the cache key) unless `--no-cache`.

use csl_bench::{bmc_depth, budget_secs, report_args, verifier, write_reports};
use csl_contracts::Contract;
use csl_core::api::{CampaignReport, Mode};
use csl_core::{DesignKind, Scheme};

fn main() {
    let args = report_args("portfolioprobe");
    let wall = std::time::Instant::now();
    let mut reports = Vec::new();
    for scheme in Scheme::ALL {
        for mode in [Mode::Sequential, Mode::Portfolio] {
            let query = verifier(&args.verifier, budget_secs(45), bmc_depth(6), false)
                .design(DesignKind::SingleCycle)
                .contract(Contract::Sandboxing)
                .scheme(scheme)
                .mode(mode)
                .query()
                .expect("design and contract are set");
            let report = args.run(&query);
            println!(
                "{:<22} {:?}: {} in {:.1}s",
                scheme.name(),
                mode,
                report.cell(),
                report.elapsed.as_secs_f64()
            );
            for n in &report.notes {
                println!("    | {n}");
            }
            // Both modes of a scheme share a cell identity; only the
            // sequential row goes into the diffable report so the cell
            // set stays unique per (scheme, design, contract).
            if mode == Mode::Sequential {
                reports.push(report);
            }
        }
    }
    let campaign = CampaignReport {
        reports,
        wall: wall.elapsed(),
    };
    write_reports(&campaign, &args);
}
