//! Fast end-to-end smoke run: a handful of representative single cells
//! (insecure designs yield CEX, secure designs stay clean in attack-only
//! mode) followed by the smoke campaign matrix. Every run honours the
//! preparation and result-cache flags. `--json <path>` / `--csv <path>`
//! dump the campaign as a structured report so CI can archive it and
//! diff verdicts across commits.

use csl_bench::{
    bmc_depth, budget_secs, report_args, show_campaign, smoke_matrix, verifier, write_reports,
    BinArgs,
};
use csl_contracts::Contract;
use csl_core::api::Report;
use csl_core::{DesignKind, Scheme};
use csl_cpu::Defense;
use csl_mc::Verdict;

fn run(
    args: &BinArgs,
    design: DesignKind,
    contract: Contract,
    scheme: Scheme,
    attack_only: bool,
    budget: u64,
    depth: usize,
) -> Report {
    let query = verifier(
        &args.verifier,
        budget_secs(budget),
        bmc_depth(depth),
        attack_only,
    )
    .design(design)
    .contract(contract)
    .scheme(scheme)
    .query()
    .expect("design and contract are set");
    let report = args.run(&query);
    let extra = match &report.verdict {
        Verdict::Attack(tr) => format!("depth {} bad `{}`", tr.depth(), tr.bad_name),
        Verdict::Proof(e) => format!("{e:?}"),
        Verdict::Unknown { reason } => reason.to_string(),
        Verdict::Timeout => String::new(),
    };
    println!(
        "{:28} {:14} {:8} -> {:6} [{:.1}s] {}",
        design.name(),
        contract.name(),
        scheme.name(),
        report.cell(),
        report.elapsed.as_secs_f64(),
        extra
    );
    report
}

fn main() {
    use Contract::*;
    use Scheme::*;
    let args = report_args("smoke");
    // Insecure: expect CEX.
    run(
        &args,
        DesignKind::SimpleOoo(Defense::None),
        Sandboxing,
        Shadow,
        true,
        120,
        14,
    );
    run(
        &args,
        DesignKind::SimpleOoo(Defense::None),
        ConstantTime,
        Shadow,
        true,
        120,
        14,
    );
    run(
        &args,
        DesignKind::SimpleOoo(Defense::NoFwdFuturistic),
        ConstantTime,
        Shadow,
        true,
        120,
        14,
    );
    // Secure: expect NO cex within depth 12 (UNK in attack-only mode).
    run(
        &args,
        DesignKind::SimpleOoo(Defense::DelaySpectre),
        Sandboxing,
        Shadow,
        true,
        300,
        12,
    );
    run(
        &args,
        DesignKind::SimpleOoo(Defense::DelayFuturistic),
        Sandboxing,
        Shadow,
        true,
        300,
        12,
    );
    run(
        &args,
        DesignKind::InOrder,
        Sandboxing,
        Shadow,
        true,
        120,
        12,
    );
    // The smoke matrix through the campaign runner: every scheme on the
    // single-cycle design, cells in parallel, engines racing per cell.
    // Decided cells are served from the session cache unless --no-cache.
    let mut matrix = smoke_matrix(&args.verifier, budget_secs(60), bmc_depth(8));
    if let Some(cache) = &args.cache {
        matrix = matrix.cache(cache.clone());
    }
    let report = matrix.run_all();
    show_campaign(&report);
    write_reports(&report, &args);
}
