//! Coverage probe: quantifies the coverage-guided fuzzing engine.
//!
//! Part 1 races blind random fuzzing against the coverage-guided
//! campaign (toggle map + mutation corpus) on the insecure Table-2
//! cells: per seed, each mode reports its trials-to-leak, and the
//! per-cell medians are compared. Coverage guidance must beat the blind
//! median on at least two cells — the engine's reason to exist.
//!
//! Part 2 re-runs portfolio cells with coverage off and on and demands
//! identical verdicts — guidance redistributes trials, it must never
//! change what a campaign concludes.
//!
//! Exits 1 when coverage wins fewer than two cells, when a verdict
//! differs, or when a coverage-on run fails to report coverage stats
//! (checked after a JSON round-trip, so the archived artifact carries
//! them). `--json <path>` archives the coverage-on portfolio runs
//! (their `coverage` blocks included) for CI.

use std::time::{Duration, Instant};

use csl_bench::{budget_secs, report_args, write_reports};
use csl_contracts::Contract;
use csl_core::api::{Budget as ApiBudget, CampaignReport, FuzzPlan, Mode, Report, Verifier};
use csl_core::{run_fuzz, DesignKind, FuzzOutcome, Scheme};
use csl_cpu::Defense;
use csl_isa::IsaConfig;
use csl_mc::SafetyCheck;
use csl_sat::Budget;

/// The raw shadow instance + ISA config for a design (fuzzing needs the
/// stimulus sizes).
fn instance(design: DesignKind) -> (SafetyCheck, IsaConfig) {
    let query = Verifier::new()
        .design(design)
        .contract(Contract::Sandboxing)
        .scheme(Scheme::Shadow)
        .with_candidates(false)
        .query()
        .expect("design and contract are set");
    let isa = query.config().cpu_config().isa;
    (query.raw_instance(), isa)
}

/// Trials-to-leak for one campaign; `cap` when the budget ran dry clean.
fn trials_to_leak(aig: &csl_hdl::Aig, isa: &IsaConfig, plan: &FuzzPlan, cap: usize) -> usize {
    let report = run_fuzz(aig, isa, plan, &Budget::unlimited());
    match &report.outcome {
        FuzzOutcome::Leak(f) => f.trials,
        FuzzOutcome::Exhausted { .. } => cap,
    }
}

fn median(mut xs: Vec<usize>) -> usize {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

fn main() {
    let args = report_args("coverprobe");
    if args.cache.is_some() {
        println!("note: coverprobe always bypasses the result cache (live campaigns only)");
    }
    let mut failures: Vec<String> = Vec::new();
    let wall = Instant::now();

    println!("== part 1: trials-to-leak, blind vs coverage-guided (insecure Table-2 cells) ==");
    let seeds = [7u64, 9, 23, 41, 57];
    let cap = 4096;
    let insecure = [
        DesignKind::SimpleOoo(Defense::None),
        DesignKind::SuperOoo,
        DesignKind::BigOoo,
    ];
    let mut wins = 0;
    for design in insecure {
        let (task, isa) = instance(design);
        let mut blind = Vec::new();
        let mut guided = Vec::new();
        for seed in seeds {
            let base = FuzzPlan::new().trials(cap).cycles(20).seed(seed);
            blind.push(trials_to_leak(&task.aig, &isa, &base, cap));
            guided.push(trials_to_leak(
                &task.aig,
                &isa,
                &base.clone().coverage(true),
                cap,
            ));
        }
        let (bm, gm) = (median(blind.clone()), median(guided.clone()));
        let won = gm < bm;
        wins += won as usize;
        println!(
            "{:<22} blind median {bm:>5} {blind:?}\n{:<22} cover median {gm:>5} {guided:?}  {}",
            design.name(),
            "",
            if won { "<< coverage wins" } else { "" }
        );
    }
    println!(
        "coverage wins {wins}/{} cells (target >= 2)",
        insecure.len()
    );
    if wins < 2 {
        failures.push(format!(
            "coverage guidance beat blind fuzzing on only {wins} insecure cells (need 2)"
        ));
    }

    let mut archived: Vec<Report> = Vec::new();
    println!();
    println!("== part 2: verdict identity, coverage off vs on ==");
    let cells = [
        (DesignKind::SingleCycle, false),
        (DesignKind::SimpleOoo(Defense::None), true),
    ];
    for (design, attack_only) in cells {
        let run = |coverage: bool| {
            Verifier::new()
                .design(design)
                .contract(Contract::Sandboxing)
                .scheme(Scheme::Shadow)
                .with_candidates(false)
                .mode(Mode::Portfolio)
                .attack_only(attack_only)
                .budget(ApiBudget::wall(Duration::from_secs(budget_secs(30))))
                .bmc_depth(if attack_only { 2 } else { 6 })
                .fuzz(
                    FuzzPlan::new()
                        .trials(100_000)
                        .cycles(20)
                        .seed(7)
                        .coverage(coverage),
                )
                .query()
                .expect("configured")
                .run()
        };
        let off = run(false);
        let on = run(true);
        let same = off.cell() == on.cell();
        println!(
            "{:<22} off {:6} [{:.1}s]  on {:6} [{:.1}s]{}",
            design.name(),
            off.cell(),
            off.elapsed.as_secs_f64(),
            on.cell(),
            on.elapsed.as_secs_f64(),
            if same { "" } else { "  << VERDICT MISMATCH" }
        );
        if !same {
            failures.push(format!(
                "{}: coverage flipped the verdict {} -> {}",
                design.name(),
                off.cell(),
                on.cell()
            ));
        }
        // Round-trip through the canonical JSON so the gate checks what
        // the archived artifact actually says, not just the in-memory
        // struct.
        let parsed = Report::from_json(&on.to_json()).expect("own JSON parses");
        match &parsed.coverage {
            Some(cov) => println!(
                "    | coverage: {}/{} latches, {} signatures, corpus {}",
                cov.latches_toggled, cov.latches_total, cov.signatures, cov.corpus_size
            ),
            None => failures.push(format!(
                "{}: coverage-on portfolio run carries no coverage stats",
                design.name()
            )),
        }
        archived.push(on);
    }

    let campaign = CampaignReport {
        reports: archived,
        wall: wall.elapsed(),
    };
    write_reports(&campaign, &args);

    if !failures.is_empty() {
        println!();
        for f in &failures {
            println!("FAILURE: {f}");
        }
        std::process::exit(1);
    }
    println!();
    println!("coverprobe: all checks passed");
}
