//! The closed loop shared by the untraced and traced runs: set-up, one
//! query per cell, the verdict and evidence checks, and the rerun
//! through a fresh report cache.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use contract_shadow_logic::certify::{check_certificate, check_witness, Witness};
use contract_shadow_logic::core::api::{Query, Report, ReportCache};
use contract_shadow_logic::core::{run_fuzz, FuzzOutcome, FuzzReport};
use contract_shadow_logic::isa::IsaConfig;
use contract_shadow_logic::mc::{prepare, SafetyCheck, Trace, Verdict};
use contract_shadow_logic::sat::Budget;

use crate::measure::{derive_seed, HostClock, Ledger, Span, SplitMix};
use crate::workload::{expected_secure, Cell, Workload};

/// Fewest set-up repetitions per run, and the least time they must
/// cover in total; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
pub const SETUP_MIN_SECS: f64 = 0.25;

/// Every run makes at least this many timed rounds, so the exact-repeat
/// guard always has a second round to compare against.
pub const MIN_ROUNDS: usize = 2;

const STREAM_ORDER: u64 = 1;
const STREAM_FUZZ: u64 = 2;

/// A cell with its query and raw instance built. Set-up also prepares
/// the instance; queries prepare their own, so only the raw one is kept.
pub struct Prepared {
    pub cell: Cell,
    pub query: Query,
    pub raw: SafetyCheck,
    pub isa: IsaConfig,
}

/// Builds and prepares every instance of `workload` once.
pub fn setup(workload: Workload) -> Vec<Prepared> {
    workload
        .cells()
        .into_iter()
        .map(|cell| {
            let query = workload.query(cell);
            let raw = query.raw_instance();
            let opts = query.options();
            std::hint::black_box(prepare(&raw, &opts.prepare, opts.keep_probes));
            let isa = query.config().cpu_config().isa;
            Prepared {
                cell,
                query,
                raw,
                isa,
            }
        })
        .collect()
}

/// What one query returned.
pub enum Answer {
    Formal(Report),
    Fuzz { seed: u64, report: FuzzReport },
}

impl Answer {
    /// Table cell text: CEX / PROOF / T/O / UNK, and NONE for a fuzz
    /// campaign that found no leak.
    pub fn verdict(&self) -> &'static str {
        match self {
            Answer::Formal(r) => r.verdict.cell(),
            Answer::Fuzz { report, .. } => match report.outcome {
                FuzzOutcome::Leak(_) => "CEX",
                FuzzOutcome::Exhausted { .. } => "NONE",
            },
        }
    }

    pub fn decided(&self) -> bool {
        matches!(self.verdict(), "CEX" | "PROOF")
    }

    /// The attack trace, in raw-netlist vocabulary, if the query found
    /// one.
    pub fn attack(&self) -> Option<&Trace> {
        match self {
            Answer::Formal(r) => match &r.verdict {
                Verdict::Attack(trace) => Some(trace),
                _ => None,
            },
            Answer::Fuzz { report, .. } => match &report.outcome {
                FuzzOutcome::Leak(f) => Some(&f.trace),
                FuzzOutcome::Exhausted { .. } => None,
            },
        }
    }
}

/// One timed query.
pub struct Outcome {
    pub index: usize,
    pub span: Span,
    pub answer: Answer,
}

/// The fuzz seed of cell `index` in round `round`. Every round draws
/// fresh seeds: time to leak varies a lot from seed to seed, and only
/// many seeds per run make its percentiles steady. The rerun repeats each
/// campaign for the exact-repeat guard.
pub fn fuzz_seed(seed: u64, round: usize, index: usize, cells: usize) -> u64 {
    derive_seed(seed, STREAM_FUZZ, (round * cells + index) as u64)
}

/// The cell order of round `round`: a seeded permutation.
pub fn round_order(seed: u64, round: usize, cells: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..cells).collect();
    SplitMix::new(derive_seed(seed, STREAM_ORDER, round as u64)).shuffle(&mut order);
    order
}

/// Runs cell `index`'s query once: `Query::run` for a formal cell, the
/// round's campaign for a fuzz cell.
pub fn run_cell(
    workload: Workload,
    cells: &[Prepared],
    index: usize,
    seed: u64,
    round: usize,
) -> Answer {
    let p = &cells[index];
    if workload.is_fuzz() {
        let seed = fuzz_seed(seed, round, index, cells.len());
        let plan = Workload::fuzz_plan(p.cell, seed);
        let report = run_fuzz(&p.raw.aig, &p.isa, &plan, &Budget::unlimited());
        Answer::Fuzz { seed, report }
    } else {
        Answer::Formal(p.query.run())
    }
}

/// A CEX on a secure design or a PROOF on an insecure one.
fn is_wrong(cell: Cell, answer: &Answer) -> bool {
    let secure = expected_secure(cell.design);
    match answer.verdict() {
        "CEX" => secure,
        "PROOF" => !secure,
        _ => false,
    }
}

/// Re-checks a decided verdict's evidence against the raw instance:
/// attacks must replay, proofs must carry a certificate `csl_certify`
/// accepts. `Err` names the failure.
fn audit(p: &Prepared, answer: &Answer) -> Result<(), String> {
    if let Some(trace) = answer.attack() {
        return check_witness(&p.raw.aig, &Witness::new(trace.clone()))
            .map(|_| ())
            .map_err(|e| format!("witness rejected: {e}"));
    }
    match answer {
        Answer::Formal(r) if r.verdict.is_proof() => match &r.certificate {
            Some(cert) => check_certificate(&p.raw, cert)
                .map(|_| ())
                .map_err(|e| format!("certificate rejected: {e}")),
            None => Err("proof carries no certificate".to_string()),
        },
        _ => Ok(()),
    }
}

/// Records the counts of one answer that must repeat exactly: the
/// verdict per cell, the leak trial per fuzz seed, and the solver
/// counters of sequential (deterministic) queries.
fn record_repeats(ledger: &mut Ledger, workload: Workload, cell: Cell, answer: &Answer) {
    let base = format!("{}/{}", workload.name(), cell.label());
    match answer {
        Answer::Formal(r) => {
            ledger.check(&format!("{base}/verdict"), r.verdict.cell());
            if workload == Workload::Attack {
                let lanes: Vec<String> = r
                    .solver
                    .iter()
                    .map(|s| {
                        format!(
                            "{:?}:{}/{}/{}",
                            s.lane, s.conflicts, s.decisions, s.propagations
                        )
                    })
                    .collect();
                ledger.check(&format!("{base}/solver"), &lanes.join(","));
            }
        }
        Answer::Fuzz { seed, report } => {
            ledger.check(&format!("{base}/seed={seed}"), &campaign_end(report));
        }
    }
}

/// How a fuzz campaign ended: the trial and cycle of its first leak, or
/// the trials it ran without one.
fn campaign_end(report: &FuzzReport) -> String {
    match &report.outcome {
        FuzzOutcome::Leak(f) => format!("leak@{}/{}", f.trials, f.cycle),
        FuzzOutcome::Exhausted { trials, .. } => format!("none@{trials}"),
    }
}

/// Tallies of the checks made on every answer.
#[derive(Default)]
pub struct Checks {
    pub queries: usize,
    pub decided: usize,
    pub wrong: Vec<String>,
    pub audit_failures: Vec<String>,
}

impl Checks {
    /// Judges one answer: counts it, compares it with the known answer,
    /// audits its evidence, and records its repeat counts in `ledger`.
    pub fn judge(
        &mut self,
        ledger: &mut Ledger,
        workload: Workload,
        p: &Prepared,
        answer: &Answer,
    ) {
        self.queries += 1;
        if is_wrong(p.cell, answer) {
            self.wrong
                .push(format!("{}: {}", p.cell.label(), answer.verdict()));
        }
        if answer.decided() {
            self.decided += 1;
            if let Err(e) = audit(p, answer) {
                self.audit_failures.push(format!("{}: {e}", p.cell.label()));
            }
        }
        record_repeats(ledger, workload, p.cell, answer);
    }

    pub fn decided_share(&self) -> f64 {
        self.decided as f64 / self.queries.max(1) as f64
    }

    /// Every failed check of the run, the ledger's repeat mismatches
    /// included.
    pub fn failures(&self, ledger: &Ledger) -> Vec<String> {
        let wrong = self.wrong.iter().map(|e| format!("wrong verdict {e}"));
        let audit = self.audit_failures.iter().map(|e| format!("audit {e}"));
        let repeat = ledger.mismatches().iter().map(|e| format!("repeat {e}"));
        wrong.chain(audit).chain(repeat).collect()
    }
}

/// A scratch directory for report caches, beside the benchmark binary
/// (inside the build directory, which lives in the checkout).
pub fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let exe = std::env::current_exe().expect("the running binary has a path");
    let base = exe.parent().unwrap_or(Path::new(".")).to_path_buf();
    base.join("perfbench-scratch").join(format!(
        "{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// One rerun of a round: the decided reports go into a fresh
/// [`ReportCache`], then `Query::run_cached` runs on every cell (cache
/// hits pay verify-on-load, undecided cells re-solve). Fuzz campaigns
/// have no cache, so each runs again with its seed and must end exactly
/// as before. Returns each cell's timed span and verdict; verdicts that
/// differ from the round's, campaigns that end differently and evidence
/// the cache rejects are pushed to `failures`.
pub fn rerun(
    workload: Workload,
    cells: &[Prepared],
    round: &[Outcome],
    clock: &mut HostClock,
    failures: &mut Vec<String>,
) -> Vec<(Span, &'static str)> {
    if workload.is_fuzz() {
        return round
            .iter()
            .map(|o| {
                let p = &cells[o.index];
                let Answer::Fuzz { seed, report } = &o.answer else {
                    unreachable!("fuzz workloads answer with campaigns")
                };
                let plan = Workload::fuzz_plan(p.cell, *seed);
                let (again, span) =
                    clock.time(|| run_fuzz(&p.raw.aig, &p.isa, &plan, &Budget::unlimited()));
                let (before, after) = (campaign_end(report), campaign_end(&again));
                if before != after {
                    failures.push(format!(
                        "repeat {} seed={seed}: {after} on rerun (earlier {before})",
                        p.cell.label()
                    ));
                }
                (span, o.answer.verdict())
            })
            .collect();
    }

    let dir = scratch_dir("rerun");
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ReportCache::new(&dir);
    for o in round {
        if let Answer::Formal(report) = &o.answer {
            if o.answer.decided() {
                let key = cells[o.index].query.cache_key();
                if let Err(e) = cache.store(key, report) {
                    failures.push(format!("cache store failed: {e}"));
                }
            }
        }
    }
    let timed: Vec<(Span, &'static str)> = round
        .iter()
        .map(|o| {
            let (report, span) = clock.time(|| cells[o.index].query.run_cached(&cache));
            (span, report.verdict.cell())
        })
        .collect();
    for (o, (_, v)) in round.iter().zip(&timed) {
        if *v != o.answer.verdict() {
            failures.push(format!(
                "rerun {}: {v} (run said {})",
                cells[o.index].cell.label(),
                o.answer.verdict()
            ));
        }
    }
    let rejected = cache.stats().rejected;
    if rejected > 0 {
        failures.push(format!(
            "rerun: {rejected} cached reports failed verify-on-load"
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);
    timed
}
