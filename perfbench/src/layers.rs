//! The traced run: the same cells and queries as the untraced run, with
//! every layer also timed from outside by calling its public functions
//! on the cell's instance.
//!
//! Per round, times and counts are summed over the workload's cells
//! (depths and `k` are maxima); each metric is the median over rounds.
//! Fuzz rates and leak positions are taken over every campaign of the
//! run. Every probe runs on every workload, so each layer is measured
//! wherever its input exists; a step with nothing to do on a workload
//! (no proof to certify on `attack`) reads as the few nanoseconds the
//! empty step takes.

use std::collections::BTreeMap;
use std::time::Instant;

use contract_shadow_logic::certify::{check_certificate, check_witness, Witness};
use contract_shadow_logic::core::api::{Report, ReportCache};
use contract_shadow_logic::core::{run_fuzz, FuzzOutcome, FuzzReport};
use contract_shadow_logic::isa::progen::random_stimulus_batch;
use contract_shadow_logic::mc::{
    houdini, k_induction, pdr_with_stats, prepare, BatchSim, BmcResult, BmcSession, HoudiniResult,
    InitMode, KindOptions, KindResult, Lane, PdrOptions, PdrResult, ProofEngine, SafetyCheck,
    SharedContext, TransitionSystem, Unroller, Verdict,
};
use contract_shadow_logic::sat::Budget;
use rand::SeedableRng;

use crate::measure::{median, Ledger};
use crate::run::{fuzz_seed, round_order, run_cell, scratch_dir, setup, Answer, Checks, Prepared};
use crate::workload::{expected_secure, Cell, Workload, BMC_DEPTH};
use crate::{provenance, Args, RunResult};

/// Per-layer metrics `(name, unit)`, reported by traced runs.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("build.s", "s"),
    ("build.ands", "count"),
    ("build.latches", "count"),
    ("prepare.s", "s"),
    ("prepare.ands", "count"),
    ("prepare.latches", "count"),
    ("encode.s", "s"),
    ("encode.vars", "count"),
    ("encode.clauses", "count"),
    ("bmc.s", "s"),
    ("bmc.depth", "count"),
    ("bmc.conflicts", "count"),
    ("bmc.decisions", "count"),
    ("bmc.propagations", "count"),
    ("houdini.s", "s"),
    ("houdini.rounds", "count"),
    ("houdini.survivors", "count"),
    ("kind.s", "s"),
    ("kind.k", "count"),
    ("pdr.s", "s"),
    ("pdr.conflicts", "count"),
    ("pdr.decisions", "count"),
    ("pdr.propagations", "count"),
    ("pdr.spurious_cex", "count"),
    ("sat.conflicts", "count"),
    ("sat.decisions", "count"),
    ("sat.propagations", "count"),
    ("sat.props_per_s", "1/s"),
    ("driver.rest_s", "s"),
    ("certify.witness_s", "s"),
    ("certify.cert_s", "s"),
    ("json.encode_s", "s"),
    ("json.decode_s", "s"),
    ("json.bytes", "bytes"),
    ("cache.store_s", "s"),
    ("cache.load_s", "s"),
    ("stimulus.s", "s"),
    ("fuzz.sim_cycles", "count"),
    ("fuzz.cycles_per_s", "1/s"),
    ("fuzz.leak_cycle", "count"),
    ("fuzz.leak_trials", "count"),
    ("fuzz.trials_per_s", "1/s"),
    ("verdict.decided_share", "share"),
    ("verdict.wrong", "count"),
    ("audit.failures", "count"),
    ("trace.overhead_share", "share"),
    ("trace.extra_s", "s"),
];

/// Trials of the probe campaign run on the formal workloads' designs.
const FUZZ_PROBE_TRIALS: usize = 256;

/// One round's sums.
#[derive(Default)]
struct Acc(BTreeMap<&'static str, f64>);

impl Acc {
    fn add(&mut self, key: &'static str, v: f64) {
        *self.0.entry(key).or_insert(0.0) += v;
    }

    fn max(&mut self, key: &'static str, v: f64) {
        let e = self.0.entry(key).or_insert(0.0);
        *e = e.max(v);
    }

    fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Median trials-to-leak over the leaking campaigns, and trials per
/// second over all of them.
pub fn fuzz_rates<'a>(reports: impl Iterator<Item = &'a FuzzReport>) -> (f64, f64) {
    let mut leaks = Vec::new();
    let (mut trials, mut wall) = (0usize, 0f64);
    for r in reports {
        trials += r.stats.trials;
        wall += r.stats.wall.as_secs_f64();
        if let FuzzOutcome::Leak(f) = &r.outcome {
            leaks.push(f.trials as f64);
        }
    }
    (median(&leaks), trials as f64 / wall.max(1e-9))
}

/// The Shadow instance of a cell's design: what a fuzz campaign runs on.
fn fuzz_instance(cell: Cell) -> SafetyCheck {
    let shadow = Cell {
        scheme: contract_shadow_logic::core::Scheme::Shadow,
        design: cell.design,
    };
    Workload::Fuzz.query(shadow).raw_instance()
}

/// Times each layer on one cell and runs its query; returns the query's
/// seconds and the fuzz campaign the cell contributed.
#[allow(clippy::too_many_arguments)]
fn probe_cell(
    args: &Args,
    cells: &[Prepared],
    fuzz_raw: &[SafetyCheck],
    index: usize,
    round: usize,
    acc: &mut Acc,
    checks: &mut Checks,
    ledger: &mut Ledger,
) -> (f64, FuzzReport) {
    let w = args.workload;
    let p = &cells[index];
    let opts = p.query.options();
    let budget = || Budget::until(Instant::now() + w.probe_budget());

    let t = Instant::now();
    let raw = p.query.raw_instance();
    let build_s = secs(t);
    acc.add("build.s", build_s);
    acc.add("build.ands", raw.aig.num_ands() as f64);
    acc.add("build.latches", raw.aig.num_latches() as f64);

    let t = Instant::now();
    let prep = prepare(&raw, &opts.prepare, opts.keep_probes);
    let prepare_s = secs(t);
    acc.add("prepare.s", prepare_s);
    acc.add("prepare.ands", prep.aig().num_ands() as f64);
    acc.add("prepare.latches", prep.aig().num_latches() as f64);

    let t = Instant::now();
    let answer = run_cell(w, cells, index, args.seed, round);
    let query_s = secs(t);
    checks.judge(ledger, w, p, &answer);

    let t = Instant::now();
    let ts = TransitionSystem::shared(prep.task.aig.clone(), opts.keep_probes);
    let mut u = Unroller::new(&ts, InitMode::Reset);
    for d in 0..=BMC_DEPTH {
        u.ensure_frames(d);
        u.assert_assumes_through(d);
        u.bad_any_at(d);
    }
    acc.add("encode.s", secs(t));
    acc.add("encode.vars", u.solver.num_vars() as f64);
    acc.add("encode.clauses", u.solver.num_clauses() as f64);
    drop(u);

    let t = Instant::now();
    let mut session = BmcSession::new(&ts);
    let depth = match session.run_to(BMC_DEPTH, budget(), &mut SharedContext::disabled(Lane::Bmc)) {
        BmcResult::Cex(trace) => trace.depth(),
        BmcResult::Clean { depth_checked } => depth_checked,
        BmcResult::Timeout { depth_checked } => depth_checked.unwrap_or(0),
    };
    let bmc_s = secs(t);
    let stats = session.solver_stats();
    acc.add("bmc.s", bmc_s);
    acc.max("bmc.depth", depth as f64);
    acc.add("bmc.conflicts", stats.conflicts as f64);
    acc.add("bmc.decisions", stats.decisions as f64);
    acc.add("bmc.propagations", stats.propagations as f64);

    let t = Instant::now();
    let (rounds, survivors) = match houdini(&ts, &prep.task.candidates, budget()) {
        HoudiniResult::Done(out) => (out.rounds, out.survivors.len()),
        HoudiniResult::Timeout => (0, 0),
    };
    let houdini_s = secs(t);
    acc.add("houdini.s", houdini_s);
    acc.add("houdini.rounds", rounds as f64);
    acc.add("houdini.survivors", survivors as f64);

    let t = Instant::now();
    let kind = k_induction(
        &ts,
        KindOptions {
            max_k: opts.kind_max_k,
            unique_states: false,
            budget: budget(),
        },
    );
    let kind_s = secs(t);
    acc.add("kind.s", kind_s);
    acc.max(
        "kind.k",
        match kind {
            KindResult::Proof { k } => k as f64,
            _ => 0.0,
        },
    );

    let t = Instant::now();
    let (pdr, stats) = pdr_with_stats(
        &ts,
        PdrOptions {
            max_frames: opts.pdr_max_frames,
            budget: budget(),
        },
        &mut SharedContext::disabled(Lane::Pdr),
    );
    let pdr_s = secs(t);
    acc.add("pdr.s", pdr_s);
    acc.add("pdr.conflicts", stats.conflicts as f64);
    acc.add("pdr.decisions", stats.decisions as f64);
    acc.add("pdr.propagations", stats.propagations as f64);
    let spurious = matches!(pdr, PdrResult::Cex { .. }) && expected_secure(p.cell.design);
    acc.add("pdr.spurious_cex", spurious as u8 as f64);

    // The formal report of the cell: the query's own, or for a fuzz
    // cell the formal verdict of the same instance.
    let (report, report_s) = match &answer {
        Answer::Formal(r) => (r.clone(), query_s),
        Answer::Fuzz { .. } => {
            let t = Instant::now();
            let r = p.query.run();
            (r, secs(t))
        }
    };
    let solver = |f: fn(&contract_shadow_logic::mc::LaneSolverStats) -> u64| {
        report.solver.iter().map(f).sum::<u64>() as f64
    };
    acc.add("sat.conflicts", solver(|s| s.conflicts));
    acc.add("sat.decisions", solver(|s| s.decisions));
    acc.add("sat.propagations", solver(|s| s.propagations));
    acc.add("sat.query_s", report_s);

    // Query time the directly timed layers do not account for: the
    // deciding engine is the one the verdict names (a timeout spends the
    // budget); a campaign's own clock covers all but its set-up.
    let rest_s = match (&answer, &report.verdict) {
        (Answer::Fuzz { report, .. }, _) => query_s - report.stats.wall.as_secs_f64(),
        (_, verdict) => {
            let engine_s = match verdict {
                Verdict::Attack(_) => bmc_s,
                Verdict::Proof(ProofEngine::Houdini { .. }) => houdini_s,
                Verdict::Proof(ProofEngine::KInduction { .. }) => houdini_s + kind_s,
                Verdict::Proof(ProofEngine::Pdr { .. }) => pdr_s,
                Verdict::Timeout => w.budget().as_secs_f64(),
                Verdict::Unknown { .. } => houdini_s,
            };
            // Portfolio lanes run engines with help an outside probe
            // lacks, so a probe can outlast the whole query.
            (query_s - build_s - prepare_s - engine_s).max(0.0)
        }
    };
    acc.add("driver.rest_s", rest_s);

    let t = Instant::now();
    let witness_ok = answer
        .attack()
        .is_none_or(|trace| check_witness(&raw.aig, &Witness::new(trace.clone())).is_ok());
    acc.add("certify.witness_s", secs(t));
    let t = Instant::now();
    let cert_ok = match &answer {
        Answer::Formal(r) if r.verdict.is_proof() => r
            .certificate
            .as_ref()
            .is_some_and(|c| check_certificate(&raw, c).is_ok()),
        _ => true,
    };
    acc.add("certify.cert_s", secs(t));
    if !witness_ok || !cert_ok {
        checks
            .audit_failures
            .push(format!("{}: traced re-check failed", p.cell.label()));
    }

    let t = Instant::now();
    let text = report.to_json();
    acc.add("json.encode_s", secs(t));
    acc.add("json.bytes", text.len() as f64);
    let t = Instant::now();
    let decoded = Report::from_json(&text);
    acc.add("json.decode_s", secs(t));
    if !decoded.is_ok_and(|d| d.verdict.cell() == report.verdict.cell()) {
        checks.audit_failures.push(format!(
            "{}: report JSON does not round-trip",
            p.cell.label()
        ));
    }

    let dir = scratch_dir("trace-cache");
    let cache = ReportCache::new(&dir);
    let key = p.query.cache_key();
    let t = Instant::now();
    let stored = cache.store(key, &report);
    acc.add("cache.store_s", secs(t));
    let t = Instant::now();
    let loaded = cache.load(key);
    acc.add("cache.load_s", secs(t));
    let decided = report.verdict.is_attack() || report.verdict.is_proof();
    if stored.is_err() || loaded.is_some() != decided {
        checks
            .audit_failures
            .push(format!("{}: cache store/load failed", p.cell.label()));
    }
    let _ = std::fs::remove_dir_all(&dir);

    // The fuzz layer: the cell's own campaign on `fuzz`, a fixed-size
    // probe campaign on the design's Shadow instance elsewhere.
    let campaign = match &answer {
        Answer::Fuzz { report, .. } => report.clone(),
        Answer::Formal(_) => {
            let seed = fuzz_seed(args.seed, round, index, cells.len());
            let plan = Workload::fuzz_plan(p.cell, seed).trials(FUZZ_PROBE_TRIALS);
            run_fuzz(&fuzz_raw[index].aig, &p.isa, &plan, &Budget::unlimited())
        }
    };
    let plan = Workload::fuzz_plan(p.cell, campaign.stats.seed);
    let mut rng = rand::rngs::StdRng::seed_from_u64(campaign.stats.seed);
    let t = Instant::now();
    let mut left = campaign.stats.trials;
    while left > 0 {
        let n = left.min(BatchSim::LANES);
        std::hint::black_box(random_stimulus_batch(&p.isa, &plan.mix, &mut rng, n));
        left -= n;
    }
    acc.add("stimulus.s", secs(t));
    acc.add("fuzz.sim_cycles", campaign.stats.sim_cycles as f64);

    (query_s, campaign)
}

/// Runs one untraced round for the overhead baseline, then traced rounds
/// until `seconds` have passed (at least one).
pub fn run_traced(args: &Args, ledger: &mut Ledger) -> RunResult {
    let w = args.workload;
    let mut lines = vec![provenance(args)];
    let cells = setup(w);
    let fuzz_raw: Vec<SafetyCheck> = cells.iter().map(|p| fuzz_instance(p.cell)).collect();
    let mut checks = Checks::default();

    let baseline: f64 = round_order(args.seed, 0, cells.len())
        .into_iter()
        .map(|i| {
            let t = Instant::now();
            let answer = run_cell(w, &cells, i, args.seed, 0);
            let query_s = secs(t);
            checks.judge(ledger, w, &cells[i], &answer);
            query_s
        })
        .sum();

    let start = Instant::now();
    let mut rounds: Vec<Acc> = Vec::new();
    let mut campaigns: Vec<FuzzReport> = Vec::new();
    let mut first_round_query_s = 0.0;
    while rounds.is_empty() || start.elapsed().as_secs() < args.seconds {
        let r = rounds.len();
        let mut acc = Acc::default();
        let t = Instant::now();
        let mut query_s = 0.0;
        for i in round_order(args.seed, r, cells.len()) {
            let (s, campaign) =
                probe_cell(args, &cells, &fuzz_raw, i, r, &mut acc, &mut checks, ledger);
            query_s += s;
            campaigns.push(campaign);
        }
        if r == 0 {
            first_round_query_s = query_s;
        }
        acc.add("trace.extra_s", secs(t) - query_s);
        let props = acc.get("sat.propagations") / acc.get("sat.query_s").max(1e-9);
        acc.add("sat.props_per_s", props);
        rounds.push(acc);
    }

    let (leak_trials, trials_per_s) = fuzz_rates(campaigns.iter());
    let leak_cycles: Vec<f64> = campaigns
        .iter()
        .filter_map(|c| c.stats.leak_cycle.map(|x| x as f64))
        .collect();
    let (cycles, fuzz_wall) = campaigns.iter().fold((0u64, 0f64), |(c, s), r| {
        (c + r.stats.sim_cycles, s + r.stats.wall.as_secs_f64())
    });
    let run_wide: BTreeMap<&str, f64> = BTreeMap::from([
        ("fuzz.cycles_per_s", cycles as f64 / fuzz_wall.max(1e-9)),
        ("fuzz.leak_cycle", median(&leak_cycles)),
        ("fuzz.leak_trials", leak_trials),
        ("fuzz.trials_per_s", trials_per_s),
        ("verdict.decided_share", checks.decided_share()),
        ("verdict.wrong", checks.wrong.len() as f64),
        ("audit.failures", checks.audit_failures.len() as f64),
        (
            "trace.overhead_share",
            first_round_query_s / baseline.max(1e-9) - 1.0,
        ),
    ]);
    let metrics: Vec<(&'static str, f64, &'static str)> = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = run_wide
                .get(name)
                .copied()
                .unwrap_or_else(|| median(&rounds.iter().map(|a| a.get(name)).collect::<Vec<_>>()));
            (name, value, unit)
        })
        .collect();

    lines.push(format!(
        "traced rounds {} after one untraced round; queries {}",
        rounds.len(),
        checks.queries
    ));
    for (name, value, unit) in &metrics {
        lines.push(format!("metric {name} = {value} {unit}"));
    }
    RunResult {
        lines,
        attempted: checks.queries,
        failures: checks.failures(ledger),
        metrics,
    }
}
