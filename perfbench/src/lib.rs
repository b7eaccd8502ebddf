//! The repository benchmark: time to verdict, decided share and audited
//! evidence over the `attack`, `proof`, `hard_proof` and `fuzz`
//! workloads, plus a traced run that times each layer from outside.
//!
//! One single-threaded, closed-loop client drives the public API: the
//! next query is sent only after the previous one returned. Set-up
//! (building and preparing every instance) is timed on its own and the
//! timed queries start after it. See `perfbench/README.md`.

pub mod layers;
pub mod measure;
pub mod run;
pub mod workload;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use measure::{median, quantile, with_peak, HostClock, Ledger, Span};
use run::{
    rerun, round_order, run_cell, setup, Checks, Outcome, MIN_ROUNDS, SETUP_MIN_SECS, SETUP_REPS,
};
use workload::Workload;

/// End-to-end metrics `(name, unit)`, reported by untraced runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("verdict_p50_s", "s"),
    ("verdict_p90_s", "s"),
    ("rerun_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Command-line arguments.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    pub const USAGE: &'static str =
        "usage: perfbench --workload <attack|proof|hard_proof|fuzz> --seed <n> --seconds <n> --trace <0|1>";

    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = 0;
        let mut seconds = 10;
        let mut trace = false;
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value; {}", Args::USAGE))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag} takes a whole number, got `{value}`"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::from_name(&value)
                            .ok_or_else(|| format!("unknown workload `{value}`"))?,
                    )
                }
                "--seed" => seed = number()?,
                "--seconds" => seconds = number()?,
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                    }
                }
                _ => return Err(format!("unknown argument `{flag}`; {}", Args::USAGE)),
            }
        }
        Ok(Args {
            workload: workload.ok_or_else(|| format!("--workload is required; {}", Args::USAGE))?,
            seed,
            seconds,
            trace,
        })
    }
}

/// A finished run: the lines to print, the checks' failures, and the
/// metrics of the result line.
pub struct RunResult {
    pub lines: Vec<String>,
    pub attempted: usize,
    pub failures: Vec<String>,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunResult {
    /// The result object, printed as the last line of stdout.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted,
            self.failures.len(),
            metrics.join(", ")
        )
    }
}

/// Build and host facts every run records.
pub fn provenance(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rev = if std::path::Path::new(".git").exists() {
        std::process::Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    } else {
        "none (not a git checkout)".to_string()
    };
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={nproc} rev={rev} profile={profile}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    )
}

/// Runs the benchmark `args` describe.
pub fn run(args: &Args, ledger: &mut Ledger) -> RunResult {
    if args.trace {
        layers::run_traced(args, ledger)
    } else {
        run_untraced(args, ledger)
    }
}

/// Shares of the elapsed run that the side samples taken between rounds
/// may use up: extra set-ups, and reruns. A rerun re-solves the cells a
/// round left undecided, so on `proof` it costs most of a round, and only
/// a larger share gives its median enough samples.
const SETUP_SHARE: f64 = 0.1;
const RERUN_SHARE: f64 = 0.25;

fn run_untraced(args: &Args, ledger: &mut Ledger) -> RunResult {
    let w = args.workload;
    let mut lines = vec![provenance(args)];
    let mut clock = HostClock::default();
    let start = Instant::now();
    let ((cells, first_setup), setup_peak) = with_peak(|| clock.time(|| setup(w)));
    let mut setups = vec![first_setup];
    let mut reruns: Vec<Vec<(Span, &str)>> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut checks = Checks::default();

    // Warm-up round: fills the caches' working sets and the library's
    // lazy state, so it is judged but not timed. In every round, freed
    // heap memory goes back to the kernel and the peak is reset before
    // each query, so each memory reading covers that query alone. A
    // round's memory is the highest of its queries' peaks and the
    // set-up's. A timed-out query's peak does not count: how far it got
    // before its wall-clock budget ran out, and so what it held, depends
    // on the host's speed.
    let counts = |answer: &run::Answer| answer.verdict() != "T/O";
    let mut peaks: Vec<f64> = Vec::new();
    let mut peak_mb: f64 = setup_peak;
    for i in round_order(args.seed, 0, cells.len()) {
        let (answer, peak) = with_peak(|| run_cell(w, &cells, i, args.seed, 0));
        if counts(&answer) {
            peak_mb = peak_mb.max(peak);
        }
        checks.judge(ledger, w, &cells[i], &answer);
    }
    peaks.push(peak_mb);

    // Closed loop: every cell once per round in a seeded order, until
    // `seconds` have passed and at least MIN_ROUNDS rounds ran. Between
    // rounds, set-ups and reruns of the round are timed until each kind
    // has used its share of the run so far, so those samples span the run
    // like the queries do.
    let (mut setup_total, mut rerun_total) = (first_setup.secs, 0.0);
    let mut rounds: Vec<Vec<Outcome>> = Vec::new();
    while rounds.len() < MIN_ROUNDS || start.elapsed() < Duration::from_secs(args.seconds) {
        let r = 1 + rounds.len();
        let mut round = Vec::with_capacity(cells.len());
        let mut peak_mb: f64 = setup_peak;
        for i in round_order(args.seed, r, cells.len()) {
            let ((answer, span), peak) =
                with_peak(|| clock.time(|| run_cell(w, &cells, i, args.seed, r)));
            if counts(&answer) {
                peak_mb = peak_mb.max(peak);
            }
            checks.judge(ledger, w, &cells[i], &answer);
            round.push(Outcome {
                index: i,
                span,
                answer,
            });
        }
        peaks.push(peak_mb);
        let elapsed = start.elapsed().as_secs_f64();
        while setup_total < SETUP_SHARE * elapsed {
            let span = clock.time(|| std::hint::black_box(setup(w))).1;
            setups.push(span);
            setup_total += span.secs;
        }
        while rerun_total < RERUN_SHARE * elapsed {
            let timed = rerun(w, &cells, &round, &mut clock, &mut failures);
            rerun_total += timed.iter().map(|(span, _)| span.secs).sum::<f64>();
            reruns.push(timed);
        }
        rounds.push(round);
    }
    while setups.len() < SETUP_REPS || setup_total < SETUP_MIN_SECS {
        let span = clock.time(|| std::hint::black_box(setup(w))).1;
        setups.push(span);
        setup_total += span.secs;
    }

    // Every time is taken at the nominal host speed (see `HostClock`),
    // except a timeout's: its budget is wall-clock time whatever the
    // host's speed, so it counts at its measured time.
    // Percentiles are over the distinct queries of the run, each at the
    // median of its repeats: with every cell repeated equally often this
    // tracks the per-query percentiles, without the jumps an order
    // statistic makes at the edge between two cells' times.
    let secs = |span: Span, verdict: &str| {
        if verdict == "T/O" {
            span.secs
        } else {
            clock.normalized(span)
        }
    };
    let mut repeats: BTreeMap<(usize, usize), Vec<f64>> = BTreeMap::new();
    for (r, round) in rounds.iter().enumerate() {
        let set = if w.is_fuzz() { r } else { 0 };
        for o in round {
            repeats
                .entry((o.index, set))
                .or_default()
                .push(secs(o.span, o.answer.verdict()));
        }
    }
    let typical: Vec<f64> = repeats.values().map(|t| median(t)).collect();
    let walls: Vec<f64> = rounds
        .iter()
        .map(|r| r.iter().map(|o| secs(o.span, o.answer.verdict())).sum())
        .collect();
    let raw_walls: Vec<f64> = rounds
        .iter()
        .map(|r| r.iter().map(|o| o.span.secs).sum())
        .collect();
    let setup_s: Vec<f64> = setups.iter().map(|&s| clock.normalized(s)).collect();
    let rerun_s: Vec<f64> = reruns
        .iter()
        .map(|cells| cells.iter().map(|&(span, v)| secs(span, v)).sum())
        .collect();
    let metrics = vec![
        ("setup_s", median(&setup_s), "s"),
        ("wall_s", median(&walls), "s"),
        ("verdict_p50_s", quantile(&typical, 0.5), "s"),
        ("verdict_p90_s", quantile(&typical, 0.9), "s"),
        ("rerun_s", median(&rerun_s), "s"),
        ("peak_rss_mb", median(&peaks), "MB"),
    ];

    for (i, p) in cells.iter().enumerate() {
        let mine: Vec<&Outcome> = rounds.iter().flatten().filter(|o| o.index == i).collect();
        let t: Vec<f64> = mine
            .iter()
            .map(|o| secs(o.span, o.answer.verdict()))
            .collect();
        lines.push(format!(
            "cell {:<44} {:<5} x{:<4} median {:.4} s",
            p.cell.label(),
            mine[0].answer.verdict(),
            mine.len(),
            median(&t)
        ));
    }
    lines.push(format!(
        "rounds {} queries {} reruns {} setups {}",
        rounds.len(),
        checks.queries,
        reruns.len(),
        setups.len()
    ));
    for (name, value, unit) in &metrics {
        lines.push(format!("metric {name} = {value} {unit}"));
    }
    lines.push(format!("metric host_speed = {} share", clock.host_speed()));
    lines.push(format!("metric wall_unscaled_s = {} s", median(&raw_walls)));
    lines.push(format!(
        "metric decided_share = {} share",
        checks.decided_share()
    ));
    lines.push(format!(
        "metric wrong_verdicts = {} count",
        checks.wrong.len()
    ));
    lines.push(format!(
        "metric audit_failures = {} count",
        checks.audit_failures.len()
    ));
    if w.is_fuzz() {
        let (leak_trials, trials_per_s) =
            layers::fuzz_rates(rounds.iter().flatten().filter_map(|o| match &o.answer {
                run::Answer::Fuzz { report, .. } => Some(report),
                run::Answer::Formal(_) => None,
            }));
        lines.push(format!("metric leak_trials = {leak_trials} count"));
        lines.push(format!("metric trials_per_s = {trials_per_s} 1/s"));
    }

    failures.extend(checks.failures(ledger));
    RunResult {
        lines,
        attempted: checks.queries + reruns.len() * cells.len(),
        failures,
        metrics,
    }
}
