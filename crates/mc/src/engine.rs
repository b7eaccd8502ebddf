//! The engine driver.
//!
//! [`check_safety`] is the "push-button model checker" entry point the
//! schemes in `csl-core` call: it mirrors the paper's JasperGold workflow
//! (§6) of running attack-finding (their `Ht` engine → our BMC) and proof
//! engines (their `Mp`/`AM` → our Houdini / k-induction / PDR) against one
//! instrumented design, with a wall-clock budget standing in for the
//! 7-day timeout, and reports one of the paper's three outcomes: a
//! counterexample (attack), an unbounded proof, or a timeout.
//!
//! The four schemes of Table 2 differ only in the instance they build
//! and the [`Schedule`] they run on it. A schedule is a list of stages;
//! the lanes of a stage race through [`crate::portfolio::race`] under the
//! enclosing budget, and one merge rule applies after every stage: an
//! attack beats a proof beats a timeout beats going on. One
//! function, `drive`, runs every schedule and builds the
//! [`CheckReport`] from the lane runs:
//!
//! * sequential ([`ExecMode::Sequential`]): each extra lane in its own
//!   stage, then `[BMC] → [Houdini] → [k-induction] → [PDR]`, Houdini
//!   survivors strengthening the instance for the later stages;
//! * portfolio ([`ExecMode::Portfolio`]): one stage racing every engine,
//!   the Houdini lane running [`Schedule::houdini_tail`] as a nested
//!   schedule on its own thread;
//! * LEAVE: `[Houdini]` alone; UPEC: `[BMC] → [k-induction with k ≤ 1]`
//!   (built in `csl-core` and run through [`check_schedule`]).
//!
//! [Preparation](mod@crate::prepare) runs on demand: a stage of BMC
//! lanes alone runs on the netlist as given, because BMC's reset
//! unrolling already folds the reset constants and shares the gates
//! preparation would. The [`PreparedInstance`] is built once, when the
//! first stage holding any other engine starts, and the later stages
//! run on it. An attack from a prepared stage is lifted back to the
//! given netlist where its lane returns; every attack then replays on
//! the given, unstrengthened netlist before it counts (BMC's count
//! regardless, with the failure noted), and a proof on a strengthened
//! instance carries the survivors in its certificate.

use std::time::{Duration, Instant};

use csl_hdl::xform::PassStats;
use csl_hdl::Aig;
use csl_sat::Budget;

use crate::cert::Certificate;
use crate::houdini::Candidate;
use crate::lane::{Lane, LaneSolverStats};
use crate::portfolio::{
    race, Backend, BmcBackend, EngineOutcome, HoudiniBackend, KindBackend, LaneFactory, LaneResult,
    PdrBackend,
};
use crate::prepare::{prepare, PrepareConfig, PreparedInstance};
use crate::sim::Sim;
use crate::trace::Trace;

/// Which engine completed an unbounded proof.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProofEngine {
    /// Houdini-filtered relational invariants alone imply safety
    /// (LEAVE's success mode).
    Houdini { invariants: usize },
    /// k-induction (optionally strengthened by Houdini lemmas).
    KInduction { k: usize },
    /// IC3/PDR (optionally strengthened by Houdini lemmas).
    Pdr {
        frames: usize,
        clauses: usize,
        /// Frame at which propagation found the inductive fixpoint
        /// (≤ `frames`; proof strength at a glance).
        fixpoint_level: usize,
    },
}

/// Why an engine (or a whole check) finished without a verdict. The
/// typed variants replace the free-form strings the engines used to
/// report, so reports can be filtered and diffed by reason kind; the
/// `Display` impl reproduces the human-readable text for notes and
/// tables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InconclusiveReason {
    /// BMC exhausted its depth bound without a counterexample.
    BoundedClean { depth: usize },
    /// k-induction never closed within its `k` bound.
    InductionGap { max_k: usize },
    /// PDR hit its frame cap without converging.
    FrameCap { frames: usize },
    /// A counterexample failed concrete simulation replay.
    ReplayFailed { engine: String },
    /// Houdini left no surviving invariants to work with.
    NoInvariants,
    /// The surviving invariants do not exclude the bad states (LEAVE's
    /// "false counterexamples" outcome).
    InvariantsInsufficient { survivors: usize },
    /// Attack-only mode: the bounded search came back clean.
    NoAttackWithinDepth { depth: usize },
    /// A fuzzing lane ran out of trials without observing a leak — *not*
    /// a proof (fuzzing offers no coverage guarantee).
    FuzzExhausted { trials: usize },
    /// Every engine finished without a verdict.
    AllInconclusive,
    /// Anything else (joined engine notes, external causes).
    Other(String),
}

impl std::fmt::Display for InconclusiveReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InconclusiveReason::BoundedClean { depth } => {
                write!(f, "bmc clean to depth {depth}")
            }
            InconclusiveReason::InductionGap { max_k } => {
                write!(f, "k-induction inconclusive to k={max_k}")
            }
            InconclusiveReason::FrameCap { frames } => write!(f, "pdr frame limit at {frames}"),
            InconclusiveReason::ReplayFailed { engine } => {
                write!(f, "{engine}: counterexample failed simulation replay")
            }
            InconclusiveReason::NoInvariants => {
                write!(f, "houdini: no surviving invariants to strengthen with")
            }
            InconclusiveReason::InvariantsInsufficient { survivors } => write!(
                f,
                "invariant search exhausted ({survivors} survivors insufficient): \
                 induction yields false counterexamples"
            ),
            InconclusiveReason::NoAttackWithinDepth { depth } => {
                write!(f, "no attack within bmc depth {depth}")
            }
            InconclusiveReason::FuzzExhausted { trials } => {
                write!(f, "fuzz exhausted {trials} trials without a leak")
            }
            InconclusiveReason::AllInconclusive => write!(f, "all engines inconclusive"),
            InconclusiveReason::Other(text) => f.write_str(text),
        }
    }
}

/// Statistics from a fuzzing lane's campaign, surfaced in
/// [`CheckReport::fuzz`] (and, one layer up, in the session API's report
/// JSON as the lenient `fuzz` block). Recorded on every outcome — a leak
/// *and* an exhausted campaign both carry trial counts, simulated
/// cycles and wall time, so throughput (trials/second) is computable
/// without re-running.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FuzzStats {
    /// Program/secret pairs simulated (including the leaking one).
    pub trials: usize,
    /// Total trial-cycles simulated: each simulated cycle of each lane
    /// counts once, so scalar and batched runs are directly comparable.
    pub sim_cycles: u64,
    /// Wall time the fuzzing lane spent.
    pub wall: Duration,
    /// Cycle at which the leakage assertion fired, when a leak was found.
    pub leak_cycle: Option<usize>,
    /// RNG seed that drove the stimulus stream (replays the campaign).
    pub seed: u64,
    /// Bit-parallel lanes per simulation pass (1 = scalar).
    pub lanes: usize,
}

impl FuzzStats {
    /// Campaign throughput in trials per wall-clock second. A campaign
    /// whose wall clock never ticked (zero-trial runs, sub-resolution
    /// timers) reports 0.0 rather than an absurd extrapolation.
    pub fn trials_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.trials as f64 / secs
    }
}

/// The paper's verification outcomes (§5.3 "Model Checking with Contract
/// Shadow Logic" lists exactly these three, plus LEAVE's UNKNOWN).
#[derive(Clone, Debug, PartialEq)]
pub enum Verdict {
    /// A counterexample: a program + secret pair that satisfies the contract
    /// constraint yet produces distinguishable microarchitectural traces.
    Attack(Box<Trace>),
    /// Unbounded proof of the contract property.
    Proof(ProofEngine),
    /// Engines exhausted without a verdict inside the budget.
    Timeout,
    /// Inconclusive for a structural reason (e.g. LEAVE's invariant set
    /// collapsed); `reason` is typed and renders to the human-readable
    /// text via `Display`.
    Unknown { reason: InconclusiveReason },
}

impl Verdict {
    pub fn is_attack(&self) -> bool {
        matches!(self, Verdict::Attack(_))
    }

    pub fn is_proof(&self) -> bool {
        matches!(self, Verdict::Proof(_))
    }

    /// Short cell text for the result tables ("CEX", "PROOF", "T/O", "UNK").
    pub fn cell(&self) -> &'static str {
        match self {
            Verdict::Attack(_) => "CEX",
            Verdict::Proof(_) => "PROOF",
            Verdict::Timeout => "T/O",
            Verdict::Unknown { .. } => "UNK",
        }
    }
}

/// Which [`Schedule`] [`check_safety`] runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecMode {
    /// One lane per stage: BMC, then Houdini, then k-induction, then
    /// PDR, each inheriting whatever wall clock remains.
    #[default]
    Sequential,
    /// One stage: every engine races on its own thread, and the first
    /// decisive lane (attack or proof) cancels the rest.
    Portfolio,
}

/// Options for [`check_safety`].
#[derive(Clone, Debug)]
pub struct CheckOptions {
    /// Total wall-clock budget (the "7 days" stand-in).
    pub total_budget: Duration,
    /// Maximum BMC depth for the attack-finding phase.
    pub bmc_depth: usize,
    /// Skip the proof phase entirely (pure attack hunting).
    pub attack_only: bool,
    /// Maximum k for k-induction (0 disables the engine).
    pub kind_max_k: usize,
    /// PDR frame cap.
    pub pdr_max_frames: usize,
    /// Keep probe logic alive (larger encodings, readable traces).
    pub keep_probes: bool,
    /// Sequential or portfolio schedule.
    pub mode: ExecMode,
    /// Instance preparation: the netlist reduction the engines run
    /// behind (default on; `PrepareConfig::off()` hands the engines the
    /// raw instance). A stage of BMC lanes alone runs on the raw
    /// instance either way: preparation runs when the first stage
    /// holding another engine starts, so a check BMC decides in such a
    /// stage never prepares. Attack traces are lifted back to the raw
    /// netlist's vocabulary before they leave [`check_safety`].
    pub prepare: PrepareConfig,
    /// Additional attack-finding lanes beyond the built-in engines —
    /// the seam through which the differential-fuzzing backend (and any
    /// other caller-supplied [`crate::Backend`]) joins the check. In
    /// portfolio mode each factory's backend races the solver lanes
    /// (a concrete leak is decisive and cancels them); in sequential
    /// mode each runs in its own stage ahead of BMC. Empty by default.
    pub extra_lanes: Vec<LaneFactory>,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            total_budget: Duration::from_secs(60),
            bmc_depth: 20,
            attack_only: false,
            kind_max_k: 6,
            pdr_max_frames: 40,
            keep_probes: true,
            mode: ExecMode::Sequential,
            prepare: PrepareConfig::default(),
            extra_lanes: Vec::new(),
        }
    }
}

impl CheckOptions {
    /// The same options with portfolio scheduling enabled.
    pub fn portfolio(mut self) -> CheckOptions {
        self.mode = ExecMode::Portfolio;
        self
    }

    /// The same options with preparation configured
    /// (builder style).
    pub fn with_prepare(mut self, prepare: PrepareConfig) -> CheckOptions {
        self.prepare = prepare;
        self
    }

    /// The same options with one more extra attack-finding lane
    /// (builder style) — see [`CheckOptions::extra_lanes`].
    pub fn with_extra_lane(mut self, lane: LaneFactory) -> CheckOptions {
        self.extra_lanes.push(lane);
        self
    }
}

/// A verification task: an instrumented netlist plus optional relational
/// invariant candidates (used as Houdini lemmas and for the LEAVE scheme).
pub struct SafetyCheck {
    pub aig: Aig,
    pub candidates: Vec<Candidate>,
}

/// The result of a [`check_safety`] run.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckReport {
    pub verdict: Verdict,
    pub elapsed: Duration,
    /// Engine-by-engine notes (sizes, intermediate outcomes).
    pub notes: Vec<String>,
    /// Node/latch reduction statistics from instance preparation (one
    /// `"reduce"` entry; empty when preparation was off or never ran
    /// because only BMC stages did).
    pub prepare: Vec<PassStats>,
    /// Fuzzing-lane campaign statistics (`None` when no fuzzing lane
    /// ran — the default).
    pub fuzz: Option<FuzzStats>,
    /// Per-lane solver activity, in pipeline order (empty when no SAT
    /// lane reported — e.g. a fuzz-only check). Several runs of one lane
    /// (sequential stages, a portfolio Houdini lane's nested tail) sum
    /// into its entry.
    pub solver: Vec<LaneSolverStats>,
    /// Checkable proof artifact for `Verdict::Proof` results, in the
    /// vocabulary of the netlist this report describes (after
    /// preparation lifting: the *raw* netlist). `None` for non-proof
    /// verdicts, for a proof from a caller-supplied lane that supplies
    /// none, or when lifting through preparation's reconstruction failed
    /// (noted in `notes`).
    pub certificate: Option<Certificate>,
}

/// One lane of a [`Schedule`] stage: which engine runs. The driver
/// builds each step into a fresh [`Backend`] when its stage starts, from
/// the check's options and the candidates of the stage's instance.
#[derive(Clone, Debug)]
pub enum Step {
    /// BMC to [`CheckOptions::bmc_depth`].
    Bmc,
    /// k-induction for `k = 1..=max_k`.
    KInduction { max_k: usize },
    /// IC3/PDR under [`CheckOptions::pdr_max_frames`].
    Pdr,
    /// Houdini over the instance's candidates. Survivors that do not
    /// imply safety alone strengthen the instance for the later stages;
    /// with `tail` the lane itself goes on to run the strengthened
    /// [`Schedule::houdini_tail`] as a nested schedule.
    Houdini { tail: bool },
    /// A caller-supplied lane from [`CheckOptions::extra_lanes`].
    Extra(LaneFactory),
}

impl Step {
    fn backend(&self, candidates: &[Candidate], opts: &CheckOptions) -> Box<dyn Backend> {
        match self {
            Step::Bmc => Box::new(BmcBackend::new(opts.bmc_depth)),
            Step::KInduction { max_k } => Box::new(KindBackend::new(*max_k)),
            Step::Pdr => Box::new(PdrBackend::new(opts.pdr_max_frames, opts.bmc_depth)),
            Step::Houdini { tail: false } => Box::new(HoudiniBackend::new(candidates.to_vec())),
            Step::Houdini { tail: true } => {
                Box::new(HoudiniBackend::new(candidates.to_vec()).tail(opts))
            }
            Step::Extra(factory) => factory.build(),
        }
    }
}

/// What a schedule that decides nothing reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Undecided {
    /// [`InconclusiveReason::AllInconclusive`].
    AllInconclusive,
    /// Attack-only hunts: [`InconclusiveReason::NoAttackWithinDepth`] at
    /// the depth BMC proved clean — a timeout unless BMC finished clean.
    NoAttack,
    /// LEAVE: [`InconclusiveReason::InvariantsInsufficient`] with
    /// Houdini's survivor count.
    InvariantsInsufficient,
    /// UPEC: [`InconclusiveReason::InductionGap`] at this bound.
    InductionGap { max_k: usize },
    /// The portfolio's Houdini lane: a Houdini stage that proves no
    /// invariant ends the schedule with
    /// [`InconclusiveReason::NoInvariants`] (the later stages would only
    /// repeat the lanes racing beside it); otherwise `AllInconclusive`.
    NoInvariants,
}

/// An engine schedule: stages run one after another, the lanes of a
/// stage race concurrently. After every stage one merge rule applies —
/// an attack beats a proof beats a timeout beats going on to the
/// next stage — and a schedule that runs out of stages reports
/// [`Schedule::undecided`]. Every lane runs to the schedule's one
/// deadline.
#[derive(Clone, Debug)]
pub struct Schedule {
    pub stages: Vec<Vec<Step>>,
    pub undecided: Undecided,
}

impl Schedule {
    /// An empty schedule.
    pub fn new(undecided: Undecided) -> Schedule {
        Schedule {
            stages: Vec::new(),
            undecided,
        }
    }

    /// Appends a stage racing `lanes` (builder style).
    pub fn stage(mut self, lanes: impl IntoIterator<Item = Step>) -> Schedule {
        self.stages.push(lanes.into_iter().collect());
        self
    }

    /// The Baseline/Shadow schedule of [`CheckOptions::mode`]:
    ///
    /// * sequential — each extra lane in its own stage, then
    ///   `[BMC] → [Houdini] → [k-induction] → [PDR]`;
    /// * portfolio — one stage racing BMC, the extra lanes, k-induction,
    ///   PDR and a Houdini lane running [`Schedule::houdini_tail`].
    ///
    /// Attack-only checks keep the attack-finding lanes alone. Houdini
    /// joins only when the task has candidates.
    pub fn for_options(task: &SafetyCheck, opts: &CheckOptions) -> Schedule {
        let undecided = if opts.attack_only {
            Undecided::NoAttack
        } else {
            Undecided::AllInconclusive
        };
        let houdini = !opts.attack_only && !task.candidates.is_empty();
        let extras = opts.extra_lanes.iter().cloned().map(Step::Extra);
        match opts.mode {
            ExecMode::Sequential => {
                let mut schedule = Schedule::new(undecided);
                for extra in extras {
                    schedule = schedule.stage([extra]);
                }
                schedule = schedule.stage([Step::Bmc]);
                if !opts.attack_only {
                    schedule.stages.extend(proof_stages(opts, houdini));
                }
                schedule
            }
            ExecMode::Portfolio => {
                let mut lanes: Vec<Step> = std::iter::once(Step::Bmc).chain(extras).collect();
                if !opts.attack_only {
                    lanes.extend(proof_stages(opts, false).into_iter().flatten());
                }
                if houdini {
                    lanes.push(Step::Houdini { tail: true });
                }
                Schedule::new(undecided).stage(lanes)
            }
        }
    }

    /// The portfolio Houdini lane's nested schedule:
    /// `[Houdini] → [k-induction] → [PDR]`, the proof engines on the
    /// strengthened instance.
    pub fn houdini_tail(opts: &CheckOptions) -> Schedule {
        Schedule {
            stages: proof_stages(opts, true),
            ..Schedule::new(Undecided::NoInvariants)
        }
    }
}

/// `[Houdini] → [k-induction] → [PDR]`, Houdini and k-induction when
/// configured.
fn proof_stages(opts: &CheckOptions, houdini: bool) -> Vec<Vec<Step>> {
    let mut stages = Vec::new();
    if houdini {
        stages.push(vec![Step::Houdini { tail: false }]);
    }
    if opts.kind_max_k > 0 {
        stages.push(vec![Step::KInduction {
            max_k: opts.kind_max_k,
        }]);
    }
    stages.push(vec![Step::Pdr]);
    stages
}

/// Runs the Baseline/Shadow engine schedule of [`CheckOptions::mode`]
/// ([`Schedule::for_options`]).
///
/// Stages of BMC alone run on the input netlist; the other stages run
/// on the prepared one (see [`CheckOptions::prepare`]), and any attack
/// trace or proof certificate they find is lifted back to the input
/// netlist's vocabulary before the report is returned.
pub fn check_safety(task: &SafetyCheck, opts: &CheckOptions) -> CheckReport {
    check_schedule(task, opts, &Schedule::for_options(task, opts))
}

/// [`check_safety`] with an explicit schedule — how the LEAVE and UPEC
/// schemes run their own engine sets. Nothing is prepared up front: the
/// driver prepares when the first stage that is not BMC alone starts.
pub fn check_schedule(task: &SafetyCheck, opts: &CheckOptions, schedule: &Schedule) -> CheckReport {
    let budget = Budget::until(Instant::now() + opts.total_budget);
    drive(task, schedule, opts, &budget)
}

/// The engine driver: runs `schedule` on `task` under `budget` and builds
/// the report from the lane runs, preparing the instance on demand.
pub(crate) fn drive(
    task: &SafetyCheck,
    schedule: &Schedule,
    opts: &CheckOptions,
    budget: &Budget,
) -> CheckReport {
    let start = Instant::now();
    let aig = &task.aig;
    let mut report = CheckReport {
        verdict: Verdict::Timeout,
        elapsed: Duration::ZERO,
        notes: vec![format!(
            "netlist: {} ands, {} latches, {} inputs, {} assumes, {} bads",
            aig.num_ands(),
            aig.num_latches(),
            aig.num_inputs(),
            aig.assumes().len(),
            aig.bads().len()
        )],
        prepare: Vec::new(),
        fuzz: None,
        solver: Vec::new(),
        certificate: None,
    };
    let (verdict, certificate) = run_stages(task, schedule, opts, budget, &mut report);
    report.verdict = verdict;
    report.certificate = certificate;
    report.elapsed = start.elapsed();
    report
}

fn run_stages(
    task: &SafetyCheck,
    schedule: &Schedule,
    opts: &CheckOptions,
    budget: &Budget,
    report: &mut CheckReport,
) -> (Verdict, Option<Certificate>) {
    let mut budget = budget.clone();
    // The task the stages other than BMC alone run on: prepared when
    // the first of them starts, strengthened by the Houdini survivors
    // once a Houdini stage has found some.
    let mut prepared: Option<PreparedInstance> = None;
    let mut strengthened: Option<Aig> = None;
    let mut survivors: Vec<usize> = Vec::new();
    let mut bmc_clean = None;
    for stage in &schedule.stages {
        let bmc_only = stage.iter().all(|step| matches!(step, Step::Bmc));
        if !bmc_only && opts.prepare.enabled && prepared.is_none() {
            // Preparation is linear in netlist size — milliseconds
            // against multi-second SAT budgets — so it runs outside the
            // budget (the deadline moves by its wall time), but its wall
            // time counts in the report.
            let start = Instant::now();
            let p = prepare(task, &opts.prepare, opts.keep_probes);
            if let Some(deadline) = &mut budget.deadline {
                *deadline += start.elapsed();
            }
            report.notes.extend(p.note());
            report.prepare = p.stats.clone();
            prepared = Some(p);
        }
        let stage_prep = prepared.as_ref().filter(|_| !bmc_only);
        let base = stage_prep.map_or(task, |p| &p.task);
        let instance = match &strengthened {
            Some(aig) if !bmc_only => aig,
            _ => &base.aig,
        };
        let lanes = stage
            .iter()
            .map(|step| step.backend(&base.candidates, opts))
            .collect();
        let mut attack: Option<Box<Trace>> = None;
        let mut proof = None;
        let mut invariants = None;
        let mut timed_out = false;
        for mut lane in race(lanes, instance, opts.keep_probes, &budget).lanes {
            // An attack on the prepared instance is lifted to the task's
            // vocabulary, and every attack must replay on the task's
            // unstrengthened netlist. BMC's still count when they do not
            // (the failure is noted).
            let mut replay_failed = false;
            if let EngineOutcome::Attack(trace) = &mut lane.run.outcome {
                if let Some(p) = stage_prep {
                    **trace = trace.lifted(&p.reconstruction);
                }
                let (assumes_ok, bad) = Sim::new(&task.aig).replay(trace);
                replay_failed = !(assumes_ok && bad);
                if replay_failed && lane.lane != Lane::Bmc {
                    lane.run.outcome =
                        EngineOutcome::Inconclusive(InconclusiveReason::ReplayFailed {
                            engine: lane.engine.to_string(),
                        });
                }
            }
            record(report, &mut lane, replay_failed, task.candidates.len());
            match lane.run.outcome {
                EngineOutcome::Attack(trace) => {
                    // Keep the shallowest counterexample for readability.
                    if attack.as_ref().is_none_or(|a| trace.depth() < a.depth()) {
                        attack = Some(trace);
                    }
                }
                EngineOutcome::Proof(engine, cert) => {
                    proof.get_or_insert((engine, cert));
                }
                EngineOutcome::Invariants(found) => invariants = Some(found),
                EngineOutcome::Inconclusive(InconclusiveReason::BoundedClean { depth })
                    if lane.lane == Lane::Bmc =>
                {
                    bmc_clean = Some(depth);
                }
                EngineOutcome::Inconclusive(_) => {}
                EngineOutcome::Timeout => timed_out = true,
            }
        }
        if let Some(trace) = attack {
            return (Verdict::Attack(trace), None);
        }
        if let Some((engine, cert)) = proof {
            // A proof on the strengthened instance stands on the plain one
            // together with the survivors, and one on the prepared
            // instance is lifted to the task's vocabulary.
            let cert = cert.and_then(|mut c| {
                if !survivors.is_empty() {
                    c.survivors = survivors.clone();
                }
                let Some(p) = stage_prep else {
                    return Some(*c);
                };
                let lifted = p.lift_certificate(&task.aig, *c);
                if lifted.is_none() {
                    report
                        .notes
                        .push("certificate dropped: invariant latch lost in preparation".into());
                }
                lifted
            });
            return (Verdict::Proof(engine), cert);
        }
        if timed_out {
            return (Verdict::Timeout, None);
        }
        match invariants {
            Some(found) if found.is_empty() && schedule.undecided == Undecided::NoInvariants => {
                let reason = InconclusiveReason::NoInvariants;
                return (Verdict::Unknown { reason }, None);
            }
            Some(found) => {
                if !found.is_empty() {
                    // Sound: the survivors are inductive invariants.
                    let mut aig = base.aig.clone();
                    for &i in &found {
                        aig.add_assume(base.candidates[i].bit);
                    }
                    strengthened = Some(aig);
                }
                survivors = found;
            }
            None => {}
        }
    }
    let reason = match schedule.undecided {
        Undecided::NoAttack => match bmc_clean {
            Some(depth) => InconclusiveReason::NoAttackWithinDepth { depth },
            None => return (Verdict::Timeout, None),
        },
        Undecided::InvariantsInsufficient => InconclusiveReason::InvariantsInsufficient {
            survivors: survivors.len(),
        },
        Undecided::InductionGap { max_k } => InconclusiveReason::InductionGap { max_k },
        Undecided::AllInconclusive | Undecided::NoInvariants => InconclusiveReason::AllInconclusive,
    };
    (Verdict::Unknown { reason }, None)
}

/// Folds one lane run into the report: its note line (the one format
/// every scheme and mode shares) and counters. Solver stats merge per
/// lane (a lane can run in several stages) and stay in [`Lane::ALL`]
/// order for byte-stable reports.
fn record(report: &mut CheckReport, lane: &mut LaneResult, replay_failed: bool, candidates: usize) {
    let outcome = match &lane.run.outcome {
        EngineOutcome::Attack(t) if replay_failed => {
            format!("attack at depth {} (replay failed)", t.depth())
        }
        EngineOutcome::Attack(t) => format!("attack at depth {}", t.depth()),
        EngineOutcome::Proof(p, _) => format!("proof {p:?}"),
        EngineOutcome::Invariants(found) => {
            format!("{}/{candidates} candidates survive", found.len())
        }
        EngineOutcome::Inconclusive(reason) => reason.to_string(),
        EngineOutcome::Timeout => "timeout/canceled".into(),
    };
    report.notes.push(format!(
        "{} [{:.2}s]: {outcome}",
        lane.engine,
        lane.elapsed.as_secs_f64()
    ));
    if let Some(stats) = lane.run.solver {
        match report.solver.iter_mut().find(|s| s.lane == stats.lane) {
            Some(existing) => existing.absorb(&stats),
            None => report.solver.push(stats),
        }
        report
            .solver
            .sort_by_key(|s| Lane::ALL.iter().position(|l| *l == s.lane));
    }
    if report.fuzz.is_none() {
        report.fuzz = lane.run.fuzz.take();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csl_hdl::{Design, Init};

    fn counter_task(width: usize, target: u64, reachable: bool) -> SafetyCheck {
        let mut d = Design::new("t");
        let r = d.reg("r", width, Init::Zero);
        let limit = if reachable {
            (1 << width) - 1
        } else {
            target - 1
        };
        let at_limit = d.eq_const(&r.q(), limit);
        let inc = d.add_const(&r.q(), 1);
        let nxt = d.mux(at_limit, &r.q(), &inc);
        d.set_next(&r, nxt);
        let bad = d.eq_const(&r.q(), target);
        d.assert_always("hit", bad.not());
        SafetyCheck {
            aig: d.finish(),
            candidates: vec![],
        }
    }

    #[test]
    fn attack_found_and_validated() {
        let task = counter_task(4, 6, true);
        let report = check_safety(&task, &CheckOptions::default());
        assert!(report.verdict.is_attack(), "{:?}", report.verdict);
        assert_eq!(report.verdict.cell(), "CEX");
    }

    #[test]
    fn proof_found_for_saturating() {
        let task = counter_task(4, 6, false);
        let report = check_safety(&task, &CheckOptions::default());
        assert!(
            report.verdict.is_proof(),
            "{:?} {:?}",
            report.verdict,
            report.notes
        );
    }

    #[test]
    fn attack_only_mode_reports_unknown() {
        let task = counter_task(4, 6, false);
        let report = check_safety(
            &task,
            &CheckOptions {
                attack_only: true,
                bmc_depth: 4,
                ..Default::default()
            },
        );
        assert!(matches!(report.verdict, Verdict::Unknown { .. }));
    }

    #[test]
    fn deep_cex_beyond_bmc_found_by_pdr_then_reconstructed() {
        // Bad state at depth 12 but BMC capped at 4: PDR flags it, BMC
        // reconstructs.
        let task = counter_task(4, 12, true);
        let report = check_safety(
            &task,
            &CheckOptions {
                bmc_depth: 4,
                kind_max_k: 2,
                ..Default::default()
            },
        );
        assert!(
            report.verdict.is_attack(),
            "{:?} {:?}",
            report.verdict,
            report.notes
        );
    }

    #[test]
    fn zero_budget_times_out() {
        let task = counter_task(4, 6, false);
        let report = check_safety(
            &task,
            &CheckOptions {
                total_budget: Duration::from_secs(0),
                ..Default::default()
            },
        );
        assert!(
            matches!(report.verdict, Verdict::Timeout),
            "{:?}",
            report.verdict
        );
    }

    /// Portfolio mode must agree with the sequential schedule on verdict
    /// kind for every scenario the sequential tests above cover.
    #[test]
    fn portfolio_matches_sequential_verdicts() {
        let scenarios: Vec<(&str, SafetyCheck, CheckOptions)> = vec![
            ("attack", counter_task(4, 6, true), CheckOptions::default()),
            ("proof", counter_task(4, 6, false), CheckOptions::default()),
            (
                "attack-only unknown",
                counter_task(4, 6, false),
                CheckOptions {
                    attack_only: true,
                    bmc_depth: 4,
                    ..Default::default()
                },
            ),
            (
                "deep cex via pdr",
                counter_task(4, 12, true),
                CheckOptions {
                    bmc_depth: 4,
                    kind_max_k: 2,
                    ..Default::default()
                },
            ),
            (
                "zero budget",
                counter_task(4, 6, false),
                CheckOptions {
                    total_budget: Duration::from_secs(0),
                    ..Default::default()
                },
            ),
        ];
        for (label, task, opts) in scenarios {
            let seq = check_safety(&task, &opts);
            let par = check_safety(&task, &opts.clone().portfolio());
            assert_eq!(
                seq.verdict.cell(),
                par.verdict.cell(),
                "{label}: sequential {:?} vs portfolio {:?}\nportfolio notes: {:?}",
                seq.verdict,
                par.verdict,
                par.notes
            );
        }
    }

    /// Attack-only checks report the depth BMC actually proved clean.
    #[test]
    fn attack_only_reports_the_depth_bmc_checked() {
        let task = counter_task(4, 6, false);
        for mode in [ExecMode::Sequential, ExecMode::Portfolio] {
            let opts = CheckOptions {
                bmc_depth: 8,
                attack_only: true,
                mode,
                ..Default::default()
            };
            let report = check_safety(&task, &opts);
            assert_eq!(
                report.verdict,
                Verdict::Unknown {
                    reason: InconclusiveReason::NoAttackWithinDepth { depth: 8 }
                },
                "{mode:?}: {:?}",
                report.notes
            );
        }
    }

    /// Houdini candidates that all die (one false at reset, one not
    /// inductive) leave the instance unstrengthened: the sequential
    /// schedule goes on and k-induction proves the plain counter.
    #[test]
    fn sequential_check_with_dead_candidates_still_proves_by_k_induction() {
        let mut task = counter_task(4, 6, false);
        let r: Vec<_> = task.aig.latches().iter().map(|l| l.output).collect();
        task.candidates = vec![
            // r[0] is low at reset.
            Candidate {
                name: "r0".into(),
                bit: r[0],
            },
            // r[1] is low at reset but rises at r = 2.
            Candidate {
                name: "not_r1".into(),
                bit: r[1].not(),
            },
        ];
        let report = check_safety(&task, &CheckOptions::default());
        assert!(
            matches!(
                report.verdict,
                Verdict::Proof(ProofEngine::KInduction { .. })
            ),
            "{:?} {:?}",
            report.verdict,
            report.notes
        );
        assert!(
            report
                .notes
                .iter()
                .any(|n| n.starts_with("houdini [") && n.contains("0/2 candidates survive")),
            "{:?}",
            report.notes
        );
        let cert = report.certificate.expect("the proof carries a certificate");
        assert!(cert.survivors.is_empty());
    }

    /// LEAVE's schedule on a design whose reachable bad state has no
    /// assume-satisfying successor — `r` rises after reset and `q`
    /// follows it one cycle behind under `assume(!q)` — must not report a
    /// proof: Houdini's safety check, like the certificate checker's,
    /// assumes nothing at frame 1.
    #[test]
    fn leave_schedule_sees_a_bad_state_whose_successors_violate_an_assume() {
        let mut d = Design::new("t");
        let r = d.reg("r", 1, Init::Zero);
        let q = d.reg("q", 1, Init::Zero);
        let one = d.lit(1, 1);
        d.set_next(&r, one);
        d.set_next(&q, r.q());
        d.assume(q.q().bit(0).not());
        d.assert_always("r_low", r.q().bit(0).not());
        let task = SafetyCheck {
            aig: d.finish(),
            candidates: vec![],
        };
        let leave =
            Schedule::new(Undecided::InvariantsInsufficient).stage([Step::Houdini { tail: false }]);
        let report = check_schedule(&task, &CheckOptions::default(), &leave);
        assert_eq!(
            report.verdict,
            Verdict::Unknown {
                reason: InconclusiveReason::InvariantsInsufficient { survivors: 0 }
            },
            "{:?}",
            report.notes
        );
        let report = check_safety(&task, &CheckOptions::default());
        assert!(report.verdict.is_attack(), "{:?}", report.notes);
    }

    /// A 4-bit counter `r` that advances on input `x` and fires at 5,
    /// behind a latch stuck at reset that gates input `junk` into the
    /// bad. `junk` and the stuck latch come first, so preparation, which
    /// folds both away, renumbers the counter's latches and `x`.
    fn stuck_latch_task() -> SafetyCheck {
        let mut d = Design::new("t");
        let junk = d.input_bit("junk");
        let stuck = d.reg("stuck", 1, Init::Zero);
        d.hold(&stuck);
        let x = d.input_bit("x");
        let r = d.reg("r", 4, Init::Zero);
        let inc = d.add_const(&r.q(), 1);
        let nxt = d.mux(x, &inc, &r.q());
        d.set_next(&r, nxt);
        let noise = d.and_bit(stuck.q().bit(0), junk);
        let hit = d.eq_const(&r.q(), 5);
        let bad = d.or_bit(hit, noise);
        d.assert_always("hit", bad.not());
        SafetyCheck {
            aig: d.finish(),
            candidates: vec![],
        }
    }

    /// A sequential check that BMC decides runs on the raw netlist and
    /// prepares nothing; with the bad beyond `bmc_depth`, a later stage
    /// finds the attack on the prepared netlist and the driver lifts it.
    /// Both traces replay on the raw netlist, which an unlifted trace
    /// does not: it would drive `junk` instead of `x`.
    #[test]
    fn bmc_attacks_come_from_the_raw_netlist_and_later_attacks_are_lifted() {
        let task = stuck_latch_task();
        let attack = |report: &CheckReport| match &report.verdict {
            Verdict::Attack(trace) => (**trace).clone(),
            other => panic!("{other:?} {:?}", report.notes),
        };

        let report = check_safety(&task, &CheckOptions::default());
        let trace = attack(&report);
        assert!(report.prepare.is_empty(), "{:?}", report.notes);
        assert_eq!(Sim::new(&task.aig).replay(&trace), (true, true));

        let opts = CheckOptions {
            bmc_depth: 2,
            kind_max_k: 8,
            ..Default::default()
        };
        let report = check_safety(&task, &opts);
        let trace = attack(&report);
        assert!(
            report
                .notes
                .iter()
                .any(|n| n.starts_with("bmc [") && n.ends_with("bmc clean to depth 2")),
            "{:?}",
            report.notes
        );
        assert_eq!(
            Sim::new(&task.aig).replay(&trace),
            (true, true),
            "the later stage's attack must be lifted: {:?}",
            report.notes
        );
        let passes: Vec<&str> = report.prepare.iter().map(|s| s.pass.as_str()).collect();
        assert_eq!(passes, ["reduce"]);
    }

    /// The portfolio prefers an attack over a proof when both lanes report
    /// (can happen when a canceled-but-decided proof lane drains late).
    #[test]
    fn portfolio_attack_beats_proof_on_unsafe_design() {
        let task = counter_task(4, 6, true);
        let report = check_safety(&task, &CheckOptions::default().portfolio());
        assert!(
            report.verdict.is_attack(),
            "{:?} {:?}",
            report.verdict,
            report.notes
        );
    }
}
