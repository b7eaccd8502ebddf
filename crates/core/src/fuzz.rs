//! Differential fuzzing as a first-class verification backend — the
//! paper's §9 contrast class (SpecDoctor, Revizor, SpeechMiner…).
//!
//! Instead of model checking, run the two-machine product on the concrete
//! netlist simulator over random programs and random secret pairs, and
//! compare the microarchitectural observation traces directly. Finding a
//! divergence on a program whose ISA observation traces match is a
//! concrete attack — no solver involved. The trade-off the paper draws is
//! reproduced here measurably: fuzzing can be fast per trial and needs no
//! formal machinery, but offers no coverage guarantee (secure designs get
//! "no attack found after N trials", never a proof).
//!
//! The fuzzer reuses the shadow instance's netlist: the `no_leakage`
//! assertion firing with all contract assumes held *is* the oracle, so
//! the fuzzing and formal flows check the identical property.
//!
//! # Architecture
//!
//! A [`FuzzPlan`] describes a campaign (trials, cycles, seed, scalar or
//! 64-way bit-parallel execution). Two ways to run one:
//!
//! * **Engine lane** — [`FuzzBackend`] implements [`csl_mc::Backend`],
//!   so a fuzzing lane joins the schedule of `check_safety`: in
//!   portfolio mode it races BMC / k-induction / PDR, and a concrete
//!   leak is a decisive verdict that cancels the solver lanes; in
//!   sequential mode it runs in its own stage ahead of BMC. The
//!   campaign statistics land in [`csl_mc::CheckReport::fuzz`] like any
//!   lane's counters. Register it via [`fuzz_lane`] on
//!   [`csl_mc::CheckOptions::extra_lanes`], or one level up with
//!   `api::Verifier::fuzz(plan)`.
//! * **Direct** — [`run_fuzz`] drives a campaign against any
//!   instrumented netlist under a [`Budget`] and returns the typed
//!   [`FuzzReport`].
//!
//! Findings are expressed in the shared counterexample vocabulary: every
//! [`FuzzFinding`] carries a [`Trace`] that replays through
//! [`csl_mc::Sim::replay`] and lifts through
//! [`csl_hdl::xform::Reconstruction`] exactly like a formal
//! counterexample — which is how a leak found on the *prepared* (reduced)
//! netlist comes back in raw-netlist vocabulary.
//!
//! Throughput comes from [`csl_mc::BatchSim`]: the AIG is evaluated over
//! `u64` words, one bit per stimulus lane, so one topological pass
//! advances 64 independent trials by a cycle. The `fuzzprobe` bench bin
//! measures the resulting trials/second against the scalar path.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use csl_cover::{BatchCoverage, Corpus, CorpusEntry, CoverageMap, ScalarCoverage};
use csl_hdl::{Aig, Bit, Init, Node};
use csl_isa::progen::{self, OpMix, StimulusPair};
use csl_isa::IsaConfig;
use csl_mc::{
    BatchSim, BatchState, CoverageStats, EngineOutcome, FuzzStats, InconclusiveReason, Lane,
    LaneFactory, LaneRun, Sim, SimState, Trace, TransitionSystem,
};
use csl_sat::Budget;

/// A fuzzing campaign description: how many program/secret pairs to try,
/// how many cycles to simulate each, the RNG seed, and whether to run
/// the 64-way bit-parallel simulator (the default) or the scalar one.
///
/// Identical seeds produce identical stimulus streams in both execution
/// modes — batching changes throughput, never findings.
#[derive(Clone, Debug)]
pub struct FuzzPlan {
    /// Program/secret pairs to try before giving up.
    pub trials: usize,
    /// Cycles to simulate per trial.
    pub cycles: usize,
    /// Seed for the stimulus stream.
    pub seed: u64,
    /// Evaluate 64 trials per simulator pass (see [`csl_mc::BatchSim`]).
    pub batch: bool,
    /// Opcode weights for the structured half of the program stream.
    pub mix: OpMix,
    /// Coverage-guided mode (see the `csl_cover` crate): track per-trial
    /// latch-toggle coverage and evolve a mutation corpus from trials
    /// that reached new coverage. `false` keeps the campaign
    /// bit-identical to the blind fuzzer.
    pub coverage: bool,
    /// Directory for corpus persistence across campaigns (keyed by plan
    /// label + netlist fingerprint, like the session report cache).
    /// `None` keeps the corpus in memory only.
    pub corpus_dir: Option<PathBuf>,
}

impl Default for FuzzPlan {
    /// Matches the historical `FuzzOptions` defaults, batched.
    fn default() -> FuzzPlan {
        FuzzPlan {
            trials: 2000,
            cycles: 24,
            seed: 0xF0_55,
            batch: true,
            mix: OpMix::default(),
            coverage: false,
            corpus_dir: None,
        }
    }
}

impl FuzzPlan {
    /// The default plan.
    pub fn new() -> FuzzPlan {
        FuzzPlan::default()
    }

    /// Sets the trial budget (builder style).
    pub fn trials(mut self, trials: usize) -> FuzzPlan {
        self.trials = trials;
        self
    }

    /// Sets the per-trial cycle count (builder style).
    pub fn cycles(mut self, cycles: usize) -> FuzzPlan {
        self.cycles = cycles;
        self
    }

    /// Sets the stimulus seed (builder style).
    pub fn seed(mut self, seed: u64) -> FuzzPlan {
        self.seed = seed;
        self
    }

    /// Selects the scalar simulator (one trial per pass) — the baseline
    /// the `fuzzprobe` bin compares the batch path against.
    pub fn scalar(mut self) -> FuzzPlan {
        self.batch = false;
        self
    }

    /// Sets the opcode mix (builder style).
    pub fn mix(mut self, mix: OpMix) -> FuzzPlan {
        self.mix = mix;
        self
    }

    /// Enables/disables coverage-guided mode (builder style).
    pub fn coverage(mut self, coverage: bool) -> FuzzPlan {
        self.coverage = coverage;
        self
    }

    /// Sets the corpus persistence directory (builder style); implies
    /// nothing unless coverage mode is on.
    pub fn corpus_dir(mut self, dir: impl Into<PathBuf>) -> FuzzPlan {
        self.corpus_dir = Some(dir.into());
        self
    }

    /// Stable description of this plan, used as the lane label and as a
    /// session cache-key component — it must change whenever the
    /// campaign the plan describes does. Coverage knobs only appear when
    /// coverage mode is on, so pre-existing blind-campaign keys are
    /// unchanged.
    pub fn label(&self) -> String {
        let m = &self.mix;
        let cov = if self.coverage {
            format!(",cov=1,corpus={}", self.corpus_dir.is_some() as u8)
        } else {
            String::new()
        };
        format!(
            "fuzz(trials={},cycles={},seed={},batch={},mix={}/{}/{}/{}/{}/{}{cov})",
            self.trials, self.cycles, self.seed, self.batch, m.li, m.add, m.ld, m.bnz, m.mul, m.nop
        )
    }
}

/// One reproducible finding: the program and secret pair that leaked,
/// plus the equivalent [`Trace`] in the shared counterexample
/// vocabulary (replayable via [`Sim::replay`], liftable via
/// [`Trace::lifted`] when found on a prepared netlist).
#[derive(Clone, Debug)]
pub struct FuzzFinding {
    pub imem: Vec<u32>,
    pub public: Vec<u32>,
    pub secret_a: Vec<u32>,
    pub secret_b: Vec<u32>,
    /// Cycle at which the leakage assertion fired.
    pub cycle: usize,
    /// Trials executed before (and including) the finding.
    pub trials: usize,
    /// The finding as a counterexample trace on the fuzzed netlist.
    pub trace: Trace,
}

/// Outcome of a fuzzing campaign.
#[derive(Clone, Debug)]
pub enum FuzzOutcome {
    /// A leak was observed (and is replayable from the finding).
    Leak(Box<FuzzFinding>),
    /// No leak — *not* a security proof. Wall time and simulated
    /// trial-cycles ride along so throughput is computable without
    /// re-running the campaign.
    Exhausted {
        /// Trials executed (may be short of the plan when the budget
        /// expired first).
        trials: usize,
        /// Wall time the campaign took.
        wall: Duration,
        /// Total trial-cycles simulated.
        sim_cycles: u64,
    },
}

/// A finished campaign: the outcome plus the statistics every outcome
/// carries (the [`FuzzStats`] that land in reports).
#[derive(Clone, Debug)]
pub struct FuzzReport {
    pub outcome: FuzzOutcome,
    pub stats: FuzzStats,
    /// Coverage accounting, present when the plan ran coverage-guided.
    pub coverage: Option<CoverageStats>,
    /// The campaign stopped because the budget (wall clock or stop
    /// flag), not the trial count, ran out.
    pub out_of_budget: bool,
}

/// Parses a memory-latch name of the form `prefix[word][bit]`.
fn parse_mem_name(name: &str) -> Option<(&str, usize, usize)> {
    let open = name.rfind("][")?;
    let bit: usize = name[open + 2..name.len() - 1].parse().ok()?;
    let head = &name[..open + 1];
    let open2 = head.rfind('[')?;
    let word: usize = head[open2 + 1..head.len() - 1].parse().ok()?;
    Some((&head[..open2], word, bit))
}

/// The bit of `stim` that latch `name` should reset to, or `None` when
/// the latch is not a stimulus memory bit (stays at the lane default).
fn stimulus_bit(stim: &StimulusPair, name: &str) -> Option<bool> {
    let (prefix, word, bit) = parse_mem_name(name)?;
    let v = match prefix {
        "imem" => *stim.imem.get(word)?,
        "dmem_pub" => *stim.public.get(word)?,
        "cpu1.dmem_sec" => *stim.secret_a.get(word)?,
        "cpu2.dmem_sec" => *stim.secret_b.get(word)?,
        _ => return None,
    };
    Some((v >> bit) & 1 == 1)
}

/// Scalar reset state for one stimulus.
fn load_scalar(aig: &Aig, stim: &StimulusPair) -> SimState {
    SimState::reset_with(aig, |_, name| stimulus_bit(stim, name).unwrap_or(false))
}

/// Batch reset state: lane `l` loads `stims[l]`; lanes beyond the batch
/// reset to zero.
fn load_batch(aig: &Aig, stims: &[StimulusPair]) -> BatchState {
    BatchState::reset_with(aig, |_, name| {
        stims.iter().enumerate().fold(0u64, |acc, (lane, stim)| {
            acc | ((stimulus_bit(stim, name).unwrap_or(false) as u64) << lane)
        })
    })
}

/// Builds the [`Trace`] equivalent of a leak: the stimulus becomes the
/// symbolic-latch initial assignment, the inputs are the all-zero drive
/// the fuzzer uses, and the trace ends on the leaking cycle.
fn finding_trace(aig: &Aig, stim: &StimulusPair, cycle: usize, bad_name: &str) -> Trace {
    let state = load_scalar(aig, stim);
    let initial_latches = aig
        .latches()
        .iter()
        .enumerate()
        .filter(|(_, l)| l.init == Init::Symbolic)
        .map(|(i, _)| (i as u32, state.latch(i)))
        .collect();
    Trace {
        initial_latches,
        inputs: vec![HashMap::new(); cycle + 1],
        bad_name: bad_name.to_string(),
    }
}

/// Bad bits the campaign treats as the leakage oracle: the `no_leakage`
/// assertion(s) when present, every bad bit otherwise (so the backend
/// stays meaningful on generic safety instances).
fn leak_bads(aig: &Aig) -> Vec<usize> {
    let named: Vec<usize> = aig
        .bads()
        .iter()
        .enumerate()
        .filter(|(_, b)| b.name.contains("no_leakage"))
        .map(|(i, _)| i)
        .collect();
    if named.is_empty() {
        (0..aig.bads().len()).collect()
    } else {
        named
    }
}

/// Marks the latches in the combinational fan-in cone of the leakage
/// oracle. A trial that toggles these came close to exciting the
/// property logic; the campaign uses the per-trial count as the *heat*
/// rank when selecting mutation parents, so the corpus — which by
/// construction holds only surviving (non-leaking) stimuli — still
/// steers mutants toward the attack surface rather than away from it.
fn bad_cone_latches(aig: &Aig, oracle: &[usize]) -> Vec<bool> {
    let mut in_cone = vec![false; aig.latches().len()];
    let mut seen = vec![false; aig.num_nodes()];
    let mut stack: Vec<Bit> = oracle.iter().map(|&bi| aig.bads()[bi].bit).collect();
    while let Some(b) = stack.pop() {
        let idx = b.node() as usize;
        if seen[idx] {
            continue;
        }
        seen[idx] = true;
        match aig.node(b) {
            Node::And(x, y) => {
                stack.push(x);
                stack.push(y);
            }
            Node::Latch(l) => in_cone[l as usize] = true,
            Node::Const | Node::Input(_) => {}
        }
    }
    in_cone
}

/// Runs a fuzzing campaign against an instrumented netlist under a
/// budget. Each trial draws a random program, random public memory, and
/// two random (differing) secrets, then simulates the product machine.
/// A trial counts as a leak only if the leakage assertion fires while
/// every contract assume held up to and including that cycle — the same
/// validity condition the model checker enforces.
///
/// With `plan.batch` (the default), 64 trials advance per simulator
/// pass; findings are identical to the scalar path for the same seed
/// (earliest leaking trial, earliest leaking cycle), only faster.
pub fn run_fuzz(aig: &Aig, isa: &IsaConfig, plan: &FuzzPlan, budget: &Budget) -> FuzzReport {
    if plan.coverage {
        return run_fuzz_coverage(aig, isa, plan, budget);
    }
    let start = Instant::now();
    let oracle = leak_bads(aig);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(plan.seed);
    let mut trials = 0usize;
    let mut sim_cycles = 0u64;
    let mut leak: Option<(StimulusPair, usize, usize, String)> = None; // stim, cycle, trial, bad
    let mut out_of_budget = false;

    if plan.batch {
        let mut sim = BatchSim::new(aig);
        while trials < plan.trials && !out_of_budget {
            if budget.out_of_time() {
                out_of_budget = true;
                break;
            }
            let width = BatchSim::LANES.min(plan.trials - trials);
            let stims = progen::random_stimulus_batch(isa, &plan.mix, &mut rng, width);
            let mut state = load_batch(aig, &stims);
            let mut alive: u64 = if width == 64 { !0 } else { (1u64 << width) - 1 };
            let mut first_leak: Vec<Option<(usize, usize)>> = vec![None; width];
            let mut cycles_run = 0usize;
            for cycle in 0..plan.cycles {
                if budget.out_of_time() {
                    // Fall through to the leak scan: a leak a lane
                    // recorded in an earlier cycle still counts.
                    out_of_budget = true;
                    break;
                }
                let r = sim.step_masks(&state, |_, _| 0);
                cycles_run = cycle + 1;
                sim_cycles += width as u64;
                // A violated assume invalidates the lane's trial from
                // this cycle on — before the leak check, matching the
                // scalar trial loop.
                alive &= !r.violated_lanes();
                for &bi in &oracle {
                    let fired = r.fired_bads[bi] & alive;
                    if fired != 0 {
                        for (lane, slot) in first_leak.iter_mut().enumerate() {
                            if (fired >> lane) & 1 == 1 && slot.is_none() {
                                *slot = Some((cycle, bi));
                            }
                        }
                    }
                }
                // A leaked lane is decided; stop tracking it.
                for (lane, slot) in first_leak.iter().enumerate() {
                    if slot.is_some() {
                        alive &= !(1u64 << lane);
                    }
                }
                if alive == 0 {
                    break;
                }
                state = r.next;
            }
            if let Some(lane) = (0..width).find(|&l| first_leak[l].is_some()) {
                let (cycle, bi) = first_leak[lane].expect("lane just matched");
                leak = Some((
                    stims[lane].clone(),
                    cycle,
                    trials + lane + 1,
                    aig.bads()[bi].name.clone(),
                ));
                trials += lane + 1;
                break;
            }
            // Count the batch only if it actually simulated: a budget
            // expiry before the first cycle must not inflate the trial
            // count (and hence trials/sec) the probes report.
            if cycles_run > 0 {
                trials += width;
            }
        }
        // A leak recorded before the clock ran out is still a leak.
        if leak.is_some() {
            out_of_budget = false;
        }
    } else {
        let mut sim = Sim::new(aig);
        'scalar: for trial in 0..plan.trials {
            if budget.out_of_time() {
                out_of_budget = true;
                break;
            }
            let stim = progen::random_stimulus(isa, &plan.mix, &mut rng, trial % 2 == 1);
            let mut state = load_scalar(aig, &stim);
            trials = trial + 1;
            for cycle in 0..plan.cycles {
                let r = sim.step(&state, |_, _| false);
                sim_cycles += 1;
                if !r.violated_assumes.is_empty() {
                    break; // invalid program for this contract: next trial
                }
                if let Some(&bi) = oracle
                    .iter()
                    .find(|&&bi| r.fired_bads.contains(&aig.bads()[bi].name))
                {
                    leak = Some((stim, cycle, trial + 1, aig.bads()[bi].name.clone()));
                    break 'scalar;
                }
                state = r.next;
            }
        }
    }

    let wall = start.elapsed();
    let stats = FuzzStats {
        trials,
        corpus_trials: 0,
        random_trials: trials,
        sim_cycles,
        wall,
        leak_cycle: leak.as_ref().map(|(_, cycle, _, _)| *cycle),
        seed: plan.seed,
        lanes: if plan.batch { BatchSim::LANES } else { 1 },
    };
    let outcome = match leak {
        Some((stim, cycle, trial, bad_name)) => {
            let trace = finding_trace(aig, &stim, cycle, &bad_name);
            FuzzOutcome::Leak(Box::new(FuzzFinding {
                imem: stim.imem,
                public: stim.public,
                secret_a: stim.secret_a,
                secret_b: stim.secret_b,
                cycle,
                trials: trial,
                trace,
            }))
        }
        None => FuzzOutcome::Exhausted {
            trials,
            wall,
            sim_cycles,
        },
    };
    FuzzReport {
        outcome,
        stats,
        coverage: None,
        out_of_budget,
    }
}

/// What one coverage-guided generation (≤64 trials drawn at a fixed
/// boundary) produced, identical between the batch and scalar
/// executors so the corpus evolves the same way under both.
struct Generation {
    /// Per-lane earliest `(cycle, bad index)` leak, assumes held.
    first_leak: Vec<Option<(usize, usize)>>,
    /// Per-lane coverage record; `None` for lanes a budget expiry cut
    /// off before they ran.
    coverage: Vec<Option<csl_cover::TrialCoverage>>,
    /// Per-lane reached latch state, for lanes that survived every
    /// cycle with assumes held (corpus material).
    exit: Vec<Option<Vec<(u32, bool)>>>,
    /// Trial-cycles actually simulated (alive lanes only).
    sim_cycles: u64,
    /// Whether any cycle ran (budget-expiry accounting).
    simulated: bool,
    out_of_budget: bool,
}

fn run_generation_batch(
    aig: &Aig,
    sim: &mut BatchSim,
    stims: &[StimulusPair],
    cycles: usize,
    oracle: &[usize],
    budget: &Budget,
) -> Generation {
    let width = stims.len();
    let latches = aig.latches().len();
    let mut state = load_batch(aig, stims);
    let mut alive: u64 = if width == 64 { !0 } else { (1u64 << width) - 1 };
    let mut cov = BatchCoverage::new(latches);
    let mut first_leak: Vec<Option<(usize, usize)>> = vec![None; width];
    let mut sim_cycles = 0u64;
    let mut simulated = false;
    let mut out_of_budget = false;
    for _cycle in 0..cycles {
        if budget.out_of_time() {
            out_of_budget = true;
            break;
        }
        if alive == 0 {
            break;
        }
        let r = sim.step_masks(&state, |_, _| 0);
        simulated = true;
        sim_cycles += alive.count_ones() as u64;
        // A violated assume invalidates the lane from this cycle on —
        // its toggles this cycle do not count, matching the scalar
        // executor's break-before-record.
        alive &= !r.violated_lanes();
        cov.step(&state, &r.next, alive);
        for &bi in oracle {
            let fired = r.fired_bads[bi] & alive;
            if fired != 0 {
                for (lane, slot) in first_leak.iter_mut().enumerate() {
                    if (fired >> lane) & 1 == 1 && slot.is_none() {
                        *slot = Some((_cycle, bi));
                    }
                }
            }
        }
        for (lane, slot) in first_leak.iter().enumerate() {
            if slot.is_some() {
                alive &= !(1u64 << lane);
            }
        }
        state = r.next;
    }
    let coverage = (0..width).map(|l| Some(cov.lane(l))).collect();
    // Only lanes that survived the whole window with assumes held carry
    // a reached state.
    let exit = (0..width)
        .map(|l| {
            ((alive >> l) & 1 == 1 && !out_of_budget).then(|| {
                let s = state.lane(l);
                (0..latches).map(|i| (i as u32, s.latch(i))).collect()
            })
        })
        .collect();
    Generation {
        first_leak,
        coverage,
        exit,
        sim_cycles,
        simulated,
        out_of_budget,
    }
}

fn run_generation_scalar(
    aig: &Aig,
    sim: &mut Sim,
    stims: &[StimulusPair],
    cycles: usize,
    oracle: &[usize],
    budget: &Budget,
) -> Generation {
    let width = stims.len();
    let latches = aig.latches().len();
    let mut first_leak: Vec<Option<(usize, usize)>> = vec![None; width];
    let mut coverage: Vec<Option<csl_cover::TrialCoverage>> = vec![None; width];
    let mut exit: Vec<Option<Vec<(u32, bool)>>> = vec![None; width];
    let mut sim_cycles = 0u64;
    let mut simulated = false;
    let mut out_of_budget = false;
    'lanes: for (l, stim) in stims.iter().enumerate() {
        let mut state = load_scalar(aig, stim);
        let mut sc = ScalarCoverage::new(latches);
        let mut survived = true;
        for cycle in 0..cycles {
            if budget.out_of_time() {
                out_of_budget = true;
                coverage[l] = Some(sc.finish());
                break 'lanes;
            }
            let r = sim.step(&state, |_, _| false);
            simulated = true;
            sim_cycles += 1;
            if !r.violated_assumes.is_empty() {
                survived = false;
                break;
            }
            sc.step(&state, &r.next);
            if let Some(&bi) = oracle
                .iter()
                .find(|&&bi| r.fired_bads.contains(&aig.bads()[bi].name))
            {
                first_leak[l] = Some((cycle, bi));
                survived = false;
                break;
            }
            state = r.next;
        }
        if survived {
            exit[l] = Some((0..latches).map(|i| (i as u32, state.latch(i))).collect());
        }
        coverage[l] = Some(sc.finish());
    }
    Generation {
        first_leak,
        coverage,
        exit,
        sim_cycles,
        simulated,
        out_of_budget,
    }
}

/// The coverage-guided campaign (see the `csl_cover` crate and the
/// module docs). Trials are drawn and ingested at fixed ≤64-trial
/// generation boundaries regardless of execution width, and every RNG
/// draw happens in trial order, so a fixed seed evolves the identical
/// corpus batched or scalar.
fn run_fuzz_coverage(aig: &Aig, isa: &IsaConfig, plan: &FuzzPlan, budget: &Budget) -> FuzzReport {
    /// Fraction (out of 4) of trials drawn as corpus mutants once the
    /// corpus is non-empty.
    const MUTANT_NUM: u32 = 1;

    let start = Instant::now();
    let oracle = leak_bads(aig);
    let cone = bad_cone_latches(aig, &oracle);
    let latches = aig.latches().len();
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(plan.seed);
    let corpus_path = plan.corpus_dir.as_ref().map(|dir| {
        let key = corpus_key(aig, plan);
        dir.join(format!("{key:016x}.corpus"))
    });
    let mut corpus = corpus_path
        .as_ref()
        .and_then(|p| Corpus::load(p).ok())
        .unwrap_or_default();
    let mut map = CoverageMap::new(latches);
    let mut batch_sim = plan.batch.then(|| BatchSim::new(aig));
    let mut scalar_sim = (!plan.batch).then(|| Sim::new(aig));

    let mut trials = 0usize;
    let mut corpus_trials = 0usize;
    let mut random_trials = 0usize;
    let mut sim_cycles = 0u64;
    let mut leak: Option<(StimulusPair, usize, usize, String)> = None;
    let mut out_of_budget = false;

    while trials < plan.trials && !out_of_budget {
        if budget.out_of_time() {
            out_of_budget = true;
            break;
        }
        // Draw the generation, one RNG decision + draw per trial in
        // trial order. Mutant selection sees the corpus as frozen at
        // this boundary.
        let width = BatchSim::LANES.min(plan.trials - trials);
        let frozen = corpus.len();
        let mut stims = Vec::with_capacity(width);
        let mut is_mutant = Vec::with_capacity(width);
        for t in 0..width {
            use rand::Rng;
            let mutate = frozen > 0 && rng.gen_range(0..4u32) < MUTANT_NUM;
            is_mutant.push(mutate);
            if mutate {
                // Tournament of two by heat: the corpus holds only
                // surviving stimuli, so uniform selection would breed
                // from benign programs; preferring the hotter candidate
                // keeps mutants near the property cone.
                let (a, b) = (rng.gen_range(0..frozen), rng.gen_range(0..frozen));
                let base = if corpus.get(a).heat >= corpus.get(b).heat {
                    a
                } else {
                    b
                };
                let donor = rng.gen_range(0..frozen);
                let (m, _) = progen::mutate_stimulus(
                    isa,
                    &mut rng,
                    &corpus.get(base).stim,
                    &corpus.get(donor).stim,
                );
                stims.push(m);
            } else {
                stims.push(progen::random_stimulus(
                    isa,
                    &plan.mix,
                    &mut rng,
                    (trials + t) % 2 == 1,
                ));
            }
        }
        let generation = match (&mut batch_sim, &mut scalar_sim) {
            (Some(sim), _) => run_generation_batch(aig, sim, &stims, plan.cycles, &oracle, budget),
            (_, Some(sim)) => run_generation_scalar(aig, sim, &stims, plan.cycles, &oracle, budget),
            _ => unreachable!("one executor is always configured"),
        };
        sim_cycles += generation.sim_cycles;
        out_of_budget |= generation.out_of_budget;
        // Provenance tracks *counted* trials only, so the split always
        // sums to the trial count even when a leak ends the generation
        // early or a budget expiry discards it entirely.
        let counted = if let Some(lane) = (0..width).find(|&l| generation.first_leak[l].is_some()) {
            let (cycle, bi) = generation.first_leak[lane].expect("lane just matched");
            leak = Some((
                stims[lane].clone(),
                cycle,
                trials + lane + 1,
                aig.bads()[bi].name.clone(),
            ));
            lane + 1
        } else if generation.simulated {
            width
        } else {
            0
        };
        trials += counted;
        corpus_trials += is_mutant[..counted].iter().filter(|&&m| m).count();
        random_trials += is_mutant[..counted].iter().filter(|&&m| !m).count();
        if leak.is_some() {
            break;
        }
        // Ingest coverage in lane order; trials that reached new
        // coverage *and* survived the window join the corpus.
        for (l, stim) in stims.iter().enumerate() {
            let Some(trial_cov) = &generation.coverage[l] else {
                continue;
            };
            let new = map.ingest(trial_cov);
            if !new {
                continue;
            }
            if let Some(frontier) = &generation.exit[l] {
                let heat = (0..latches)
                    .filter(|&i| cone[i] && trial_cov.toggled(i))
                    .count() as u32;
                corpus.push(CorpusEntry {
                    stim: stim.clone(),
                    signature: trial_cov.signature(),
                    depth: trial_cov.depth,
                    heat,
                    frontier: frontier.clone(),
                });
            }
        }
    }
    if leak.is_some() {
        out_of_budget = false;
    }
    if let Some(path) = &corpus_path {
        // Persistence is best-effort: an unwritable corpus directory
        // must not fail the campaign.
        let _ = corpus.save(path);
    }

    let wall = start.elapsed();
    let stats = FuzzStats {
        trials,
        corpus_trials,
        random_trials,
        sim_cycles,
        wall,
        leak_cycle: leak.as_ref().map(|(_, cycle, _, _)| *cycle),
        seed: plan.seed,
        lanes: if plan.batch { BatchSim::LANES } else { 1 },
    };
    let coverage = Some(map.stats(corpus.len()));
    let outcome = match leak {
        Some((stim, cycle, trial, bad_name)) => {
            let trace = finding_trace(aig, &stim, cycle, &bad_name);
            FuzzOutcome::Leak(Box::new(FuzzFinding {
                imem: stim.imem,
                public: stim.public,
                secret_a: stim.secret_a,
                secret_b: stim.secret_b,
                cycle,
                trials: trial,
                trace,
            }))
        }
        None => FuzzOutcome::Exhausted {
            trials,
            wall,
            sim_cycles,
        },
    };
    FuzzReport {
        outcome,
        stats,
        coverage,
        out_of_budget,
    }
}

/// Corpus persistence key: plan label + netlist fingerprint, mirroring
/// the session report cache's keying so one directory can serve many
/// designs without collisions.
fn corpus_key(aig: &Aig, plan: &FuzzPlan) -> u64 {
    crate::api::cache::corpus_fingerprint(aig, &plan.label())
}

/// The fuzzing lane of the engine portfolio: a [`csl_mc::Backend`] that
/// runs a [`FuzzPlan`] against whatever instance its stage is deciding.
/// A validated leak reports as [`EngineOutcome::Attack`] — decisive, so
/// it cancels the solver lanes; an exhausted campaign is
/// [`InconclusiveReason::FuzzExhausted`]. Campaign statistics and
/// coverage ride along in the returned [`LaneRun`] into the check
/// report.
pub struct FuzzBackend {
    isa: IsaConfig,
    plan: FuzzPlan,
}

impl FuzzBackend {
    pub fn new(isa: IsaConfig, plan: FuzzPlan) -> FuzzBackend {
        FuzzBackend { isa, plan }
    }
}

impl csl_mc::Backend for FuzzBackend {
    fn lane(&self) -> Lane {
        Lane::Fuzz
    }

    fn run(&self, ts: &Arc<TransitionSystem>, budget: Budget) -> LaneRun {
        let report = run_fuzz(ts.aig(), &self.isa, &self.plan, &budget);
        let outcome = match report.outcome {
            FuzzOutcome::Leak(finding) => {
                // The Backend contract: validate counterexamples before
                // reporting them decisive.
                let (assumes_ok, bad) = Sim::new(ts.aig()).replay(&finding.trace);
                if assumes_ok && bad {
                    EngineOutcome::Attack(Box::new(finding.trace))
                } else {
                    EngineOutcome::Inconclusive(InconclusiveReason::ReplayFailed {
                        engine: "fuzz".to_string(),
                    })
                }
            }
            FuzzOutcome::Exhausted { trials, .. } => {
                if report.out_of_budget {
                    EngineOutcome::Timeout
                } else {
                    EngineOutcome::Inconclusive(InconclusiveReason::FuzzExhausted { trials })
                }
            }
        };
        LaneRun {
            outcome,
            solver: None,
            fuzz: Some(report.stats),
            coverage: report.coverage,
        }
    }
}

/// A [`LaneFactory`] producing [`FuzzBackend`]s for
/// [`csl_mc::CheckOptions::extra_lanes`] — the registration the session
/// API's `Verifier::fuzz(plan)` performs. The label embeds the plan, so
/// session cache keys change with the campaign.
pub fn fuzz_lane(isa: IsaConfig, plan: FuzzPlan) -> LaneFactory {
    LaneFactory::new(plan.label(), move || {
        Box::new(FuzzBackend::new(isa, plan.clone()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{shadow_instance, DesignKind, InstanceConfig};
    use csl_contracts::Contract;
    use csl_cpu::Defense;
    use csl_mc::SafetyCheck;

    fn insecure_task() -> (SafetyCheck, IsaConfig) {
        let mut cfg =
            InstanceConfig::new(DesignKind::SimpleOoo(Defense::None), Contract::Sandboxing);
        cfg.with_candidates = false;
        let isa = cfg.cpu_config().isa;
        (shadow_instance(&cfg), isa)
    }

    fn secure_task() -> (SafetyCheck, IsaConfig) {
        let mut cfg = InstanceConfig::new(
            DesignKind::SimpleOoo(Defense::DelaySpectre),
            Contract::Sandboxing,
        );
        cfg.with_candidates = false;
        let isa = cfg.cpu_config().isa;
        (shadow_instance(&cfg), isa)
    }

    #[test]
    fn fuzzer_finds_the_simple_ooo_leak_and_finding_replays() {
        let (task, isa) = insecure_task();
        // The debug-profile simulator is an order of magnitude slower,
        // but the batch path advances 64 trials per pass, so the full
        // release-scale campaign stays affordable.
        let trials = if cfg!(debug_assertions) { 1500 } else { 5000 };
        let plan = FuzzPlan::new().trials(trials).cycles(20).seed(7);
        let report = run_fuzz(&task.aig, &isa, &plan, &Budget::unlimited());
        match report.outcome {
            FuzzOutcome::Leak(f) => {
                assert_eq!(report.stats.leak_cycle, Some(f.cycle));
                assert!(report.stats.trials <= trials);
                let (assumes_ok, bad) = Sim::new(&task.aig).replay(&f.trace);
                assert!(assumes_ok && bad, "finding must replay as a trace");
            }
            FuzzOutcome::Exhausted { trials, .. } => {
                panic!("no leak in {trials} trials on an insecure design")
            }
        }
    }

    #[test]
    fn batched_and_scalar_campaigns_agree_per_seed() {
        let (task, isa) = insecure_task();
        let trials = if cfg!(debug_assertions) { 192 } else { 1024 };
        for seed in [7u64, 9, 23] {
            let base = FuzzPlan::new().trials(trials).cycles(12).seed(seed);
            let batched = run_fuzz(&task.aig, &isa, &base, &Budget::unlimited());
            let scalar = run_fuzz(
                &task.aig,
                &isa,
                &base.clone().scalar(),
                &Budget::unlimited(),
            );
            match (&batched.outcome, &scalar.outcome) {
                (FuzzOutcome::Leak(b), FuzzOutcome::Leak(s)) => {
                    assert_eq!(b.trials, s.trials, "seed {seed}: leak trial differs");
                    assert_eq!(b.cycle, s.cycle, "seed {seed}: leak cycle differs");
                    assert_eq!(b.imem, s.imem, "seed {seed}: stimulus differs");
                }
                (FuzzOutcome::Exhausted { .. }, FuzzOutcome::Exhausted { .. }) => {}
                (b, s) => panic!("seed {seed}: batch {b:?} vs scalar {s:?}"),
            }
        }
    }

    #[test]
    fn fuzzer_silent_on_secure_design_and_reports_throughput() {
        let (task, isa) = secure_task();
        let trials = if cfg!(debug_assertions) { 256 } else { 640 };
        let plan = FuzzPlan::new().trials(trials).cycles(20).seed(9);
        let report = run_fuzz(&task.aig, &isa, &plan, &Budget::unlimited());
        match report.outcome {
            FuzzOutcome::Exhausted {
                trials: done,
                wall,
                sim_cycles,
            } => {
                assert_eq!(done, trials);
                assert!(sim_cycles > 0, "exhausted outcome must carry cycles");
                assert_eq!(report.stats.wall, wall);
                assert!(report.stats.trials_per_sec() > 0.0);
                assert_eq!(report.stats.leak_cycle, None);
            }
            FuzzOutcome::Leak(f) => panic!("false leak on secure design: {f:?}"),
        }
    }

    #[test]
    fn zero_budget_campaign_reports_out_of_budget() {
        let (task, isa) = insecure_task();
        let budget = Budget::until(Instant::now());
        let report = run_fuzz(&task.aig, &isa, &FuzzPlan::new(), &budget);
        assert!(report.out_of_budget);
        assert!(matches!(report.outcome, FuzzOutcome::Exhausted { .. }));
    }

    #[test]
    fn coverage_campaign_agrees_batched_vs_scalar_per_seed() {
        let (task, isa) = insecure_task();
        let trials = if cfg!(debug_assertions) { 192 } else { 768 };
        for seed in [7u64, 23] {
            let base = FuzzPlan::new()
                .trials(trials)
                .cycles(12)
                .seed(seed)
                .coverage(true);
            let batched = run_fuzz(&task.aig, &isa, &base, &Budget::unlimited());
            let scalar = run_fuzz(
                &task.aig,
                &isa,
                &base.clone().scalar(),
                &Budget::unlimited(),
            );
            match (&batched.outcome, &scalar.outcome) {
                (FuzzOutcome::Leak(b), FuzzOutcome::Leak(s)) => {
                    assert_eq!(b.trials, s.trials, "seed {seed}: leak trial differs");
                    assert_eq!(b.cycle, s.cycle, "seed {seed}: leak cycle differs");
                    assert_eq!(b.imem, s.imem, "seed {seed}: stimulus differs");
                }
                (FuzzOutcome::Exhausted { .. }, FuzzOutcome::Exhausted { .. }) => {}
                (b, s) => panic!("seed {seed}: batch {b:?} vs scalar {s:?}"),
            }
            // The corpus evolves identically: same trial provenance, same
            // coverage accounting, regardless of execution width.
            assert_eq!(batched.stats.corpus_trials, scalar.stats.corpus_trials);
            assert_eq!(batched.stats.random_trials, scalar.stats.random_trials);
            let (bc, sc) = (batched.coverage.unwrap(), scalar.coverage.unwrap());
            assert_eq!(bc.signatures, sc.signatures, "seed {seed}");
            assert_eq!(bc.latches_toggled, sc.latches_toggled, "seed {seed}");
            assert_eq!(bc.corpus_size, sc.corpus_size, "seed {seed}");
            assert_eq!(
                bc.new_coverage_trials, sc.new_coverage_trials,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn coverage_campaign_reports_stats_and_finds_the_leak() {
        let (task, isa) = insecure_task();
        let trials = if cfg!(debug_assertions) { 1500 } else { 5000 };
        let plan = FuzzPlan::new()
            .trials(trials)
            .cycles(20)
            .seed(7)
            .coverage(true);
        let report = run_fuzz(&task.aig, &isa, &plan, &Budget::unlimited());
        let cov = report.coverage.expect("coverage plan must report stats");
        assert!(cov.latches_toggled > 0, "trials must toggle latches");
        assert!(cov.latches_toggled <= cov.latches_total);
        assert!(cov.signatures > 0);
        assert_eq!(
            report.stats.corpus_trials + report.stats.random_trials,
            report.stats.trials
        );
        assert!(
            matches!(report.outcome, FuzzOutcome::Leak(_)),
            "coverage guidance must not lose the leak: {:?}",
            report.outcome
        );
    }

    #[test]
    fn corpus_persists_across_campaigns_via_corpus_dir() {
        let (task, isa) = insecure_task();
        let dir = std::env::temp_dir().join(format!("csl-corpus-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // A secure-design campaign exhausts (no early leak exit), so the
        // corpus it banks is non-trivial.
        let (secure, secure_isa) = secure_task();
        let plan = FuzzPlan::new()
            .trials(128)
            .cycles(10)
            .seed(11)
            .coverage(true)
            .corpus_dir(&dir);
        let first = run_fuzz(&secure.aig, &secure_isa, &plan, &Budget::unlimited());
        let banked = first.coverage.unwrap().corpus_size;
        assert!(banked > 0, "campaign must bank corpus entries");
        let saved: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "corpus"))
            .collect();
        assert_eq!(saved.len(), 1, "one corpus file per plan x netlist key");
        // A second campaign on the same plan warm-starts from the saved
        // corpus: its very first generation can draw mutants.
        let second = run_fuzz(&secure.aig, &secure_isa, &plan, &Budget::unlimited());
        assert!(
            second.stats.corpus_trials > 0,
            "warm-started campaign must draw corpus mutants"
        );
        // A different netlist misses the key and starts cold — no
        // cross-design corpus pollution.
        let other = run_fuzz(
            &task.aig,
            &isa,
            &plan.clone().trials(64),
            &Budget::unlimited(),
        );
        drop(other);
        let files = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "corpus"))
            .count();
        assert_eq!(files, 2, "each netlist keys its own corpus file");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
