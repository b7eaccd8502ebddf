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
//! 64-way bit-parallel execution). Every trial is drawn blind from the
//! seeded stimulus stream. Revizor-style corpus mutation pays when a
//! trial is an expensive black-box CPU run; here a trial costs
//! microseconds, and BMC decides the same cells in milliseconds. Two
//! ways to run one:
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
//! advances 64 independent trials by a cycle. The benchmark's
//! `fuzz.trials_per_s` tracks the resulting throughput.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use csl_hdl::{Aig, Init};
use csl_isa::progen::{self, OpMix, StimulusPair};
use csl_isa::IsaConfig;
use csl_mc::{
    BatchSim, BatchState, EngineOutcome, FuzzStats, InconclusiveReason, Lane, LaneFactory, LaneRun,
    Sim, SimState, Trace, TransitionSystem,
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

    /// Selects the scalar simulator (one trial per pass) — the reference
    /// the batch path must agree with, trial for trial.
    pub fn scalar(mut self) -> FuzzPlan {
        self.batch = false;
        self
    }

    /// Sets the opcode mix (builder style).
    pub fn mix(mut self, mix: OpMix) -> FuzzPlan {
        self.mix = mix;
        self
    }

    /// Stable description of this plan, used as the lane label and as a
    /// session cache-key component — it must change whenever the
    /// campaign the plan describes does.
    pub fn label(&self) -> String {
        let m = &self.mix;
        format!(
            "fuzz(trials={},cycles={},seed={},batch={},mix={}/{}/{}/{}/{}/{})",
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
        out_of_budget,
    }
}

/// The fuzzing lane of the engine portfolio: a [`csl_mc::Backend`] that
/// runs a [`FuzzPlan`] against whatever instance its stage is deciding.
/// A validated leak reports as [`EngineOutcome::Attack`] — decisive, so
/// it cancels the solver lanes; an exhausted campaign is
/// [`InconclusiveReason::FuzzExhausted`]. Campaign statistics ride
/// along in the returned [`LaneRun`] into the check report.
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

    fn shadow_task(design: DesignKind) -> (SafetyCheck, IsaConfig) {
        let mut cfg = InstanceConfig::new(design, Contract::Sandboxing);
        cfg.with_candidates = false;
        let isa = cfg.cpu_config().isa;
        (shadow_instance(&cfg), isa)
    }

    fn insecure_task() -> (SafetyCheck, IsaConfig) {
        shadow_task(DesignKind::SimpleOoo(Defense::None))
    }

    fn secure_task() -> (SafetyCheck, IsaConfig) {
        shadow_task(DesignKind::SimpleOoo(Defense::DelaySpectre))
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

    /// Per seed, the batch path and the scalar path find the same leak
    /// (trial, cycle and stimulus) or both come back clean: on SimpleOoO
    /// at 12 cycles, and on the superscalar and BOOM-style cores at 20
    /// cycles, where every seed leaks.
    #[test]
    fn batched_and_scalar_campaigns_agree_per_seed() {
        let trials = if cfg!(debug_assertions) { 192 } else { 1024 };
        let cases: [(DesignKind, usize, &[u64]); 3] = [
            (DesignKind::SimpleOoo(Defense::None), 12, &[7, 9, 23]),
            (DesignKind::SuperOoo, 20, &[7, 0xF0_55]),
            (DesignKind::BigOoo, 20, &[7, 0xF0_55]),
        ];
        for (design, cycles, seeds) in cases {
            let (task, isa) = shadow_task(design);
            for &seed in seeds {
                let base = FuzzPlan::new().trials(trials).cycles(cycles).seed(seed);
                let batched = run_fuzz(&task.aig, &isa, &base, &Budget::unlimited());
                let scalar = run_fuzz(
                    &task.aig,
                    &isa,
                    &base.clone().scalar(),
                    &Budget::unlimited(),
                );
                let at = format!("{} seed {seed}", design.name());
                match (&batched.outcome, &scalar.outcome) {
                    (FuzzOutcome::Leak(b), FuzzOutcome::Leak(s)) => {
                        assert_eq!(b.trials, s.trials, "{at}: leak trial differs");
                        assert_eq!(b.cycle, s.cycle, "{at}: leak cycle differs");
                        assert_eq!(b.imem, s.imem, "{at}: stimulus differs");
                    }
                    (FuzzOutcome::Exhausted { .. }, FuzzOutcome::Exhausted { .. }) => assert!(
                        matches!(design, DesignKind::SimpleOoo(_)),
                        "{at}: no leak in {trials} trials"
                    ),
                    (b, s) => panic!("{at}: batch {b:?} vs scalar {s:?}"),
                }
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
}
