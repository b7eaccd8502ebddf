//! Engine lanes and the race that runs one schedule stage.
//!
//! A lane is a [`Backend`]: a named engine that checks a transition
//! system under a cancellable [`Budget`] and returns a [`LaneRun`] — its
//! [`EngineOutcome`] plus whatever counters it keeps (solver activity,
//! fuzzing campaign). The built-in lanes are the paper's
//! engines: [`BmcBackend`] (attack finding, their `Ht`),
//! [`KindBackend`] and [`PdrBackend`] (unbounded proofs, their
//! `Mp`/`AM`) and [`HoudiniBackend`] (relational invariants, LEAVE's
//! mechanism); callers add more through [`LaneFactory`].
//!
//! [`race`] runs the lanes of one stage of a [`crate::Schedule`], one
//! `std::thread` each. The first decisive outcome (attack or proof)
//! raises the race's stop flag, which every lane's budget carries into
//! its SAT calls, so the losers abort at their next conflict boundary
//! instead of running to their deadlines. A race nested inside another
//! race's lane forwards the enclosing stop flag into its own, so a
//! decisive sibling of the enclosing lane cancels the nested lanes too.
//!
//! Lanes race in isolation: each builds its own solvers from the stage's
//! instance and shares nothing with its siblings but the stop flag. The
//! only way one engine's facts reach another is the schedule itself —
//! Houdini survivors strengthen the instance the later stages (or the
//! portfolio Houdini lane's nested tail) run on.
//!
//! Proof outcomes carry [`Certificate`] material (the engine's inductive
//! invariant / closing `k`) so the report layer can attach a checkable
//! artifact; every built-in engine supplies it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use csl_hdl::Aig;
use csl_sat::{Budget, SolverStats};

use crate::bmc::{BmcResult, BmcSession};
use crate::cert::{CertKind, Certificate};
use crate::engine::{
    drive, CheckOptions, FuzzStats, InconclusiveReason, ProofEngine, SafetyCheck, Schedule, Verdict,
};
use crate::houdini::{houdini_with_stats, Candidate, HoudiniResult};
use crate::kind::{KindResult, KindSession};
use crate::lane::{Lane, LaneSolverStats, SharedContext};
use crate::pdr::{pdr_with_stats, PdrOptions, PdrResult};
use crate::prepare::PrepareConfig;
use crate::sim::Sim;
use crate::trace::Trace;
use crate::ts::TransitionSystem;

/// What a single backend produced. [`EngineOutcome::Attack`] and
/// [`EngineOutcome::Proof`] are decisive: the first of either ends the
/// race and cancels the other lanes.
#[derive(Debug)]
pub enum EngineOutcome {
    /// A counterexample (replay-validated by every lane but BMC).
    Attack(Box<Trace>),
    /// An unbounded proof, with its checkable certificate material (every
    /// built-in engine supplies it; a nested schedule run with
    /// certificates off, or a caller-supplied lane, may not).
    Proof(ProofEngine, Option<Box<Certificate>>),
    /// Houdini's surviving candidates (indices) when they are inductive
    /// but do not imply safety alone: no verdict, but the later stages
    /// of the schedule run on the instance they strengthen.
    Invariants(Vec<usize>),
    /// Finished inside the budget without a verdict (bounded-clean BMC,
    /// induction that never closed, PDR frame cap, …).
    Inconclusive(InconclusiveReason),
    /// Budget exhausted or canceled by a winning sibling.
    Timeout,
}

impl EngineOutcome {
    pub fn is_decisive(&self) -> bool {
        matches!(self, EngineOutcome::Attack(_) | EngineOutcome::Proof(..))
    }
}

/// One backend run: the outcome plus the counters the lane keeps, which
/// the driver folds into [`crate::CheckReport`].
#[derive(Debug)]
pub struct LaneRun {
    pub outcome: EngineOutcome,
    /// Solver activity (SAT lanes).
    pub solver: Option<LaneSolverStats>,
    /// Campaign statistics (fuzzing lanes).
    pub fuzz: Option<FuzzStats>,
}

impl From<EngineOutcome> for LaneRun {
    /// A run that kept no counters.
    fn from(outcome: EngineOutcome) -> LaneRun {
        LaneRun {
            outcome,
            solver: None,
            fuzz: None,
        }
    }
}

/// One engine lane: checks a transition system under a (cancellable)
/// budget. Implementations must validate their own counterexamples
/// (replay on the concrete simulator) before reporting
/// [`EngineOutcome::Attack`] — a decisive outcome cancels the sibling
/// lanes.
pub trait Backend: Send {
    /// The budget lane this backend occupies.
    fn lane(&self) -> Lane;
    /// The label of the lane's note line (the lane's own name unless a
    /// backend says otherwise).
    fn name(&self) -> &'static str {
        self.lane().name()
    }
    /// The system arrives behind an [`Arc`] because the solver sessions
    /// a backend builds own a clone of it.
    fn run(&self, ts: &Arc<TransitionSystem>, budget: Budget) -> LaneRun;
}

/// A cloneable constructor for caller-supplied lanes, registered through
/// [`crate::CheckOptions::extra_lanes`]. `CheckOptions` must stay
/// `Clone`, and a `Box<dyn Backend>` is not — so options carry factories
/// and each stage that runs the lane builds a fresh backend. The label
/// identifies the lane configuration in session cache keys, so it must
/// change whenever the produced backend's behaviour does.
#[derive(Clone)]
pub struct LaneFactory {
    label: String,
    make: Arc<dyn Fn() -> Box<dyn Backend> + Send + Sync>,
}

impl LaneFactory {
    pub fn new(
        label: impl Into<String>,
        make: impl Fn() -> Box<dyn Backend> + Send + Sync + 'static,
    ) -> LaneFactory {
        LaneFactory {
            label: label.into(),
            make: Arc::new(make),
        }
    }

    /// Stable description of the lane configuration (cache-key input).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Builds a fresh backend instance.
    pub fn build(&self) -> Box<dyn Backend> {
        (self.make)()
    }
}

impl std::fmt::Debug for LaneFactory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LaneFactory({})", self.label)
    }
}

/// Validates a trace by concrete replay; decisive only if the replay
/// satisfies the assumptions and fires a bad bit.
fn validated_attack(ts: &TransitionSystem, trace: Box<Trace>, engine: &str) -> EngineOutcome {
    let (assumes_ok, bad) = Sim::new(ts.aig()).replay(&trace);
    if assumes_ok && bad {
        EngineOutcome::Attack(trace)
    } else {
        EngineOutcome::Inconclusive(InconclusiveReason::ReplayFailed {
            engine: engine.to_string(),
        })
    }
}

/// Bounded model checking — the attack-finding lane (the paper's `Ht`):
/// one [`BmcSession`] checks every depth up to `depth`. Its
/// counterexamples are not replayed here: the driver replays them and
/// counts them as attacks even when the replay fails.
pub struct BmcBackend {
    pub depth: usize,
}

impl BmcBackend {
    /// A lane checking every depth up to `depth`.
    pub fn new(depth: usize) -> BmcBackend {
        BmcBackend { depth }
    }
}

impl Backend for BmcBackend {
    fn lane(&self) -> Lane {
        Lane::Bmc
    }

    fn run(&self, ts: &Arc<TransitionSystem>, budget: Budget) -> LaneRun {
        let mut session = BmcSession::new(ts);
        let outcome = match session.run_to(self.depth, budget, &mut SharedContext) {
            BmcResult::Cex(trace) => EngineOutcome::Attack(trace),
            BmcResult::Clean { depth_checked } => {
                EngineOutcome::Inconclusive(InconclusiveReason::BoundedClean {
                    depth: depth_checked,
                })
            }
            BmcResult::Timeout { .. } => EngineOutcome::Timeout,
        };
        LaneRun {
            solver: Some(LaneSolverStats::cold(Lane::Bmc, session.solver_stats())),
            ..outcome.into()
        }
    }
}

/// k-induction on the stage's instance; a proof carries the closing `k`
/// as its certificate.
pub struct KindBackend {
    pub max_k: usize,
}

impl KindBackend {
    /// A lane sweeping `k = 1..=max_k`.
    pub fn new(max_k: usize) -> KindBackend {
        KindBackend { max_k }
    }
}

impl Backend for KindBackend {
    fn lane(&self) -> Lane {
        Lane::KInduction
    }

    fn run(&self, ts: &Arc<TransitionSystem>, budget: Budget) -> LaneRun {
        let (result, stats) = KindSession::new(ts, false).run(self.max_k, budget);
        let outcome = match result {
            KindResult::Proof { k } => EngineOutcome::Proof(
                ProofEngine::KInduction { k },
                Some(Box::new(Certificate {
                    restored: Vec::new(),
                    survivors: Vec::new(),
                    kind: CertKind::KInduction { k },
                })),
            ),
            KindResult::Cex(trace) => validated_attack(ts, trace, "k-induction"),
            KindResult::Unknown { max_k_tried } => {
                EngineOutcome::Inconclusive(InconclusiveReason::InductionGap { max_k: max_k_tried })
            }
            KindResult::Timeout => EngineOutcome::Timeout,
        };
        LaneRun {
            solver: Some(LaneSolverStats::cold(Lane::KInduction, stats)),
            ..outcome.into()
        }
    }
}

/// IC3/PDR on the stage's instance; a proof carries the converged
/// inductive invariant as its certificate. A counterexample depth hint
/// is rebuilt into a concrete trace by a BMC pass beyond the attack
/// search's bound; a hint BMC cannot rebuild is a timeout.
pub struct PdrBackend {
    pub max_frames: usize,
    /// Reconstruction floor: the BMC pass hunts at least this deep.
    pub bmc_depth: usize,
}

impl PdrBackend {
    pub fn new(max_frames: usize, bmc_depth: usize) -> PdrBackend {
        PdrBackend {
            max_frames,
            bmc_depth,
        }
    }
}

impl Backend for PdrBackend {
    fn lane(&self) -> Lane {
        Lane::Pdr
    }

    fn run(&self, ts: &Arc<TransitionSystem>, budget: Budget) -> LaneRun {
        let (result, raw) = pdr_with_stats(
            ts,
            PdrOptions {
                max_frames: self.max_frames,
                budget: budget.clone(),
            },
            &mut SharedContext,
        );
        let mut stats = LaneSolverStats::cold(Lane::Pdr, raw);
        let outcome = match result {
            PdrResult::Proof {
                frames,
                invariant_clauses,
                fixpoint_level,
                invariant,
            } => EngineOutcome::Proof(
                ProofEngine::Pdr {
                    frames,
                    clauses: invariant_clauses,
                    fixpoint_level,
                },
                Some(Box::new(Certificate {
                    restored: Vec::new(),
                    survivors: Vec::new(),
                    kind: CertKind::Inductive { blocked: invariant },
                })),
            ),
            PdrResult::Cex { depth_hint } => {
                let deep = depth_hint.max(self.bmc_depth + 1) + 8;
                let rebuilt = BmcBackend::new(deep).run(ts, budget);
                if let Some(s) = &rebuilt.solver {
                    stats.absorb(s);
                }
                match rebuilt.outcome {
                    EngineOutcome::Attack(trace) => validated_attack(ts, trace, "pdr"),
                    _ => EngineOutcome::Timeout,
                }
            }
            PdrResult::Timeout => EngineOutcome::Timeout,
            PdrResult::FrameLimit { frames } => {
                EngineOutcome::Inconclusive(InconclusiveReason::FrameCap { frames })
            }
        };
        LaneRun {
            solver: Some(stats),
            ..outcome.into()
        }
    }
}

/// The Houdini lane: filter candidate relational invariants to an
/// inductive subset. If they imply safety outright that is a proof
/// (LEAVE's success mode); otherwise the lane reports them as
/// [`EngineOutcome::Invariants`] for the driver to strengthen the later
/// stages with.
///
/// With [`HoudiniBackend::tail`] — the portfolio's Houdini lane — the
/// lane instead runs [`Schedule::houdini_tail`] as a nested schedule on
/// its own thread: the filter, then k-induction and PDR on the
/// strengthened instance, while the plain lanes race beside it.
pub struct HoudiniBackend {
    pub candidates: Vec<Candidate>,
    /// Options of the nested tail schedule, when this lane runs one.
    tail: Option<CheckOptions>,
}

impl HoudiniBackend {
    /// A filter-only lane.
    pub fn new(candidates: Vec<Candidate>) -> HoudiniBackend {
        HoudiniBackend {
            candidates,
            tail: None,
        }
    }

    /// Runs the strengthened tail under `opts` (builder style), with
    /// preparation off: the lane's instance is the stage's, already
    /// prepared when `opts` prepares. The tail lanes share this lane's
    /// clock.
    pub fn tail(mut self, opts: &CheckOptions) -> HoudiniBackend {
        self.tail = Some(opts.clone().with_prepare(PrepareConfig::off()));
        self
    }

    fn filter(&self, ts: &Arc<TransitionSystem>, budget: Budget) -> LaneRun {
        let (result, stats) = houdini_with_stats(ts, &self.candidates, budget);
        let outcome = match result {
            HoudiniResult::Timeout => EngineOutcome::Timeout,
            HoudiniResult::Done(out) if out.proves_safety => EngineOutcome::Proof(
                ProofEngine::Houdini {
                    invariants: out.survivors.len(),
                },
                Some(Box::new(Certificate {
                    restored: Vec::new(),
                    survivors: out.survivors,
                    kind: CertKind::Inductive {
                        blocked: Vec::new(),
                    },
                })),
            ),
            HoudiniResult::Done(out) => EngineOutcome::Invariants(out.survivors),
        };
        LaneRun {
            solver: Some(LaneSolverStats::cold(Lane::Houdini, stats)),
            ..outcome.into()
        }
    }
}

impl Backend for HoudiniBackend {
    fn lane(&self) -> Lane {
        Lane::Houdini
    }

    fn run(&self, ts: &Arc<TransitionSystem>, budget: Budget) -> LaneRun {
        let Some(opts) = &self.tail else {
            return self.filter(ts, budget);
        };
        let task = SafetyCheck {
            aig: ts.aig().clone(),
            candidates: self.candidates.clone(),
        };
        let report = drive(&task, &Schedule::houdini_tail(opts), opts, &budget);
        // The lane's counters aggregate its tail: the nested filter and
        // the proof engines on the strengthened instance.
        let mut solver = LaneSolverStats::cold(Lane::Houdini, SolverStats::default());
        for s in &report.solver {
            solver.absorb(s);
        }
        let outcome = match report.verdict {
            Verdict::Attack(trace) => EngineOutcome::Attack(trace),
            Verdict::Proof(p) => EngineOutcome::Proof(p, report.certificate.map(Box::new)),
            Verdict::Timeout => EngineOutcome::Timeout,
            Verdict::Unknown { reason } => EngineOutcome::Inconclusive(reason),
        };
        LaneRun {
            solver: Some(solver),
            ..outcome.into()
        }
    }
}

/// The result of one lane, in arrival order.
#[derive(Debug)]
pub struct LaneResult {
    pub engine: &'static str,
    pub lane: Lane,
    pub run: LaneRun,
    pub elapsed: Duration,
}

/// Everything the race produced: per-lane results (in completion order)
/// plus whether the stop flag was raised to cancel the stragglers.
#[derive(Debug)]
pub struct RaceReport {
    pub lanes: Vec<LaneResult>,
    pub canceled_stragglers: bool,
}

/// How often a race waiting on its lanes checks the enclosing stop flag.
const STOP_POLL: Duration = Duration::from_millis(2);

/// Races `lanes` against each other, one thread per backend, until the
/// first decisive outcome or the `enclosing` budget's deadline, which
/// every lane runs under. Each lane builds its
/// own [`TransitionSystem`] from a clone of `aig` (the build is cheap
/// relative to any SAT query) and gets a budget carrying the race's stop
/// flag; when a lane reports a decisive outcome the flag is raised and
/// every other lane aborts at its next conflict/cycle boundary. A stop
/// requested on the `enclosing` budget — the budget of the lane this
/// race runs inside, if any — is forwarded to the race's flag. A lone
/// lane has no sibling to cancel: it runs on the calling thread under
/// the enclosing stop flag.
pub fn race(
    mut lanes: Vec<Box<dyn Backend>>,
    aig: &Aig,
    keep_probes: bool,
    enclosing: &Budget,
) -> RaceReport {
    if lanes.len() == 1 {
        let backend = lanes.pop().expect("one lane");
        return RaceReport {
            lanes: vec![run_lane(
                backend,
                aig.clone(),
                keep_probes,
                enclosing.clone(),
            )],
            canceled_stragglers: false,
        };
    }
    let stop = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::channel::<LaneResult>();
    let mut handles = Vec::with_capacity(lanes.len());
    for backend in lanes {
        let aig = aig.clone();
        let budget = Budget {
            stop: Some(stop.clone()),
            ..enclosing.clone()
        };
        let tx = tx.clone();
        handles.push(std::thread::spawn(move || {
            // The receiver may be gone if the race was already decided.
            let _ = tx.send(run_lane(backend, aig, keep_probes, budget));
        }));
    }
    drop(tx);

    let mut lanes = Vec::with_capacity(handles.len());
    let mut canceled_stragglers = false;
    // Every lane sends exactly once, so the channel disconnects once all
    // of them have reported (or died).
    loop {
        match rx.recv_timeout(STOP_POLL) {
            Ok(lane) => {
                if lane.run.outcome.is_decisive() && !canceled_stragglers {
                    stop.store(true, Ordering::Relaxed);
                    canceled_stragglers = true;
                }
                lanes.push(lane);
            }
            Err(RecvTimeoutError::Timeout) => {
                if enclosing.stop_requested() {
                    stop.store(true, Ordering::Relaxed);
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    for h in handles {
        let _ = h.join();
    }
    RaceReport {
        lanes,
        canceled_stragglers,
    }
}

/// Runs one lane to its result under `budget`.
fn run_lane(backend: Box<dyn Backend>, aig: Aig, keep_probes: bool, budget: Budget) -> LaneResult {
    let start = Instant::now();
    let ts = TransitionSystem::shared(aig, keep_probes);
    let run = backend.run(&ts, budget);
    LaneResult {
        engine: backend.name(),
        lane: backend.lane(),
        run,
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csl_hdl::{Design, Init};

    /// A 1-bit design with no bad states (backends under test ignore it).
    fn trivial_aig() -> Aig {
        let mut d = Design::new("trivial");
        let r = d.reg("r", 1, Init::Zero);
        let q = r.q();
        d.set_next(&r, q);
        d.finish()
    }

    /// Returns `outcome()` after `delay`, polling the stop flag every
    /// millisecond; reports how it exited through the shared flags.
    struct FakeBackend<F: Fn() -> EngineOutcome + Send + Sync> {
        name: &'static str,
        delay: Duration,
        outcome: F,
        saw_stop: Arc<AtomicBool>,
        finished_naturally: Arc<AtomicBool>,
    }

    impl<F: Fn() -> EngineOutcome + Send + Sync> Backend for FakeBackend<F> {
        fn name(&self) -> &'static str {
            self.name
        }

        fn lane(&self) -> Lane {
            Lane::Bmc
        }

        fn run(&self, _ts: &Arc<TransitionSystem>, budget: Budget) -> LaneRun {
            let end = Instant::now() + self.delay;
            while Instant::now() < end {
                if budget.stop_requested() {
                    self.saw_stop.store(true, Ordering::Relaxed);
                    return EngineOutcome::Timeout.into();
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            self.finished_naturally.store(true, Ordering::Relaxed);
            (self.outcome)().into()
        }
    }

    fn fake(
        name: &'static str,
        delay: Duration,
        outcome: impl Fn() -> EngineOutcome + Send + Sync + 'static,
    ) -> (Box<dyn Backend>, Arc<AtomicBool>, Arc<AtomicBool>) {
        let saw_stop = Arc::new(AtomicBool::new(false));
        let finished = Arc::new(AtomicBool::new(false));
        let backend = Box::new(FakeBackend {
            name,
            delay,
            outcome,
            saw_stop: saw_stop.clone(),
            finished_naturally: finished.clone(),
        });
        (backend, saw_stop, finished)
    }

    #[test]
    fn fast_engine_wins_and_slow_loser_is_canceled_promptly() {
        let slow_natural_delay = Duration::from_secs(30);
        let (fast, _, _) = fake("fast", Duration::from_millis(10), || {
            EngineOutcome::Proof(ProofEngine::KInduction { k: 1 }, None)
        });
        let (slow, slow_saw_stop, slow_finished) = fake("slow", slow_natural_delay, || {
            EngineOutcome::Proof(
                ProofEngine::Pdr {
                    frames: 1,
                    clauses: 0,
                    fixpoint_level: 0,
                },
                None,
            )
        });
        let start = Instant::now();
        let deadline = Instant::now() + Duration::from_secs(60);
        let report = race(
            vec![fast, slow],
            &trivial_aig(),
            false,
            &Budget::until(deadline),
        );
        let wall = start.elapsed();
        // The fast proof decided the race and the slow lane was stopped
        // cooperatively, well before its natural completion time.
        assert!(report.canceled_stragglers);
        assert!(
            wall < slow_natural_delay / 4,
            "race took {wall:?}, cancellation was not prompt"
        );
        assert!(
            slow_saw_stop.load(Ordering::Relaxed),
            "loser never saw the stop flag"
        );
        assert!(!slow_finished.load(Ordering::Relaxed));
        let winner = report
            .lanes
            .iter()
            .find(|l| l.run.outcome.is_decisive())
            .expect("decisive lane");
        assert_eq!(winner.engine, "fast");
    }

    #[test]
    fn inconclusive_lanes_do_not_cancel_each_other() {
        let (a, _, a_fin) = fake("a", Duration::from_millis(5), || {
            EngineOutcome::Inconclusive(InconclusiveReason::Other("nothing".into()))
        });
        let (b, b_saw_stop, b_fin) = fake("b", Duration::from_millis(40), || {
            EngineOutcome::Inconclusive(InconclusiveReason::Other("nothing".into()))
        });
        let deadline = Instant::now() + Duration::from_secs(60);
        let report = race(vec![a, b], &trivial_aig(), false, &Budget::until(deadline));
        assert!(!report.canceled_stragglers);
        assert!(a_fin.load(Ordering::Relaxed));
        assert!(b_fin.load(Ordering::Relaxed));
        assert!(!b_saw_stop.load(Ordering::Relaxed));
        assert_eq!(report.lanes.len(), 2);
    }

    /// A lane running a race of its own — a nested schedule — is
    /// canceled with its siblings: a decisive sibling's stop reaches the
    /// nested lanes, whether the nested stage races (stop forwarded) or
    /// runs its lone lane inline (enclosing flag).
    #[test]
    fn decisive_sibling_cancels_a_nested_race() {
        struct Nested {
            lanes: usize,
            saw_stop: Arc<AtomicBool>,
        }
        impl Backend for Nested {
            fn lane(&self) -> Lane {
                Lane::Houdini
            }
            fn run(&self, ts: &Arc<TransitionSystem>, budget: Budget) -> LaneRun {
                let inner = (0..self.lanes)
                    .map(|_| {
                        let slow = FakeBackend {
                            name: "inner",
                            delay: Duration::from_secs(30),
                            outcome: || EngineOutcome::Timeout,
                            saw_stop: self.saw_stop.clone(),
                            finished_naturally: Arc::new(AtomicBool::new(false)),
                        };
                        Box::new(slow) as Box<dyn Backend>
                    })
                    .collect();
                let mut report = race(inner, ts.aig(), false, &budget);
                report.lanes.remove(0).run
            }
        }
        for lanes in [1, 2] {
            let (fast, _, _) = fake("fast", Duration::from_millis(10), || {
                EngineOutcome::Proof(ProofEngine::KInduction { k: 1 }, None)
            });
            let saw_stop = Arc::new(AtomicBool::new(false));
            let nested = Nested {
                lanes,
                saw_stop: saw_stop.clone(),
            };
            let deadline = Instant::now() + Duration::from_secs(60);
            let start = Instant::now();
            let report = race(
                vec![fast, Box::new(nested)],
                &trivial_aig(),
                false,
                &Budget::until(deadline),
            );
            assert!(report.canceled_stragglers);
            assert!(
                start.elapsed() < Duration::from_secs(7),
                "{lanes} nested lane(s): cancellation was not prompt"
            );
            assert!(saw_stop.load(Ordering::Relaxed), "{lanes} nested lane(s)");
        }
    }

    #[test]
    fn all_lanes_report_even_when_race_is_decided() {
        // Three lanes: the winner plus two with staggered delays; every
        // lane's result must be collected (for the notes) despite the stop.
        let (w, _, _) = fake("winner", Duration::from_millis(1), || {
            EngineOutcome::Proof(ProofEngine::KInduction { k: 2 }, None)
        });
        let (l1, _, _) = fake("l1", Duration::from_secs(20), || EngineOutcome::Timeout);
        let (l2, _, _) = fake("l2", Duration::from_secs(20), || EngineOutcome::Timeout);
        let deadline = Instant::now() + Duration::from_secs(60);
        let report = race(
            vec![w, l1, l2],
            &trivial_aig(),
            false,
            &Budget::until(deadline),
        );
        assert_eq!(report.lanes.len(), 3);
    }
}
