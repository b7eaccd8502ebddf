//! Houdini-style invariant filtering.
//!
//! Given a set of *candidate* invariant bits (in this project: relational
//! equalities between corresponding registers of the two processor copies,
//! the candidate family LEAVE generates automatically), compute the largest
//! subset that is simultaneously (a) true in all constrained initial states
//! and (b) inductive under the constrained transition relation. The
//! survivors are sound invariants: they may be conjoined to other engines
//! as assumes, and if they exclude the bad states the property is proved —
//! exactly LEAVE's proof structure, and the concrete version of the paper's
//! §8 observation that shadow-logic constraints act as invariants.
//!
//! The filter runs in three phases:
//!
//! 1. **Initiation**, on a reset-initialised instance: drop every
//!    candidate some initial state violates.
//! 2. **Consecution**, on free-initialised instances: assume every
//!    survivor at frame 0 and drop the ones some successor violates,
//!    until a round drops nothing. Every round is *speculatively
//!    reduced*: a survivor whose bit is the XNOR of two latch outputs —
//!    every LEAVE candidate is, and [`equated_latches`] in
//!    [`crate::unroll`] recognises the shape — is built into the
//!    encoding, because both latches share one frame-0 literal
//!    ([`Unroller::with_aliases`]) and the XNOR folds to true. The two
//!    copies' next-state logic then encodes once wherever their inputs
//!    agree, and the round decides by structure instead of rediscovering
//!    the copies' equality gate by gate. Aliasing is exactly assuming the
//!    equalities at frame 0, and the greatest inductive subset is unique,
//!    so the survivors are the plain loop's. The aliases change with the
//!    survivors, so each round builds its own instance; a walk from each
//!    refuting round (below) drops most non-inductive candidates, so few
//!    rounds pay for a rebuild.
//! 3. **Safety**, on a fresh frame-0 instance aliased the same way: do
//!    the survivors and the assumes at frame 0 exclude every bad state?
//!    Assumes at frame 0 only, as the certificate checker's safety
//!    obligation poses it: assume clauses at frame 1 would hide a bad
//!    state that has no assume-satisfying successor.
//!
//! Between consecution rounds, simulation drops candidates without a SAT
//! call. Consecution asserts the assumes at frames 0 and 1, so each
//! candidate of the unique greatest inductive subset holds at every cycle
//! of a run whose assumes hold on every cycle up to that one, provided the
//! subset holds at the run's first cycle. Every live candidate holding
//! there is enough, since the subset is a subset of the live set.
//!
//! **Neighbourhood walks.** A refuting round's model, its counterexample
//! to induction, satisfies every live candidate and the assumes at frame
//! 0. The walk simulates [`BatchSim::LANES`] runs at once from it. Lane 0
//! starts from the model's frame-0 latches. Every other lane starts from
//! the same state with whole *alias classes* flipped, each class with
//! probability 1/8. A class is a set of latches the live latch-pair
//! candidates equate, the classes [`Unroller::with_aliases`] shares one
//! literal across (a latch no live pair names is a class of its own), so
//! a flip keeps every latch-pair candidate true. The model's inputs at
//! frames 0 and 1 drive every lane. A lane counts only if every live
//! candidate and every assume holds at its frame 0 (a flip can falsify a
//! candidate of another shape), and only while its assumes hold; every
//! live candidate false in a counting lane at one of the next few
//! successors drops. The model is read before the round retires its
//! helper variable, since adding a clause cancels it. The real instances
//! have no primary inputs, so without the flips every lane would simulate
//! the same run.
//!
//! Latches outside the cone of influence are free after frame 0 in the
//! encoding but follow their next-state logic in simulation; a simulated
//! run is one of the encoding's runs, so every drop stands. Candidate
//! indices never move, and the stimuli come from a fixed-seed mixer, so
//! the round and drop counts repeat exactly.

use csl_hdl::{Aig, Bit};
use std::sync::Arc;

use csl_sat::{Budget, Lit, SolveResult, SolverStats};

use crate::sim::{BatchSim, BatchState};
use crate::ts::TransitionSystem;
use crate::unroll::{alias_classes, equated_latches, InitMode, Unroller};

/// A named candidate invariant bit.
#[derive(Clone, Debug)]
pub struct Candidate {
    pub name: String,
    pub bit: Bit,
}

/// Outcome of a Houdini run.
#[derive(Debug)]
pub enum HoudiniResult {
    /// Fixpoint reached.
    Done(HoudiniOutcome),
    /// Budget exhausted mid-search.
    Timeout,
}

/// The surviving invariant set and run diagnostics.
#[derive(Debug)]
pub struct HoudiniOutcome {
    /// Indices into the candidate slice that survived filtering.
    pub survivors: Vec<usize>,
    /// How many got dropped by the init-state filter.
    pub dropped_at_init: usize,
    /// How many the walks from counterexamples to induction dropped.
    pub dropped_by_walks: usize,
    /// Consecution rounds performed, counting the one that closes (or
    /// finds no survivor left).
    pub rounds: usize,
    /// Whether the surviving invariants exclude every bad state — i.e.
    /// whether this alone constitutes a safety proof (LEAVE's success case).
    pub proves_safety: bool,
}

/// Runs the Houdini fixpoint. See the module docs.
pub fn houdini(
    ts: &Arc<TransitionSystem>,
    candidates: &[Candidate],
    budget: Budget,
) -> HoudiniResult {
    houdini_with_stats(ts, candidates, budget).0
}

/// [`houdini`] that also returns the statistics summed over its solvers
/// (the initial-state filter, the consecution instances and the safety
/// check).
pub fn houdini_with_stats(
    ts: &Arc<TransitionSystem>,
    candidates: &[Candidate],
    budget: Budget,
) -> (HoudiniResult, SolverStats) {
    let mut stats = SolverStats::default();
    let result = match filter(ts, candidates, &budget, &mut stats) {
        Some(outcome) => HoudiniResult::Done(outcome),
        None => HoudiniResult::Timeout,
    };
    (result, stats)
}

/// The body of [`houdini_with_stats`]; `None` when the budget runs out.
/// Every instance adds its solver counters to `stats`.
fn filter(
    ts: &Arc<TransitionSystem>,
    candidates: &[Candidate],
    budget: &Budget,
    stats: &mut SolverStats,
) -> Option<HoudiniOutcome> {
    let mut alive = initiation(ts, candidates, budget, stats)?;
    let dropped_at_init = alive.iter().filter(|&&a| !a).count();
    let pairs: Vec<Option<(Bit, Bit)>> = candidates
        .iter()
        .map(|c| equated_latches(ts.aig(), c.bit))
        .collect();

    // ---- phase 2: consecution fixpoint ------------------------------------
    // Built by the first refuting round.
    let mut sim: Option<Simulation> = None;
    let mut rounds = 0;
    loop {
        rounds += 1;
        if !alive.contains(&true) {
            break;
        }
        let mut u = Unroller::with_aliases(ts, &aliases(&alive, &pairs));
        u.set_budget(budget.clone());
        u.assert_assumes_through(1);
        let survivors: Vec<(usize, Lit, Lit)> = (0..candidates.len())
            .filter(|&i| alive[i])
            .map(|i| {
                let bit = candidates[i].bit;
                (i, u.lit_of(bit, 0), u.lit_of(bit, 1))
            })
            .collect();
        let result = round(&mut u, &survivors, &mut alive);
        *stats = *stats + u.solver.stats;
        let Some(cti) = result? else {
            break;
        };
        sim.get_or_insert_with(|| Simulation::new(ts.aig(), candidates, &pairs, budget))
            .walk(&cti, &mut alive);
    }
    let dropped_by_walks = sim.map_or(0, |s| s.by_walks);

    // ---- phase 3: do the survivors exclude the bad states? ----------------
    let survivors: Vec<usize> = (0..candidates.len()).filter(|&i| alive[i]).collect();
    let mut safety = Unroller::with_aliases(ts, &aliases(&alive, &pairs));
    safety.set_budget(budget.clone());
    safety.assert_assumes_through(0);
    let mut assumptions: Vec<Lit> = survivors
        .iter()
        .map(|&i| safety.lit_of(candidates[i].bit, 0))
        .collect();
    assumptions.push(safety.bad_any_at(0));
    let result = safety.solve_with(&assumptions);
    *stats = *stats + safety.solver.stats;
    let proves_safety = match result {
        SolveResult::Unsat => true,
        SolveResult::Sat => false,
        SolveResult::Canceled => return None,
    };

    Some(HoudiniOutcome {
        survivors,
        dropped_at_init,
        dropped_by_walks,
        rounds,
        proves_safety,
    })
}

/// Phase 1: which candidates hold in every constrained initial state.
fn initiation(
    ts: &Arc<TransitionSystem>,
    candidates: &[Candidate],
    budget: &Budget,
    stats: &mut SolverStats,
) -> Option<Vec<bool>> {
    let mut init = Unroller::new(ts, InitMode::Reset);
    init.set_budget(budget.clone());
    init.assert_assumes_through(0);
    let mut alive = Vec::with_capacity(candidates.len());
    for c in candidates {
        let l = init.lit_of(c.bit, 0);
        match init.solve_with(&[!l]) {
            SolveResult::Sat => alive.push(false),
            SolveResult::Unsat => alive.push(true),
            SolveResult::Canceled => break,
        }
    }
    *stats = *stats + init.solver.stats;
    (alive.len() == candidates.len()).then_some(alive)
}

/// A counterexample to induction as a consecution model leaves it: each
/// latch's frame-0 value and each input's value at frames 0 and 1, `None`
/// where the session never encoded that node.
struct Cti {
    latches: Vec<Option<bool>>,
    inputs: [Vec<Option<bool>>; 2],
}

/// One consecution round on `u`, whose assumes are asserted through frame
/// 1: can a state where every survivor holds step to one where some
/// survivor fails? `survivors` holds each live candidate's index and its
/// frame-0 and frame-1 literals. On SAT every survivor the model violates
/// at frame 1 is dropped from `alive`, and the model's [`Cti`] is
/// returned; `Some(None)` means the round closed (UNSAT), `None` a
/// timeout.
fn round(
    u: &mut Unroller,
    survivors: &[(usize, Lit, Lit)],
    alive: &mut [bool],
) -> Option<Option<Cti>> {
    // y -> (some surviving candidate is false at frame 1)
    let y = u.solver.new_var().positive();
    let mut clause = vec![!y];
    clause.extend(survivors.iter().map(|&(_, _, l1)| !l1));
    u.solver.add_clause(&clause);
    let mut assumptions: Vec<Lit> = survivors.iter().map(|&(_, l0, _)| l0).collect();
    assumptions.push(y);
    let cti = match u.solve_with(&assumptions) {
        SolveResult::Unsat => None,
        SolveResult::Sat => {
            let mut dropped_any = false;
            for &(i, _, l1) in survivors {
                if u.solver.value(l1) == Some(false) {
                    alive[i] = false;
                    dropped_any = true;
                }
            }
            debug_assert!(dropped_any, "SAT consecution round must drop something");
            // Read the model now: adding a clause cancels it.
            let aig = u.ts().aig();
            let value = |b: Bit, t: usize| u.encoded_lit(b, t).and_then(|l| u.solver.value(l));
            Some(Cti {
                latches: aig.latches().iter().map(|l| value(l.output, 0)).collect(),
                inputs: [0, 1].map(|t| aig.inputs().iter().map(|i| value(i.output, t)).collect()),
            })
        }
        SolveResult::Canceled => return None,
    };
    // Retire the helper variable.
    u.solver.add_clause(&[!y]);
    Some(cti)
}

/// Successors a walk visits past its counterexample's frame 0.
const WALK_STEPS: usize = 8;

/// The simulation side of a Houdini run: one simulator and one stimulus
/// stream for every walk, and what the walks dropped.
struct Simulation<'a> {
    aig: &'a Aig,
    candidates: &'a [Candidate],
    /// The latch pair each candidate equates, as [`equated_latches`]
    /// recognises it.
    pairs: &'a [Option<(Bit, Bit)>],
    sim: BatchSim<'a>,
    rng: Mixer,
    budget: &'a Budget,
    by_walks: usize,
}

impl<'a> Simulation<'a> {
    fn new(
        aig: &'a Aig,
        candidates: &'a [Candidate],
        pairs: &'a [Option<(Bit, Bit)>],
        budget: &'a Budget,
    ) -> Simulation<'a> {
        Simulation {
            aig,
            candidates,
            pairs,
            sim: BatchSim::new(aig),
            rng: Mixer(0x5EED),
            budget,
            by_walks: 0,
        }
    }

    /// Walks forward from a counterexample to induction and its
    /// neighbours: lane 0 starts from its frame-0 state, every other lane
    /// from that state with some alias classes flipped (see
    /// [`Simulation::flips`]). The model's inputs at frames 0 and 1 drive
    /// every lane where it has them, the mixer's elsewhere. A lane counts
    /// once every live candidate and every assume holds at its frame 0,
    /// and while its assumes hold; every live candidate false in a
    /// counting lane at one of the next [`WALK_STEPS`] successors drops.
    fn walk(&mut self, cti: &Cti, alive: &mut [bool]) {
        let class = alias_classes(self.aig, &aliases(alive, self.pairs));
        let flips = self.flips(&class);
        let mut state = BatchState::reset(self.aig);
        for (i, v) in cti.latches.iter().enumerate() {
            let lanes = v.map_or_else(|| self.rng.next(), broadcast);
            state.set_latch(i, lanes ^ flips[class[i] as usize]);
        }
        let mut held = !0u64;
        for t in 0..=WALK_STEPS {
            if self.budget.out_of_time() {
                return;
            }
            let rng = &mut self.rng;
            let masks = self.sim.step_masks(&state, |i, _| {
                match cti.inputs.get(t).and_then(|frame| frame[i]) {
                    Some(v) => broadcast(v),
                    None => rng.next(),
                }
            });
            held &= !masks.violated_lanes();
            if t == 0 {
                // Lane 0 passes by construction, a neighbour only where
                // every live candidate holds too.
                for (c, &a) in self.candidates.iter().zip(&*alive) {
                    if a {
                        held &= self.sim.bit(c.bit);
                    }
                }
            } else {
                self.by_walks += self.drop_false(alive, held);
            }
            if held == 0 {
                return;
            }
            state = masks.next;
        }
    }

    /// One lane word per alias-class representative (`class` maps each
    /// latch to its own): the lanes, never lane 0, that flip the class,
    /// each with probability 1/8. Flipping a whole class keeps every live
    /// latch-pair candidate true.
    fn flips(&mut self, class: &[u32]) -> Vec<u64> {
        (0..class.len())
            .map(|r| {
                if class[r] as usize != r {
                    return 0;
                }
                let rng = &mut self.rng;
                rng.next() & rng.next() & rng.next() & !1
            })
            .collect()
    }

    /// Drops every live candidate false in one of `lanes` in the cycle
    /// just simulated; returns how many.
    fn drop_false(&self, alive: &mut [bool], lanes: u64) -> usize {
        let mut dropped = 0;
        for (c, a) in self.candidates.iter().zip(alive) {
            if *a && !self.sim.bit(c.bit) & lanes != 0 {
                *a = false;
                dropped += 1;
            }
        }
        dropped
    }
}

/// `v` in every lane.
fn broadcast(v: bool) -> u64 {
    if v {
        !0
    } else {
        0
    }
}

/// SplitMix64: the fixed-seed stimulus stream, so every count a Houdini
/// run reports repeats exactly.
struct Mixer(u64);

impl Mixer {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The latch pairs the live candidates equate: the frame-0 aliases that
/// build those candidates into a session.
fn aliases(alive: &[bool], pairs: &[Option<(Bit, Bit)>]) -> Vec<(Bit, Bit)> {
    pairs
        .iter()
        .zip(alive)
        .filter_map(|(&p, &a)| if a { p } else { None })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use csl_hdl::{Design, Init, Reg};

    /// LEAVE's candidate shape: one XNOR per corresponding latch bit.
    fn bitwise_equalities(d: &mut Design, a: &Reg, b: &Reg) -> Vec<Candidate> {
        (0..a.width())
            .map(|i| Candidate {
                name: format!("a[{i}]==b[{i}]"),
                bit: d.xor_bit(a.q().bit(i), b.q().bit(i)).not(),
            })
            .collect()
    }

    fn run(ts: &Arc<TransitionSystem>, candidates: &[Candidate]) -> HoudiniOutcome {
        match houdini(ts, candidates, Budget::unlimited()) {
            HoudiniResult::Done(o) => o,
            HoudiniResult::Timeout => panic!("an unlimited Houdini run cannot time out"),
        }
    }

    /// `r` (reset 0) rises to 1 and stays there, and `q` follows it one
    /// cycle behind under `assume(!q)`: the state after reset fires
    /// `r_low` and is reachable, but has no assume-satisfying successor.
    /// With `copy`, a second copy `r2` of `r` must agree with it, and the
    /// copies' equality is the one candidate.
    fn late_assume_design(copy: bool) -> (Arc<TransitionSystem>, Vec<Candidate>) {
        let mut d = Design::new("t");
        let r = d.reg("r", 1, Init::Zero);
        let q = d.reg("q", 1, Init::Zero);
        let one = d.lit(1, 1);
        d.set_next(&r, one.clone());
        d.set_next(&q, r.q());
        d.assume(q.q().bit(0).not());
        d.assert_always("r_low", r.q().bit(0).not());
        let mut candidates = Vec::new();
        if copy {
            let r2 = d.reg("r2", 1, Init::Zero);
            d.set_next(&r2, one);
            candidates = bitwise_equalities(&mut d, &r, &r2);
            d.assert_always("copies_agree", candidates[0].bit);
        }
        (TransitionSystem::shared(d.finish(), false), candidates)
    }

    /// The safety check assumes nothing at frame 1, so the bad state of
    /// [`late_assume_design`] is not excluded — on the plain path and on
    /// the reduced one.
    #[test]
    fn bad_state_without_assume_satisfying_successor_is_not_excluded() {
        let (ts, _) = late_assume_design(false);
        let o = run(&ts, &[]);
        assert!(!o.proves_safety, "{o:?}");
        let (ts, candidates) = late_assume_design(true);
        let o = run(&ts, &candidates);
        assert_eq!((o.survivors.as_slice(), o.rounds), (&[0][..], 1), "{o:?}");
        assert!(!o.proves_safety, "{o:?}");
    }

    /// Bitwise equalities of lockstep counters are all recognised, so the
    /// reduced round decides them alone: every copy's next-state gate
    /// merges with the other's and the round closes without a conflict.
    #[test]
    fn lockstep_bit_equalities_close_in_the_reduced_round() {
        let mut d = Design::new("t");
        let a = d.reg("a", 3, Init::Zero);
        let b = d.reg("b", 3, Init::Zero);
        let an = d.add_const(&a.q(), 1);
        let bn = d.add_const(&b.q(), 1);
        d.set_next(&a, an);
        d.set_next(&b, bn);
        let eq = d.eq(&a.q(), &b.q());
        d.assert_always("equal", eq);
        let candidates = bitwise_equalities(&mut d, &a, &b);
        let ts = TransitionSystem::shared(d.finish(), false);
        let (HoudiniResult::Done(o), stats) =
            houdini_with_stats(&ts, &candidates, Budget::unlimited())
        else {
            panic!("an unlimited Houdini run cannot time out");
        };
        assert_eq!(o.survivors, vec![0, 1, 2]);
        assert_eq!(o.rounds, 1);
        assert!(o.proves_safety);
        assert_eq!(stats.conflicts, 0, "{stats:?}");
    }

    /// A refuting round keeps its drops and the next round rebuilds the
    /// instance around the remaining aliases: `b` skips a value on input
    /// `x`, so its low bit and then the carries diverge from `a`'s.
    #[test]
    fn refuting_round_hands_over_to_a_rebuilt_round() {
        let mut d = Design::new("t");
        let x = d.input_bit("x");
        let a = d.reg("a", 3, Init::Zero);
        let b = d.reg("b", 3, Init::Zero);
        let an = d.add_const(&a.q(), 1);
        d.set_next(&a, an);
        let binc = d.add_const(&b.q(), 1);
        let b2 = d.add_const(&b.q(), 2);
        let bn = d.mux(x, &b2, &binc);
        d.set_next(&b, bn);
        let eq = d.eq(&a.q(), &b.q());
        d.assert_always("equal", eq);
        let candidates = bitwise_equalities(&mut d, &a, &b);
        let ts = TransitionSystem::shared(d.finish(), false);
        let o = run(&ts, &candidates);
        assert!(o.survivors.is_empty(), "{o:?}");
        assert!(o.rounds > 1, "{o:?}");
        assert!(!o.proves_safety);
    }

    /// Two identical counters; candidate: they stay equal. Bad: they differ.
    #[test]
    fn equality_of_lockstep_counters_survives_and_proves() {
        let mut d = Design::new("t");
        let a = d.reg("a", 3, Init::Zero);
        let b = d.reg("b", 3, Init::Zero);
        let an = d.add_const(&a.q(), 1);
        let bn = d.add_const(&b.q(), 1);
        d.set_next(&a, an);
        d.set_next(&b, bn);
        let eq = d.eq(&a.q(), &b.q());
        d.assert_always("equal", eq);
        let cand = Candidate {
            name: "a==b".into(),
            bit: eq,
        };
        let ts = TransitionSystem::shared(d.finish(), false);
        match houdini(&ts, &[cand], Budget::unlimited()) {
            HoudiniResult::Done(o) => {
                assert_eq!(o.survivors, vec![0]);
                assert!(o.proves_safety);
            }
            HoudiniResult::Timeout => panic!("unexpected timeout"),
        }
    }

    /// Candidate violated at init gets dropped and the proof fails.
    #[test]
    fn init_violated_candidate_dropped() {
        let mut d = Design::new("t");
        let a = d.reg("a", 2, Init::Zero);
        let b = d.reg("b", 2, Init::Symbolic);
        d.hold(&a);
        d.hold(&b);
        let eq = d.eq(&a.q(), &b.q());
        d.assert_always("equal", eq);
        let cand = Candidate {
            name: "a==b".into(),
            bit: eq,
        };
        let ts = TransitionSystem::shared(d.finish(), false);
        match houdini(&ts, &[cand], Budget::unlimited()) {
            HoudiniResult::Done(o) => {
                assert!(o.survivors.is_empty());
                assert_eq!(o.dropped_at_init, 1);
                assert!(!o.proves_safety);
            }
            HoudiniResult::Timeout => panic!("unexpected timeout"),
        }
    }

    /// A non-inductive candidate is eliminated in the consecution loop:
    /// two counters that diverge after an input pulse.
    #[test]
    fn non_inductive_candidate_eliminated() {
        let mut d = Design::new("t");
        let x = d.input_bit("x");
        let a = d.reg("a", 3, Init::Zero);
        let b = d.reg("b", 3, Init::Zero);
        let an = d.add_const(&a.q(), 1);
        d.set_next(&a, an);
        let binc = d.add_const(&b.q(), 1);
        let b2 = d.add_const(&b.q(), 2);
        let bn = d.mux(x, &b2, &binc);
        d.set_next(&b, bn);
        let eq = d.eq(&a.q(), &b.q());
        d.assert_always("equal", eq);
        let cand = Candidate {
            name: "a==b".into(),
            bit: eq,
        };
        let ts = TransitionSystem::shared(d.finish(), false);
        match houdini(&ts, &[cand], Budget::unlimited()) {
            HoudiniResult::Done(o) => {
                assert!(o.survivors.is_empty());
                assert_eq!(o.dropped_at_init, 0);
                assert!(!o.proves_safety, "LEAVE-style UNKNOWN expected");
            }
            HoudiniResult::Timeout => panic!("unexpected timeout"),
        }
    }

    /// An assume can rescue a candidate that would otherwise not be
    /// inductive — the mechanism behind the shadow logic's constraining
    /// power (§8).
    #[test]
    fn assumes_strengthen_induction() {
        let mut d = Design::new("t");
        let x = d.input_bit("x");
        let a = d.reg("a", 3, Init::Zero);
        let b = d.reg("b", 3, Init::Zero);
        let an = d.add_const(&a.q(), 1);
        d.set_next(&a, an);
        let binc = d.add_const(&b.q(), 1);
        let b2 = d.add_const(&b.q(), 2);
        let bn = d.mux(x, &b2, &binc);
        d.set_next(&b, bn);
        let eq = d.eq(&a.q(), &b.q());
        d.assert_always("equal", eq);
        d.assume(x.not()); // forbid the divergence-inducing input
        let cand = Candidate {
            name: "a==b".into(),
            bit: eq,
        };
        let ts = TransitionSystem::shared(d.finish(), false);
        match houdini(&ts, &[cand], Budget::unlimited()) {
            HoudiniResult::Done(o) => {
                assert_eq!(o.survivors, vec![0]);
                assert!(o.proves_safety);
            }
            HoudiniResult::Timeout => panic!("unexpected timeout"),
        }
    }
}
