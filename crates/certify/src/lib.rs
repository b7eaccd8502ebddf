//! `csl-certify` — independent checking of proof certificates and attack
//! witnesses.
//!
//! The engines in `csl-mc` decide safety with thousands of incremental SAT
//! calls spread across racing lanes, incremental sessions and instances
//! strengthened by Houdini survivors. Trusting a `Proven` verdict therefore means trusting all of
//! that machinery. This crate removes the need to: every decided verdict is
//! accompanied by a small artifact — a [`Certificate`] for proofs, a
//! [`Witness`] for attacks — that can be re-validated here in milliseconds
//! against the **raw, unprepared** netlist, with fresh solver instances
//! that share no state with the engines that produced it.
//!
//! # What a certificate claims
//!
//! A [`Certificate`] (defined in `csl_mc::cert`, re-exported here) names an
//! inductive invariant in raw-netlist vocabulary: restored stuck-at-reset
//! constants, surviving candidate invariants, and — for PDR-style proofs —
//! the blocked-cube clauses of the converged frame. [`check_certificate`]
//! validates the standard three obligations with three *fresh* SAT
//! sessions:
//!
//! 1. **Initiation** — every conjunct holds in the reset state (under the
//!    netlist's assume bits),
//! 2. **Consecution** — the conjunction is 1-inductive: assuming all
//!    conjuncts at frame 0 (assumes at both frames), no conjunct can be
//!    violated at frame 1,
//! 3. **Safety** — no state satisfying the conjunction and the assumes
//!    fires a bad bit.
//!
//! For [`CertKind::KInduction`] certificates the invariant is the support
//! set alone (restored constants + survivors); after establishing its
//! invariance (obligations 1–2), the checker replays the closing induction:
//! bad is unreachable in the first `k` reset frames, and a window of `k`
//! good assume-satisfying frames cannot be followed by a bad one.
//!
//! The conjuncts are verified **jointly** (each consecution query assumes
//! all of them at frame 0) — mutual induction over a conjunction is sound,
//! and it is exactly what Houdini's fixpoint and PDR's relative induction
//! established on the prepared netlist.
//!
//! # Aliased sessions
//!
//! Consecution, the inductive safety query and the k-induction step each
//! start from an arbitrary state that satisfies every conjunct. A unit
//! conjunct whose bit is the XNOR of two latch outputs — every relational
//! survivor of a LEAVE or Shadow proof — equates those latches there. So
//! these free-initialised sessions are built with
//! [`Unroller::with_aliases`]: each such pair shares one frame-0 literal,
//! the XNOR folds to true, and the gate table encodes the two processor
//! copies' next-state logic once wherever their inputs agree, the
//! reduction Houdini's rounds use. Aliasing at frame 0 adds only
//! equalities the session already asserts there, so every query is
//! equisatisfiable with the unaliased one: the obligations, their order and
//! every [`Rejection`] are unchanged. On unaliased sessions a query has to
//! re-prove the copies' equality gate by gate on the unmerged product.
//!
//! The checker stays independent of the engines' aliasing code. The pair
//! recogniser ([`equated_latches`]) is shared with Houdini, so its claims
//! are not trusted: before any session aliases a pair, one SAT query on
//! an unaliased free frame 0 must show that no state satisfies a claiming
//! conjunct while its two latches differ. A refuted claim aliases
//! nothing, and the check runs on plain sessions. The encoder is the
//! `Unroller` the checker has always shared with the engines;
//! `tests/alias_equiv.rs` holds the aliased checker to an unaliased
//! reference checker, answer for answer. Aliasing changes how a query is
//! encoded, never what it asks: the invariant, its vocabulary and the raw
//! netlist stay the checker's own.
//!
//! Measured on the `proof` benchmark's certificates (release build, 2-core
//! VM, portfolio mode at BMC depth 6; medians of 15 checks), a check takes
//! 2.8 ms on LEAVE/SingleCycle, 3.1 ms on LEAVE/InOrder and 5.2 ms on
//! Shadow/SingleCycle (136, 173 and 152 conflicts, guard included),
//! against 175, 25 and 146 ms (6,740, 1,237 and 5,813 conflicts) on
//! unaliased sessions. [`CertCheck::conflicts`] reports each check's
//! conflicts.
//!
//! # Vocabulary and cone of influence
//!
//! Certificates arrive lifted through preparation's
//! `Reconstruction` (see `csl_hdl::xform`), so latch and candidate indices
//! refer to the original netlist. The checker clones that netlist and
//! attaches every referenced bit as a probe before building its transition
//! system, so cone-of-influence reduction cannot silently drop a latch the
//! certificate constrains: a latch outside the checker's cone would
//! otherwise be treated as unconstrained and a sound certificate could be
//! spuriously rejected.
//!
//! # Failure is typed, not fatal
//!
//! Every way a certificate can fail to validate — malformed indices, a
//! conjunct false at reset, a non-inductive conjunct, a blocked cube that
//! does not exclude bad, an exhausted budget — is a distinct [`Rejection`]
//! variant, so callers (the `csl-certify` binary, the report cache's
//! verify-on-load path) can report *why* an artifact was refused.

use std::sync::Arc;
use std::time::{Duration, Instant};

use csl_hdl::{Aig, Bit};
use csl_mc::trace::Trace;
use csl_mc::ts::TransitionSystem;
use csl_mc::unroll::{equated_latches, InitMode, Unroller};
use csl_mc::{SafetyCheck, Sim};
use csl_sat::{Budget, Lit, SolveResult};

pub use csl_mc::{CertKind, Certificate};

/// Why a certificate or witness was refused. Ordered roughly from
/// "malformed artifact" to "well-formed but wrong".
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Rejection {
    /// A restored-constant or blocked-cube entry names a latch the netlist
    /// does not have.
    LatchOutOfRange { index: u32, latches: usize },
    /// A survivor index exceeds the instance's candidate list.
    SurvivorOutOfRange { index: usize, candidates: usize },
    /// A witness input assignment names an input the netlist does not have.
    InputOutOfRange { index: u32, inputs: usize },
    /// A witness starts latch `index`, named `latch`, against its declared
    /// reset value: the run it describes does not start from reset.
    LatchOffReset { index: u32, latch: String },
    /// A k-induction certificate with `k = 0` claims nothing.
    ZeroK,
    /// A conjunct does not hold in the reset state (initiation fails).
    InitViolated { conjunct: String },
    /// A conjunct can be violated one step after a state satisfying the
    /// whole conjunction (consecution fails).
    NotInductive { conjunct: String },
    /// A state satisfying the invariant and the assumes fires a bad bit
    /// (the invariant does not imply safety).
    NotSafe,
    /// A bad state is reachable within the first `k` reset frames, so the
    /// k-induction base case is false at `frame`.
    BaseFailed { frame: usize },
    /// `k` good frames can be followed by a bad one: the k-induction step
    /// does not close.
    StepFailed { k: usize },
    /// The checker's SAT budget ran out before a verdict in `phase`; the
    /// certificate is neither accepted nor refuted.
    Budget { phase: &'static str },
    /// The witness trace is empty: it cannot reach a bad state.
    EmptyTrace,
    /// Replaying the witness violated an assume bit, so the run it
    /// describes is outside the verification contract.
    AssumeViolated,
    /// Replaying the witness did not fire any bad bit on its final cycle.
    NoBadReached,
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejection::LatchOutOfRange { index, latches } => {
                write!(
                    f,
                    "latch index {index} out of range (netlist has {latches} latches)"
                )
            }
            Rejection::SurvivorOutOfRange { index, candidates } => {
                write!(
                    f,
                    "survivor index {index} out of range (instance has {candidates} candidates)"
                )
            }
            Rejection::InputOutOfRange { index, inputs } => {
                write!(
                    f,
                    "input index {index} out of range (netlist has {inputs} inputs)"
                )
            }
            Rejection::LatchOffReset { index, latch } => write!(
                f,
                "witness starts latch {index} ({latch}) against its reset value"
            ),
            Rejection::ZeroK => write!(f, "k-induction certificate with k = 0 claims nothing"),
            Rejection::InitViolated { conjunct } => {
                write!(f, "initiation fails: {conjunct} does not hold at reset")
            }
            Rejection::NotInductive { conjunct } => {
                write!(
                    f,
                    "consecution fails: {conjunct} is not preserved by a step"
                )
            }
            Rejection::NotSafe => write!(f, "invariant does not exclude the bad states"),
            Rejection::BaseFailed { frame } => {
                write!(f, "k-induction base fails: bad reachable at frame {frame}")
            }
            Rejection::StepFailed { k } => {
                write!(f, "k-induction step fails to close at k = {k}")
            }
            Rejection::Budget { phase } => {
                write!(f, "checker budget exhausted during the {phase} check")
            }
            Rejection::EmptyTrace => write!(f, "witness trace is empty"),
            Rejection::AssumeViolated => {
                write!(f, "witness replay violates an assume bit")
            }
            Rejection::NoBadReached => {
                write!(f, "witness replay does not reach a bad state")
            }
        }
    }
}

impl std::error::Error for Rejection {}

/// Evidence that a certificate validated, with enough detail to audit the
/// cost claim ("milliseconds, not the solve budget").
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CertCheck {
    /// Number of invariant conjuncts the certificate named.
    pub conjuncts: usize,
    /// Fresh SAT queries issued (each must return UNSAT).
    pub sat_calls: usize,
    /// Conflicts summed over the checker's SAT sessions.
    pub conflicts: u64,
    /// Wall time for the whole validation.
    pub elapsed: Duration,
}

/// Evidence that a witness validated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WitnessCheck {
    /// Cycles replayed before the bad bit fired.
    pub cycles: usize,
    /// Wall time for the replay.
    pub elapsed: Duration,
}

/// An attack witness: a counterexample [`Trace`] in raw-netlist vocabulary
/// (already lifted through preparation's reconstruction).
/// Checked by concrete replay — no solver involved — via [`check_witness`].
#[derive(Clone, Debug, PartialEq)]
pub struct Witness {
    /// The trace to replay against the raw netlist.
    pub trace: Trace,
}

impl Witness {
    pub fn new(trace: Trace) -> Witness {
        Witness { trace }
    }
}

/// One conjunct of the claimed invariant, with a human-readable label for
/// rejection messages.
enum Conjunct {
    /// "bit has this value".
    Unit(Bit, bool, String),
    /// Disjunction of "bit has this value" over the literals (a blocked
    /// cube's negation).
    Clause(Vec<(Bit, bool)>, String),
}

impl Conjunct {
    fn label(&self) -> String {
        match self {
            Conjunct::Unit(_, _, l) | Conjunct::Clause(_, l) => l.clone(),
        }
    }

    /// Every netlist bit the conjunct mentions (for probe attachment).
    fn bits(&self, out: &mut Vec<Bit>) {
        match self {
            Conjunct::Unit(b, _, _) => out.push(*b),
            Conjunct::Clause(lits, _) => out.extend(lits.iter().map(|&(b, _)| b)),
        }
    }

    /// The latch pair a unit conjunct claims equal: its bit, taken in the
    /// polarity the conjunct asserts, is their XNOR as
    /// [`equated_latches`] recognises it. Only a claim: the checker
    /// aliases the pair once its SAT guard confirms it.
    fn claimed_pair(&self, aig: &Aig) -> Option<(Bit, (Bit, Bit))> {
        match self {
            Conjunct::Unit(b, v, _) => {
                let bit = if *v { *b } else { b.not() };
                equated_latches(aig, bit).map(|pair| (bit, pair))
            }
            Conjunct::Clause(..) => None,
        }
    }

    /// Asserts the conjunct as hard clauses at `frame`.
    fn assert_at(&self, u: &mut Unroller, frame: usize) {
        match self {
            Conjunct::Unit(b, v, _) => u.assert_clause_at(&[(*b, *v)], frame),
            Conjunct::Clause(lits, _) => u.assert_clause_at(lits, frame),
        }
    }

    /// Assumption literals whose conjunction says "this conjunct is
    /// violated at `frame`".
    fn negation_at(&self, u: &mut Unroller, frame: usize) -> Vec<Lit> {
        let neg = |u: &mut Unroller, b: Bit, v: bool| {
            let l = u.lit_of(b, frame);
            if v {
                !l
            } else {
                l
            }
        };
        match self {
            Conjunct::Unit(b, v, _) => vec![neg(u, *b, *v)],
            Conjunct::Clause(lits, _) => lits.iter().map(|&(b, v)| neg(u, b, v)).collect(),
        }
    }
}

/// Maps a certificate onto the task's netlist: restored constants and
/// survivors become unit conjuncts, blocked cubes become clause conjuncts.
/// Rejects out-of-range indices before any solver is built.
fn conjuncts_of(task: &SafetyCheck, cert: &Certificate) -> Result<Vec<Conjunct>, Rejection> {
    let latches = task.aig.latches();
    let latch_bit = |index: u32| -> Result<Bit, Rejection> {
        latches
            .get(index as usize)
            .map(|l| l.output)
            .ok_or(Rejection::LatchOutOfRange {
                index,
                latches: latches.len(),
            })
    };
    let mut out = Vec::new();
    for &(i, v) in &cert.restored {
        out.push(Conjunct::Unit(
            latch_bit(i)?,
            v,
            format!("restored constant (latch {i} = {v})"),
        ));
    }
    for &s in &cert.survivors {
        let c = task
            .candidates
            .get(s)
            .ok_or(Rejection::SurvivorOutOfRange {
                index: s,
                candidates: task.candidates.len(),
            })?;
        out.push(Conjunct::Unit(
            c.bit,
            true,
            format!("survivor '{}'", c.name),
        ));
    }
    if let CertKind::Inductive { blocked } = &cert.kind {
        for (n, cube) in blocked.iter().enumerate() {
            let mut lits = Vec::with_capacity(cube.len());
            for &(latch, v) in cube {
                // The clause is the cube's negation: some literal differs.
                lits.push((latch_bit(latch)?, !v));
            }
            out.push(Conjunct::Clause(lits, format!("blocked cube #{n}")));
        }
    }
    Ok(out)
}

/// Builds the checker's transition system: the raw netlist with every
/// certificate-referenced bit attached as a probe, so cone-of-influence
/// reduction keeps the full certificate vocabulary constrained.
fn checker_ts(task: &SafetyCheck, conjuncts: &[Conjunct]) -> Arc<TransitionSystem> {
    let mut bits = Vec::new();
    for c in conjuncts {
        c.bits(&mut bits);
    }
    let mut aug = task.aig.clone();
    aug.add_probe("certificate", bits);
    TransitionSystem::shared(aug, true)
}

/// The SAT side of one check: the checker's transition system, the
/// conjuncts and the budget, the frame-0 aliases its free-initialised
/// sessions share (confirmed on first use), and the queries and
/// conflicts summed over every session.
struct Checker<'a> {
    ts: Arc<TransitionSystem>,
    conjuncts: &'a [Conjunct],
    budget: &'a Budget,
    aliases: Option<Vec<(Bit, Bit)>>,
    sat_calls: usize,
    conflicts: u64,
}

impl Checker<'_> {
    /// A reset-initialised session.
    fn reset_session(&self) -> Unroller {
        let mut u = Unroller::new(&self.ts, InitMode::Reset);
        u.set_budget(self.budget.clone());
        u
    }

    /// A free-initialised session with every conjunct asserted at frame
    /// 0, whose frame 0 aliases the latch pairs the unit conjuncts claim
    /// equal and the guard confirmed (see [`Checker::confirmed`]). The
    /// asserted conjuncts imply each aliased equality, so the aliases
    /// change no answer.
    fn free_session(&mut self) -> Result<Unroller, Rejection> {
        if self.aliases.is_none() {
            let claims = self
                .conjuncts
                .iter()
                .filter_map(|c| c.claimed_pair(self.ts.aig()))
                .collect();
            self.aliases = Some(self.confirmed(claims)?);
        }
        let aliases = self.aliases.as_deref().unwrap_or_default();
        let mut u = Unroller::with_aliases(&self.ts, aliases);
        u.set_budget(self.budget.clone());
        for c in self.conjuncts {
            c.assert_at(&mut u, 0);
        }
        Ok(u)
    }

    /// The SAT guard: the pairs of `claims` — each a bit and the latch
    /// pair it is claimed to equate — once one query on an unaliased free
    /// frame 0 finds no state where a claiming bit holds while its two
    /// latches differ. A refuted claim (a recogniser fault) aliases
    /// nothing.
    fn confirmed(&mut self, claims: Vec<(Bit, (Bit, Bit))>) -> Result<Vec<(Bit, Bit)>, Rejection> {
        if claims.is_empty() {
            return Ok(Vec::new());
        }
        let mut u = Unroller::new(&self.ts, InitMode::Free);
        u.set_budget(self.budget.clone());
        // Some s_i: conjunct i holds and its latches differ.
        let mut some = Vec::with_capacity(claims.len());
        for &(bit, (a, b)) in &claims {
            let s = u.solver.new_var().positive();
            let (c, la, lb) = (u.lit_of(bit, 0), u.lit_of(a, 0), u.lit_of(b, 0));
            u.solver.add_clause(&[!s, c]);
            u.solver.add_clause(&[!s, la, lb]);
            u.solver.add_clause(&[!s, !la, !lb]);
            some.push(s);
        }
        u.solver.add_clause(&some);
        match self.solve(&mut u, &[]) {
            SolveResult::Unsat => Ok(claims.into_iter().map(|(_, pair)| pair).collect()),
            SolveResult::Sat => Ok(Vec::new()),
            SolveResult::Canceled => Err(Rejection::Budget { phase: "aliasing" }),
        }
    }

    /// One query; counts it and its conflicts.
    fn solve(&mut self, u: &mut Unroller, assumptions: &[Lit]) -> SolveResult {
        let before = u.solver.stats.conflicts;
        let r = u.solve_with(assumptions);
        self.sat_calls += 1;
        self.conflicts += u.solver.stats.conflicts - before;
        r
    }

    /// One query that must be UNSAT: SAT rejects with `on_sat()`, an
    /// exhausted budget with [`Rejection::Budget`] in `phase`.
    fn expect_unsat(
        &mut self,
        u: &mut Unroller,
        assumptions: &[Lit],
        on_sat: impl FnOnce() -> Rejection,
        phase: &'static str,
    ) -> Result<(), Rejection> {
        match self.solve(u, assumptions) {
            SolveResult::Unsat => Ok(()),
            SolveResult::Sat => Err(on_sat()),
            SolveResult::Canceled => Err(Rejection::Budget { phase }),
        }
    }

    /// Obligations 1 and 2: every conjunct holds at reset, and the
    /// conjunction is preserved by one transition.
    fn check_invariance(&mut self) -> Result<(), Rejection> {
        let conjuncts = self.conjuncts;
        // Initiation: reset frame, assumes asserted, each conjunct's
        // negation must be unsatisfiable.
        let mut u = self.reset_session();
        u.assert_assumes_through(0);
        for c in conjuncts {
            let asmps = c.negation_at(&mut u, 0);
            self.expect_unsat(
                &mut u,
                &asmps,
                || Rejection::InitViolated {
                    conjunct: c.label(),
                },
                "initiation",
            )?;
        }
        // Consecution: arbitrary frame-0 state satisfying all conjuncts and
        // the assumes (at both frames); no conjunct may fail at frame 1.
        let mut u = self.free_session()?;
        u.assert_assumes_through(1);
        for c in conjuncts {
            let asmps = c.negation_at(&mut u, 1);
            self.expect_unsat(
                &mut u,
                &asmps,
                || Rejection::NotInductive {
                    conjunct: c.label(),
                },
                "consecution",
            )?;
        }
        Ok(())
    }
}

/// Validates `cert` against the raw instance `task` with an unlimited
/// budget. See the module docs for the obligations checked.
pub fn check_certificate(task: &SafetyCheck, cert: &Certificate) -> Result<CertCheck, Rejection> {
    check_certificate_with(task, cert, &Budget::unlimited())
}

/// [`check_certificate`] under an explicit SAT budget. A budget exhausted
/// mid-check rejects with [`Rejection::Budget`] — the artifact is neither
/// accepted nor refuted — so callers distinguishing "forged" from "slow"
/// must inspect the variant.
pub fn check_certificate_with(
    task: &SafetyCheck,
    cert: &Certificate,
    budget: &Budget,
) -> Result<CertCheck, Rejection> {
    let start = Instant::now();
    let conjuncts = conjuncts_of(task, cert)?;
    let mut checker = Checker {
        ts: checker_ts(task, &conjuncts),
        conjuncts: &conjuncts,
        budget,
        aliases: None,
        sat_calls: 0,
        conflicts: 0,
    };
    match &cert.kind {
        CertKind::Inductive { .. } => {
            checker.check_invariance()?;
            // Safety: a fresh session — the consecution instance carries
            // assume clauses at frame 1 that could mask a violation.
            let mut u = checker.free_session()?;
            u.assert_assumes_through(0);
            let bad = u.bad_any_at(0);
            checker.expect_unsat(&mut u, &[bad], || Rejection::NotSafe, "safety")?;
        }
        CertKind::KInduction { k } => {
            let k = *k;
            if k == 0 {
                return Err(Rejection::ZeroK);
            }
            // The support set (restored constants + survivors) strengthens
            // the induction step below, so its own invariance must be
            // established first.
            if !conjuncts.is_empty() {
                checker.check_invariance()?;
            }
            // Base: bad unreachable in the first k reset frames.
            let mut u = checker.reset_session();
            for t in 0..k {
                u.assert_assumes_through(t);
                let bad = u.bad_any_at(t);
                checker.expect_unsat(
                    &mut u,
                    &[bad],
                    || Rejection::BaseFailed { frame: t },
                    "base",
                )?;
            }
            // Step: k good assume-satisfying frames (support asserted
            // throughout) cannot be followed by a bad frame.
            let mut u = checker.free_session()?;
            u.assert_assumes_through(k);
            for t in 1..=k {
                for c in &conjuncts {
                    c.assert_at(&mut u, t);
                }
            }
            for t in 0..k {
                let bad = u.bad_any_at(t);
                u.solver.add_clause(&[!bad]);
            }
            let bad_k = u.bad_any_at(k);
            checker.expect_unsat(&mut u, &[bad_k], || Rejection::StepFailed { k }, "step")?;
        }
    }
    Ok(CertCheck {
        conjuncts: conjuncts.len(),
        sat_calls: checker.sat_calls,
        conflicts: checker.conflicts,
        elapsed: start.elapsed(),
    })
}

/// Validates an attack witness by concrete replay on the raw netlist: the
/// trace must start from the reset state, keep every assume bit satisfied
/// on every cycle and fire a bad bit on its final cycle. Malformed
/// latch/input indices and initial values against a latch's declared
/// reset value are rejected before the simulator runs.
pub fn check_witness(aig: &Aig, witness: &Witness) -> Result<WitnessCheck, Rejection> {
    let start = Instant::now();
    let trace = &witness.trace;
    if trace.depth() == 0 {
        return Err(Rejection::EmptyTrace);
    }
    for &(i, _) in &trace.initial_latches {
        if i as usize >= aig.num_latches() {
            return Err(Rejection::LatchOutOfRange {
                index: i,
                latches: aig.num_latches(),
            });
        }
    }
    if let Some(index) = trace.latch_off_reset(aig) {
        let latch = aig.latches()[index as usize].name.clone();
        return Err(Rejection::LatchOffReset { index, latch });
    }
    for cycle in &trace.inputs {
        for &i in cycle.keys() {
            if i as usize >= aig.num_inputs() {
                return Err(Rejection::InputOutOfRange {
                    index: i,
                    inputs: aig.num_inputs(),
                });
            }
        }
    }
    let (assumes_ok, bad) = Sim::new(aig).replay(trace);
    if !assumes_ok {
        return Err(Rejection::AssumeViolated);
    }
    if !bad {
        return Err(Rejection::NoBadReached);
    }
    Ok(WitnessCheck {
        cycles: trace.depth(),
        elapsed: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use csl_hdl::{Design, Init};
    use csl_mc::houdini::Candidate;

    /// A latch stuck at its zero reset: `s == 0` is 1-inductive.
    fn stuck_latch() -> SafetyCheck {
        let mut d = Design::new("stuck");
        let s = d.reg("s", 1, Init::Zero);
        d.set_next(&s, s.q());
        let one = d.eq_const(&s.q(), 1);
        d.assert_always("never1", one.not());
        SafetyCheck {
            aig: d.finish(),
            candidates: vec![Candidate {
                name: "szero".into(),
                bit: one.not(),
            }],
        }
    }

    /// A 3-bit counter saturating at 3: bad (`r == 7`) is unreachable,
    /// the MSB latch (index 2) stays 0, and plain k-induction closes at
    /// k = 4 (state 4 has no predecessor) but not below.
    fn saturating_counter() -> SafetyCheck {
        let mut d = Design::new("sat");
        let r = d.reg("r", 3, Init::Zero);
        let at_max = d.eq_const(&r.q(), 3);
        let inc = d.add_const(&r.q(), 1);
        let nxt = d.mux(at_max, &r.q(), &inc);
        d.set_next(&r, nxt);
        let bad = d.eq_const(&r.q(), 7);
        d.assert_always("no7", bad.not());
        SafetyCheck {
            aig: d.finish(),
            candidates: vec![],
        }
    }

    #[test]
    fn survivor_certificate_validates() {
        let task = stuck_latch();
        let cert = Certificate {
            restored: vec![],
            survivors: vec![0],
            kind: CertKind::Inductive { blocked: vec![] },
        };
        let ok = check_certificate(&task, &cert).unwrap();
        assert_eq!(ok.conjuncts, 1);
        assert!(ok.sat_calls >= 3);
    }

    #[test]
    fn blocked_cube_certificate_validates() {
        // Blocking the MSB (cube "latch 2 is 1") leaves exactly the
        // states 0..=3 — an inductive invariant excluding r == 7.
        let task = saturating_counter();
        let cert = Certificate {
            restored: vec![],
            survivors: vec![],
            kind: CertKind::Inductive {
                blocked: vec![vec![(2, true)]],
            },
        };
        let ok = check_certificate(&task, &cert).unwrap();
        assert_eq!(ok.conjuncts, 1);
        assert_eq!(ok.sat_calls, 3);
    }

    #[test]
    fn flipped_cube_literal_rejected() {
        // Blocking "latch 2 is 0" instead claims the MSB is stuck at 1 —
        // false in the reset state.
        let task = saturating_counter();
        let cert = Certificate {
            restored: vec![],
            survivors: vec![],
            kind: CertKind::Inductive {
                blocked: vec![vec![(2, false)]],
            },
        };
        assert!(matches!(
            check_certificate(&task, &cert),
            Err(Rejection::InitViolated { .. })
        ));
    }

    #[test]
    fn empty_inductive_certificate_rejected_when_bad_reachable_at_init_free() {
        // With no conjuncts the invariant is `true`, and safety demands
        // no assume-satisfying state at all is bad — false here, since
        // the state r == 7 exists even though it is unreachable.
        let task = saturating_counter();
        let cert = Certificate {
            restored: vec![],
            survivors: vec![],
            kind: CertKind::Inductive { blocked: vec![] },
        };
        assert_eq!(check_certificate(&task, &cert), Err(Rejection::NotSafe));
    }

    #[test]
    fn kinduction_closing_k_validates() {
        let task = saturating_counter();
        let cert = Certificate {
            restored: vec![],
            survivors: vec![],
            kind: CertKind::KInduction { k: 4 },
        };
        let ok = check_certificate(&task, &cert).unwrap();
        assert_eq!(ok.conjuncts, 0);
        // k base queries + 1 step query.
        assert_eq!(ok.sat_calls, 5);
    }

    #[test]
    fn kinduction_below_closing_k_rejected() {
        let task = saturating_counter();
        let cert = Certificate {
            restored: vec![],
            survivors: vec![],
            kind: CertKind::KInduction { k: 3 },
        };
        assert_eq!(
            check_certificate(&task, &cert),
            Err(Rejection::StepFailed { k: 3 })
        );
    }

    #[test]
    fn out_of_range_survivor_rejected() {
        let task = stuck_latch();
        let cert = Certificate {
            restored: vec![],
            survivors: vec![5],
            kind: CertKind::Inductive { blocked: vec![] },
        };
        assert_eq!(
            check_certificate(&task, &cert),
            Err(Rejection::SurvivorOutOfRange {
                index: 5,
                candidates: 1
            })
        );
    }

    #[test]
    fn zero_k_rejected() {
        let task = stuck_latch();
        let cert = Certificate {
            restored: vec![],
            survivors: vec![],
            kind: CertKind::KInduction { k: 0 },
        };
        assert_eq!(check_certificate(&task, &cert), Err(Rejection::ZeroK));
    }

    #[test]
    fn flipped_restored_constant_rejected_at_init() {
        // Claiming the stuck latch is stuck at 1 contradicts its zero
        // reset: initiation must fail.
        let task = stuck_latch();
        let cert = Certificate {
            restored: vec![(0, true)],
            survivors: vec![],
            kind: CertKind::Inductive { blocked: vec![] },
        };
        assert!(matches!(
            check_certificate(&task, &cert),
            Err(Rejection::InitViolated { .. })
        ));
    }

    /// The guard confirms a pair only when its claiming bit implies the
    /// equality: an XNOR of the two latches does, one of them alone does
    /// not, and one refuted claim confirms nothing.
    #[test]
    fn guard_confirms_only_implied_equalities() {
        let mut aig = Aig::new();
        let a = aig.latch("a", Init::Zero);
        let b = aig.latch("b", Init::Zero);
        aig.set_next(a, a);
        aig.set_next(b, b);
        let xnor = aig.xnor(a, b);
        let budget = Budget::unlimited();
        let mut checker = Checker {
            ts: TransitionSystem::shared(aig, true),
            conjuncts: &[],
            budget: &budget,
            aliases: None,
            sat_calls: 0,
            conflicts: 0,
        };
        assert_eq!(checker.confirmed(vec![(xnor, (a, b))]), Ok(vec![(a, b)]));
        assert_eq!(
            checker.confirmed(vec![(xnor, (a, b)), (a, (a, b))]),
            Ok(vec![])
        );
        assert_eq!(checker.sat_calls, 2);
    }

    #[test]
    fn witness_replay_round_trip() {
        // An input-triggered failure: driving the trigger on cycle 0
        // makes the latch fire the bad bit on cycle 1.
        let mut d = Design::new("trig");
        let go = d.input("go", 1);
        let t = d.reg("t", 1, Init::Zero);
        d.set_next(&t, go);
        let hit = d.eq_const(&t.q(), 1);
        d.assert_always("never", hit.not());
        let aig = d.finish();

        let good = Witness::new(Trace {
            initial_latches: vec![(0, false)],
            inputs: vec![[(0u32, true)].into_iter().collect(), Default::default()],
            bad_name: "never".into(),
        });
        let ok = check_witness(&aig, &good).unwrap();
        assert_eq!(ok.cycles, 2);

        // Truncating the trace loses the failing cycle.
        let mut truncated = good.clone();
        truncated.trace.inputs.truncate(1);
        assert_eq!(
            check_witness(&aig, &truncated),
            Err(Rejection::NoBadReached)
        );
    }

    /// A trace from `r == 7` fires the saturating counter's bad bit at
    /// once, but the counter resets to 0 and never gets there: starting
    /// latch 0 at 1 is no attack.
    #[test]
    fn witness_starting_against_a_reset_value_rejected() {
        let task = saturating_counter();
        let from = |r: [bool; 3]| {
            Witness::new(Trace {
                initial_latches: (0..3).map(|i| (i, r[i as usize])).collect(),
                inputs: vec![Default::default()],
                bad_name: "no7".into(),
            })
        };
        assert_eq!(
            check_witness(&task.aig, &from([true; 3])),
            Err(Rejection::LatchOffReset {
                index: 0,
                latch: task.aig.latches()[0].name.clone()
            })
        );
        // From reset the same cycle fires nothing.
        assert_eq!(
            check_witness(&task.aig, &from([false; 3])),
            Err(Rejection::NoBadReached)
        );
    }

    #[test]
    fn empty_witness_rejected() {
        let task = stuck_latch();
        let w = Witness::new(Trace {
            initial_latches: vec![],
            inputs: vec![],
            bad_name: "never1".into(),
        });
        assert_eq!(check_witness(&task.aig, &w), Err(Rejection::EmptyTrace));
    }
}
