//! Encoding equivalence: the production [`Unroller`] folds constants and
//! shares gates across frames and copies; the naive reference encoder in
//! `common` does neither. Over random designs (one or two register copies,
//! every init kind, both init modes) and a shift register whose frames
//! share logic, the two encodings must mean the same:
//!
//! * (a) for every depth k ≤ [`DEPTH`], SAT?(assumes through k ∧ bad at
//!   k) agrees between the encoders;
//! * (b) on SAT, every node's model value at every frame equals concrete
//!   simulation from the model's initial latches and inputs;
//! * (c) every two `(frame, node)` pairs the production encoder maps to
//!   one literal are proven equal by the reference encoder;
//! * (d) on an unrolling that encodes only what the query reads — the
//!   assumes through k and the bad at k, as BMC asks — SAT? still agrees
//!   with the reference at every depth, and under [`InitMode::Reset`]
//!   every SAT answer's extracted trace replays on the simulator with
//!   the assumes held and the bad fired. (a) and (b) encode every node of
//!   every frame before solving, so only (d) sees a partial unrolling.

mod common;

use std::collections::HashMap;
use std::sync::Arc;

use common::{random_design, NaiveUnroller};
use csl_hdl::{Bit, Design, Init};
use csl_mc::{InitMode, Sim, SimState, TransitionSystem, Unroller};
use csl_sat::{Lit, SolveResult, Solver, Var};

const DEPTH: usize = 4;
const INITS: [Init; 3] = [Init::Zero, Init::One, Init::Symbolic];
const MODES: [InitMode; 2] = [InitMode::Reset, InitMode::Free];

/// What the checks below need from an encoder; both implement it.
trait Encoding {
    fn lit(&mut self, b: Bit, t: usize) -> Lit;
    fn assume_through(&mut self, t: usize);
    fn solver(&mut self) -> &mut Solver;
}

impl Encoding for Unroller {
    fn lit(&mut self, b: Bit, t: usize) -> Lit {
        self.ensure_frames(t);
        self.lit_of(b, t)
    }
    fn assume_through(&mut self, t: usize) {
        self.assert_assumes_through(t);
    }
    fn solver(&mut self) -> &mut Solver {
        &mut self.solver
    }
}

impl Encoding for NaiveUnroller {
    fn lit(&mut self, b: Bit, t: usize) -> Lit {
        self.lit_of(b, t)
    }
    fn assume_through(&mut self, t: usize) {
        self.assert_assumes_through(t);
    }
    fn solver(&mut self) -> &mut Solver {
        &mut self.solver
    }
}

/// Every node of the netlist, uncomplemented.
fn all_nodes(ts: &TransitionSystem) -> Vec<Bit> {
    (0..ts.aig().num_nodes() as u32)
        .map(|n| Bit::from_packed(n << 1))
        .collect()
}

/// A fresh literal implying "some bad bit fires at frame `t`".
fn bad_at(e: &mut impl Encoding, ts: &TransitionSystem, t: usize) -> Lit {
    let mut clause: Vec<Lit> = ts.aig().bads().iter().map(|b| e.lit(b.bit, t)).collect();
    let y = e.solver().new_var().positive();
    clause.push(!y);
    e.solver().add_clause(&clause);
    y
}

/// Model value of `b` at frame `t` (already encoded, so the model stays).
fn model_value(u: &mut Unroller, b: Bit, t: usize) -> bool {
    let l = u.lit_of(b, t);
    u.solver
        .value(l)
        .expect("a SAT model assigns every variable")
}

/// (b): simulates from the model's frame-0 latches and per-frame inputs
/// and compares every node at every frame `0..=k`. Latches outside the
/// cone of influence are free after frame 0 in the encoding, so the
/// simulation takes their values from the model too.
fn assert_model_matches_sim(ts: &TransitionSystem, u: &mut Unroller, k: usize, label: &str) {
    let aig = ts.aig();
    let mut sim = Sim::new(aig);
    let mut state = SimState::reset(aig);
    for t in 0..=k {
        for (i, latch) in aig.latches().iter().enumerate() {
            if t == 0 || !ts.in_coi(latch.output) {
                state.set_latch(i, model_value(u, latch.output, t));
            }
        }
        let inputs: Vec<bool> = aig
            .inputs()
            .iter()
            .map(|inp| model_value(u, inp.output, t))
            .collect();
        let step = sim.step(&state, |i, _| inputs[i]);
        for b in all_nodes(ts) {
            assert_eq!(
                model_value(u, b, t),
                step.values.bit(b),
                "{label}: node {} at frame {t} disagrees with simulation",
                b.node()
            );
        }
        state = step.next;
    }
}

/// (a) and (b) at every depth `0..=DEPTH`; returns how many depths were
/// SAT.
fn check_depths(ts: &Arc<TransitionSystem>, mode: InitMode, label: &str) -> usize {
    let mut new = Unroller::new(ts, mode);
    let mut reference = NaiveUnroller::new(ts, mode);
    let mut sat = 0;
    for k in 0..=DEPTH {
        new.assume_through(k);
        reference.assume_through(k);
        // Encode every node of every frame before solving: clauses added
        // after the solve would drop the model (b) reads.
        for t in 0..=k {
            for b in all_nodes(ts) {
                new.lit(b, t);
            }
        }
        let new_bad = bad_at(&mut new, ts, k);
        let reference_bad = bad_at(&mut reference, ts, k);
        let got = new.solver.solve_with(&[new_bad]);
        let want = reference.solver.solve_with(&[reference_bad]);
        assert_eq!(got, want, "{label}: bad at depth {k}");
        if got == SolveResult::Sat {
            sat += 1;
            assert_model_matches_sim(ts, &mut new, k, label);
        }
    }
    sat
}

/// (d) at every depth `0..=DEPTH`; returns how many traces replayed.
fn check_query_only(ts: &Arc<TransitionSystem>, mode: InitMode, label: &str) -> usize {
    let mut new = Unroller::new(ts, mode);
    let mut reference = NaiveUnroller::new(ts, mode);
    let mut replayed = 0;
    for k in 0..=DEPTH {
        new.assume_through(k);
        reference.assume_through(k);
        let new_bad = new.bad_any_at(k);
        let reference_bad = bad_at(&mut reference, ts, k);
        let got = new.solver.solve_with(&[new_bad]);
        let want = reference.solver.solve_with(&[reference_bad]);
        assert_eq!(got, want, "{label}: query-only bad at depth {k}");
        if got == SolveResult::Sat && mode == InitMode::Reset {
            let name = new.fired_bad_name(k).expect("a bad fires in the model");
            let trace = new.extract_trace(k + 1, name);
            assert_eq!(
                Sim::new(ts.aig()).replay(&trace),
                (true, true),
                "{label}: query-only trace at depth {k} does not replay"
            );
            replayed += 1;
        }
    }
    replayed
}

/// (c): every `(frame, node)` whose production literal shares a variable
/// with an earlier one must equal it (or its complement, as the literals
/// say) under the reference encoding — with no assumes, since sharing is
/// structural. Returns the number of pairs proven.
fn check_shared_literals(ts: &Arc<TransitionSystem>, mode: InitMode, label: &str) -> usize {
    let mut new = Unroller::new(ts, mode);
    new.ensure_frames(DEPTH);
    let mut reference = NaiveUnroller::new(ts, mode);
    // First (frame, node) seen per variable, complemented where its
    // literal is negative so that it equals the variable itself.
    let mut first: HashMap<Var, (Bit, usize)> = HashMap::new();
    let mut proven = 0;
    for t in 0..=DEPTH {
        for b in all_nodes(ts) {
            let l = new.lit_of(b, t);
            let b = if l.is_negative() { b.not() } else { b };
            let Some(&(rep, rep_t)) = first.get(&l.var()) else {
                first.insert(l.var(), (b, t));
                continue;
            };
            let p = reference.lit_of(rep, rep_t);
            let q = reference.lit_of(b, t);
            for differ in [[p, !q], [!p, q]] {
                assert_eq!(
                    reference.solve_with(&differ),
                    SolveResult::Unsat,
                    "{label}: node {} at frame {t} shares a literal with node {} at \
                     frame {rep_t} but the reference encoding tells them apart",
                    b.node(),
                    rep.node()
                );
            }
            proven += 1;
        }
    }
    proven
}

#[test]
fn random_designs_encode_equivalently() {
    let (mut sat, mut unsat, mut shared, mut replayed) = (0, 0, 0, 0);
    for seed in 0..18u64 {
        let inits = [INITS[seed as usize % 3], INITS[seed as usize / 3 % 3]];
        let two_copy = seed >= 9;
        let ts = TransitionSystem::shared(random_design(seed, inits, two_copy), false);
        for mode in MODES {
            let label = format!("seed {seed} inits {inits:?} two_copy {two_copy} {mode:?}");
            let s = check_depths(&ts, mode, &label);
            sat += s;
            unsat += DEPTH + 1 - s;
            shared += check_shared_literals(&ts, mode, &label);
            replayed += check_query_only(&ts, mode, &label);
        }
    }
    assert!(
        sat > 0 && unsat > 0,
        "sat {sat} / unsat {unsat}: one outcome never occurred"
    );
    assert!(
        shared > 0,
        "no node ever shared a literal — (c) checked nothing"
    );
    assert!(
        replayed > 0,
        "no query-only trace replayed — (d) checked nothing"
    );
}

/// A shift register: `r2` takes `r1`'s value one cycle late, so every gate
/// over `r2` at frame `t+1` is the same gate over `r1` at frame `t` and the
/// production encoder shares it across frames.
#[test]
fn shift_register_frames_share_logic_equivalently() {
    for init in INITS {
        let mut d = Design::new("shift");
        let x = d.input_bit("x");
        let r1 = d.reg("r1", 3, init);
        let r2 = d.reg("r2", 3, init);
        let inc = d.add_const(&r1.q(), 1);
        let next = d.mux(x, &inc, &r1.q());
        d.set_next(&r1, next);
        d.set_next(&r2, r1.q());
        for (name, r) in [("r1_hits", &r1), ("r2_hits", &r2)] {
            let hit = d.eq_const(&r.q(), 3);
            d.assert_always(name, hit.not());
        }
        let ts = TransitionSystem::shared(d.finish(), false);
        for mode in MODES {
            let label = format!("shift register {init:?} {mode:?}");
            check_depths(&ts, mode, &label);
            check_query_only(&ts, mode, &label);
            let shared = check_shared_literals(&ts, mode, &label);
            assert!(shared > 0, "{label}: no gate was shared across frames");
        }
    }
}
