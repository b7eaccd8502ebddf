//! Test support shared by the encoder and invariant tests: a random design
//! generator, a naive reference encoder to check the production
//! [`csl_mc::Unroller`] against, and a reference Houdini over it to check
//! [`csl_mc::houdini`] against.

#![allow(dead_code)]

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use csl_hdl::{Aig, Bit, Design, Init, Node, Reg};
use csl_mc::{Candidate, InitMode, TransitionSystem};
use csl_sat::{Lit, SolveResult, Solver};

/// A random small sequential design with enough structure to make the
/// SAT search conflict (and therefore learn clauses): input-gated
/// counters, a cross-register comparison, an assume, and an unreachable
/// (or late-reachable) bad value. `inits` are the reset values of the two
/// registers.
///
/// With `two_copy`, a second copy of both registers runs the same
/// next-state logic from the same inputs (the shape of the paper's two
/// processor copies), the target bad watches that copy, and one more bad
/// fires when the copies differ.
pub fn random_design(seed: u64, inits: [Init; 2], two_copy: bool) -> Aig {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut d = Design::new("rand");
    let width = rng.gen_range(3usize..=4);
    let x = d.input_bit("x");
    let y = d.input_bit("y");
    // a advances on x, by 1 or 2; b advances every cycle unless
    // saturated at a random limit.
    let a_step = rng.gen_range(1u64..=2);
    let limit = rng.gen_range(2u64..(1 << width) - 1);
    let counters = |d: &mut Design, suffix: &str| -> (Reg, Reg) {
        let a = d.reg(&format!("a{suffix}"), width, inits[0]);
        let b = d.reg(&format!("b{suffix}"), width, inits[1]);
        let a_inc = d.add_const(&a.q(), a_step);
        let a_next = d.mux(x, &a_inc, &a.q());
        d.set_next(&a, a_next);
        let at_limit = d.eq_const(&b.q(), limit);
        let b_inc = d.add_const(&b.q(), 1);
        let b_next = d.mux(at_limit, &b.q(), &b_inc);
        d.set_next(&b, b_next);
        (a, b)
    };
    let (a, b) = counters(&mut d, "");
    let copy = two_copy.then(|| counters(&mut d, "2"));

    // Optionally couple the inputs through an assume.
    if rng.gen_bool(0.5) {
        let imp = d.implies_bit(y, x);
        d.assume(imp);
    }
    // Bad: a hits a value it may or may not reach, and (sometimes) the
    // registers agreeing on a marker value.
    let target = rng.gen_range(1u64..(1 << width));
    let watched = copy.as_ref().map_or(&a, |(a2, _)| a2);
    let hit = d.eq_const(&watched.q(), target);
    d.assert_always("a_hits", hit.not());
    if rng.gen_bool(0.5) {
        let eq = d.eq(&a.q(), &b.q());
        let marker = d.eq_const(&b.q(), limit);
        let both = d.and_bit(eq, marker);
        d.assert_always("agree_at_limit", both.not());
    }
    if let Some((a2, b2)) = &copy {
        let same_a = d.eq(&a.q(), &a2.q());
        let same_b = d.eq(&b.q(), &b2.q());
        let same = d.and_bit(same_a, same_b);
        d.assert_always("copies_agree", same);
    }
    d.finish()
}

/// The reference encoder: the naive time-frame expansion that
/// [`csl_mc::Unroller`] simplifies. One variable per frame-0 latch (plus a
/// unit clause for a concrete reset value under [`InitMode::Reset`]), one
/// variable and three Tseitin clauses per AND gate per frame; no folding,
/// no sharing. Latches in the cone of influence alias the previous
/// frame's next-state literal; those outside it are free after frame 0,
/// as in the production encoder. Frames are encoded eagerly and whole.
pub struct NaiveUnroller {
    ts: Arc<TransitionSystem>,
    init_mode: InitMode,
    pub solver: Solver,
    /// `frames[t][node]`: the literal of `node` at frame `t`.
    frames: Vec<Vec<Lit>>,
    assumes_added: usize,
    const_true: Lit,
}

impl NaiveUnroller {
    pub fn new(ts: &Arc<TransitionSystem>, init_mode: InitMode) -> NaiveUnroller {
        let mut solver = Solver::new();
        let const_true = solver.new_var().positive();
        solver.add_clause(&[const_true]);
        let mut u = NaiveUnroller {
            ts: Arc::clone(ts),
            init_mode,
            solver,
            frames: Vec::new(),
            assumes_added: 0,
            const_true,
        };
        u.push_frame();
        u
    }

    fn push_frame(&mut self) {
        let ts = Arc::clone(&self.ts);
        let aig = ts.aig();
        let t = self.frames.len();
        let mut lits: Vec<Lit> = Vec::with_capacity(aig.num_nodes());
        // Nodes are created in topological order: operands come first.
        for n in 0..aig.num_nodes() as u32 {
            let lit = match aig.node(Bit::from_packed(n << 1)) {
                Node::Const => !self.const_true,
                Node::Input(_) => self.solver.new_var().positive(),
                Node::Latch(li) => {
                    let latch = &aig.latches()[li as usize];
                    if t > 0 && ts.in_coi(latch.output) {
                        let next = latch.next.expect("unsealed latch");
                        signed(self.frames[t - 1][next.node() as usize], next)
                    } else {
                        let v = self.solver.new_var().positive();
                        if t == 0 && self.init_mode == InitMode::Reset {
                            match ts.latch_init(li) {
                                Some(true) => self.solver.add_clause(&[v]),
                                Some(false) => self.solver.add_clause(&[!v]),
                                None => true,
                            };
                        }
                        v
                    }
                }
                Node::And(x, y) => {
                    let a = signed(lits[x.node() as usize], x);
                    let b = signed(lits[y.node() as usize], y);
                    let v = self.solver.new_var().positive();
                    self.solver.add_clause(&[!v, a]);
                    self.solver.add_clause(&[!v, b]);
                    self.solver.add_clause(&[v, !a, !b]);
                    v
                }
            };
            lits.push(lit);
        }
        self.frames.push(lits);
    }

    /// Ensures frames `0..=t` exist.
    pub fn ensure_frames(&mut self, t: usize) {
        while self.frames.len() <= t {
            self.push_frame();
        }
    }

    /// Solver literal for bit `b` at frame `t`, unrolling as needed.
    pub fn lit_of(&mut self, b: Bit, t: usize) -> Lit {
        self.ensure_frames(t);
        signed(self.frames[t][b.node() as usize], b)
    }

    /// Asserts all assume bits as unit clauses for frames `0..=t`.
    pub fn assert_assumes_through(&mut self, t: usize) {
        while self.assumes_added <= t {
            let f = self.assumes_added;
            for a in self.ts.aig().assumes().to_vec() {
                let l = self.lit_of(a, f);
                self.solver.add_clause(&[l]);
            }
            self.assumes_added += 1;
        }
    }

    pub fn solve_with(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.solver.solve_with(assumptions)
    }
}

/// What [`reference_houdini`] computes.
#[derive(Debug)]
pub struct ReferenceHoudini {
    /// Candidates that hold in every constrained initial state.
    pub initiated: Vec<usize>,
    /// The greatest inductive subset of `initiated`.
    pub survivors: Vec<usize>,
    /// Whether no state satisfying the survivors and the assumes fires a
    /// bad bit.
    pub proves_safety: bool,
}

/// The reference Houdini: the plain fixpoint over [`NaiveUnroller`], with
/// none of the production filter's shortcuts. Every consecution round
/// builds a fresh instance and assumes each survivor's frame-0 literal —
/// no aliasing, no incremental reuse — and the safety check asserts the
/// assumes at frame 0 only.
pub fn reference_houdini(ts: &Arc<TransitionSystem>, candidates: &[Candidate]) -> ReferenceHoudini {
    let mut init = NaiveUnroller::new(ts, InitMode::Reset);
    init.assert_assumes_through(0);
    let initiated: Vec<usize> = (0..candidates.len())
        .filter(|&i| {
            let l = init.lit_of(candidates[i].bit, 0);
            init.solve_with(&[!l]) == SolveResult::Unsat
        })
        .collect();

    let mut survivors = initiated.clone();
    loop {
        let mut u = NaiveUnroller::new(ts, InitMode::Free);
        u.assert_assumes_through(1);
        let mut assumptions: Vec<Lit> = survivors
            .iter()
            .map(|&i| u.lit_of(candidates[i].bit, 0))
            .collect();
        let next: Vec<Lit> = survivors
            .iter()
            .map(|&i| u.lit_of(candidates[i].bit, 1))
            .collect();
        // y -> (some survivor is false at frame 1)
        let y = u.solver.new_var().positive();
        let clause: Vec<Lit> = std::iter::once(!y)
            .chain(next.iter().map(|&l| !l))
            .collect();
        u.solver.add_clause(&clause);
        assumptions.push(y);
        match u.solve_with(&assumptions) {
            SolveResult::Unsat => break,
            SolveResult::Sat => {
                survivors = survivors
                    .iter()
                    .zip(&next)
                    .filter(|&(_, &l)| u.solver.value(l) != Some(false))
                    .map(|(&i, _)| i)
                    .collect();
            }
            SolveResult::Canceled => unreachable!("no budget is set"),
        }
    }

    let mut u = NaiveUnroller::new(ts, InitMode::Free);
    u.assert_assumes_through(0);
    let mut assumptions: Vec<Lit> = survivors
        .iter()
        .map(|&i| u.lit_of(candidates[i].bit, 0))
        .collect();
    // bad -> (some bad bit fires at frame 0)
    let bad = u.solver.new_var().positive();
    let bads: Vec<Bit> = ts.aig().bads().iter().map(|b| b.bit).collect();
    let clause: Vec<Lit> = std::iter::once(!bad)
        .chain(bads.into_iter().map(|b| u.lit_of(b, 0)))
        .collect();
    u.solver.add_clause(&clause);
    assumptions.push(bad);
    let proves_safety = u.solve_with(&assumptions) == SolveResult::Unsat;
    ReferenceHoudini {
        initiated,
        survivors,
        proves_safety,
    }
}

/// `lit` complemented when `b` is.
fn signed(lit: Lit, b: Bit) -> Lit {
    if b.is_complemented() {
        !lit
    } else {
        lit
    }
}
