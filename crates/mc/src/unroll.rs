//! Time-frame expansion: encoding netlist frames into CNF.
//!
//! The [`Unroller`] maintains one incremental SAT instance and a per-frame
//! map from netlist nodes to solver literals. Frame `t+1` latch literals
//! *alias* the frame-`t` encodings of their next-state functions, so the
//! transition relation costs no equality clauses. Initial-state handling is
//! configurable: with [`InitMode::Reset`] frame 0 respects latch init values
//! (BMC); with [`InitMode::Free`] frame-0 latches are unconstrained
//! (induction-step and Houdini-consecution queries).
//!
//! The encoder simplifies as it goes, so every engine that unrolls gets
//! the smaller formula:
//! * under [`InitMode::Reset`], a latch with a concrete init value *is*
//!   the constant literal at frame 0 (no variable, no unit clause);
//! * every AND gate goes through one helper that folds a constant, equal
//!   or complementary operand pair, and otherwise looks the ordered
//!   operand-literal pair up in a gate table shared by all frames, so a
//!   gate some earlier frame — or an identical copy of the logic — already
//!   encoded reuses that variable and adds no clauses.
//!
//! Each `(frame, node)` literal still equals that node's value at that
//! frame in every model; several `(frame, node)` pairs may share one
//! literal. The constant sweep in [`crate::prepare`](mod@crate::prepare) runs once, over the
//! netlist, and folds only latches stuck at their reset value forever;
//! the encoder folds each frame's own constants (a reset frame 0 and
//! what it feeds forward) and shares the logic two machine copies
//! compute identically from them. Free-initialised sessions have no
//! frame-0 constants, so they still depend on the sweep.
//!
//! A free-initialised session may instead start from *aliased* latches
//! (`Unroller::with_aliases`): each class of latch outputs equated by
//! the caller shares one frame-0 literal, which is exactly assuming the
//! equalities at frame 0. The gate table then merges the logic the
//! equated latches feed identically, so the two copies' next-state
//! functions encode once wherever their inputs agree. Houdini's first
//! consecution round runs on such a session.

use std::collections::HashMap;
use std::sync::Arc;

use csl_hdl::{Bit, FxHashMap, Node};
use csl_sat::{Budget, Lit, SolveResult, Solver, SolverStats};

use crate::trace::Trace;
use crate::ts::TransitionSystem;

/// Frame-0 treatment of latches.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InitMode {
    /// Latches start at their declared init value (symbolic ones free).
    Reset,
    /// All latches free: the query ranges over arbitrary states.
    Free,
}

/// Incremental multi-frame CNF encoder. See the module docs.
///
/// The unroller *owns* (a share of) its [`TransitionSystem`], so a solver
/// session can hold its unrollers without a lifetime tying it to the
/// caller; [`crate::BmcSession`] keeps one alive across the depth steps of
/// a BMC lane.
pub struct Unroller {
    ts: Arc<TransitionSystem>,
    pub solver: Solver,
    /// `frame_lits[t][node] = Some(lit)` once encoded.
    frame_lits: Vec<Vec<Option<Lit>>>,
    /// Encoded AND gates by ordered operand-literal pair, shared by all
    /// frames. Only ever looked up, never iterated, so the encoding (and
    /// with it every solver counter) is deterministic.
    gates: FxHashMap<(Lit, Lit), Lit>,
    /// Work list of [`Unroller::lit_of`], kept to reuse its buffer.
    stack: Vec<u32>,
    /// Frames whose assume bits have been asserted.
    assumes_added: usize,
    /// Cached per-frame "some bad fired" indicator literals.
    bad_any: HashMap<usize, Lit>,
    init_mode: InitMode,
    const_true: Lit,
}

impl Unroller {
    pub fn new(ts: &Arc<TransitionSystem>, init_mode: InitMode) -> Unroller {
        Unroller::build(ts, init_mode, &[])
    }

    /// A free-initialised session in which the two latch outputs of each
    /// pair in `aliases` — and so each class of outputs the pairs chain
    /// together — share one frame-0 literal: every frame-0 state
    /// satisfies the equalities by construction, as if each were assumed.
    /// Latches outside the cone of influence are aliased too.
    ///
    /// # Panics
    /// Panics if a pair member is not an uncomplemented latch output.
    pub(crate) fn with_aliases(ts: &Arc<TransitionSystem>, aliases: &[(Bit, Bit)]) -> Unroller {
        Unroller::build(ts, InitMode::Free, aliases)
    }

    fn build(ts: &Arc<TransitionSystem>, init_mode: InitMode, aliases: &[(Bit, Bit)]) -> Unroller {
        let mut solver = Solver::new();
        let const_true = solver.new_var().positive();
        solver.add_clause(&[const_true]);
        // Propagating the constant's unit is set-up, not an engine's
        // work: the counters a lane reports start here.
        solver.stats = SolverStats::default();
        let mut u = Unroller {
            ts: Arc::clone(ts),
            solver,
            frame_lits: Vec::new(),
            gates: FxHashMap::default(),
            stack: Vec::new(),
            assumes_added: 0,
            bad_any: HashMap::new(),
            init_mode,
            const_true,
        };
        u.push_frame0(aliases);
        u
    }

    pub fn set_budget(&mut self, budget: Budget) {
        self.solver.set_budget(budget);
    }

    /// The transition system this session encodes.
    pub fn ts(&self) -> &Arc<TransitionSystem> {
        &self.ts
    }

    /// The session's frame-0 latch treatment.
    pub fn init_mode(&self) -> InitMode {
        self.init_mode
    }

    /// Asserts a clause — the disjunction of "bit `b` has value `v`"
    /// over `lits` — at `frame`. The certificate checker asserts its
    /// candidate invariant's conjuncts through this.
    ///
    /// # Panics
    /// Panics if `frame` is not yet unrolled.
    pub fn assert_clause_at(&mut self, lits: &[(Bit, bool)], frame: usize) {
        let clause: Vec<Lit> = lits
            .iter()
            .map(|&(b, v)| {
                let l = self.lit_of(b, frame);
                if v {
                    l
                } else {
                    !l
                }
            })
            .collect();
        self.solver.add_clause(&clause);
    }

    /// Number of frames currently encoded.
    pub fn num_frames(&self) -> usize {
        self.frame_lits.len()
    }

    fn fresh_map(&self) -> Vec<Option<Lit>> {
        vec![None; self.ts.aig().num_nodes()]
    }

    /// Frame-0 literal of latch `li` when reset fixes it: the constant
    /// literal for its declared init value under [`InitMode::Reset`].
    fn reset_const(&self, li: u32) -> Option<Lit> {
        if self.init_mode != InitMode::Reset {
            return None;
        }
        let v = self.ts.latch_init(li)?;
        Some(if v { self.const_true } else { !self.const_true })
    }

    /// Literal for `a ∧ b`: folds a constant, equal or complementary
    /// operand, and otherwise reuses the gate table entry, creating a
    /// variable and its three Tseitin clauses only on a miss.
    fn and_lit(&mut self, a: Lit, b: Lit) -> Lit {
        let t = self.const_true;
        if a == !t || b == !t || a == !b {
            return !t;
        }
        if a == t || a == b {
            return b;
        }
        if b == t {
            return a;
        }
        let key = if a <= b { (a, b) } else { (b, a) };
        if let Some(&v) = self.gates.get(&key) {
            return v;
        }
        let v = self.solver.new_var().positive();
        // v <-> a & b
        self.solver.add_clause(&[!v, a]);
        self.solver.add_clause(&[!v, b]);
        self.solver.add_clause(&[v, !a, !b]);
        self.gates.insert(key, v);
        v
    }

    /// Encodes frame 0's latches: the active ones, plus every aliased one
    /// (see [`Unroller::with_aliases`]), in latch order. The members of an
    /// alias class share the literal first created for any of them.
    fn push_frame0(&mut self, aliases: &[(Bit, Bit)]) {
        let ts = Arc::clone(&self.ts);
        // Union-find over latch nodes; a class's root is its lowest node.
        let mut parent: HashMap<u32, u32> = HashMap::new();
        let root = |parent: &HashMap<u32, u32>, mut n: u32| {
            while let Some(&p) = parent.get(&n) {
                n = p;
            }
            n
        };
        for &(a, b) in aliases {
            for x in [a, b] {
                assert!(
                    !x.is_complemented() && matches!(ts.aig().node(x), Node::Latch(_)),
                    "alias {x:?} is not a latch output"
                );
            }
            let (ra, rb) = (root(&parent, a.node()), root(&parent, b.node()));
            if ra != rb {
                parent.insert(ra.max(rb), ra.min(rb));
            }
        }
        let mut map = self.fresh_map();
        for (li, latch) in ts.aig().latches().iter().enumerate() {
            let node = latch.output.node();
            let r = root(&parent, node);
            if r == node && !ts.in_coi(latch.output) {
                continue;
            }
            let l = match (map[r as usize], self.reset_const(li as u32)) {
                (Some(l), _) | (None, Some(l)) => l,
                (None, None) => self.solver.new_var().positive(),
            };
            map[r as usize] = Some(l);
            map[node as usize] = Some(l);
        }
        self.frame_lits.push(map);
    }

    /// Adds frame `num_frames()`: latch literals alias the previous frame's
    /// next-state encodings.
    pub fn push_frame(&mut self) {
        let prev = self.frame_lits.len() - 1;
        let ts = Arc::clone(&self.ts);
        let mut nexts: Vec<(u32, Lit)> = Vec::with_capacity(ts.active_latches().len());
        for &li in ts.active_latches() {
            let next_bit = ts.aig().latches()[li as usize]
                .next
                .expect("unsealed latch");
            let l = self.lit_of(next_bit, prev);
            nexts.push((li, l));
        }
        let mut map = self.fresh_map();
        for (li, l) in nexts {
            let latch = &self.ts.aig().latches()[li as usize];
            map[latch.output.node() as usize] = Some(l);
        }
        self.frame_lits.push(map);
    }

    /// Ensures frames `0..=t` exist.
    pub fn ensure_frames(&mut self, t: usize) {
        while self.frame_lits.len() <= t {
            self.push_frame();
        }
    }

    /// Solver literal for bit `b` at frame `t`, encoding the cone on demand.
    ///
    /// # Panics
    /// Panics if `t` is not yet unrolled.
    pub fn lit_of(&mut self, b: Bit, t: usize) -> Lit {
        assert!(t < self.frame_lits.len(), "frame {t} not unrolled yet");
        // Iterative DFS over the combinational cone at frame t.
        let mut stack = std::mem::take(&mut self.stack);
        stack.push(b.node());
        while let Some(n) = stack.pop() {
            if self.frame_lits[t][n as usize].is_some() {
                continue;
            }
            let nb = Bit::from_packed(n << 1);
            let lit = match self.ts.aig().node(nb) {
                Node::Const => !self.const_true,
                Node::Input(_) => self.solver.new_var().positive(),
                // A latch outside the cone of influence, referenced by an
                // auxiliary query (e.g. a Houdini candidate). Its
                // next-state function is not part of the encoded
                // transition relation, so model it as unconstrained —
                // except at frame 0 under Reset, where its declared init
                // value still applies. Sound: candidates over such latches
                // can only be *dropped* by consecution.
                Node::Latch(li) => match self.reset_const(li) {
                    Some(c) if t == 0 => c,
                    _ => self.solver.new_var().positive(),
                },
                Node::And(x, y) => {
                    let lx = self.frame_lits[t][x.node() as usize];
                    let ly = self.frame_lits[t][y.node() as usize];
                    let (Some(lx), Some(ly)) = (lx, ly) else {
                        stack.push(n);
                        if lx.is_none() {
                            stack.push(x.node());
                        }
                        if ly.is_none() {
                            stack.push(y.node());
                        }
                        continue;
                    };
                    let lx = if x.is_complemented() { !lx } else { lx };
                    let ly = if y.is_complemented() { !ly } else { ly };
                    self.and_lit(lx, ly)
                }
            };
            self.frame_lits[t][n as usize] = Some(lit);
        }
        self.stack = stack;
        let raw = self.frame_lits[t][b.node() as usize].unwrap();
        if b.is_complemented() {
            !raw
        } else {
            raw
        }
    }

    /// Asserts all assume bits as unit clauses for frames `0..=t`.
    pub fn assert_assumes_through(&mut self, t: usize) {
        self.ensure_frames(t);
        while self.assumes_added <= t {
            let f = self.assumes_added;
            let assumes: Vec<Bit> = self.ts.aig().assumes().to_vec();
            for a in assumes {
                let l = self.lit_of(a, f);
                self.solver.add_clause(&[l]);
            }
            self.assumes_added += 1;
        }
    }

    /// A literal implying "some bad bit fired at frame `t`" (one-directional:
    /// asserting it as an assumption forces a bad bit true; its negation as a
    /// unit clause forces all bad bits false).
    pub fn bad_any_at(&mut self, t: usize) -> Lit {
        if let Some(&l) = self.bad_any.get(&t) {
            return l;
        }
        self.ensure_frames(t);
        let bads: Vec<Bit> = self.ts.aig().bads().iter().map(|b| b.bit).collect();
        let lits: Vec<Lit> = bads.iter().map(|&b| self.lit_of(b, t)).collect();
        let y = self.solver.new_var().positive();
        // y -> (b1 | b2 | ...)
        let mut clause = vec![!y];
        clause.extend(lits.iter().copied());
        self.solver.add_clause(&clause);
        // bi -> y (so !y blocks all bads)
        for &b in &lits {
            self.solver.add_clause(&[!b, y]);
        }
        self.bad_any.insert(t, y);
        y
    }

    /// Which bad bit is true at frame `t` in the current model.
    pub fn fired_bad_name(&mut self, t: usize) -> Option<String> {
        let bads: Vec<(String, Bit)> = self
            .ts
            .aig()
            .bads()
            .iter()
            .map(|b| (b.name.clone(), b.bit))
            .collect();
        for (name, bit) in bads {
            let l = self.lit_of(bit, t);
            if self.solver.value(l) == Some(true) {
                return Some(name);
            }
        }
        None
    }

    /// Extracts a trace of `depth` cycles from the current SAT model.
    pub fn extract_trace(&mut self, depth: usize, bad_name: String) -> Trace {
        let ts = Arc::clone(&self.ts);
        let mut initial_latches = Vec::new();
        for &li in ts.active_latches() {
            let out = ts.aig().latches()[li as usize].output;
            let l = self.lit_of(out, 0);
            if let Some(v) = self.solver.value(l) {
                initial_latches.push((li, v));
            }
        }
        let mut inputs = Vec::with_capacity(depth);
        for t in 0..depth {
            let mut m = HashMap::new();
            for &ii in ts.active_inputs() {
                let out = ts.aig().inputs()[ii as usize].output;
                // Only read inputs the frame actually encoded.
                if self.frame_lits[t][out.node() as usize].is_some() {
                    let l = self.lit_of(out, t);
                    if let Some(v) = self.solver.value(l) {
                        m.insert(ii, v);
                    }
                }
            }
            inputs.push(m);
        }
        Trace {
            initial_latches,
            inputs,
            bad_name,
        }
    }

    /// Direct access to the solve call with assumptions.
    pub fn solve_with(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.solver.solve_with(assumptions)
    }
}
