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
//! Frames past 0 encode on demand: a new frame encodes nothing, and a
//! query (an assume, a bad, a candidate) encodes only the cone it reads,
//! across frames, so a latch's next state at frame `t` is encoded only
//! when some query reads that latch at frame `t + 1`. On the benchmark's
//! `attack` cells that halves BMC's formula against encoding every
//! cone-of-influence latch's next state at every frame. Frame 0 still
//! encodes every cone-of-influence latch up front. After a SAT answer,
//! read the model only through nodes encoded before the solve: encoding
//! anything new discards it.
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
//! functions encode once wherever their inputs agree. [`equated_latches`]
//! recognises a candidate that equates two latch outputs, and
//! `alias_classes` chains the pairs into classes, for the session and for
//! Houdini's simulation walks. Houdini's
//! consecution rounds and safety check run on such sessions, and so do
//! the certificate checker's free-initialised sessions (`csl_certify`),
//! which alias a pair only after a SAT query on an unaliased frame 0
//! shows that its conjunct implies the equality.

use std::collections::HashMap;
use std::sync::Arc;

use csl_hdl::{Aig, Bit, FxHashMap, Node};
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
    /// Work list of [`Unroller::lit_of`]: `(frame, node)` pairs, kept to
    /// reuse its buffer.
    stack: Vec<(usize, u32)>,
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
    /// Every query on the session is equisatisfiable with the same query
    /// on an unaliased free session that asserts the equalities at frame
    /// 0, so the caller must assert (or have proven implied) each one.
    ///
    /// # Panics
    /// Panics if a pair member is not an uncomplemented latch output.
    pub fn with_aliases(ts: &Arc<TransitionSystem>, aliases: &[(Bit, Bit)]) -> Unroller {
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
        let latches = ts.aig().latches();
        let class = alias_classes(ts.aig(), aliases);
        let mut map = self.fresh_map();
        for (li, latch) in latches.iter().enumerate() {
            let node = latch.output.node();
            let r = latches[class[li] as usize].output.node();
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

    /// Adds frame `num_frames()` with nothing encoded yet: its literals
    /// come on demand through [`Unroller::lit_of`].
    pub fn push_frame(&mut self) {
        let map = self.fresh_map();
        self.frame_lits.push(map);
    }

    /// Ensures frames `0..=t` exist.
    pub fn ensure_frames(&mut self, t: usize) {
        while self.frame_lits.len() <= t {
            self.push_frame();
        }
    }

    /// Solver literal for bit `b` at frame `t`, encoding on demand the
    /// cone it reads across frames: a latch in the cone of influence at
    /// frame `t > 0` is its next-state literal at frame `t - 1`, so a
    /// latch's next state at frame `t - 1` is encoded only once some query
    /// reads the latch at frame `t`. Anything this encodes after a solve
    /// discards the model, so read a model only through nodes encoded
    /// before the solve.
    ///
    /// # Panics
    /// Panics if `t` is not yet unrolled.
    pub fn lit_of(&mut self, b: Bit, t: usize) -> Lit {
        assert!(t < self.frame_lits.len(), "frame {t} not unrolled yet");
        // Iterative DFS over (frame, node) pairs.
        let mut stack = std::mem::take(&mut self.stack);
        stack.push((t, b.node()));
        while let Some((f, n)) = stack.pop() {
            if self.frame_lits[f][n as usize].is_some() {
                continue;
            }
            let nb = Bit::from_packed(n << 1);
            let lit = match self.ts.aig().node(nb) {
                Node::Const => !self.const_true,
                Node::Input(_) => self.solver.new_var().positive(),
                Node::Latch(li) if f > 0 && self.ts.in_coi(nb) => {
                    let next = self.ts.aig().latches()[li as usize]
                        .next
                        .expect("unsealed latch");
                    let Some(l) = self.frame_lits[f - 1][next.node() as usize] else {
                        stack.push((f, n));
                        stack.push((f - 1, next.node()));
                        continue;
                    };
                    if next.is_complemented() {
                        !l
                    } else {
                        l
                    }
                }
                // A latch outside the cone of influence, referenced by an
                // auxiliary query (e.g. a Houdini candidate). Its
                // next-state function is not part of the encoded
                // transition relation, so model it as unconstrained —
                // except at frame 0 under Reset, where its declared init
                // value still applies. Sound: candidates over such latches
                // can only be *dropped* by consecution.
                Node::Latch(li) => match self.reset_const(li) {
                    Some(c) if f == 0 => c,
                    _ => self.solver.new_var().positive(),
                },
                Node::And(x, y) => {
                    let lx = self.frame_lits[f][x.node() as usize];
                    let ly = self.frame_lits[f][y.node() as usize];
                    let (Some(lx), Some(ly)) = (lx, ly) else {
                        stack.push((f, n));
                        if lx.is_none() {
                            stack.push((f, x.node()));
                        }
                        if ly.is_none() {
                            stack.push((f, y.node()));
                        }
                        continue;
                    };
                    let lx = if x.is_complemented() { !lx } else { lx };
                    let ly = if y.is_complemented() { !ly } else { ly };
                    self.and_lit(lx, ly)
                }
            };
            self.frame_lits[f][n as usize] = Some(lit);
        }
        self.stack = stack;
        let raw = self.frame_lits[t][b.node() as usize].unwrap();
        if b.is_complemented() {
            !raw
        } else {
            raw
        }
    }

    /// Literal for bit `b` at frame `t` if that frame has encoded it.
    /// Unlike [`Unroller::lit_of`] it adds nothing to the instance, so
    /// it reads a model without cancelling it.
    pub(crate) fn encoded_lit(&self, b: Bit, t: usize) -> Option<Lit> {
        let raw = self.frame_lits.get(t)?[b.node() as usize]?;
        Some(if b.is_complemented() { !raw } else { raw })
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

    /// Which bad bit is true at frame `t` in the current model, among
    /// those [`Unroller::bad_any_at`] encoded there.
    pub fn fired_bad_name(&self, t: usize) -> Option<String> {
        self.ts.aig().bads().iter().find_map(|b| {
            let l = self.encoded_lit(b.bit, t)?;
            (self.solver.value(l) == Some(true)).then(|| b.name.clone())
        })
    }

    /// Extracts a trace of `depth` cycles from the current SAT model: the
    /// frame-0 latches in the cone of influence and every input a frame
    /// encoded. It encodes nothing, so the model stays.
    pub fn extract_trace(&self, depth: usize, bad_name: String) -> Trace {
        let ts = &self.ts;
        let value = |b: Bit, t: usize| self.encoded_lit(b, t).and_then(|l| self.solver.value(l));
        let initial_latches = ts
            .active_latches()
            .iter()
            .filter_map(|&li| Some((li, value(ts.aig().latches()[li as usize].output, 0)?)))
            .collect();
        let inputs = (0..depth)
            .map(|t| {
                ts.active_inputs()
                    .iter()
                    .filter_map(|&ii| Some((ii, value(ts.aig().inputs()[ii as usize].output, t)?)))
                    .collect()
            })
            .collect();
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

/// The classes of latches the pairs in `aliases` chain together: each
/// latch's class representative, the lowest latch index in its class. A
/// latch no pair names is a class of its own.
///
/// # Panics
/// Panics if a pair member is not an uncomplemented latch output.
pub(crate) fn alias_classes(aig: &Aig, aliases: &[(Bit, Bit)]) -> Vec<u32> {
    fn root(class: &[u32], mut li: u32) -> u32 {
        while class[li as usize] != li {
            li = class[li as usize];
        }
        li
    }
    let mut class: Vec<u32> = (0..aig.num_latches() as u32).collect();
    for &(a, b) in aliases {
        let [ra, rb] = [a, b].map(|x| match aig.node(x) {
            Node::Latch(li) if !x.is_complemented() => root(&class, li),
            _ => panic!("alias {x:?} is not a latch output"),
        });
        class[ra.max(rb) as usize] = ra.min(rb);
    }
    // Links point to lower indices, so in index order each latch's link
    // already names its representative's final entry.
    for li in 0..class.len() {
        class[li] = class[class[li] as usize];
    }
    class
}

/// The two latch outputs a candidate equates, when its bit is their XNOR
/// `¬(¬(a ∧ b) ∧ ¬(¬a ∧ ¬b))` — the shape `xor(a, b).not()` builds — over
/// uncomplemented latch outputs `a` and `b`: the pair
/// [`Unroller::with_aliases`] shares one frame-0 literal between.
pub fn equated_latches(aig: &Aig, bit: Bit) -> Option<(Bit, Bit)> {
    let Node::And(x, y) = aig.node(bit) else {
        return None;
    };
    if !bit.is_complemented() || !x.is_complemented() || !y.is_complemented() {
        return None;
    }
    let (Node::And(p, q), Node::And(r, s)) = (aig.node(x), aig.node(y)) else {
        return None;
    };
    // One operand gate is `a ∧ b`, the other `¬a ∧ ¬b`, in either role.
    if !((r == p.not() && s == q.not()) || (r == q.not() && s == p.not())) {
        return None;
    }
    let latch = |l: Bit| !l.is_complemented() && matches!(aig.node(l), Node::Latch(_));
    if latch(p) && latch(q) {
        Some((p, q))
    } else if latch(r) && latch(s) {
        Some((r, s))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csl_hdl::{Design, Init};
    use std::collections::HashSet;

    /// Fresh latches `a`, `b`, `c` and an input `i` on their own netlist.
    fn latches() -> (Aig, [Bit; 4]) {
        let mut aig = Aig::new();
        let a = aig.latch("a", Init::Zero);
        let b = aig.latch("b", Init::Zero);
        let c = aig.latch("c", Init::Zero);
        let i = aig.input("i");
        (aig, [a, b, c, i])
    }

    #[test]
    fn recogniser_accepts_an_xnor_of_two_latches_in_either_operand_order() {
        let (mut aig, [a, b, ..]) = latches();
        let ab = aig.xnor(a, b);
        let ba = aig.xnor(b, a);
        assert_eq!(equated_latches(&aig, ab), Some((a, b)));
        assert_eq!(equated_latches(&aig, ba), Some((a, b)));
        // The operand gates built in the other order swap their roles.
        let neither = aig.and(a.not(), b.not());
        let both = aig.and(a, b);
        let swapped = aig.and(neither.not(), both.not()).not();
        assert_eq!(equated_latches(&aig, swapped), Some((a, b)));
    }

    #[test]
    fn alias_classes_chain_pairs_under_their_lowest_latch() {
        let (aig, [a, b, c, _]) = latches();
        assert_eq!(alias_classes(&aig, &[]), vec![0, 1, 2]);
        assert_eq!(alias_classes(&aig, &[(c, b)]), vec![0, 1, 1]);
        assert_eq!(alias_classes(&aig, &[(c, b), (b, a)]), vec![0, 0, 0]);
        assert_eq!(alias_classes(&aig, &[(c, a), (b, c)]), vec![0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "is not a latch output")]
    fn alias_classes_reject_an_input() {
        let (aig, [a, _, _, i]) = latches();
        alias_classes(&aig, &[(a, i)]);
    }

    #[test]
    fn recogniser_rejects_everything_else() {
        let (mut aig, [a, b, c, i]) = latches();
        let xor = aig.xor(a, b);
        let ac = aig.and(a, c);
        let over_gate = aig.xnor(ac, b);
        let over_input = aig.xnor(a, i);
        let flipped = aig.xnor(a.not(), b);
        for bit in [
            xor,
            a,
            a.not(),
            Bit::TRUE,
            Bit::FALSE,
            over_gate,
            over_input,
            flipped,
        ] {
            assert_eq!(equated_latches(&aig, bit), None, "{bit:?}");
        }
    }

    /// Variables an unrolling that encodes only the bad at frame `k`
    /// needs, by a walk over `(frame, node)` pairs: one per AND gate and
    /// input it reaches (a latch at frame `t > 0` reads its next state at
    /// `t - 1`), one per frame-0 latch in the cone of influence, the
    /// constant, and the indicator of [`Unroller::bad_any_at`]. Exact when
    /// no two reached gates fold or share a literal.
    fn bad_cone_vars(ts: &TransitionSystem, k: usize) -> usize {
        let aig = ts.aig();
        let mut seen = HashSet::new();
        let mut stack: Vec<(usize, Bit)> = aig.bads().iter().map(|b| (k, b.bit)).collect();
        let mut vars = 0;
        while let Some((t, b)) = stack.pop() {
            if !seen.insert((t, b.node())) {
                continue;
            }
            match aig.node(b) {
                Node::And(x, y) => {
                    vars += 1;
                    stack.extend([(t, x), (t, y)]);
                }
                Node::Input(_) => vars += 1,
                Node::Latch(li) if t > 0 => {
                    stack.push((t - 1, aig.latches()[li as usize].next.unwrap()))
                }
                Node::Latch(_) | Node::Const => {}
            }
        }
        vars + ts.active_latches().len() + 2
    }

    /// A counter `c` reaches the bad only through a one-cycle delay `q`:
    /// the bad at frame k reads `q` at k, which is `c` at k − 1, so no
    /// query reads `c`'s next state at k − 1.
    #[test]
    fn frames_encode_only_the_cone_a_query_reads() {
        let mut d = Design::new("delay");
        let c = d.reg("c", 3, Init::Symbolic);
        let q = d.reg("q", 3, Init::Symbolic);
        let inc = d.add_const(&c.q(), 1);
        d.set_next(&c, inc.clone());
        d.set_next(&q, c.q());
        let hit = d.eq_const(&q.q(), 5);
        d.assert_always("q_hits", hit.not());
        let ts = TransitionSystem::shared(d.finish(), false);
        let k = 3;
        let mut u = Unroller::new(&ts, InitMode::Free);
        u.bad_any_at(k);
        let gates: Vec<Bit> = inc
            .bits()
            .iter()
            .copied()
            .filter(|&b| matches!(ts.aig().node(b), Node::And(..)))
            .collect();
        assert!(!gates.is_empty(), "the counter has no next-state gate");
        for b in gates {
            assert_eq!(u.encoded_lit(b, k - 1), None, "{b:?} at frame {}", k - 1);
            assert!(
                u.encoded_lit(b, k - 2).is_some(),
                "{b:?} at frame {}",
                k - 2
            );
        }
        assert_eq!(u.solver.num_vars(), bad_cone_vars(&ts, k));
    }
}
