//! Property-directed reachability (IC3).
//!
//! The unbounded-proof engine standing in for JasperGold's proof engines
//! (paper §6 uses the `Mp`/`AM` engines to find proofs). This is a
//! conventional IC3 with:
//!
//! * a single incremental SAT instance holding one copy of the transition
//!   relation (frames 0 → 1 of the [`Unroller`] in free-init mode),
//! * per-level activation literals for frame clauses, with the initial
//!   state gated by the level-0 activation literal,
//! * unsat-core predecessor lifting and unsat-core + literal-drop
//!   inductive generalisation,
//! * environment constraints (`assume` bits) asserted in both frames, so
//!   all reasoning is relative to the contract constraint check — the
//!   paper's hypothesis that shadow-logic constraints carry invariant
//!   power (§8) materialises here as smaller, shallower IC3 runs.
//!
//! Initial states may be *partially* symbolic (instruction memory), so
//! init-disjointness of cubes is decided by SAT queries rather than the
//! syntactic check of classic AIGER-based IC3.

use std::collections::BinaryHeap;
use std::sync::Arc;

use csl_sat::{Budget, Lit, SolveResult, SolverStats};

use crate::lane::SharedContext;
use crate::ts::TransitionSystem;
use crate::unroll::{InitMode, Unroller};

/// A cube: a partial assignment of latches, sorted by latch index.
pub type Cube = Vec<(u32, bool)>;

/// Outcome of a PDR run.
#[derive(Debug)]
pub enum PdrResult {
    /// Safety proved; the invariant lives at frame `fixpoint_level`.
    Proof {
        frames: usize,
        invariant_clauses: usize,
        /// Frame index at which propagation found the fixpoint.
        fixpoint_level: usize,
        /// The inductive invariant as blocked cubes over latch
        /// `(index, value)` pairs: Inv = (no bad reachable from) the
        /// conjunction of ¬cube for each cube here. Certificate
        /// material — init-true, inductive relative to the assumes,
        /// and excluding every bad state.
        invariant: Vec<Cube>,
    },
    /// A counterexample exists; rerun BMC around `depth_hint` to extract a
    /// concrete trace.
    Cex { depth_hint: usize },
    /// Budget exhausted.
    Timeout,
    /// Frame limit reached without convergence.
    FrameLimit { frames: usize },
}

/// Options for [`pdr`].
#[derive(Clone, Debug)]
pub struct PdrOptions {
    pub max_frames: usize,
    pub budget: Budget,
}

impl Default for PdrOptions {
    fn default() -> Self {
        PdrOptions {
            max_frames: 60,
            budget: Budget::unlimited(),
        }
    }
}

struct Obligation {
    level: usize,
    /// Tie-breaker so the heap is a stable FIFO within a level.
    seq: u64,
    cube: Cube,
}

impl PartialEq for Obligation {
    fn eq(&self, other: &Self) -> bool {
        self.level == other.level && self.seq == other.seq
    }
}
impl Eq for Obligation {}
impl PartialOrd for Obligation {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Obligation {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; we want the *lowest* level first.
        other.level.cmp(&self.level).then(other.seq.cmp(&self.seq))
    }
}

struct PdrState {
    ts: Arc<TransitionSystem>,
    u: Unroller,
    /// Activation literal per level (index 0 = initial states).
    acts: Vec<Lit>,
    /// frames[i] = cubes blocked at exactly level i (1-based; index 0 unused).
    frames: Vec<Vec<Cube>>,
    /// Latch literal caches at frames 0 and 1.
    lit0: Vec<Lit>,
    lit1: Vec<Lit>,
    /// Map latch index -> position in `active_latches`.
    latch_pos: Vec<usize>,
    bad0: Lit,
    bad1: Lit,
    /// "No bad bit at frame 0" gate, for lifting queries.
    seq: u64,
    budget: Budget,
    queries_since_cleanup: usize,
}

impl PdrState {
    fn new(ts: &Arc<TransitionSystem>, opts: &PdrOptions) -> PdrState {
        let mut u = Unroller::new(ts, InitMode::Free);
        u.set_budget(opts.budget.clone());
        u.assert_assumes_through(1);
        let bad0 = u.bad_any_at(0);
        let bad1 = u.bad_any_at(1);
        let mut lit0 = Vec::new();
        let mut lit1 = Vec::new();
        let mut latch_pos = vec![usize::MAX; ts.aig().num_latches()];
        for (pos, &li) in ts.active_latches().iter().enumerate() {
            let out = ts.aig().latches()[li as usize].output;
            lit0.push(u.lit_of(out, 0));
            lit1.push(u.lit_of(out, 1));
            latch_pos[li as usize] = pos;
        }
        // Level-0 activation literal gates the initial values.
        let act0 = u.solver.new_var().positive();
        for (pos, &li) in ts.active_latches().iter().enumerate() {
            if let Some(v) = ts.latch_init(li) {
                let l = if v { lit0[pos] } else { !lit0[pos] };
                u.solver.add_clause(&[!act0, l]);
            }
        }
        PdrState {
            ts: Arc::clone(ts),
            u,
            acts: vec![act0],
            frames: vec![Vec::new()],
            lit0,
            lit1,
            latch_pos,
            bad0,
            bad1,
            seq: 0,
            budget: opts.budget.clone(),
            queries_since_cleanup: 0,
        }
    }

    fn out_of_time(&self) -> bool {
        self.budget.out_of_time()
    }

    fn top_level(&self) -> usize {
        self.acts.len() - 1
    }

    fn push_level(&mut self) {
        let a = self.u.solver.new_var().positive();
        self.acts.push(a);
        self.frames.push(Vec::new());
    }

    /// Assumption literals activating `F_level` (all levels >= `level`).
    fn frame_assumptions(&self, level: usize) -> Vec<Lit> {
        self.acts[level..].to_vec()
    }

    fn cube_lit0(&self, (latch, val): (u32, bool)) -> Lit {
        let l = self.lit0[self.latch_pos[latch as usize]];
        if val {
            l
        } else {
            !l
        }
    }

    fn cube_lit1(&self, (latch, val): (u32, bool)) -> Lit {
        let l = self.lit1[self.latch_pos[latch as usize]];
        if val {
            l
        } else {
            !l
        }
    }

    /// Temporary activation literal; retire with a `!tmp` unit afterwards.
    fn temp_clause(&mut self, mut clause: Vec<Lit>) -> Lit {
        let tmp = self.u.solver.new_var().positive();
        clause.insert(0, !tmp);
        self.u.solver.add_clause(&clause);
        tmp
    }

    fn retire(&mut self, tmp: Lit) {
        self.u.solver.add_clause(&[!tmp]);
        self.queries_since_cleanup += 1;
        if self.queries_since_cleanup >= 512 {
            self.queries_since_cleanup = 0;
            self.u.solver.simplify();
        }
    }

    /// Does `cube` intersect the constrained initial states?
    fn intersects_init(&mut self, cube: &Cube) -> Result<bool, ()> {
        let mut assumptions = vec![self.acts[0]];
        assumptions.extend(cube.iter().map(|&l| self.cube_lit0(l)));
        match self.u.solve_with(&assumptions) {
            SolveResult::Sat => Ok(true),
            SolveResult::Unsat => Ok(false),
            SolveResult::Canceled => Err(()),
        }
    }

    /// Blocks `cube` at `level` by adding its negation as a frame clause.
    fn add_blocked_cube(&mut self, cube: &Cube, level: usize) {
        let mut clause = vec![!self.acts[level]];
        clause.extend(cube.iter().map(|&l| !self.cube_lit0(l)));
        self.u.solver.add_clause(&clause);
        self.frames[level].push(cube.clone());
    }

    /// SAT?(F_{level} ∧ bad): returns a lifted bad-state cube if reachable
    /// at the frontier.
    fn bad_cube_at(&mut self, level: usize) -> Result<Option<Cube>, ()> {
        let mut assumptions = self.frame_assumptions(level);
        assumptions.push(self.bad0);
        match self.u.solve_with(&assumptions) {
            SolveResult::Unsat => Ok(None),
            SolveResult::Canceled => Err(()),
            SolveResult::Sat => {
                let (cube, inputs) = self.model_state_and_inputs();
                let lifted = self.lift(&cube, &inputs, LiftTarget::Bad)?;
                Ok(Some(lifted))
            }
        }
    }

    /// Reads the frame-0 latch cube and input assignment from the model.
    fn model_state_and_inputs(&mut self) -> (Cube, Vec<Lit>) {
        let mut cube: Cube = Vec::with_capacity(self.ts.active_latches().len());
        for (pos, &li) in self.ts.active_latches().iter().enumerate() {
            if let Some(v) = self.u.solver.value(self.lit0[pos]) {
                cube.push((li, v));
            }
        }
        let inputs: Vec<Lit> = {
            let mut lits = Vec::new();
            let aig = self.ts.aig();
            let active: Vec<u32> = self.ts.active_inputs().to_vec();
            for ii in active {
                let out = aig.inputs()[ii as usize].output;
                let l = self.u.lit_of(out, 0);
                if let Some(v) = self.u.solver.value(l) {
                    lits.push(if v { l } else { !l });
                }
            }
            lits
        };
        (cube, inputs)
    }

    /// Shrinks a concrete predecessor using the unsat core of
    /// `state ∧ inputs ∧ ¬target` (which must be unsatisfiable).
    fn lift(&mut self, cube: &Cube, inputs: &[Lit], target: LiftTarget) -> Result<Cube, ()> {
        let tmp = match &target {
            LiftTarget::Bad => self.temp_clause(vec![!self.bad0]),
            LiftTarget::SuccessorCube(c) => {
                let clause: Vec<Lit> = c.iter().map(|&l| !self.cube_lit1(l)).collect();
                self.temp_clause(clause)
            }
        };
        let mut assumptions: Vec<Lit> = vec![tmp];
        assumptions.extend(inputs.iter().copied());
        assumptions.extend(cube.iter().map(|&l| self.cube_lit0(l)));
        let r = self.u.solve_with(&assumptions);
        let out = match r {
            SolveResult::Unsat => {
                let core: Vec<Lit> = self.u.solver.unsat_core().to_vec();
                let lifted: Cube = cube
                    .iter()
                    .copied()
                    .filter(|&l| core.contains(&self.cube_lit0(l)))
                    .collect();
                Ok(if lifted.is_empty() {
                    cube.clone()
                } else {
                    lifted
                })
            }
            SolveResult::Sat => {
                // Should be unreachable; fall back to the unlifted cube.
                Ok(cube.clone())
            }
            SolveResult::Canceled => Err(()),
        };
        self.retire(tmp);
        out
    }

    /// Relative-induction query: SAT?(F_{level-1} ∧ ¬cube ∧ T ∧ cube′).
    /// `Ok(None)` = UNSAT (cube blocked, core-shrunk cube returned via
    /// `Ok(None)` path's companion `last_core`), `Ok(Some(pred))` = SAT with
    /// a lifted predecessor.
    fn try_block(&mut self, cube: &Cube, level: usize) -> Result<BlockOutcome, ()> {
        let not_cube: Vec<Lit> = cube.iter().map(|&l| !self.cube_lit0(l)).collect();
        let tmp = self.temp_clause(not_cube);
        let mut assumptions = self.frame_assumptions(level - 1);
        assumptions.push(tmp);
        let cube_primed: Vec<Lit> = cube.iter().map(|&l| self.cube_lit1(l)).collect();
        assumptions.extend(cube_primed.iter().copied());
        let r = self.u.solve_with(&assumptions);
        let out = match r {
            SolveResult::Unsat => {
                // Keep only cube literals whose primed assumption is in the core.
                let core: Vec<Lit> = self.u.solver.unsat_core().to_vec();
                let reduced: Cube = cube
                    .iter()
                    .copied()
                    .filter(|&l| core.contains(&self.cube_lit1(l)))
                    .collect();
                Ok(BlockOutcome::Blocked {
                    reduced: if reduced.is_empty() {
                        cube.clone()
                    } else {
                        reduced
                    },
                })
            }
            SolveResult::Sat => {
                let (pred, inputs) = self.model_state_and_inputs();
                // Drop successor-frame info: pred is over frame-0 latches.
                let lifted = self.lift(&pred, &inputs, LiftTarget::SuccessorCube(cube.clone()))?;
                Ok(BlockOutcome::Predecessor(lifted))
            }
            SolveResult::Canceled => Err(()),
        };
        self.retire(tmp);
        out
    }

    /// Ensures `cube` stays init-disjoint, restoring literals from
    /// `fallback` if needed.
    fn restore_init_disjoint(&mut self, mut cube: Cube, fallback: &Cube) -> Result<Cube, ()> {
        if !self.intersects_init(&cube)? {
            return Ok(cube);
        }
        for &l in fallback {
            if !cube.contains(&l) {
                cube.push(l);
                cube.sort_unstable();
                if !self.intersects_init(&cube)? {
                    return Ok(cube);
                }
            }
        }
        Ok(fallback.clone())
    }

    /// Inductive generalisation: unsat-core shrink already applied; now try
    /// dropping each literal while keeping (a) init-disjointness and
    /// (b) relative induction at `level`.
    fn generalize(&mut self, mut cube: Cube, level: usize) -> Result<Cube, ()> {
        let mut i = 0;
        while i < cube.len() {
            if cube.len() == 1 {
                break;
            }
            let mut candidate = cube.clone();
            candidate.remove(i);
            if self.intersects_init(&candidate)? {
                i += 1;
                continue;
            }
            match self.try_block(&candidate, level)? {
                BlockOutcome::Blocked { reduced } => {
                    let restored = self.restore_init_disjoint(reduced, &candidate)?;
                    cube = restored;
                    i = 0;
                }
                BlockOutcome::Predecessor(_) => {
                    i += 1;
                }
            }
        }
        Ok(cube)
    }

    /// Pushes clauses forward; returns the level whose frame emptied, if any.
    fn propagate(&mut self) -> Result<Option<usize>, ()> {
        for level in 1..self.top_level() {
            let cubes = self.frames[level].clone();
            let mut remaining = Vec::new();
            for cube in cubes {
                // SAT?(F_level ∧ T ∧ cube′)
                let mut assumptions = self.frame_assumptions(level);
                assumptions.extend(cube.iter().map(|&l| self.cube_lit1(l)));
                match self.u.solve_with(&assumptions) {
                    SolveResult::Unsat => {
                        self.add_blocked_cube(&cube, level + 1);
                    }
                    SolveResult::Sat => remaining.push(cube),
                    SolveResult::Canceled => return Err(()),
                }
            }
            self.frames[level] = remaining;
            if self.frames[level].is_empty() {
                return Ok(Some(level));
            }
        }
        Ok(None)
    }
}

enum LiftTarget {
    Bad,
    SuccessorCube(Cube),
}

enum BlockOutcome {
    Blocked { reduced: Cube },
    Predecessor(Cube),
}

/// Runs IC3. See the module docs.
pub fn pdr(ts: &Arc<TransitionSystem>, opts: PdrOptions) -> PdrResult {
    pdr_with_stats(ts, opts, &mut SharedContext).0
}

/// [`pdr`] that also returns the cumulative statistics of the underlying
/// solver instance, for the per-lane diagnostics block of the check
/// report. The [`SharedContext`] is inert and ignored.
pub fn pdr_with_stats(
    ts: &Arc<TransitionSystem>,
    opts: PdrOptions,
    _ctx: &mut SharedContext,
) -> (PdrResult, SolverStats) {
    let mut st = PdrState::new(ts, &opts);
    let result = pdr_loop(&mut st, &opts);
    (result, st.u.solver.stats)
}

fn pdr_loop(st: &mut PdrState, opts: &PdrOptions) -> PdrResult {
    // Depth-0 base case: SAT?(Init ∧ bad).
    let mut base_assumptions = vec![st.acts[0], st.bad0];
    match st.u.solve_with(&base_assumptions) {
        SolveResult::Sat => return PdrResult::Cex { depth_hint: 0 },
        SolveResult::Canceled => return PdrResult::Timeout,
        SolveResult::Unsat => {}
    }
    // Depth-1 base case: SAT?(Init ∧ T ∧ bad′).
    base_assumptions = vec![st.acts[0], st.bad1];
    match st.u.solve_with(&base_assumptions) {
        SolveResult::Sat => return PdrResult::Cex { depth_hint: 1 },
        SolveResult::Canceled => return PdrResult::Timeout,
        SolveResult::Unsat => {}
    }

    st.push_level(); // level 1
    loop {
        if st.out_of_time() {
            return PdrResult::Timeout;
        }
        let frontier = st.top_level();
        // Exhaust bad states reachable at the frontier.
        loop {
            let bad_cube = match st.bad_cube_at(frontier) {
                Ok(b) => b,
                Err(()) => return PdrResult::Timeout,
            };
            let Some(cube) = bad_cube else { break };
            // Block it (and its predecessors) recursively.
            let mut queue: BinaryHeap<Obligation> = BinaryHeap::new();
            st.seq += 1;
            queue.push(Obligation {
                level: frontier,
                seq: st.seq,
                cube,
            });
            while let Some(ob) = queue.pop() {
                if st.out_of_time() {
                    return PdrResult::Timeout;
                }
                if ob.level == 0 {
                    return PdrResult::Cex {
                        depth_hint: frontier + 1,
                    };
                }
                // Already blocked at this level? (cheap subsumption check)
                let subsumed = st.frames[ob.level..]
                    .iter()
                    .flatten()
                    .any(|c| is_subset(c, &ob.cube));
                if subsumed {
                    continue;
                }
                match st.intersects_init(&ob.cube) {
                    Ok(true) => {
                        return PdrResult::Cex {
                            depth_hint: frontier + 1,
                        };
                    }
                    Ok(false) => {}
                    Err(()) => return PdrResult::Timeout,
                }
                match st.try_block(&ob.cube, ob.level) {
                    Err(()) => return PdrResult::Timeout,
                    Ok(BlockOutcome::Blocked { reduced }) => {
                        let reduced = match st.restore_init_disjoint(reduced, &ob.cube) {
                            Ok(c) => c,
                            Err(()) => return PdrResult::Timeout,
                        };
                        let generalized = match st.generalize(reduced, ob.level) {
                            Ok(c) => c,
                            Err(()) => return PdrResult::Timeout,
                        };
                        st.add_blocked_cube(&generalized, ob.level);
                        // Chase the cube forward for deeper counterexamples.
                        if ob.level < frontier {
                            st.seq += 1;
                            queue.push(Obligation {
                                level: ob.level + 1,
                                seq: st.seq,
                                cube: ob.cube,
                            });
                        }
                    }
                    Ok(BlockOutcome::Predecessor(pred)) => {
                        st.seq += 1;
                        queue.push(Obligation {
                            level: ob.level - 1,
                            seq: st.seq,
                            cube: pred,
                        });
                        st.seq += 1;
                        queue.push(ob);
                    }
                }
            }
        }
        // Frontier clean: push clauses forward, check for a fixpoint.
        match st.propagate() {
            Err(()) => return PdrResult::Timeout,
            Ok(Some(empty_level)) => {
                let invariant_clauses: usize = st.frames.iter().map(|f| f.len()).sum();
                let invariant: Vec<Cube> = st.frames[empty_level + 1..]
                    .iter()
                    .flatten()
                    .cloned()
                    .collect();
                return PdrResult::Proof {
                    frames: st.top_level(),
                    invariant_clauses,
                    fixpoint_level: empty_level,
                    invariant,
                };
            }
            Ok(None) => {}
        }
        if st.top_level() >= opts.max_frames {
            return PdrResult::FrameLimit {
                frames: st.top_level(),
            };
        }
        st.push_level();
    }
}

/// `a ⊆ b` for sorted cubes.
fn is_subset(a: &Cube, b: &Cube) -> bool {
    let mut it = b.iter();
    'outer: for la in a {
        for lb in it.by_ref() {
            if lb == la {
                continue 'outer;
            }
            if lb.0 > la.0 {
                return false;
            }
        }
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use csl_hdl::{Design, Init, Word};
    use std::time::Instant;

    #[test]
    fn proves_saturating_counter() {
        // 0 -> 1 -> 2 (saturate); bad at 7. k-induction fails without
        // simple-path constraints, PDR proves it by strengthening.
        let mut d = Design::new("t");
        let r = d.reg("r", 3, Init::Zero);
        let at2 = d.eq_const(&r.q(), 2);
        let inc = d.add_const(&r.q(), 1);
        let nxt = d.mux(at2, &r.q(), &inc);
        d.set_next(&r, nxt);
        let bad = d.eq_const(&r.q(), 7);
        d.assert_always("never7", bad.not());
        let ts = TransitionSystem::shared(d.finish(), false);
        match pdr(&ts, PdrOptions::default()) {
            PdrResult::Proof { .. } => {}
            other => panic!("expected proof, got {other:?}"),
        }
    }

    #[test]
    fn finds_reachable_bad() {
        let mut d = Design::new("t");
        let r = d.reg("r", 3, Init::Zero);
        let inc = d.add_const(&r.q(), 1);
        d.set_next(&r, inc);
        let bad = d.eq_const(&r.q(), 5);
        d.assert_always("no5", bad.not());
        let ts = TransitionSystem::shared(d.finish(), false);
        match pdr(&ts, PdrOptions::default()) {
            PdrResult::Cex { depth_hint } => assert!(depth_hint >= 1),
            other => panic!("expected cex, got {other:?}"),
        }
    }

    #[test]
    fn bad_at_init_detected() {
        let mut d = Design::new("t");
        let r = d.reg("r", 2, Init::Symbolic);
        d.hold(&r);
        let bad = d.eq_const(&r.q(), 3);
        d.assert_always("no3", bad.not());
        let ts = TransitionSystem::shared(d.finish(), false);
        match pdr(&ts, PdrOptions::default()) {
            PdrResult::Cex { depth_hint } => assert_eq!(depth_hint, 0),
            other => panic!("expected cex, got {other:?}"),
        }
    }

    #[test]
    fn assumes_enable_proof() {
        // Counter advances only when input x; assume !x; bad unreachable.
        let mut d = Design::new("t");
        let x = d.input_bit("x");
        let r = d.reg("r", 3, Init::Zero);
        let inc = d.add_const(&r.q(), 1);
        let nxt = d.mux(x, &inc, &r.q());
        d.set_next(&r, nxt);
        let bad = d.eq_const(&r.q(), 1);
        d.assert_always("no1", bad.not());
        d.assume(x.not());
        let ts = TransitionSystem::shared(d.finish(), false);
        match pdr(&ts, PdrOptions::default()) {
            PdrResult::Proof { .. } => {}
            other => panic!("expected proof, got {other:?}"),
        }
    }

    #[test]
    fn symbolic_init_with_invariant_region() {
        // r starts anywhere in 0..8 with bit2 clear (assume at init via
        // constrained symbolic start): next keeps bit2 clear; bad = bit2.
        let mut d = Design::new("t");
        let r = d.reg("r", 3, Init::Symbolic);
        let inc = d.add_const(&r.q(), 1);
        let masked = Word::from_bits(vec![inc.bit(0), inc.bit(1), csl_hdl::Bit::FALSE]);
        d.set_next(&r, masked);
        let bad = r.q().bit(2);
        d.assert_always("bit2", bad.not());
        // Initial-cycle constraint: an init flag latch gates the assume.
        let flag = d.reg_init_value("is_init", 1, 1);
        let zero = d.lit(1, 0);
        d.set_next(&flag, zero);
        let init_ok = d.implies_bit(flag.q().bit(0), bad.not());
        d.assume(init_ok);
        let ts = TransitionSystem::shared(d.finish(), false);
        match pdr(&ts, PdrOptions::default()) {
            PdrResult::Proof { .. } => {}
            other => panic!("expected proof, got {other:?}"),
        }
    }

    #[test]
    fn respects_deadline() {
        let mut d = Design::new("t");
        let r = d.reg("r", 8, Init::Zero);
        let inc = d.add_const(&r.q(), 1);
        d.set_next(&r, inc);
        let bad = d.eq_const(&r.q(), 255);
        d.assert_always("no255", bad.not());
        let ts = TransitionSystem::shared(d.finish(), false);
        let r = pdr(
            &ts,
            PdrOptions {
                max_frames: 1000,
                budget: Budget::until(Instant::now()),
            },
        );
        assert!(matches!(r, PdrResult::Timeout), "{r:?}");
    }

    #[test]
    fn subset_check() {
        let a: Cube = vec![(1, true), (3, false)];
        let b: Cube = vec![(0, true), (1, true), (3, false), (7, true)];
        assert!(is_subset(&a, &b));
        assert!(!is_subset(&b, &a));
        let c: Cube = vec![(1, false)];
        assert!(!is_subset(&c, &b));
    }
}
