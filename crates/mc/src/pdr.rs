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

use std::collections::{BinaryHeap, HashSet};
use std::sync::Arc;

use csl_sat::{Budget, Lit, SolveResult, SolverStats};

use crate::exchange::{ExchangeItem, SharedContext};
use crate::lane::Lane;
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
    /// Fuzz-proven-reachable states from imported
    /// [`crate::exchange::SharedObligation`]s: `(full active-latch cube,
    /// reset-relative depth)`. They act as *generalized initial frames*
    /// (generalisation refuses cubes containing one at an applicable
    /// level) and as directed reachability probes (see
    /// [`PdrState::probe_obligations`]).
    reached: Vec<(Cube, usize)>,
    /// How many of `reached` have had their adjacency probe run.
    probed: usize,
    /// Frontier clauses already published (dedup) and the running count.
    frontier_seen: HashSet<Cube>,
    frontier_exported: usize,
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
            reached: Vec::new(),
            probed: 0,
            frontier_seen: HashSet::new(),
            frontier_exported: 0,
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
            if self.intersects_init(&candidate)? || self.hits_reached(&candidate, level) {
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

    /// Fuzz-reached states as generalized initial frames: true when some
    /// state concretely reached within `level` steps satisfies `cube`
    /// (every cube literal agrees with the full state assignment).
    /// Generalisation skips such candidates — consecution would reject
    /// them anyway (the state is reachable), so this is a free syntactic
    /// pre-filter, exactly like the init-disjointness check.
    fn hits_reached(&self, cube: &Cube, level: usize) -> bool {
        !self.reached.is_empty()
            && self
                .reached
                .iter()
                .any(|(s, d)| *d <= level && is_subset(cube, s))
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

impl PdrState {
    /// Polls the exchange bus between SAT queries and asserts foreign
    /// invariant lemmas (and invariant clauses) at both frames of the
    /// running instance — the in-place equivalent of conjoining them
    /// onto the netlist as assumes, which is sound because a lemma is
    /// init-true and inductive under the same assumes this instance
    /// asserts. Shared learnt clauses are *not* importable here: they
    /// are consequences of the reset-initialised unrolling, and this
    /// instance is free-init.
    fn import_lemmas(&mut self, ctx: &mut SharedContext) {
        for item in ctx.poll() {
            match &*item {
                ExchangeItem::Lemma(l) => {
                    self.u.assert_lemma_at(l.bit, 0);
                    self.u.assert_lemma_at(l.bit, 1);
                    ctx.note_imported(1);
                }
                ExchangeItem::Invariant(inv) => {
                    self.u.assert_clause_at(&inv.lits, 0);
                    self.u.assert_clause_at(&inv.lits, 1);
                    ctx.note_imported(1);
                }
                ExchangeItem::Obligation(ob) => {
                    // A fuzz-proven-reachable deep state. Keep only the
                    // literals over latches active in *this* instance;
                    // the rest of the assignment carries no information
                    // here.
                    let mut cube: Cube = ob
                        .cube
                        .iter()
                        .copied()
                        .filter(|&(latch, _)| {
                            (latch as usize) < self.latch_pos.len()
                                && self.latch_pos[latch as usize] != usize::MAX
                        })
                        .collect();
                    cube.sort_unstable();
                    if !cube.is_empty() {
                        self.reached.push((cube, ob.depth));
                        ctx.note_obligations(1);
                    }
                }
                // Learnt clauses need a reset-initialised unrolling;
                // frontier clauses are not inductive — both unusable here.
                ExchangeItem::Clause(_) | ExchangeItem::Frontier(_) => {}
            }
        }
    }

    /// Directed reachability probes from imported obligations: for each
    /// newly admitted fuzz-reached state `s` (reachable at `depth`), ask
    /// SAT?(`s` ∧ T ∧ bad′) — is a bad state *one symbolic transition*
    /// away from it? The fuzzer only drove one concrete input pattern
    /// past `s`; the solver closes over all of them. A hit is a genuine
    /// counterexample at `depth + 1` (the witness prefix is the fuzzer's
    /// own concrete run), reported exactly like a regressed-to-init
    /// obligation so the portfolio re-extracts the trace through BMC.
    fn probe_obligations(&mut self) -> Result<Option<usize>, ()> {
        while self.probed < self.reached.len() {
            let (cube, depth) = self.reached[self.probed].clone();
            self.probed += 1;
            let mut assumptions: Vec<Lit> = cube.iter().map(|&l| self.cube_lit0(l)).collect();
            assumptions.push(self.bad1);
            match self.u.solve_with(&assumptions) {
                SolveResult::Sat => return Ok(Some(depth + 1)),
                SolveResult::Unsat => {}
                SolveResult::Canceled => return Err(()),
            }
        }
        Ok(None)
    }

    /// Publishes the converged inductive invariant onto the exchange
    /// bus: at the fixpoint `F_level == F_{level+1}`, the frame clauses
    /// at levels above `level` form (with the property) an inductive,
    /// init-true invariant relative to the shared assumes — every
    /// blocked cube was checked init-disjoint before it was added, and
    /// propagation just proved the set closed under the transition
    /// relation. Shortest clauses (strongest per literal) go first;
    /// the export is capped so a clause-heavy proof cannot flood the
    /// bus.
    fn export_invariant(&self, ctx: &SharedContext, empty_level: usize) {
        const MAX_EXPORTED_CLAUSES: usize = 256;
        if !ctx.is_attached() {
            // Sequential mode and detached lanes: skip the collect/sort
            // work whose publications would all be no-ops.
            return;
        }
        let mut cubes: Vec<&Cube> = self.frames[empty_level + 1..].iter().flatten().collect();
        cubes.sort_by_key(|c| c.len());
        for (i, cube) in cubes.into_iter().take(MAX_EXPORTED_CLAUSES).enumerate() {
            let lits: Vec<(csl_hdl::Bit, bool)> = cube
                .iter()
                .map(|&(latch, val)| {
                    // ¬cube: some literal of the cube is flipped.
                    (self.ts.aig().latches()[latch as usize].output, !val)
                })
                .collect();
            ctx.publish_invariant(format!("pdr-inv-{i}"), lits);
        }
    }

    /// Publishes a few shortest *frontier* clauses after each clean
    /// propagation round (no fixpoint yet). These are init-true but not
    /// inductive, so they ride the bus as
    /// [`crate::exchange::SharedFrontier`] items — solver lanes ignore
    /// them; the fuzzer's rejection filter uses their init-truth to skip
    /// stimuli that cannot satisfy the contract assumes at reset. Capped
    /// and deduplicated: frontiers move every round and the bus must not
    /// fill with superseded clauses.
    fn export_frontier(&mut self, ctx: &SharedContext) {
        const MAX_FRONTIER_CLAUSES: usize = 64;
        const PER_ROUND: usize = 8;
        if !ctx.is_attached() || self.frontier_exported >= MAX_FRONTIER_CLAUSES {
            return;
        }
        let level = self.top_level();
        let mut cubes: Vec<Cube> = self.frames[level].to_vec();
        cubes.sort_by_key(Cube::len);
        let mut published = 0;
        for cube in cubes {
            if published >= PER_ROUND || self.frontier_exported >= MAX_FRONTIER_CLAUSES {
                break;
            }
            if !self.frontier_seen.insert(cube.clone()) {
                continue;
            }
            // ¬cube as a disjunction over latch indices.
            let lits: Vec<(u32, bool)> = cube.iter().map(|&(latch, val)| (latch, !val)).collect();
            let n = self.frontier_exported;
            ctx.publish_frontier(format!("pdr-front-{level}-{n}"), lits, level);
            self.frontier_exported += 1;
            published += 1;
        }
    }
}

/// Runs IC3. See the module docs.
pub fn pdr(ts: &Arc<TransitionSystem>, opts: PdrOptions) -> PdrResult {
    pdr_with(ts, opts, &mut SharedContext::disabled(Lane::Pdr))
}

/// [`pdr`] attached to the exchange bus: between frontier iterations the
/// running solver imports invariant lemmas (see
/// [`PdrState::import_lemmas`]), shrinking the reachable-state
/// overapproximation it has to strengthen against.
pub fn pdr_with(
    ts: &Arc<TransitionSystem>,
    opts: PdrOptions,
    ctx: &mut SharedContext,
) -> PdrResult {
    pdr_with_stats(ts, opts, ctx).0
}

/// [`pdr_with`] that also returns the cumulative statistics of the
/// underlying solver instance, for the per-lane diagnostics block of the
/// check report.
pub fn pdr_with_stats(
    ts: &Arc<TransitionSystem>,
    opts: PdrOptions,
    ctx: &mut SharedContext,
) -> (PdrResult, SolverStats) {
    let mut st = PdrState::new(ts, &opts);
    let result = pdr_loop(&mut st, &opts, ctx);
    (result, st.u.solver.stats)
}

fn pdr_loop(st: &mut PdrState, opts: &PdrOptions, ctx: &mut SharedContext) -> PdrResult {
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
        st.import_lemmas(ctx);
        match st.probe_obligations() {
            Err(()) => return PdrResult::Timeout,
            Ok(Some(depth_hint)) => return PdrResult::Cex { depth_hint },
            Ok(None) => {}
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
                // Convergence: hand the final inductive invariant to the
                // other lanes before reporting the proof (ROADMAP: "PDR
                // exporting its frame clauses / final invariant back
                // onto the bus").
                st.export_invariant(ctx, empty_level);
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
            Ok(None) => st.export_frontier(ctx),
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
    fn imported_obligation_probe_finds_adjacent_bad() {
        use crate::exchange::{Exchange, ExchangeConfig};
        // 3-bit counter 0,1,2,...; bad at 5. Blind PDR regresses from the
        // bad cone; here the fuzz lane hands it the concretely-reached
        // state r=4 at depth 4, and the adjacency probe answers SAT
        // immediately: bad is one transition away.
        let mut d = Design::new("t");
        let r = d.reg("r", 3, Init::Zero);
        let inc = d.add_const(&r.q(), 1);
        d.set_next(&r, inc);
        let bad = d.eq_const(&r.q(), 5);
        d.assert_always("no5", bad.not());
        let ts = TransitionSystem::shared(d.finish(), false);

        let bus = Exchange::new(ExchangeConfig::on());
        let fuzz = SharedContext::attached(bus.clone(), Lane::Fuzz, true, true);
        // r = 4: bit2 set, bits 0/1 clear.
        fuzz.publish_obligation(vec![(0, false), (1, false), (2, true)], 4);
        let mut ctx = SharedContext::attached(bus, Lane::Pdr, true, true);
        match pdr_with(&ts, PdrOptions::default(), &mut ctx) {
            PdrResult::Cex { depth_hint } => assert_eq!(depth_hint, 5),
            other => panic!("expected cex, got {other:?}"),
        }
        let stats = ctx.stats();
        assert_eq!(stats.obligations, 1, "obligation import must be counted");
        assert_eq!(stats.imports, 1);
    }

    #[test]
    fn frontier_clauses_are_published_before_convergence() {
        use crate::exchange::{Exchange, ExchangeConfig};
        // An 8-bit counter with bad at 255 does not converge within 6
        // frames, so every clean propagation round publishes frontier
        // clauses for the fuzzer's rejection filter.
        let mut d = Design::new("t");
        let r = d.reg("r", 8, Init::Zero);
        let inc = d.add_const(&r.q(), 1);
        d.set_next(&r, inc);
        let bad = d.eq_const(&r.q(), 255);
        d.assert_always("no255", bad.not());
        let ts = TransitionSystem::shared(d.finish(), false);
        let bus = Exchange::new(ExchangeConfig::on());
        let mut ctx = SharedContext::attached(bus.clone(), Lane::Pdr, true, true);
        let r = pdr_with(
            &ts,
            PdrOptions {
                max_frames: 6,
                budget: Budget::unlimited(),
            },
            &mut ctx,
        );
        assert!(matches!(r, PdrResult::FrameLimit { .. }), "{r:?}");
        assert!(ctx.exports() > 0, "frontier clauses must be published");
        let mut fuzz = SharedContext::attached(bus, Lane::Fuzz, true, true);
        let items = fuzz.poll();
        assert!(
            items
                .iter()
                .any(|i| matches!(&**i, ExchangeItem::Frontier(f) if f.level > 0)),
            "the bus must carry frontier clauses"
        );
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
