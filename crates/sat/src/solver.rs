//! A CDCL SAT solver in the MiniSat lineage.
//!
//! Features: two-watched-literal propagation with blocker literals, 1UIP
//! conflict analysis with recursive clause minimisation, VSIDS branching
//! with phase saving, Luby restarts, LBD-aware learnt-clause reduction,
//! incremental solving under assumptions with final-conflict (unsat core)
//! extraction, and cooperative cancellation via conflict/wall-clock budgets.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::clause::{ClauseDb, ClauseRef};
use crate::heap::VarHeap;
use crate::lit::{LBool, Lit, Var};

/// Outcome of a [`Solver::solve_with`] call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SolveResult {
    /// A satisfying assignment was found; read it with [`Solver::value`].
    Sat,
    /// The formula is unsatisfiable under the given assumptions; a subset of
    /// failed assumptions is available via [`Solver::unsat_core`].
    Unsat,
    /// The budget was exhausted before a verdict.
    Canceled,
}

/// Resource limits for a solve call. The solver checks the budget at every
/// conflict, so cancellation is approximate but cheap.
#[derive(Clone, Debug, Default)]
pub struct Budget {
    /// Maximum number of conflicts (0 = unlimited).
    pub max_conflicts: u64,
    /// Absolute deadline (None = unlimited).
    pub deadline: Option<Instant>,
    /// Cooperative cancellation flag, shared between racing engines: when a
    /// sibling sets it, in-flight solves abort with `Canceled` at the next
    /// conflict or restart boundary.
    pub stop: Option<Arc<AtomicBool>>,
}

impl Budget {
    /// An unlimited budget.
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// A wall-clock-only budget.
    pub fn until(deadline: Instant) -> Budget {
        Budget {
            deadline: Some(deadline),
            ..Budget::default()
        }
    }

    /// Attaches a shared stop flag (builder style).
    pub fn with_stop(mut self, stop: Arc<AtomicBool>) -> Budget {
        self.stop = Some(stop);
        self
    }

    /// True once cancellation has been requested through the stop flag.
    pub fn stop_requested(&self) -> bool {
        self.stop
            .as_ref()
            .is_some_and(|s| s.load(Ordering::Relaxed))
    }

    /// True when the wall clock has run out or a stop was requested. This is
    /// the check engines use in their outer loops, between solver calls.
    pub fn out_of_time(&self) -> bool {
        if self.stop_requested() {
            return true;
        }
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Aggregate solver statistics, reset never (cumulative across calls).
#[derive(Clone, Copy, Debug, Default)]
pub struct SolverStats {
    pub conflicts: u64,
    pub decisions: u64,
    pub propagations: u64,
    pub restarts: u64,
    pub learnt_literals: u64,
    pub minimized_literals: u64,
    /// Learnt clauses discarded by database reductions.
    pub reduced_clauses: u64,
}

/// Field-wise sum: the activity of several solvers working one query.
impl std::ops::Add for SolverStats {
    type Output = SolverStats;

    fn add(self, o: SolverStats) -> SolverStats {
        SolverStats {
            conflicts: self.conflicts + o.conflicts,
            decisions: self.decisions + o.decisions,
            propagations: self.propagations + o.propagations,
            restarts: self.restarts + o.restarts,
            learnt_literals: self.learnt_literals + o.learnt_literals,
            minimized_literals: self.minimized_literals + o.minimized_literals,
            reduced_clauses: self.reduced_clauses + o.reduced_clauses,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Watcher {
    cref: ClauseRef,
    /// A literal of the clause other than the watched one; if it is already
    /// true the clause is satisfied and the watch scan can skip the clause.
    blocker: Lit,
}

/// The solver. See the crate-level docs for an end-to-end example.
///
/// ```
/// use csl_sat::{Solver, SolveResult};
/// let mut s = Solver::new();
/// let a = s.new_var().positive();
/// let b = s.new_var().positive();
/// s.add_clause(&[a, b]);
/// s.add_clause(&[!a, b]);
/// assert_eq!(s.solve(), SolveResult::Sat);
/// assert_eq!(s.value(b), Some(true));
/// ```
pub struct Solver {
    db: ClauseDb,
    /// Original (problem) clauses, kept for `simplify`.
    original: Vec<ClauseRef>,
    watches: Vec<Vec<Watcher>>,
    assigns: Vec<LBool>,
    /// Saved phase per variable for phase-saving.
    saved_phase: Vec<bool>,
    activity: Vec<f64>,
    reason: Vec<ClauseRef>,
    level: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    order: VarHeap,
    var_inc: f64,
    var_decay: f64,
    cla_inc: f64,
    cla_decay: f64,
    /// False once a top-level conflict has been derived; the instance is
    /// permanently unsatisfiable.
    ok: bool,
    /// Scratch for conflict analysis.
    seen: Vec<bool>,
    analyze_toclear: Vec<Lit>,
    /// Work list of [`Solver::lit_redundant`], kept to reuse its buffer.
    minimize_stack: Vec<Lit>,
    /// Failed-assumption set from the last Unsat answer.
    conflict: Vec<Lit>,
    /// Learnt-clause cap; grows geometrically.
    max_learnts: f64,
    budget: Budget,
    canceled: bool,
    pub stats: SolverStats,
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Solver {
        Solver {
            db: ClauseDb::new(),
            original: Vec::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            saved_phase: Vec::new(),
            activity: Vec::new(),
            reason: Vec::new(),
            level: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            order: VarHeap::new(),
            var_inc: 1.0,
            var_decay: 0.95,
            cla_inc: 1.0,
            cla_decay: 0.999,
            ok: true,
            seen: Vec::new(),
            analyze_toclear: Vec::new(),
            minimize_stack: Vec::new(),
            conflict: Vec::new(),
            max_learnts: 0.0,
            budget: Budget::unlimited(),
            canceled: false,
            stats: SolverStats::default(),
        }
    }

    /// Number of variables created so far.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Number of stored clauses (live original + learnt).
    pub fn num_clauses(&self) -> usize {
        self.db.len()
    }

    /// Creates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::from_index(self.assigns.len());
        self.assigns.push(LBool::Undef);
        self.saved_phase.push(false);
        self.activity.push(0.0);
        self.reason.push(ClauseRef::UNDEF);
        self.level.push(0);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.grow(self.assigns.len());
        self.order.insert(v, &self.activity);
        v
    }

    /// Sets the budget applied to subsequent solve calls.
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    #[inline]
    fn lit_value(&self, l: Lit) -> LBool {
        let v = self.assigns[l.var().index()];
        if l.is_negative() {
            v.negate()
        } else {
            v
        }
    }

    /// Model value of `l` after a [`SolveResult::Sat`] answer, or the
    /// top-level forced value otherwise. `None` if unassigned.
    pub fn value(&self, l: Lit) -> Option<bool> {
        self.lit_value(l).to_option()
    }

    /// The subset of assumptions responsible for the last `Unsat` answer.
    /// Literals appear in their *failed* polarity (i.e. as passed in).
    pub fn unsat_core(&self) -> &[Lit] {
        &self.conflict
    }

    /// Whether the instance is already known unsatisfiable at top level.
    pub fn is_ok(&self) -> bool {
        self.ok
    }

    /// Adds a clause. Returns `false` if the solver became trivially
    /// unsatisfiable (empty clause derived at top level).
    ///
    /// The clause may contain duplicate or tautological literals; they are
    /// normalised away. Must be called with an empty trail above level 0
    /// (i.e. between solve calls), which the solver guarantees internally.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        self.cancel_until(0);
        if !self.ok {
            return false;
        }
        let mut c: Vec<Lit> = lits.to_vec();
        c.sort_unstable();
        c.dedup();
        // Tautology or satisfied-at-top-level check; drop false literals.
        let mut write = 0;
        for i in 0..c.len() {
            let l = c[i];
            if i + 1 < c.len() && c[i + 1] == !l {
                return true; // tautology: contains l and !l (sorted adjacency)
            }
            match self.lit_value(l) {
                LBool::True => return true,
                LBool::False => {}
                LBool::Undef => {
                    c[write] = l;
                    write += 1;
                }
            }
        }
        c.truncate(write);
        match c.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(c[0], ClauseRef::UNDEF);
                self.ok = self.propagate().is_none();
                self.ok
            }
            _ => {
                let cref = self.db.add(c, false, 0);
                self.attach(cref);
                self.original.push(cref);
                true
            }
        }
    }

    fn attach(&mut self, cref: ClauseRef) {
        let (l0, l1) = {
            let ls = self.db.lits(cref);
            (ls[0], ls[1])
        };
        self.watches[(!l0).index()].push(Watcher { cref, blocker: l1 });
        self.watches[(!l1).index()].push(Watcher { cref, blocker: l0 });
    }

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn new_decision_level(&mut self) {
        self.trail_lim.push(self.trail.len());
    }

    fn unchecked_enqueue(&mut self, l: Lit, from: ClauseRef) {
        debug_assert_eq!(self.lit_value(l), LBool::Undef);
        let v = l.var().index();
        self.assigns[v] = LBool::from_bool(!l.is_negative());
        self.reason[v] = from;
        self.level[v] = self.decision_level();
        self.trail.push(l);
    }

    /// Unit propagation. Returns the conflicting clause, if any.
    fn propagate(&mut self) -> Option<ClauseRef> {
        let mut conflict = None;
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let mut i = 0;
            let mut j = 0;
            // Temporarily take the watch list to satisfy the borrow checker.
            let mut ws = std::mem::take(&mut self.watches[p.index()]);
            'watches: while i < ws.len() {
                let w = ws[i];
                i += 1;
                // Fast path: blocker already true.
                if self.lit_value(w.blocker) == LBool::True {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let cref = w.cref;
                // Normalise so the false literal (!p) is at position 1.
                let first = {
                    let lits = self.db.lits_mut(cref);
                    let false_lit = !p;
                    if lits[0] == false_lit {
                        lits.swap(0, 1);
                    }
                    debug_assert_eq!(lits[1], false_lit);
                    lits[0]
                };
                if first != w.blocker && self.lit_value(first) == LBool::True {
                    ws[j] = Watcher {
                        cref,
                        blocker: first,
                    };
                    j += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let len = self.db.lits(cref).len();
                for k in 2..len {
                    let lk = self.db.lits(cref)[k];
                    if self.lit_value(lk) != LBool::False {
                        let lits = self.db.lits_mut(cref);
                        lits.swap(1, k);
                        self.watches[(!lk).index()].push(Watcher {
                            cref,
                            blocker: first,
                        });
                        continue 'watches;
                    }
                }
                // No new watch: clause is unit or conflicting.
                ws[j] = Watcher {
                    cref,
                    blocker: first,
                };
                j += 1;
                if self.lit_value(first) == LBool::False {
                    conflict = Some(cref);
                    self.qhead = self.trail.len();
                    // Copy back the remaining watchers.
                    while i < ws.len() {
                        ws[j] = ws[i];
                        j += 1;
                        i += 1;
                    }
                } else {
                    self.unchecked_enqueue(first, cref);
                }
            }
            ws.truncate(j);
            self.watches[p.index()] = ws;
            if conflict.is_some() {
                break;
            }
        }
        conflict
    }

    fn cancel_until(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let lim = self.trail_lim[level as usize];
        for idx in (lim..self.trail.len()).rev() {
            let l = self.trail[idx];
            let v = l.var();
            self.assigns[v.index()] = LBool::Undef;
            self.saved_phase[v.index()] = !l.is_negative();
            self.reason[v.index()] = ClauseRef::UNDEF;
            if !self.order.contains(v) {
                self.order.insert(v, &self.activity);
            }
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(level as usize);
        self.qhead = self.trail.len();
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.update(v, &self.activity);
    }

    fn bump_clause(&mut self, cref: ClauseRef) {
        if self.db.bump_activity(cref, self.cla_inc) > 1e20 {
            self.db.rescale_activities(1e-20);
            self.cla_inc *= 1e-20;
        }
    }

    /// 1UIP conflict analysis. Returns the learnt clause (asserting literal
    /// first) and the backtrack level.
    fn analyze(&mut self, mut confl: ClauseRef) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::from_index(0)]; // placeholder slot 0
        let mut path_count = 0u32;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();

        loop {
            debug_assert!(!confl.is_undef());
            if self.db.is_learnt(confl) {
                self.bump_clause(confl);
            }
            let start = if p.is_some() { 1 } else { 0 };
            let nlits = self.db.lits(confl).len();
            for k in start..nlits {
                let q = self.db.lits(confl)[k];
                let qv = q.var();
                if !self.seen[qv.index()] && self.level[qv.index()] > 0 {
                    self.bump_var(qv);
                    self.seen[qv.index()] = true;
                    if self.level[qv.index()] >= self.decision_level() {
                        path_count += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select next literal to expand from the trail.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            p = Some(pl);
            confl = self.reason[pl.var().index()];
            self.seen[pl.var().index()] = false;
            path_count -= 1;
            if path_count == 0 {
                break;
            }
        }
        learnt[0] = !p.unwrap();

        // Clause minimisation: drop literals implied by the rest.
        self.analyze_toclear.clear();
        self.analyze_toclear.extend_from_slice(&learnt);
        self.stats.learnt_literals += learnt.len() as u64;
        let levels = learnt[1..]
            .iter()
            .fold(0u32, |acc, l| acc | self.abstract_level(*l));
        let mut kept = 1;
        for i in 1..learnt.len() {
            let l = learnt[i];
            if self.reason[l.var().index()].is_undef() || !self.lit_redundant(l, levels) {
                learnt[kept] = l;
                kept += 1;
            }
        }
        self.stats.minimized_literals += (learnt.len() - kept) as u64;
        learnt.truncate(kept);
        for i in 0..self.analyze_toclear.len() {
            let v = self.analyze_toclear[i].var().index();
            self.seen[v] = false;
        }

        // Find backtrack level: second-highest decision level in the clause.
        let backtrack = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()]
        };
        (learnt, backtrack)
    }

    /// `l`'s decision level as one bit of 32 (the level modulo 32). OR-ed
    /// over a clause it summarises the clause's levels conservatively: a
    /// level whose bit is clear occurs in none of its literals.
    fn abstract_level(&self, l: Lit) -> u32 {
        1 << (self.level[l.var().index()] & 31)
    }

    /// Checks whether `l`'s negation is implied by the remaining learnt
    /// literals (recursive minimisation with an explicit stack). `levels`
    /// summarises their levels (see [`Solver::abstract_level`]). A literal
    /// at a level outside that set cannot be implied by them: its chain of
    /// reasons at its own level ends at that level's decision, which is
    /// none of theirs. So the walk fails on the first such literal instead
    /// of descending to the decision, with the same answer.
    fn lit_redundant(&mut self, l: Lit, levels: u32) -> bool {
        let top = self.analyze_toclear.len();
        self.minimize_stack.clear();
        self.minimize_stack.push(l);
        while let Some(p) = self.minimize_stack.pop() {
            let r = self.reason[p.var().index()];
            debug_assert!(!r.is_undef());
            let n = self.db.lits(r).len();
            for k in 1..n {
                let q = self.db.lits(r)[k];
                let qi = q.var().index();
                if !self.seen[qi] && self.level[qi] > 0 {
                    if self.reason[qi].is_undef() || self.abstract_level(q) & levels == 0 {
                        // Not redundant: undo this call's speculative marks.
                        for j in top..self.analyze_toclear.len() {
                            let v = self.analyze_toclear[j].var().index();
                            self.seen[v] = false;
                        }
                        self.analyze_toclear.truncate(top);
                        return false;
                    }
                    self.seen[qi] = true;
                    self.minimize_stack.push(q);
                    self.analyze_toclear.push(q);
                }
            }
        }
        // Keep the marks: they speed up later calls and are cleared via
        // analyze_toclear.
        true
    }

    /// Computes the failed-assumption set when assumption `p` is falsified.
    fn analyze_final(&mut self, p: Lit) {
        self.conflict.clear();
        self.conflict.push(p);
        if self.decision_level() == 0 {
            return;
        }
        self.seen[p.var().index()] = true;
        for idx in (self.trail_lim[0]..self.trail.len()).rev() {
            let l = self.trail[idx];
            let v = l.var().index();
            if self.seen[v] {
                let r = self.reason[v];
                if r.is_undef() {
                    debug_assert!(self.level[v] > 0);
                    // A decision above level 0 during assumption handling is
                    // an assumption literal; report it as the caller passed it.
                    self.conflict.push(l);
                } else {
                    let n = self.db.lits(r).len();
                    for k in 1..n {
                        let q = self.db.lits(r)[k];
                        if self.level[q.var().index()] > 0 {
                            self.seen[q.var().index()] = true;
                        }
                    }
                }
                self.seen[v] = false;
            }
        }
        self.seen[p.var().index()] = false;
    }

    fn lbd_of(&self, lits: &[Lit]) -> u32 {
        let mut levels: Vec<u32> = lits.iter().map(|l| self.level[l.var().index()]).collect();
        levels.sort_unstable();
        levels.dedup();
        levels.len() as u32
    }

    fn pick_branch_lit(&mut self) -> Option<Lit> {
        while let Some(v) = self.order.pop_max(&self.activity) {
            if self.assigns[v.index()] == LBool::Undef {
                return Some(v.lit(!self.saved_phase[v.index()]));
            }
        }
        None
    }

    fn reduce_db(&mut self) {
        let mut learnts = self.db.learnt_refs();
        // Sort worst-first: high LBD then low activity.
        learnts.sort_by(|&a, &b| {
            self.db.lbd(b).cmp(&self.db.lbd(a)).then(
                self.db
                    .activity(a)
                    .partial_cmp(&self.db.activity(b))
                    .unwrap(),
            )
        });
        let target = learnts.len() / 2;
        let mut removed = 0;
        for cref in learnts {
            if removed >= target {
                break;
            }
            // Keep glue clauses and clauses that are currently a reason.
            if self.db.lbd(cref) <= 2 || self.is_reason(cref) {
                continue;
            }
            self.detach(cref);
            self.db.delete(cref);
            removed += 1;
        }
        self.stats.reduced_clauses += removed as u64;
    }

    fn is_reason(&self, cref: ClauseRef) -> bool {
        let l0 = self.db.lits(cref)[0];
        self.lit_value(l0) == LBool::True && self.reason[l0.var().index()] == cref
    }

    fn detach(&mut self, cref: ClauseRef) {
        let (l0, l1) = {
            let ls = self.db.lits(cref);
            (ls[0], ls[1])
        };
        self.watches[(!l0).index()].retain(|w| w.cref != cref);
        self.watches[(!l1).index()].retain(|w| w.cref != cref);
    }

    /// Removes clauses satisfied at the top level. Call between solve calls
    /// to keep long-lived incremental instances lean.
    pub fn simplify(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        if !self.ok {
            return;
        }
        let mut all: Vec<ClauseRef> = self.original.clone();
        all.extend(self.db.learnt_refs());
        for cref in all {
            if self.db.is_deleted(cref) {
                continue;
            }
            let satisfied = self
                .db
                .lits(cref)
                .iter()
                .any(|&l| self.lit_value(l) == LBool::True);
            if satisfied {
                self.detach(cref);
                self.db.delete(cref);
            }
        }
        self.original.retain(|&c| !self.db.is_deleted(c));
    }

    fn budget_exhausted(&self) -> bool {
        if self.budget.max_conflicts != 0 && self.stats.conflicts >= self.budget.max_conflicts {
            return true;
        }
        if self.budget.stop_requested() {
            return true;
        }
        if let Some(d) = self.budget.deadline {
            // Checking time on every conflict is fine: Instant::now is cheap
            // relative to conflict analysis.
            if Instant::now() >= d {
                return true;
            }
        }
        false
    }

    /// Search until a verdict, a restart, or budget exhaustion.
    fn search(&mut self, conflicts_allowed: u64, assumptions: &[Lit]) -> Option<SolveResult> {
        let mut conflicts_here = 0u64;
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_here += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    self.conflict.clear();
                    return Some(SolveResult::Unsat);
                }
                let (learnt, back_level) = self.analyze(confl);
                self.cancel_until(back_level);
                if learnt.len() == 1 {
                    self.unchecked_enqueue(learnt[0], ClauseRef::UNDEF);
                } else {
                    let lbd = self.lbd_of(&learnt);
                    let asserting = learnt[0];
                    let cref = self.db.add(learnt, true, lbd);
                    self.attach(cref);
                    self.bump_clause(cref);
                    self.unchecked_enqueue(asserting, cref);
                }
                self.var_inc /= self.var_decay;
                self.cla_inc /= self.cla_decay;
                if self.budget_exhausted() {
                    self.canceled = true;
                    return Some(SolveResult::Canceled);
                }
            } else {
                if conflicts_here >= conflicts_allowed {
                    // Restart.
                    self.stats.restarts += 1;
                    self.cancel_until(0);
                    return None;
                }
                if self.max_learnts > 0.0 && self.db.num_learnt() as f64 >= self.max_learnts {
                    self.reduce_db();
                }
                // Extend the trail with assumptions, one decision level each.
                let mut next = None;
                while (self.decision_level() as usize) < assumptions.len() {
                    let p = assumptions[self.decision_level() as usize];
                    match self.lit_value(p) {
                        LBool::True => self.new_decision_level(),
                        LBool::False => {
                            self.analyze_final(p);
                            return Some(SolveResult::Unsat);
                        }
                        LBool::Undef => {
                            next = Some(p);
                            break;
                        }
                    }
                }
                let decision = match next {
                    Some(p) => p,
                    None => match self.pick_branch_lit() {
                        Some(p) => {
                            self.stats.decisions += 1;
                            p
                        }
                        None => return Some(SolveResult::Sat),
                    },
                };
                self.new_decision_level();
                self.unchecked_enqueue(decision, ClauseRef::UNDEF);
            }
        }
    }

    /// Solves without assumptions.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with(&[])
    }

    /// Solves under the given assumption literals.
    ///
    /// On `Unsat`, [`Solver::unsat_core`] holds a subset of `assumptions`
    /// sufficient for unsatisfiability. On `Sat`, the model is read with
    /// [`Solver::value`]. The solver remains usable after any result.
    pub fn solve_with(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.cancel_until(0);
        self.conflict.clear();
        self.canceled = false;
        if !self.ok {
            return SolveResult::Unsat;
        }
        // Entry check: without it, a query that resolves with zero conflicts
        // (pure propagation) would ignore an exhausted budget or a raised
        // stop flag entirely — the in-loop checks only run at conflicts and
        // restarts.
        if self.budget_exhausted() {
            self.canceled = true;
            return SolveResult::Canceled;
        }
        if self.max_learnts == 0.0 {
            self.max_learnts = (self.db.len() as f64 * 0.3).max(4000.0);
        }
        let mut luby_index = 0u32;
        let result = loop {
            let restart_base = 100u64;
            let conflicts_allowed = restart_base * luby(2, luby_index);
            luby_index += 1;
            match self.search(conflicts_allowed, assumptions) {
                Some(r) => break r,
                None => {
                    // Restart: occasionally allow the learnt DB to grow.
                    if luby_index.is_multiple_of(8) {
                        self.max_learnts *= 1.1;
                    }
                    if self.budget_exhausted() {
                        self.canceled = true;
                        break SolveResult::Canceled;
                    }
                }
            }
        };
        if result != SolveResult::Sat {
            self.cancel_until(0);
        }
        // On Sat the trail holds the model and is read via `value`; the next
        // solve or add_clause call cancels back to level 0 on entry.
        result
    }

    /// Prepares for a new solve call after a `Sat` answer (drops the model).
    /// Called automatically by `add_clause` paths that require level 0.
    pub fn reset_to_root(&mut self) {
        self.cancel_until(0);
    }
}

/// The Luby sequence scaled by powers of `y`: 1,1,2,1,1,2,4,...
fn luby(y: u64, mut x: u32) -> u64 {
    let mut size = 1u64;
    let mut seq = 0u32;
    while size < (x as u64) + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x as u64 {
        size = (size - 1) >> 1;
        seq -= 1;
        x %= size as u32;
    }
    y.pow(seq)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(s: &mut Solver, n: usize) -> Lit {
        while s.num_vars() <= n {
            s.new_var();
        }
        Var::from_index(n).positive()
    }

    #[test]
    fn trivially_sat() {
        let mut s = Solver::new();
        let a = lit(&mut s, 0);
        s.add_clause(&[a]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(a), Some(true));
    }

    #[test]
    fn trivially_unsat() {
        let mut s = Solver::new();
        let a = lit(&mut s, 0);
        assert!(s.add_clause(&[a]));
        assert!(!s.add_clause(&[!a]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn implication_chain() {
        let mut s = Solver::new();
        let n = 50;
        for i in 0..n - 1 {
            let a = lit(&mut s, i);
            let b = lit(&mut s, i + 1);
            s.add_clause(&[!a, b]);
        }
        let first = lit(&mut s, 0);
        let last = lit(&mut s, n - 1);
        s.add_clause(&[first]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(last), Some(true));
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // 3 pigeons, 2 holes: var p*2+h means pigeon p in hole h.
        let mut s = Solver::new();
        let v = |s: &mut Solver, p: usize, h: usize| lit(s, p * 2 + h);
        for p in 0..3 {
            let a = v(&mut s, p, 0);
            let b = v(&mut s, p, 1);
            s.add_clause(&[a, b]);
        }
        for h in 0..2 {
            for p1 in 0..3 {
                for p2 in (p1 + 1)..3 {
                    let a = v(&mut s, p1, h);
                    let b = v(&mut s, p2, h);
                    s.add_clause(&[!a, !b]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn assumptions_flip_result() {
        let mut s = Solver::new();
        let a = lit(&mut s, 0);
        let b = lit(&mut s, 1);
        s.add_clause(&[!a, b]);
        s.add_clause(&[!a, !b]);
        assert_eq!(s.solve_with(&[a]), SolveResult::Unsat);
        let core = s.unsat_core().to_vec();
        assert!(core.contains(&a));
        assert_eq!(s.solve_with(&[!a]), SolveResult::Sat);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn unsat_core_is_minimal_here() {
        let mut s = Solver::new();
        let a = lit(&mut s, 0);
        let b = lit(&mut s, 1);
        let c = lit(&mut s, 2);
        s.add_clause(&[!a, !b]);
        // c is irrelevant to the conflict.
        assert_eq!(s.solve_with(&[c, a, b]), SolveResult::Unsat);
        let core = s.unsat_core();
        assert!(core.contains(&a) || core.contains(&b));
        assert!(!core.contains(&c));
    }

    #[test]
    fn incremental_add_after_sat() {
        let mut s = Solver::new();
        let a = lit(&mut s, 0);
        let b = lit(&mut s, 1);
        s.add_clause(&[a, b]);
        assert_eq!(s.solve(), SolveResult::Sat);
        s.reset_to_root();
        s.add_clause(&[!a]);
        s.add_clause(&[!b]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn conflict_budget_cancels() {
        // A hard instance: pigeonhole 8 into 7, with a 10-conflict budget.
        let mut s = Solver::new();
        let np = 8;
        let nh = 7;
        let v = |s: &mut Solver, p: usize, h: usize| lit(s, p * nh + h);
        for p in 0..np {
            let cl: Vec<Lit> = (0..nh).map(|h| v(&mut s, p, h)).collect();
            s.add_clause(&cl);
        }
        for h in 0..nh {
            for p1 in 0..np {
                for p2 in (p1 + 1)..np {
                    let a = v(&mut s, p1, h);
                    let b = v(&mut s, p2, h);
                    s.add_clause(&[!a, !b]);
                }
            }
        }
        s.set_budget(Budget {
            max_conflicts: 10,
            ..Budget::unlimited()
        });
        assert_eq!(s.solve(), SolveResult::Canceled);
        // Lifting the budget lets it finish.
        s.set_budget(Budget::unlimited());
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn stop_flag_cancels_and_clears() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        // Same pigeonhole instance, canceled by a pre-set stop flag.
        let mut s = Solver::new();
        let np = 8;
        let nh = 7;
        let v = |s: &mut Solver, p: usize, h: usize| lit(s, p * nh + h);
        for p in 0..np {
            let cl: Vec<Lit> = (0..nh).map(|h| v(&mut s, p, h)).collect();
            s.add_clause(&cl);
        }
        for h in 0..nh {
            for p1 in 0..np {
                for p2 in (p1 + 1)..np {
                    let a = v(&mut s, p1, h);
                    let b = v(&mut s, p2, h);
                    s.add_clause(&[!a, !b]);
                }
            }
        }
        let stop = Arc::new(AtomicBool::new(true));
        s.set_budget(Budget::unlimited().with_stop(stop.clone()));
        assert_eq!(s.solve(), SolveResult::Canceled);
        // Clearing the flag lets the same solver finish.
        stop.store(false, Ordering::Relaxed);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn luby_sequence_prefix() {
        let seq: Vec<u64> = (0..15).map(|i| luby(2, i)).collect();
        assert_eq!(seq, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn duplicate_and_tautological_clauses() {
        let mut s = Solver::new();
        let a = lit(&mut s, 0);
        let b = lit(&mut s, 1);
        assert!(s.add_clause(&[a, a, b, b]));
        assert!(s.add_clause(&[a, !a])); // tautology: silently accepted
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn simplify_keeps_equivalence() {
        let mut s = Solver::new();
        let a = lit(&mut s, 0);
        let b = lit(&mut s, 1);
        let c = lit(&mut s, 2);
        s.add_clause(&[a, b]);
        s.add_clause(&[!b, c]);
        s.add_clause(&[a]); // forces a; first clause becomes satisfied
        s.simplify();
        assert_eq!(s.solve_with(&[b]), SolveResult::Sat);
        assert_eq!(s.value(c), Some(true));
    }
}
