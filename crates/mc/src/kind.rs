//! k-induction.
//!
//! Proves a property by showing (base) no counterexample exists within `k`
//! steps of the initial states, and (step) any `k` consecutive violation-free
//! assume-satisfying states are followed by another violation-free state.
//! Both halves run in incremental SAT instances that persist across
//! increasing `k`. Optional unique-states ("simple path") constraints make
//! the method complete for finite systems at the cost of quadratic clauses.

use std::sync::Arc;

use csl_hdl::Bit;
use csl_sat::{Budget, Lit, SolveResult, SolverStats};

use crate::exchange::{ExchangeItem, SharedClause, SharedContext, SharedInvariant};
use crate::lane::Lane;
use crate::trace::Trace;
use crate::ts::TransitionSystem;
use crate::unroll::{InitMode, Unroller};

/// Outcome of a k-induction run.
#[derive(Debug)]
pub enum KindResult {
    /// Property proved inductively at depth `k`.
    Proof { k: usize },
    /// A real counterexample surfaced in a base-case check.
    Cex(Box<Trace>),
    /// Not inductive for any tried `k <= max_k`.
    Unknown { max_k_tried: usize },
    /// Budget exhausted.
    Timeout,
}

/// Options for [`k_induction`].
#[derive(Clone, Debug)]
pub struct KindOptions {
    /// Largest induction depth to try.
    pub max_k: usize,
    /// Add pairwise state-distinctness constraints to the step case.
    pub unique_states: bool,
    pub budget: Budget,
}

impl Default for KindOptions {
    fn default() -> Self {
        KindOptions {
            max_k: 10,
            unique_states: false,
            budget: Budget::unlimited(),
        }
    }
}

/// Runs k-induction for `k = 1..=max_k`.
pub fn k_induction(ts: &Arc<TransitionSystem>, opts: KindOptions) -> KindResult {
    k_induction_with(ts, opts, &mut SharedContext::disabled(Lane::KInduction))
}

/// [`k_induction`] attached to the exchange bus. Between SAT queries it
/// polls the bus and strengthens its *running* solvers in place:
///
/// * foreign invariant lemmas are asserted at every frame of both
///   instances — in the free-init step instance this is the classic
///   "strengthen the induction hypothesis with a known invariant" move,
///   previously only reachable by respawning on a lemma-conjoined
///   netlist;
/// * shared learnt clauses go into the reset-init *base* instance only
///   (they are consequences of the initialised unrolling), gated by
///   [`Unroller::can_import`] and kept pending until the base has
///   unrolled deep enough.
///
/// When new lemmas arrive after the sweep ended inconclusive, the
/// *deepest* step query is retried with them (the incremental solver
/// re-decides it cheaply) — late Houdini survivors can close an
/// induction that was not inductive without them. Only `k = max_k` may
/// be retried: the step instance has accumulated "no bad at frames
/// `0..max_k-1`" units, so any shallower re-query would be vacuously
/// UNSAT and report a false proof.
pub fn k_induction_with(
    ts: &Arc<TransitionSystem>,
    opts: KindOptions,
    ctx: &mut SharedContext,
) -> KindResult {
    KindSession::new(ts, opts.unique_states)
        .run(opts.max_k, opts.budget, ctx)
        .0
}

/// One k-induction run: the reset-initialised *base* and
/// free-initialised *step* [`Unroller`] pair, driven together through
/// `k = 1..=max_k` (the step instance's accumulated "no bad at shallow
/// frames" units are only meaningful together with the base instance
/// that proved them).
///
/// # Soundness
/// The step instance accumulates `!bad(0..k-1)` hypothesis units as `k`
/// grows, so any query shallower than the deepest one posed would be
/// vacuously UNSAT and fabricate a proof. The session is therefore
/// single-use by type: [`KindSession::run`] consumes it.
pub struct KindSession {
    base: Unroller,
    step: Unroller,
    lemmas: Vec<Bit>,
    invs: Vec<SharedInvariant>,
    pending: Vec<SharedClause>,
    // High-water marks so each (lemma/invariant, frame) unit is asserted
    // once per instance.
    base_applied: usize,
    base_frames: usize,
    step_applied: usize,
    step_frames: usize,
    base_inv_applied: usize,
    base_inv_frames: usize,
    step_inv_applied: usize,
    step_inv_frames: usize,
    unique_states: bool,
}

impl KindSession {
    /// A fresh session over `ts`; `unique_states` adds pairwise
    /// state-distinctness constraints to the step instance.
    pub fn new(ts: &Arc<TransitionSystem>, unique_states: bool) -> KindSession {
        KindSession {
            base: Unroller::new(ts, InitMode::Reset),
            step: Unroller::new(ts, InitMode::Free),
            lemmas: Vec::new(),
            invs: Vec::new(),
            pending: Vec::new(),
            base_applied: 0,
            base_frames: 0,
            step_applied: 0,
            step_frames: 0,
            base_inv_applied: 0,
            base_inv_frames: 0,
            step_inv_applied: 0,
            step_inv_frames: 0,
            unique_states,
        }
    }

    /// Runs the sweep for `k = 1..=max_k` under `budget`, then (when
    /// attached to a bus) the late-lemma retry at `max_k`. Returns the
    /// result, the statistics summed over the base and step solvers, and
    /// the number of foreign facts (exchange-bus lemmas and invariant
    /// clauses) the run imported: a proof with imported facts leans on
    /// another lane's reasoning, so the k-induction frames alone are not
    /// a self-contained certificate.
    pub fn run(
        mut self,
        max_k: usize,
        budget: Budget,
        ctx: &mut SharedContext,
    ) -> (KindResult, SolverStats, usize) {
        let result = self.sweep(max_k, budget, ctx);
        let stats = self.base.solver.stats + self.step.solver.stats;
        (result, stats, self.lemmas.len() + self.invs.len())
    }

    /// The body of [`KindSession::run`], called once per session.
    fn sweep(&mut self, max_k: usize, budget: Budget, ctx: &mut SharedContext) -> KindResult {
        self.base.set_budget(budget.clone());
        self.step.set_budget(budget.clone());
        let ts = Arc::clone(self.step.ts());

        for k in 1..=max_k {
            if budget.out_of_time() {
                return KindResult::Timeout;
            }
            for item in ctx.poll() {
                match &*item {
                    ExchangeItem::Lemma(l) => {
                        self.lemmas.push(l.bit);
                        ctx.note_imported(1);
                    }
                    ExchangeItem::Clause(c) => self.pending.push(c.clone()),
                    ExchangeItem::Invariant(inv) => {
                        // PDR's converged frame clauses hold in every
                        // reachable assume-satisfying state — importable
                        // into both instances exactly like lemmas, just in
                        // clause form.
                        self.invs.push(inv.clone());
                        ctx.note_imported(1);
                    }
                    // Obligations target PDR; frontier clauses are not
                    // inductive and must not enter a proof instance.
                    ExchangeItem::Obligation(_) | ExchangeItem::Frontier(_) => {}
                }
            }

            // ---- base: no violation in frames 0..k-1 -------------------------
            let f = k - 1;
            self.base.assert_assumes_through(f);
            let base = &mut self.base;
            self.pending.retain(|c| {
                if base.import_clause(c) {
                    ctx.note_imported(1);
                    false
                } else {
                    true // not deep enough yet; retry at a later k
                }
            });
            assert_new_lemmas(
                &mut self.base,
                &self.lemmas,
                &mut self.base_applied,
                &mut self.base_frames,
            );
            assert_new_invariants(
                &mut self.base,
                &self.invs,
                &mut self.base_inv_applied,
                &mut self.base_inv_frames,
            );
            let bad = self.base.bad_any_at(f);
            match self.base.solve_with(&[bad]) {
                SolveResult::Sat => {
                    let name = self
                        .base
                        .fired_bad_name(f)
                        .unwrap_or_else(|| "<unknown bad>".to_string());
                    let trace = self.base.extract_trace(f + 1, name);
                    return KindResult::Cex(Box::new(trace));
                }
                SolveResult::Unsat => {
                    self.base.solver.add_clause(&[!bad]);
                }
                SolveResult::Canceled => return KindResult::Timeout,
            }

            // ---- step: k clean frames imply a clean frame k ------------------
            self.step.assert_assumes_through(k);
            assert_new_lemmas(
                &mut self.step,
                &self.lemmas,
                &mut self.step_applied,
                &mut self.step_frames,
            );
            assert_new_invariants(
                &mut self.step,
                &self.invs,
                &mut self.step_inv_applied,
                &mut self.step_inv_frames,
            );
            // Bads known false at frames 0..k-1 (units accumulate across k).
            let prev_bad = self.step.bad_any_at(k - 1);
            self.step.solver.add_clause(&[!prev_bad]);
            if self.unique_states {
                add_unique_state_constraints(&ts, &mut self.step, k);
            }
            let bad_k = self.step.bad_any_at(k);
            match self.step.solve_with(&[bad_k]) {
                SolveResult::Unsat => return KindResult::Proof { k },
                SolveResult::Sat => { /* not inductive at this k; deepen */ }
                SolveResult::Canceled => return KindResult::Timeout,
            }
        }

        // Inconclusive — but while fresh lemmas keep arriving on the bus,
        // retry the deepest step query with them. `k = max_k` is the only
        // sound retry point: its accumulated hypothesis ("no bad at frames
        // 0..max_k-1") matches exactly what the base half verified. A poll
        // batch is capped, so keep draining while batches are non-empty — a
        // lemma can sit behind a backlog of (here useless) clause items.
        while ctx.is_attached() && !budget.out_of_time() {
            let batch = ctx.poll();
            for item in &batch {
                match &**item {
                    ExchangeItem::Lemma(l) => {
                        self.lemmas.push(l.bit);
                        ctx.note_imported(1);
                    }
                    ExchangeItem::Invariant(inv) => {
                        self.invs.push(inv.clone());
                        ctx.note_imported(1);
                    }
                    ExchangeItem::Clause(_)
                    | ExchangeItem::Obligation(_)
                    | ExchangeItem::Frontier(_) => {}
                }
            }
            if self.lemmas.len() > self.step_applied || self.invs.len() > self.step_inv_applied {
                assert_new_lemmas(
                    &mut self.step,
                    &self.lemmas,
                    &mut self.step_applied,
                    &mut self.step_frames,
                );
                assert_new_invariants(
                    &mut self.step,
                    &self.invs,
                    &mut self.step_inv_applied,
                    &mut self.step_inv_frames,
                );
                let bad_k = self.step.bad_any_at(max_k);
                match self.step.solve_with(&[bad_k]) {
                    SolveResult::Unsat => return KindResult::Proof { k: max_k },
                    SolveResult::Sat => { /* still open; poll again */ }
                    SolveResult::Canceled => return KindResult::Timeout,
                }
            } else if batch.is_empty() {
                break; // bus drained and nothing new to try
            }
        }
        KindResult::Unknown { max_k_tried: max_k }
    }
}

/// Asserts per-frame units the instance has not seen yet: items past
/// `*applied` on every frame, and previously-applied items on frames
/// past `*frames_done` — so each (item, frame) pair costs one call
/// over the whole run instead of O(items × frames) per invocation.
/// Shared by the lemma and invariant-clause import paths so the subtle
/// high-water-mark accounting lives in one place.
fn assert_new_units<T>(
    u: &mut Unroller,
    items: &[T],
    applied: &mut usize,
    frames_done: &mut usize,
    assert_at: impl Fn(&mut Unroller, &T, usize),
) {
    let num_frames = u.num_frames();
    for item in &items[..*applied] {
        for t in *frames_done..num_frames {
            assert_at(u, item, t);
        }
    }
    for item in &items[*applied..] {
        for t in 0..num_frames {
            assert_at(u, item, t);
        }
    }
    *applied = items.len();
    *frames_done = num_frames;
}

/// [`assert_new_units`] over invariant lemma bits.
fn assert_new_lemmas(
    u: &mut Unroller,
    lemmas: &[Bit],
    applied: &mut usize,
    frames_done: &mut usize,
) {
    assert_new_units(u, lemmas, applied, frames_done, |u, &b, t| {
        u.assert_lemma_at(b, t)
    });
}

/// [`assert_new_units`] over PDR's exported invariant clauses.
fn assert_new_invariants(
    u: &mut Unroller,
    invs: &[SharedInvariant],
    applied: &mut usize,
    frames_done: &mut usize,
) {
    assert_new_units(u, invs, applied, frames_done, |u, inv, t| {
        u.assert_clause_at(&inv.lits, t)
    });
}

/// Adds `state(new_frame) != state(f)` for every earlier frame `f`.
fn add_unique_state_constraints(ts: &TransitionSystem, u: &mut Unroller, new_frame: usize) {
    for f in 0..new_frame {
        let mut diff_clause: Vec<Lit> = Vec::new();
        for &li in ts.active_latches() {
            let out = ts.aig().latches()[li as usize].output;
            let a = u.lit_of(out, f);
            let b = u.lit_of(out, new_frame);
            // x = a XOR b
            let x = u.solver.new_var().positive();
            u.solver.add_clause(&[!x, a, b]);
            u.solver.add_clause(&[!x, !a, !b]);
            u.solver.add_clause(&[x, !a, b]);
            u.solver.add_clause(&[x, a, !b]);
            diff_clause.push(x);
        }
        u.solver.add_clause(&diff_clause);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csl_hdl::{Design, Init};

    /// A register that moves 0 -> 1 -> 2 and saturates; bad at 7.
    fn saturating() -> std::sync::Arc<TransitionSystem> {
        let mut d = Design::new("sat3");
        let r = d.reg("r", 3, Init::Zero);
        let at2 = d.eq_const(&r.q(), 2);
        let inc = d.add_const(&r.q(), 1);
        let nxt = d.mux(at2, &r.q(), &inc);
        d.set_next(&r, nxt);
        let bad = d.eq_const(&r.q(), 7);
        d.assert_always("never7", bad.not());
        TransitionSystem::shared(d.finish(), false)
    }

    #[test]
    fn saturating_counter_needs_simple_path() {
        // Plain k-induction fails (a state "6" is its own bogus predecessor
        // chain), but unique-states makes it complete.
        let ts = saturating();
        let plain = k_induction(
            &ts,
            KindOptions {
                max_k: 4,
                unique_states: false,
                budget: Budget::unlimited(),
            },
        );
        assert!(matches!(plain, KindResult::Unknown { .. }), "{plain:?}");
        let unique = k_induction(
            &ts,
            KindOptions {
                max_k: 8,
                unique_states: true,
                budget: Budget::unlimited(),
            },
        );
        assert!(matches!(unique, KindResult::Proof { .. }), "{unique:?}");
    }

    #[test]
    fn inductive_at_k1() {
        // Invariant r[2] == 0 is 1-inductive when the next state masks bit 2.
        let mut d = Design::new("t");
        let r = d.reg("r", 3, Init::Zero);
        let inc = d.add_const(&r.q(), 1);
        let masked = csl_hdl::Word::from_bits(vec![inc.bit(0), inc.bit(1), csl_hdl::Bit::FALSE]);
        d.set_next(&r, masked);
        let bad = r.q().bit(2);
        d.assert_always("bit2_clear", bad.not());
        let ts = TransitionSystem::shared(d.finish(), false);
        match k_induction(&ts, KindOptions::default()) {
            KindResult::Proof { k } => assert_eq!(k, 1),
            other => panic!("expected proof, got {other:?}"),
        }
    }

    #[test]
    fn base_case_finds_real_cex() {
        let mut d = Design::new("t");
        let r = d.reg("r", 3, Init::Zero);
        let inc = d.add_const(&r.q(), 1);
        d.set_next(&r, inc);
        let bad = d.eq_const(&r.q(), 2);
        d.assert_always("no2", bad.not());
        let ts = TransitionSystem::shared(d.finish(), false);
        match k_induction(
            &ts,
            KindOptions {
                max_k: 6,
                ..Default::default()
            },
        ) {
            KindResult::Cex(t) => assert_eq!(t.depth(), 3),
            other => panic!("expected cex, got {other:?}"),
        }
    }

    /// Late lemmas may only retry the deepest step query: with a cex
    /// beyond `max_k`, the retry path must never turn the accumulated
    /// "no bad at shallow frames" units into a vacuous (false) proof.
    #[test]
    fn late_lemma_retry_never_fabricates_a_proof() {
        use crate::exchange::{Exchange, ExchangeConfig, SharedContext};

        // Counter whose bad state is at depth 12 — far beyond max_k=2,
        // so base is clean, step is not inductive, and any Proof result
        // would be unsound.
        let mut d = Design::new("deep");
        let r = d.reg("r", 4, Init::Zero);
        let inc = d.add_const(&r.q(), 1);
        d.set_next(&r, inc);
        let bad = d.eq_const(&r.q(), 12);
        d.assert_always("no12", bad.not());
        let ts = TransitionSystem::shared(d.finish(), false);

        // Three trivially-true lemmas on the bus, but one poll returns
        // only one item: the main sweep consumes two (k=1, k=2) and the
        // third is left for the post-sweep retry path.
        let bus = Exchange::new(ExchangeConfig {
            enabled: true,
            max_imports_per_poll: 1,
            ..ExchangeConfig::default()
        });
        let publisher = SharedContext::attached(bus.clone(), Lane::Houdini, true, true);
        for i in 0..3 {
            publisher.publish_lemma(format!("trivial-{i}"), csl_hdl::Bit::TRUE);
        }
        let mut ctx = SharedContext::attached(bus, Lane::KInduction, true, true);
        let result = k_induction_with(
            &ts,
            KindOptions {
                max_k: 2,
                unique_states: false,
                budget: Budget::unlimited(),
            },
            &mut ctx,
        );
        assert!(
            matches!(result, KindResult::Unknown { .. }),
            "unsafe-beyond-max_k design must stay inconclusive, got {result:?}"
        );
        assert_eq!(ctx.imports(), 3, "all three lemmas must be consumed");
    }

    #[test]
    fn respects_budget() {
        let ts = saturating();
        let r = k_induction(
            &ts,
            KindOptions {
                max_k: 30,
                unique_states: true,
                budget: Budget {
                    max_conflicts: 1,
                    ..Budget::unlimited()
                },
            },
        );
        assert!(matches!(r, KindResult::Timeout | KindResult::Proof { .. }));
    }
}
