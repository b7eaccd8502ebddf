//! Bounded model checking.
//!
//! Unrolls the design frame by frame inside one incremental SAT instance
//! and asks, at each depth, whether some bad bit can fire while every
//! assume bit holds at every cycle up to and including that depth. This is
//! the attack-finding engine: a SAT answer is a concrete program + secret
//! pair that satisfies the contract constraint check yet produces divergent
//! microarchitectural observations.

use std::sync::Arc;

use csl_sat::{Budget, SolveResult, SolverStats};

use crate::lane::SharedContext;
use crate::trace::Trace;
use crate::ts::TransitionSystem;
use crate::unroll::{InitMode, Unroller};

/// Outcome of a BMC run.
#[derive(Debug)]
pub enum BmcResult {
    /// A counterexample of the given depth (cycles) was found.
    Cex(Box<Trace>),
    /// No counterexample exists up to (and including) this depth.
    Clean { depth_checked: usize },
    /// Budget exhausted; clean up to `depth_checked` (possibly 0 frames).
    Timeout { depth_checked: Option<usize> },
}

impl BmcResult {
    /// Convenience: the trace if a counterexample was found.
    pub fn cex(&self) -> Option<&Trace> {
        match self {
            BmcResult::Cex(t) => Some(t),
            _ => None,
        }
    }
}

/// Runs BMC from depth 0 to `max_depth` (inclusive) under `budget`.
pub fn bmc(ts: &Arc<TransitionSystem>, max_depth: usize, budget: Budget) -> BmcResult {
    BmcSession::new(ts).run_to(max_depth, budget, &mut SharedContext)
}

/// An incremental BMC solving session: one reset-initialised
/// [`Unroller`] whose learnt clauses and blocked-depth units survive
/// across [`BmcSession::run_to`] calls. The BMC lane drives one session
/// through its whole depth schedule, so each step continues where the
/// previous step stopped instead of re-unrolling from frame 0.
///
/// # Soundness
/// Everything the session retains between runs is a consequence of the
/// reset-initialised unrolling of its [`TransitionSystem`]: learnt
/// clauses and the `!bad(k)` units added after each UNSAT depth. None of
/// it is depth-specific, so running to any depth returns the verdict a
/// fresh solver would — depths at or below [`BmcSession::clean_to`] are
/// *proven* clean and answered without solving.
pub struct BmcSession {
    u: Unroller,
    clean_to: Option<usize>,
}

impl BmcSession {
    /// A fresh session over `ts` with nothing checked yet.
    pub fn new(ts: &Arc<TransitionSystem>) -> BmcSession {
        BmcSession {
            u: Unroller::new(ts, InitMode::Reset),
            clean_to: None,
        }
    }

    /// Deepest depth proven counterexample-free so far.
    pub fn clean_to(&self) -> Option<usize> {
        self.clean_to
    }

    /// Cumulative statistics of the session's solver (across all runs).
    pub fn solver_stats(&self) -> SolverStats {
        self.u.solver.stats
    }

    /// Checks depths up to `max_depth` (inclusive), resuming after the
    /// deepest depth already proven clean. A re-query at or below
    /// [`BmcSession::clean_to`] is answered `Clean` without touching the
    /// solver. The [`SharedContext`] is inert and ignored.
    pub fn run_to(
        &mut self,
        max_depth: usize,
        budget: Budget,
        _ctx: &mut SharedContext,
    ) -> BmcResult {
        let u = &mut self.u;
        u.set_budget(budget.clone());
        let start = match self.clean_to {
            Some(c) if c >= max_depth => {
                // Every depth <= max_depth carries a `!bad` unit already:
                // answer what a fresh solver would, without solving.
                return BmcResult::Clean {
                    depth_checked: max_depth,
                };
            }
            Some(c) => c + 1,
            None => 0,
        };
        for k in start..=max_depth {
            if budget.out_of_time() {
                return BmcResult::Timeout {
                    depth_checked: self.clean_to,
                };
            }
            u.assert_assumes_through(k);
            let bad = u.bad_any_at(k);
            match u.solve_with(&[bad]) {
                SolveResult::Sat => {
                    let name = u
                        .fired_bad_name(k)
                        .unwrap_or_else(|| "<unknown bad>".to_string());
                    let trace = u.extract_trace(k + 1, name);
                    return BmcResult::Cex(Box::new(trace));
                }
                SolveResult::Unsat => {
                    self.clean_to = Some(k);
                    // Block this depth's bad permanently: helps the next
                    // depths, and answers later runs to this depth.
                    u.solver.add_clause(&[!bad]);
                }
                SolveResult::Canceled => {
                    return BmcResult::Timeout {
                        depth_checked: self.clean_to,
                    };
                }
            }
        }
        BmcResult::Clean {
            depth_checked: self
                .clean_to
                .expect("loop ran to max_depth, so some depth was checked"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Sim;
    use csl_hdl::{Design, Init};
    use std::time::Instant;

    /// Counter that reaches the bad value `target` after `target` cycles.
    fn counter_design(width: usize, target: u64) -> Arc<TransitionSystem> {
        let mut d = Design::new("counter");
        let c = d.reg("c", width, Init::Zero);
        let nxt = d.add_const(&c.q(), 1);
        d.set_next(&c, nxt);
        let hit = d.eq_const(&c.q(), target);
        d.assert_always("no_hit", hit.not());
        TransitionSystem::shared(d.finish(), false)
    }

    #[test]
    fn finds_counter_cex_at_exact_depth() {
        let ts = counter_design(4, 5);
        match bmc(&ts, 16, Budget::unlimited()) {
            BmcResult::Cex(t) => {
                assert_eq!(t.depth(), 6); // cycles 0..=5
                let (assumes_ok, bad) = Sim::new(ts.aig()).replay(&t);
                assert!(assumes_ok && bad, "cex must replay");
            }
            other => panic!("expected cex, got {other:?}"),
        }
    }

    #[test]
    fn clean_when_target_unreachable() {
        // 3-bit counter wraps 0..7; target 5 reachable, but depth < 5 clean.
        let ts = counter_design(3, 5);
        match bmc(&ts, 4, Budget::unlimited()) {
            BmcResult::Clean { depth_checked } => assert_eq!(depth_checked, 4),
            other => panic!("expected clean, got {other:?}"),
        }
    }

    #[test]
    fn assumes_block_counterexamples() {
        // Input x must pulse for the counter to advance, but we assume !x:
        // the bad value is never reached.
        let mut d = Design::new("t");
        let x = d.input_bit("x");
        let c = d.reg("c", 3, Init::Zero);
        let inc = d.add_const(&c.q(), 1);
        let nxt = d.mux(x, &inc, &c.q());
        d.set_next(&c, nxt);
        let hit = d.eq_const(&c.q(), 2);
        d.assert_always("no2", hit.not());
        d.assume(x.not());
        let ts = TransitionSystem::shared(d.finish(), false);
        match bmc(&ts, 10, Budget::unlimited()) {
            BmcResult::Clean { .. } => {}
            other => panic!("expected clean, got {other:?}"),
        }
    }

    #[test]
    fn symbolic_init_found_at_depth_zero() {
        // A symbolic register equal to 9 at cycle 0 violates the property.
        let mut d = Design::new("t");
        let r = d.reg("r", 4, Init::Symbolic);
        d.hold(&r);
        let hit = d.eq_const(&r.q(), 9);
        d.assert_always("no9", hit.not());
        let ts = TransitionSystem::shared(d.finish(), false);
        match bmc(&ts, 0, Budget::unlimited()) {
            BmcResult::Cex(t) => {
                assert_eq!(t.depth(), 1);
                let (ok, bad) = Sim::new(ts.aig()).replay(&t);
                assert!(ok && bad);
            }
            other => panic!("expected cex, got {other:?}"),
        }
    }

    #[test]
    fn budget_timeout_reported() {
        let ts = counter_design(4, 9);
        let budget = Budget::until(Instant::now());
        match bmc(&ts, 16, budget) {
            BmcResult::Timeout { .. } => {}
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    #[test]
    fn input_driven_cex_extracts_inputs() {
        // Bad iff input x is true at cycle 2 (tracked by a 2-bit timer).
        let mut d = Design::new("t");
        let x = d.input_bit("x");
        let t = d.reg("t", 2, Init::Zero);
        let at2 = d.eq_const(&t.q(), 2);
        let nxt = d.add_const(&t.q(), 1);
        d.set_next(&t, nxt);
        let fire = d.and_bit(at2, x);
        d.assert_always("no_fire", fire.not());
        let ts = TransitionSystem::shared(d.finish(), false);
        match bmc(&ts, 8, Budget::unlimited()) {
            BmcResult::Cex(tr) => {
                assert_eq!(tr.depth(), 3);
                assert_eq!(tr.input(2, 0), Some(true));
                let (ok, bad) = Sim::new(ts.aig()).replay(&tr);
                assert!(ok && bad);
            }
            other => panic!("expected cex, got {other:?}"),
        }
    }
}
