//! `csl-sat` — a CDCL SAT solver.
//!
//! This crate is the decision-procedure substrate of the Contract Shadow
//! Logic reproduction: every bounded-model-checking, induction and PDR query
//! issued by `csl-mc` bottoms out here. It is a conventional
//! MiniSat-family solver:
//!
//! * two-watched-literal unit propagation with blocker literals,
//! * first-UIP conflict analysis with recursive clause minimisation,
//! * VSIDS variable ordering with phase saving,
//! * Luby restarts and LBD-aware learnt-clause database reduction,
//! * incremental solving under assumptions, with failed-assumption
//!   (unsat core) extraction — required by the PDR engine,
//! * cooperative cancellation through conflict and wall-clock budgets —
//!   required to reproduce the paper's "time out" verdicts.
//!
//! # Example
//!
//! ```
//! use csl_sat::{Solver, SolveResult};
//!
//! let mut solver = Solver::new();
//! let a = solver.new_var().positive();
//! let b = solver.new_var().positive();
//! solver.add_clause(&[a, b]);       // a | b
//! solver.add_clause(&[!a, b]);      // !a | b  => b must hold
//! assert_eq!(solver.solve(), SolveResult::Sat);
//! assert_eq!(solver.value(b), Some(true));
//!
//! // Under the assumption !b the instance is unsatisfiable, and the core
//! // names the culprit assumption.
//! assert_eq!(solver.solve_with(&[!b]), SolveResult::Unsat);
//! assert_eq!(solver.unsat_core(), &[!b]);
//! ```

mod clause;
mod heap;
mod lit;
mod solver;

pub mod dimacs;

pub use clause::ClauseRef;
pub use lit::{LBool, Lit, Var};
pub use solver::{Budget, SolveResult, Solver, SolverStats};
