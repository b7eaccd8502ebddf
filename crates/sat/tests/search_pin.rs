//! Pins the solver's search: over a seeded corpus of random 3-SAT
//! instances at the phase transition, the exact conflict, decision,
//! propagation and reduced-clause totals must not move. Clause storage,
//! watch order, learnt-clause reduction order and the learnt-database cap
//! all steer the search, so a storage change that alters any of them
//! shows here as a changed count, even when every answer stays right.
//! Every instance is solved plain, and the satisfiable ones up to 175
//! variables again incrementally under assumptions, with `simplify`
//! between rounds; the corpus is large enough to reach `reduce_db`,
//! `simplify` and arena compaction. Every model and every unsat core is
//! checked against the clauses.

use csl_sat::{Lit, SolveResult, Solver, SolverStats, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random 3-SAT over `n` variables at clause/variable ratio 4.26, three
/// distinct variables per clause.
fn random_3sat(rng: &mut StdRng, n: usize) -> Vec<Vec<Lit>> {
    let m = n * 426 / 100;
    (0..m)
        .map(|_| {
            let mut vars: Vec<usize> = Vec::with_capacity(3);
            while vars.len() < 3 {
                let v = rng.gen_range(0..n);
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
            vars.into_iter()
                .map(|v| Var::from_index(v).lit(rng.gen_bool(0.5)))
                .collect()
        })
        .collect()
}

fn solver_for(n: usize, clauses: &[Vec<Lit>]) -> Solver {
    let mut s = Solver::new();
    for _ in 0..n {
        s.new_var();
    }
    for c in clauses {
        s.add_clause(c);
    }
    s
}

fn check_model(s: &Solver, clauses: &[Vec<Lit>], assumptions: &[Lit]) {
    for c in clauses {
        assert!(
            c.iter().any(|&l| s.value(l) == Some(true)),
            "model violates {c:?}"
        );
    }
    for &a in assumptions {
        assert_eq!(s.value(a), Some(true), "model drops assumption {a:?}");
    }
}

/// The core names only assumptions, and the clauses alone refute it.
fn check_core(n: usize, clauses: &[Vec<Lit>], assumptions: &[Lit], core: &[Lit]) {
    for l in core {
        assert!(
            assumptions.contains(l),
            "core literal {l:?} was not assumed"
        );
    }
    let mut fresh = solver_for(n, clauses);
    assert_eq!(fresh.solve_with(core), SolveResult::Unsat, "core {core:?}");
}

/// Adds a run's pinned counters: conflicts, decisions, propagations and
/// reduced clauses.
fn add(acc: &mut [u64; 4], st: &SolverStats) {
    let run = [
        st.conflicts,
        st.decisions,
        st.propagations,
        st.reduced_clauses,
    ];
    for (a, c) in acc.iter_mut().zip(run) {
        *a += c;
    }
}

const SIZES: [usize; 3] = [150, 175, 200];
const SEEDS: u64 = 4;
const ROUNDS: usize = 16;
const INCREMENTAL_MAX_VARS: usize = 175;

#[test]
fn search_counters_are_pinned() {
    let mut plain = [0u64; 4];
    let mut incremental = [0u64; 4];
    let mut answers = [0usize; 2];
    for n in SIZES {
        for seed in 0..SEEDS {
            let mut rng = StdRng::seed_from_u64(0x3_5A7 + 10 * n as u64 + seed);
            let mut clauses = random_3sat(&mut rng, n);

            let mut s = solver_for(n, &clauses);
            let sat = match s.solve() {
                SolveResult::Sat => {
                    check_model(&s, &clauses, &[]);
                    true
                }
                SolveResult::Unsat => false,
                SolveResult::Canceled => panic!("no budget was set"),
            };
            add(&mut plain, &s.stats);
            if !sat || n > INCREMENTAL_MAX_VARS {
                continue;
            }

            // Incremental: one solver, and per round three assumptions
            // that mostly agree with the last model, so rounds go both
            // ways. A satisfiable round fixes one model literal at the
            // top level, and `simplify` then drops what it satisfies.
            let mut model: Vec<bool> = (0..n)
                .map(|v| s.value(Var::from_index(v).positive()) == Some(true))
                .collect();
            let mut s = solver_for(n, &clauses);
            for round in 0..ROUNDS {
                let assumptions: Vec<Lit> = (0..3)
                    .map(|_| {
                        let v = rng.gen_range(0..n);
                        Var::from_index(v).lit(model[v] != rng.gen_bool(0.7))
                    })
                    .collect();
                match s.solve_with(&assumptions) {
                    SolveResult::Sat => {
                        answers[0] += 1;
                        check_model(&s, &clauses, &assumptions);
                        for (v, value) in model.iter_mut().enumerate() {
                            *value = s.value(Var::from_index(v).positive()) == Some(true);
                        }
                        let v = rng.gen_range(0..n);
                        let unit = Var::from_index(v).lit(!model[v]);
                        s.add_clause(&[unit]);
                        clauses.push(vec![unit]);
                        s.simplify();
                    }
                    SolveResult::Unsat => {
                        answers[1] += 1;
                        check_core(n, &clauses, &assumptions, s.unsat_core());
                    }
                    SolveResult::Canceled => panic!("no budget was set ({round})"),
                }
            }
            add(&mut incremental, &s.stats);
        }
    }
    // Incremental rounds go both ways.
    assert_eq!(answers, [37, 27], "sat/unsat rounds");
    // Both halves reach learnt-clause reduction.
    assert_eq!(
        plain,
        [56_027, 67_960, 2_023_631, 21_296],
        "plain search moved"
    );
    assert_eq!(
        incremental,
        [19_811, 24_490, 679_795, 6_821],
        "incremental search moved"
    );
}
