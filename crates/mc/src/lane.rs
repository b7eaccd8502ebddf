//! Engine lanes and their solver counters.
//!
//! Every engine of a check runs as one [`Lane`] on the check's one wall
//! clock, as the paper's JasperGold workflow runs every engine under the
//! same timeout. Each lane run reports its solver counters as a
//! [`LaneSolverStats`].

use csl_sat::SolverStats;

/// One engine lane of the portfolio.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Lane {
    /// Bounded model checking — the attack-finding lane.
    Bmc,
    /// k-induction on the lemma-free netlist.
    KInduction,
    /// IC3/property-directed reachability.
    Pdr,
    /// Houdini invariant filtering (plus its strengthened re-runs).
    Houdini,
    /// Differential fuzzing on the bit-parallel simulator (extra
    /// attack-finding lanes registered through
    /// [`crate::CheckOptions::extra_lanes`]).
    Fuzz,
}

impl Lane {
    /// All lanes, in pipeline order.
    pub const ALL: [Lane; 5] = [
        Lane::Bmc,
        Lane::KInduction,
        Lane::Pdr,
        Lane::Houdini,
        Lane::Fuzz,
    ];

    /// Stable lower-case label (used in notes and serialized reports).
    pub fn name(self) -> &'static str {
        match self {
            Lane::Bmc => "bmc",
            Lane::KInduction => "k-induction",
            Lane::Pdr => "pdr",
            Lane::Houdini => "houdini",
            Lane::Fuzz => "fuzz",
        }
    }

    /// Inverse of [`Lane::name`] (used when reading persisted reports).
    pub fn from_name(name: &str) -> Option<Lane> {
        Lane::ALL.into_iter().find(|l| l.name() == name)
    }
}

/// An inert per-lane handle. [`crate::BmcSession::run_to`] and
/// [`crate::pdr_with_stats`] still accept one and ignore it, so existing
/// callers keep compiling; every lane runs in isolation.
#[derive(Clone, Copy, Debug, Default)]
pub struct SharedContext;

impl SharedContext {
    /// The handle for `lane` (every handle is the same inert value).
    pub fn disabled(_lane: Lane) -> SharedContext {
        SharedContext
    }
}

/// Per-lane solver activity for one engine run, reported through
/// [`crate::CheckReport::solver`]. Every run builds its solvers fresh,
/// so the counters are the run's own.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaneSolverStats {
    pub lane: Lane,
    pub propagations: u64,
    pub conflicts: u64,
    pub decisions: u64,
    pub restarts: u64,
    pub reduced_clauses: u64,
}

impl LaneSolverStats {
    /// Stats for a run of `lane` whose solvers ended at `end`.
    pub fn cold(lane: Lane, end: SolverStats) -> LaneSolverStats {
        LaneSolverStats {
            lane,
            propagations: end.propagations,
            conflicts: end.conflicts,
            decisions: end.decisions,
            restarts: end.restarts,
            reduced_clauses: end.reduced_clauses,
        }
    }

    /// Folds another lane-run's counters into this one (sequential mode
    /// runs several engines under one report entry per lane).
    pub fn absorb(&mut self, other: &LaneSolverStats) {
        self.propagations += other.propagations;
        self.conflicts += other.conflicts;
        self.decisions += other.decisions;
        self.restarts += other.restarts;
        self.reduced_clauses += other.reduced_clauses;
    }
}
