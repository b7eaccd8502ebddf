//! The four workloads, their cells, and the known-answer table that
//! judges every verdict.
//!
//! Every cell runs under the sandboxing contract with BMC capped at
//! depth 6, the depth the Table-2 bins use. See `perfbench/README.md`
//! for why each workload exists and which layers it stresses.

use std::time::Duration;

use contract_shadow_logic::contracts::Contract;
use contract_shadow_logic::core::api::{FuzzPlan, Mode, Query, Verifier};
use contract_shadow_logic::core::{DesignKind, Scheme};
use contract_shadow_logic::cpu::Defense;

/// BMC depth of every formal query (the Table-2 bins' depth).
pub const BMC_DEPTH: usize = 6;

/// Wall budget of the `attack` and `proof` queries. Every cell there
/// decides in well under a second; the budget only bounds a regression.
pub const DECIDING_BUDGET: Duration = Duration::from_secs(30);

/// Fixed per-cell budget of the `hard_proof` queries: both cells time
/// out today, so a query costs exactly this much until an engine learns
/// to prove them.
pub const HARD_BUDGET: Duration = Duration::from_secs(3);

/// Trial cap of the leaking `fuzz` campaigns (never reached: they leak
/// within a few thousand trials for every seed).
pub const FUZZ_LEAK_CAP: usize = 200_000;

/// Fixed trial count of the never-leaking `fuzz` campaign.
pub const FUZZ_CLEAN_TRIALS: usize = 4096;

/// Cycles simulated per fuzz trial.
pub const FUZZ_CYCLES: usize = 20;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Attack,
    Proof,
    HardProof,
    Fuzz,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Attack,
        Workload::Proof,
        Workload::HardProof,
        Workload::Fuzz,
    ];

    /// The workloads `BENCHMARK.json` declares. `fuzz` runs by hand only:
    /// its timings follow cache and memory contention on the host, which
    /// host-speed calibration does not see, and spread too far from run
    /// to run for a regression bound (see `perfbench/README.md`).
    pub const DECLARED: [Workload; 3] = [Workload::Attack, Workload::Proof, Workload::HardProof];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Attack => "attack",
            Workload::Proof => "proof",
            Workload::HardProof => "hard_proof",
            Workload::Fuzz => "fuzz",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's cells, in their canonical order.
    pub fn cells(self) -> Vec<Cell> {
        let simple_s = DesignKind::SimpleOoo(Defense::DelaySpectre);
        let insecure = [
            DesignKind::SimpleOoo(Defense::None),
            DesignKind::SuperOoo,
            DesignKind::BigOoo,
        ];
        let cross = |schemes: &[Scheme], designs: &[DesignKind]| -> Vec<Cell> {
            schemes
                .iter()
                .flat_map(|&scheme| designs.iter().map(move |&design| Cell { scheme, design }))
                .collect()
        };
        match self {
            Workload::Attack => cross(&[Scheme::Baseline, Scheme::Upec, Scheme::Shadow], &insecure),
            Workload::Proof => {
                let mut cells = cross(
                    &[Scheme::Leave],
                    &[DesignKind::SingleCycle, DesignKind::InOrder, simple_s],
                );
                cells.push(Cell {
                    scheme: Scheme::Shadow,
                    design: DesignKind::SingleCycle,
                });
                cells
            }
            Workload::HardProof => cross(&[Scheme::Shadow], &[DesignKind::InOrder, simple_s]),
            Workload::Fuzz => {
                let mut designs = insecure.to_vec();
                designs.push(simple_s);
                cross(&[Scheme::Shadow], &designs)
            }
        }
    }

    /// Whether a cell's work is a fuzzing campaign (`run_fuzz`) rather
    /// than a formal query (`Query::run`).
    pub fn is_fuzz(self) -> bool {
        self == Workload::Fuzz
    }

    /// Per-query wall budget (on `fuzz`, of the formal query the traced
    /// run makes on each campaign's instance).
    pub fn budget(self) -> Duration {
        match self {
            Workload::Attack | Workload::Proof => DECIDING_BUDGET,
            Workload::HardProof => HARD_BUDGET,
            Workload::Fuzz => Duration::from_secs(2),
        }
    }

    /// Budget of one engine probe in the traced run: the cell budget on
    /// `hard_proof`, where the probes are the point; one second
    /// elsewhere, which every deciding engine needs far less than, and
    /// which keeps probes on the cells an engine cannot decide cheap.
    pub fn probe_budget(self) -> Duration {
        match self {
            Workload::HardProof => HARD_BUDGET,
            _ => Duration::from_secs(1),
        }
    }

    /// The formal query a cell runs under this workload. Fuzz cells get
    /// the Shadow query of their design: its instance is what the
    /// campaign simulates.
    pub fn query(self, cell: Cell) -> Query {
        let v = Verifier::new()
            .design(cell.design)
            .contract(Contract::Sandboxing)
            .scheme(cell.scheme)
            .bmc_depth(BMC_DEPTH)
            .wall(self.budget());
        let v = match self {
            // Sequential is the `Verifier` default: every attack is a BMC
            // counterexample and the solver counters repeat exactly.
            Workload::Attack => v,
            // Portfolio is the mode the Table-2 bins use, and the only one
            // in which the Shadow/SingleCycle proof closes.
            Workload::Proof | Workload::HardProof => v.mode(Mode::Portfolio),
            // The campaign runs on the raw netlist, so the candidate
            // invariants would only cost build time.
            Workload::Fuzz => v.with_candidates(false),
        };
        v.query().expect("design and contract are set")
    }

    /// The blind, batched campaign a fuzz cell runs with `seed`: the
    /// shipped `FuzzPlan` defaults apart from trials, cycles and seed.
    pub fn fuzz_plan(cell: Cell, seed: u64) -> FuzzPlan {
        let trials = if expected_secure(cell.design) {
            FUZZ_CLEAN_TRIALS
        } else {
            FUZZ_LEAK_CAP
        };
        FuzzPlan::new()
            .trials(trials)
            .cycles(FUZZ_CYCLES)
            .seed(seed)
    }
}

/// One scheme × design cell (the contract is always sandboxing).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cell {
    pub scheme: Scheme,
    pub design: DesignKind,
}

impl Cell {
    pub fn label(self) -> String {
        format!("{}/{}", self.scheme.name(), self.design.name())
    }
}

/// Ground truth per design under sandboxing: paper Table 2 for the
/// Table-2 columns, plus the single-cycle ISA machine, which has no
/// speculation at all. `(design, secure)`.
pub const KNOWN_ANSWERS: &[(&str, bool)] = &[
    ("SingleCycle(ISA)", true),
    ("InOrder(Sodor)", true),
    ("SimpleOoO-S", true),
    ("SimpleOoO", false),
    ("SuperOoO(Ridecore)", false),
    ("BigOoO(BOOM)", false),
];

/// Whether `design` is secure under sandboxing, from [`KNOWN_ANSWERS`],
/// cross-checked against `Defense::expected_secure` for SimpleOoO
/// variants.
///
/// # Panics
/// Panics on a design the table does not cover; the benchmark's own
/// tests check that every workload cell is covered.
pub fn expected_secure(design: DesignKind) -> bool {
    let name = design.name();
    let secure = KNOWN_ANSWERS
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no known answer for {name}"))
        .1;
    if let DesignKind::SimpleOoo(defense) = design {
        assert_eq!(
            secure,
            defense.expected_secure(false),
            "known-answer table disagrees with Defense::expected_secure for {name}"
        );
    }
    secure
}
