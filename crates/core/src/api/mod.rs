//! The unified verification session API.
//!
//! The paper's workflow is one conceptual operation — *check a scheme ×
//! design × contract cell under a budget* — and this module is its one
//! entry point. A fluent [`Verifier`] builder produces a typed [`Query`];
//! running the query yields a structured [`Report`] that can be persisted
//! (JSON/CSV), reloaded, and diffed against another run. The same builder
//! fans out to a whole matrix via [`Verifier::into_matrix`], which
//! subsumes the old campaign runner.
//!
//! ```no_run
//! use std::time::Duration;
//! use csl_contracts::Contract;
//! use csl_core::api::{Mode, ReportCache, Verifier};
//! use csl_core::{DesignKind, Scheme};
//! use csl_cpu::Defense;
//!
//! let report = Verifier::new()
//!     .design(DesignKind::SimpleOoo(Defense::None))
//!     .contract(Contract::Sandboxing)
//!     .scheme(Scheme::Shadow)
//!     .mode(Mode::Portfolio)
//!     .wall(Duration::from_secs(30))
//!     .query()
//!     .unwrap()
//!     .run();
//! println!("{}", report.cell()); // "CEX": Spectre found
//! std::fs::write("report.json", report.to_json()).unwrap();
//!
//! // A campaign: configure the per-cell options, then fan out.
//! let campaign = Verifier::new()
//!     .mode(Mode::Portfolio)
//!     .wall(Duration::from_secs(30))
//!     .into_matrix(&Scheme::ALL, &[DesignKind::InOrder], &[Contract::Sandboxing])
//!     .cache(ReportCache::new("target/csl-report-cache").with_max_entries(256))
//!     .run_all();
//! print!("{}", campaign.render_table());
//! ```
//!
//! Decided verdicts carry independently checkable evidence: proofs an
//! inductive-invariant certificate and attacks a replayable witness,
//! both in raw-netlist vocabulary, re-validated by the `csl-certify`
//! crate. The same evidence gates the result cache: [`Query::run_cached`]
//! re-checks a stored entry against the instance it builds for the query
//! before serving it (verify-on-load), evicting and re-solving anything
//! that fails. A cached [`Matrix::run_all`] runs every cell through it on
//! the worker pool, so one build of each cell's instance serves its key,
//! the audit of a hit and the solve of a miss.

pub(crate) mod cache;
mod json;
mod report;

use std::time::Duration;

use csl_contracts::Contract;
use csl_cpu::CpuConfig;
use csl_mc::{CheckOptions, SafetyCheck};
use csl_sat::Budget;

use crate::campaign::{matrix, run_pool, CampaignCell};
use crate::fuzz::fuzz_lane;
use crate::harness::{DesignKind, ExcludeRule, InstanceConfig};
use crate::shadow::ShadowOptions;
use crate::verify::{instance_for, run_instance, Scheme};

pub use crate::fuzz::FuzzPlan;
pub use cache::{may_store, CacheStats, ReportCache};
pub use csl_mc::{
    ExecMode as Mode, FuzzStats, InconclusiveReason, Lane, PrepareConfig, PreparedInstance,
};
pub use json::{Json, JsonError};
pub use report::{CampaignDiff, CampaignReport, ReadError, Report, VerdictChange};

/// A [`Verifier`] that is not yet a well-formed query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// No design under verification was given.
    MissingDesign,
    /// No contract to verify against was given.
    MissingContract,
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::MissingDesign => write!(f, "Verifier::design was never called"),
            BuildError::MissingContract => write!(f, "Verifier::contract was never called"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Fluent builder for verification sessions: pick a design, a contract,
/// a scheme and a wall clock, then [`Verifier::query`] for one cell or
/// [`Verifier::into_matrix`] for a whole campaign.
///
/// The defaults match `CheckOptions`' and `InstanceConfig`'s (Contract
/// Shadow Logic scheme, sequential mode, 60 s wall clock, candidates
/// enabled).
#[derive(Clone, Debug)]
pub struct Verifier {
    design: Option<DesignKind>,
    contract: Option<Contract>,
    scheme: Scheme,
    opts: CheckOptions,
    excludes: Vec<ExcludeRule>,
    cpu_override: Option<CpuConfig>,
    shadow: ShadowOptions,
    with_candidates: bool,
    fuzz: Option<FuzzPlan>,
}

impl Default for Verifier {
    fn default() -> Verifier {
        Verifier {
            design: None,
            contract: None,
            scheme: Scheme::Shadow,
            opts: CheckOptions::default(),
            excludes: Vec::new(),
            cpu_override: None,
            shadow: ShadowOptions::default(),
            with_candidates: true,
            fuzz: None,
        }
    }
}

impl Verifier {
    /// A fresh builder with the default options.
    pub fn new() -> Verifier {
        Verifier::default()
    }

    /// The design under verification (required).
    pub fn design(mut self, design: DesignKind) -> Verifier {
        self.design = Some(design);
        self
    }

    /// The software-hardware contract to verify against (required).
    pub fn contract(mut self, contract: Contract) -> Verifier {
        self.contract = Some(contract);
        self
    }

    /// The verification scheme (default: Contract Shadow Logic).
    pub fn scheme(mut self, scheme: Scheme) -> Verifier {
        self.scheme = scheme;
        self
    }

    /// Sequential engine pipeline or thread-racing portfolio.
    pub fn mode(mut self, mode: Mode) -> Verifier {
        self.opts.mode = mode;
        self
    }

    /// The wall clock every engine of a check runs under (the paper's
    /// 7-day timeout stand-in; default 60 s).
    pub fn wall(mut self, total: Duration) -> Verifier {
        self.opts.total_budget = total;
        self
    }

    /// Turns instance preparation — the one-rebuild netlist reduction
    /// the engines run behind (stuck-at-reset constants folded,
    /// cross-copy logic re-strashed, only the roots' cone kept) — on or
    /// off. Default on; [`PrepareConfig::off()`] hands the engines the
    /// raw instance. A stage of BMC lanes alone runs on the raw
    /// instance either way: preparation runs when the first stage
    /// holding another engine starts, so a check BMC decides in such a
    /// stage never prepares. Counterexamples are always expressed in
    /// raw-netlist vocabulary regardless.
    pub fn prepare(mut self, prepare: PrepareConfig) -> Verifier {
        self.opts.prepare = prepare;
        self
    }

    /// Adds a differential-fuzzing lane to the check (off by default):
    /// the plan's campaign runs on the 64-way bit-parallel simulator as
    /// one more attack-finding engine. In portfolio mode it races the
    /// solver lanes — a concrete leak is decisive and cancels them — and
    /// in sequential mode it runs in its own stage ahead of BMC. Findings
    /// come back as ordinary attack traces (replayable, lifted to
    /// raw-netlist vocabulary) and the campaign statistics land in the
    /// report's `fuzz` block.
    ///
    /// Fuzzing applies to the Shadow and Baseline schemes; LEAVE and
    /// UPEC run fixed engine schedules and ignore it.
    pub fn fuzz(mut self, plan: FuzzPlan) -> Verifier {
        self.fuzz = Some(plan);
        self
    }

    /// Skip the proof engines entirely (pure attack hunting).
    pub fn attack_only(mut self, on: bool) -> Verifier {
        self.opts.attack_only = on;
        self
    }

    /// Maximum BMC depth for the attack search.
    pub fn bmc_depth(mut self, depth: usize) -> Verifier {
        self.opts.bmc_depth = depth;
        self
    }

    /// Replaces the program-space exclusion assumptions (§7.1.4's
    /// "exclude the attacks found so far" workflow).
    pub fn excludes(mut self, rules: &[ExcludeRule]) -> Verifier {
        self.excludes = rules.to_vec();
        self
    }

    /// Structure-size override for Figure-2 style sweeps.
    pub fn cpu_override(mut self, cfg: CpuConfig) -> Verifier {
        self.cpu_override = Some(cfg);
        self
    }

    /// Shadow-logic knobs (sync/drain requirements, FIFO depth).
    pub fn shadow(mut self, opts: ShadowOptions) -> Verifier {
        self.shadow = opts;
        self
    }

    /// Generate LEAVE-style relational invariant candidates (default on).
    pub fn with_candidates(mut self, on: bool) -> Verifier {
        self.with_candidates = on;
        self
    }

    /// Resolves the builder into a typed single-cell [`Query`].
    pub fn query(self) -> Result<Query, BuildError> {
        let design = self.design.ok_or(BuildError::MissingDesign)?;
        let contract = self.contract.ok_or(BuildError::MissingContract)?;
        let cfg = InstanceConfig {
            design,
            cpu_override: self.cpu_override,
            contract,
            shadow: self.shadow,
            excludes: self.excludes,
            with_candidates: self.with_candidates,
        };
        let mut opts = self.opts;
        // The fuzzing lane's stimulus sizes follow the cell's ISA.
        if let Some(plan) = self.fuzz {
            opts.extra_lanes.push(fuzz_lane(cfg.cpu_config().isa, plan));
        }
        Ok(Query {
            scheme: self.scheme,
            design,
            contract,
            cfg,
            opts,
        })
    }

    /// Fans this configured builder out over a scheme × design × contract
    /// cell matrix (design, contract and scheme settings on `self` are
    /// superseded by the matrix axes).
    pub fn into_matrix(
        self,
        schemes: &[Scheme],
        designs: &[DesignKind],
        contracts: &[Contract],
    ) -> Matrix {
        Matrix {
            cells: matrix(schemes, designs, contracts),
            base: self,
            cache: None,
        }
    }
}

/// A fully-resolved single-cell verification task. Cheap to clone and
/// rerun; [`Query::run`] executes the scheme to a [`Report`], and
/// [`Query::instance`] exposes the underlying model-checking instance for
/// engine-level experiments.
#[derive(Clone, Debug)]
pub struct Query {
    scheme: Scheme,
    design: DesignKind,
    contract: Contract,
    cfg: InstanceConfig,
    opts: CheckOptions,
}

impl Query {
    /// The scheme this query runs.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// The design under verification.
    pub fn design(&self) -> DesignKind {
        self.design
    }

    /// The contract being verified.
    pub fn contract(&self) -> Contract {
        self.contract
    }

    /// The resolved instance configuration.
    pub fn config(&self) -> &InstanceConfig {
        &self.cfg
    }

    /// The resolved engine options.
    pub fn options(&self) -> &CheckOptions {
        &self.opts
    }

    /// Runs the scheme to a verdict.
    pub fn run(&self) -> Report {
        self.run_on(&self.raw_instance())
    }

    /// [`Query::run`] on this query's raw instance, already built.
    fn run_on(&self, task: &SafetyCheck) -> Report {
        let check = run_instance(self.scheme, task, &self.opts);
        Report::from_check(self.scheme, self.design, self.contract, check)
    }

    /// Builds and *prepares* the model-checking instance without running
    /// it (the typed replacement for the `build_*_instance` free
    /// functions): the reduced netlist the engines would run on, the
    /// [`csl_hdl::xform::Reconstruction`] that lifts traces back to the
    /// raw netlist, and the reduction statistics. With
    /// [`PrepareConfig::off()`] configured this is the raw instance
    /// under an identity reconstruction.
    pub fn instance(&self) -> PreparedInstance {
        csl_mc::prepare(
            &self.raw_instance(),
            &self.opts.prepare,
            self.opts.keep_probes,
        )
    }

    /// Builds the raw (unprepared) model-checking instance.
    pub fn raw_instance(&self) -> SafetyCheck {
        instance_for(self.scheme, &self.cfg)
    }

    /// Stable fingerprint of this query for the session result cache:
    /// scheme × design × contract × every engine option (preparation
    /// included) × a structural hash of the built netlist and
    /// its invariant candidates. Two queries with the same key decide
    /// the same problem. The raw netlist is hashed — preparation is
    /// deterministic, so raw netlist + prepare config determine the
    /// reduced instance — and building it costs netlist-construction
    /// time, trivial next to any solving the key would spare.
    pub fn cache_key(&self) -> u64 {
        self.key_of(&self.raw_instance())
    }

    /// [`Query::cache_key`] of this query's raw instance, already built.
    fn key_of(&self, task: &SafetyCheck) -> u64 {
        let mut h = cache::Fingerprint::new();
        h.str(self.scheme.name());
        h.str(&self.design.name());
        h.str(&self.contract.name());
        cache::options_fingerprint(&mut h, &self.opts);
        cache::instance_fingerprint(&mut h, task);
        h.finish()
    }

    /// [`Query::run`], consulting (and feeding) a [`ReportCache`]: a hit
    /// skips solving entirely and returns the stored report with a note
    /// appended; a decided miss is stored for next time when
    /// [`may_store`] admits it.
    ///
    /// A hit is served only after *verify-on-load*: the stored proof
    /// certificate is re-checked — or the stored attack trace replayed —
    /// against a freshly built instance, so a stale, corrupted, or
    /// forged entry can never launder an unaudited verdict. The check
    /// runs under the query's own wall budget, so an entry that is
    /// costly to check costs no more than a solve. A failed or
    /// unfinished check evicts the entry (counted in
    /// [`CacheStats::rejected`]) and the cell re-solves.
    pub fn run_cached(&self, cache: &ReportCache) -> Report {
        // One build serves the key, the audit of a hit and the solve of
        // a miss.
        let task = self.raw_instance();
        let key = self.key_of(&task);
        if let Some(mut hit) = cache.load(key) {
            if cached_report_is_sound(&task, &hit, self.opts.total_budget) {
                hit.notes.push(format!("served from cache ({key:016x})"));
                return hit;
            }
            cache.reject(key);
        }
        let report = self.run_on(&task);
        if may_store(&report) {
            let _ = cache.store(key, &report);
        }
        report
    }
}

/// The verify-on-load check: does this cache-served report's evidence
/// re-check against `task`, the query's freshly built raw instance?
/// Attacks must replay to a bad state with every assume held; proofs
/// must carry a certificate whose three obligations pass within `wall`,
/// the query's own budget: a certificate too costly to check in that
/// time (`Rejection::Budget`) fails like a forged one. A proof with no
/// certificate fails — the cache only trusts what it can audit.
fn cached_report_is_sound(task: &SafetyCheck, report: &Report, wall: Duration) -> bool {
    use csl_certify::{check_certificate_with, check_witness, Witness};
    match &report.verdict {
        csl_mc::Verdict::Attack(trace) => {
            check_witness(&task.aig, &Witness::new((**trace).clone())).is_ok()
        }
        csl_mc::Verdict::Proof(_) => match &report.certificate {
            Some(cert) => {
                let budget = Budget::until(std::time::Instant::now() + wall);
                check_certificate_with(task, cert, &budget).is_ok()
            }
            None => false,
        },
        // Undecided verdicts are never stored; if one slips in, it
        // carries no claim worth auditing.
        _ => true,
    }
}

/// A campaign: a cell matrix plus the shared per-cell options, run on a
/// worker pool sized from the core count. Produced by
/// [`Verifier::into_matrix`].
#[derive(Clone, Debug)]
pub struct Matrix {
    base: Verifier,
    cells: Vec<CampaignCell>,
    cache: Option<ReportCache>,
}

impl Matrix {
    /// The cells, in deterministic matrix order.
    pub fn cells(&self) -> &[CampaignCell] {
        &self.cells
    }

    /// Runs through the session result cache `cache` (its size cap
    /// included): `run_all` runs every cell through
    /// [`Query::run_cached`], so cells whose [`Query::cache_key`] already
    /// has a decided report on disk are served from it once it re-checks,
    /// and newly decided ones are stored. Timeouts/unknowns always rerun.
    pub fn cache(mut self, cache: ReportCache) -> Matrix {
        self.cache = Some(cache);
        self
    }

    /// Runs every cell's [`Query`] on the worker pool, through
    /// [`Query::run_cached`] when a cache is configured (see
    /// [`Matrix::cache`]) and [`Query::run`] otherwise, and returns the
    /// reports in matrix order (never completion order).
    pub fn run_all(&self) -> CampaignReport {
        let start = std::time::Instant::now();
        let queries: Vec<Query> = self
            .cells
            .iter()
            .map(|cell| {
                self.base
                    .clone()
                    .design(cell.design)
                    .contract(cell.contract)
                    .scheme(cell.scheme)
                    .query()
                    .expect("matrix cells always carry a design and a contract")
            })
            .collect();
        let reports = run_pool(&queries, |query| match &self.cache {
            Some(cache) => query.run_cached(cache),
            None => query.run(),
        });
        CampaignReport {
            reports,
            wall: start.elapsed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_requires_design_and_contract() {
        assert_eq!(
            Verifier::new().query().unwrap_err(),
            BuildError::MissingDesign
        );
        assert_eq!(
            Verifier::new()
                .design(DesignKind::SingleCycle)
                .query()
                .unwrap_err(),
            BuildError::MissingContract
        );
        let q = Verifier::new()
            .design(DesignKind::SingleCycle)
            .contract(Contract::Sandboxing)
            .query()
            .unwrap();
        assert_eq!(q.scheme(), Scheme::Shadow);
        assert_eq!(q.design(), DesignKind::SingleCycle);
    }

    #[test]
    fn builder_threads_options_through() {
        let q = Verifier::new()
            .design(DesignKind::SingleCycle)
            .contract(Contract::Sandboxing)
            .scheme(Scheme::Upec)
            .mode(Mode::Portfolio)
            .wall(Duration::from_secs(7))
            .attack_only(true)
            .bmc_depth(9)
            .prepare(PrepareConfig::off())
            .excludes(&[ExcludeRule::TakenBranches])
            .query()
            .unwrap();
        assert_eq!(q.options().total_budget, Duration::from_secs(7));
        assert_eq!(q.options().mode, Mode::Portfolio);
        assert!(q.options().attack_only);
        assert_eq!(q.options().bmc_depth, 9);
        assert_eq!(q.options().prepare, PrepareConfig::off());
        assert_eq!(q.config().excludes, vec![ExcludeRule::TakenBranches]);
        // UPEC adds its fault exclusion at instance-build time, not here.
        let task = q.instance();
        assert!(task.aig().num_ands() > 0);
    }

    #[test]
    fn run_cached_rejects_tampered_entries_and_resolves() {
        use csl_mc::Verdict;

        let dir = std::env::temp_dir().join(format!("csl-verify-on-load-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ReportCache::new(&dir);
        let q = Verifier::new()
            .design(DesignKind::SingleCycle)
            .contract(Contract::Sandboxing)
            .scheme(Scheme::Leave)
            .wall(Duration::from_secs(60))
            .query()
            .unwrap();
        let first = q.run_cached(&cache);
        assert!(
            first.verdict.is_attack() || first.verdict.is_proof(),
            "smoke cell must decide: {:?}",
            first.verdict
        );

        // A genuine entry passes verify-on-load and is served.
        let second = q.run_cached(&cache);
        assert!(second.notes.iter().any(|n| n.contains("served from cache")));
        assert_eq!(cache.stats().rejected, 0);

        // Forge the entry: strip a proof's certificate / gut an attack's
        // trace. Either way the evidence no longer re-checks.
        let mut forged = first.clone();
        match &mut forged.verdict {
            Verdict::Proof(_) => forged.certificate = None,
            Verdict::Attack(trace) => trace.inputs.clear(),
            _ => unreachable!("decided cells only"),
        }
        let key = q.cache_key();
        cache.store(key, &forged).unwrap();

        let third = q.run_cached(&cache);
        assert_eq!(
            cache.stats().rejected,
            1,
            "the forged entry must be rejected"
        );
        assert_eq!(
            third.verdict.cell(),
            first.verdict.cell(),
            "the cell re-solves to the same verdict"
        );
        assert!(
            !third.notes.iter().any(|n| n.contains("served from cache")),
            "a rejected entry must not be served"
        );

        // The re-solve stored a fresh, valid entry.
        let fourth = q.run_cached(&cache);
        assert!(fourth.notes.iter().any(|n| n.contains("served from cache")));
        assert_eq!(cache.stats().rejected, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn matrix_cells_follow_matrix_order() {
        let m = Verifier::new().into_matrix(
            &Scheme::ALL,
            &[DesignKind::SingleCycle],
            &[Contract::Sandboxing],
        );
        assert_eq!(m.cells().len(), Scheme::ALL.len());
        assert_eq!(m.cells()[0].scheme, Scheme::ALL[0]);
    }
}
