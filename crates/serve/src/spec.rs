//! Wire-level descriptions of verification work.
//!
//! A campaign submission is a list of [`CellSpec`]s (scheme × design ×
//! contract, named exactly as reports name them) plus one shared
//! [`ServeOptions`] block — the engine knobs that survive a trip through
//! the JSON-lines protocol. Both sides of the wire resolve a spec the
//! same way: [`ServeOptions::query`] builds the standard
//! `csl_core::api::Query`, so a daemon-served cell decides exactly the
//! problem an in-process `Matrix::run_all` would, and
//! [`cell_key`] is `Query::cache_key` (shared with the on-disk
//! [`csl_core::api::ReportCache`]) unless fault-injection knobs are set.

use std::time::Duration;

use csl_contracts::Contract;
use csl_core::api::{CampaignReport, Json, Mode, PrepareConfig, Query, Report, Verifier};
use csl_core::{CampaignCell, DesignKind, Scheme};
use csl_mc::{CheckOptions, InconclusiveReason, Verdict};

/// One cell of a submitted campaign.
#[derive(Clone, Debug, PartialEq)]
pub struct CellSpec {
    pub scheme: Scheme,
    pub design: DesignKind,
    pub contract: Contract,
    /// Fault injection for crash-isolation testing: the worker process
    /// aborts (SIGABRT) instead of solving this cell. Salted into
    /// [`cell_key`] so a poisoned cell never dedups against — or is
    /// served from the cache of — the real one.
    pub poison: bool,
    /// Fault injection for scheduling tests: the worker sleeps this long
    /// before solving. Salted into [`cell_key`] like `poison`.
    pub delay_ms: u64,
}

impl CellSpec {
    /// A plain cell with no fault injection.
    pub fn new(scheme: Scheme, design: DesignKind, contract: Contract) -> CellSpec {
        CellSpec {
            scheme,
            design,
            contract,
            poison: false,
            delay_ms: 0,
        }
    }

    /// `Scheme/Design/contract` label, matching report labels.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}",
            self.scheme.name(),
            self.design.name(),
            self.contract.name()
        )
    }

    pub fn to_value(&self) -> Json {
        let mut pairs = vec![
            ("scheme", Json::Str(self.scheme.name().into())),
            ("design", Json::Str(self.design.name())),
            ("contract", Json::Str(self.contract.name())),
        ];
        // Fault-injection knobs are written only when set, so ordinary
        // submissions stay free of test vocabulary.
        if self.poison {
            pairs.push(("poison", Json::Bool(true)));
        }
        if self.delay_ms > 0 {
            pairs.push(("delay_ms", Json::Int(self.delay_ms as i64)));
        }
        Json::obj(pairs)
    }

    pub fn from_value(v: &Json) -> Result<CellSpec, String> {
        let name = |key: &str| -> Result<&str, String> {
            v.get(key)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("cell is missing `{key}`"))
        };
        let scheme = name("scheme")?;
        let scheme =
            Scheme::from_name(scheme).ok_or_else(|| format!("unknown scheme `{scheme}`"))?;
        let design = name("design")?;
        let design =
            DesignKind::from_name(design).ok_or_else(|| format!("unknown design `{design}`"))?;
        let contract = name("contract")?;
        let contract = Contract::from_name(contract)
            .ok_or_else(|| format!("unknown contract `{contract}`"))?;
        let poison = match v.get("poison") {
            None => false,
            Some(b) => b.as_bool().ok_or("`poison` must be a bool")?,
        };
        let delay_ms = match v.get("delay_ms") {
            None => 0,
            Some(n) => n
                .as_int()
                .and_then(|n| u64::try_from(n).ok())
                .ok_or("`delay_ms` must be a non-negative integer")?,
        };
        Ok(CellSpec {
            scheme,
            design,
            contract,
            poison,
            delay_ms,
        })
    }
}

impl From<CampaignCell> for CellSpec {
    fn from(cell: CampaignCell) -> CellSpec {
        CellSpec::new(cell.scheme, cell.design, cell.contract)
    }
}

/// The engine knobs a submission carries — the subset of the `Verifier`
/// builder that makes sense to set remotely. Defaults mirror
/// `CheckOptions::default()` (sequential mode, preparation on,
/// certification on), so an empty `options` object on the wire means
/// "the standard pipeline".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeOptions {
    /// Per-cell wall-clock budget.
    pub budget: Duration,
    /// Maximum BMC depth for the attack search.
    pub bmc_depth: usize,
    /// Skip the proof engines (pure attack hunting).
    pub attack_only: bool,
    /// Thread-racing portfolio instead of the sequential pipeline.
    pub portfolio: bool,
    /// Instance preparation (netlist reduction) on/off.
    pub prepare: bool,
    /// Certificate emission and verify-on-load of cached/journaled
    /// verdicts on/off (default on).
    pub certify: bool,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        let opts = CheckOptions::default();
        ServeOptions {
            budget: opts.total_budget,
            bmc_depth: opts.bmc_depth,
            attack_only: opts.attack_only,
            portfolio: matches!(opts.mode, Mode::Portfolio),
            prepare: opts.prepare.enabled,
            certify: opts.certify,
        }
    }
}

impl ServeOptions {
    /// Applies these options to a session builder — the single point
    /// both the worker and any in-process comparison run resolve
    /// options through.
    pub fn apply(&self, v: Verifier) -> Verifier {
        v.wall(self.budget)
            .bmc_depth(self.bmc_depth)
            .attack_only(self.attack_only)
            .mode(if self.portfolio {
                Mode::Portfolio
            } else {
                Mode::Sequential
            })
            .prepare(if self.prepare {
                PrepareConfig::on()
            } else {
                PrepareConfig::off()
            })
            .certify(self.certify)
    }

    /// The fully-resolved query for one cell.
    pub fn query(&self, cell: &CellSpec) -> Query {
        self.apply(Verifier::new())
            .design(cell.design)
            .contract(cell.contract)
            .scheme(cell.scheme)
            .query()
            .expect("cell specs always carry a design and a contract")
    }

    pub fn to_value(&self) -> Json {
        Json::obj(vec![
            ("budget_ms", Json::Int(self.budget.as_millis() as i64)),
            ("bmc_depth", Json::Int(self.bmc_depth as i64)),
            ("attack_only", Json::Bool(self.attack_only)),
            ("portfolio", Json::Bool(self.portfolio)),
            ("prepare", Json::Bool(self.prepare)),
            ("certify", Json::Bool(self.certify)),
        ])
    }

    /// Lenient parse: absent keys keep their defaults and unknown keys
    /// are ignored, so old clients keep working as knobs come and go.
    pub fn from_value(v: &Json) -> Result<ServeOptions, String> {
        let mut opts = ServeOptions::default();
        if let Some(ms) = v.get("budget_ms") {
            let ms = ms
                .as_int()
                .and_then(|n| u64::try_from(n).ok())
                .ok_or("`budget_ms` must be a non-negative integer")?;
            opts.budget = Duration::from_millis(ms);
        }
        if let Some(d) = v.get("bmc_depth") {
            opts.bmc_depth = d
                .as_int()
                .and_then(|n| usize::try_from(n).ok())
                .ok_or("`bmc_depth` must be a non-negative integer")?;
        }
        let flag = |key: &str, default: bool| -> Result<bool, String> {
            match v.get(key) {
                None => Ok(default),
                Some(b) => b.as_bool().ok_or(format!("`{key}` must be a bool")),
            }
        };
        opts.attack_only = flag("attack_only", opts.attack_only)?;
        opts.portfolio = flag("portfolio", opts.portfolio)?;
        opts.prepare = flag("prepare", opts.prepare)?;
        opts.certify = flag("certify", opts.certify)?;
        Ok(opts)
    }
}

/// The identity of a cell's verification problem: `Query::cache_key`
/// (scheme × design × contract × every engine knob × structural netlist
/// hash), so daemon dedup, the journal and the shared on-disk
/// [`csl_core::api::ReportCache`] all speak the same key space.
/// Fault-injection knobs are folded in on top when set, keeping poisoned
/// or delayed test cells apart from real ones.
pub fn cell_key(cell: &CellSpec, options: &ServeOptions) -> u64 {
    let base = options.query(cell).cache_key();
    if !cell.poison && cell.delay_ms == 0 {
        return base;
    }
    // FNV-1a fold of the fault knobs over the base key.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in [base, cell.poison as u64, cell.delay_ms] {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Runs one cell in the current process — the worker's solve path, also
/// usable inline for daemon-vs-direct comparisons.
pub fn run_cell(cell: &CellSpec, options: &ServeOptions) -> Report {
    options.query(cell).run()
}

/// Strips the wall-clock-dependent fields from a report — elapsed
/// time, free-text notes, per-lane solver timing — leaving exactly the
/// deterministic content (verdict, trace, prepare/fuzz structure). Two
/// sequential-mode runs of the same query normalize to byte-identical
/// JSON; this is what the `serveprobe` gate and the daemon equivalence
/// tests compare.
pub fn normalized_report(report: &Report) -> Report {
    let mut report = report.clone();
    report.elapsed = Duration::ZERO;
    report.notes.clear();
    report.solver.clear();
    report
}

/// [`normalized_report`] across a campaign, with the wall zeroed.
pub fn normalized_campaign(campaign: &CampaignReport) -> CampaignReport {
    CampaignReport {
        reports: campaign.reports.iter().map(normalized_report).collect(),
        wall: Duration::ZERO,
    }
}

/// A synthetic report for a cell the engines never decided (worker
/// crash, client cancellation): the query identity with a structured
/// `Unknown` verdict, so campaign tables and diffs stay total.
pub fn undecided_report(
    cell: &CellSpec,
    reason: InconclusiveReason,
    elapsed: Duration,
    notes: Vec<String>,
) -> Report {
    Report {
        scheme: cell.scheme,
        design: cell.design,
        contract: cell.contract,
        verdict: Verdict::Unknown { reason },
        elapsed,
        notes,
        prepare: Vec::new(),
        fuzz: None,
        solver: Vec::new(),
        certificate: None,
    }
}

/// Verify-on-load for daemon-served verdicts: does the stored report's
/// evidence re-check against a freshly built instance of its cell? An
/// attack must replay to a bad state with every assume held; a proof
/// must carry a certificate whose obligations pass on the raw netlist.
/// A proof with no certificate fails — the daemon only serves what it
/// can audit. Undecided verdicts carry no claim and pass vacuously.
///
/// The instance is rebuilt from the report's own scheme × design ×
/// contract under default instance knobs — exactly how worker processes
/// resolve cells, so the vocabulary matches.
pub fn report_is_sound(report: &Report) -> bool {
    use csl_certify::{check_certificate, check_witness, Witness};
    let raw = || {
        Verifier::new()
            .design(report.design)
            .contract(report.contract)
            .scheme(report.scheme)
            .query()
            .expect("reports always carry a design and a contract")
            .raw_instance()
    };
    match &report.verdict {
        Verdict::Attack(trace) => {
            check_witness(&raw().aig, &Witness::new((**trace).clone())).is_ok()
        }
        Verdict::Proof(_) => report
            .certificate
            .as_ref()
            .is_some_and(|cert| check_certificate(&raw(), cert).is_ok()),
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_spec_round_trips_and_hides_fault_knobs() {
        let plain = CellSpec::new(Scheme::Leave, DesignKind::SingleCycle, Contract::Sandboxing);
        let line = plain.to_value().render_line();
        assert!(
            !line.contains("poison") && !line.contains("delay"),
            "{line}"
        );
        assert_eq!(
            CellSpec::from_value(&Json::parse(&line).unwrap()).unwrap(),
            plain
        );

        let faulty = CellSpec {
            poison: true,
            delay_ms: 250,
            ..plain.clone()
        };
        let v = Json::parse(&faulty.to_value().render_line()).unwrap();
        assert_eq!(CellSpec::from_value(&v).unwrap(), faulty);
    }

    /// Synthesized (`obs:`-named) contracts must survive the wire: a
    /// cell carrying an arbitrary observation set round-trips through
    /// the JSON protocol, resolves to a well-formed query, and
    /// canonicalizes exactly like the in-process `Contract::from_name`
    /// (so a set spelled in a different atom order dedups to the same
    /// cell key).
    #[test]
    fn obs_contracts_round_trip_on_the_wire() {
        use csl_contracts::{ObsAtom, ObsSet};
        let set = ObsSet::of(&[ObsAtom::MemWord, ObsAtom::BranchTaken]);
        let cell = CellSpec::new(Scheme::Shadow, DesignKind::InOrder, Contract::Custom(set));
        let line = cell.to_value().render_line();
        assert!(line.contains("obs:mem_word+branch_taken"), "{line}");
        let parsed = CellSpec::from_value(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(parsed, cell);

        // A client spelling the same set in another order resolves to
        // the same cell (and therefore the same cache/dedup key).
        let reordered =
            Json::parse(&line.replace("obs:mem_word+branch_taken", "obs:branch_taken+mem_word"))
                .unwrap();
        let same = CellSpec::from_value(&reordered).unwrap();
        assert_eq!(same, cell);
        let opts = ServeOptions {
            budget: Duration::from_secs(5),
            ..ServeOptions::default()
        };
        assert_eq!(cell_key(&same, &opts), cell_key(&cell, &opts));

        // A set that coincides with a named contract canonicalizes to it.
        let named =
            Json::parse(&line.replace("obs:mem_word+branch_taken", "obs:load_data+exception"))
                .unwrap();
        assert_eq!(
            CellSpec::from_value(&named).unwrap().contract,
            Contract::Sandboxing
        );
    }

    #[test]
    fn options_round_trip_and_parse_leniently() {
        let opts = ServeOptions {
            budget: Duration::from_millis(4500),
            bmc_depth: 11,
            attack_only: true,
            portfolio: true,
            prepare: false,
            certify: false,
        };
        let v = Json::parse(&opts.to_value().render_line()).unwrap();
        assert_eq!(ServeOptions::from_value(&v).unwrap(), opts);
        // An empty object is the defaults.
        assert_eq!(
            ServeOptions::from_value(&Json::parse("{}").unwrap()).unwrap(),
            ServeOptions::default()
        );
        // Unknown keys are ignored: old clients may still send the
        // removed `warm` and `exchange` knobs.
        for old in [
            "{\"warm\": true}",
            "{\"exchange\": true}",
            "{\"exchange\": {\"enabled\": true, \"adaptive\": true}}",
        ] {
            assert_eq!(
                ServeOptions::from_value(&Json::parse(old).unwrap()).unwrap(),
                ServeOptions::default(),
                "{old}"
            );
        }
        assert!(ServeOptions::from_value(&Json::parse("{\"prepare\": 3}").unwrap()).is_err());
    }

    #[test]
    fn fault_knobs_change_the_cell_key() {
        let opts = ServeOptions {
            budget: Duration::from_secs(5),
            ..ServeOptions::default()
        };
        let plain = CellSpec::new(Scheme::Leave, DesignKind::SingleCycle, Contract::Sandboxing);
        let poisoned = CellSpec {
            poison: true,
            ..plain.clone()
        };
        let delayed = CellSpec {
            delay_ms: 100,
            ..plain.clone()
        };
        let base = cell_key(&plain, &opts);
        assert_eq!(base, opts.query(&plain).cache_key());
        assert_ne!(base, cell_key(&poisoned, &opts));
        assert_ne!(base, cell_key(&delayed, &opts));
        assert_ne!(cell_key(&poisoned, &opts), cell_key(&delayed, &opts));
    }
}
