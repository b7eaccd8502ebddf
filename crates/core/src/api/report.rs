//! Structured, persistable verification reports.
//!
//! [`Report`] is one verified cell (scheme × design × contract → verdict)
//! and [`CampaignReport`] a whole matrix; both serialize to a stable JSON
//! shape (`csl-report-v1` / `csl-campaign-v1`) and a flat CSV so CI can
//! archive a run and diff it against another commit's. The JSON writer is
//! canonical: parsing a report and re-serializing it reproduces the input
//! byte for byte, which is what makes archived artifacts diffable with
//! plain line tools.
//!
//! Each type in the format has one writer and one reader, side by side
//! in its implementation of the private `Persist` trait. Readers take
//! fields through two accessors, `field` and `opt_field`: an optional
//! block (`prepare`, `fuzz`, `solver`, `certificate`, a PDR proof's
//! `fixpoint_level`) that is absent reads as none, so older documents
//! still load, but one that is present and malformed is an error like
//! any other. A schema error names the key path, for example
//! `verdict: fixpoint_level: not an unsigned integer`.
//!
//! [`CampaignReport::diff`] is the regression gate: it pairs cells across
//! two runs and flags every verdict change, marking as regressions the
//! changes that lose a decisive verdict (a proof or attack that became a
//! timeout/unknown) or flip one decisive kind into the other.

use std::fmt::Display;
use std::time::Duration;

use csl_contracts::Contract;
use csl_hdl::xform::{PassStats, Shape};
use csl_mc::{
    CertKind, Certificate, CheckReport, FuzzStats, InconclusiveReason, Lane, LaneSolverStats,
    ProofEngine, Trace, Verdict,
};

use crate::api::json::{Json, JsonError};
use crate::harness::DesignKind;
use crate::verify::Scheme;

/// Failure reading a persisted report: malformed JSON or a document that
/// parses but does not match the report schema.
#[derive(Debug)]
pub enum ReadError {
    /// The text is not valid JSON.
    Json(JsonError),
    /// The JSON does not have the expected report shape.
    Schema(String),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Json(e) => write!(f, "{e}"),
            ReadError::Schema(msg) => write!(f, "report schema error: {msg}"),
        }
    }
}

impl std::error::Error for ReadError {}

impl From<JsonError> for ReadError {
    fn from(e: JsonError) -> ReadError {
        ReadError::Json(e)
    }
}

/// One finished verification cell: the query identity plus the verdict,
/// wall time, and the engines' notes.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    pub scheme: Scheme,
    pub design: DesignKind,
    pub contract: Contract,
    pub verdict: Verdict,
    pub elapsed: Duration,
    /// Engine-by-engine notes (sizes, intermediate outcomes).
    pub notes: Vec<String>,
    /// Node/latch reduction statistics from instance preparation: one
    /// `"reduce"` entry (empty when preparation was off or the document
    /// predates the field; older documents carry one entry per pass).
    pub prepare: Vec<PassStats>,
    /// Fuzzing-lane campaign statistics (`None` when no fuzzing lane
    /// ran or the document predates the field).
    pub fuzz: Option<FuzzStats>,
    /// Per-lane solver activity (empty when no SAT lane reported or the
    /// document predates the field).
    pub solver: Vec<LaneSolverStats>,
    /// The proof's checkable certificate in raw-netlist vocabulary
    /// (`None` for non-proof verdicts, certificate emission disabled, or
    /// documents that predate the field). Re-validate with
    /// `csl_certify`.
    pub certificate: Option<Certificate>,
}

impl Report {
    /// Wraps an engine-level [`CheckReport`] with its query identity.
    pub fn from_check(
        scheme: Scheme,
        design: DesignKind,
        contract: Contract,
        check: CheckReport,
    ) -> Report {
        Report {
            scheme,
            design,
            contract,
            verdict: check.verdict,
            elapsed: check.elapsed,
            notes: check.notes,
            prepare: check.prepare,
            fuzz: check.fuzz,
            solver: check.solver,
            certificate: check.certificate,
        }
    }

    /// `Scheme/Design/contract` label for tables and diffs.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}",
            self.scheme.name(),
            self.design.name(),
            self.contract.name()
        )
    }

    /// Short verdict cell text ("CEX", "PROOF", "T/O", "UNK").
    pub fn cell(&self) -> &'static str {
        self.verdict.cell()
    }

    /// Serializes to the canonical `csl-report-v1` JSON document.
    pub fn to_json(&self) -> String {
        self.write().render()
    }

    /// Parses a document written by [`Report::to_json`].
    pub fn from_json(text: &str) -> Result<Report, ReadError> {
        Report::read(&Json::parse(text)?)
    }

    /// CSV header matching [`Report::csv_row`].
    pub fn csv_header() -> &'static str {
        "scheme,design,contract,verdict,detail,elapsed_ms"
    }

    /// One flat CSV row (quoted where needed).
    pub fn csv_row(&self) -> String {
        let detail = match &self.verdict {
            Verdict::Attack(t) => format!("depth {} bad {}", t.depth(), t.bad_name),
            Verdict::Proof(p) => proof_detail(p),
            Verdict::Timeout => String::new(),
            Verdict::Unknown { reason } => reason.to_string(),
        };
        [
            csv_field(self.scheme.name()),
            csv_field(&self.design.name()),
            csv_field(&self.contract.name()),
            csv_field(self.cell()),
            csv_field(&detail),
            self.elapsed.as_millis().to_string(),
        ]
        .join(",")
    }
}

fn proof_detail(p: &ProofEngine) -> String {
    match p {
        ProofEngine::Houdini { invariants } => format!("houdini invariants={invariants}"),
        ProofEngine::KInduction { k } => format!("k-induction k={k}"),
        ProofEngine::Pdr {
            frames,
            clauses,
            fixpoint_level,
        } => format!("pdr frames={frames} clauses={clauses} fixpoint={fixpoint_level}"),
    }
}

fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// A finished campaign under the session API: one [`Report`] per cell, in
/// matrix order, plus the measured wall clock.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignReport {
    pub reports: Vec<Report>,
    pub wall: Duration,
}

impl CampaignReport {
    /// Looks up a cell's report.
    pub fn get(&self, scheme: Scheme, design: DesignKind, contract: Contract) -> Option<&Report> {
        self.reports
            .iter()
            .find(|r| r.scheme == scheme && r.design == design && r.contract == contract)
    }

    /// Sum of per-cell elapsed times — what a sequential loop would have
    /// paid (modulo early exits); compare with `wall` for the speedup.
    pub fn cpu_time(&self) -> Duration {
        self.reports.iter().map(|r| r.elapsed).sum()
    }

    /// Renders the paper-style result table: one block per contract, one
    /// row per scheme, one column per design, cells as `VERDICT(elapsed)`.
    /// Row and column order follow first appearance in the reports, and
    /// every column is padded to its own widest entry (label or cell), so
    /// mixed-length design/scheme names stay aligned.
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;

        let mut contracts: Vec<Contract> = Vec::new();
        let mut schemes: Vec<Scheme> = Vec::new();
        let mut designs: Vec<DesignKind> = Vec::new();
        for r in &self.reports {
            if !contracts.contains(&r.contract) {
                contracts.push(r.contract);
            }
            if !schemes.contains(&r.scheme) {
                schemes.push(r.scheme);
            }
            if !designs.contains(&r.design) {
                designs.push(r.design);
            }
        }
        let text_of = |scheme: Scheme, design: DesignKind, contract: Contract| -> String {
            self.get(scheme, design, contract).map_or_else(
                || "-".to_string(),
                |r| format!("{}({:.1}s)", r.cell(), r.elapsed.as_secs_f64()),
            )
        };
        let scheme_w = schemes
            .iter()
            .map(|s| s.name().len())
            .max()
            .unwrap_or(0)
            .max("scheme".len());
        let design_w: Vec<usize> = designs
            .iter()
            .map(|&d| {
                contracts
                    .iter()
                    .flat_map(|&ct| schemes.iter().map(move |&s| text_of(s, d, ct).len()))
                    .max()
                    .unwrap_or(0)
                    .max(d.name().len())
            })
            .collect();
        let mut out = String::new();
        for &contract in &contracts {
            let _ = writeln!(out, "contract: {}", contract.name());
            let _ = write!(out, "{:<scheme_w$}", "scheme");
            for (&design, w) in designs.iter().zip(&design_w) {
                let _ = write!(out, " {:<w$}", design.name());
            }
            let _ = writeln!(out);
            for &scheme in &schemes {
                let _ = write!(out, "{:<scheme_w$}", scheme.name());
                for (&design, w) in designs.iter().zip(&design_w) {
                    let _ = write!(out, " {:<w$}", text_of(scheme, design, contract));
                }
                let _ = writeln!(out);
            }
        }
        let _ = writeln!(
            out,
            "wall {:.1}s, cpu {:.1}s, {} cells",
            self.wall.as_secs_f64(),
            self.cpu_time().as_secs_f64(),
            self.reports.len()
        );
        out
    }

    /// Serializes to the canonical `csl-campaign-v1` JSON document.
    pub fn to_json(&self) -> String {
        self.write().render()
    }

    /// Parses a document written by [`CampaignReport::to_json`].
    pub fn from_json(text: &str) -> Result<CampaignReport, ReadError> {
        CampaignReport::read(&Json::parse(text)?)
    }

    /// Flat CSV: header plus one row per cell.
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(64 * (self.reports.len() + 1));
        out.push_str(Report::csv_header());
        out.push('\n');
        for r in &self.reports {
            out.push_str(&r.csv_row());
            out.push('\n');
        }
        out
    }

    /// Compares this run (before) against `other` (after), pairing cells
    /// by scheme × design × contract and flagging verdict changes.
    pub fn diff(&self, other: &CampaignReport) -> CampaignDiff {
        let mut changes = Vec::new();
        let mut missing_after = Vec::new();
        for before in &self.reports {
            match other.get(before.scheme, before.design, before.contract) {
                None => missing_after.push(before.label()),
                Some(after) if before.cell() != after.cell() => {
                    let decisive = |cell: &str| cell == "CEX" || cell == "PROOF";
                    changes.push(VerdictChange {
                        label: before.label(),
                        before: before.cell(),
                        after: after.cell(),
                        // Losing a decisive verdict — or flipping one
                        // decisive kind into the other — is a regression;
                        // UNK <-> T/O churn and new decisiveness are not.
                        regression: decisive(before.cell()),
                    });
                }
                Some(_) => {}
            }
        }
        let missing_before = other
            .reports
            .iter()
            .filter(|r| self.get(r.scheme, r.design, r.contract).is_none())
            .map(|r| r.label())
            .collect();
        CampaignDiff {
            changes,
            missing_before,
            missing_after,
        }
    }
}

/// The result of [`CampaignReport::diff`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CampaignDiff {
    /// Cells whose verdict kind changed between the runs.
    pub changes: Vec<VerdictChange>,
    /// Cells present only in the `after` run.
    pub missing_before: Vec<String>,
    /// Cells present only in the `before` run.
    pub missing_after: Vec<String>,
}

/// One changed cell in a [`CampaignDiff`].
#[derive(Clone, Debug, PartialEq)]
pub struct VerdictChange {
    /// `Scheme/Design/contract` cell label.
    pub label: String,
    /// Verdict cell text in the `before` run.
    pub before: &'static str,
    /// Verdict cell text in the `after` run.
    pub after: &'static str,
    /// True when the change loses or flips a decisive verdict.
    pub regression: bool,
}

impl CampaignDiff {
    /// No changes at all (identical verdict landscape, same cell set).
    pub fn is_clean(&self) -> bool {
        self.changes.is_empty() && self.missing_before.is_empty() && self.missing_after.is_empty()
    }

    /// Any change that loses or flips a decisive verdict.
    pub fn has_regressions(&self) -> bool {
        self.changes.iter().any(|c| c.regression)
    }

    /// Human-readable summary, one line per change.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        if self.is_clean() {
            return "no verdict changes\n".to_string();
        }
        let mut out = String::new();
        for c in &self.changes {
            let _ = writeln!(
                out,
                "{} {}: {} -> {}",
                if c.regression { "REGRESSION" } else { "change" },
                c.label,
                c.before,
                c.after
            );
        }
        for label in &self.missing_after {
            let _ = writeln!(out, "removed {label}");
        }
        for label in &self.missing_before {
            let _ = writeln!(out, "added {label}");
        }
        out
    }
}

/// One type's place in the JSON format: `read` inverts `write`, and
/// also accepts the older shapes the implementation names.
trait Persist: Sized {
    fn write(&self) -> Json;
    fn read(v: &Json) -> Result<Self, ReadError>;
}

/// Reads the required field `key` of the object `v`.
fn field<T: Persist>(v: &Json, key: &str) -> Result<T, ReadError> {
    opt_field(v, key)?.ok_or_else(|| ReadError::Schema(format!("{key}: missing")))
}

/// Reads the optional field `key` of the object `v`: absent is `None`,
/// present but malformed an error.
fn opt_field<T: Persist>(v: &Json, key: &str) -> Result<Option<T>, ReadError> {
    v.get(key)
        .map(|x| T::read(x).map_err(|e| within(key, e)))
        .transpose()
}

/// Prefixes a schema error with the key or index it was read under.
fn within(at: impl Display, e: ReadError) -> ReadError {
    match e {
        ReadError::Schema(msg) => ReadError::Schema(format!("{at}: {msg}")),
        json => json,
    }
}

fn schema_err<T>(msg: impl Into<String>) -> Result<T, ReadError> {
    Err(ReadError::Schema(msg.into()))
}

/// An enum variant's `key` tag that names no variant.
fn unknown<T>(key: &str, name: &str) -> Result<T, ReadError> {
    schema_err(format!("{key}: unknown `{name}`"))
}

/// A document's `schema` tag must be `name`.
fn expect_schema(v: &Json, name: &str) -> Result<(), ReadError> {
    match field::<String>(v, "schema")? {
        tag if tag == name => Ok(()),
        tag => unknown("schema", &tag),
    }
}

/// The `kind` tag of an enum variant's object.
fn kind(name: &str) -> (&'static str, Json) {
    ("kind", Json::Str(name.into()))
}

macro_rules! persist_unsigned {
    ($($t:ty),*) => {$(
        impl Persist for $t {
            fn write(&self) -> Json {
                Json::Int(*self as i128)
            }
            fn read(v: &Json) -> Result<$t, ReadError> {
                v.as_int()
                    .and_then(|n| <$t>::try_from(n).ok())
                    .ok_or_else(|| ReadError::Schema("not an unsigned integer".into()))
            }
        }
    )*};
}

persist_unsigned!(u32, u64, usize);

/// Only fuzz seeds are signed: a `u64` seed round-trips through the JSON
/// integer by casting.
impl Persist for i64 {
    fn write(&self) -> Json {
        Json::Int(i128::from(*self))
    }
    fn read(v: &Json) -> Result<i64, ReadError> {
        v.as_int()
            .and_then(|n| i64::try_from(n).ok())
            .ok_or_else(|| ReadError::Schema("not a 64-bit integer".into()))
    }
}

impl Persist for bool {
    fn write(&self) -> Json {
        Json::Bool(*self)
    }
    fn read(v: &Json) -> Result<bool, ReadError> {
        v.as_bool()
            .ok_or_else(|| ReadError::Schema("not a bool".into()))
    }
}

impl Persist for String {
    fn write(&self) -> Json {
        Json::Str(self.clone())
    }
    fn read(v: &Json) -> Result<String, ReadError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| ReadError::Schema("not a string".into()))
    }
}

impl<T: Persist> Persist for Vec<T> {
    fn write(&self) -> Json {
        Json::Arr(self.iter().map(T::write).collect())
    }
    fn read(v: &Json) -> Result<Vec<T>, ReadError> {
        let items = v
            .as_arr()
            .ok_or_else(|| ReadError::Schema("not an array".into()))?;
        items
            .iter()
            .enumerate()
            .map(|(i, item)| T::read(item).map_err(|e| within(i, e)))
            .collect()
    }
}

/// Trace and certificate literals: `[latch or input index, value]`.
impl Persist for (u32, bool) {
    fn write(&self) -> Json {
        Json::Arr(vec![self.0.write(), self.1.write()])
    }
    fn read(v: &Json) -> Result<(u32, bool), ReadError> {
        match v.as_arr() {
            Some([i, b]) => Ok((u32::read(i)?, bool::read(b)?)),
            _ => schema_err("not an [index, bool] pair"),
        }
    }
}

impl Persist for Duration {
    fn write(&self) -> Json {
        Json::obj(vec![
            ("secs", self.as_secs().write()),
            ("nanos", self.subsec_nanos().write()),
        ])
    }
    fn read(v: &Json) -> Result<Duration, ReadError> {
        let nanos = field(v, "nanos")?;
        if nanos >= 1_000_000_000 {
            return schema_err("nanos: out of range");
        }
        Ok(Duration::new(field(v, "secs")?, nanos))
    }
}

/// Scheme, design, contract and lane names.
macro_rules! persist_name {
    ($($t:ty),*) => {$(
        impl Persist for $t {
            fn write(&self) -> Json {
                Json::Str(self.name().into())
            }
            fn read(v: &Json) -> Result<$t, ReadError> {
                let name = String::read(v)?;
                <$t>::from_name(&name).map_or_else(|| unknown("name", &name), Ok)
            }
        }
    )*};
}

persist_name!(Scheme, DesignKind, Contract, Lane);

impl Persist for Shape {
    fn write(&self) -> Json {
        Json::obj(vec![
            ("nodes", self.nodes.write()),
            ("ands", self.ands.write()),
            ("latches", self.latches.write()),
            ("inputs", self.inputs.write()),
        ])
    }
    fn read(v: &Json) -> Result<Shape, ReadError> {
        Ok(Shape {
            nodes: field(v, "nodes")?,
            ands: field(v, "ands")?,
            latches: field(v, "latches")?,
            inputs: field(v, "inputs")?,
        })
    }
}

impl Persist for PassStats {
    fn write(&self) -> Json {
        Json::obj(vec![
            ("pass", self.pass.write()),
            ("before", self.before.write()),
            ("after", self.after.write()),
        ])
    }
    fn read(v: &Json) -> Result<PassStats, ReadError> {
        Ok(PassStats {
            pass: field(v, "pass")?,
            before: field(v, "before")?,
            after: field(v, "after")?,
        })
    }
}

/// Keys the reader does not know are ignored: older documents carry two
/// warm-start counters in every entry.
impl Persist for LaneSolverStats {
    fn write(&self) -> Json {
        Json::obj(vec![
            ("lane", self.lane.write()),
            ("propagations", self.propagations.write()),
            ("conflicts", self.conflicts.write()),
            ("decisions", self.decisions.write()),
            ("restarts", self.restarts.write()),
            ("reduced_clauses", self.reduced_clauses.write()),
        ])
    }
    fn read(v: &Json) -> Result<LaneSolverStats, ReadError> {
        Ok(LaneSolverStats {
            lane: field(v, "lane")?,
            propagations: field(v, "propagations")?,
            conflicts: field(v, "conflicts")?,
            decisions: field(v, "decisions")?,
            restarts: field(v, "restarts")?,
            reduced_clauses: field(v, "reduced_clauses")?,
        })
    }
}

/// Documents from before coverage-guided fuzzing was removed also split
/// `trials` into corpus mutants and fresh random draws; the split is
/// ignored.
impl Persist for FuzzStats {
    fn write(&self) -> Json {
        let mut pairs = vec![
            ("trials", self.trials.write()),
            ("sim_cycles", self.sim_cycles.write()),
            ("wall", self.wall.write()),
        ];
        if let Some(cycle) = self.leak_cycle {
            pairs.push(("leak_cycle", cycle.write()));
        }
        pairs.push(("seed", (self.seed as i64).write()));
        pairs.push(("lanes", self.lanes.write()));
        Json::obj(pairs)
    }
    fn read(v: &Json) -> Result<FuzzStats, ReadError> {
        Ok(FuzzStats {
            trials: field(v, "trials")?,
            sim_cycles: field(v, "sim_cycles")?,
            wall: field(v, "wall")?,
            leak_cycle: opt_field(v, "leak_cycle")?,
            seed: field::<i64>(v, "seed")? as u64,
            lanes: field(v, "lanes")?,
        })
    }
}

/// Canonical certificate encoding: restored constants and blocked-cube
/// literals as `[index, bool]` pairs (matching the trace encoding),
/// survivors as plain indices, the kind tagged like verdicts.
impl Persist for Certificate {
    fn write(&self) -> Json {
        Json::obj(vec![
            ("restored", self.restored.write()),
            ("survivors", self.survivors.write()),
            ("kind", self.kind.write()),
        ])
    }
    fn read(v: &Json) -> Result<Certificate, ReadError> {
        Ok(Certificate {
            restored: field(v, "restored")?,
            survivors: field(v, "survivors")?,
            kind: field(v, "kind")?,
        })
    }
}

impl Persist for CertKind {
    fn write(&self) -> Json {
        Json::obj(match self {
            CertKind::Inductive { blocked } => {
                vec![kind("inductive"), ("blocked", blocked.write())]
            }
            CertKind::KInduction { k } => vec![kind("k-induction"), ("k", k.write())],
        })
    }
    fn read(v: &Json) -> Result<CertKind, ReadError> {
        match field::<String>(v, "kind")?.as_str() {
            "inductive" => Ok(CertKind::Inductive {
                blocked: field(v, "blocked")?,
            }),
            "k-induction" => Ok(CertKind::KInduction { k: field(v, "k")? }),
            other => unknown("kind", other),
        }
    }
}

/// Canonical trace encoding: latch pairs in solver order, inputs per
/// cycle sorted by index (HashMap iteration order must not leak into the
/// byte stream). The bad's name is written with the verdict.
impl Persist for Trace {
    fn write(&self) -> Json {
        let inputs: Vec<Vec<(u32, bool)>> = self
            .inputs
            .iter()
            .map(|cycle| {
                let mut pairs: Vec<(u32, bool)> = cycle.iter().map(|(&i, &b)| (i, b)).collect();
                pairs.sort_unstable();
                pairs
            })
            .collect();
        Json::obj(vec![
            ("initial_latches", self.initial_latches.write()),
            ("inputs", inputs.write()),
        ])
    }
    fn read(v: &Json) -> Result<Trace, ReadError> {
        let initial_latches = field(v, "initial_latches")?;
        let inputs: Vec<Vec<(u32, bool)>> = field(v, "inputs")?;
        Ok(Trace {
            initial_latches,
            inputs: inputs
                .into_iter()
                .map(|cycle| cycle.into_iter().collect())
                .collect(),
            bad_name: String::new(),
        })
    }
}

/// Pre-typed documents stored the reason as a plain string; it reads back
/// as free text.
impl Persist for InconclusiveReason {
    fn write(&self) -> Json {
        use InconclusiveReason::*;
        Json::obj(match self {
            BoundedClean { depth } => vec![kind("bounded-clean"), ("depth", depth.write())],
            InductionGap { max_k } => vec![kind("induction-gap"), ("max_k", max_k.write())],
            FrameCap { frames } => vec![kind("frame-cap"), ("frames", frames.write())],
            ReplayFailed { engine } => vec![kind("replay-failed"), ("engine", engine.write())],
            NoInvariants => vec![kind("no-invariants")],
            InvariantsInsufficient { survivors } => vec![
                kind("invariants-insufficient"),
                ("survivors", survivors.write()),
            ],
            NoAttackWithinDepth { depth } => {
                vec![kind("no-attack-within-depth"), ("depth", depth.write())]
            }
            FuzzExhausted { trials } => vec![kind("fuzz-exhausted"), ("trials", trials.write())],
            AllInconclusive => vec![kind("all-inconclusive")],
            Other(text) => vec![kind("other"), ("text", text.write())],
        })
    }
    fn read(v: &Json) -> Result<InconclusiveReason, ReadError> {
        use InconclusiveReason::*;
        if let Some(text) = v.as_str() {
            return Ok(Other(text.to_string()));
        }
        Ok(match field::<String>(v, "kind")?.as_str() {
            "bounded-clean" => BoundedClean {
                depth: field(v, "depth")?,
            },
            "induction-gap" => InductionGap {
                max_k: field(v, "max_k")?,
            },
            "frame-cap" => FrameCap {
                frames: field(v, "frames")?,
            },
            "replay-failed" => ReplayFailed {
                engine: field(v, "engine")?,
            },
            "no-invariants" => NoInvariants,
            "invariants-insufficient" => InvariantsInsufficient {
                survivors: field(v, "survivors")?,
            },
            "no-attack-within-depth" => NoAttackWithinDepth {
                depth: field(v, "depth")?,
            },
            "fuzz-exhausted" => FuzzExhausted {
                trials: field(v, "trials")?,
            },
            // Written by the retired campaign daemon when a worker process
            // died; read back as free text that displays the same.
            "worker-crashed" => Other(format!(
                "worker crashed ({})",
                field::<String>(v, "detail")?
            )),
            "all-inconclusive" => AllInconclusive,
            "other" => Other(field(v, "text")?),
            other => return unknown("kind", other),
        })
    }
}

impl Persist for Verdict {
    fn write(&self) -> Json {
        let engine = |name: &str| ("engine", Json::Str(name.into()));
        Json::obj(match self {
            Verdict::Attack(trace) => vec![
                kind("attack"),
                ("bad", trace.bad_name.write()),
                ("trace", trace.write()),
            ],
            Verdict::Proof(ProofEngine::Houdini { invariants }) => vec![
                kind("proof"),
                engine("houdini"),
                ("invariants", invariants.write()),
            ],
            Verdict::Proof(ProofEngine::KInduction { k }) => {
                vec![kind("proof"), engine("k-induction"), ("k", k.write())]
            }
            Verdict::Proof(ProofEngine::Pdr {
                frames,
                clauses,
                fixpoint_level,
            }) => vec![
                kind("proof"),
                engine("pdr"),
                ("frames", frames.write()),
                ("clauses", clauses.write()),
                ("fixpoint_level", fixpoint_level.write()),
            ],
            Verdict::Timeout => vec![kind("timeout")],
            Verdict::Unknown { reason } => vec![kind("unknown"), ("reason", reason.write())],
        })
    }
    fn read(v: &Json) -> Result<Verdict, ReadError> {
        Ok(match field::<String>(v, "kind")?.as_str() {
            "attack" => {
                let mut trace: Trace = field(v, "trace")?;
                trace.bad_name = field(v, "bad")?;
                Verdict::Attack(Box::new(trace))
            }
            "proof" => Verdict::Proof(match field::<String>(v, "engine")?.as_str() {
                "houdini" => ProofEngine::Houdini {
                    invariants: field(v, "invariants")?,
                },
                "k-induction" => ProofEngine::KInduction { k: field(v, "k")? },
                "pdr" => {
                    let frames = field(v, "frames")?;
                    ProofEngine::Pdr {
                        frames,
                        clauses: field(v, "clauses")?,
                        // Absent in pre-certificate documents: the
                        // fixpoint is then at most the frame count, the
                        // lenient stand-in closest to the truth.
                        fixpoint_level: opt_field(v, "fixpoint_level")?.unwrap_or(frames),
                    }
                }
                other => return unknown("engine", other),
            }),
            "timeout" => Verdict::Timeout,
            "unknown" => Verdict::Unknown {
                reason: field(v, "reason")?,
            },
            other => return unknown("kind", other),
        })
    }
}

/// The optional blocks are written only when present, so documents
/// without them stay byte-identical to those written before each block
/// existed. Documents from before the exchange bus was removed also carry
/// an `exchange` array of per-lane traffic, and documents from before
/// coverage-guided fuzzing was removed may carry a `coverage` block; the
/// reader ignores both.
impl Persist for Report {
    fn write(&self) -> Json {
        let mut pairs = vec![
            ("schema", Json::Str("csl-report-v1".into())),
            ("scheme", self.scheme.write()),
            ("design", self.design.write()),
            ("contract", self.contract.write()),
            ("verdict", self.verdict.write()),
            ("elapsed", self.elapsed.write()),
            ("notes", self.notes.write()),
            ("prepare", self.prepare.write()),
        ];
        if let Some(fuzz) = &self.fuzz {
            pairs.push(("fuzz", fuzz.write()));
        }
        if !self.solver.is_empty() {
            pairs.push(("solver", self.solver.write()));
        }
        if let Some(cert) = &self.certificate {
            pairs.push(("certificate", cert.write()));
        }
        Json::obj(pairs)
    }
    fn read(v: &Json) -> Result<Report, ReadError> {
        expect_schema(v, "csl-report-v1")?;
        Ok(Report {
            scheme: field(v, "scheme")?,
            design: field(v, "design")?,
            contract: field(v, "contract")?,
            verdict: field(v, "verdict")?,
            elapsed: field(v, "elapsed")?,
            notes: field(v, "notes")?,
            prepare: opt_field(v, "prepare")?.unwrap_or_default(),
            fuzz: opt_field(v, "fuzz")?,
            solver: opt_field(v, "solver")?.unwrap_or_default(),
            certificate: opt_field(v, "certificate")?,
        })
    }
}

impl Persist for CampaignReport {
    fn write(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::Str("csl-campaign-v1".into())),
            ("wall", self.wall.write()),
            ("reports", self.reports.write()),
        ])
    }
    fn read(v: &Json) -> Result<CampaignReport, ReadError> {
        expect_schema(v, "csl-campaign-v1")?;
        Ok(CampaignReport {
            reports: field(v, "reports")?,
            wall: field(v, "wall")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csl_cpu::Defense;

    fn sample_reports() -> Vec<Report> {
        let trace = Trace {
            initial_latches: vec![(3, true), (1, false)],
            inputs: vec![
                [(2u32, true), (0u32, false)].into_iter().collect(),
                [(5u32, true)].into_iter().collect(),
            ],
            bad_name: "no_leakage".into(),
        };
        vec![
            Report {
                scheme: Scheme::Shadow,
                design: DesignKind::SimpleOoo(Defense::None),
                contract: Contract::Sandboxing,
                verdict: Verdict::Attack(Box::new(trace)),
                elapsed: Duration::new(3, 141_592_653),
                notes: vec!["netlist: x".into(), "cex, with \"quotes\"".into()],
                prepare: vec![
                    PassStats {
                        pass: "coi".into(),
                        before: Shape {
                            nodes: 1200,
                            ands: 900,
                            latches: 200,
                            inputs: 40,
                        },
                        after: Shape {
                            nodes: 1000,
                            ands: 800,
                            latches: 150,
                            inputs: 30,
                        },
                    },
                    PassStats {
                        pass: "const-sweep".into(),
                        before: Shape {
                            nodes: 1000,
                            ands: 800,
                            latches: 150,
                            inputs: 30,
                        },
                        after: Shape {
                            nodes: 900,
                            ands: 710,
                            latches: 140,
                            inputs: 30,
                        },
                    },
                ],
                fuzz: Some(FuzzStats {
                    trials: 832,
                    sim_cycles: 19_968,
                    wall: Duration::from_millis(413),
                    leak_cycle: Some(11),
                    seed: 0xF0_55,
                    lanes: 64,
                }),
                solver: Vec::new(),
                certificate: None,
            },
            Report {
                scheme: Scheme::Leave,
                design: DesignKind::SingleCycle,
                contract: Contract::Sandboxing,
                verdict: Verdict::Proof(ProofEngine::Houdini { invariants: 12 }),
                elapsed: Duration::from_millis(250),
                notes: vec![],
                prepare: vec![],
                fuzz: None,
                solver: Vec::new(),
                certificate: Some(Certificate {
                    restored: vec![(7, false), (2, true)],
                    survivors: vec![0, 3, 11],
                    kind: CertKind::Inductive {
                        blocked: vec![vec![(4, true)], vec![(1, false), (9, true)]],
                    },
                }),
            },
            Report {
                scheme: Scheme::Upec,
                design: DesignKind::InOrder,
                contract: Contract::ConstantTime,
                verdict: Verdict::Unknown {
                    reason: InconclusiveReason::InductionGap { max_k: 1 },
                },
                elapsed: Duration::from_secs(60),
                notes: vec!["note".into()],
                prepare: vec![],
                fuzz: None,
                solver: Vec::new(),
                certificate: None,
            },
            Report {
                scheme: Scheme::Baseline,
                design: DesignKind::BigOoo,
                contract: Contract::ConstantTime,
                verdict: Verdict::Timeout,
                elapsed: Duration::from_secs(600),
                notes: vec![],
                prepare: vec![],
                fuzz: None,
                solver: Vec::new(),
                certificate: None,
            },
            Report {
                scheme: Scheme::Shadow,
                design: DesignKind::SuperOoo,
                contract: Contract::Sandboxing,
                verdict: Verdict::Unknown {
                    reason: InconclusiveReason::Other("operator aborted".into()),
                },
                elapsed: Duration::from_secs(1),
                notes: vec![],
                prepare: vec![],
                fuzz: None,
                solver: Vec::new(),
                certificate: None,
            },
        ]
    }

    #[test]
    fn report_json_round_trip_is_lossless_and_byte_stable() {
        for r in sample_reports() {
            let text = r.to_json();
            let parsed = Report::from_json(&text).unwrap();
            assert_eq!(parsed, r);
            assert_eq!(parsed.to_json(), text, "re-serialization must be canonical");
        }
    }

    #[test]
    fn campaign_json_and_csv_round_trip() {
        let campaign = CampaignReport {
            reports: sample_reports(),
            wall: Duration::new(12, 5),
        };
        let text = campaign.to_json();
        let parsed = CampaignReport::from_json(&text).unwrap();
        assert_eq!(parsed, campaign);
        assert_eq!(parsed.to_json(), text);

        let csv = campaign.to_csv();
        assert_eq!(csv.lines().count(), campaign.reports.len() + 1);
        assert!(csv.lines().next().unwrap().starts_with("scheme,design"));
        assert!(csv.contains("CEX"), "{csv}");
    }

    /// The writer's bytes are pinned by their FNV-1a fingerprints. The
    /// round trips above check a writer against the same commit's reader,
    /// so a format change made on both sides would pass them, but not
    /// this.
    #[test]
    fn campaign_json_and_csv_bytes_are_pinned() {
        let campaign = CampaignReport {
            reports: sample_reports(),
            wall: Duration::new(12, 5),
        };
        let fnv = |text: &str| {
            let mut h = crate::api::cache::Fingerprint::new();
            h.write(text.as_bytes());
            h.finish()
        };
        let got = (fnv(&campaign.to_json()), fnv(&campaign.to_csv()));
        assert_eq!(
            got,
            (0xab14_e9db_f6f0_addd, 0x2a8b_6a83_0cb1_c0aa),
            "{got:#018x?}"
        );
    }

    #[test]
    fn legacy_string_reason_and_missing_exchange_still_parse() {
        // Documents written before the typed-reason/exchange fields must
        // keep loading (the CI reportdiff gate reads older artifacts).
        let legacy = "{\"schema\": \"csl-report-v1\", \"scheme\": \"UPEC\", \
                      \"design\": \"InOrder(Sodor)\", \"contract\": \"constant-time\", \
                      \"verdict\": {\"kind\": \"unknown\", \"reason\": \"old text\"}, \
                      \"elapsed\": {\"secs\": 1, \"nanos\": 0}, \"notes\": []}";
        let report = Report::from_json(legacy).unwrap();
        assert_eq!(
            report.verdict,
            Verdict::Unknown {
                reason: InconclusiveReason::Other("old text".into())
            }
        );
        assert!(
            report.prepare.is_empty(),
            "documents without a prepare block must parse leniently"
        );
        assert!(
            report.fuzz.is_none(),
            "documents without a fuzz block must parse leniently"
        );
    }

    #[test]
    fn pre_coverage_artifacts_parse_and_diff_cleanly() {
        // A report archived before the coverage subsystem existed: the
        // fuzz block has no trial-provenance split and the exchange stats
        // carry no obligation/policy keys. It must load leniently
        // (exchange ignored) and diff cleanly against a re-serialization
        // of itself — the CI reportdiff gate reads exactly such
        // artifacts.
        let legacy = "{\"schema\": \"csl-report-v1\", \"scheme\": \"UPEC\", \
                      \"design\": \"InOrder(Sodor)\", \"contract\": \"constant-time\", \
                      \"verdict\": {\"kind\": \"timeout\"}, \
                      \"elapsed\": {\"secs\": 2, \"nanos\": 0}, \"notes\": [], \
                      \"exchange\": [{\"lane\": \"bmc\", \"imports\": 4, \"exports\": 9}], \
                      \"fuzz\": {\"trials\": 640, \"sim_cycles\": 12800, \
                       \"wall\": {\"secs\": 1, \"nanos\": 0}, \"seed\": 7, \"lanes\": 64}}";
        let report = Report::from_json(legacy).unwrap();
        assert_eq!(report.fuzz.as_ref().unwrap().trials, 640);
        // The round trip is stable from the new serialization onwards,
        // and a campaign diff against the reparsed report is clean.
        let reserialized = report.to_json();
        let reparsed = Report::from_json(&reserialized).unwrap();
        assert_eq!(reparsed, report);
        assert_eq!(reparsed.to_json(), reserialized);
        let before = CampaignReport {
            reports: vec![report],
            wall: Duration::from_secs(2),
        };
        let after = CampaignReport {
            reports: vec![reparsed],
            wall: Duration::from_secs(3),
        };
        assert!(before.diff(&after).is_clean());
    }

    /// Documents written while the exchange bus, coverage-guided fuzzing
    /// and the campaign daemon existed: an `exchange` array with the
    /// full per-lane counter set, a `coverage` block (once with the
    /// bus-fed counters, once with counters a hand edit turned into
    /// strings), a fuzz block that splits its trials into corpus mutants
    /// and random draws, and a `worker-crashed` reason the daemon gave a
    /// cell whose worker process died. They parse, and re-serialise
    /// without any of them; the fuzz block keeps its remaining counters,
    /// and the crash reads back as free text that displays the same.
    #[test]
    fn retired_exchange_and_coverage_counters_parse_and_are_dropped() {
        let fuzz = "\"fuzz\": {\"trials\": 832, \"corpus_trials\": 512, \"random_trials\": 320, \
                    \"sim_cycles\": 19968, \"wall\": {\"secs\": 0, \"nanos\": 413000000}, \
                    \"leak_cycle\": 11, \"seed\": 61525, \"lanes\": 64}";
        let coverage_blocks = [
            "\"coverage\": {\"latches_toggled\": 141, \"latches_total\": 200, \
             \"signatures\": 57, \"new_coverage_trials\": 61, \"corpus_size\": 48, \
             \"obligations_exported\": 9, \"stimuli_rejected\": 17}",
            "\"coverage\": {\"latches_toggled\": \"141\", \"latches_total\": \"200\", \
             \"signatures\": \"57\", \"new_coverage_trials\": \"61\", \"corpus_size\": \"48\"}",
        ];
        let timeout = "{\"kind\": \"timeout\"}";
        let crashed = "{\"kind\": \"unknown\", \"reason\": {\"kind\": \"worker-crashed\", \
                       \"detail\": \"signal 9\"}}";
        let crash = InconclusiveReason::Other("worker crashed (signal 9)".into());
        let inputs = [
            (timeout, Verdict::Timeout, coverage_blocks[0]),
            (timeout, Verdict::Timeout, coverage_blocks[1]),
            (
                crashed,
                Verdict::Unknown { reason: crash },
                coverage_blocks[0],
            ),
        ];
        for (verdict, expected, coverage) in inputs {
            let old = format!(
                "{{\"schema\": \"csl-report-v1\", \"scheme\": \"ContractShadowLogic\", \
                 \"design\": \"SimpleOoO\", \"contract\": \"sandboxing\", \
                 \"verdict\": {verdict}, \
                 \"elapsed\": {{\"secs\": 5, \"nanos\": 0}}, \
                 \"exchange\": [{{\"lane\": \"bmc\", \"imports\": 2, \"exports\": 17, \
                 \"obligations\": 0, \"policy_len\": 8, \"policy_lbd\": 4, \"adaptive\": false}}, \
                 {{\"lane\": \"pdr\", \"imports\": 9, \"exports\": 1, \"obligations\": 3, \
                 \"policy_len\": 8, \"policy_lbd\": 4, \"adaptive\": false}}], \
                 \"notes\": [\"pdr [5.00s]: timeout/canceled (imports 9, exports 1)\"], \
                 \"prepare\": [], {fuzz}, {coverage}}}"
            );
            let report = Report::from_json(&old).unwrap();
            assert_eq!(report.verdict, expected);
            assert_eq!(report.fuzz, sample_reports()[0].fuzz);
            let text = report.to_json();
            for retired in [
                "exchange",
                "obligations",
                "stimuli_rejected",
                "policy_len",
                "coverage",
                "corpus",
                "random_trials",
                "worker-crashed",
            ] {
                assert!(!text.contains(retired), "{retired} in {text}");
            }
            assert_eq!(Report::from_json(&text).unwrap(), report);
            let campaign = format!(
                "{{\"schema\": \"csl-campaign-v1\", \"wall\": {{\"secs\": 5, \"nanos\": 0}}, \
                 \"reports\": [{old}]}}"
            );
            let parsed = CampaignReport::from_json(&campaign).unwrap();
            assert_eq!(parsed.reports, vec![report]);
        }
    }

    #[test]
    fn fuzz_block_round_trips_with_and_without_leak() {
        // With a leak cycle (sample 0) the block is exercised by the
        // canonical round-trip test above; here the exhausted shape.
        // Counters above `i64::MAX` round-trip too.
        for sim_cycles in [48_000, 1 << 63, u64::MAX] {
            let mut r = sample_reports()[1].clone();
            r.fuzz = Some(FuzzStats {
                trials: 2000,
                sim_cycles,
                wall: Duration::from_secs(2),
                leak_cycle: None,
                seed: u64::MAX - 3, // exercises the signed-integer cast
                lanes: 1,
            });
            let text = r.to_json();
            let parsed = Report::from_json(&text).unwrap();
            assert_eq!(parsed, r);
            assert_eq!(parsed.to_json(), text);
        }
    }

    #[test]
    fn solver_block_round_trips_and_stays_absent_when_empty() {
        let base = sample_reports()[1].clone();
        let without = base.to_json();
        assert!(
            !without.contains("solver"),
            "reports with no solver stats must not write the block"
        );

        let mut r = base;
        r.solver = vec![
            LaneSolverStats {
                lane: Lane::Bmc,
                propagations: 123_456,
                conflicts: 789,
                decisions: 4321,
                restarts: 7,
                reduced_clauses: 2,
            },
            LaneSolverStats {
                lane: Lane::KInduction,
                propagations: 9,
                conflicts: 0,
                decisions: 3,
                restarts: 0,
                reduced_clauses: 0,
            },
        ];
        let text = r.to_json();
        let parsed = Report::from_json(&text).unwrap();
        assert_eq!(parsed, r);
        assert_eq!(parsed.to_json(), text);

        // Documents that predate the block (no solver key) parse leniently.
        assert!(Report::from_json(&without).unwrap().solver.is_empty());

        // Older documents carry warm-start counters at the end of every
        // entry: they parse, and re-serialise without them.
        let old = text
            .replace(
                "\"reduced_clauses\": 2\n",
                "\"reduced_clauses\": 2,\n      \"warm_hits\": 1,\n      \"warm_misses\": 0\n",
            )
            .replace(
                "\"reduced_clauses\": 0\n",
                "\"reduced_clauses\": 0,\n      \"warm_hits\": 0,\n      \"warm_misses\": 1\n",
            );
        assert_eq!(old.matches("warm_misses").count(), 2, "{old}");
        let parsed = Report::from_json(&old).unwrap();
        assert_eq!(parsed, r);
        assert_eq!(parsed.to_json(), text);
    }

    #[test]
    fn certificate_block_round_trips_and_stays_absent_when_none() {
        // The proof sample carries an inductive certificate; exercised by
        // the canonical round-trip test above. Here: the k-induction kind,
        // plus the absence convention and lenient parsing.
        let mut r = sample_reports()[1].clone();
        r.verdict = Verdict::Proof(ProofEngine::KInduction { k: 5 });
        r.certificate = Some(Certificate {
            restored: vec![],
            survivors: vec![],
            kind: CertKind::KInduction { k: 5 },
        });
        let text = r.to_json();
        assert!(text.contains("k-induction"));
        let parsed = Report::from_json(&text).unwrap();
        assert_eq!(parsed, r);
        assert_eq!(parsed.to_json(), text);

        r.certificate = None;
        let without = r.to_json();
        assert!(
            !without.contains("certificate"),
            "certificate-free reports must not write the block"
        );
        // Pre-certificate documents (no certificate key) parse leniently.
        assert!(Report::from_json(&without).unwrap().certificate.is_none());
    }

    #[test]
    fn pdr_fixpoint_level_round_trips_and_defaults_to_frames() {
        let mut r = sample_reports()[1].clone();
        r.certificate = None;
        r.verdict = Verdict::Proof(ProofEngine::Pdr {
            frames: 9,
            clauses: 31,
            fixpoint_level: 7,
        });
        let text = r.to_json();
        let parsed = Report::from_json(&text).unwrap();
        assert_eq!(parsed, r);
        assert_eq!(parsed.to_json(), text);

        // Documents written before the field default it to the frame
        // count (the CI reportdiff gate reads older artifacts).
        let legacy = "{\"schema\": \"csl-report-v1\", \"scheme\": \"LEAVE\", \
                      \"design\": \"SingleCycle(ISA)\", \"contract\": \"sandboxing\", \
                      \"verdict\": {\"kind\": \"proof\", \"engine\": \"pdr\", \
                       \"frames\": 9, \"clauses\": 31}, \
                      \"elapsed\": {\"secs\": 1, \"nanos\": 0}, \"notes\": []}";
        let report = Report::from_json(legacy).unwrap();
        assert_eq!(
            report.verdict,
            Verdict::Proof(ProofEngine::Pdr {
                frames: 9,
                clauses: 31,
                fixpoint_level: 9,
            })
        );
    }

    #[test]
    fn typed_reasons_round_trip_through_json() {
        let reasons = vec![
            InconclusiveReason::BoundedClean { depth: 12 },
            InconclusiveReason::InductionGap { max_k: 6 },
            InconclusiveReason::FrameCap { frames: 40 },
            InconclusiveReason::ReplayFailed {
                engine: "pdr".into(),
            },
            InconclusiveReason::NoInvariants,
            InconclusiveReason::InvariantsInsufficient { survivors: 3 },
            InconclusiveReason::NoAttackWithinDepth { depth: 20 },
            InconclusiveReason::FuzzExhausted { trials: 2000 },
            InconclusiveReason::AllInconclusive,
            InconclusiveReason::Other("free text".into()),
        ];
        for reason in reasons {
            let mut r = sample_reports()[2].clone();
            r.verdict = Verdict::Unknown {
                reason: reason.clone(),
            };
            let parsed = Report::from_json(&r.to_json()).unwrap();
            assert_eq!(parsed.verdict, Verdict::Unknown { reason });
        }
    }

    #[test]
    fn from_json_rejects_malformed_documents() {
        assert!(matches!(
            Report::from_json("{\"schema\": \"bogus\"}"),
            Err(ReadError::Schema(_))
        ));
        assert!(matches!(
            Report::from_json("not json"),
            Err(ReadError::Json(_))
        ));
        let r = &sample_reports()[0];
        let text = r.to_json();
        let cycles = "\"sim_cycles\": 19968";
        assert!(text.contains(cycles));
        // Only an absent optional block may default: one that is present
        // with the wrong type is an error, not an empty block, and so is
        // a PDR proof's `fixpoint_level` that is not an unsigned integer.
        let proof = sample_reports()[1].to_json();
        let prepare = "\"prepare\": []";
        assert!(proof.contains(prepare));
        let pdr = |level: &str| {
            format!(
                "{{\"schema\": \"csl-report-v1\", \"scheme\": \"LEAVE\", \
                 \"design\": \"SingleCycle(ISA)\", \"contract\": \"sandboxing\", \
                 \"verdict\": {{\"kind\": \"proof\", \"engine\": \"pdr\", \
                  \"frames\": 9, \"clauses\": 31, \"fixpoint_level\": {level}}}, \
                 \"elapsed\": {{\"secs\": 1, \"nanos\": 0}}, \"notes\": []}}"
            )
        };
        assert!(Report::from_json(&pdr("7")).is_ok());
        let err = Report::from_json(&pdr("-1")).unwrap_err().to_string();
        assert!(
            err.ends_with("verdict: fixpoint_level: not an unsigned integer"),
            "{err}"
        );
        for tampered in [
            text.replace("SimpleOoO", "NoSuchDesign"),
            text.replace(cycles, "\"sim_cycles\": -5"),
            text.replace(cycles, "\"sim_cycles\": 18446744073709551616"),
            proof.replace(prepare, "\"prepare\": 5"),
            proof.replace(prepare, "\"prepare\": [], \"solver\": {}"),
            pdr("-1"),
            pdr("\"x\""),
        ] {
            assert!(
                matches!(Report::from_json(&tampered), Err(ReadError::Schema(_))),
                "{tampered}"
            );
        }
    }

    #[test]
    fn diff_flags_lost_decisive_verdicts_as_regressions() {
        let before = CampaignReport {
            reports: sample_reports(),
            wall: Duration::from_secs(12),
        };
        let mut after = before.clone();
        // PROOF -> T/O: regression. UNK -> PROOF: change, not regression.
        after.reports[1].verdict = Verdict::Timeout;
        after.reports[2].verdict = Verdict::Proof(ProofEngine::KInduction { k: 2 });
        let diff = before.diff(&after);
        assert!(!diff.is_clean());
        assert!(diff.has_regressions());
        assert_eq!(diff.changes.len(), 2);
        let proof_loss = diff.changes.iter().find(|c| c.before == "PROOF").unwrap();
        assert!(proof_loss.regression);
        let improvement = diff.changes.iter().find(|c| c.after == "PROOF").unwrap();
        assert!(!improvement.regression);
        assert!(diff.render().contains("REGRESSION"));

        // Identical runs diff clean even when timings differ.
        let mut same = before.clone();
        same.reports[0].elapsed = Duration::from_secs(999);
        assert!(before.diff(&same).is_clean());
    }

    #[test]
    fn table_columns_pad_to_widest_label() {
        let campaign = CampaignReport {
            reports: sample_reports(),
            wall: Duration::from_secs(12),
        };
        let table = campaign.render_table();
        // Every row of a contract block must be equally wide: the longest
        // scheme name (ContractShadowLogic) sets the first column.
        let lines: Vec<&str> = table.lines().collect();
        let header = lines[1];
        assert!(header.starts_with("scheme"));
        let first_cell_col = header.find("SimpleOoO").unwrap();
        assert!(first_cell_col >= "ContractShadowLogic".len());
        assert!(table.contains("wall 12.0s"));
    }
}
