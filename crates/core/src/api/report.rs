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
//! [`CampaignReport::diff`] is the regression gate: it pairs cells across
//! two runs and flags every verdict change, marking as regressions the
//! changes that lose a decisive verdict (a proof or attack that became a
//! timeout/unknown) or flip one decisive kind into the other.

use std::collections::HashMap;
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

fn schema_err<T>(msg: impl Into<String>) -> Result<T, ReadError> {
    Err(ReadError::Schema(msg.into()))
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
        self.to_value().render()
    }

    /// Parses a document written by [`Report::to_json`].
    pub fn from_json(text: &str) -> Result<Report, ReadError> {
        Report::from_value(&Json::parse(text)?)
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

    /// The report as a [`Json`] value, as nested in a campaign document.
    fn to_value(&self) -> Json {
        let mut pairs = vec![
            ("schema", Json::Str("csl-report-v1".into())),
            ("scheme", Json::Str(self.scheme.name().into())),
            ("design", Json::Str(self.design.name())),
            ("contract", Json::Str(self.contract.name())),
            ("verdict", verdict_to_value(&self.verdict)),
            ("elapsed", duration_to_value(self.elapsed)),
            (
                "notes",
                Json::Arr(self.notes.iter().map(|n| Json::Str(n.clone())).collect()),
            ),
            (
                "prepare",
                Json::Arr(self.prepare.iter().map(pass_stats_to_value).collect()),
            ),
        ];
        // Written only when a fuzzing lane ran, so fuzz-free documents
        // stay byte-identical to pre-fuzz ones.
        if let Some(fuzz) = &self.fuzz {
            pairs.push(("fuzz", fuzz_to_value(fuzz)));
        }
        // Same convention for solver stats: written only when a SAT lane
        // reported, so documents without one stay byte-identical.
        if !self.solver.is_empty() {
            pairs.push((
                "solver",
                Json::Arr(self.solver.iter().map(solver_to_value).collect()),
            ));
        }
        // And for the certificate: written only alongside a proof that
        // carries one, so certificate-free documents stay byte-identical.
        if let Some(cert) = &self.certificate {
            pairs.push(("certificate", cert_to_value(cert)));
        }
        Json::obj(pairs)
    }

    /// Parses a report value (inverse of [`Report::to_value`]).
    fn from_value(v: &Json) -> Result<Report, ReadError> {
        match v.get("schema").and_then(Json::as_str) {
            Some("csl-report-v1") => {}
            other => return schema_err(format!("unsupported report schema {other:?}")),
        }
        let scheme = parse_with("scheme", v, Scheme::from_name)?;
        let design = parse_with("design", v, DesignKind::from_name)?;
        let contract = parse_with("contract", v, Contract::from_name)?;
        let verdict = verdict_from_value(
            v.get("verdict")
                .ok_or_else(|| ReadError::Schema("missing verdict".into()))?,
        )?;
        let elapsed = duration_from_value(
            v.get("elapsed")
                .ok_or_else(|| ReadError::Schema("missing elapsed".into()))?,
        )?;
        let notes = v
            .get("notes")
            .and_then(Json::as_arr)
            .ok_or_else(|| ReadError::Schema("missing notes".into()))?
            .iter()
            .map(|n| {
                n.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| ReadError::Schema("non-string note".into()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        // Documents from before the exchange bus was removed also carry
        // an `exchange` array of per-lane traffic, and documents from
        // before coverage-guided fuzzing was removed may carry a
        // `coverage` block; both are ignored.
        //
        // Absent in pre-preparation documents: default to no stats.
        let prepare = match v.get("prepare").and_then(Json::as_arr) {
            Some(items) => items
                .iter()
                .map(pass_stats_from_value)
                .collect::<Result<Vec<_>, _>>()?,
            None => Vec::new(),
        };
        // Absent in pre-fuzzing documents (and in every fuzz-free run):
        // lenient, like the prepare field.
        let fuzz = v.get("fuzz").map(fuzz_from_value).transpose()?;
        // Absent in documents that predate the block: lenient, like fuzz.
        let solver = match v.get("solver").and_then(Json::as_arr) {
            Some(items) => items
                .iter()
                .map(solver_from_value)
                .collect::<Result<Vec<_>, _>>()?,
            None => Vec::new(),
        };
        // Absent in pre-certificate documents and every non-proof cell:
        // lenient, like fuzz and solver.
        let certificate = v.get("certificate").map(cert_from_value).transpose()?;
        Ok(Report {
            scheme,
            design,
            contract,
            verdict,
            elapsed,
            notes,
            prepare,
            fuzz,
            solver,
            certificate,
        })
    }
}

/// Canonical certificate encoding: restored constants and blocked-cube
/// literals as `[index, bool]` pairs (matching the trace encoding),
/// survivors as plain indices, the kind tagged like verdicts.
fn cert_to_value(c: &Certificate) -> Json {
    let pair = |&(i, v): &(u32, bool)| Json::Arr(vec![Json::Int(i as i64), Json::Bool(v)]);
    let kind = match &c.kind {
        CertKind::Inductive { blocked } => Json::obj(vec![
            ("kind", Json::Str("inductive".into())),
            (
                "blocked",
                Json::Arr(
                    blocked
                        .iter()
                        .map(|cube| Json::Arr(cube.iter().map(pair).collect()))
                        .collect(),
                ),
            ),
        ]),
        CertKind::KInduction { k } => Json::obj(vec![
            ("kind", Json::Str("k-induction".into())),
            ("k", Json::Int(*k as i64)),
        ]),
    };
    Json::obj(vec![
        ("restored", Json::Arr(c.restored.iter().map(pair).collect())),
        (
            "survivors",
            Json::Arr(c.survivors.iter().map(|&s| Json::Int(s as i64)).collect()),
        ),
        ("kind", kind),
    ])
}

fn cert_from_value(v: &Json) -> Result<Certificate, ReadError> {
    let restored = v
        .get("restored")
        .and_then(Json::as_arr)
        .ok_or_else(|| ReadError::Schema("missing certificate restored".into()))?
        .iter()
        .map(index_bool_pair)
        .collect::<Result<Vec<_>, _>>()?;
    let survivors = v
        .get("survivors")
        .and_then(Json::as_arr)
        .ok_or_else(|| ReadError::Schema("missing certificate survivors".into()))?
        .iter()
        .map(|s| {
            s.as_int()
                .and_then(|n| usize::try_from(n).ok())
                .ok_or_else(|| ReadError::Schema("bad certificate survivor".into()))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let kind = v
        .get("kind")
        .ok_or_else(|| ReadError::Schema("missing certificate kind".into()))?;
    let kind = match kind.get("kind").and_then(Json::as_str) {
        Some("inductive") => CertKind::Inductive {
            blocked: kind
                .get("blocked")
                .and_then(Json::as_arr)
                .ok_or_else(|| ReadError::Schema("missing certificate blocked".into()))?
                .iter()
                .map(|cube| {
                    cube.as_arr()
                        .ok_or_else(|| ReadError::Schema("cube is not an array".into()))?
                        .iter()
                        .map(index_bool_pair)
                        .collect::<Result<Vec<_>, _>>()
                })
                .collect::<Result<Vec<_>, _>>()?,
        },
        Some("k-induction") => CertKind::KInduction {
            k: kind
                .get("k")
                .and_then(Json::as_int)
                .and_then(|n| usize::try_from(n).ok())
                .ok_or_else(|| ReadError::Schema("bad certificate k".into()))?,
        },
        other => return schema_err(format!("unknown certificate kind {other:?}")),
    };
    Ok(Certificate {
        restored,
        survivors,
        kind,
    })
}

fn fuzz_to_value(s: &FuzzStats) -> Json {
    let mut pairs = vec![
        ("trials", Json::Int(s.trials as i64)),
        ("sim_cycles", Json::Int(s.sim_cycles as i64)),
        ("wall", duration_to_value(s.wall)),
    ];
    if let Some(cycle) = s.leak_cycle {
        pairs.push(("leak_cycle", Json::Int(cycle as i64)));
    }
    pairs.push(("seed", Json::Int(s.seed as i64)));
    pairs.push(("lanes", Json::Int(s.lanes as i64)));
    Json::obj(pairs)
}

/// Documents from before coverage-guided fuzzing was removed also split
/// `trials` into corpus mutants and fresh random draws; the split is
/// ignored.
fn fuzz_from_value(v: &Json) -> Result<FuzzStats, ReadError> {
    let count = |key: &str| -> Result<i64, ReadError> {
        v.get(key)
            .and_then(Json::as_int)
            .ok_or_else(|| ReadError::Schema(format!("bad fuzz {key}")))
    };
    let usize_of = |key: &str| -> Result<usize, ReadError> {
        usize::try_from(count(key)?).map_err(|_| ReadError::Schema(format!("bad fuzz {key}")))
    };
    let leak_cycle = match v.get("leak_cycle") {
        None => None,
        Some(c) => Some(
            c.as_int()
                .and_then(|n| usize::try_from(n).ok())
                .ok_or_else(|| ReadError::Schema("bad fuzz leak_cycle".into()))?,
        ),
    };
    Ok(FuzzStats {
        trials: usize_of("trials")?,
        sim_cycles: u64::try_from(count("sim_cycles")?)
            .map_err(|_| ReadError::Schema("bad fuzz sim_cycles".into()))?,
        wall: duration_from_value(
            v.get("wall")
                .ok_or_else(|| ReadError::Schema("missing fuzz wall".into()))?,
        )?,
        leak_cycle,
        // Seeds round-trip through the signed JSON integer by casting.
        seed: count("seed")? as u64,
        lanes: usize_of("lanes")?,
    })
}

fn solver_to_value(s: &LaneSolverStats) -> Json {
    Json::obj(vec![
        ("lane", Json::Str(s.lane.name().into())),
        ("propagations", Json::Int(s.propagations as i64)),
        ("conflicts", Json::Int(s.conflicts as i64)),
        ("decisions", Json::Int(s.decisions as i64)),
        ("restarts", Json::Int(s.restarts as i64)),
        ("reduced_clauses", Json::Int(s.reduced_clauses as i64)),
    ])
}

/// Reads one `solver` entry. Keys it does not know are ignored: older
/// documents carry two warm-start counters in every entry.
fn solver_from_value(v: &Json) -> Result<LaneSolverStats, ReadError> {
    let lane = v
        .get("lane")
        .and_then(Json::as_str)
        .and_then(Lane::from_name)
        .ok_or_else(|| ReadError::Schema("bad solver lane".into()))?;
    let count = |key: &str| -> Result<u64, ReadError> {
        v.get(key)
            .and_then(Json::as_int)
            .and_then(|n| u64::try_from(n).ok())
            .ok_or_else(|| ReadError::Schema(format!("bad solver {key}")))
    };
    Ok(LaneSolverStats {
        lane,
        propagations: count("propagations")?,
        conflicts: count("conflicts")?,
        decisions: count("decisions")?,
        restarts: count("restarts")?,
        reduced_clauses: count("reduced_clauses")?,
    })
}

fn shape_to_value(s: &Shape) -> Json {
    Json::obj(vec![
        ("nodes", Json::Int(s.nodes as i64)),
        ("ands", Json::Int(s.ands as i64)),
        ("latches", Json::Int(s.latches as i64)),
        ("inputs", Json::Int(s.inputs as i64)),
    ])
}

fn shape_from_value(v: &Json) -> Result<Shape, ReadError> {
    let count = |key: &str| -> Result<usize, ReadError> {
        v.get(key)
            .and_then(Json::as_int)
            .and_then(|n| usize::try_from(n).ok())
            .ok_or_else(|| ReadError::Schema(format!("bad shape {key}")))
    };
    Ok(Shape {
        nodes: count("nodes")?,
        ands: count("ands")?,
        latches: count("latches")?,
        inputs: count("inputs")?,
    })
}

fn pass_stats_to_value(p: &PassStats) -> Json {
    Json::obj(vec![
        ("pass", Json::Str(p.pass.clone())),
        ("before", shape_to_value(&p.before)),
        ("after", shape_to_value(&p.after)),
    ])
}

fn pass_stats_from_value(v: &Json) -> Result<PassStats, ReadError> {
    let pass = v
        .get("pass")
        .and_then(Json::as_str)
        .ok_or_else(|| ReadError::Schema("missing pass name".into()))?
        .to_string();
    let before = shape_from_value(
        v.get("before")
            .ok_or_else(|| ReadError::Schema("missing pass before".into()))?,
    )?;
    let after = shape_from_value(
        v.get("after")
            .ok_or_else(|| ReadError::Schema("missing pass after".into()))?,
    )?;
    Ok(PassStats {
        pass,
        before,
        after,
    })
}

fn parse_with<T>(key: &str, v: &Json, parse: impl Fn(&str) -> Option<T>) -> Result<T, ReadError> {
    let name = v
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| ReadError::Schema(format!("missing {key}")))?;
    parse(name).ok_or_else(|| ReadError::Schema(format!("unknown {key} `{name}`")))
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

fn duration_to_value(d: Duration) -> Json {
    Json::obj(vec![
        ("secs", Json::Int(d.as_secs() as i64)),
        ("nanos", Json::Int(d.subsec_nanos() as i64)),
    ])
}

fn duration_from_value(v: &Json) -> Result<Duration, ReadError> {
    let secs = v.get("secs").and_then(Json::as_int);
    let nanos = v.get("nanos").and_then(Json::as_int);
    match (secs, nanos) {
        (Some(s), Some(n)) if s >= 0 && (0..1_000_000_000).contains(&n) => {
            Ok(Duration::new(s as u64, n as u32))
        }
        _ => schema_err("malformed duration"),
    }
}

fn verdict_to_value(v: &Verdict) -> Json {
    match v {
        Verdict::Attack(trace) => Json::obj(vec![
            ("kind", Json::Str("attack".into())),
            ("bad", Json::Str(trace.bad_name.clone())),
            ("trace", trace_to_value(trace)),
        ]),
        Verdict::Proof(ProofEngine::Houdini { invariants }) => Json::obj(vec![
            ("kind", Json::Str("proof".into())),
            ("engine", Json::Str("houdini".into())),
            ("invariants", Json::Int(*invariants as i64)),
        ]),
        Verdict::Proof(ProofEngine::KInduction { k }) => Json::obj(vec![
            ("kind", Json::Str("proof".into())),
            ("engine", Json::Str("k-induction".into())),
            ("k", Json::Int(*k as i64)),
        ]),
        Verdict::Proof(ProofEngine::Pdr {
            frames,
            clauses,
            fixpoint_level,
        }) => Json::obj(vec![
            ("kind", Json::Str("proof".into())),
            ("engine", Json::Str("pdr".into())),
            ("frames", Json::Int(*frames as i64)),
            ("clauses", Json::Int(*clauses as i64)),
            ("fixpoint_level", Json::Int(*fixpoint_level as i64)),
        ]),
        Verdict::Timeout => Json::obj(vec![("kind", Json::Str("timeout".into()))]),
        Verdict::Unknown { reason } => Json::obj(vec![
            ("kind", Json::Str("unknown".into())),
            ("reason", reason_to_value(reason)),
        ]),
    }
}

fn reason_to_value(r: &InconclusiveReason) -> Json {
    let usize_obj = |kind: &str, key: &'static str, n: usize| {
        Json::obj(vec![
            ("kind", Json::Str(kind.into())),
            (key, Json::Int(n as i64)),
        ])
    };
    match r {
        InconclusiveReason::BoundedClean { depth } => usize_obj("bounded-clean", "depth", *depth),
        InconclusiveReason::InductionGap { max_k } => usize_obj("induction-gap", "max_k", *max_k),
        InconclusiveReason::FrameCap { frames } => usize_obj("frame-cap", "frames", *frames),
        InconclusiveReason::ReplayFailed { engine } => Json::obj(vec![
            ("kind", Json::Str("replay-failed".into())),
            ("engine", Json::Str(engine.clone())),
        ]),
        InconclusiveReason::NoInvariants => {
            Json::obj(vec![("kind", Json::Str("no-invariants".into()))])
        }
        InconclusiveReason::InvariantsInsufficient { survivors } => {
            usize_obj("invariants-insufficient", "survivors", *survivors)
        }
        InconclusiveReason::NoAttackWithinDepth { depth } => {
            usize_obj("no-attack-within-depth", "depth", *depth)
        }
        InconclusiveReason::FuzzExhausted { trials } => {
            usize_obj("fuzz-exhausted", "trials", *trials)
        }
        InconclusiveReason::AllInconclusive => {
            Json::obj(vec![("kind", Json::Str("all-inconclusive".into()))])
        }
        InconclusiveReason::Other(text) => Json::obj(vec![
            ("kind", Json::Str("other".into())),
            ("text", Json::Str(text.clone())),
        ]),
    }
}

fn reason_from_value(v: &Json) -> Result<InconclusiveReason, ReadError> {
    // Pre-typed documents stored the reason as a plain string.
    if let Some(text) = v.as_str() {
        return Ok(InconclusiveReason::Other(text.to_string()));
    }
    let usize_field = |key: &str| -> Result<usize, ReadError> {
        v.get(key)
            .and_then(Json::as_int)
            .and_then(|n| usize::try_from(n).ok())
            .ok_or_else(|| ReadError::Schema(format!("missing reason {key}")))
    };
    match v.get("kind").and_then(Json::as_str) {
        Some("bounded-clean") => Ok(InconclusiveReason::BoundedClean {
            depth: usize_field("depth")?,
        }),
        Some("induction-gap") => Ok(InconclusiveReason::InductionGap {
            max_k: usize_field("max_k")?,
        }),
        Some("frame-cap") => Ok(InconclusiveReason::FrameCap {
            frames: usize_field("frames")?,
        }),
        Some("replay-failed") => Ok(InconclusiveReason::ReplayFailed {
            engine: v
                .get("engine")
                .and_then(Json::as_str)
                .ok_or_else(|| ReadError::Schema("missing reason engine".into()))?
                .to_string(),
        }),
        Some("no-invariants") => Ok(InconclusiveReason::NoInvariants),
        Some("invariants-insufficient") => Ok(InconclusiveReason::InvariantsInsufficient {
            survivors: usize_field("survivors")?,
        }),
        Some("no-attack-within-depth") => Ok(InconclusiveReason::NoAttackWithinDepth {
            depth: usize_field("depth")?,
        }),
        Some("fuzz-exhausted") => Ok(InconclusiveReason::FuzzExhausted {
            trials: usize_field("trials")?,
        }),
        // Written by the retired campaign daemon when a worker process
        // died; read back as free text that displays the same.
        Some("worker-crashed") => Ok(InconclusiveReason::Other(format!(
            "worker crashed ({})",
            v.get("detail")
                .and_then(Json::as_str)
                .ok_or_else(|| ReadError::Schema("missing reason detail".into()))?
        ))),
        Some("all-inconclusive") => Ok(InconclusiveReason::AllInconclusive),
        Some("other") => Ok(InconclusiveReason::Other(
            v.get("text")
                .and_then(Json::as_str)
                .ok_or_else(|| ReadError::Schema("missing reason text".into()))?
                .to_string(),
        )),
        other => schema_err(format!("unknown reason kind {other:?}")),
    }
}

fn verdict_from_value(v: &Json) -> Result<Verdict, ReadError> {
    let int_field = |key: &str| -> Result<usize, ReadError> {
        v.get(key)
            .and_then(Json::as_int)
            .and_then(|n| usize::try_from(n).ok())
            .ok_or_else(|| ReadError::Schema(format!("missing {key}")))
    };
    match v.get("kind").and_then(Json::as_str) {
        Some("attack") => {
            let bad = v
                .get("bad")
                .and_then(Json::as_str)
                .ok_or_else(|| ReadError::Schema("missing bad".into()))?;
            let mut trace = trace_from_value(
                v.get("trace")
                    .ok_or_else(|| ReadError::Schema("missing trace".into()))?,
            )?;
            trace.bad_name = bad.to_string();
            Ok(Verdict::Attack(Box::new(trace)))
        }
        Some("proof") => match v.get("engine").and_then(Json::as_str) {
            Some("houdini") => Ok(Verdict::Proof(ProofEngine::Houdini {
                invariants: int_field("invariants")?,
            })),
            Some("k-induction") => Ok(Verdict::Proof(ProofEngine::KInduction {
                k: int_field("k")?,
            })),
            Some("pdr") => {
                let frames = int_field("frames")?;
                Ok(Verdict::Proof(ProofEngine::Pdr {
                    frames,
                    clauses: int_field("clauses")?,
                    // Absent in pre-certificate documents: the fixpoint is
                    // then at most the frame count, which is the lenient
                    // stand-in closest to the truth.
                    fixpoint_level: int_field("fixpoint_level").unwrap_or(frames),
                }))
            }
            other => schema_err(format!("unknown proof engine {other:?}")),
        },
        Some("timeout") => Ok(Verdict::Timeout),
        Some("unknown") => Ok(Verdict::Unknown {
            reason: reason_from_value(
                v.get("reason")
                    .ok_or_else(|| ReadError::Schema("missing reason".into()))?,
            )?,
        }),
        other => schema_err(format!("unknown verdict kind {other:?}")),
    }
}

/// Canonical trace encoding: latch pairs in solver order, inputs per
/// cycle sorted by index (HashMap iteration order must not leak into the
/// byte stream).
fn trace_to_value(t: &Trace) -> Json {
    let latches = t
        .initial_latches
        .iter()
        .map(|&(i, v)| Json::Arr(vec![Json::Int(i as i64), Json::Bool(v)]))
        .collect();
    let inputs = t
        .inputs
        .iter()
        .map(|cycle| {
            let mut pairs: Vec<(&u32, &bool)> = cycle.iter().collect();
            pairs.sort_by_key(|(i, _)| **i);
            Json::Arr(
                pairs
                    .into_iter()
                    .map(|(&i, &v)| Json::Arr(vec![Json::Int(i as i64), Json::Bool(v)]))
                    .collect(),
            )
        })
        .collect();
    Json::obj(vec![
        ("initial_latches", Json::Arr(latches)),
        ("inputs", Json::Arr(inputs)),
    ])
}

fn index_bool_pair(v: &Json) -> Result<(u32, bool), ReadError> {
    match v.as_arr() {
        Some([i, b]) => {
            let i = i
                .as_int()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| ReadError::Schema("bad index in trace pair".into()))?;
            let b = b
                .as_bool()
                .ok_or_else(|| ReadError::Schema("bad value in trace pair".into()))?;
            Ok((i, b))
        }
        _ => schema_err("trace pair is not [index, bool]"),
    }
}

fn trace_from_value(v: &Json) -> Result<Trace, ReadError> {
    let initial_latches = v
        .get("initial_latches")
        .and_then(Json::as_arr)
        .ok_or_else(|| ReadError::Schema("missing initial_latches".into()))?
        .iter()
        .map(index_bool_pair)
        .collect::<Result<Vec<_>, _>>()?;
    let inputs = v
        .get("inputs")
        .and_then(Json::as_arr)
        .ok_or_else(|| ReadError::Schema("missing inputs".into()))?
        .iter()
        .map(|cycle| {
            cycle
                .as_arr()
                .ok_or_else(|| ReadError::Schema("cycle is not an array".into()))?
                .iter()
                .map(index_bool_pair)
                .collect::<Result<HashMap<u32, bool>, _>>()
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Trace {
        initial_latches,
        inputs,
        bad_name: String::new(),
    })
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
    /// Every column is padded to its own widest entry (label or cell), so
    /// mixed-length design/scheme names stay aligned.
    pub fn render_table(&self) -> String {
        let cells: Vec<TableCell> = self
            .reports
            .iter()
            .map(|r| TableCell {
                scheme: r.scheme,
                design: r.design,
                contract: r.contract,
                text: format!("{}({:.1}s)", r.cell(), r.elapsed.as_secs_f64()),
            })
            .collect();
        render_matrix_table(&cells, self.wall, self.cpu_time(), self.reports.len())
    }

    /// Serializes to the canonical `csl-campaign-v1` JSON document.
    pub fn to_json(&self) -> String {
        self.to_value().render()
    }

    fn to_value(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::Str("csl-campaign-v1".into())),
            ("wall", duration_to_value(self.wall)),
            (
                "reports",
                Json::Arr(self.reports.iter().map(Report::to_value).collect()),
            ),
        ])
    }

    /// Parses a document written by [`CampaignReport::to_json`].
    pub fn from_json(text: &str) -> Result<CampaignReport, ReadError> {
        CampaignReport::from_value(&Json::parse(text)?)
    }

    fn from_value(v: &Json) -> Result<CampaignReport, ReadError> {
        match v.get("schema").and_then(Json::as_str) {
            Some("csl-campaign-v1") => {}
            other => return schema_err(format!("unsupported campaign schema {other:?}")),
        }
        let wall = duration_from_value(
            v.get("wall")
                .ok_or_else(|| ReadError::Schema("missing wall".into()))?,
        )?;
        let reports = v
            .get("reports")
            .and_then(Json::as_arr)
            .ok_or_else(|| ReadError::Schema("missing reports".into()))?
            .iter()
            .map(Report::from_value)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(CampaignReport { reports, wall })
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

/// One positioned cell of a rendered result table.
pub(crate) struct TableCell {
    pub scheme: Scheme,
    pub design: DesignKind,
    pub contract: Contract,
    pub text: String,
}

/// Shared renderer for the paper-style table behind
/// [`CampaignReport::render_table`]. Row and
/// column order follow first appearance in `cells` — deterministic for
/// matrix-ordered input — and every column is padded to its own widest
/// entry rather than a fixed width.
pub(crate) fn render_matrix_table(
    cells: &[TableCell],
    wall: Duration,
    cpu: Duration,
    cell_count: usize,
) -> String {
    use std::fmt::Write as _;

    let mut contracts: Vec<Contract> = Vec::new();
    let mut schemes: Vec<Scheme> = Vec::new();
    let mut designs: Vec<DesignKind> = Vec::new();
    for c in cells {
        if !contracts.contains(&c.contract) {
            contracts.push(c.contract);
        }
        if !schemes.contains(&c.scheme) {
            schemes.push(c.scheme);
        }
        if !designs.contains(&c.design) {
            designs.push(c.design);
        }
    }
    let text_of = |scheme: Scheme, design: DesignKind, contract: Contract| -> String {
        cells
            .iter()
            .find(|c| c.scheme == scheme && c.design == design && c.contract == contract)
            .map_or_else(|| "-".to_string(), |c| c.text.clone())
    };
    // Pad every column to its own widest entry (header or cell).
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
        wall.as_secs_f64(),
        cpu.as_secs_f64(),
        cell_count
    );
    out
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
        let mut r = sample_reports()[1].clone();
        r.fuzz = Some(FuzzStats {
            trials: 2000,
            sim_cycles: 48_000,
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
        for tampered in [
            text.replace("SimpleOoO", "NoSuchDesign"),
            text.replace(cycles, "\"sim_cycles\": -5"),
        ] {
            assert!(matches!(
                Report::from_json(&tampered),
                Err(ReadError::Schema(_))
            ));
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
