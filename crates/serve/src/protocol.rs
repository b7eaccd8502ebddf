//! The JSON-lines wire protocol.
//!
//! Every message — client→daemon [`Request`], daemon→client
//! [`Response`], and the daemon↔worker pair
//! [`WorkerRequest`]/[`WorkerResponse`] — is one compact JSON object per
//! line (`Json::render_line` + `\n`), tagged by an `"op"` field on the
//! client protocol and by presence of `"cell"`/`"report"` on the worker
//! protocol. Parsing is deliberately shallow and explicit: unknown ops
//! are an [`Response::Error`], garbled lines never panic the daemon.
//!
//! Report payloads embed the canonical `csl-report-v1` /
//! `csl-campaign-v1` objects via `Report::to_value` /
//! `CampaignReport::to_value`, so a `done` line's `campaign` field is
//! byte-for-byte what `CampaignReport::to_json` writes — the property
//! the `serveprobe` gate checks.

use csl_core::api::{CampaignReport, Json, Report};

use crate::spec::{CellSpec, ServeOptions};

/// Client → daemon.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Submit a campaign: an ordered list of cells sharing one options
    /// block. `id` is a client-chosen tag echoed back in the acceptance.
    Submit {
        id: String,
        cells: Vec<CellSpec>,
        options: Box<ServeOptions>,
    },
    /// Snapshot of daemon state and lifetime counters.
    Status,
    /// Cancel a job's unfinished cells.
    Cancel { job: u64 },
    /// Stop the daemon (drains nothing: queued work is dropped).
    Shutdown,
}

impl Request {
    pub fn to_value(&self) -> Json {
        match self {
            Request::Submit { id, cells, options } => Json::obj(vec![
                ("op", Json::Str("submit".into())),
                ("id", Json::Str(id.clone())),
                (
                    "cells",
                    Json::Arr(cells.iter().map(CellSpec::to_value).collect()),
                ),
                ("options", options.to_value()),
            ]),
            Request::Status => Json::obj(vec![("op", Json::Str("status".into()))]),
            Request::Cancel { job } => Json::obj(vec![
                ("op", Json::Str("cancel".into())),
                ("job", Json::Int(*job as i64)),
            ]),
            Request::Shutdown => Json::obj(vec![("op", Json::Str("shutdown".into()))]),
        }
    }

    pub fn from_value(v: &Json) -> Result<Request, String> {
        let op = v
            .get("op")
            .and_then(Json::as_str)
            .ok_or("request is missing `op`")?;
        match op {
            "submit" => {
                let id = v
                    .get("id")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string();
                let Some(Json::Arr(items)) = v.get("cells") else {
                    return Err("submit needs a `cells` array".into());
                };
                let cells = items
                    .iter()
                    .map(CellSpec::from_value)
                    .collect::<Result<Vec<_>, _>>()?;
                let options = match v.get("options") {
                    None => ServeOptions::default(),
                    Some(o) => ServeOptions::from_value(o)?,
                };
                Ok(Request::Submit {
                    id,
                    cells,
                    options: Box::new(options),
                })
            }
            "status" => Ok(Request::Status),
            "cancel" => Ok(Request::Cancel { job: job_field(v)? }),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown op `{other}`")),
        }
    }

    pub fn to_line(&self) -> String {
        self.to_value().render_line()
    }

    pub fn parse(line: &str) -> Result<Request, String> {
        let v = Json::parse(line).map_err(|e| format!("malformed request JSON: {e}"))?;
        Request::from_value(&v)
    }
}

/// Where a delivered cell report came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// A worker process solved it for this submission.
    Worker,
    /// Served from the shared on-disk report cache.
    Cache,
    /// Served from a previous run's journal (campaign resume).
    Journal,
    /// Deduplicated against an identical in-flight or
    /// already-completed query in this daemon session.
    Dedup,
    /// The client cancelled the job before the cell ran.
    Cancelled,
}

impl Source {
    pub fn name(self) -> &'static str {
        match self {
            Source::Worker => "worker",
            Source::Cache => "cache",
            Source::Journal => "journal",
            Source::Dedup => "dedup",
            Source::Cancelled => "cancelled",
        }
    }

    pub fn from_name(name: &str) -> Option<Source> {
        [
            Source::Worker,
            Source::Cache,
            Source::Journal,
            Source::Dedup,
            Source::Cancelled,
        ]
        .into_iter()
        .find(|s| s.name() == name)
    }
}

/// Per-job (and, summed, per-daemon) outcome counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Cells submitted.
    pub cells: u64,
    /// Cells a worker process solved.
    pub solved: u64,
    /// Cells served by deduplication against an identical query.
    pub dedup_hits: u64,
    /// Cells served from the on-disk report cache.
    pub cache_hits: u64,
    /// Cells served from a previous run's journal.
    pub journal_hits: u64,
    /// Worker-process deaths observed while solving.
    pub crashes: u64,
    /// Crash retries attempted (each crash is retried once).
    pub retries: u64,
    /// Cells cancelled by the client.
    pub cancelled: u64,
    /// Cached or journaled verdicts that failed verify-on-load — the
    /// stored certificate or witness did not re-check against a freshly
    /// built instance — and fell through to a real solve.
    pub rejected: u64,
}

impl ServeStats {
    pub fn merge(&mut self, other: &ServeStats) {
        self.cells += other.cells;
        self.solved += other.solved;
        self.dedup_hits += other.dedup_hits;
        self.cache_hits += other.cache_hits;
        self.journal_hits += other.journal_hits;
        self.crashes += other.crashes;
        self.retries += other.retries;
        self.cancelled += other.cancelled;
        self.rejected += other.rejected;
    }

    pub fn to_value(&self) -> Json {
        Json::obj(vec![
            ("cells", Json::Int(self.cells as i64)),
            ("solved", Json::Int(self.solved as i64)),
            ("dedup_hits", Json::Int(self.dedup_hits as i64)),
            ("cache_hits", Json::Int(self.cache_hits as i64)),
            ("journal_hits", Json::Int(self.journal_hits as i64)),
            ("crashes", Json::Int(self.crashes as i64)),
            ("retries", Json::Int(self.retries as i64)),
            ("cancelled", Json::Int(self.cancelled as i64)),
            ("rejected", Json::Int(self.rejected as i64)),
        ])
    }

    pub fn from_value(v: &Json) -> Result<ServeStats, String> {
        let field = |key: &str| -> Result<u64, String> {
            match v.get(key) {
                None => Ok(0),
                Some(n) => n
                    .as_int()
                    .and_then(|n| u64::try_from(n).ok())
                    .ok_or(format!("stats `{key}` must be a non-negative integer")),
            }
        };
        Ok(ServeStats {
            cells: field("cells")?,
            solved: field("solved")?,
            dedup_hits: field("dedup_hits")?,
            cache_hits: field("cache_hits")?,
            journal_hits: field("journal_hits")?,
            crashes: field("crashes")?,
            retries: field("retries")?,
            cancelled: field("cancelled")?,
            rejected: field("rejected")?,
        })
    }
}

/// Daemon state snapshot answered to [`Request::Status`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StatusInfo {
    /// Worker threads in the pool (upper bound on live worker processes).
    pub workers: u64,
    /// Jobs with unfinished cells.
    pub active_jobs: u64,
    /// Cells waiting for a worker.
    pub queued: u64,
    /// Distinct queries currently queued or being solved.
    pub inflight: u64,
    /// Lifetime totals across all jobs.
    pub totals: ServeStats,
}

/// Daemon → client. Every response to a connection's request stream,
/// including the asynchronous per-cell `Update` lines a submission
/// streams back.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Submission accepted; `job` is the daemon-assigned handle.
    Accepted {
        id: String,
        job: u64,
        cells: u64,
    },
    /// One cell of a job finished (in completion order, not cell order).
    Update {
        job: u64,
        /// Index into the submitted `cells` array.
        index: u64,
        source: Source,
        report: Box<Report>,
    },
    /// All cells of a job are accounted for; `campaign` assembles the
    /// reports in submission order.
    Done {
        job: u64,
        stats: ServeStats,
        campaign: Box<CampaignReport>,
    },
    Status(Box<StatusInfo>),
    Cancelled {
        job: u64,
    },
    /// Acknowledges shutdown; the socket closes after this line.
    Bye,
    Error {
        message: String,
    },
}

impl Response {
    pub fn to_value(&self) -> Json {
        match self {
            Response::Accepted { id, job, cells } => Json::obj(vec![
                ("op", Json::Str("accepted".into())),
                ("id", Json::Str(id.clone())),
                ("job", Json::Int(*job as i64)),
                ("cells", Json::Int(*cells as i64)),
            ]),
            Response::Update {
                job,
                index,
                source,
                report,
            } => Json::obj(vec![
                ("op", Json::Str("update".into())),
                ("job", Json::Int(*job as i64)),
                ("index", Json::Int(*index as i64)),
                ("source", Json::Str(source.name().into())),
                ("report", report.to_value()),
            ]),
            Response::Done {
                job,
                stats,
                campaign,
            } => Json::obj(vec![
                ("op", Json::Str("done".into())),
                ("job", Json::Int(*job as i64)),
                ("stats", stats.to_value()),
                ("campaign", campaign.to_value()),
            ]),
            Response::Status(info) => Json::obj(vec![
                ("op", Json::Str("status".into())),
                ("workers", Json::Int(info.workers as i64)),
                ("active_jobs", Json::Int(info.active_jobs as i64)),
                ("queued", Json::Int(info.queued as i64)),
                ("inflight", Json::Int(info.inflight as i64)),
                ("totals", info.totals.to_value()),
            ]),
            Response::Cancelled { job } => Json::obj(vec![
                ("op", Json::Str("cancelled".into())),
                ("job", Json::Int(*job as i64)),
            ]),
            Response::Bye => Json::obj(vec![("op", Json::Str("bye".into()))]),
            Response::Error { message } => Json::obj(vec![
                ("op", Json::Str("error".into())),
                ("message", Json::Str(message.clone())),
            ]),
        }
    }

    pub fn from_value(v: &Json) -> Result<Response, String> {
        let op = v
            .get("op")
            .and_then(Json::as_str)
            .ok_or("response is missing `op`")?;
        match op {
            "accepted" => Ok(Response::Accepted {
                id: v
                    .get("id")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
                job: job_field(v)?,
                cells: count_field(v, "cells")?,
            }),
            "update" => {
                let report = v.get("report").ok_or("update is missing `report`")?;
                let report =
                    Report::from_value(report).map_err(|e| format!("bad update report: {e}"))?;
                let source = v
                    .get("source")
                    .and_then(Json::as_str)
                    .ok_or("update is missing `source`")?;
                let source = Source::from_name(source)
                    .ok_or_else(|| format!("unknown source `{source}`"))?;
                Ok(Response::Update {
                    job: job_field(v)?,
                    index: count_field(v, "index")?,
                    source,
                    report: Box::new(report),
                })
            }
            "done" => {
                let campaign = v.get("campaign").ok_or("done is missing `campaign`")?;
                let campaign = CampaignReport::from_value(campaign)
                    .map_err(|e| format!("bad campaign: {e}"))?;
                let stats = match v.get("stats") {
                    None => ServeStats::default(),
                    Some(s) => ServeStats::from_value(s)?,
                };
                Ok(Response::Done {
                    job: job_field(v)?,
                    stats,
                    campaign: Box::new(campaign),
                })
            }
            "status" => {
                let totals = match v.get("totals") {
                    None => ServeStats::default(),
                    Some(s) => ServeStats::from_value(s)?,
                };
                Ok(Response::Status(Box::new(StatusInfo {
                    workers: count_field(v, "workers")?,
                    active_jobs: count_field(v, "active_jobs")?,
                    queued: count_field(v, "queued")?,
                    inflight: count_field(v, "inflight")?,
                    totals,
                })))
            }
            "cancelled" => Ok(Response::Cancelled { job: job_field(v)? }),
            "bye" => Ok(Response::Bye),
            "error" => Ok(Response::Error {
                message: v
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or("unspecified")
                    .to_string(),
            }),
            other => Err(format!("unknown op `{other}`")),
        }
    }

    pub fn to_line(&self) -> String {
        self.to_value().render_line()
    }

    pub fn parse(line: &str) -> Result<Response, String> {
        let v = Json::parse(line).map_err(|e| format!("malformed response JSON: {e}"))?;
        Response::from_value(&v)
    }
}

fn job_field(v: &Json) -> Result<u64, String> {
    v.get("job")
        .and_then(Json::as_int)
        .and_then(|n| u64::try_from(n).ok())
        .ok_or("missing or invalid `job`".into())
}

fn count_field(v: &Json, key: &str) -> Result<u64, String> {
    match v.get(key) {
        None => Ok(0),
        Some(n) => n
            .as_int()
            .and_then(|n| u64::try_from(n).ok())
            .ok_or(format!("`{key}` must be a non-negative integer")),
    }
}

/// Daemon → worker: solve one cell. `id` is echoed back so a late reply
/// from a previous (timed-out) request can never be mistaken for the
/// current cell's verdict.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkerRequest {
    pub id: u64,
    pub cell: CellSpec,
    pub options: ServeOptions,
}

impl WorkerRequest {
    pub fn to_line(&self) -> String {
        Json::obj(vec![
            ("id", Json::Int(self.id as i64)),
            ("cell", self.cell.to_value()),
            ("options", self.options.to_value()),
        ])
        .render_line()
    }

    pub fn parse(line: &str) -> Result<WorkerRequest, String> {
        let v = Json::parse(line).map_err(|e| format!("malformed worker request: {e}"))?;
        let id = v
            .get("id")
            .and_then(Json::as_int)
            .and_then(|n| u64::try_from(n).ok())
            .ok_or("worker request is missing `id`")?;
        let cell = CellSpec::from_value(v.get("cell").ok_or("worker request is missing `cell`")?)?;
        let options = match v.get("options") {
            None => ServeOptions::default(),
            Some(o) => ServeOptions::from_value(o)?,
        };
        Ok(WorkerRequest { id, cell, options })
    }
}

/// Worker → daemon: the finished report for request `id`.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkerResponse {
    pub id: u64,
    pub report: Report,
}

impl WorkerResponse {
    pub fn to_line(&self) -> String {
        Json::obj(vec![
            ("id", Json::Int(self.id as i64)),
            ("report", self.report.to_value()),
        ])
        .render_line()
    }

    pub fn parse(line: &str) -> Result<WorkerResponse, String> {
        let v = Json::parse(line).map_err(|e| format!("malformed worker response: {e}"))?;
        let id = v
            .get("id")
            .and_then(Json::as_int)
            .and_then(|n| u64::try_from(n).ok())
            .ok_or("worker response is missing `id`")?;
        let report = Report::from_value(
            v.get("report")
                .ok_or("worker response is missing `report`")?,
        )
        .map_err(|e| format!("bad worker report: {e}"))?;
        Ok(WorkerResponse { id, report })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csl_contracts::Contract;
    use csl_core::{DesignKind, Scheme};

    fn cells() -> Vec<CellSpec> {
        vec![
            CellSpec::new(
                Scheme::Shadow,
                DesignKind::SingleCycle,
                Contract::Sandboxing,
            ),
            CellSpec::new(
                Scheme::Baseline,
                DesignKind::SingleCycle,
                Contract::ConstantTime,
            ),
        ]
    }

    #[test]
    fn requests_round_trip() {
        let reqs = vec![
            Request::Submit {
                id: "smoke".into(),
                cells: cells(),
                options: Box::new(ServeOptions::default()),
            },
            Request::Status,
            Request::Cancel { job: 7 },
            Request::Shutdown,
        ];
        for req in reqs {
            let line = req.to_line();
            assert!(!line.contains('\n'));
            assert_eq!(Request::parse(&line).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let report = crate::spec::undecided_report(
            &cells()[0],
            csl_mc::InconclusiveReason::WorkerCrashed {
                detail: "signal 6".into(),
            },
            std::time::Duration::ZERO,
            vec!["worker died".into()],
        );
        let resps = vec![
            Response::Accepted {
                id: "smoke".into(),
                job: 1,
                cells: 2,
            },
            Response::Update {
                job: 1,
                index: 0,
                source: Source::Dedup,
                report: Box::new(report.clone()),
            },
            Response::Done {
                job: 1,
                stats: ServeStats {
                    cells: 2,
                    solved: 1,
                    crashes: 2,
                    retries: 1,
                    ..ServeStats::default()
                },
                campaign: Box::new(CampaignReport {
                    reports: vec![report.clone()],
                    wall: std::time::Duration::ZERO,
                }),
            },
            Response::Status(Box::new(StatusInfo {
                workers: 2,
                active_jobs: 1,
                queued: 3,
                inflight: 4,
                totals: ServeStats::default(),
            })),
            Response::Cancelled { job: 1 },
            Response::Bye,
            Response::Error {
                message: "unknown op `frob`".into(),
            },
        ];
        for resp in resps {
            let line = resp.to_line();
            assert!(!line.contains('\n'));
            assert_eq!(Response::parse(&line).unwrap(), resp);
        }
    }

    #[test]
    fn worker_messages_round_trip() {
        let req = WorkerRequest {
            id: 3,
            cell: cells()[0].clone(),
            options: ServeOptions::default(),
        };
        assert_eq!(WorkerRequest::parse(&req.to_line()).unwrap(), req);
        let resp = WorkerResponse {
            id: 3,
            report: crate::spec::undecided_report(
                &cells()[0],
                csl_mc::InconclusiveReason::WorkerCrashed {
                    detail: "exit code 2".into(),
                },
                std::time::Duration::ZERO,
                Vec::new(),
            ),
        };
        assert_eq!(WorkerResponse::parse(&resp.to_line()).unwrap(), resp);
    }

    /// A submission from a client that still sends the removed exchange
    /// knob, inside the options or beside them, is accepted and the key
    /// ignored.
    #[test]
    fn submit_with_an_exchange_key_is_accepted() {
        let line = "{\"op\": \"submit\", \"id\": \"old\", \"exchange\": true, \
                    \"cells\": [{\"scheme\": \"LEAVE\", \"design\": \"SingleCycle(ISA)\", \
                    \"contract\": \"sandboxing\"}], \
                    \"options\": {\"portfolio\": true, \"exchange\": {\"enabled\": true}}}";
        let Request::Submit { id, cells, options } = Request::parse(line).unwrap() else {
            panic!("a submit line parses as a submission");
        };
        assert_eq!(id, "old");
        assert_eq!(
            cells,
            vec![CellSpec::new(
                Scheme::Leave,
                DesignKind::SingleCycle,
                Contract::Sandboxing
            )]
        );
        let expected = ServeOptions {
            portfolio: true,
            ..ServeOptions::default()
        };
        assert_eq!(*options, expected);
    }

    #[test]
    fn garbage_lines_are_soft_errors() {
        assert!(Request::parse("{\"op\": \"frob\"}").is_err());
        assert!(Request::parse("not json").is_err());
        assert!(Response::parse("{\"op\": 7}").is_err());
        assert!(WorkerResponse::parse("{}").is_err());
    }
}
