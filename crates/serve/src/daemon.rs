//! The campaign daemon: scheduler, dedup, cache/journal consult, crash
//! retry, and the per-connection protocol loop.
//!
//! One mutex ([`State`]) guards the whole scheduling picture — jobs,
//! the work queue, in-flight queries, completed keys — plus a condvar
//! the worker-pool threads park on. Cells are identified by
//! [`crate::spec::cell_key`]; before a key ever reaches a worker the
//! daemon consults, in order: results completed earlier in this session
//! (including journal entries loaded at boot), the identical query
//! already in flight (the new submission *subscribes* instead of
//! re-solving), and the shared on-disk [`ReportCache`]. Only a genuine
//! miss is queued, and every decided worker verdict is written back to
//! the cache and the journal as it lands.
//!
//! Delivery is push-based: each finished cell streams an `update` line
//! to the owning client the moment it resolves, and the final cell
//! triggers the assembled `done` campaign. Both happen under the state
//! lock (sinks are per-connection mutexes locked strictly *after* the
//! state lock), which makes delivery ordering — `accepted`, then
//! updates, then `done` — trivially correct at the cost of
//! back-pressure from slow readers; at campaign scale (tens of cells,
//! seconds per cell) that trade is free.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use csl_core::api::{may_store, CampaignReport, Report, ReportCache};
use csl_mc::InconclusiveReason;

use crate::journal::Journal;
use crate::net::{Bind, Conn, Listener, ServeAddr};
use crate::protocol::{Request, Response, ServeStats, Source, StatusInfo};
use crate::spec::{cell_key, undecided_report, CellSpec, ServeOptions};
use crate::worker::WorkerProc;

/// How a daemon is configured before [`Daemon::start`].
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    pub bind: Bind,
    /// Worker pool width (threads, each owning one worker process).
    pub workers: usize,
    /// Shared on-disk report cache; `None` disables cache consult/store.
    pub cache_dir: Option<PathBuf>,
    /// LRU bound for the cache (entries), when `cache_dir` is set.
    pub cache_max_entries: Option<usize>,
    /// Resume journal; `None` disables journaling.
    pub journal: Option<PathBuf>,
    /// Worker executable. Defaults to `current_exe()` — the embedding
    /// binary must call [`crate::serve_worker_if_flagged`] first thing
    /// in `main`.
    pub worker_cmd: Option<PathBuf>,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            bind: Bind::default(),
            workers: default_workers(),
            cache_dir: None,
            cache_max_entries: None,
            journal: None,
            worker_cmd: None,
        }
    }
}

/// Half the cores: each worker process is CPU-bound while solving, and
/// portfolio-mode cells spawn lanes of their own.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| (n.get() / 2).max(1))
        .unwrap_or(1)
}

pub struct Daemon;

impl Daemon {
    /// Binds, loads the journal, and spawns the listener + worker-pool
    /// threads. Returns once the socket is accepting.
    pub fn start(config: DaemonConfig) -> std::io::Result<DaemonHandle> {
        let (listener, addr) = Listener::bind(&config.bind)?;
        let worker_cmd = match config.worker_cmd {
            Some(cmd) => cmd,
            None => std::env::current_exe()?,
        };
        let cache = config
            .cache_dir
            .map(|dir| ReportCache::new(dir).with_max_entries_opt(config.cache_max_entries));
        let journal = config.journal.map(Journal::new);
        let mut done = HashMap::new();
        let mut rejected_at_boot = 0u64;
        if let Some(journal) = &journal {
            for (key, report) in journal.load() {
                // Verify-on-load: a journaled verdict is only trusted if
                // its certificate or witness still re-checks against a
                // freshly built instance. A failed entry is dropped (the
                // cell re-solves on first submission) and counted.
                if !crate::spec::report_is_sound(&report) {
                    rejected_at_boot += 1;
                    continue;
                }
                done.insert(
                    key,
                    DoneEntry {
                        report,
                        from_journal: true,
                    },
                );
            }
        }
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            addr,
            workers,
            worker_cmd,
            cache,
            journal: journal.map(Mutex::new),
            state: Mutex::new(State {
                next_job: 1,
                jobs: HashMap::new(),
                queue: VecDeque::new(),
                inflight: HashMap::new(),
                done,
                totals: ServeStats {
                    rejected: rejected_at_boot,
                    ..ServeStats::default()
                },
            }),
            work: Condvar::new(),
            stop: AtomicBool::new(false),
        });
        let mut threads = Vec::with_capacity(workers + 1);
        {
            let shared = shared.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("csl-serve-listen".into())
                    .spawn(move || shared.listen_loop(listener))?,
            );
        }
        for i in 0..workers {
            let shared = shared.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("csl-serve-pool-{i}"))
                    .spawn(move || shared.worker_loop())?,
            );
        }
        Ok(DaemonHandle { shared, threads })
    }
}

/// A started daemon. Dropping the handle detaches the daemon (it keeps
/// serving); call [`DaemonHandle::stop`] or send a `shutdown` request
/// and [`DaemonHandle::join`] to end it.
pub struct DaemonHandle {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl DaemonHandle {
    /// The resolved listening address (real port even when bound to 0).
    pub fn addr(&self) -> ServeAddr {
        self.shared.addr.clone()
    }

    /// Requests shutdown and waits for the listener and pool to exit.
    /// A worker mid-cell finishes (or crashes) first.
    pub fn stop(mut self) {
        self.shared.begin_shutdown();
        self.join_threads();
    }

    /// Waits for a client-initiated `shutdown`.
    pub fn join(mut self) {
        self.join_threads();
    }

    fn join_threads(&mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// A connection's serialized write half: shared between its request
/// loop and the scheduler threads that stream updates to it.
type Sink = Arc<Mutex<Conn>>;

fn write_response(sink: &Sink, resp: &Response) {
    let mut conn = sink.lock().unwrap();
    // A vanished client is not the daemon's problem; its job keeps
    // running and keeps feeding the cache and journal.
    let _ = writeln!(conn, "{}", resp.to_line()).and_then(|_| conn.flush());
}

struct Shared {
    addr: ServeAddr,
    workers: usize,
    worker_cmd: PathBuf,
    cache: Option<ReportCache>,
    journal: Option<Mutex<Journal>>,
    state: Mutex<State>,
    work: Condvar,
    stop: AtomicBool,
}

struct State {
    next_job: u64,
    jobs: HashMap<u64, Job>,
    /// Keys awaiting a worker, FIFO.
    queue: VecDeque<u64>,
    /// Queued or currently-solving queries, by key. A second submission
    /// of the same key lands here as an extra subscriber.
    inflight: HashMap<u64, InFlight>,
    /// Decided results completed this session (worker verdicts) or
    /// loaded from the journal at boot.
    done: HashMap<u64, DoneEntry>,
    totals: ServeStats,
}

struct DoneEntry {
    report: Report,
    from_journal: bool,
}

struct InFlight {
    cell: CellSpec,
    options: ServeOptions,
    subscribers: Vec<Subscriber>,
    /// Worker attempts consumed (a crash is retried exactly once).
    attempts: u32,
    crashes: u64,
    retries: u64,
}

struct Subscriber {
    job: u64,
    index: usize,
    /// True if this subscriber joined an already-in-flight query.
    dedup: bool,
}

struct Job {
    sink: Sink,
    cells: Vec<CellSpec>,
    slots: Vec<Option<Report>>,
    remaining: usize,
    started: Instant,
    stats: ServeStats,
}

/// One cell-delivery event, with its stat deltas.
struct Delivery<'a> {
    job: u64,
    index: usize,
    source: Source,
    report: &'a Report,
    /// Count toward the job's `solved` (a worker produced this report
    /// for this subscriber).
    solved: bool,
    crashes: u64,
    retries: u64,
}

impl Shared {
    // ---- connection side ----------------------------------------------

    fn listen_loop(self: Arc<Shared>, listener: Listener) {
        loop {
            let conn = listener.accept();
            if self.stop.load(Ordering::SeqCst) {
                return;
            }
            let Ok(conn) = conn else { continue };
            let shared = self.clone();
            // Connection threads are detached: they die with their
            // socket, and an abrupt client never blocks shutdown.
            let _ = std::thread::Builder::new()
                .name("csl-serve-conn".into())
                .spawn(move || shared.handle_conn(conn));
        }
    }

    fn handle_conn(self: Arc<Shared>, conn: Conn) {
        let Ok(write_half) = conn.try_clone() else {
            return;
        };
        let sink: Sink = Arc::new(Mutex::new(write_half));
        let mut reader = BufReader::new(conn);
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => return,
                Ok(_) => {}
            }
            if line.trim().is_empty() {
                continue;
            }
            match Request::parse(&line) {
                Err(message) => write_response(&sink, &Response::Error { message }),
                Ok(Request::Submit { id, cells, options }) => {
                    self.submit(&sink, id, cells, *options)
                }
                Ok(Request::Status) => {
                    let info = self.status();
                    write_response(&sink, &Response::Status(Box::new(info)));
                }
                Ok(Request::Cancel { job }) => self.cancel(&sink, job),
                Ok(Request::Shutdown) => {
                    write_response(&sink, &Response::Bye);
                    self.begin_shutdown();
                    return;
                }
            }
        }
    }

    fn submit(&self, sink: &Sink, id: String, cells: Vec<CellSpec>, options: ServeOptions) {
        // Key derivation builds each cell's netlist — keep it (and the
        // cache's disk reads plus verify-on-load SAT calls) outside the
        // state lock.
        let keys: Vec<u64> = cells.iter().map(|c| cell_key(c, &options)).collect();
        let mut rejected = 0u64;
        let mut cached: Vec<Option<Report>> = match &self.cache {
            Some(cache) => keys
                .iter()
                .map(|&k| match cache.load(k) {
                    // Verify-on-load (unless the submission opted out):
                    // re-check the stored certificate/witness against a
                    // freshly built instance before trusting the entry.
                    Some(report) if !options.certify || crate::spec::report_is_sound(&report) => {
                        Some(report)
                    }
                    Some(_) => {
                        cache.reject(k);
                        rejected += 1;
                        None
                    }
                    None => None,
                })
                .collect(),
            None => (0..keys.len()).map(|_| None).collect(),
        };

        let n = cells.len();
        let mut st = self.state.lock().unwrap();
        let job_id = st.next_job;
        st.next_job += 1;
        write_response(
            sink,
            &Response::Accepted {
                id,
                job: job_id,
                cells: n as u64,
            },
        );
        st.totals.cells += n as u64;
        st.totals.rejected += rejected;
        st.jobs.insert(
            job_id,
            Job {
                sink: sink.clone(),
                cells: cells.clone(),
                slots: vec![None; n],
                remaining: n,
                started: Instant::now(),
                stats: ServeStats {
                    cells: n as u64,
                    rejected,
                    ..ServeStats::default()
                },
            },
        );

        let mut queued = false;
        for (index, cell) in cells.into_iter().enumerate() {
            let key = keys[index];
            if let Some(entry) = st.done.get(&key) {
                let source = if entry.from_journal {
                    Source::Journal
                } else {
                    Source::Dedup
                };
                let report = entry.report.clone();
                deliver(
                    &mut st,
                    Delivery {
                        job: job_id,
                        index,
                        source,
                        report: &report,
                        solved: false,
                        crashes: 0,
                        retries: 0,
                    },
                );
            } else if let Some(inflight) = st.inflight.get_mut(&key) {
                inflight.subscribers.push(Subscriber {
                    job: job_id,
                    index,
                    dedup: true,
                });
            } else if let Some(report) = cached[index].take() {
                // Promote to the in-session done map so later identical
                // submissions dedup in memory instead of re-reading disk.
                st.done.insert(
                    key,
                    DoneEntry {
                        report: report.clone(),
                        from_journal: false,
                    },
                );
                deliver(
                    &mut st,
                    Delivery {
                        job: job_id,
                        index,
                        source: Source::Cache,
                        report: &report,
                        solved: false,
                        crashes: 0,
                        retries: 0,
                    },
                );
            } else {
                st.inflight.insert(
                    key,
                    InFlight {
                        cell,
                        options: options.clone(),
                        subscribers: vec![Subscriber {
                            job: job_id,
                            index,
                            dedup: false,
                        }],
                        attempts: 0,
                        crashes: 0,
                        retries: 0,
                    },
                );
                st.queue.push_back(key);
                queued = true;
            }
        }
        // An empty (or fully pre-served) submission finishes here.
        finish_if_done(&mut st, job_id);
        drop(st);
        if queued {
            self.work.notify_all();
        }
    }

    fn status(&self) -> StatusInfo {
        let st = self.state.lock().unwrap();
        StatusInfo {
            workers: self.workers as u64,
            active_jobs: st.jobs.len() as u64,
            queued: st.queue.len() as u64,
            inflight: st.inflight.len() as u64,
            totals: st.totals,
        }
    }

    fn cancel(&self, sink: &Sink, job_id: u64) {
        let mut st = self.state.lock().unwrap();
        write_response(sink, &Response::Cancelled { job: job_id });
        if !st.jobs.contains_key(&job_id) {
            return;
        }
        // Unsubscribe the job from every pending query. Queries left
        // without subscribers are discarded when a pool thread pops
        // them; a *running* one still completes into cache/journal.
        for inflight in st.inflight.values_mut() {
            inflight.subscribers.retain(|s| s.job != job_id);
        }
        let pending: Vec<(usize, CellSpec)> = {
            let job = &st.jobs[&job_id];
            job.slots
                .iter()
                .enumerate()
                .filter(|(_, slot)| slot.is_none())
                .map(|(i, _)| (i, job.cells[i].clone()))
                .collect()
        };
        for (index, cell) in pending {
            let report = undecided_report(
                &cell,
                InconclusiveReason::Other("cancelled by client".into()),
                Duration::ZERO,
                Vec::new(),
            );
            deliver(
                &mut st,
                Delivery {
                    job: job_id,
                    index,
                    source: Source::Cancelled,
                    report: &report,
                    solved: false,
                    crashes: 0,
                    retries: 0,
                },
            );
        }
    }

    fn begin_shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.work.notify_all();
        // Unblock the accept loop with a throwaway connection.
        let _ = Conn::connect(&self.addr);
    }

    // ---- pool side ----------------------------------------------------

    fn worker_loop(self: Arc<Shared>) {
        let mut proc: Option<WorkerProc> = None;
        loop {
            let Some((key, cell, options)) = self.next_task() else {
                return;
            };
            if proc.is_none() {
                match WorkerProc::spawn(&self.worker_cmd) {
                    Ok(p) => proc = Some(p),
                    Err(e) => {
                        let report = undecided_report(
                            &cell,
                            InconclusiveReason::Other(format!("cannot spawn worker: {e}")),
                            Duration::ZERO,
                            Vec::new(),
                        );
                        self.finish_key(key, report, false);
                        continue;
                    }
                }
            }
            let started = Instant::now();
            let deadline = watchdog(&cell, &options);
            match proc
                .as_mut()
                .expect("spawned above")
                .solve(&cell, &options, deadline)
            {
                Ok(resp) => self.finish_key(key, resp.report, true),
                Err(detail) => {
                    // The process is spent either way; Drop kills it.
                    proc = None;
                    if self.record_crash_and_maybe_retry(key) {
                        self.work.notify_one();
                        continue;
                    }
                    let report = undecided_report(
                        &cell,
                        InconclusiveReason::WorkerCrashed {
                            detail: detail.clone(),
                        },
                        started.elapsed(),
                        vec![format!(
                            "worker process died while solving {}: {detail}; retry also failed",
                            cell.label()
                        )],
                    );
                    self.finish_key(key, report, false);
                }
            }
        }
    }

    /// Blocks for the next live queued key; `None` means shutdown.
    fn next_task(&self) -> Option<(u64, CellSpec, ServeOptions)> {
        let mut st = self.state.lock().unwrap();
        loop {
            if self.stop.load(Ordering::SeqCst) {
                return None;
            }
            if let Some(key) = st.queue.pop_front() {
                match st.inflight.get(&key) {
                    Some(inflight) if !inflight.subscribers.is_empty() => {
                        return Some((key, inflight.cell.clone(), inflight.options.clone()));
                    }
                    _ => {
                        // Every subscriber cancelled while it queued.
                        st.inflight.remove(&key);
                        continue;
                    }
                }
            }
            st = self.work.wait(st).unwrap();
        }
    }

    /// Returns true when the crashed key was requeued for its one retry.
    fn record_crash_and_maybe_retry(&self, key: u64) -> bool {
        let mut st = self.state.lock().unwrap();
        st.totals.crashes += 1;
        let Some(inflight) = st.inflight.get_mut(&key) else {
            return false;
        };
        inflight.crashes += 1;
        if inflight.attempts == 0 {
            inflight.attempts = 1;
            inflight.retries += 1;
            st.totals.retries += 1;
            st.queue.push_back(key);
            true
        } else {
            false
        }
    }

    /// A query resolved (worker verdict or synthetic crash report):
    /// persist what [`may_store`] admits, then fan out to every
    /// subscriber. The cache audits under the submission's `certify`;
    /// the journal is always audited at boot.
    fn finish_key(&self, key: u64, report: Report, solved: bool) {
        let decided = report.verdict.is_attack() || report.verdict.is_proof();
        let certify = {
            let st = self.state.lock().unwrap();
            st.inflight.get(&key).is_none_or(|f| f.options.certify)
        };
        if may_store(&report, certify) {
            if let Some(cache) = &self.cache {
                let _ = cache.store(key, &report);
            }
        }
        if may_store(&report, true) {
            if let Some(journal) = &self.journal {
                let _ = journal.lock().unwrap().append(key, &report);
            }
        }
        let mut st = self.state.lock().unwrap();
        let Some(inflight) = st.inflight.remove(&key) else {
            return;
        };
        if solved {
            st.totals.solved += 1;
        }
        if decided {
            st.done.insert(
                key,
                DoneEntry {
                    report: report.clone(),
                    from_journal: false,
                },
            );
        }
        for sub in inflight.subscribers {
            deliver(
                &mut st,
                Delivery {
                    job: sub.job,
                    index: sub.index,
                    source: if sub.dedup {
                        Source::Dedup
                    } else {
                        Source::Worker
                    },
                    report: &report,
                    solved: solved && !sub.dedup,
                    crashes: inflight.crashes,
                    retries: inflight.retries,
                },
            );
        }
    }
}

/// The watchdog is a liveness net, not the real budget: the worker
/// enforces `options.budget` itself, so only a wedged process (deadlock,
/// runaway allocation churn) should ever hit this.
fn watchdog(cell: &CellSpec, options: &ServeOptions) -> Duration {
    options.budget.saturating_mul(2)
        + Duration::from_millis(cell.delay_ms)
        + Duration::from_secs(30)
}

/// Streams one cell's report to its job (under the state lock) and, on
/// the last cell, the assembled campaign.
fn deliver(st: &mut State, d: Delivery<'_>) {
    let State { jobs, totals, .. } = st;
    let Some(job) = jobs.get_mut(&d.job) else {
        return; // job already finished (e.g. cancelled to completion)
    };
    if job.slots[d.index].is_some() {
        return;
    }
    job.slots[d.index] = Some(d.report.clone());
    job.remaining -= 1;
    match d.source {
        Source::Worker => {}
        Source::Cache => {
            job.stats.cache_hits += 1;
            totals.cache_hits += 1;
        }
        Source::Journal => {
            job.stats.journal_hits += 1;
            totals.journal_hits += 1;
        }
        Source::Dedup => {
            job.stats.dedup_hits += 1;
            totals.dedup_hits += 1;
        }
        Source::Cancelled => {
            job.stats.cancelled += 1;
            totals.cancelled += 1;
        }
    }
    if d.solved {
        job.stats.solved += 1;
    }
    job.stats.crashes += d.crashes;
    job.stats.retries += d.retries;
    write_response(
        &job.sink,
        &Response::Update {
            job: d.job,
            index: d.index as u64,
            source: d.source,
            report: Box::new(d.report.clone()),
        },
    );
    finish_if_done(st, d.job);
}

/// Emits `done` and retires the job once every slot is filled.
fn finish_if_done(st: &mut State, job_id: u64) {
    let finished = matches!(st.jobs.get(&job_id), Some(job) if job.remaining == 0);
    if !finished {
        return;
    }
    let job = st.jobs.remove(&job_id).expect("checked above");
    let campaign = CampaignReport {
        reports: job
            .slots
            .into_iter()
            .map(|slot| slot.expect("remaining == 0 means every slot is full"))
            .collect(),
        wall: job.started.elapsed(),
    };
    write_response(
        &job.sink,
        &Response::Done {
            job: job_id,
            stats: job.stats,
            campaign: Box::new(campaign),
        },
    );
}
