//! Session-level result cache.
//!
//! Repeated campaigns mostly re-decide cells nothing changed in: the
//! scheme, design, contract, engine options and the instrumented netlist
//! are identical, so the verdict is too. [`ReportCache`] persists
//! [`Report`]s under a cache directory keyed by a stable fingerprint of
//! the *resolved query* — scheme × design × contract × every engine knob
//! × a structural hash of the built netlist (plus its invariant
//! candidates). Hashing the built instance rather than the builder knobs
//! means any change that reaches the netlist — a new defense, a shadow
//! option, an exclusion rule, even an edit to the CPU generators —
//! changes the key and misses the cache.
//!
//! Only *decided* cells (attack or proof) are stored: a timeout or
//! unknown depends on the machine and the budget draw, and caching one
//! would mask a later, luckier run. The callers also skip proofs without
//! a certificate, which the load audit would reject (see [`may_store`]).
//! `Matrix::run_all` consults the cache when one is configured (see
//! `Matrix::cache`); the bench bins expose the `--no-cache` escape
//! hatch.
//!
//! The directory is safe to share between concurrent writers (the
//! `Matrix` worker threads store into one cache, and separate processes
//! may share a directory): stores write to a tempfile in the cache
//! directory and `rename` it into place, so a reader never observes torn
//! JSON. Hit/miss/store counts are kept per cache handle (shared across
//! clones) and readable via [`ReportCache::stats`].

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use csl_hdl::{Aig, Node};
use csl_mc::{Candidate, CheckOptions, SafetyCheck, Verdict};

use crate::api::report::Report;

/// A 64-bit FNV-1a hasher; stable across runs and platforms (unlike
/// `std::hash`, whose `Hasher` seeds may vary).
pub(crate) struct Fingerprint(u64);

impl Fingerprint {
    pub fn new() -> Fingerprint {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    pub fn bool(&mut self, v: bool) {
        self.write(&[v as u8]);
    }

    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.write(s.as_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Structural fingerprint of a netlist: node graph, latch inits and
/// next-state wiring, assumes, named bads.
pub(crate) fn netlist_fingerprint(aig: &Aig) -> u64 {
    let mut h = Fingerprint::new();
    h.usize(aig.num_nodes());
    for n in 0..aig.num_nodes() as u32 {
        match aig.node(csl_hdl::Bit::from_packed(n << 1)) {
            Node::Const => h.u64(0),
            Node::Input(i) => {
                h.u64(1);
                h.u64(i as u64);
            }
            Node::Latch(l) => {
                h.u64(2);
                h.u64(l as u64);
            }
            Node::And(a, b) => {
                h.u64(3);
                h.u64(a.packed() as u64);
                h.u64(b.packed() as u64);
            }
        }
    }
    h.usize(aig.latches().len());
    for l in aig.latches() {
        h.u64(l.output.packed() as u64);
        h.u64(match l.init {
            csl_hdl::Init::Zero => 0,
            csl_hdl::Init::One => 1,
            csl_hdl::Init::Symbolic => 2,
        });
        match l.next {
            Some(next) => {
                h.bool(true);
                h.u64(next.packed() as u64);
            }
            None => h.bool(false),
        }
    }
    h.usize(aig.assumes().len());
    for a in aig.assumes() {
        h.u64(a.packed() as u64);
    }
    h.usize(aig.bads().len());
    for b in aig.bads() {
        h.str(&b.name);
        h.u64(b.bit.packed() as u64);
    }
    h.finish()
}

/// Folds a full verification instance (netlist + invariant candidates)
/// into the hasher.
pub(crate) fn instance_fingerprint(h: &mut Fingerprint, task: &SafetyCheck) {
    h.u64(netlist_fingerprint(&task.aig));
    h.usize(task.candidates.len());
    for Candidate { name, bit } in &task.candidates {
        h.str(name);
        h.u64(bit.packed() as u64);
    }
}

/// Folds every engine knob into the hasher. A removed knob's slot keeps
/// the constant its default hashed, so existing cache entries keep
/// hitting.
pub(crate) fn options_fingerprint(h: &mut Fingerprint, opts: &CheckOptions) {
    h.u64(opts.total_budget.as_nanos() as u64);
    h.usize(opts.bmc_depth);
    h.bool(opts.attack_only);
    h.usize(opts.kind_max_k);
    // The removed PDR switch's slot (on).
    h.bool(true);
    h.usize(opts.pdr_max_frames);
    h.bool(opts.keep_probes);
    h.u64(match opts.mode {
        csl_mc::ExecMode::Sequential => 0,
        csl_mc::ExecMode::Portfolio => 1,
    });
    for _ in csl_mc::Lane::ALL {
        // The removed per-lane budget's slots: no wall cap, no BMC depth
        // schedule.
        h.bool(false);
        h.usize(0);
        // The removed exchange bus's per-lane import/export slots.
        h.bool(true);
        h.bool(true);
    }
    // The removed exchange bus's knobs at their old defaults (off, clause
    // length 8, LBD 4, 64 imports per poll, capacity 4096, static).
    h.bool(false);
    h.usize(8);
    h.u64(4);
    h.usize(64);
    h.usize(4096);
    h.bool(false);
    // The master switch, then the removed per-pass switches' slots, which
    // always followed it.
    for _ in 0..5 {
        h.bool(opts.prepare.enabled);
    }
    // The removed warm-start knob's slot.
    h.bool(false);
    // The removed certificate switch's slot (on).
    h.bool(true);
    // Extra lanes (the fuzzing backend) hash through their labels: a
    // LaneFactory's label is required to change whenever the backend it
    // produces does (see its docs), so plan edits miss the cache.
    h.usize(opts.extra_lanes.len());
    for lane in &opts.extra_lanes {
        h.str(lane.label());
    }
}

/// Whether `report` may be stored in a [`ReportCache`]: it must be
/// decided, and a proof must carry its certificate. Every load audits
/// the evidence and rejects a proof without one, so storing it would only
/// make the cell re-solve, one more rejection on every run.
pub fn may_store(report: &Report) -> bool {
    match report.verdict {
        Verdict::Attack(_) => true,
        Verdict::Proof(_) => report.certificate.is_some(),
        Verdict::Timeout | Verdict::Unknown { .. } => false,
    }
}

/// Hit/miss/store counts of a [`ReportCache`] handle, snapshot by
/// [`ReportCache::stats`]. Counters are shared across clones of the
/// handle (workers sharing one cache aggregate into one set) but not
/// across independently-opened handles on the same directory.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Loads that found a parsable entry.
    pub hits: u64,
    /// Loads that found nothing (or an unreadable/unparsable entry).
    pub misses: u64,
    /// Stores that actually wrote an entry (undecided reports are
    /// silently skipped and not counted).
    pub stores: u64,
    /// Served entries that failed verify-on-load — the certificate or
    /// witness did not re-check against the freshly built instance — and
    /// were evicted so the cell re-solves (see `Query::run_cached`).
    pub rejected: u64,
}

#[derive(Debug, Default)]
struct CacheCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    rejected: AtomicU64,
}

/// A directory of persisted [`Report`]s keyed by query fingerprint,
/// optionally size-capped: with [`ReportCache::with_max_entries`] the
/// oldest entries — least-recently *used*, because a hit refreshes the
/// file's mtime — are pruned after every store until the directory fits.
#[derive(Clone, Debug)]
pub struct ReportCache {
    dir: PathBuf,
    max_entries: Option<usize>,
    counters: Arc<CacheCounters>,
}

impl ReportCache {
    /// Opens (without creating) an unbounded cache rooted at `dir`; the
    /// directory is created lazily on the first store.
    pub fn new(dir: impl Into<PathBuf>) -> ReportCache {
        ReportCache {
            dir: dir.into(),
            max_entries: None,
            counters: Arc::new(CacheCounters::default()),
        }
    }

    /// The same cache with a size cap: stores prune down to `n` entries,
    /// LRU by file mtime.
    pub fn with_max_entries(mut self, n: usize) -> ReportCache {
        self.max_entries = Some(n);
        self
    }

    /// The configured size cap, if any.
    pub fn max_entries(&self) -> Option<usize> {
        self.max_entries
    }

    /// Snapshot of this handle's hit/miss/store counters (shared across
    /// clones of the handle).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            stores: self.counters.stores.load(Ordering::Relaxed),
            rejected: self.counters.rejected.load(Ordering::Relaxed),
        }
    }

    fn path_for(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.json"))
    }

    /// Loads the report stored under `key`, if any. Unreadable or
    /// unparsable entries are treated as misses (the cell just reruns).
    /// A hit bumps the entry's mtime so LRU pruning spares it.
    pub fn load(&self, key: u64) -> Option<Report> {
        match self.load_untracked(key) {
            Some(report) => {
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                Some(report)
            }
            None => {
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn load_untracked(&self, key: u64) -> Option<Report> {
        let path = self.path_for(key);
        let text = std::fs::read_to_string(&path).ok()?;
        let report = Report::from_json(&text).ok()?;
        // Best-effort recency touch; a read-only cache dir just means
        // eviction degrades from LRU to FIFO.
        if let Ok(f) = std::fs::OpenOptions::new().write(true).open(&path) {
            let _ = f.set_modified(std::time::SystemTime::now());
        }
        Some(report)
    }

    /// Number of entries currently on disk.
    pub fn len(&self) -> usize {
        self.entries().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn entries(&self) -> Vec<(std::time::SystemTime, PathBuf)> {
        let Ok(dir) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        dir.filter_map(|e| {
            let e = e.ok()?;
            let path = e.path();
            if path.extension().is_none_or(|x| x != "json") {
                return None;
            }
            let mtime = e.metadata().ok()?.modified().ok()?;
            Some((mtime, path))
        })
        .collect()
    }

    /// Removes the oldest entries until at most `cap` remain.
    fn prune_to(&self, cap: usize) {
        let mut entries = self.entries();
        if entries.len() <= cap {
            return;
        }
        entries.sort_by_key(|e| e.0);
        let excess = entries.len() - cap;
        for (_, path) in entries.into_iter().take(excess) {
            let _ = std::fs::remove_file(path);
        }
    }

    /// [`ReportCache::load`] plus the standard cache-hit note — the one
    /// protocol both `Query::run_cached` and `Matrix::run_all` serve
    /// hits through.
    pub(crate) fn serve(&self, key: u64) -> Option<Report> {
        let mut hit = self.load(key)?;
        hit.notes.push(format!("served from cache ({key:016x})"));
        Some(hit)
    }

    /// Evicts the entry under `key` after it failed verify-on-load: the
    /// stored certificate or witness no longer re-checks against the
    /// freshly built instance (a stale schema, a corrupted file, or a
    /// forged entry), so serving it would launder an unaudited verdict.
    /// The caller falls through to a real solve.
    pub fn reject(&self, key: u64) {
        let _ = std::fs::remove_file(self.path_for(key));
        self.counters.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Persists a *decided* report under `key`; timeouts and unknowns are
    /// silently skipped (see the module docs). With a size cap, the
    /// least-recently-used entries are pruned afterwards.
    ///
    /// The write is atomic with respect to concurrent readers: the JSON
    /// goes to a uniquely-named tempfile in the cache directory and is
    /// `rename`d into place, so a parallel [`ReportCache::load`] sees
    /// either the old entry, the new entry, or nothing — never a torn
    /// half-written document.
    pub fn store(&self, key: u64, report: &Report) -> std::io::Result<()> {
        if !(report.verdict.is_attack() || report.verdict.is_proof()) {
            return Ok(());
        }
        std::fs::create_dir_all(&self.dir)?;
        // Unique per process × store: concurrent workers sharing the
        // directory never collide on the tempfile either.
        static STORE_SEQ: AtomicU64 = AtomicU64::new(0);
        let tmp = self.dir.join(format!(
            ".{key:016x}.{}-{}.tmp",
            std::process::id(),
            STORE_SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        std::fs::write(&tmp, report.to_json())?;
        let renamed = std::fs::rename(&tmp, self.path_for(key));
        if renamed.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        renamed?;
        self.counters.stores.fetch_add(1, Ordering::Relaxed);
        if let Some(cap) = self.max_entries {
            self.prune_to(cap);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csl_hdl::{Design, Init};

    fn counter_aig(width: usize, bad_at: u64) -> Aig {
        let mut d = Design::new("t");
        let r = d.reg("r", width, Init::Zero);
        let inc = d.add_const(&r.q(), 1);
        d.set_next(&r, inc);
        let hit = d.eq_const(&r.q(), bad_at);
        d.assert_always("hit", hit.not());
        d.finish()
    }

    #[test]
    fn netlist_fingerprint_is_stable_and_discriminating() {
        let a = netlist_fingerprint(&counter_aig(4, 9));
        let same = netlist_fingerprint(&counter_aig(4, 9));
        let different = netlist_fingerprint(&counter_aig(4, 10));
        assert_eq!(a, same, "identical builds must fingerprint identically");
        assert_ne!(a, different, "a changed constant must change the hash");
    }

    #[test]
    fn options_fingerprint_sees_every_knob() {
        let mut base = Fingerprint::new();
        options_fingerprint(&mut base, &CheckOptions::default());
        let base = base.finish();

        let tweaked = [
            CheckOptions {
                bmc_depth: 21,
                ..CheckOptions::default()
            },
            CheckOptions::default().portfolio(),
            CheckOptions::default().with_prepare(csl_mc::PrepareConfig::off()),
            CheckOptions::default().with_extra_lane(crate::fuzz::fuzz_lane(
                csl_isa::IsaConfig::default(),
                crate::fuzz::FuzzPlan::default(),
            )),
        ];
        for opts in tweaked {
            let mut h = Fingerprint::new();
            options_fingerprint(&mut h, &opts);
            assert_ne!(h.finish(), base, "{opts:?} must change the key");
        }
    }

    /// The fingerprints of three common option sets, as printed before
    /// the exchange bus, coverage-guided fuzzing, the per-lane budgets and
    /// the certificate switch were removed: the constants hashed into
    /// removed knobs' slots, and the blind fuzz plan's label, must not
    /// drift, or every existing cache entry would silently miss.
    #[test]
    fn options_fingerprint_is_pinned() {
        let plan = crate::fuzz::FuzzPlan::default();
        assert_eq!(
            plan.label(),
            "fuzz(trials=2000,cycles=24,seed=61525,batch=true,mix=4/3/4/3/0/1)"
        );
        for (opts, pinned) in [
            (CheckOptions::default(), 0x0fc5_920d_fa71_5e0f_u64),
            (CheckOptions::default().portfolio(), 0xdea3_9e33_dac1_bcc2),
            (
                CheckOptions::default()
                    .with_extra_lane(crate::fuzz::fuzz_lane(csl_isa::IsaConfig::default(), plan)),
                0x0188_29c5_6867_bd0a,
            ),
        ] {
            let mut h = Fingerprint::new();
            options_fingerprint(&mut h, &opts);
            assert_eq!(h.finish(), pinned, "{opts:?}");
        }
    }

    /// The raw and prepared netlists of four benchmark cells, and their
    /// cache keys, are pinned: tuning hash-consing or the preparation
    /// rebuilds must not renumber a node, and result caches already on
    /// disk must stay valid.
    #[test]
    fn netlists_and_cache_keys_are_pinned() {
        use crate::api::Verifier;
        use crate::{DesignKind, Scheme};
        use csl_contracts::Contract;
        use csl_cpu::Defense;

        for (scheme, design, raw, prepared, key) in [
            (
                Scheme::Shadow,
                DesignKind::SimpleOoo(Defense::None),
                0x7342_31fb_2dd5_ff37_u64,
                0x6e5e_7b46_3cfd_015f_u64,
                0xcd7c_d2e5_6cac_ae3b_u64,
            ),
            (
                Scheme::Shadow,
                DesignKind::BigOoo,
                0x23af_908e_5309_6434,
                0xbe45_8c3c_0833_0bf3,
                0x0d43_2bb3_1ed4_a19b,
            ),
            (
                Scheme::Leave,
                DesignKind::SimpleOoo(Defense::DelaySpectre),
                0x9867_0790_28df_2b27,
                0xac23_60a6_05f9_e3a5,
                0xdef8_c899_5bb4_b5df,
            ),
            (
                Scheme::Shadow,
                DesignKind::SingleCycle,
                0x35f3_b4ac_4bce_5df6,
                0xe165_7c21_f757_0680,
                0xafbc_077a_5456_ab85,
            ),
        ] {
            let query = Verifier::new()
                .design(design)
                .contract(Contract::Sandboxing)
                .scheme(scheme)
                .query()
                .expect("design and contract are set");
            let cell = format!("{}/{}", scheme.name(), design.name());
            let got = (
                netlist_fingerprint(&query.raw_instance().aig),
                netlist_fingerprint(query.instance().aig()),
                query.cache_key(),
            );
            assert_eq!(got, (raw, prepared, key), "{cell}: {got:#018x?}");
        }
    }

    #[test]
    fn cache_stores_only_decided_reports() {
        use csl_contracts::Contract;
        use csl_mc::{ProofEngine, Verdict};

        let dir = std::env::temp_dir().join(format!("csl-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ReportCache::new(&dir);
        let mut report = Report {
            scheme: crate::Scheme::Leave,
            design: crate::DesignKind::SingleCycle,
            contract: Contract::Sandboxing,
            verdict: Verdict::Proof(ProofEngine::Houdini { invariants: 3 }),
            elapsed: std::time::Duration::from_millis(10),
            notes: vec![],
            prepare: vec![],
            fuzz: None,
            solver: Vec::new(),
            certificate: None,
        };
        assert!(cache.load(1).is_none());
        cache.store(1, &report).unwrap();
        assert_eq!(cache.load(1).unwrap(), report);

        report.verdict = Verdict::Timeout;
        cache.store(2, &report).unwrap();
        assert!(cache.load(2).is_none(), "timeouts are never cached");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn may_store_needs_a_verdict_and_under_certify_a_certificate() {
        use csl_contracts::Contract;
        use csl_mc::{CertKind, Certificate, ProofEngine, Trace};

        let report = |verdict, certificate| Report {
            scheme: crate::Scheme::Shadow,
            design: crate::DesignKind::SingleCycle,
            contract: Contract::Sandboxing,
            verdict,
            elapsed: std::time::Duration::from_millis(10),
            notes: vec![],
            prepare: vec![],
            fuzz: None,
            solver: Vec::new(),
            certificate,
        };
        let proof = || Verdict::Proof(ProofEngine::KInduction { k: 2 });
        let bare_proof = report(proof(), None);
        assert!(!may_store(&bare_proof), "the load audit rejects it");
        let cert = Certificate {
            restored: vec![],
            survivors: vec![],
            kind: CertKind::KInduction { k: 2 },
        };
        assert!(may_store(&report(proof(), Some(cert))));
        let trace = Trace {
            initial_latches: vec![],
            inputs: vec![],
            bad_name: "leak".into(),
        };
        assert!(may_store(&report(Verdict::Attack(Box::new(trace)), None)));
        assert!(!may_store(&report(Verdict::Timeout, None)));
    }

    #[test]
    fn counters_track_hits_misses_and_stores() {
        use csl_contracts::Contract;
        use csl_mc::{ProofEngine, Verdict};

        let dir = std::env::temp_dir().join(format!("csl-cache-stats-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ReportCache::new(&dir);
        let mut report = Report {
            scheme: crate::Scheme::Leave,
            design: crate::DesignKind::SingleCycle,
            contract: Contract::Sandboxing,
            verdict: Verdict::Proof(ProofEngine::Houdini { invariants: 3 }),
            elapsed: std::time::Duration::from_millis(10),
            notes: vec![],
            prepare: vec![],
            fuzz: None,
            solver: Vec::new(),
            certificate: None,
        };
        assert_eq!(cache.stats(), CacheStats::default());
        assert!(cache.load(7).is_none());
        cache.store(7, &report).unwrap();
        assert!(cache.load(7).is_some());
        // A skipped (undecided) store must not count.
        report.verdict = Verdict::Timeout;
        cache.store(8, &report).unwrap();
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.stores), (1, 1, 1));
        // Clones share the counter set.
        let clone = cache.clone();
        assert!(clone.load(7).is_some());
        assert_eq!(cache.stats().hits, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_stores_never_expose_torn_entries() {
        use csl_contracts::Contract;
        use csl_mc::{ProofEngine, Verdict};

        let dir = std::env::temp_dir().join(format!("csl-cache-atomic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let report = Report {
            scheme: crate::Scheme::Leave,
            design: crate::DesignKind::SingleCycle,
            contract: Contract::Sandboxing,
            verdict: Verdict::Proof(ProofEngine::Houdini { invariants: 3 }),
            // Enough notes to make the document big enough that a
            // non-atomic write would be observably torn.
            elapsed: std::time::Duration::from_millis(10),
            notes: (0..64).map(|i| format!("filler note {i}")).collect(),
            prepare: vec![],
            fuzz: None,
            solver: Vec::new(),
            certificate: None,
        };
        let key = 0x42u64;
        let cache = ReportCache::new(&dir);
        cache.store(key, &report).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let cache = cache.clone();
                let report = &report;
                scope.spawn(move || {
                    for _ in 0..100 {
                        cache.store(key, report).unwrap();
                    }
                });
            }
            let reader = ReportCache::new(&dir);
            scope.spawn(move || {
                for _ in 0..300 {
                    // The entry exists for the whole loop; with atomic
                    // rename-into-place every read parses.
                    assert!(
                        reader.load(key).is_some(),
                        "reader observed a torn or missing entry"
                    );
                }
            });
        });
        assert_eq!(cache.stats().stores, 301);
        // No tempfile debris left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn size_cap_evicts_least_recently_used() {
        use csl_contracts::Contract;
        use csl_mc::{ProofEngine, Verdict};
        use std::time::{Duration, SystemTime};

        let dir = std::env::temp_dir().join(format!("csl-cache-lru-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let report = Report {
            scheme: crate::Scheme::Leave,
            design: crate::DesignKind::SingleCycle,
            contract: Contract::Sandboxing,
            verdict: Verdict::Proof(ProofEngine::Houdini { invariants: 3 }),
            elapsed: std::time::Duration::from_millis(10),
            notes: vec![],
            prepare: vec![],
            fuzz: None,
            solver: Vec::new(),
            certificate: None,
        };
        let unbounded = ReportCache::new(&dir);
        // Three entries with strictly increasing (old) mtimes so the
        // LRU order is unambiguous regardless of filesystem timestamp
        // granularity.
        let old = SystemTime::now() - Duration::from_secs(3600);
        for key in 1..=3u64 {
            unbounded.store(key, &report).unwrap();
            let f = std::fs::OpenOptions::new()
                .write(true)
                .open(dir.join(format!("{key:016x}.json")))
                .unwrap();
            f.set_modified(old + Duration::from_secs(key)).unwrap();
        }
        let capped = ReportCache::new(&dir).with_max_entries(3);
        assert_eq!(capped.max_entries(), Some(3));
        // A hit refreshes entry 1, making entry 2 the LRU victim.
        assert!(capped.load(1).is_some());
        capped.store(4, &report).unwrap();
        assert_eq!(capped.len(), 3);
        assert!(capped.load(2).is_none(), "LRU entry must be evicted");
        assert!(capped.load(1).is_some(), "recently-hit entry survives");
        assert!(capped.load(3).is_some());
        assert!(capped.load(4).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
