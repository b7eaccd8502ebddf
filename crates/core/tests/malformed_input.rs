//! Malformed persisted input never panics: every char-boundary
//! truncation and a seeded set of single-ASCII-byte substitutions of a
//! small campaign document (attack trace, proof certificate, non-ASCII
//! note text) are fed to `CampaignReport::from_json`, and the same
//! mutations of a result-cache entry holding one of its reports to
//! `ReportCache::load`. Each call must return a value or a typed error.
//! So must a report, a campaign document and a cache entry nested far
//! deeper than any real report, where a parser without a depth cap
//! overflows the stack. A well-formed entry whose certificate is far too
//! costly to check is audited under the query's own wall budget, so it
//! is evicted and re-solved instead of stalling the query. An attack
//! entry whose trace replays to a bad state from outside the reset state
//! is evicted and re-solved too.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use csl_contracts::Contract;
use csl_core::api::{CampaignReport, FuzzStats, Mode, ReadError, Report, ReportCache, Verifier};
use csl_core::{DesignKind, Scheme};
use csl_cpu::Defense;
use csl_hdl::Init;
use csl_mc::unroll::{InitMode, Unroller};
use csl_mc::{
    CertKind, Certificate, Lane, LaneSolverStats, ProofEngine, Sim, SimState, Trace,
    TransitionSystem, Verdict,
};
use csl_sat::SolveResult;

fn campaign() -> CampaignReport {
    let trace = Trace {
        initial_latches: vec![(3, true), (1, false)],
        inputs: vec![
            [(2u32, true), (0u32, false)].into_iter().collect(),
            [(5u32, true)].into_iter().collect(),
        ],
        bad_name: "no_leakage".into(),
    };
    let solver = LaneSolverStats {
        lane: Lane::Bmc,
        propagations: 12_345,
        conflicts: 67,
        decisions: 890,
        restarts: 1,
        reduced_clauses: 0,
    };
    let attack = Report {
        scheme: Scheme::Shadow,
        design: DesignKind::SimpleOoo(Defense::None),
        contract: Contract::Sandboxing,
        verdict: Verdict::Attack(Box::new(trace)),
        elapsed: Duration::new(0, 41_000_000),
        notes: vec![
            "netlist: größe δ=3 — 日本 \"quoted\"\\".into(),
            "bmc [0.04s]: attack at depth 2 … ✓".into(),
        ],
        prepare: Vec::new(),
        fuzz: Some(FuzzStats {
            trials: 64,
            sim_cycles: 1_280,
            wall: Duration::from_millis(3),
            leak_cycle: Some(9),
            seed: 7,
            lanes: 64,
        }),
        solver: vec![solver],
        certificate: None,
    };
    let proof = Report {
        scheme: Scheme::Leave,
        design: DesignKind::SingleCycle,
        contract: Contract::ConstantTime,
        verdict: Verdict::Proof(ProofEngine::Houdini { invariants: 2 }),
        elapsed: Duration::from_millis(250),
        notes: vec!["houdini [0.25s]: proof — 2/2 candidates survive".into()],
        prepare: Vec::new(),
        fuzz: None,
        solver: Vec::new(),
        certificate: Some(Certificate {
            restored: vec![(7, false)],
            survivors: vec![0, 1],
            kind: CertKind::Inductive {
                blocked: vec![vec![(4, true), (9, false)]],
            },
        }),
    };
    CampaignReport {
        reports: vec![attack, proof],
        wall: Duration::from_millis(300),
    }
}

/// A seeded xorshift stream, so the substitution set is fixed without a
/// dependency.
struct Stream(u64);

impl Stream {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

/// Every strict prefix of `text` ending on a char boundary.
fn truncations(text: &str) -> impl Iterator<Item = &str> {
    text.char_indices().map(|(i, _)| &text[..i])
}

/// `n` copies of `text`, each with one ASCII byte replaced by another
/// ASCII byte (so the result stays valid UTF-8), mostly JSON syntax.
fn substitutions(text: &str, seed: u64, n: usize) -> Vec<String> {
    const BYTES: &[u8] = b"\"\\{}[],: \n0123456789-+.eEtfnulrsax";
    let ascii: Vec<usize> = (0..text.len())
        .filter(|&i| text.as_bytes()[i].is_ascii())
        .collect();
    let mut rng = Stream(seed);
    (0..n)
        .map(|_| {
            let mut bytes = text.as_bytes().to_vec();
            bytes[ascii[rng.below(ascii.len())]] = BYTES[rng.below(BYTES.len())];
            String::from_utf8(bytes).expect("an ASCII-for-ASCII swap keeps UTF-8")
        })
        .collect()
}

/// The one entry file of a cache directory holding a single report.
fn entry_file(dir: &Path) -> PathBuf {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(files.len(), 1, "{files:?}");
    files.pop().unwrap()
}

#[test]
fn campaign_decoding_survives_truncations_and_substitutions() {
    let text = campaign().to_json();
    assert_eq!(CampaignReport::from_json(&text).unwrap(), campaign());
    assert!(!text.is_ascii(), "the document must carry multi-byte text");
    // A strict prefix of the object (short of its trailing newline) is
    // never a whole document.
    for cut in truncations(text.trim_end()) {
        assert!(CampaignReport::from_json(cut).is_err(), "{cut:?}");
    }
    for mutated in substitutions(&text, 0x5eed_cafe, 4000) {
        let _ = CampaignReport::from_json(&mutated);
    }
}

#[test]
fn cache_entry_loading_survives_truncations_and_substitutions() {
    let root = std::env::temp_dir().join(format!("csl-cache-fuzz-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    for (key, report) in campaign().reports.into_iter().enumerate() {
        let key = key as u64;
        let dir = root.join(key.to_string());
        let cache = ReportCache::new(&dir);
        cache.store(key, &report).unwrap();
        assert_eq!(cache.load(key), Some(report));
        let entry = entry_file(&dir);
        let text = std::fs::read_to_string(&entry).unwrap();

        // A torn entry is never a whole report: it loads as a miss, and
        // the cell would just re-solve.
        let mut cuts = 0;
        for cut in truncations(text.trim_end()) {
            std::fs::write(&entry, cut).unwrap();
            assert_eq!(cache.load(key), None, "{cut:?}");
            cuts += 1;
        }
        assert_eq!(cache.stats().misses, cuts);
        for mutated in substitutions(&text, 0x0dd_ba11, 2000) {
            std::fs::write(&entry, &mutated).unwrap();
            let _ = cache.load(key);
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// `text` with an array nested 100,000 levels deep (100 KB of brackets)
/// put first into its first `notes` list.
fn deeply_nested(text: &str) -> String {
    const DEPTH: usize = 100_000;
    let nest = "[".repeat(DEPTH) + &"]".repeat(DEPTH);
    let notes = "\"notes\": [";
    assert!(text.contains(notes));
    text.replacen(notes, &format!("{notes}{nest},"), 1)
}

#[test]
fn deeply_nested_documents_are_typed_errors() {
    let campaign = campaign();
    let report = &campaign.reports[0];
    let deep_report = deeply_nested(&report.to_json());
    assert!(matches!(
        Report::from_json(&deep_report),
        Err(ReadError::Json(_))
    ));
    assert!(matches!(
        CampaignReport::from_json(&deeply_nested(&campaign.to_json())),
        Err(ReadError::Json(_))
    ));

    // A cache entry nested that deep is a miss, and the cell re-solves.
    let dir = std::env::temp_dir().join(format!("csl-cache-deep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ReportCache::new(&dir);
    cache.store(0, report).unwrap();
    std::fs::write(entry_file(&dir), &deep_report).unwrap();
    assert_eq!(cache.load(0), None);
    assert_eq!(cache.stats().misses, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Shadow/SingleCycle proves by k-induction at k = 1. The same certificate
/// at k = 8 is valid too, but its base case is an 8-frame reset unrolling
/// of the raw two-copy product, which takes over a minute to check.
/// Verify-on-load runs that check under the query's 2 s wall: the check
/// runs out, the entry is evicted, and the cell re-solves to a PROOF.
#[test]
fn costly_cache_entry_is_audited_under_the_query_budget() {
    let query = Verifier::new()
        .design(DesignKind::SingleCycle)
        .contract(Contract::Sandboxing)
        .scheme(Scheme::Shadow)
        .mode(Mode::Portfolio)
        .wall(Duration::from_secs(2))
        .query()
        .expect("design and contract are set");
    let report = query.run();
    assert!(
        matches!(
            report.certificate.as_ref().map(|c| &c.kind),
            Some(CertKind::KInduction { k: 1 })
        ),
        "{report:?}"
    );

    let dir = std::env::temp_dir().join(format!("csl-cache-costly-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ReportCache::new(&dir);
    cache.store(query.cache_key(), &report).unwrap();
    let entry = entry_file(&dir);
    let text = std::fs::read_to_string(&entry).unwrap();
    // The certificate's `k`, not the verdict's.
    let (head, cert) = text.split_at(text.find("\"certificate\"").expect("a certificate"));
    assert_eq!(cert.matches("\"k\": 1").count(), 1, "{cert}");
    let forged = head.to_string() + &cert.replacen("\"k\": 1", "\"k\": 8", 1);
    std::fs::write(&entry, forged).unwrap();

    let start = Instant::now();
    let again = query.run_cached(&cache);
    let took = start.elapsed();
    assert!(again.verdict.is_proof(), "{}", again.cell());
    assert_eq!(cache.stats().rejected, 1);
    assert!(took < Duration::from_secs(10), "run_cached took {took:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Shadow/SingleCycle is secure, yet a free-initialised depth-0 query on
/// its raw instance is SAT: some state outside the reset state fires a
/// bad bit at once, and the model gives some latches the value against
/// their reset. Stored as an attack under the cell's key, its trace must
/// be rejected on load, and the cell re-solves to its PROOF.
#[test]
fn attack_entry_starting_outside_the_reset_state_is_rejected() {
    let query = Verifier::new()
        .design(DesignKind::SingleCycle)
        .contract(Contract::Sandboxing)
        .scheme(Scheme::Shadow)
        .mode(Mode::Portfolio)
        .bmc_depth(6)
        .wall(Duration::from_secs(10))
        .query()
        .expect("design and contract are set");
    let task = query.raw_instance();
    let ts = TransitionSystem::shared(task.aig.clone(), query.options().keep_probes);
    let mut u = Unroller::new(&ts, InitMode::Free);
    u.assert_assumes_through(0);
    let bad = u.bad_any_at(0);
    assert_eq!(u.solve_with(&[bad]), SolveResult::Sat);
    let bad_name = u.fired_bad_name(0).expect("a bad bit fires");
    let trace = u.extract_trace(1, bad_name);
    let against_reset = trace
        .initial_latches
        .iter()
        .filter(|&&(i, v)| match task.aig.latches()[i as usize].init {
            Init::Zero => v,
            Init::One => !v,
            Init::Symbolic => false,
        })
        .count();
    assert!(against_reset > 0, "{trace:?}");
    // From its own start the cycle fires a bad bit with the assumes
    // holding, but a replay starts from reset and refuses the trace.
    let mut start = SimState::reset(&task.aig);
    for &(i, v) in &trace.initial_latches {
        start.set_latch(i as usize, v);
    }
    let cycle = Sim::new(&task.aig).step(&start, |i, _| trace.input(0, i as u32).unwrap_or(false));
    assert!(cycle.violated_assumes.is_empty() && !cycle.fired_bads.is_empty());
    assert_eq!(Sim::new(&task.aig).replay(&trace), (false, false));

    let mut forged = query.run();
    assert!(forged.verdict.is_proof(), "{}", forged.cell());
    forged.verdict = Verdict::Attack(Box::new(trace));
    forged.certificate = None;
    let dir = std::env::temp_dir().join(format!("csl-cache-off-reset-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ReportCache::new(&dir);
    cache.store(query.cache_key(), &forged).unwrap();
    let again = query.run_cached(&cache);
    assert!(again.verdict.is_proof(), "{}", again.cell());
    assert_eq!(cache.stats().rejected, 1);
    let _ = std::fs::remove_dir_all(&dir);
}
