//! The session API's contract with the rest of the repo:
//!
//! 1. **Certified evidence** — every decided verdict of the SingleCycle
//!    smoke matrix (the stable-verdict workhorse) carries evidence that
//!    re-checks independently via `csl_certify`: proofs an inductive
//!    certificate, attacks a replayable witness.
//! 2. **Persistence** — a report produced by a real verification run
//!    round-trips through JSON losslessly and byte-stably, and survives
//!    a file-system write/read cycle (what the `smoke --json` CI
//!    artifact does).
//! 3. **Regression diffing** — `CampaignReport::diff` flags an injected
//!    verdict flip and stays clean on an identical run.
//! 4. **Caching** — `Query::cache_key` is stable and option-sensitive,
//!    and a cached matrix serves decided cells from disk on the rerun.

use std::time::Duration;

use csl_certify::{check_certificate, check_witness, Witness};
use csl_contracts::Contract;
use csl_core::api::{CampaignReport, Mode, PrepareConfig, Report, ReportCache, Verifier};
use csl_core::{DesignKind, ExcludeRule, Scheme, ShadowOptions};
use csl_mc::{ProofEngine, Verdict};

const BUDGET: Duration = Duration::from_secs(10);
const DEPTH: usize = 4;

fn builder(scheme: Scheme) -> Verifier {
    Verifier::new()
        .design(DesignKind::SingleCycle)
        .contract(Contract::Sandboxing)
        .scheme(scheme)
        .wall(BUDGET)
        .bmc_depth(DEPTH)
}

/// Every decided smoke-matrix verdict must carry evidence that an
/// independent checker accepts against the *unprepared* instance: an
/// attack replays to a bad state, a proof's certificate passes its
/// three obligations. A decided cell with no evidence is a failure —
/// that is the certificate subsystem's whole claim.
#[test]
fn every_decided_smoke_cell_carries_validatable_evidence() {
    let mut decided = 0;
    for scheme in Scheme::ALL {
        let query = builder(scheme).query().unwrap();
        let report = query.run();
        match &report.verdict {
            Verdict::Attack(trace) => {
                decided += 1;
                let task = query.raw_instance();
                let check = check_witness(&task.aig, &Witness::new((**trace).clone()));
                assert!(
                    check.is_ok(),
                    "{}: attack witness must replay: {:?}",
                    scheme.name(),
                    check
                );
            }
            Verdict::Proof(engine) => {
                decided += 1;
                let cert = report.certificate.as_ref().unwrap_or_else(|| {
                    panic!(
                        "{}: proof ({engine:?}) must carry a certificate",
                        scheme.name()
                    )
                });
                let check = check_certificate(&query.raw_instance(), cert);
                assert!(
                    check.is_ok(),
                    "{}: certificate must validate: {:?}",
                    scheme.name(),
                    check
                );
            }
            // Budget-dependent (a loaded machine can time any scheme
            // out): nothing decided means nothing to audit.
            _ => {}
        }
    }
    assert!(
        decided >= 2,
        "the smoke matrix must decide at least the fast cells (got {decided})"
    );
}

/// `Verifier::into_matrix(..).run_all()` agrees with running each cell's
/// query individually: same cells, same order, same verdict kinds.
#[test]
fn matrix_matches_per_cell_queries() {
    let session = Verifier::new()
        .wall(BUDGET)
        .bmc_depth(DEPTH)
        .mode(Mode::Portfolio)
        .into_matrix(
            &Scheme::ALL,
            &[DesignKind::SingleCycle],
            &[Contract::Sandboxing],
        )
        .run_all();
    assert_eq!(session.reports.len(), Scheme::ALL.len());
    for report in &session.reports {
        let single = builder(report.scheme)
            .mode(Mode::Portfolio)
            .query()
            .unwrap()
            .run();
        assert_eq!(
            single.cell(),
            report.cell(),
            "{}: single {:?} vs matrix {:?}",
            report.label(),
            single.verdict,
            report.verdict
        );
    }
}

/// A report from a real run (LEAVE proof on SingleCycle — decisive and
/// fast) round-trips through JSON losslessly and byte-for-byte stably,
/// including through a real file.
#[test]
fn real_report_json_round_trips() {
    let report = builder(Scheme::Leave).query().unwrap().run();
    assert!(report.verdict.is_proof(), "{:?}", report.verdict);

    let text = report.to_json();
    let parsed = Report::from_json(&text).unwrap();
    assert_eq!(parsed, report);
    assert_eq!(parsed.to_json(), text, "re-serialization must be canonical");

    let dir = std::env::temp_dir().join("csl-api-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("report.json");
    std::fs::write(&path, &text).unwrap();
    let reread = Report::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(reread, report);
    let _ = std::fs::remove_file(&path);
}

/// An attack verdict (trace included) survives the campaign-level round
/// trip too: run the smoke matrix, persist, reload, compare.
#[test]
fn campaign_json_round_trips_with_live_verdicts() {
    let campaign = Verifier::new()
        .wall(BUDGET)
        .bmc_depth(DEPTH)
        .mode(Mode::Portfolio)
        .into_matrix(
            &Scheme::ALL,
            &[DesignKind::SingleCycle],
            &[Contract::Sandboxing],
        )
        .run_all();
    let text = campaign.to_json();
    let parsed = CampaignReport::from_json(&text).unwrap();
    assert_eq!(parsed, campaign);
    assert_eq!(parsed.to_json(), text);
    // CSV: one row per cell plus the header.
    assert_eq!(
        campaign.to_csv().lines().count(),
        campaign.reports.len() + 1
    );
}

/// Diffing two runs: identical verdicts diff clean (even with different
/// timings); an injected verdict flip is flagged, and losing the decisive
/// proof is a regression.
#[test]
fn diff_flags_injected_verdict_flip() {
    let report = builder(Scheme::Leave).query().unwrap().run();
    let before = CampaignReport {
        reports: vec![report],
        wall: Duration::from_secs(1),
    };

    let mut same = before.clone();
    same.reports[0].elapsed += Duration::from_secs(5);
    same.wall = Duration::from_secs(9);
    assert!(before.diff(&same).is_clean());

    let mut after = before.clone();
    after.reports[0].verdict = Verdict::Timeout;
    let diff = before.diff(&after);
    assert!(diff.has_regressions(), "{diff:?}");
    assert_eq!(diff.changes.len(), 1);
    assert_eq!(diff.changes[0].before, "PROOF");
    assert_eq!(diff.changes[0].after, "T/O");

    // The reverse direction (gaining a proof) is a change, not a
    // regression.
    let gain = after.diff(&before);
    assert!(!gain.is_clean());
    assert!(!gain.has_regressions());

    // Flipping one decisive kind into the other (a PROOF cell suddenly
    // reporting an attack) is a regression too: soundness changed.
    let mut flipped = before.clone();
    flipped.reports[0].verdict = Verdict::Attack(Box::new(csl_mc::Trace {
        initial_latches: vec![],
        inputs: vec![Default::default(); 3],
        bad_name: "no_leakage".into(),
    }));
    let flip = before.diff(&flipped);
    assert!(flip.has_regressions(), "{flip:?}");
    assert_eq!(flip.changes[0].after, "CEX");

    // An engine change inside the same verdict kind (k-induction proof
    // instead of Houdini) is not a verdict change at all.
    let mut same_kind = before.clone();
    same_kind.reports[0].verdict = Verdict::Proof(ProofEngine::KInduction { k: 1 });
    assert!(before.diff(&same_kind).is_clean());
}

/// The cache key distinguishes every axis it claims to cover while
/// staying stable for identical queries: each identity axis and each
/// `Verifier` setter (the fuzz plan's is covered in `fuzz_backend.rs`)
/// must reach `Query::cache_key`, or the cache would serve another
/// query's report.
#[test]
fn cache_key_covers_the_query_identity() {
    let mut bigger_imem = DesignKind::SingleCycle.cpu_config();
    bigger_imem.isa.imem_size *= 2;
    let base = builder(Scheme::Shadow).query().unwrap();
    let again = builder(Scheme::Shadow).query().unwrap();
    assert_eq!(
        base.cache_key(),
        again.cache_key(),
        "identical queries must share a key"
    );
    let different: Vec<u64> = vec![
        builder(Scheme::Leave).query().unwrap().cache_key(),
        builder(Scheme::Shadow)
            .contract(Contract::ConstantTime)
            .query()
            .unwrap()
            .cache_key(),
        builder(Scheme::Shadow)
            .bmc_depth(DEPTH + 1)
            .query()
            .unwrap()
            .cache_key(),
        builder(Scheme::Shadow)
            .mode(Mode::Portfolio)
            .query()
            .unwrap()
            .cache_key(),
        builder(Scheme::Shadow)
            .design(DesignKind::InOrder)
            .query()
            .unwrap()
            .cache_key(),
        builder(Scheme::Shadow)
            .wall(BUDGET * 2)
            .query()
            .unwrap()
            .cache_key(),
        builder(Scheme::Shadow)
            .attack_only(true)
            .query()
            .unwrap()
            .cache_key(),
        builder(Scheme::Shadow)
            .prepare(PrepareConfig::off())
            .query()
            .unwrap()
            .cache_key(),
        builder(Scheme::Shadow)
            .excludes(&[ExcludeRule::TakenBranches])
            .query()
            .unwrap()
            .cache_key(),
        builder(Scheme::Shadow)
            .cpu_override(bigger_imem)
            .query()
            .unwrap()
            .cache_key(),
        builder(Scheme::Shadow)
            .shadow(ShadowOptions {
                enable_drain: false,
                ..ShadowOptions::default()
            })
            .query()
            .unwrap()
            .cache_key(),
        builder(Scheme::Shadow)
            .with_candidates(false)
            .query()
            .unwrap()
            .cache_key(),
    ];
    for (i, key) in different.iter().enumerate() {
        assert_ne!(*key, base.cache_key(), "axis {i} must change the key");
    }
}

/// A cached matrix run serves decided cells from disk on the second
/// pass: LEAVE proves SingleCycle fast, so its rerun must be a cache hit
/// with the verdict intact.
#[test]
fn matrix_rerun_serves_decided_cells_from_cache() {
    let dir = std::env::temp_dir().join(format!("csl-matrix-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let matrix = || {
        Verifier::new().wall(BUDGET).bmc_depth(DEPTH).into_matrix(
            &[Scheme::Leave],
            &[DesignKind::SingleCycle],
            &[Contract::Sandboxing],
        )
    };
    let cached = || matrix().cache(ReportCache::new(&dir));
    let first = cached().run_all();
    assert!(first.reports[0].verdict.is_proof());
    assert!(
        !first.reports[0].notes.iter().any(|n| n.contains("cache")),
        "first run must be a miss"
    );

    let second = cached().run_all();
    assert!(second.reports[0].verdict.is_proof());
    assert!(
        second.reports[0]
            .notes
            .iter()
            .any(|n| n.starts_with("served from cache")),
        "second run must hit: {:?}",
        second.reports[0].notes
    );
    assert!(first.diff(&second).is_clean());

    // A matrix without a cache ignores the populated one.
    let bypass = matrix().run_all();
    assert!(
        !bypass.reports[0].notes.iter().any(|n| n.contains("cache")),
        "an uncached matrix must run fresh"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
