//! `csl-synth` — CEGIS contract synthesis: infer the strongest sound
//! leakage contract per design.
//!
//! The paper verifies a design against a *given* contract; this crate
//! inverts the question. The space of contracts is the lattice of
//! [`ObsSet`]s — subsets of the observation-atom grammar
//! ([`csl_contracts::ObsAtom`]), ordered by inclusion. Fewer atoms =
//! stronger contract (less the software must promise, more programs the
//! guarantee covers), and soundness is monotone upward: if a design is
//! sound under `A ⊆ B` it is sound under `B`, because equality of the
//! `B`-records implies equality of the `A`-records. The *strongest sound*
//! contract is therefore a well-defined minimal point, and the
//! [`Synthesizer`] finds it by counterexample-guided inductive synthesis:
//!
//! 1. **Grow.** Start from the most precise candidate — observe nothing
//!    (`ObsSet::EMPTY`). Verify the design against the candidate with the
//!    full engine stack. An attack verdict means the candidate is
//!    refuted: replay the counterexample (see [`cex`]), diff the two
//!    retirement streams atom by atom, and add the cheapest separating
//!    atom. The candidate grows strictly, so no refuted candidate is
//!    ever re-proposed. No separating atom means the leak is invisible
//!    to every contract in the grammar — a transient leak — and the
//!    design has **no sound contract** on this lattice.
//! 2. **Descend.** A certified proof means the candidate is sound; now
//!    confirm it is *minimal*: try dropping each atom in turn, and
//!    require every drop to re-attack. A drop that proves instead
//!    becomes the new (smaller) candidate and the descent restarts; a
//!    drop already refuted during the grow phase is reused without
//!    solving.
//!
//! Every query goes through [`csl_core::api::Query::run_cached`] when a
//! cache is configured, so repeated lattice walks (CI gates, re-runs,
//! neighbouring designs sharing sub-queries) are served from disk — with
//! verify-on-load auditing each served verdict.

pub mod cex;

use std::time::{Duration, Instant};

use csl_contracts::{Contract, ObsAtom, ObsSet};
use csl_core::api::{Query, Report, ReportCache, Verifier};
use csl_core::{DesignKind, Scheme};
use csl_mc::Verdict;

pub use cex::{cheapest_new_atom, commit_streams, separating_atoms, CommitEvent};

/// Which half of the CEGIS loop a step belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SynthPhase {
    /// Weakening walk upward from the empty observation set.
    Grow,
    /// Minimality confirmation: single-atom drops from a sound candidate.
    Descent,
}

/// One verification query the synthesizer issued, with everything needed
/// to audit it after the fact: the candidate, the full [`Report`]
/// (verdict, certificate, witness), and what the driver concluded.
#[derive(Clone, Debug)]
pub struct SynthStep {
    pub phase: SynthPhase,
    /// The observation set this step verified the design against.
    pub candidate: ObsSet,
    /// The full verification report (evidence included).
    pub report: Report,
    /// The atom the counterexample analysis added (grow-phase attacks
    /// only).
    pub separating: Option<ObsAtom>,
    /// The report was served from the result cache (verify-on-load
    /// audited) rather than solved.
    pub from_cache: bool,
}

impl SynthStep {
    /// Short verdict text ("CEX", "PROOF", ...).
    pub fn cell(&self) -> &'static str {
        self.report.verdict.cell()
    }
}

/// How the synthesis ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SynthOutcome {
    /// The final candidate carries a certified proof.
    Sound,
    /// A counterexample had no separating atom: the leak is transient
    /// (invisible to every retirement-stream contract) and no contract
    /// on this lattice makes the design sound.
    NoSoundContract,
    /// A grow-phase query timed out or returned unknown; the final
    /// candidate is the last one proposed, with no soundness claim.
    Inconclusive,
}

/// The synthesis verdict for one design: the contract, the evidence
/// trail, and the reuse accounting.
#[derive(Clone, Debug)]
pub struct SynthesisResult {
    pub design: DesignKind,
    pub outcome: SynthOutcome,
    /// The final observation set (the strongest sound contract when
    /// `outcome` is [`SynthOutcome::Sound`]).
    pub contract: ObsSet,
    /// Every query issued, in order: the refutation path followed by the
    /// descent checks.
    pub steps: Vec<SynthStep>,
    /// Atoms whose single-atom drop is refuted — provably necessary
    /// members of the contract.
    pub necessary: Vec<ObsAtom>,
    /// Every single-atom drop re-attacked (the sound candidate is a
    /// confirmed local minimum of the lattice).
    pub minimal_confirmed: bool,
    /// Queries answered by solving.
    pub solved: usize,
    /// Queries served from the result cache.
    pub cache_hits: usize,
    /// Descent drops answered from the grow phase's refutation set
    /// without issuing a query at all.
    pub reused: usize,
    pub elapsed: Duration,
}

impl SynthesisResult {
    /// The synthesized contract as a [`Contract`] (canonicalized to a
    /// named variant when it coincides with one).
    pub fn synthesized(&self) -> Contract {
        Contract::from_obs(self.contract)
    }

    /// The grow-phase trail: each refuted candidate with the atom its
    /// counterexample forced in.
    pub fn refutation_path(&self) -> Vec<(ObsSet, ObsAtom)> {
        self.steps
            .iter()
            .filter(|s| s.phase == SynthPhase::Grow)
            .filter_map(|s| Some((s.candidate, s.separating?)))
            .collect()
    }

    /// One-paragraph human-readable summary.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}: {:?} -> {} ({} solved, {} cached, {} reused, {:.1}s)",
            self.design.name(),
            self.outcome,
            self.synthesized().name(),
            self.solved,
            self.cache_hits,
            self.reused,
            self.elapsed.as_secs_f64()
        );
        for s in &self.steps {
            let _ = writeln!(
                out,
                "  [{}] obs:{:<40} {:6}{}{}",
                match s.phase {
                    SynthPhase::Grow => "grow",
                    SynthPhase::Descent => "drop",
                },
                s.candidate.encode(),
                s.cell(),
                match s.separating {
                    Some(a) => format!("  +{}", a.name()),
                    None => String::new(),
                },
                if s.from_cache { "  (cache)" } else { "" }
            );
        }
        out
    }
}

/// The CEGIS driver. Configure the underlying verification session (the
/// budget, engine mode, and scheme every lattice query runs under), then
/// [`Synthesizer::synthesize`] per design.
#[derive(Clone, Debug)]
pub struct Synthesizer {
    base: Verifier,
    scheme: Scheme,
    cache: Option<ReportCache>,
}

impl Default for Synthesizer {
    fn default() -> Synthesizer {
        Synthesizer {
            base: Verifier::new(),
            scheme: Scheme::Shadow,
            cache: None,
        }
    }
}

impl Synthesizer {
    /// A fresh driver: Contract Shadow Logic scheme, default budget, no
    /// cache.
    pub fn new() -> Synthesizer {
        Synthesizer::default()
    }

    /// Replaces the base verification session (wall clock, mode, depth,
    /// preparation, ... — design/contract/scheme are overridden per
    /// query).
    pub fn verifier(mut self, base: Verifier) -> Synthesizer {
        self.base = base;
        self
    }

    /// The verification scheme every lattice query runs (default:
    /// Contract Shadow Logic — the only scheme of the four that is both
    /// sound and complete-enough on the OoO designs).
    pub fn scheme(mut self, scheme: Scheme) -> Synthesizer {
        self.scheme = scheme;
        self
    }

    /// Routes every query through the persistent `cache`, its size cap
    /// included (verify-on-load audited; see `Query::run_cached`).
    pub fn cache(mut self, cache: ReportCache) -> Synthesizer {
        self.cache = Some(cache);
        self
    }

    /// The fully-resolved query one lattice point runs.
    pub fn query_for(&self, design: DesignKind, set: ObsSet) -> Query {
        self.base
            .clone()
            .design(design)
            .contract(Contract::from_obs(set))
            .scheme(self.scheme)
            .query()
            .expect("design and contract are always set")
    }

    fn run_one(&self, design: DesignKind, set: ObsSet) -> Report {
        let query = self.query_for(design, set);
        match &self.cache {
            Some(c) => query.run_cached(c),
            None => query.run(),
        }
    }

    /// Runs the CEGIS loop for one design to a [`SynthesisResult`].
    pub fn synthesize(&self, design: DesignKind) -> SynthesisResult {
        let start = Instant::now();
        let isa = self
            .query_for(design, ObsSet::EMPTY)
            .config()
            .cpu_config()
            .isa;

        let mut candidate = ObsSet::EMPTY;
        let mut refuted: Vec<ObsSet> = Vec::new();
        let mut steps: Vec<SynthStep> = Vec::new();
        let mut reused = 0usize;

        // -- Grow: weaken until the design proves -------------------------
        let outcome = loop {
            let report = self.run_one(design, candidate);
            let from_cache = served(&report);
            match &report.verdict {
                Verdict::Proof(_) => {
                    steps.push(SynthStep {
                        phase: SynthPhase::Grow,
                        candidate,
                        report,
                        separating: None,
                        from_cache,
                    });
                    break SynthOutcome::Sound;
                }
                Verdict::Attack(trace) => {
                    let aig = self.query_for(design, candidate).raw_instance().aig;
                    let [s1, s2] = commit_streams(&aig, trace);
                    let seps = separating_atoms(&isa, &s1, &s2);
                    let atom = cheapest_new_atom(&isa, &seps, candidate);
                    steps.push(SynthStep {
                        phase: SynthPhase::Grow,
                        candidate,
                        report,
                        separating: atom,
                        from_cache,
                    });
                    match atom {
                        None => break SynthOutcome::NoSoundContract,
                        Some(a) => {
                            refuted.push(candidate);
                            candidate = candidate.with(a);
                            debug_assert!(
                                !refuted.contains(&candidate),
                                "strict growth can never revisit a refuted candidate"
                            );
                        }
                    }
                }
                _ => {
                    steps.push(SynthStep {
                        phase: SynthPhase::Grow,
                        candidate,
                        report,
                        separating: None,
                        from_cache,
                    });
                    break SynthOutcome::Inconclusive;
                }
            }
        };

        // -- Descend: confirm minimality of a sound candidate -------------
        let mut minimal_confirmed = outcome == SynthOutcome::Sound;
        if outcome == SynthOutcome::Sound {
            'descent: loop {
                let drops: Vec<ObsAtom> = candidate.atoms().collect();
                let mut pending: Vec<ObsSet> = Vec::new();
                for atom in drops {
                    let dropped = candidate.without(atom);
                    if refuted.contains(&dropped) {
                        // The grow phase already attacked this exact set;
                        // the drop is refuted without a query.
                        reused += 1;
                    } else {
                        pending.push(dropped);
                    }
                }
                let reports: Vec<Report> = pending
                    .iter()
                    .map(|&set| self.run_one(design, set))
                    .collect();
                for (dropped, report) in pending.into_iter().zip(reports) {
                    let from_cache = served(&report);
                    let is_attack = report.verdict.is_attack();
                    let is_proof = report.verdict.is_proof();
                    steps.push(SynthStep {
                        phase: SynthPhase::Descent,
                        candidate: dropped,
                        report,
                        separating: None,
                        from_cache,
                    });
                    if is_attack {
                        refuted.push(dropped);
                    } else if is_proof {
                        // The candidate was not minimal after all: adopt
                        // the smaller sound set and restart the descent
                        // from it.
                        candidate = dropped;
                        continue 'descent;
                    } else {
                        minimal_confirmed = false;
                    }
                }
                break;
            }
        }

        let necessary: Vec<ObsAtom> = candidate
            .atoms()
            .filter(|&a| refuted.contains(&candidate.without(a)))
            .collect();
        let cache_hits = steps.iter().filter(|s| s.from_cache).count();
        SynthesisResult {
            design,
            outcome,
            contract: candidate,
            solved: steps.len() - cache_hits,
            cache_hits,
            reused,
            steps,
            necessary,
            minimal_confirmed,
            elapsed: start.elapsed(),
        }
    }
}

fn served(report: &Report) -> bool {
    report
        .notes
        .iter()
        .any(|n| n.starts_with("served from cache"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults() {
        let s = Synthesizer::new();
        assert_eq!(s.scheme, Scheme::Shadow);
        assert!(s.cache.is_none());
        let q = s.query_for(DesignKind::SingleCycle, ObsSet::EMPTY);
        assert_eq!(q.contract(), Contract::Custom(ObsSet::EMPTY));
        assert_eq!(q.scheme(), Scheme::Shadow);
    }

    #[test]
    fn result_accessors() {
        let r = SynthesisResult {
            design: DesignKind::SingleCycle,
            outcome: SynthOutcome::Sound,
            contract: Contract::sandboxing_set(),
            steps: Vec::new(),
            necessary: vec![ObsAtom::LoadData],
            minimal_confirmed: true,
            solved: 3,
            cache_hits: 1,
            reused: 1,
            elapsed: Duration::from_secs(1),
        };
        assert_eq!(r.synthesized(), Contract::Sandboxing);
        assert!(r.refutation_path().is_empty());
        assert!(r.render().contains("sandboxing"));
    }
}
