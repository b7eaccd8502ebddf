//! `csl-cover` — coverage-guided stimulus generation for the fuzzing
//! backend.
//!
//! The blind fuzzer (`csl_core::fuzz`) draws every trial fresh from the
//! RNG; the paper's §9 contrast class (Revizor, SpecDoctor) instead
//! *evolves* stimuli toward unexplored microarchitectural state. This
//! crate supplies the two pieces that upgrade the backend:
//!
//! * **Coverage tracking** — [`BatchCoverage`] accumulates per-latch
//!   toggle bitmaps over the 64-lane [`csl_mc::BatchSim`] words (the hot
//!   loop stays mask-only: one XOR + OR per latch per cycle), and
//!   [`CoverageMap`] folds finished trials into a campaign-global view
//!   with stable FNV-1a signatures for dedup.
//! * **Corpus** — a seed-deterministic [`Corpus`] of [`StimulusPair`]s
//!   that reached new coverage, from which the mutators in
//!   [`csl_isa::progen`] (`mutate_stimulus`: splice / flip / stretch)
//!   derive the next generation. [`Corpus::save`]/[`Corpus::load`]
//!   persist it across sessions in a deterministic text format.
//!
//! The campaign runs in isolation from the proof lanes: nothing it
//! reaches is handed to them, and nothing they learn prunes its
//! stimuli.
//!
//! Everything here is deterministic by construction: coverage ingestion
//! happens at fixed generation boundaries, signatures hash sorted latch
//! indices, and the corpus evolves identically for a fixed seed whether
//! trials execute 64-wide or scalar (property-tested in
//! `tests/coverage_equiv.rs`).

use std::collections::HashSet;
use std::io::{self, Read as _, Write as _};
use std::path::Path;

use csl_isa::progen::StimulusPair;
use csl_mc::{BatchState, CoverageStats, SimState};

/// FNV-1a offset basis / prime (64-bit), matching the hashing used by
/// the session cache.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

/// The coverage one finished trial produced: which latches toggled at
/// least once while the trial was valid (assumes held), and how many
/// cycles the trial stayed valid — the speculation-depth proxy the
/// campaign histograms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrialCoverage {
    /// Toggle bitmap, one bit per latch, packed into `u64` words.
    toggled: Vec<u64>,
    /// Number of latches the bitmap covers.
    latches: usize,
    /// Cycles the trial survived with every assume held.
    pub depth: usize,
}

impl TrialCoverage {
    /// An empty record over `latches` latches.
    pub fn new(latches: usize) -> TrialCoverage {
        TrialCoverage {
            toggled: vec![0u64; latches.div_ceil(64)],
            latches,
            depth: 0,
        }
    }

    /// Marks latch `i` as toggled.
    pub fn note_toggle(&mut self, i: usize) {
        debug_assert!(i < self.latches);
        self.toggled[i / 64] |= 1u64 << (i % 64);
    }

    /// Whether latch `i` toggled during the trial.
    pub fn toggled(&self, i: usize) -> bool {
        (self.toggled[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of distinct latches that toggled.
    pub fn count(&self) -> usize {
        self.toggled.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Stable FNV-1a signature over the sorted toggled latch indices
    /// (plus the survival depth), used for corpus dedup. Identical
    /// toggle sets at identical depths collide by design.
    pub fn signature(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for i in 0..self.latches {
            if self.toggled(i) {
                h = fnv1a(h, &(i as u32).to_le_bytes());
            }
        }
        fnv1a(h, &(self.depth as u64).to_le_bytes())
    }
}

/// Per-generation coverage accumulator for the 64-lane batch simulator.
/// `step` costs one XOR + AND + OR per latch per cycle — the same order
/// of work as the simulator's own latch advance — so coverage tracking
/// does not change the batch path's complexity.
#[derive(Clone, Debug)]
pub struct BatchCoverage {
    /// `toggles[i]` is a 64-lane mask: bit `l` set iff latch `i` toggled
    /// at least once in lane `l` while the lane was alive.
    toggles: Vec<u64>,
    /// Per-lane count of cycles survived with assumes held.
    depth: [u32; 64],
}

impl BatchCoverage {
    /// A fresh accumulator over `latches` latches.
    pub fn new(latches: usize) -> BatchCoverage {
        BatchCoverage {
            toggles: vec![0u64; latches],
            depth: [0u32; 64],
        }
    }

    /// Accumulates one simulator step: for every latch, the lanes (still
    /// in `alive`) whose bit changed between `prev` and `next` are OR-ed
    /// into the toggle mask, and each alive lane's depth advances.
    pub fn step(&mut self, prev: &BatchState, next: &BatchState, alive: u64) {
        for (i, t) in self.toggles.iter_mut().enumerate() {
            *t |= (prev.latch(i) ^ next.latch(i)) & alive;
        }
        let mut m = alive;
        while m != 0 {
            let l = m.trailing_zeros() as usize;
            self.depth[l] += 1;
            m &= m - 1;
        }
    }

    /// Extracts lane `l`'s finished-trial record.
    pub fn lane(&self, l: usize) -> TrialCoverage {
        let mut t = TrialCoverage::new(self.toggles.len());
        for (i, w) in self.toggles.iter().enumerate() {
            if (w >> l) & 1 == 1 {
                t.note_toggle(i);
            }
        }
        t.depth = self.depth[l] as usize;
        t
    }
}

/// Scalar counterpart of [`BatchCoverage`]: accumulates one trial's
/// toggles from consecutive [`SimState`]s.
#[derive(Clone, Debug)]
pub struct ScalarCoverage {
    trial: TrialCoverage,
}

impl ScalarCoverage {
    pub fn new(latches: usize) -> ScalarCoverage {
        ScalarCoverage {
            trial: TrialCoverage::new(latches),
        }
    }

    /// Accumulates one valid simulator step (assumes held through it).
    pub fn step(&mut self, prev: &SimState, next: &SimState) {
        for i in 0..prev.num_latches() {
            if prev.latch(i) != next.latch(i) {
                self.trial.note_toggle(i);
            }
        }
        self.trial.depth += 1;
    }

    /// The finished trial record.
    pub fn finish(self) -> TrialCoverage {
        self.trial
    }
}

/// Campaign-global coverage: the union of every trial's toggles, the set
/// of distinct trial signatures, and a histogram of survival depths.
/// [`CoverageMap::ingest`] answers the question the corpus asks — "did
/// this trial reach anything new?" — as: it toggled a latch no previous
/// trial toggled, or its toggle-set/depth signature is unseen.
#[derive(Clone, Debug, Default)]
pub struct CoverageMap {
    global: Vec<u64>,
    latches: usize,
    seen: HashSet<u64>,
    depth_hist: Vec<u64>,
    new_coverage_trials: usize,
}

impl CoverageMap {
    /// An empty map over `latches` latches.
    pub fn new(latches: usize) -> CoverageMap {
        CoverageMap {
            global: vec![0u64; latches.div_ceil(64)],
            latches,
            seen: HashSet::new(),
            depth_hist: Vec::new(),
            new_coverage_trials: 0,
        }
    }

    /// Folds one finished trial in; returns `true` when the trial
    /// reached new coverage (new global latch toggle or new signature).
    pub fn ingest(&mut self, trial: &TrialCoverage) -> bool {
        let mut new_latch = false;
        for (g, t) in self.global.iter_mut().zip(&trial.toggled) {
            if *t & !*g != 0 {
                new_latch = true;
            }
            *g |= *t;
        }
        if self.depth_hist.len() <= trial.depth {
            self.depth_hist.resize(trial.depth + 1, 0);
        }
        self.depth_hist[trial.depth] += 1;
        let new_sig = self.seen.insert(trial.signature());
        let new = new_latch || new_sig;
        if new {
            self.new_coverage_trials += 1;
        }
        new
    }

    /// Number of latches toggled by at least one trial.
    pub fn latches_toggled(&self) -> usize {
        self.global.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of latches the map tracks.
    pub fn latches_total(&self) -> usize {
        self.latches
    }

    /// Number of distinct trial signatures observed.
    pub fn signatures(&self) -> usize {
        self.seen.len()
    }

    /// Trials that reached new coverage when ingested.
    pub fn new_coverage_trials(&self) -> usize {
        self.new_coverage_trials
    }

    /// Histogram of trial survival depths (index = depth in cycles).
    pub fn depth_hist(&self) -> &[u64] {
        &self.depth_hist
    }

    /// Assembles the report-facing summary, folding in the corpus size
    /// the map itself does not track.
    pub fn stats(&self, corpus_size: usize) -> CoverageStats {
        CoverageStats {
            latches_toggled: self.latches_toggled(),
            latches_total: self.latches_total(),
            signatures: self.signatures(),
            new_coverage_trials: self.new_coverage_trials(),
            corpus_size,
        }
    }
}

/// One corpus entry: the stimulus that reached new coverage, its
/// coverage signature and survival depth, and the full active-latch
/// state it reached.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CorpusEntry {
    pub stim: StimulusPair,
    pub signature: u64,
    pub depth: usize,
    /// Toggle activity inside the leak detectors' fan-in cone — how
    /// close this trial came to exciting the property logic. Campaigns
    /// rank mutation parents by it (hot entries breed), so a corpus of
    /// surviving-but-benign programs does not drag the mutant stream
    /// away from the attack surface.
    pub heat: u32,
    /// `(latch index, value)` sorted by index — the reached state.
    pub frontier: Vec<(u32, bool)>,
}

/// The evolving stimulus corpus: entries that reached new coverage, in
/// ingestion order, with ring eviction once `cap` is hit. Selection is
/// by caller-supplied index (the campaign draws it from its seeded RNG),
/// so the corpus itself holds no randomness — a fixed seed replays the
/// identical evolution.
#[derive(Clone, Debug)]
pub struct Corpus {
    entries: Vec<CorpusEntry>,
    cap: usize,
    next_evict: usize,
}

impl Default for Corpus {
    fn default() -> Corpus {
        Corpus::new()
    }
}

impl Corpus {
    /// Default capacity: enough diversity for mutation without letting
    /// the save files grow unboundedly.
    pub const DEFAULT_CAP: usize = 256;

    pub fn new() -> Corpus {
        Corpus::with_capacity(Corpus::DEFAULT_CAP)
    }

    pub fn with_capacity(cap: usize) -> Corpus {
        Corpus {
            entries: Vec::new(),
            cap: cap.max(1),
            next_evict: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn get(&self, i: usize) -> &CorpusEntry {
        &self.entries[i % self.entries.len().max(1)]
    }

    /// Adds an entry, ring-evicting the oldest slot at capacity.
    pub fn push(&mut self, e: CorpusEntry) {
        if self.entries.len() < self.cap {
            self.entries.push(e);
        } else {
            self.entries[self.next_evict] = e;
            self.next_evict = (self.next_evict + 1) % self.cap;
        }
    }

    /// Serializes to a deterministic text format (version-tagged, one
    /// entry per `entry` stanza, hex words).
    fn serialize(&self) -> String {
        let mut s = String::new();
        s.push_str("cslcorpus v2\n");
        s.push_str(&format!("cap {}\nnext {}\n", self.cap, self.next_evict));
        let words = |v: &[u32]| {
            v.iter()
                .map(|w| format!("{w:x}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        for e in &self.entries {
            s.push_str(&format!(
                "entry {:016x} {} {}\n",
                e.signature, e.depth, e.heat
            ));
            s.push_str(&format!("imem {}\n", words(&e.stim.imem)));
            s.push_str(&format!("public {}\n", words(&e.stim.public)));
            s.push_str(&format!("seca {}\n", words(&e.stim.secret_a)));
            s.push_str(&format!("secb {}\n", words(&e.stim.secret_b)));
            let f = e
                .frontier
                .iter()
                .map(|&(i, v)| format!("{i}={}", v as u8))
                .collect::<Vec<_>>()
                .join(" ");
            s.push_str(&format!("frontier {f}\n"));
        }
        s
    }

    /// Writes the corpus atomically (tempfile + rename, like the session
    /// report cache) so a crashed campaign never leaves a torn file.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let tmp = path.with_extension("tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(self.serialize().as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)
    }

    /// Reads a corpus written by [`Corpus::save`]. Malformed content is
    /// an `InvalidData` error — the campaign treats it as "no corpus"
    /// and starts cold.
    pub fn load(path: &Path) -> io::Result<Corpus> {
        let mut text = String::new();
        std::fs::File::open(path)?.read_to_string(&mut text)?;
        Corpus::parse(&text)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed corpus file"))
    }

    fn parse(text: &str) -> Option<Corpus> {
        let mut lines = text.lines();
        if lines.next()? != "cslcorpus v2" {
            return None;
        }
        let cap: usize = lines.next()?.strip_prefix("cap ")?.parse().ok()?;
        let next_evict: usize = lines.next()?.strip_prefix("next ")?.parse().ok()?;
        let mut corpus = Corpus::with_capacity(cap);
        corpus.next_evict = next_evict;
        let words = |l: &str| -> Option<Vec<u32>> {
            if l.is_empty() {
                return Some(Vec::new());
            }
            l.split(' ')
                .map(|w| u32::from_str_radix(w, 16).ok())
                .collect()
        };
        while let Some(head) = lines.next() {
            let mut parts = head.strip_prefix("entry ")?.split(' ');
            let signature = u64::from_str_radix(parts.next()?, 16).ok()?;
            let depth: usize = parts.next()?.parse().ok()?;
            let heat: u32 = parts.next()?.parse().ok()?;
            let imem = words(lines.next()?.strip_prefix("imem ")?)?;
            let public = words(lines.next()?.strip_prefix("public ")?)?;
            let secret_a = words(lines.next()?.strip_prefix("seca ")?)?;
            let secret_b = words(lines.next()?.strip_prefix("secb ")?)?;
            let fline = lines.next()?.strip_prefix("frontier ")?;
            let frontier = if fline.is_empty() {
                Vec::new()
            } else {
                fline
                    .split(' ')
                    .map(|p| {
                        let (i, v) = p.split_once('=')?;
                        Some((i.parse().ok()?, v == "1"))
                    })
                    .collect::<Option<Vec<(u32, bool)>>>()?
            };
            corpus.entries.push(CorpusEntry {
                stim: StimulusPair {
                    imem,
                    public,
                    secret_a,
                    secret_b,
                },
                signature,
                depth,
                heat,
                frontier,
            });
        }
        Some(corpus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_signature_tracks_toggle_set_and_depth() {
        let mut a = TrialCoverage::new(100);
        a.note_toggle(3);
        a.note_toggle(77);
        a.depth = 5;
        let mut b = TrialCoverage::new(100);
        b.note_toggle(77);
        b.note_toggle(3);
        b.depth = 5;
        assert_eq!(a.signature(), b.signature(), "order must not matter");
        assert_eq!(a.count(), 2);
        b.depth = 6;
        assert_ne!(
            a.signature(),
            b.signature(),
            "depth is part of the signature"
        );
        b.depth = 5;
        b.note_toggle(4);
        assert_ne!(
            a.signature(),
            b.signature(),
            "toggle set is part of the signature"
        );
    }

    #[test]
    fn coverage_map_flags_new_latches_and_new_signatures() {
        let mut map = CoverageMap::new(10);
        let mut t1 = TrialCoverage::new(10);
        t1.note_toggle(1);
        t1.depth = 3;
        assert!(map.ingest(&t1), "first trial is always new");
        assert!(!map.ingest(&t1), "replay of the same trial is not new");
        let mut t2 = TrialCoverage::new(10);
        t2.note_toggle(1);
        t2.depth = 4;
        assert!(map.ingest(&t2), "same latch, new signature: still new");
        let mut t3 = TrialCoverage::new(10);
        t3.note_toggle(9);
        t3.depth = 3;
        assert!(map.ingest(&t3), "new latch is new coverage");
        assert_eq!(map.latches_toggled(), 2);
        assert_eq!(map.latches_total(), 10);
        assert_eq!(map.signatures(), 3);
        assert_eq!(map.new_coverage_trials(), 3);
        assert_eq!(map.depth_hist()[3], 3);
        assert_eq!(map.depth_hist()[4], 1);
        let s = map.stats(2);
        assert_eq!(s.corpus_size, 2);
        assert_eq!((s.latches_toggled, s.signatures), (2, 3));
    }

    #[test]
    fn corpus_ring_evicts_and_round_trips_through_disk() {
        let mut c = Corpus::with_capacity(2);
        let entry = |tag: u32| CorpusEntry {
            stim: StimulusPair {
                imem: vec![tag, 2, 3],
                public: vec![4],
                secret_a: vec![5],
                secret_b: vec![6],
            },
            signature: 0xfeed_0000 + tag as u64,
            depth: tag as usize,
            heat: tag * 7,
            frontier: vec![(0, true), (3, false)],
        };
        c.push(entry(1));
        c.push(entry(2));
        c.push(entry(3)); // evicts entry 1
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(0).stim.imem[0], 3);
        assert_eq!(c.get(1).stim.imem[0], 2);

        let dir = std::env::temp_dir().join(format!("csl_cover_t_{}", std::process::id()));
        let path = dir.join("x.corpus");
        c.save(&path).expect("save");
        let back = Corpus::load(&path).expect("load");
        assert_eq!(back.entries, c.entries, "round trip must be lossless");
        assert_eq!(back.cap, c.cap);
        assert_eq!(back.next_evict, c.next_evict);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_corpus_is_invalid_data_not_a_panic() {
        let dir = std::env::temp_dir().join(format!("csl_cover_bad_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.corpus");
        std::fs::write(&path, "not a corpus\n").unwrap();
        let err = Corpus::load(&path).expect_err("must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).ok();
    }
}
