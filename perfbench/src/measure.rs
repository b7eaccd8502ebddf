//! Measurement plumbing: order statistics, the seeded RNG that permutes
//! cells, host-speed calibration, peak memory, and the exact-repeat
//! ledger.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Median of `xs` (mean of the middle pair for even lengths); 0 for an
/// empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let v = sorted(xs);
    let n = v.len();
    (v[(n - 1) / 2] + v[n / 2]) / 2.0
}

/// Nearest-rank quantile `q` in `(0, 1]`: the smallest sample with at
/// least a `q` share of the samples at or below it; 0 for an empty
/// slice. Unlike interpolation, it never blends two cells' times when a
/// round's cells take very different times.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let v = sorted(xs);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// SplitMix64: a tiny deterministic generator, so the cell order and
/// the fuzz seeds are a pure function of the workload seed.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            xs.swap(i, j);
        }
    }
}

/// Mixes the workload seed with a stream label and an index into an
/// independent seed.
pub fn derive_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut g = SplitMix::new(
        seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407)
            ^ index.wrapping_mul(0x9FB2_1C65_1E98_DF25),
    );
    g.next_u64()
}

/// Words in the calibration table: 64 KiB, small enough to stay in the
/// core's private cache once warm, so a sample measures the core's speed
/// and not how much of the cache the verifier just evicted.
const CAL_WORDS: usize = 1 << 14;

/// Dependent loads in one calibration sample, after a warm-up pass over
/// the table.
const CAL_STEPS: usize = 200_000;

/// Calibration samples on each side of a span that its host-speed
/// estimate takes the median of, besides the two that bracket it.
const CAL_WINDOW: usize = 2;

/// Median seconds of one calibration sample on a quiet host (2-core
/// Xeon VM): normalized times are seconds at that host's speed.
const CAL_NOMINAL_SECS: f64 = 0.00058;

/// A single random cycle through `CAL_WORDS` slots (Sattolo's shuffle),
/// so the chase in [`calibration_kernel`] visits the whole table.
fn calibration_table() -> &'static [u32] {
    static TABLE: std::sync::OnceLock<Vec<u32>> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        let mut next: Vec<u32> = (0..CAL_WORDS as u32).collect();
        let mut g = SplitMix::new(0x5EED);
        for i in (1..CAL_WORDS).rev() {
            let j = (g.next_u64() % i as u64) as usize;
            next.swap(i, j);
        }
        next
    })
}

/// A fixed unit of work that shares no code with the verifier: a
/// dependent pointer chase through [`calibration_table`] mixed with
/// integer hashing, the two things a SAT search spends its time on.
fn calibration_kernel(table: &[u32], steps: usize) -> u64 {
    let (mut at, mut h) = (0usize, 0xcbf2_9ce4_8422_2325u64);
    for _ in 0..steps {
        at = table[at] as usize;
        h = (h ^ at as u64).wrapping_mul(0x0000_0100_0000_01b3);
        h ^= h >> 29;
    }
    h
}

/// A timed interval and the calibration samples taken just before and
/// just after it.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub secs: f64,
    before: usize,
    after: usize,
}

/// Host-speed calibration. Shared VMs change speed by tens of percent
/// over seconds to minutes, and a whole run drifts with them. Every
/// span the clock times is bracketed by samples of a fixed kernel that
/// shares no code with the verifier; [`HostClock::normalized`] scales
/// the span by how much slower than nominal the kernel ran around it.
/// A faster verifier still reads faster; a slower host does not read
/// as a slower verifier.
#[derive(Default)]
pub struct HostClock {
    samples: Vec<f64>,
}

impl HostClock {
    fn sample(&mut self) -> usize {
        let table = calibration_table();
        std::hint::black_box(calibration_kernel(table, CAL_WORDS));
        let t = Instant::now();
        std::hint::black_box(calibration_kernel(table, std::hint::black_box(CAL_STEPS)));
        self.samples.push(t.elapsed().as_secs_f64());
        self.samples.len() - 1
    }

    /// Runs `f` between two calibration samples, timed from call to
    /// return.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Span) {
        let before = self.sample();
        let t = Instant::now();
        let out = f();
        let secs = t.elapsed().as_secs_f64();
        let after = self.sample();
        (
            out,
            Span {
                secs,
                before,
                after,
            },
        )
    }

    /// `span.secs` at the nominal host speed: scaled by
    /// [`CAL_NOMINAL_SECS`] over the median of the calibration samples
    /// around the span.
    pub fn normalized(&self, span: Span) -> f64 {
        let lo = span.before.saturating_sub(CAL_WINDOW);
        let hi = (span.after + CAL_WINDOW + 1).min(self.samples.len());
        span.secs * CAL_NOMINAL_SECS / median(&self.samples[lo..hi])
    }

    /// How fast the host ran over the whole run, relative to nominal.
    pub fn host_speed(&self) -> f64 {
        CAL_NOMINAL_SECS / median(&self.samples)
    }
}

/// Hands freed heap pages back to the kernel, so that a following
/// peak-RSS reading starts from live memory rather than from whatever the
/// allocator kept from earlier work.
fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers and only returns
        // free heap memory to the kernel; it may be called at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Resets the kernel's peak resident set size of this process
/// (`VmHWM`), so the next [`peak_rss_mb`] covers only what runs after.
/// A no-op where `/proc` does not allow it.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `f` from a trimmed heap with the peak reset; returns its result
/// and the peak resident set size while it ran, MiB.
pub fn with_peak<T>(f: impl FnOnce() -> T) -> (T, f64) {
    release_free_memory();
    reset_peak_rss();
    let out = f();
    (out, peak_rss_mb())
}

/// FNV-1a over a file's bytes; identifies the built benchmark binary so
/// the repeat ledger never compares counts across different builds.
pub fn file_fingerprint(path: &Path) -> u64 {
    let bytes = std::fs::read(path).unwrap_or_default();
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Counts that must repeat exactly — per cell verdicts, fuzz leak trials
/// per seed, sequential solver counters — recorded across rounds of one
/// run and, through a file next to the benchmark binary, across runs of
/// the same build. Any value that differs from its first recording is a
/// mismatch.
pub struct Ledger {
    path: Option<PathBuf>,
    known: BTreeMap<String, String>,
    fresh: BTreeMap<String, String>,
    mismatches: Vec<String>,
}

impl Ledger {
    /// A ledger that persists to `path` (loading what earlier runs
    /// recorded there), or an in-memory one for `None`.
    pub fn open(path: Option<PathBuf>) -> Ledger {
        let known = path
            .as_ref()
            .and_then(|p| std::fs::read_to_string(p).ok())
            .map(|text| {
                text.lines()
                    .filter_map(|l| l.split_once('\t'))
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect()
            })
            .unwrap_or_default();
        Ledger {
            path,
            known,
            fresh: BTreeMap::new(),
            mismatches: Vec::new(),
        }
    }

    /// Records `value` under `key`, flagging a mismatch against any
    /// earlier recording in this run or a previous one.
    pub fn check(&mut self, key: &str, value: &str) {
        let earlier = self.known.get(key).or_else(|| self.fresh.get(key));
        match earlier {
            Some(v) if v != value => self
                .mismatches
                .push(format!("{key}: {value} (earlier {v})")),
            Some(_) => {}
            None => {
                self.fresh.insert(key.to_string(), value.to_string());
            }
        }
    }

    pub fn mismatches(&self) -> &[String] {
        &self.mismatches
    }

    /// Appends this run's new keys to the ledger file. A mismatching run
    /// records nothing, so one bad run cannot become the reference.
    pub fn save(&self) -> std::io::Result<()> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        if !self.mismatches.is_empty() || self.fresh.is_empty() {
            return Ok(());
        }
        let mut all = self.known.clone();
        all.extend(self.fresh.clone());
        let text: String = all.iter().map(|(k, v)| format!("{k}\t{v}\n")).collect();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let tmp = path.with_extension(format!("tmp{}", std::process::id()));
        std::fs::write(&tmp, text)?;
        std::fs::rename(&tmp, path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(quantile(&xs, 0.5), 2.0);
        assert_eq!(quantile(&xs, 0.9), 4.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        // Nine cells per round: p90 stays inside the slowest cell's group
        // whatever the number of rounds.
        for rounds in 1..20 {
            let xs: Vec<f64> = (0..9 * rounds).map(|i| (i % 9) as f64).collect();
            assert_eq!(quantile(&xs, 0.9), 8.0);
        }
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..9).collect();
        let mut b = a.clone();
        SplitMix::new(5).shuffle(&mut a);
        SplitMix::new(5).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(sorted, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn normalized_time_follows_the_samples_around_the_span() {
        let mut clock = HostClock::default();
        let (_, first) = clock.time(|| ());
        assert_eq!((first.before, first.after), (0, 1));
        // A host at half speed around the first span, at nominal speed
        // around the second: the first span halves, the second keeps.
        clock.samples = vec![2.0 * CAL_NOMINAL_SECS; 4];
        clock.samples.extend([CAL_NOMINAL_SECS; 4]);
        let first = Span { secs: 1.0, ..first };
        let second = Span {
            secs: 1.0,
            before: 6,
            after: 7,
        };
        assert_eq!(clock.normalized(first), 0.5);
        assert_eq!(clock.normalized(second), 1.0);
    }

    #[test]
    fn ledger_flags_changed_values_only() {
        let mut l = Ledger::open(None);
        l.check("a", "1");
        l.check("a", "1");
        assert!(l.mismatches().is_empty());
        l.check("a", "2");
        assert_eq!(l.mismatches().len(), 1);
    }
}
