//! End-to-end benchmark of knock-talk.
//!
//! Two closed-loop batch workloads, each built from `--seed` and run
//! through the public API of `knock-talk` only:
//!
//! - `study` ([`study`]): the work of `knocktalk repro --scale standard`;
//! - `study_journal` ([`study`]): the same with `--journal`, writing
//!   the on-disk journal.
//!
//! [`probe`] is the separate traced run: it wraps every call into the
//! layers' public functions in a span ([`spans`]) and derives the
//! per-layer metrics, those of the reanalysis path ([`reanalyze`]: the
//! work of `knocktalk analyze` on the study's journal) and the capture
//! path ([`capture`]: the work of `knocktalk classify` over Chrome
//! `net-export` captures) included.
//! [`host`] records the host beside every run.
//! See `README.md` beside this crate for metrics, units and the
//! steadiness record.

pub mod capture;
pub mod host;
pub mod probe;
pub mod reanalyze;
pub mod spans;
pub mod study;

use std::path::PathBuf;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Standard-scale study plus every table, figure and extension.
    Study,
    /// The same study writing its journal.
    StudyJournal,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::Study, Workload::StudyJournal];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Study => "study",
            Workload::StudyJournal => "study_journal",
        }
    }

    /// Parse a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Settings shared by every workload.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Input seed.
    pub seed: u64,
    /// Seconds the timed part runs for (at least one pass always runs).
    pub seconds: f64,
    /// Threads every pool is capped at.
    pub workers: usize,
    /// Directory for files the run writes (journals, span dumps).
    pub workdir: PathBuf,
}

/// Threads this host offers; every pool the benchmark starts is capped
/// here.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// Build a metric.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// Failure descriptions a run keeps for its log.
const MAX_NOTES: usize = 8;

/// Operation accounting: every workload counts the operations it
/// attempted and the ones whose output failed its oracle. A mismatch
/// is counted, never fatal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output failed the oracle.
    pub failed: u64,
    /// The first few failure descriptions, for the log.
    pub notes: Vec<String>,
}

impl Tally {
    /// Count one operation; `ok` false counts it failed with `why`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < MAX_NOTES {
                self.notes.push(why());
            }
        }
    }

    /// Fold another tally in.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = MAX_NOTES.saturating_sub(self.notes.len());
        self.notes.extend(other.notes.into_iter().take(room));
    }

    /// Failed over attempted.
    pub fn error_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Deterministic counts a run prints beside its result; two runs with
/// one seed must print identical counts.
pub type Counts = Vec<(&'static str, u64)>;

/// What one workload run produced.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Operation accounting.
    pub tally: Tally,
    /// `visits_per_s` of each timed pass, in order.
    pub pass_rates: Vec<f64>,
    /// Seconds of each set-up, in order.
    pub setup_times: Vec<f64>,
    /// Deterministic counts (inputs and outputs).
    pub counts: Counts,
    /// Scheduler counters at the start and end of the timed part.
    pub sched: (host::SchedSample, host::SchedSample),
}

/// Largest value of a non-empty sample.
pub fn best(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::MIN, f64::max)
}

/// Smallest value of a non-empty sample.
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::MAX, f64::min)
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// 64-bit FNV-1a, for output digests.
pub fn fnv(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a offset basis.
pub const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Peak live heap since the last reset, MB.
pub fn peak_heap_mb() -> f64 {
    knock_talk::trace::peak_bytes() as f64 / 1e6
}

/// Run `setup` until `min_secs` have passed (at least once),
/// returning the last result and every set-up's time in seconds. `setup_s` is the fastest of them, as `visits_per_s` is
/// taken over the fastest pass: each vCPU of the tuning host switches
/// between two speeds 1.4x apart for seconds at a time, so the median
/// of a short set-up follows whichever speed its stretch of the run
/// saw. A short set-up therefore repeats for several seconds.
pub fn repeated_setup<T>(min_secs: f64, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let began = std::time::Instant::now();
    let mut secs = Vec::new();
    let mut last: Option<T> = None;
    while secs.is_empty() || began.elapsed().as_secs_f64() < min_secs {
        // The previous result is dropped first, so every set-up starts
        // from the same heap.
        drop(last.take());
        let t = std::time::Instant::now();
        let value = setup();
        secs.push(t.elapsed().as_secs_f64());
        last = Some(value);
    }
    (last.expect("at least one set-up"), secs)
}

/// NetLog events held in a store, counted through borrowed decode.
pub fn store_events(store: &knock_talk::store::TelemetryStore) -> u64 {
    let mut events = 0;
    for crawl in store.crawl_ids() {
        for shard in 0..store.shard_count() {
            for raw in store.shard_raw_on(&crawl, shard, None) {
                events += knock_talk::store::decode_view(&raw).map_or(0, |v| v.events.len() as u64);
            }
        }
    }
    events
}

/// The pass loop of a timed part: run `pass` at least twice, then again
/// while the time used plus the longest pass so far stays within
/// `seconds`. Two passes let the fastest one skip a slow stretch of the
/// host; the budget keeps a run from overshooting by a whole pass.
pub fn timed_passes(seconds: f64, mut pass: impl FnMut()) {
    let began = std::time::Instant::now();
    let mut longest = 0.0f64;
    for passes in 1.. {
        let t = std::time::Instant::now();
        pass();
        longest = longest.max(t.elapsed().as_secs_f64());
        if passes >= 2 && began.elapsed().as_secs_f64() + longest > seconds {
            break;
        }
    }
}
