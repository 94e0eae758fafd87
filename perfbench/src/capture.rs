//! The capture path: the work of `knocktalk classify` over Chrome
//! `net-export` captures, traced by [`crate::probe`].
//!
//! [`build_inputs`] crawls the quick-scale population's 2020 top list
//! on Windows (the visits of the quick-scale study's `top2020/Windows`
//! campaign) and writes each visit as a capture with
//! `Capture::from_events(..).to_json()`. A seeded share of the captures
//! is cut in the middle of an event, the way a Chrome killed at the end
//! of the observation window leaves its file. Ingesting a capture runs
//! `Capture::parse`, `aggregate_sites` and `classify_site` on it.

use knock_talk::analysis::classify::ReasonClass;
use knock_talk::analysis::detect::{detect_local, LocalObservation, SiteLocalActivity};
use knock_talk::crawler::{run_crawl, CrawlConfig, CrawlJob};
use knock_talk::netbase::Os;
use knock_talk::netlog::{Capture, CaptureError, NetLogEvent};
use knock_talk::store::{CrawlId, LoadOutcome, TelemetryStore, VisitRecord};
use knock_talk::webgen::{PopulationConfig, WebPopulation};

use crate::Tally;

/// Captures cut mid-event, per thousand.
pub const TRUNCATED_PER_MILLE: u64 = 100;

/// One capture file and what its parse must yield.
#[derive(Debug, Clone)]
pub struct CaptureInput {
    /// Visited domain.
    pub domain: String,
    /// The capture document as written (cut when `truncated`).
    pub text: String,
    /// Every event the visit logged.
    pub events: Vec<NetLogEvent>,
    /// Events that lie wholly before the cut (all of them when intact).
    pub complete: usize,
    /// True when the document was cut mid-event.
    pub truncated: bool,
    /// `detect_local` over the first `complete` events.
    pub expected: Vec<LocalObservation>,
}

/// The record `knocktalk classify` wraps a capture's events in.
pub fn capture_record(domain: &str, events: Vec<NetLogEvent>) -> VisitRecord {
    VisitRecord {
        crawl: CrawlId("cli".to_string()),
        domain: domain.to_string(),
        rank: None,
        malicious_category: None,
        os: Os::Windows,
        outcome: LoadOutcome::Success,
        loaded_at_ms: 0,
        events,
    }
}

/// Seeded per-capture draw.
fn draw(seed: u64, index: u64) -> u64 {
    let mut x = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xC0_FFEE;
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Byte spans of the top-level objects of a capture's `events` array.
pub fn event_spans(text: &str) -> Vec<(usize, usize)> {
    let bytes = text.as_bytes();
    let Some(open) = text.find("\"events\":[") else {
        return Vec::new();
    };
    let mut spans = Vec::new();
    let (mut depth, mut in_string, mut escaped, mut start) = (0usize, false, false, 0usize);
    for (i, &b) in bytes.iter().enumerate().skip(open + "\"events\":[".len()) {
        if in_string {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'{' => {
                if depth == 0 {
                    start = i;
                }
                depth += 1;
            }
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    spans.push((start, i + 1));
                }
            }
            b']' if depth == 0 => break,
            _ => {}
        }
    }
    spans
}

/// Build the captures from the seed's quick-scale visits.
pub fn build_inputs(seed: u64, workers: usize) -> Vec<CaptureInput> {
    let population = WebPopulation::generate(PopulationConfig::test_scale(seed));
    let jobs: Vec<CrawlJob> = population
        .sites2020
        .iter()
        .map(|site| CrawlJob {
            site,
            malicious_category: None,
        })
        .collect();
    let store = TelemetryStore::new();
    let mut config = CrawlConfig::paper(CrawlId::top2020(), Os::Windows, seed);
    config.workers = workers;
    run_crawl(&jobs, &config, &store);
    store
        .crawl_records_on(&CrawlId::top2020(), Os::Windows)
        .into_iter()
        .enumerate()
        .map(|(i, record)| {
            let full = Capture::from_events(record.events.clone()).to_json();
            let d = draw(seed, i as u64);
            let n = record.events.len();
            let cut = (d % 1000 < TRUNCATED_PER_MILLE && n >= 2).then(|| {
                let k = 1 + ((d >> 16) as usize) % (n - 1);
                let (s, e) = event_spans(&full)[k];
                let mut at = s + (e - s) / 2;
                while !full.is_char_boundary(at) {
                    at -= 1;
                }
                (k, at)
            });
            let (complete, text) = match cut {
                Some((k, at)) => (k, full[..at].to_string()),
                None => (n, full),
            };
            let expected = detect_local(&capture_record(
                &record.domain,
                record.events[..complete].to_vec(),
            ));
            CaptureInput {
                domain: record.domain,
                text,
                events: record.events,
                complete,
                truncated: cut.is_some(),
                expected,
            }
        })
        .collect()
}

/// What ingesting one capture yields.
pub struct Ingested {
    /// The record around the recovered events.
    pub record: VisitRecord,
    /// Wire events skipped by the decoder.
    pub skipped: usize,
    /// True when the parser took the truncated-recovery path.
    pub truncated: bool,
    /// Per-site local activity.
    pub sites: Vec<SiteLocalActivity>,
    /// Class of each site.
    pub classes: Vec<ReasonClass>,
}

/// Check one capture's ingest: it parsed, recovered a prefix of the
/// logged events (all of them when intact), took the truncated path
/// exactly when the file was cut, and detection over the recovered
/// events equals `detect_local` over that prefix.
pub fn check(input: &CaptureInput, out: &Result<Ingested, CaptureError>, tally: &mut Tally) {
    let Ok(out) = out else {
        tally.check(false, || format!("{}: parse error", input.domain));
        return;
    };
    let got = &out.record.events;
    let prefix = got.len() <= input.events.len() && input.events[..got.len()] == got[..];
    let detected = prefix && {
        let found = detect_local(&out.record);
        if got.len() == input.complete {
            found == input.expected
        } else {
            found == detect_local(&capture_record(&input.domain, got.clone()))
        }
    };
    let whole = input.truncated || got.len() == input.events.len();
    tally.check(
        prefix && detected && whole && out.truncated == input.truncated,
        || {
            format!(
                "{}: recovered {} of {} events (prefix {prefix}, detection {detected}, truncated {})",
                input.domain,
                got.len(),
                input.events.len(),
                out.truncated
            )
        },
    );
}

/// Deterministic counts of a capture set.
pub fn input_counts(inputs: &[CaptureInput]) -> crate::Counts {
    vec![
        ("captures", inputs.len() as u64),
        (
            "capture_bytes",
            inputs.iter().map(|c| c.text.len() as u64).sum(),
        ),
        (
            "truncated_captures",
            inputs.iter().filter(|c| c.truncated).count() as u64,
        ),
        ("events", inputs.iter().map(|c| c.events.len() as u64).sum()),
        (
            "complete_events",
            inputs.iter().map(|c| c.complete as u64).sum(),
        ),
    ]
}
