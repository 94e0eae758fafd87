//! `study`: the work of `knocktalk repro --scale standard`, and
//! `study_journal`: the same with `--journal`.
//!
//! One operation of the timed part is `Study::run` (population, the
//! eight `(crawl, OS)` campaigns, store, analysis) followed by
//! rendering the 19 paper tables and figures and the 5 extensions,
//! X5's deep re-crawl included. For `study_journal` the study runs
//! through `Study::run_journaled`, appending every visit and campaign
//! checkpoint to an on-disk journal with fsynced flush points, as
//! `repro --journal` does. `Study::run` takes only a config, so the
//! timed part builds everything it uses itself; the one set-up is the
//! oracle's: generating the seeded population it takes its expected
//! visit counts from. `setup_s` therefore times `WebPopulation::generate`
//! (about 80 ms), which each timed pass repeats inside `Study::run`.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use knock_talk::experiments::{ALL_IDS, EXTENDED_IDS};
use knock_talk::store::{JournalStats, JournalWriter};
use knock_talk::study::campaigns;
use knock_talk::trace::reset_peak_bytes;
use knock_talk::webgen::WebPopulation;
use knock_talk::{Study, StudyConfig};

use crate::host::SchedSample;
use crate::{
    fnv, median, peak_heap_mb, repeated_setup, timed_passes, Counts, Metric, RunConfig, RunOutput,
    Tally,
};

/// The standard-scale study with its pools capped at `workers`.
pub fn config(seed: u64, workers: usize) -> StudyConfig {
    let mut config = StudyConfig::standard(seed);
    config.workers = workers;
    config
}

/// Sites per crawl id: the number of visits each of its campaigns must
/// make.
pub type Expected = BTreeMap<String, usize>;

/// Expected visits per campaign, from the population.
pub fn expected(population: &WebPopulation) -> Expected {
    campaigns()
        .into_iter()
        .map(|(crawl, _)| {
            let sites = match crawl.as_str() {
                "top2020" => population.sites2020.len(),
                "top2021" => population.sites2021.len(),
                _ => population.malicious_sites.len(),
            };
            (crawl.as_str().to_string(), sites)
        })
        .collect()
}

/// Every table, figure and extension, in paper order.
pub fn render(study: &Study) -> Vec<(&'static str, Option<String>)> {
    ALL_IDS
        .iter()
        .chain(EXTENDED_IDS.iter())
        .map(|id| (*id, study.experiment(id)))
        .collect()
}

/// Oracle verdict and output digest of one study.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyCheck {
    /// One operation per campaign and per rendered table.
    pub tally: Tally,
    /// Visit records stored.
    pub visits: u64,
    /// Encoded store bytes.
    pub store_bytes: u64,
    /// FNV-1a over every rendered table.
    pub digest: u64,
}

/// Check a study against its oracle: every campaign visited every site
/// of its crawl, each crawl's analysed visit count equals the sum of
/// its campaigns' `CrawlStats`, and every table rendered.
pub fn check(
    study: &Study,
    tables: &[(&'static str, Option<String>)],
    expected: &Expected,
) -> StudyCheck {
    let mut tally = Tally::default();
    for (crawl, oses) in campaigns() {
        let sites = expected.get(crawl.as_str()).copied().unwrap_or(0);
        let attempted: usize = oses
            .iter()
            .filter_map(|&os| study.stats_for(&crawl, os))
            .map(|s| s.attempted)
            .sum();
        let analysed = study.analyses.get(crawl.as_str()).map(|a| a.visits);
        for os in oses {
            let stats = study.stats_for(&crawl, os).map(|s| s.attempted);
            tally.check(
                stats == Some(sites) && analysed == Some(attempted),
                || {
                    format!(
                        "campaign {}/{}: stats {stats:?} of {sites} sites, analysed {analysed:?} of {attempted}",
                        crawl.as_str(),
                        os.name()
                    )
                },
            );
        }
    }
    let mut digest = crate::FNV_SEED;
    for (id, text) in tables {
        let ok = text.as_ref().is_some_and(|t| !t.trim().is_empty());
        tally.check(ok, || format!("{id} did not render"));
        digest = fnv(id.as_bytes(), digest);
        digest = fnv(text.as_deref().unwrap_or("").as_bytes(), digest);
    }
    StudyCheck {
        tally,
        visits: study.store.len() as u64,
        store_bytes: study.store.byte_size() as u64,
        digest,
    }
}

/// Seconds the oracle's set-up repeats for: about a hundred
/// generations, long enough to see the host at its faster speed.
const SETUP_SECS: f64 = 10.0;

/// Size of a FLUSH marker frame: sync, kind, length, empty payload, CRC.
const FLUSH_FRAME_BYTES: u64 = 11;

/// Journal bytes net of FLUSH markers. Where a marker falls follows the
/// order the worker threads append frames in, so two runs of one seed
/// can write one marker more or less; every other frame repeats.
pub fn frame_bytes(stats: &JournalStats) -> u64 {
    stats.bytes - FLUSH_FRAME_BYTES * stats.flush_points
}

/// Deterministic counts of a study's journal.
pub fn journal_counts(stats: &JournalStats) -> Counts {
    vec![
        ("journal_frame_bytes", frame_bytes(stats)),
        ("journal_visit_frames", stats.visits),
        ("journal_checkpoints", stats.checkpoints),
    ]
}

/// Check a study's journal: one checkpoint per campaign, at least one
/// visit frame per stored visit, and every byte the writer counted on
/// disk.
pub fn check_journal(stats: &JournalStats, path: &Path, visits: u64, tally: &mut Tally) {
    let campaigns: usize = campaigns().iter().map(|(_, oses)| oses.len()).sum();
    let on_disk = std::fs::metadata(path).map(|m| m.len()).ok();
    tally.check(
        stats.checkpoints == campaigns as u64
            && stats.visits >= visits
            && on_disk == Some(stats.bytes),
        || {
            format!(
                "journal: {} checkpoints of {campaigns}, {} visit frames for {visits} visits, {on_disk:?} bytes on disk of {}",
                stats.checkpoints, stats.visits, stats.bytes
            )
        },
    );
}

/// Run the workload: set up, then repeat the timed operation until
/// `cfg.seconds` have passed. With `journaled` (`study_journal`) each
/// pass also writes the journal `knocktalk repro --journal` writes.
pub fn run(cfg: &RunConfig, journaled: bool) -> RunOutput {
    let config = config(cfg.seed, cfg.workers);
    let (expected, setup_times) = repeated_setup(SETUP_SECS, || {
        expected(&WebPopulation::generate(config.population))
    });
    let path = cfg.workdir.join(format!("study-{}.ktj", cfg.seed));

    let mut tally = Tally::default();
    let mut rates = Vec::new();
    let mut peaks = Vec::new();
    let mut first: Option<(StudyCheck, Option<Counts>)> = None;
    let mut last_study = None;
    let start = SchedSample::now();
    timed_passes(cfg.seconds, || {
        drop(last_study.take());
        reset_peak_bytes();
        let t = Instant::now();
        let writer = journaled
            .then(|| JournalWriter::create(&path).expect("journal file in the work directory"));
        let study = Study::run_journaled(config, writer.as_ref());
        let tables = render(&study);
        let journal = writer.map(|w| w.stats());
        let secs = t.elapsed().as_secs_f64();
        peaks.push(peak_heap_mb());
        let c = check(&study, &tables, &expected);
        rates.push(c.visits as f64 / secs);
        if let Some(stats) = &journal {
            check_journal(stats, &path, c.visits, &mut tally);
        }
        let journal = journal.as_ref().map(journal_counts);
        match &first {
            None => first = Some((c.clone(), journal)),
            Some((f, j)) => tally.check(
                f.digest == c.digest && f.visits == c.visits && *j == journal,
                || "study output differs between passes of one run".to_string(),
            ),
        }
        tally.merge(c.tally);
        last_study = Some(study);
    });
    let end = SchedSample::now();
    let _ = std::fs::remove_file(&path);
    let (first, journal) = first.expect("one pass ran");
    let study = last_study.expect("one pass ran");
    let mut counts = vec![
        ("visits", first.visits),
        ("events", crate::store_events(&study.store)),
        ("store_bytes", first.store_bytes),
        ("output_digest", first.digest),
    ];
    counts.extend(journal.into_iter().flatten());
    RunOutput {
        metrics: vec![
            Metric::new("visits_per_s", crate::best(&rates), "1/s"),
            Metric::new("peak_heap_mb", median(&peaks), "MB"),
            Metric::new("setup_s", crate::fastest(&setup_times), "s"),
        ],
        tally,
        pass_rates: rates,
        setup_times,
        counts,
        sched: (start, end),
    }
}
