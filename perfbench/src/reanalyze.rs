//! The reanalysis path: the work of `knocktalk analyze <journal>`,
//! traced by [`crate::probe`].
//!
//! [`write_journal`] writes the journal `knocktalk repro --scale
//! standard --journal` writes for the seed, by running the journaled
//! study; the in-memory study's analyses are the oracle. A
//! [`Reanalysis`] holds what `load_any` (journal replay),
//! `analyze_crawl_par` for each crawl in the replayed store, and
//! `classify_site` for each locally-active site return.
//!
//! It is no declared workload. Nearly all of its time is the
//! single-threaded checkpoint JSON parse inside `journal::scan`, whose
//! speed on the tuning host moved by up to 1.5x over minutes, so ten
//! runs spread by more than the 0.25 bound (see `README.md`).

use std::collections::BTreeMap;
use std::path::Path;

use knock_talk::analysis::classify::{classify_site, ReasonClass};
use knock_talk::analysis::par::CrawlAnalysis;
use knock_talk::store::{CrawlId, JournalStats, JournalWriter, LoadReport};
use knock_talk::Study;

use crate::Tally;

/// What the in-memory study produced, to compare the replay against.
#[derive(Debug, Clone)]
pub struct Oracle {
    /// Per-crawl analysis of the in-memory study.
    pub analyses: BTreeMap<String, CrawlAnalysis>,
    /// Counters of the journal writer.
    pub journal: JournalStats,
}

/// Write the standard-scale study's journal to `path`, exactly as
/// `knocktalk repro --scale standard --journal` does.
pub fn write_journal(seed: u64, workers: usize, path: &Path) -> Oracle {
    let writer = JournalWriter::create(path).expect("journal file in the work directory");
    let study = Study::run_journaled(crate::study::config(seed, workers), Some(&writer));
    writer.sync();
    Oracle {
        analyses: study.analyses,
        journal: writer.stats(),
    }
}

/// Classes of a crawl's locally-active sites, in site order.
pub fn active_classes(analysis: &CrawlAnalysis) -> Vec<ReasonClass> {
    analysis
        .sites
        .iter()
        .filter(|s| s.has_localhost() || s.has_lan())
        .map(classify_site)
        .collect()
}

/// One reanalysis of a journal.
pub struct Reanalysis {
    /// The replayed store and its damage accounting.
    pub report: LoadReport,
    /// Per crawl: analysis and the classes of its active sites.
    pub crawls: Vec<(CrawlId, CrawlAnalysis, Vec<ReasonClass>)>,
}

/// Compare a reanalysis with the in-memory study. Every loaded frame
/// is an operation, and corrupt frames and a torn tail are failed
/// ones; so is every crawl whose replayed analysis (visits, per-site
/// localhost/LAN OS sets, rings, defense, outcomes) or active-site
/// classes differ from the in-memory study's.
pub fn check(re: &Reanalysis, oracle: &Oracle) -> Tally {
    let mut tally = Tally {
        attempted: (re.report.loaded + re.report.corrupt) as u64,
        failed: re.report.corrupt as u64,
        notes: Vec::new(),
    };
    if re.report.corrupt > 0 {
        tally
            .notes
            .push(format!("{} corrupt frames", re.report.corrupt));
    }
    tally.check(!re.report.truncated, || "journal tail is torn".to_string());
    let replayed: Vec<&str> = re.crawls.iter().map(|(c, _, _)| c.as_str()).collect();
    let expected: Vec<&str> = oracle.analyses.keys().map(String::as_str).collect();
    tally.check(replayed == expected, || {
        format!("replayed crawls {replayed:?}, study crawls {expected:?}")
    });
    for (crawl, analysis, classes) in &re.crawls {
        let want = oracle.analyses.get(crawl.as_str());
        let ok = want.is_some_and(|w| w == analysis && active_classes(w) == *classes);
        tally.check(ok, || {
            format!(
                "replayed analysis of {} differs from the study's",
                crawl.as_str()
            )
        });
    }
    tally
}
