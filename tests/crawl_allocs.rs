//! Allocation ceiling of the crawl path.
//!
//! This test binary installs `CountingAllocator` as its global
//! allocator, so it holds this one test only: anything else running in
//! the process would be counted too. It crawls the quick-scale 2020 top
//! list on each OS through `run_crawl` with one worker and checks the
//! allocations per visit — world reset, browser visit, record encoding,
//! store append and the crawler's own bookkeeping together.

use knock_talk::crawler::{run_crawl, CrawlConfig, CrawlJob};
use knock_talk::netbase::Os;
use knock_talk::store::{CrawlId, TelemetryStore};
use knock_talk::trace::{alloc_counts, CountingAllocator};
use knock_talk::webgen::{PopulationConfig, WebPopulation};

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations per visit the crawl path may make. Measured: 6.0 to 6.8
/// per visit across the three OSes (2,000 sites, seed 7, one worker,
/// debug build): the site's DNS record, certificate and cache slot, and
/// the store index's copy of the domain.
const CEILING: f64 = 12.0;

#[test]
fn the_crawl_path_allocates_a_few_times_per_visit() {
    let population = WebPopulation::generate(PopulationConfig::test_scale(7));
    let jobs: Vec<CrawlJob<'_>> = population
        .sites2020
        .iter()
        .map(|site| CrawlJob {
            site,
            malicious_category: None,
        })
        .collect();
    for os in Os::ALL {
        let mut config = CrawlConfig::paper(CrawlId::top2020(), os, 7);
        config.workers = 1;
        let store = TelemetryStore::new();
        let (before, _) = alloc_counts();
        let stats = run_crawl(&jobs, &config, &store);
        let (after, _) = alloc_counts();
        assert_eq!(stats.attempted, jobs.len());
        let per_visit = (after - before) as f64 / stats.attempted as f64;
        eprintln!("{}: {per_visit:.2} allocations per visit", os.name());
        assert!(
            per_visit <= CEILING,
            "{}: {per_visit:.2} allocations per visit, ceiling {CEILING}",
            os.name()
        );
    }
}
