//! # kt-crawler
//!
//! Crawl orchestration, mirroring §3.1's measurement procedure:
//!
//! * a [`vantage::CrawlVantage`] describes one (OS, network) crawl
//!   configuration — Windows/Linux VMs at Georgia Tech, a MacBook on
//!   residential Comcast;
//! * [`crawl::run_crawl`] drives a worker pool (scoped threads over a
//!   shared work-stealing [`queue::JobTicket`]) over a site
//!   population: connectivity pre-check (ping 8.8.8.8), visit, parse,
//!   store; [`crawl::run_crawl_with`] is the same pool over a resume
//!   plan with an optional journal and trace ([`crawl::RunOptions`]);
//! * [`resume::run_checkpointed_campaign`] is the one campaign step of
//!   every multi-campaign driver: restore a checkpointed campaign, or
//!   run its remainder and append the checkpoint;
//! * [`queue`] holds the lock-free scheduling primitives (the job
//!   ticket and the recrawl injector);
//! * [`stats::CrawlStats`] accumulates the Table 1 numbers: successful
//!   and failed loads with the error-type breakdown.

#![warn(missing_docs)]

pub mod crawl;
pub mod incremental;
pub mod observe;
pub mod queue;
pub mod resume;
pub mod stats;
pub mod vantage;

pub use crawl::{
    run_crawl, run_crawl_chunked, run_crawl_with, run_pool_job, run_recrawl_job,
    simulated_makespan, CrawlConfig, CrawlJob, PoolJobEnd, RunOptions, Workspace, VISIT_WALL_MS,
};
pub use incremental::IncrementalPlan;
pub use observe::{
    campaign_labels, record_journal_stats, set_stats_gauges, stats_sink, stats_sink_delta,
};
pub use resume::{run_checkpointed_campaign, split_campaigns, CampaignReplay, ResumePlan};
pub use stats::{CrawlStats, StatsMark};
pub use vantage::{CrawlVantage, NetworkVantage};
