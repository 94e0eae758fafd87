//! Crawl-layer metrics: the bridge from [`CrawlStats`] to the kt-trace
//! registry.
//!
//! Counters are *derived from* the stats tally rather than incremented
//! alongside it, so the exported series can never drift from Table 1:
//! each worker's sink is built from its own private `CrawlStats` at
//! join, the resume path seeds a sink from the journal-replayed prior,
//! and the recrawl pass contributes the difference between the
//! supervisor tally before and after it ran. Summing those sinks
//! reproduces the final merged stats exactly — and the stats are
//! already proven worker-count- and resume-invariant, so the metrics
//! inherit both properties for free.
//!
//! Schedule-owned fields (`makespan_ms`, `connectivity_retries`) stay
//! out: they legitimately depend on how jobs were laid onto workers,
//! and exporting them would break the byte-identical guarantee the CI
//! observability gate enforces.

use kt_netbase::Os;
use kt_store::{CrawlId, JournalStats};
use kt_trace::{names, Labels, Trace, WorkerSink};

use crate::stats::CrawlStats;

/// The `{crawl, os}` label set every crawl-layer series carries.
pub fn campaign_labels(crawl: &CrawlId, os: Os) -> Labels {
    Labels::new(&[("crawl", crawl.as_str()), ("os", os.name())])
}

/// Build a metrics sink holding one tally's schedule-invariant
/// counters. Zero-valued series are materialised too, so every
/// campaign exports the full schema even before (or without) any
/// matching event.
pub fn stats_sink(crawl: &CrawlId, os: Os, stats: &CrawlStats) -> WorkerSink {
    stats_sink_delta(crawl, os, stats, &CrawlStats::default())
}

/// [`stats_sink`] for the contribution between two supervisor
/// snapshots (`after` minus `before`) — how the serial recrawl pass
/// reports, since it mutates the merged tally in place.
pub fn stats_sink_delta(
    crawl: &CrawlId,
    os: Os,
    after: &CrawlStats,
    before: &CrawlStats,
) -> WorkerSink {
    let labels = campaign_labels(crawl, os);
    let mut sink = WorkerSink::new();
    let diff = |a: usize, b: usize| (a.saturating_sub(b)) as u64;
    for (name, a, b) in [
        (names::VISITS_TOTAL, after.attempted, before.attempted),
        (names::SUCCESS_TOTAL, after.successful, before.successful),
        (names::RETRIES_TOTAL, after.retries, before.retries),
        (names::RECRAWLED_TOTAL, after.recrawled, before.recrawled),
        (names::RECOVERED_TOTAL, after.recovered, before.recovered),
        (names::GAVE_UP_TOTAL, after.gave_up, before.gave_up),
        (names::CRASHED_TOTAL, after.crashed, before.crashed),
        (
            names::STORE_RETRIES_TOTAL,
            after.store_retries,
            before.store_retries,
        ),
    ] {
        let id = sink.counter(name, labels.clone());
        sink.add(id, diff(a, b));
    }
    for (err, &n) in &after.failures {
        let prior = before.failures.get(err).copied().unwrap_or(0);
        if n > prior {
            let labels = Labels::new(&[
                ("crawl", crawl.as_str()),
                ("os", os.name()),
                ("error", err.name()),
            ]);
            let id = sink.counter(names::FAILURES_TOTAL, labels);
            sink.add(id, (n - prior) as u64);
        }
    }
    sink
}

/// Set the campaign's derived gauges from its final tally.
pub fn set_stats_gauges(trace: &Trace, crawl: &CrawlId, os: Os, stats: &CrawlStats) {
    trace.set_gauge(
        names::CRAWL_SUCCESS_RATIO,
        campaign_labels(crawl, os),
        stats.success_rate(),
    );
}

/// Record a journal writer's durability counters into the registry.
pub fn record_journal_stats(trace: &Trace, stats: &JournalStats) {
    let none = Labels::new(&[]);
    for (name, value) in [
        (names::JOURNAL_FRAMES_TOTAL, stats.frames),
        (names::JOURNAL_VISITS_TOTAL, stats.visits),
        (names::JOURNAL_CHECKPOINTS_TOTAL, stats.checkpoints),
        (names::JOURNAL_BYTES_TOTAL, stats.bytes),
        (names::JOURNAL_FSYNCS_TOTAL, stats.fsyncs),
        (names::JOURNAL_GROUP_COMMITS_TOTAL, stats.group_commits),
        (names::JOURNAL_GROUPED_FRAMES_TOTAL, stats.grouped_frames),
    ] {
        trace.inc_counter(name, none.clone(), value);
    }
    trace.set_gauge(
        names::JOURNAL_FRAMES_PER_FSYNC,
        none,
        stats.frames_per_fsync(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use kt_netlog::NetError;
    use kt_trace::Registry;

    fn tally() -> CrawlStats {
        let mut stats = CrawlStats::new();
        for _ in 0..9 {
            stats.record_success();
        }
        stats.record_failure(NetError::ConnectionReset);
        stats.record_crash();
        stats.retries = 4;
        stats.recrawled = 2;
        stats.recovered = 1;
        stats.gave_up = 1;
        stats.store_retries = 3;
        stats.connectivity_retries = 7; // schedule-owned: must not export
        stats.makespan_ms = 99_000; // schedule-owned: must not export
        stats
    }

    #[test]
    fn sink_mirrors_every_invariant_counter() {
        let crawl = CrawlId("T1".to_string());
        let mut reg = Registry::new();
        reg.merge_sink(&stats_sink(&crawl, Os::Linux, &tally()));
        let labels = campaign_labels(&crawl, Os::Linux);
        assert_eq!(reg.counter_value(names::VISITS_TOTAL, &labels), Some(11));
        assert_eq!(reg.counter_value(names::SUCCESS_TOTAL, &labels), Some(9));
        assert_eq!(reg.counter_value(names::RETRIES_TOTAL, &labels), Some(4));
        assert_eq!(reg.counter_value(names::RECRAWLED_TOTAL, &labels), Some(2));
        assert_eq!(reg.counter_value(names::RECOVERED_TOTAL, &labels), Some(1));
        assert_eq!(reg.counter_value(names::GAVE_UP_TOTAL, &labels), Some(1));
        assert_eq!(reg.counter_value(names::CRASHED_TOTAL, &labels), Some(1));
        assert_eq!(
            reg.counter_value(names::STORE_RETRIES_TOTAL, &labels),
            Some(3)
        );
        let err_labels = Labels::new(&[
            ("crawl", "T1"),
            ("os", "Linux"),
            ("error", "ERR_CONNECTION_RESET"),
        ]);
        assert_eq!(
            reg.counter_value(names::FAILURES_TOTAL, &err_labels),
            Some(1)
        );
        let text = reg.render_prometheus();
        assert!(
            !text.contains("connectivity"),
            "schedule-owned field leaked"
        );
        assert!(!text.contains("makespan"), "schedule-owned field leaked");
    }

    #[test]
    fn empty_tally_still_materialises_the_schema_at_zero() {
        let crawl = CrawlId("T2".to_string());
        let mut reg = Registry::new();
        reg.merge_sink(&stats_sink(&crawl, Os::MacOs, &CrawlStats::new()));
        let text = reg.render_prometheus();
        assert!(text.contains("visits_total{crawl=\"T2\",os=\"Mac\"} 0"));
        assert!(text.contains("success_total{crawl=\"T2\",os=\"Mac\"} 0"));
    }

    #[test]
    fn per_worker_sinks_sum_to_the_merged_tally_sink() {
        let crawl = CrawlId("T1".to_string());
        let mut w0 = CrawlStats::new();
        w0.record_success();
        w0.record_failure(NetError::TimedOut);
        let mut w1 = CrawlStats::new();
        w1.record_success();
        w1.retries = 2;

        let mut per_worker = Registry::new();
        per_worker.merge_sink(&stats_sink(&crawl, Os::Windows, &w0));
        per_worker.merge_sink(&stats_sink(&crawl, Os::Windows, &w1));

        let mut merged = w0.clone();
        merged.merge(&w1);
        let mut whole = Registry::new();
        whole.merge_sink(&stats_sink(&crawl, Os::Windows, &merged));

        assert_eq!(per_worker.render_prometheus(), whole.render_prometheus());
    }

    #[test]
    fn delta_sink_reports_only_the_recrawl_contribution() {
        let crawl = CrawlId("T1".to_string());
        let before = tally();
        let mut after = before.clone();
        after.recrawled += 1;
        after.record_success();
        after.recovered += 1;
        let mut reg = Registry::new();
        reg.merge_sink(&stats_sink_delta(&crawl, Os::Linux, &after, &before));
        let labels = campaign_labels(&crawl, Os::Linux);
        assert_eq!(reg.counter_value(names::VISITS_TOTAL, &labels), Some(1));
        assert_eq!(reg.counter_value(names::RECRAWLED_TOTAL, &labels), Some(1));
        assert_eq!(reg.counter_value(names::RETRIES_TOTAL, &labels), Some(0));
    }

    #[test]
    fn gauges_carry_the_success_ratio() {
        let trace = Trace::new();
        let crawl = CrawlId("T1".to_string());
        let mut stats = CrawlStats::new();
        for _ in 0..3 {
            stats.record_success();
        }
        stats.record_failure(NetError::Aborted);
        set_stats_gauges(&trace, &crawl, Os::Linux, &stats);
        assert!(trace
            .export_prometheus()
            .contains("crawl_success_ratio{crawl=\"T1\",os=\"Linux\"} 0.75"));
    }
}
