//! The full study: population → eight crawls → telemetry → analysis.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use kt_analysis::detect::SiteLocalActivity;
use kt_analysis::par::{analyze_crawl_traced, CrawlAnalysis};
use kt_crawler::{
    run_checkpointed_campaign, split_campaigns, CampaignReplay, CrawlConfig, CrawlJob, CrawlStats,
    RunOptions,
};
use kt_netbase::Os;
use kt_store::{replay, CrawlId, JournalError, JournalMeta, JournalWriter, TelemetryStore};
use kt_trace::{names, Labels, StageProfiler, Trace};
use kt_webgen::{PopulationConfig, WebPopulation};

/// Study configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StudyConfig {
    /// Population parameters (scale + seed).
    pub population: PopulationConfig,
    /// Crawl worker threads.
    pub workers: usize,
}

impl StudyConfig {
    /// Full paper scale (100K top list, ~145K malicious). Heavy:
    /// nearly a million simulated page visits.
    pub fn paper(seed: u64) -> StudyConfig {
        StudyConfig {
            population: PopulationConfig::paper_scale(seed),
            workers: 8,
        }
    }

    /// A fast configuration for examples and tests: every behaviour is
    /// planted at full count, but the quiet background population is
    /// smaller.
    pub fn quick(seed: u64) -> StudyConfig {
        StudyConfig {
            population: PopulationConfig::test_scale(seed),
            workers: 4,
        }
    }

    /// A mid-size configuration: large enough for the rate statistics
    /// of Tables 1–2 to stabilise, small enough to run in seconds.
    pub fn standard(seed: u64) -> StudyConfig {
        StudyConfig {
            population: PopulationConfig {
                seed,
                top_size: 10_000,
                malicious_size: 14_500,
                sensors: false,
            },
            workers: 8,
        }
    }
}

/// The paper's crawl campaigns: (crawl id, OSes crawled).
pub fn campaigns() -> Vec<(CrawlId, Vec<Os>)> {
    vec![
        (CrawlId::top2020(), vec![Os::Windows, Os::Linux, Os::MacOs]),
        // Logistics prevented the 2021 Mac crawl (§3.2, fn. 3).
        (CrawlId::top2021(), vec![Os::Windows, Os::Linux]),
        (
            CrawlId::malicious(),
            vec![Os::Windows, Os::Linux, Os::MacOs],
        ),
    ]
}

/// A completed study.
pub struct Study {
    /// Configuration used.
    pub config: StudyConfig,
    /// The generated populations.
    pub population: WebPopulation,
    /// All telemetry.
    pub store: TelemetryStore,
    /// Per-(crawl, OS) crawl statistics.
    pub stats: BTreeMap<(String, Os), CrawlStats>,
    /// Per-campaign analysis, computed once by the parallel
    /// single-decode driver — every table and figure reads from here
    /// instead of re-decoding the store.
    pub analyses: BTreeMap<String, CrawlAnalysis>,
}

/// The job list of one campaign over a generated population.
pub fn campaign_jobs<'a>(population: &'a WebPopulation, crawl: &CrawlId) -> Vec<CrawlJob<'a>> {
    match crawl.as_str() {
        "top2020" => population
            .sites2020
            .iter()
            .map(|site| CrawlJob {
                site,
                malicious_category: None,
            })
            .collect(),
        "top2021" => population
            .sites2021
            .iter()
            .map(|site| CrawlJob {
                site,
                malicious_category: None,
            })
            .collect(),
        _ => population
            .malicious_sites
            .iter()
            .zip(&population.blocklist.entries)
            .map(|(site, entry)| CrawlJob {
                site,
                malicious_category: Some(kt_analysis::report::category_code(entry.category)),
            })
            .collect(),
    }
}

/// Record a snapshot save's [`kt_store::SaveReport`] as gauges.
pub fn record_save_report(trace: &Trace, report: &kt_store::SaveReport) {
    let none = Labels::new(&[]);
    trace.set_gauge(names::SAVE_RECORDS, none.clone(), report.records as f64);
    trace.set_gauge(names::SAVE_BYTES, none.clone(), report.bytes as f64);
    trace.set_gauge(names::SAVE_FSYNCS, none, report.fsyncs as f64);
}

impl Study {
    /// Generate the population and run every campaign.
    pub fn run(config: StudyConfig) -> Study {
        Study::run_with(config, RunOptions::default())
    }

    /// [`Study::run_with`] with only a journal.
    pub fn run_journaled(config: StudyConfig, journal: Option<&JournalWriter>) -> Study {
        let options = journal.map_or_else(RunOptions::default, RunOptions::journaled);
        Study::run_with(config, options)
    }

    /// [`Study::run`] with an optional write-ahead journal and trace.
    ///
    /// The journal frames the campaign parameters up front, every
    /// visit verdict as it lands, and a checkpoint (completed domains
    /// and the exact merged stats) after each `(crawl, OS)` campaign. If
    /// its kill switch fires mid-study the remaining campaigns are
    /// skipped — the returned `Study` then describes a dead process's
    /// partial world and exists only so test harnesses can drop it;
    /// [`Study::resume`] is the real continuation.
    ///
    /// The trace receives metrics, spans and events, plus the run's
    /// stage table: wall time and allocations of population
    /// generation, each `(crawl, OS)` crawl (with its simulated
    /// makespan) and each campaign analysis.
    pub fn run_with(config: StudyConfig, options: RunOptions<'_>) -> Study {
        if let Some(j) = options.journal {
            j.append_meta(&JournalMeta {
                seed: config.population.seed,
                top_size: config.population.top_size as u64,
                malicious_size: config.population.malicious_size as u64,
                workers: config.workers as u64,
            });
        }
        Study::drive(config, TelemetryStore::new(), &BTreeMap::new(), options)
    }

    /// Resume a crashed [`Study::run_with`] from its journal.
    ///
    /// Replays the surviving frames, regenerates the identical
    /// deterministic population from the journaled parameters,
    /// restores checkpointed campaigns verbatim, re-runs only the
    /// missing visits of partial ones (appending to the same journal),
    /// and recomputes the analyses. For outage-free configurations the
    /// result — stats, store bytes, every table — is identical to the
    /// run that never crashed, and so are the trace's crawl and
    /// analysis counters; journal counters are writer-owned and count
    /// only this process's appends.
    pub fn resume(path: &Path, trace: Option<&Trace>) -> Result<Study, JournalError> {
        let report = replay(path)?;
        let meta = report.meta.ok_or_else(|| {
            JournalError::Io(io::Error::new(
                io::ErrorKind::InvalidData,
                "journal has no campaign-parameters frame (not a study journal)",
            ))
        })?;
        let config = StudyConfig {
            population: PopulationConfig {
                seed: meta.seed,
                top_size: meta.top_size as usize,
                malicious_size: meta.malicious_size as usize,
                sensors: false,
            },
            workers: (meta.workers as usize).max(1),
        };
        let journal = JournalWriter::open_append(path)?;
        let replayed = split_campaigns(&report.visits, &report.checkpoints);
        let options = RunOptions {
            journal: Some(&journal),
            trace,
        };
        Ok(Study::drive(config, report.store, &replayed, options))
    }

    /// The one driver under [`Study::run_with`] and [`Study::resume`]:
    /// generate the population, run (or restore) every campaign,
    /// analyse, and time each stage.
    fn drive(
        config: StudyConfig,
        store: TelemetryStore,
        replayed: &BTreeMap<(String, String), CampaignReplay>,
        options: RunOptions<'_>,
    ) -> Study {
        let mut profiler = StageProfiler::new();
        let population = profiler.run("population", || WebPopulation::generate(config.population));
        profiler.annotate_elements(
            (population.sites2020.len()
                + population.sites2021.len()
                + population.malicious_sites.len()) as u64,
        );
        let mut stats = BTreeMap::new();
        'campaigns: for (crawl, oses) in campaigns() {
            let jobs = campaign_jobs(&population, &crawl);
            for os in oses {
                let mut cfg = CrawlConfig::paper(crawl.clone(), os, config.population.seed);
                cfg.workers = config.workers;
                let stage = format!("crawl:{}/{}", crawl.as_str(), os.name());
                let Some(s) = profiler.run(&stage, || {
                    run_checkpointed_campaign(&jobs, replayed, &cfg, &store, options)
                }) else {
                    break 'campaigns;
                };
                profiler.annotate_elements(s.attempted as u64);
                profiler.annotate_sim_ms(s.makespan_ms);
                stats.insert((crawl.as_str().to_string(), os), s);
            }
        }
        options.sync_journal();
        let analyses = campaigns()
            .into_iter()
            .map(|(crawl, _)| {
                let stage = format!("analyze:{}", crawl.as_str());
                let analysis = profiler.run(&stage, || {
                    analyze_crawl_traced(&store, &crawl, config.workers, options.trace)
                });
                profiler.annotate_elements(analysis.visits as u64);
                (crawl.as_str().to_string(), analysis)
            })
            .collect();
        if let Some(trace) = options.trace {
            trace.absorb_stages(profiler);
        }
        Study {
            config,
            population,
            store,
            stats,
            analyses,
        }
    }

    /// The precomputed analysis for one campaign.
    pub fn analysis(&self, crawl: &CrawlId) -> &CrawlAnalysis {
        self.analyses
            .get(crawl.as_str())
            .expect("campaign crawl analysed at Study::run")
    }

    /// Per-site local activity for one crawl (all OSes merged).
    pub fn activities(&self, crawl: &CrawlId) -> &[SiteLocalActivity] {
        &self.analysis(crawl).sites
    }

    /// Crawl stats for one (crawl, OS).
    pub fn stats_for(&self, crawl: &CrawlId, os: Os) -> Option<&CrawlStats> {
        self.stats.get(&(crawl.as_str().to_string(), os))
    }

    /// Run one named experiment (`"T1"`–`"T11"`, `"F2"`–`"F9"`).
    pub fn experiment(&self, id: &str) -> Option<String> {
        crate::experiments::run(self, id)
    }

    /// Every experiment, in paper order: `(id, rendered text)`.
    pub fn all_experiments(&self) -> Vec<(&'static str, String)> {
        crate::experiments::ALL_IDS
            .iter()
            .map(|id| (*id, crate::experiments::run(self, id).expect("known id")))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`Study::run`] through the resident campaign service: all eight
    /// `(crawl, OS)` campaigns are submitted to one
    /// [`kt_service::CampaignService`] as a single unbounded tenant
    /// and multiplexed over the service scheduler, with tables built
    /// by the online incremental aggregator instead of the end-of-run
    /// batch analyzer.
    fn run_service(config: StudyConfig) -> Study {
        use kt_service::{CampaignService, CampaignSpec, OverflowPolicy, ServiceJob, TenantQuota};

        let population = WebPopulation::generate(config.population);
        let mut svc_config = kt_service::ServiceConfig::new(config.population.seed);
        svc_config.workers = config.workers.max(1);
        let mut service = CampaignService::new(svc_config);
        service.register_tenant("paper", TenantQuota::unbounded(), OverflowPolicy::Block);

        let mut handles = Vec::new();
        for (crawl, oses) in campaigns() {
            let jobs = campaign_jobs(&population, &crawl);
            for os in oses {
                let spec = CampaignSpec {
                    crawl: crawl.clone(),
                    os,
                    jobs: jobs
                        .iter()
                        .map(|job| ServiceJob {
                            site: job.site.clone(),
                            malicious_category: job.malicious_category,
                        })
                        .collect(),
                    deadline_ms: None,
                    nominal_workers: config.workers,
                };
                let handle = service.submit("paper", spec).expect("unbounded tenant");
                handles.push((crawl.as_str().to_string(), os, handle));
            }
        }
        service.run();

        let mut stats = BTreeMap::new();
        for (crawl, os, handle) in &handles {
            stats.insert(
                (crawl.clone(), *os),
                service.campaign_stats(*handle).expect("admitted campaign"),
            );
        }
        // One crawl's analysis is the merge of its per-OS campaign
        // partials — the online path all the way to the tables.
        let analyses = campaigns()
            .into_iter()
            .map(|(crawl, _)| {
                let mut merged = kt_analysis::OnlinePartial::new();
                for (name, _, handle) in &handles {
                    if name == crawl.as_str() {
                        merged.merge(service.partial(*handle).expect("completed campaign"));
                    }
                }
                (crawl.as_str().to_string(), merged.assemble())
            })
            .collect();
        Study {
            config,
            population,
            store: service.into_store(),
            stats,
            analyses,
        }
    }

    #[test]
    fn quick_study_runs_every_campaign() {
        let study = Study::run(StudyConfig::quick(7));
        // 3 + 2 + 3 campaign/OS pairs.
        assert_eq!(study.stats.len(), 8);
        // Telemetry for each (site, crawl, os) triple.
        let expected = study.population.sites2020.len() * 3
            + study.population.sites2021.len() * 2
            + study.population.malicious_sites.len() * 3;
        assert_eq!(study.store.len(), expected);
    }

    #[test]
    fn activities_recover_planted_sites_2020() {
        let study = Study::run(StudyConfig::quick(7));
        let sites = study.activities(&CrawlId::top2020());
        let localhost = sites.iter().filter(|s| s.has_localhost()).count();
        let lan = sites.iter().filter(|s| s.has_lan()).count();
        assert_eq!(localhost, 107, "the paper's 107 localhost sites");
        assert_eq!(lan, 9, "the paper's 9 LAN sites");
    }

    #[test]
    fn killed_study_resumes_to_identical_tables() {
        use kt_store::{KillMode, KillSpec};

        let config = StudyConfig::quick(7);
        let baseline = Study::run(config);
        let path = std::env::temp_dir().join(format!("kt-study-resume-{}.ktj", std::process::id()));
        let journal = JournalWriter::create(&path).unwrap();
        // Die mid-frame about a third of the way through the study —
        // inside a campaign, past at least one checkpoint.
        let kill_at = (baseline.store.len() as u64) / 3;
        journal.set_kill(Some(KillSpec {
            at_frame: kill_at,
            mode: KillMode::MidFrame,
        }));
        let _ = Study::run_journaled(config, Some(&journal));
        assert!(journal.killed(), "the study must die at frame {kill_at}");

        let resumed = Study::resume(&path, None).unwrap();
        assert_eq!(resumed.stats, baseline.stats, "per-campaign stats match");
        for (crawl, _) in campaigns() {
            assert_eq!(
                resumed.store.crawl_records(&crawl),
                baseline.store.crawl_records(&crawl),
                "store records for {} match byte for byte",
                crawl.as_str()
            );
        }
        for id in ["T1", "T2", "T5"] {
            assert_eq!(
                resumed.experiment(id),
                baseline.experiment(id),
                "table {id} regenerates identically after resume"
            );
        }

        // Resuming a *finished* journal is a pure checkpoint restore:
        // nothing re-runs and the results still match.
        let restored = Study::resume(&path, None).unwrap();
        assert_eq!(restored.stats, baseline.stats);
        assert_eq!(restored.store.len(), baseline.store.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn run_with_trace_and_journal_matches_plain_run() {
        let config = StudyConfig::quick(7);
        let baseline = Study::run(config);
        let path =
            std::env::temp_dir().join(format!("kt-study-run-with-{}.ktj", std::process::id()));
        let journal = JournalWriter::create(&path).unwrap();
        let trace = Trace::new();
        let study = Study::run_with(
            config,
            RunOptions {
                journal: Some(&journal),
                trace: Some(&trace),
            },
        );
        assert_eq!(study.stats, baseline.stats, "options change nothing");
        assert_eq!(study.store.byte_size(), baseline.store.byte_size());
        for (crawl, _) in campaigns() {
            assert_eq!(
                study.store.crawl_records(&crawl),
                baseline.store.crawl_records(&crawl),
                "store records for {} match byte for byte",
                crawl.as_str()
            );
        }

        // population + 8 campaign/OS crawls + 3 analyses.
        trace.with_stages(|profiler| {
            let names: Vec<&str> = profiler.stages().iter().map(|s| s.name.as_str()).collect();
            assert_eq!(names.len(), 12);
            assert_eq!(names[0], "population");
            assert!(names.contains(&"crawl:top2020/Windows"));
            assert!(names.contains(&"analyze:malicious"));
            let table = profiler.render_table();
            assert!(table.lines().last().unwrap().starts_with("total"));
        });

        // The finished journal resumes, by checkpoint restore, to the
        // same tables.
        drop(journal);
        let resumed = Study::resume(&path, None).unwrap();
        assert_eq!(resumed.stats, baseline.stats);
        assert_eq!(resumed.all_experiments(), baseline.all_experiments());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn metrics_are_worker_count_invariant() {
        // Same population, different schedules: every exported series
        // — counters, gauges, sim-cost histograms — must come out byte
        // for byte identical. This is the registry-level face of the
        // CrawlStats invariance the crawler already guarantees.
        let export_with = |workers: usize| {
            let mut config = StudyConfig::quick(7);
            config.workers = workers;
            let trace = Trace::new();
            let _ = Study::run_with(config, RunOptions::traced(&trace));
            trace.export_prometheus()
        };
        let baseline = export_with(1);
        assert!(baseline.contains("visits_total{"), "core series present");
        assert!(baseline.contains("analysis_stage_seconds_bucket{"));
        for workers in [2, 4, 8] {
            assert_eq!(
                export_with(workers),
                baseline,
                "{workers}-worker export differs from single-worker"
            );
        }
    }

    #[test]
    fn resumed_metrics_match_baseline_counters() {
        use kt_store::{KillMode, KillSpec};

        let config = StudyConfig::quick(11);
        let base_trace = Trace::new();
        let _ = Study::run_with(config, RunOptions::traced(&base_trace));

        let path = std::env::temp_dir().join(format!(
            "kt-study-metrics-resume-{}.ktj",
            std::process::id()
        ));
        let journal = JournalWriter::create(&path).unwrap();
        let kill_at = 900;
        journal.set_kill(Some(KillSpec {
            at_frame: kill_at,
            mode: KillMode::MidFrame,
        }));
        let _ = Study::run_journaled(config, Some(&journal));
        assert!(journal.killed());

        let resumed_trace = Trace::new();
        let _ = Study::resume(&path, Some(&resumed_trace)).unwrap();

        // Crawl-derived counters and analysis counters must match the
        // never-crashed run exactly; journal counters are writer-owned
        // and may not.
        for (crawl, oses) in campaigns() {
            for os in oses {
                let labels = kt_crawler::campaign_labels(&crawl, os);
                for name in [
                    names::VISITS_TOTAL,
                    names::SUCCESS_TOTAL,
                    names::RETRIES_TOTAL,
                ] {
                    let base = base_trace.with_registry(|r| r.counter_value(name, &labels));
                    let resumed = resumed_trace.with_registry(|r| r.counter_value(name, &labels));
                    assert_eq!(
                        resumed,
                        base,
                        "{name} for ({}, {}) differs after resume",
                        crawl.as_str(),
                        os.name()
                    );
                }
            }
            let labels = Labels::new(&[("crawl", crawl.as_str())]);
            let base = base_trace
                .with_registry(|r| r.counter_value(names::LOCAL_OBSERVATIONS_TOTAL, &labels));
            let resumed = resumed_trace
                .with_registry(|r| r.counter_value(names::LOCAL_OBSERVATIONS_TOTAL, &labels));
            assert_eq!(resumed, base, "local observations differ after resume");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn service_study_matches_batch_study() {
        let config = StudyConfig::quick(7);
        let batch = Study::run(config);
        let service = run_service(config);
        assert_eq!(service.stats, batch.stats, "per-campaign stats match");
        assert_eq!(service.store.len(), batch.store.len());
        for (crawl, _) in campaigns() {
            assert_eq!(
                service.store.crawl_records(&crawl),
                batch.store.crawl_records(&crawl),
                "store records for {} match byte for byte",
                crawl.as_str()
            );
            assert_eq!(
                service.analyses[crawl.as_str()],
                batch.analyses[crawl.as_str()],
                "online-aggregated analysis for {} matches the batch analyzer",
                crawl.as_str()
            );
        }
        for id in ["T1", "T2", "T5"] {
            assert_eq!(
                service.experiment(id),
                batch.experiment(id),
                "table {id} renders identically through the service"
            );
        }
    }

    #[test]
    fn no_mac_records_for_2021() {
        let study = Study::run(StudyConfig::quick(7));
        let records = study.store.crawl_records(&CrawlId::top2021());
        assert!(records.iter().all(|r| r.os != Os::MacOs));
        assert!(study.stats_for(&CrawlId::top2021(), Os::MacOs).is_none());
        assert!(study.stats_for(&CrawlId::top2021(), Os::Windows).is_some());
    }
}
