//! The traced run (`--trace 1`): every per-layer metric, from spans
//! the benchmark records around its own calls into each layer's public
//! functions. Nothing inside the program is instrumented.
//!
//! It traces the study, the reanalysis path and the capture path on
//! the run's seed, so every per-layer metric has one definition
//! whichever `--workload` is named:
//!
//! 1. `study`: the pipeline of [`crate::study`], decomposed into its
//!    public calls (population, each campaign, each analysis, render),
//!    then a single-threaded probe that drives `World::build`,
//!    `Browser::visit`, `codec::encode` and `TelemetryStore::append`
//!    over the same jobs, since those run inside `run_crawl`;
//! 2. the reanalysis path: writing the journal (`study_journal`'s
//!    work), the pipeline of [`crate::reanalyze`], then probes of
//!    `decode_view` and `detect_local_view` over the replayed store,
//!    of `journal::scan` and the checkpoint JSON decode over the
//!    journal bytes, and of `JournalWriter::append_visit`;
//! 3. the capture path of [`crate::capture`] (parse, aggregate and
//!    classify each capture), then probes of the JSON parse and
//!    `NetLogEvent::from_wire` over the intact captures.
//!
//! The study pipeline is also run once untraced on the same inputs;
//! `trace.overhead_ratio` is the traced pipeline's wall time over that
//! run's, and the two outputs must be identical. The counts printed are
//! the named workload's: the study's, plus the journal's for
//! `study_journal`.

use std::collections::BTreeMap;
use std::time::Instant;

use knock_talk::analysis::classify::classify_site;
use knock_talk::analysis::detect::{aggregate_sites, detect_local_view};
use knock_talk::analysis::par::analyze_crawl_par;
use knock_talk::analysis::report::category_code;
use knock_talk::browser::{Browser, BrowserConfig, PageLoadOutcome, World};
use knock_talk::crawler::{run_crawl, CrawlConfig, CrawlJob, CrawlStats};
use knock_talk::netlog::{Capture, NetLogEvent};
use knock_talk::store::codec::encode;
use knock_talk::store::journal::{scan, FrameBody};
use knock_talk::store::{
    decode_view, load_any, CheckpointFrame, CrawlId, JournalWriter, LoadOutcome, TelemetryStore,
    VisitRecord,
};
use knock_talk::study::campaigns;
use knock_talk::trace::{live_bytes, peak_bytes, reset_peak_bytes};
use knock_talk::webgen::WebPopulation;
use knock_talk::Study;

use crate::capture::{self, Ingested};
use crate::host::SchedSample;
use crate::reanalyze::{self, Reanalysis};
use crate::spans::Tracer;
use crate::study;
use crate::{Counts, Metric, RunConfig, RunOutput, Tally, Workload};

/// The jobs of one campaign, as `Study::run` builds them.
fn campaign_jobs<'a>(population: &'a WebPopulation, crawl: &CrawlId) -> Vec<CrawlJob<'a>> {
    let top = |sites: &'a [knock_talk::webgen::WebSite]| {
        sites
            .iter()
            .map(|site| CrawlJob {
                site,
                malicious_category: None,
            })
            .collect()
    };
    match crawl.as_str() {
        "top2020" => top(&population.sites2020),
        "top2021" => top(&population.sites2021),
        _ => population
            .malicious_sites
            .iter()
            .zip(&population.blocklist.entries)
            .map(|(site, entry)| CrawlJob {
                site,
                malicious_category: Some(category_code(entry.category)),
            })
            .collect(),
    }
}

/// What a phase hands back besides its spans.
struct Phase {
    metrics: Vec<Metric>,
    /// Counts of the phase, identical to an untraced run's.
    counts: Counts,
}

/// Phase 1: the study. Also returns (traced, untraced) pipeline seconds.
fn study_phase(t: &mut Tracer, cfg: &RunConfig, tally: &mut Tally) -> (Phase, (f64, f64)) {
    let mark = t.mark();
    let config = study::config(cfg.seed, cfg.workers);
    let (untraced_secs, untraced_digest) = {
        let began = Instant::now();
        let s = Study::run(config);
        let tables = study::render(&s);
        let secs = began.elapsed().as_secs_f64();
        (
            secs,
            study::check(&s, &tables, &study::expected(&s.population)).digest,
        )
    };
    let began = Instant::now();
    let (study, tables) = t.span("pipeline.study", |t| {
        let population = t.span("webgen.generate", |_| {
            WebPopulation::generate(config.population)
        });
        let store = TelemetryStore::new();
        let mut stats = BTreeMap::new();
        for (crawl, oses) in campaigns() {
            let jobs = campaign_jobs(&population, &crawl);
            for os in oses {
                let mut crawl_config = CrawlConfig::paper(crawl.clone(), os, cfg.seed);
                crawl_config.workers = cfg.workers;
                let s = t.span_items("crawler.campaign", |_| {
                    let s = run_crawl(&jobs, &crawl_config, &store);
                    let n = s.attempted as u64;
                    (s, n)
                });
                stats.insert((crawl.as_str().to_string(), os), s);
            }
        }
        let analyses = campaigns()
            .into_iter()
            .map(|(crawl, _)| {
                let a = t.span("analysis.analyze_crawl_par", |_| {
                    analyze_crawl_par(&store, &crawl, cfg.workers)
                });
                (crawl.as_str().to_string(), a)
            })
            .collect();
        let study = Study {
            config,
            population,
            store,
            stats,
            analyses,
        };
        let tables = t.span("core.render", |_| study::render(&study));
        (study, tables)
    });
    let traced_secs = began.elapsed().as_secs_f64();
    let check = study::check(&study, &tables, &study::expected(&study.population));
    tally.merge(check.tally.clone());
    tally.check(untraced_digest == check.digest, || {
        "traced study output differs from the untraced run".to_string()
    });

    // Browser and store layers, single-threaded over the same jobs.
    let probe_store = TelemetryStore::new();
    for (crawl, oses) in campaigns() {
        let jobs = campaign_jobs(&study.population, &crawl);
        for os in oses {
            for job in &jobs {
                let mut world = t.span("browser.world_build", |_| {
                    World::build(std::slice::from_ref(job.site), os, cfg.seed)
                });
                let visit = t.span_items("browser.visit", |_| {
                    let v = Browser::new(&mut world, BrowserConfig::paper(os), cfg.seed)
                        .visit(job.site);
                    let n = v.capture.events.len() as u64;
                    (v, n)
                });
                let (outcome, loaded_at_ms) = match visit.outcome {
                    PageLoadOutcome::Loaded { at_ms } => (LoadOutcome::Success, at_ms),
                    PageLoadOutcome::Failed(e) => (LoadOutcome::Error(e), 0),
                };
                let record = VisitRecord {
                    crawl: crawl.clone(),
                    domain: visit.domain,
                    rank: job.site.rank,
                    malicious_category: job.malicious_category,
                    os,
                    outcome,
                    loaded_at_ms,
                    events: visit.capture.events,
                };
                t.span("store.encode", |_| encode(&record));
                t.span("store.append", |_| probe_store.append(&record));
            }
        }
    }

    let totals = t.totals_from(mark);
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let (world, visit, enc, append) = (
        get("browser.world_build"),
        get("browser.visit"),
        get("store.encode"),
        get("store.append"),
    );
    let campaign = get("crawler.campaign");
    let all: Vec<&CrawlStats> = study.stats.values().collect();
    let sites: usize = all.iter().map(|s| s.attempted).sum();
    let attempts: usize = all
        .iter()
        .map(|s| s.attempted + s.retries + s.recrawled)
        .sum();
    let metrics = vec![
        Metric::new("webgen.generate_s", get("webgen.generate").secs, "s"),
        Metric::new("browser.world_build_us_per_site", world.us_per_call(), "us"),
        Metric::new(
            "browser.world_build_allocs_per_site",
            world.allocs_per_call(),
            "count",
        ),
        Metric::new("browser.visit_us", visit.us_per_call(), "us"),
        Metric::new("browser.visit_allocs", visit.allocs_per_call(), "count"),
        Metric::new(
            "browser.events_per_visit",
            visit.items as f64 / visit.calls.max(1) as f64,
            "count",
        ),
        Metric::new("crawler.campaign_s", campaign.secs, "s"),
        Metric::new(
            "crawler.attempts_per_site",
            attempts as f64 / sites.max(1) as f64,
            "count",
        ),
        Metric::new(
            "crawler.parallel_efficiency",
            (world.secs + visit.secs + append.secs) / (cfg.workers as f64 * campaign.secs),
            "ratio",
        ),
        Metric::new("store.encode_us", enc.us_per_call(), "us"),
        Metric::new("store.append_us", append.us_per_call(), "us"),
        Metric::new("store.append_allocs", append.allocs_per_call(), "count"),
        Metric::new(
            "store.bytes_per_visit",
            study.store.byte_size() as f64 / study.store.len().max(1) as f64,
            "B",
        ),
        Metric::new("core.render_s", get("core.render").secs, "s"),
    ];
    let counts = vec![
        ("visits", check.visits),
        ("events", crate::store_events(&study.store)),
        ("store_bytes", check.store_bytes),
        ("output_digest", check.digest),
    ];
    (Phase { metrics, counts }, (traced_secs, untraced_secs))
}

/// Phase 2: journal write, replay and reanalysis.
fn reanalyze_phase(t: &mut Tracer, cfg: &RunConfig, tally: &mut Tally) -> Phase {
    let mark = t.mark();
    let path = cfg.workdir.join(format!("trace-{}.ktj", cfg.seed));
    let oracle = t.span("setup.write_journal", |_| {
        reanalyze::write_journal(cfg.seed, cfg.workers, &path)
    });

    let mut replay_heap = 0;
    let re = t.span("pipeline.reanalyze", |t| {
        let live = live_bytes();
        reset_peak_bytes();
        let report = t.span_items("journal.replay", |_| {
            let r = load_any(&path).expect("the set-up journal loads");
            let n = (r.loaded + r.corrupt) as u64;
            (r, n)
        });
        replay_heap = peak_bytes().saturating_sub(live);
        let crawls = report
            .store
            .crawl_ids()
            .into_iter()
            .map(|crawl| {
                let analysis = t.span("analysis.analyze_crawl_par", |_| {
                    analyze_crawl_par(&report.store, &crawl, cfg.workers)
                });
                let classes = t.span("analysis.classify_active_sites", |_| {
                    reanalyze::active_classes(&analysis)
                });
                (crawl, analysis, classes)
            })
            .collect();
        Reanalysis { report, crawls }
    });
    tally.merge(reanalyze::check(&re, &oracle));

    // Store read and detection, record by record.
    let store = &re.report.store;
    for crawl in store.crawl_ids() {
        for shard in 0..store.shard_count() {
            for raw in store.shard_raw_on(&crawl, shard, None) {
                let view = t.span("store.decode_view", |_| decode_view(&raw));
                tally.check(view.is_ok(), || {
                    format!("{}: record does not decode", crawl.as_str())
                });
                if let Ok(view) = view {
                    t.span("analysis.detect_local_view", |_| detect_local_view(&view));
                }
            }
        }
    }
    drop(re);

    // Journal read path: the scan, then the checkpoint JSON it decodes.
    let data = std::fs::read(&path).expect("journal readable");
    let scanned = t.span_items("journal.scan", |_| {
        let s = scan(&data).expect("journal magic");
        let n = s.frames.len() as u64;
        (s, n)
    });
    for frame in &scanned.frames {
        if let FrameBody::Checkpoint(cp) = &frame.body {
            // Frame layout: 2-byte sync, kind, 4-byte length, payload, CRC.
            let payload = &data[frame.start as usize + 7..frame.end as usize - 4];
            let decoded = t.span_items("json.checkpoint_decode", |_| {
                let d = std::str::from_utf8(payload)
                    .ok()
                    .and_then(|text| serde_json::from_str::<CheckpointFrame>(text).ok());
                (d, payload.len() as u64)
            });
            tally.check(
                decoded.is_some_and(|d| {
                    d.crawl == cp.crawl
                        && d.os == cp.os
                        && d.completed == cp.completed
                        && d.stats == cp.stats
                }),
                || format!("checkpoint {}/{} decodes differently", cp.crawl, cp.os),
            );
        }
    }

    // Journal write path, frame by frame.
    let probe_path = cfg.workdir.join(format!("trace-append-{}.ktj", cfg.seed));
    let writer = JournalWriter::create(&probe_path).expect("probe journal in the work directory");
    for frame in &scanned.frames {
        if let FrameBody::Visit(v) = &frame.body {
            t.span("journal.append_visit", |_| {
                writer.append_visit(&v.record, &v.delta, v.flags, false)
            });
        }
    }
    writer.sync();
    drop(writer);
    let _ = std::fs::remove_file(&probe_path);
    let _ = std::fs::remove_file(&path);

    let totals = t.totals_from(mark);
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let (replay, cp, decode, detect) = (
        get("journal.replay"),
        get("json.checkpoint_decode"),
        get("store.decode_view"),
        get("analysis.detect_local_view"),
    );
    let frames = scanned.frames.len().max(1) as f64;
    let metrics = vec![
        Metric::new("store.decode_view_us", decode.us_per_call(), "us"),
        Metric::new(
            "store.decode_view_allocs",
            decode.allocs_per_call(),
            "count",
        ),
        Metric::new(
            "journal.append_us",
            get("journal.append_visit").us_per_call(),
            "us",
        ),
        Metric::new(
            "journal.bytes_per_visit",
            oracle.journal.bytes as f64 / oracle.journal.visits.max(1) as f64,
            "B",
        ),
        Metric::new(
            "journal.frames_per_fsync",
            oracle.journal.frames_per_fsync(),
            "count",
        ),
        Metric::new("journal.scan_s", get("journal.scan").secs, "s"),
        Metric::new("journal.checkpoint_decode_s", cp.secs, "s"),
        Metric::new("journal.replay_s", replay.secs, "s"),
        Metric::new(
            "journal.replay_allocs_per_frame",
            replay.allocs as f64 / frames,
            "count",
        ),
        Metric::new("journal.replay_heap_mb", replay_heap as f64 / 1e6, "MB"),
        Metric::new(
            "json.parse_mb_per_s.checkpoint",
            cp.items as f64 / 1e6 / cp.secs.max(1e-9),
            "MB/s",
        ),
        Metric::new("analysis.detect_us", detect.us_per_call(), "us"),
        Metric::new("analysis.detect_allocs", detect.allocs_per_call(), "count"),
        Metric::new(
            "analysis.analyze_s",
            get("analysis.analyze_crawl_par").secs,
            "s",
        ),
    ];
    Phase {
        metrics,
        counts: study::journal_counts(&oracle.journal),
    }
}

/// Phase 3: the capture path. It is no declared workload, so it has no
/// untraced reference run.
fn capture_phase(t: &mut Tracer, cfg: &RunConfig, tally: &mut Tally) -> Vec<Metric> {
    let mark = t.mark();
    let inputs = t.span("setup.build_captures", |_| {
        capture::build_inputs(cfg.seed, cfg.workers)
    });

    let outs: Vec<_> = t.span("pipeline.capture_ingest", |t| {
        inputs
            .iter()
            .map(|input| {
                let parsed = t.span_items("netlog.capture_parse", |_| {
                    let c = Capture::parse(&input.text);
                    let n = c.as_ref().map_or(0, |c| c.events.len() as u64);
                    (c, n)
                });
                parsed.map(|c| {
                    let record = capture::capture_record(&input.domain, c.events);
                    let sites = t.span("analysis.aggregate_sites", |_| {
                        aggregate_sites(std::slice::from_ref(&record))
                    });
                    let classes = sites
                        .iter()
                        .map(|s| t.span("analysis.classify_site", |_| classify_site(s)))
                        .collect();
                    Ingested {
                        record,
                        skipped: c.skipped,
                        truncated: c.truncated,
                        sites,
                        classes,
                    }
                })
            })
            .collect()
    });
    let (mut kept, mut skipped, mut cut_recovered, mut cut_logged) = (0u64, 0u64, 0u64, 0u64);
    for (input, out) in inputs.iter().zip(&outs) {
        capture::check(input, out, tally);
        if let Ok(o) = out {
            kept += o.record.events.len() as u64;
            skipped += o.skipped as u64;
            if input.truncated {
                cut_recovered += o.record.events.len() as u64;
                cut_logged += input.events.len() as u64;
            }
        }
    }
    drop(outs);

    // The JSON layer and the wire decoder, over the intact captures.
    for input in inputs.iter().filter(|c| !c.truncated) {
        let doc = t.span_items("json.parse_capture", |_| {
            (
                serde_json::from_str::<serde_json::Value>(&input.text),
                input.text.len() as u64,
            )
        });
        let events = doc
            .ok()
            .and_then(|d| d.get("events").and_then(|e| e.as_array().cloned()));
        tally.check(events.is_some(), || {
            format!("{}: capture JSON has no events", input.domain)
        });
        if let Some(events) = events {
            let decoded = t.span_items("netlog.from_wire", |_| {
                let d: Vec<NetLogEvent> =
                    events.iter().filter_map(NetLogEvent::from_wire).collect();
                (d, events.len() as u64)
            });
            tally.check(decoded == input.events, || {
                format!("{}: wire events decode differently", input.domain)
            });
        }
    }

    let totals = t.totals_from(mark);
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let (parse, json, wire) = (
        get("netlog.capture_parse"),
        get("json.parse_capture"),
        get("netlog.from_wire"),
    );
    vec![
        Metric::new(
            "json.parse_mb_per_s.capture",
            json.items as f64 / 1e6 / json.secs.max(1e-9),
            "MB/s",
        ),
        Metric::new("netlog.capture_parse_us", parse.us_per_call(), "us"),
        Metric::new(
            "netlog.capture_parse_allocs_per_event",
            parse.allocs as f64 / parse.items.max(1) as f64,
            "count",
        ),
        Metric::new(
            "netlog.from_wire_us_per_event",
            wire.secs * 1e6 / wire.items.max(1) as f64,
            "us",
        ),
        Metric::new(
            "netlog.skipped_share",
            skipped as f64 / (kept + skipped).max(1) as f64,
            "share",
        ),
        Metric::new(
            "netlog.truncated_recovered_share",
            cut_recovered as f64 / cut_logged.max(1) as f64,
            "share",
        ),
        Metric::new(
            "analysis.aggregate_us",
            get("analysis.aggregate_sites").us_per_call(),
            "us",
        ),
        Metric::new(
            "analysis.classify_us",
            get("analysis.classify_site").us_per_call(),
            "us",
        ),
    ]
}

/// Run the traced probe for `workload`'s seed.
pub fn run(cfg: &RunConfig, workload: Workload) -> RunOutput {
    let mut t = Tracer::new();
    let mut tally = Tally::default();
    let start = SchedSample::now();
    let (study, (traced, untraced)) = t.span("phase.study", |t| study_phase(t, cfg, &mut tally));
    let journal = t.span("phase.reanalyze", |t| reanalyze_phase(t, cfg, &mut tally));
    let capture_metrics = t.span("phase.capture_ingest", |t| {
        capture_phase(t, cfg, &mut tally)
    });
    let end = SchedSample::now();
    let mut metrics: Vec<Metric> = study.metrics;
    metrics.extend(journal.metrics);
    metrics.extend(capture_metrics);
    metrics.push(Metric::new(
        "trace.overhead_ratio",
        traced / untraced,
        "ratio",
    ));
    metrics.sort_by(|a, b| a.name.cmp(&b.name));

    let mut counts = study.counts;
    if workload == Workload::StudyJournal {
        counts.extend(journal.counts);
    }
    let spans_path = cfg.workdir.join(format!("spans-{}.jsonl", workload.name()));
    if let Err(e) = std::fs::write(&spans_path, t.to_jsonl()) {
        eprintln!("perfbench: writing {}: {e}", spans_path.display());
    }
    println!(
        "spans {} written to {}",
        t.spans().len(),
        spans_path.display()
    );
    print!("{}", t.render_self_times());
    RunOutput {
        metrics,
        tally,
        pass_rates: vec![],
        setup_times: vec![],
        counts,
        sched: (start, end),
    }
}
