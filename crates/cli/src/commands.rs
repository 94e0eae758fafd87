//! Subcommand implementations, and the table of flags each accepts.

use knock_talk::analysis::classify::{classify_site, native_app_name};
use knock_talk::analysis::detect::aggregate_sites;
use knock_talk::analysis::entropy::scan_entropy;
use knock_talk::crawler::RunOptions;
use knock_talk::netbase::services::{BIGIP_PORTS, THREATMETRIX_PORTS};
use knock_talk::netbase::Os;
use knock_talk::netlog::Capture;
use knock_talk::store::{
    CrawlId, FsckOptions, JournalConfig, JournalWriter, KillMode, KillSpec, LoadOutcome,
    SegmentMode, SnapshotStore, SpillConfig, VisitRecord,
};
use knock_talk::trace::{StageProfiler, Trace};
use knock_talk::{SnapshotStudy, SnapshotStudyConfig, Study, StudyConfig};

use crate::args::Options;

/// One subcommand: its name, its positional arguments, the flags it
/// accepts, and its body. Parsing and `knocktalk help`'s usage lines
/// both read this one declaration.
pub struct Command {
    /// `repro`, `snapshot crawl`, …
    pub name: &'static str,
    /// Its positional arguments, e.g. `<journal.ktj>`: it takes at
    /// most this many.
    pub args: &'static str,
    /// Accepted flags in space-separated groups, each `name=VALUE`
    /// (the value is the usage hint).
    pub flags: &'static [&'static str],
    /// The subcommand itself.
    pub run: fn(&Options) -> Result<(), String>,
}

const fn command(
    name: &'static str,
    args: &'static str,
    flags: &'static [&'static str],
    run: fn(&Options) -> Result<(), String>,
) -> Command {
    Command {
        name,
        args,
        flags,
        run,
    }
}

/// Population scale, seed and worker count of a study.
const STUDY: &str = "scale=quick|standard|paper seed=N workers=N";
/// A new write-ahead journal with its crash, flush and group-commit
/// knobs.
const JOURNAL: &str = "journal=FILE kill-frames=N kill-mode=mid-frame|post-frame \
                       flush-every=BYTES group-frames=N";
/// The metrics and trace outputs.
const OUTPUTS: &str = "metrics-out=FILE trace-out=FILE";
/// The crawling OS.
const OS: &str = "os=windows|linux|mac";

/// Every subcommand `knocktalk` dispatches to.
pub const COMMANDS: &[Command] = &[
    command("repro", "", &[STUDY, "id=T5", JOURNAL, OUTPUTS], repro),
    command(
        "crawl",
        "",
        &[
            OS,
            STUDY,
            "save=FILE profile=naive|headless-patched|stealth|human-replay",
            JOURNAL,
            OUTPUTS,
        ],
        crawl,
    ),
    command(
        "bias",
        "",
        &["seed=N workers=N out=FILE metrics-out=FILE"],
        bias,
    ),
    command("resume", "<study.ktj>", &["id=T5", OUTPUTS], resume),
    command("fsck", "<journal.ktj>", &["repair=yes|no"], fsck),
    command("analyze", "<store.ktstore|journal.ktj>", &[], analyze),
    command(
        "classify",
        "<netlog.json>",
        &["loaded-at=MS domain=NAME", OS],
        classify,
    ),
    command("entropy", "", &["machines=N seed=N"], entropy),
    command(
        "scan",
        "",
        &[
            OS,
            "seed=N ports=P,P,... sequence=P,P,P payload=HEX udp=yes|no ipv6=yes|no lan=yes|no",
            "concurrency=N timeout-ms=N retries=N breaker-threshold=N breaker-cooldown-ms=N",
            "deadline-ms=N fault-rate=R agreement=yes|no sites=N metrics-out=FILE",
        ],
        scan,
    ),
    command(
        "serve",
        "",
        &[
            "tenants=N campaigns=N sites=N seed=N workers=N queue-capacity=N policy=block|shed",
            "max-campaigns=N max-visits=N deadline-ms=N storm=yes|no check=invariants,tables",
            "metrics-out=FILE journal-dir=DIR flush-every=BYTES group-frames=N",
        ],
        serve,
    ),
    command(
        "snapshot crawl",
        "",
        &[
            "snapshots=N size=N churn=R relist=R content-churn=R seed=N workers=N full=yes|no",
            "store=DIR spill=DIR resume=yes|no",
            JOURNAL,
            OUTPUTS,
        ],
        snapshot_crawl,
    ),
    command(
        "snapshot diff",
        "",
        &[
            "store=DIR mode=mmap|resident workers=N snapshots=L1,L2,... out=FILE",
            OUTPUTS,
        ],
        snapshot_diff,
    ),
    command(
        "snapshot gc",
        "",
        &["store=DIR mode=mmap|resident keep=N"],
        snapshot_gc,
    ),
    command("snapshot fsck", "", &["store=DIR"], snapshot_fsck_cmd),
    command("health", "", &[STUDY], health),
    command("profile", "", &[STUDY, OUTPUTS], profile),
    command("help", "", &[], |_| {
        help();
        Ok(())
    }),
];

/// Print usage: one line group per [`COMMANDS`] entry, then what the
/// shared flags and each command do.
pub fn help() {
    println!("knocktalk — reproduce 'Knock and Talk' (IMC 2021)\n\nUSAGE:");
    for command in COMMANDS {
        let mut line = format!("  knocktalk {} {}", command.name, command.args)
            .trim_end()
            .to_string();
        let flags = command
            .flags
            .iter()
            .flat_map(|group| group.split_whitespace());
        for flag in flags {
            let (name, value) = flag.split_once('=').unwrap_or((flag, ""));
            let item = format!(" [--{name} {value}]");
            if line.len() + item.len() > 80 {
                println!("{line}");
                line = " ".repeat(12);
            }
            line.push_str(&item);
        }
        println!("{line}");
    }
    println!("{HELP}");
}

const HELP: &str = "
Shared by the commands that run a study:
  --scale S          quick | standard | paper (default quick)
  --seed N           population seed
  --workers N        override the worker-thread count
  --journal FILE     write a checksummed write-ahead log (KTSTORE2)
  --kill-frames N    simulate `kill -9` while writing frame N
  --kill-mode M      mid-frame (tear frame N) | post-frame (die just after it)
  --flush-every B    bytes of visit payload between journal FLUSH fsyncs
  --group-frames N   journal frames per group-commit write (1 = unbatched)
  --metrics-out FILE write the run's metrics registry in Prometheus
                     text exposition format (worker-count-invariant)
  --trace-out FILE   write the span/event trace (simulated clock) as JSONL

Each command accepts only the flags listed for it. An unknown flag, a
surplus argument, a zero count or a yes/no switch given any other
value is an error. A resume takes its worker count from the journal.

COMMANDS:
  repro     regenerate the paper's tables and figures (all, or one --id);
            a --journal run killed by --kill-frames is finished by resume
  crawl     run one campaign on one OS and print Table-1 statistics;
            --profile selects how the crawler presents to anti-bot sensors
  bias      crawl the sensor-planted population once per crawler profile and
            print observed-vs-true local-activity rates with per-archetype
            confusion cells — the measurement bias a detectable crawler
            suffers; the table is byte-identical for any --workers
  resume    replay a study journal, re-run only what the crash lost, and
            print what repro prints — byte-identical to a run that never
            crashed
  fsck      store doctor: scan a journal for torn tails, bad CRCs, duplicate
            and orphan records; --repair yes quarantines the damage and
            rewrites a clean journal (fsync-before-rename)
  analyze   load a telemetry snapshot (KTSTORE1) or journal (KTSTORE2)
            and report local activity
  classify  analyse a Chrome NetLog JSON capture for local traffic
  entropy   measure the fingerprinting entropy of the observed scans
  scan      actively knock loopback (and LAN) ports on a simulated machine:
            TCP plus optional UDP and IPv6 sweeps, ordered knock sequences,
            shared retry/backoff policy, per-host circuit breakers, and a
            total deadline budget that degrades to an explicit unprobed set;
            results are byte-identical for any --concurrency; --fault-rate R
            arms a seeded fault storm; --agreement yes cross-validates the
            active scan against the passive 20 s capture window and prints
            the per-class agreement matrix
  serve     run a synthetic multi-tenant fleet through the resident campaign
            service (admission control, bounded queues, deadline budgets);
            --storm yes arms a deterministic fault storm, --check fails the
            exit code unless degradation was deterministic and accounted
  snapshot  the longitudinal engine. `crawl` runs an N-snapshot series over a
            churning top list: snapshot 0 is crawled in full, later snapshots
            recrawl only changed or newly-listed sites and link unchanged rows
            by content reference (--full yes forces full recrawls). --store DIR
            persists the content-addressed dedup store: sealed chunks-NNNN.ktc
            segment files (KTSNAP1 frames: hash, length, canonical record
            bytes) plus a refcounted MANIFEST.json mapping each snapshot's
            (domain, os) rows to chunk hashes — identical content across
            snapshots is stored once. `diff` streams N manifests shard-parallel
            (zero-copy mmap by default) and prints adoption curves, behaviour
            churn matrices, and population flows, byte-identical for any
            --workers. `gc` drops all but the newest --keep snapshots, sweeps
            unreferenced chunks, and rewrites the store compacted. `fsck`
            re-hashes every chunk and reconciles refcounts; a damaged store
            fails the exit code
  health    run the study and print the crawl health report
            (retries, recrawls, recoveries, quarantines per campaign/OS)
  profile   run the study and print the stage table its driver records:
            per-stage real time, simulated time, and allocator traffic";

fn study_config(opts: &Options, workers: Option<usize>) -> Result<StudyConfig, String> {
    let seed = opts.get_u64("seed", 0x00C0_FFEE)?;
    let mut config = match opts.get("scale").unwrap_or("quick") {
        "quick" => StudyConfig::quick(seed),
        "standard" => StudyConfig::standard(seed),
        "paper" => StudyConfig::paper(seed),
        other => return Err(format!("unknown --scale {other:?}")),
    };
    config.workers = workers.unwrap_or(config.workers);
    Ok(config)
}

/// Build a [`JournalConfig`] from `--flush-every` (bytes of visit
/// payload between FLUSH-marker fsyncs) and `--group-frames` (buffered
/// frames per batched write; 1 disables group commit). Defaults leave
/// the writer's stock cadence untouched.
fn journal_config_from_opts(opts: &Options) -> Result<JournalConfig, String> {
    let mut config = JournalConfig::default();
    if let Some(bytes) = opts.positive("flush-every")? {
        config.flush_every_bytes = bytes as u64;
    }
    if let Some(frames) = opts.positive("group-frames")? {
        config.group_max_frames = frames as u64;
    }
    Ok(config)
}

/// The flags every study-running subcommand shares, parsed once: the
/// worker count, the write-ahead journal with its kill, flush and
/// group-commit flags, and the metrics/trace outputs.
struct RunFlags {
    /// `--workers`, when given.
    workers: Option<usize>,
    /// The new journal `--journal` asked for, kill switch armed.
    journal: Option<JournalWriter>,
    /// A trace, when `--metrics-out` or `--trace-out` asks for one;
    /// runs go unobserved otherwise.
    trace: Option<Trace>,
    metrics_out: Option<String>,
    trace_out: Option<String>,
}

impl RunFlags {
    /// Parse the shared flags. With `new_journal`, `--journal FILE`
    /// creates the file (arming `--kill-frames`/`--kill-mode`); without
    /// it the caller appends to an existing journal itself, and the
    /// flags that shape a new one are errors.
    fn parse(opts: &Options, new_journal: bool) -> Result<RunFlags, String> {
        let shaping = ["kill-frames", "kill-mode", "flush-every", "group-frames"];
        let journal = match opts.get("journal") {
            Some(path) if new_journal => {
                let config = journal_config_from_opts(opts)?;
                let journal = JournalWriter::create_with(std::path::Path::new(path), config)
                    .map_err(|e| e.to_string())?;
                journal.set_kill(kill_spec(opts)?);
                Some(journal)
            }
            _ if shaping.iter().any(|flag| opts.get(flag).is_some()) => {
                return Err(if new_journal {
                    "--kill-frames/--kill-mode/--flush-every/--group-frames need --journal"
                } else {
                    "--kill-frames/--kill-mode/--flush-every/--group-frames only apply to a new \
                     journal, not a resumed one"
                }
                .to_string());
            }
            _ => None,
        };
        let metrics_out = opts.get("metrics-out").map(str::to_string);
        let trace_out = opts.get("trace-out").map(str::to_string);
        Ok(RunFlags {
            workers: opts.positive("workers")?,
            journal,
            trace: (metrics_out.is_some() || trace_out.is_some()).then(Trace::new),
            metrics_out,
            trace_out,
        })
    }

    /// The journal and trace as a run's side channels.
    fn options(&self) -> RunOptions<'_> {
        RunOptions {
            journal: self.journal.as_ref(),
            trace: self.trace.as_ref(),
        }
    }

    /// True when the simulated crash fired: the run is dead and the
    /// subcommand prints no results.
    fn killed(&self) -> bool {
        self.options().killed()
    }

    /// The finish step every run shares: report the journal — the
    /// simulated crash and how to recover from it, or what was
    /// written — then write the requested metrics and trace files.
    fn finish(&self) -> Result<(), String> {
        if let Some(journal) = &self.journal {
            let stats = journal.stats();
            let path = journal.path().display();
            if journal.killed() {
                eprintln!(
                    "simulated crash: process died while journaling (frame {}, {} bytes on disk)",
                    stats.frames, stats.bytes
                );
                eprintln!(
                    "recover with: knocktalk resume {path} (or inspect with: knocktalk fsck {path})"
                );
            } else {
                eprintln!(
                    "journaled {} visit frames, {} checkpoints, {} bytes, {} fsyncs to {path}",
                    stats.visits, stats.checkpoints, stats.bytes, stats.fsyncs
                );
            }
        }
        let Some(trace) = &self.trace else {
            return Ok(());
        };
        if let Some(path) = &self.metrics_out {
            std::fs::write(path, trace.export_prometheus())
                .map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("metrics written to {path}");
        }
        if let Some(path) = &self.trace_out {
            std::fs::write(path, trace.export_trace_jsonl())
                .map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("trace written to {path}");
        }
        Ok(())
    }
}

/// The crash `--kill-frames N` (with `--kill-mode`) simulates, if any.
fn kill_spec(opts: &Options) -> Result<Option<KillSpec>, String> {
    let Some(at) = opts.get("kill-frames") else {
        return match opts.get("kill-mode") {
            Some(_) => Err("--kill-mode needs --kill-frames".to_string()),
            None => Ok(None),
        };
    };
    let at_frame: u64 = at
        .parse()
        .map_err(|_| format!("flag --kill-frames expects an integer, got {at:?}"))?;
    let mode = match opts.get("kill-mode").unwrap_or("mid-frame") {
        "mid-frame" => KillMode::MidFrame,
        "post-frame" => KillMode::PostFrame,
        other => return Err(format!("unknown --kill-mode {other:?}")),
    };
    Ok(Some(KillSpec { at_frame, mode }))
}

/// Print a study's results: the `--id` experiment alone, or every
/// paper table and figure followed by the extensions. `repro` and
/// `resume` print through here, so a resumed study's output is the
/// uninterrupted one's.
fn print_tables(study: &Study, id: Option<&str>) -> Result<(), String> {
    if let Some(id) = id {
        let text = study
            .experiment(id)
            .ok_or_else(|| format!("unknown experiment id {id:?}"))?;
        println!("{text}");
        return Ok(());
    }
    for (id, text) in study.all_experiments() {
        println!("=== [{id}] ===\n{text}");
    }
    for id in knock_talk::experiments::EXTENDED_IDS {
        if let Some(text) = study.experiment(id) {
            println!("=== [{id}] (extension) ===\n{text}");
        }
    }
    Ok(())
}

/// `knocktalk repro`.
pub fn repro(opts: &Options) -> Result<(), String> {
    let flags = RunFlags::parse(opts, true)?;
    let study = Study::run_with(study_config(opts, flags.workers)?, flags.options());
    flags.finish()?;
    if flags.killed() {
        return Ok(());
    }
    print_tables(&study, opts.get("id"))
}

fn parse_os(s: &str) -> Result<Os, String> {
    match s.to_ascii_lowercase().as_str() {
        "windows" | "w" => Ok(Os::Windows),
        "linux" | "l" => Ok(Os::Linux),
        "mac" | "macos" | "m" => Ok(Os::MacOs),
        other => Err(format!("unknown --os {other:?}")),
    }
}

/// `knocktalk crawl`.
pub fn crawl(opts: &Options) -> Result<(), String> {
    use knock_talk::crawler::{run_crawl_with, CrawlConfig, ResumePlan};
    use knock_talk::store::TelemetryStore;
    use knock_talk::webgen::WebPopulation;

    let flags = RunFlags::parse(opts, true)?;
    let config = study_config(opts, flags.workers)?;
    let os = parse_os(opts.get("os").unwrap_or("linux"))?;
    let population = WebPopulation::generate(config.population);
    let jobs = knock_talk::study::campaign_jobs(&population, &CrawlId::top2020());
    let store = TelemetryStore::new();
    let mut crawl_config = CrawlConfig::paper(CrawlId::top2020(), os, config.population.seed);
    crawl_config.workers = config.workers;
    if let Some(name) = opts.get("profile") {
        crawl_config.profile =
            knock_talk::webgen::CrawlerProfile::parse(name).ok_or_else(|| {
                format!("unknown --profile {name:?} (naive|headless-patched|stealth|human-replay)")
            })?;
    }
    let plan = ResumePlan::fresh(jobs.len());
    let stats = run_crawl_with(&jobs, &plan, &crawl_config, &store, flags.options());
    flags.options().sync_journal();
    if flags.killed() {
        return flags.finish();
    }
    println!(
        "crawled {} pages on {}: {} ok ({:.1}%), {} failed",
        stats.attempted,
        os.name(),
        stats.successful,
        stats.success_rate() * 100.0,
        stats.failed()
    );
    for (name, count) in stats.table1_errors() {
        println!("  {name:<18} {count}");
    }
    let analysis = knock_talk::analysis::par::analyze_crawl_traced(
        &store,
        &CrawlId::top2020(),
        crawl_config.workers,
        flags.trace.as_ref(),
    );
    println!(
        "locally-active sites: {} localhost, {} LAN",
        analysis.sites.iter().filter(|s| s.has_localhost()).count(),
        analysis.sites.iter().filter(|s| s.has_lan()).count()
    );
    if let Some(path) = opts.get("save") {
        let report = knock_talk::store::save(&store, std::path::Path::new(path))
            .map_err(|e| e.to_string())?;
        if let Some(t) = flags.trace.as_ref() {
            knock_talk::record_save_report(t, &report);
        }
        println!(
            "saved {} visit records ({} bytes, {} fsyncs) to {path}",
            report.records, report.bytes, report.fsyncs
        );
    }
    flags.finish()
}

/// `knocktalk bias`: crawl the sensor-planted population once per
/// crawler profile and print the observed-vs-true bias table.
pub fn bias(opts: &Options) -> Result<(), String> {
    use knock_talk::analysis::{record_bias_metrics, run_bias_sweep, BiasConfig};

    let flags = RunFlags::parse(opts, true)?;
    let seed = opts.get_u64("seed", 0x00C0_FFEE)?;
    let workers = flags.workers.unwrap_or(4);
    let report = run_bias_sweep(&BiasConfig { seed, workers });
    let rendered = report.render();
    match opts.get("out") {
        Some(path) => {
            std::fs::write(path, &rendered).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("bias table written to {path}");
        }
        None => print!("{rendered}"),
    }
    if let Some(trace) = &flags.trace {
        trace.with_registry(|reg| record_bias_metrics(&report, reg));
    }
    flags.finish()
}

/// `knocktalk analyze <store.ktstore>`.
pub fn analyze(opts: &Options) -> Result<(), String> {
    let path = opts
        .positional()
        .first()
        .ok_or("analyze needs a snapshot file path")?;
    let report =
        knock_talk::store::load_any(std::path::Path::new(path)).map_err(|e| e.to_string())?;
    if report.truncated || report.corrupt > 0 {
        eprintln!(
            "note: loaded {} records ({} corrupt skipped, truncated: {})",
            report.loaded, report.corrupt, report.truncated
        );
    }
    // One parallel single-decode pass per crawl in the snapshot.
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    for crawl in report.store.crawl_ids() {
        let analysis = knock_talk::analysis::par::analyze_crawl_par(&report.store, &crawl, workers);
        let active: Vec<_> = analysis
            .sites
            .iter()
            .filter(|s| s.has_localhost() || s.has_lan())
            .collect();
        println!(
            "[{}] {} visits, {} locally-active sites:",
            crawl.as_str(),
            analysis.visits,
            active.len()
        );
        for site in active {
            println!(
                "  {:<40} {:<20} localhost on {}, LAN on {}",
                site.domain,
                classify_site(site).label(),
                site.localhost_os,
                site.lan_os
            );
        }
    }
    Ok(())
}

/// `knocktalk classify <netlog.json>`.
pub fn classify(opts: &Options) -> Result<(), String> {
    let path = opts
        .positional()
        .first()
        .ok_or("classify needs a capture file path")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let capture = Capture::parse(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    if capture.truncated {
        eprintln!(
            "note: capture was truncated; recovered {} events ({} skipped)",
            capture.len(),
            capture.skipped
        );
    }
    let record = VisitRecord {
        crawl: CrawlId(("cli").to_string()),
        domain: opts.get("domain").unwrap_or("capture").to_string(),
        rank: None,
        malicious_category: None,
        os: parse_os(opts.get("os").unwrap_or("linux"))?,
        outcome: LoadOutcome::Success,
        loaded_at_ms: opts.get_u64("loaded-at", 0)?,
        events: capture.events,
    };
    let sites = aggregate_sites(std::slice::from_ref(&record));
    if sites.is_empty() {
        println!("no locally-destined requests found");
        return Ok(());
    }
    for site in &sites {
        let app = native_app_name(site)
            .map(|n| format!(" ({n})"))
            .unwrap_or_default();
        println!(
            "{}: {} local request(s), class: {}{app}",
            site.domain,
            site.observations.len(),
            classify_site(site).label()
        );
        for obs in &site.observations {
            println!(
                "  t={:>6}ms  {:<6} {:<40} [{}{}]",
                obs.time_ms,
                obs.scheme.to_string(),
                obs.url.to_string(),
                obs.locality.label(),
                if obs.via_redirect {
                    ", via redirect"
                } else {
                    ""
                },
            );
        }
    }
    Ok(())
}

/// `knocktalk resume <study.ktj>`.
pub fn resume(opts: &Options) -> Result<(), String> {
    let path = opts
        .positional()
        .first()
        .ok_or("resume needs a journal file path")?;
    let path = std::path::Path::new(path);
    // Damage summary first, so the operator sees what the crash cost
    // before the re-run starts.
    let replayed = knock_talk::store::replay(path).map_err(|e| e.to_string())?;
    let durability = knock_talk::analysis::report::DurabilityReport::from_replay(&replayed);
    eprint!("{}", durability.render());
    drop(replayed);
    let flags = RunFlags::parse(opts, true)?;
    let study = Study::resume(path, flags.trace.as_ref()).map_err(|e| e.to_string())?;
    flags.finish()?;
    print_tables(&study, opts.get("id"))
}

/// `knocktalk fsck <journal.ktj> [--repair yes|no]`.
pub fn fsck(opts: &Options) -> Result<(), String> {
    let path = opts
        .positional()
        .first()
        .ok_or("fsck needs a journal file path")?;
    let repair = opts.switch("repair", false)?;
    let report = knock_talk::store::fsck(
        std::path::Path::new(path),
        FsckOptions {
            repair,
            ..FsckOptions::default()
        },
    )
    .map_err(|e| e.to_string())?;
    println!(
        "{path}: {} frames ({} visits, {} checkpoints)",
        report.frames, report.visits, report.checkpoints
    );
    if report.clean() {
        println!("  clean: every frame CRC-valid, tail complete, no duplicate or orphan records");
        return Ok(());
    }
    println!(
        "  damage: {} corrupt frame(s) / {} byte(s), torn tail: {} ({} tail byte(s))",
        report.corrupt_frames, report.corrupt_bytes, report.truncated_tail, report.tail_bytes
    );
    println!(
        "  records: {} duplicate final(s), {} orphan(s), {} missing vs checkpoints",
        report.duplicate_finals, report.orphan_records, report.missing_records
    );
    match (&report.repaired_path, &report.quarantine_path) {
        (Some(clean), Some(quarantine)) => {
            println!(
                "  repaired: clean journal rewritten in place ({}); {} damaged byte(s) quarantined to {}",
                clean.display(),
                report.quarantined_bytes,
                quarantine.display()
            );
        }
        (Some(clean), None) => {
            println!(
                "  repaired: clean journal rewritten in place ({})",
                clean.display()
            );
        }
        _ => println!("  run with --repair yes to quarantine damage and rewrite a clean journal"),
    }
    Ok(())
}

/// `knocktalk health`.
pub fn health(opts: &Options) -> Result<(), String> {
    let flags = RunFlags::parse(opts, true)?;
    let study = Study::run(study_config(opts, flags.workers)?);
    println!("{}", knock_talk::experiments::health_report(&study));
    Ok(())
}

/// `knocktalk profile`: run the full study and print the stage table
/// its driver records — per-stage time and allocation breakdown.
pub fn profile(opts: &Options) -> Result<(), String> {
    let mut flags = RunFlags::parse(opts, true)?;
    let config = study_config(opts, flags.workers)?;
    let trace = flags.trace.get_or_insert_with(Trace::new);
    let study = Study::run_with(config, RunOptions::traced(trace));
    let table = trace.with_stages(StageProfiler::render_table);
    flags.finish()?;
    println!(
        "profiled study: seed {}, {} workers, {} visit records",
        study.config.population.seed,
        study.config.workers,
        study.store.len()
    );
    print!("{table}");
    Ok(())
}

/// `knocktalk serve`: run a synthetic multi-tenant fleet through the
/// resident campaign service and report how it degraded.
///
/// The fleet is entirely deterministic: `--tenants` tenants each
/// submit `--campaigns` campaigns of `--sites` sites, with optional
/// per-tenant quotas creating admission pressure and `--storm yes`
/// arming every service and crawl fault class at once (including
/// [`knock_talk::faults::Fault::TenantBurst`], which deterministically
/// picks tenant submission slots to double-submit). `--check
/// invariants` re-runs the identical fleet single-threaded and fails
/// unless the shed set, accounting, and metrics come out byte-equal;
/// `--check tables` replays every completed campaign through the batch
/// pipeline and fails unless the service's online-aggregated tables
/// match. `--check invariants,tables` does both.
pub fn serve(opts: &Options) -> Result<(), String> {
    use knock_talk::analysis::analyze_crawl_par;
    use knock_talk::crawler::{run_crawl, CrawlConfig, CrawlJob};
    use knock_talk::faults::{Fault, FaultPlan};
    use knock_talk::service::{
        CampaignHandle, CampaignService, CampaignSpec, CampaignStatus, OverflowPolicy,
        ServiceConfig, ServiceJob, TenantQuota,
    };
    use knock_talk::store::TelemetryStore;
    use knock_talk::webgen::{PopulationConfig, WebPopulation, WebSite};

    let seed = opts.get_u64("seed", 0x00C0_FFEE)?;
    let tenants = opts.positive("tenants")?.unwrap_or(3);
    let campaigns = opts.positive("campaigns")?.unwrap_or(3);
    let sites_per = opts.positive("sites")?.unwrap_or(6);
    let workers = opts.positive("workers")?.unwrap_or(4);
    let queue_capacity = opts.positive("queue-capacity")?.unwrap_or(2);
    let deadline_ms = opts.get_u64("deadline-ms", 0)?;
    let max_campaigns = opts.get_u64("max-campaigns", 0)? as usize;
    let max_visits = opts.get_u64("max-visits", 0)? as usize;
    let policy = match opts.get("policy").unwrap_or("shed") {
        "block" => OverflowPolicy::Block,
        "shed" => OverflowPolicy::Shed,
        other => return Err(format!("unknown --policy {other:?} (block|shed)")),
    };
    let storm = opts.switch("storm", false)?;
    let journal_dir = opts.get("journal-dir").map(std::path::PathBuf::from);
    let journal_config = journal_config_from_opts(opts)?;
    let quota = TenantQuota {
        max_campaigns: if max_campaigns == 0 {
            usize::MAX
        } else {
            max_campaigns
        },
        max_inflight_visits: if max_visits == 0 {
            usize::MAX
        } else {
            max_visits
        },
    };
    let mut faults = FaultPlan::none(seed);
    if storm {
        faults = faults
            .with_rate(Fault::QueueOverflow, 0.35)
            .with_rate(Fault::SlowConsumer, 0.35)
            .with_rate(Fault::TenantBurst, 0.50)
            .with_rate(Fault::DnsFlap, 0.25)
            .with_rate(Fault::ConnectionReset, 0.20)
            .with_rate(Fault::WorkerPanic, 0.15);
    }

    let population = WebPopulation::generate(PopulationConfig::test_scale(seed));
    let pool = &population.sites2020;
    let slice = |index: usize| -> Vec<WebSite> {
        let start = (index * sites_per) % pool.len().saturating_sub(sites_per).max(1);
        pool[start..(start + sites_per).min(pool.len())].to_vec()
    };
    let spec_for = |tenant: usize, campaign: usize, burst: bool| -> CampaignSpec {
        let suffix = if burst { "-burst" } else { "" };
        CampaignSpec {
            crawl: CrawlId(format!("t{tenant}-c{campaign}{suffix}")),
            os: Os::ALL[(tenant + campaign) % Os::ALL.len()],
            jobs: slice(
                tenant * campaigns + campaign + if burst { tenants * campaigns } else { 0 },
            )
            .into_iter()
            .map(|site| ServiceJob {
                site,
                malicious_category: None,
            })
            .collect(),
            deadline_ms: (deadline_ms > 0).then_some(deadline_ms),
            nominal_workers: workers,
        }
    };
    // The whole fleet, parameterised on executor width so `--check
    // invariants` can replay it single-threaded and byte-compare.
    let run_fleet = |executors: usize| -> (CampaignService, Vec<(String, CampaignHandle)>) {
        let mut config = ServiceConfig::new(seed);
        config.workers = executors;
        config.queue_capacity = queue_capacity;
        config.drain_ms_per_update = 60_000;
        config.slow_consumer_stall_ms = 120_000;
        config.faults = faults.clone();
        config.journal_dir = journal_dir.clone();
        config.journal_config = journal_config;
        let mut service = CampaignService::new(config);
        for t in 0..tenants {
            service.register_tenant(&format!("tenant-{t}"), quota, policy);
        }
        let mut handles = Vec::new();
        for t in 0..tenants {
            let tenant = format!("tenant-{t}");
            for c in 0..campaigns {
                let spec = spec_for(t, c, false);
                let name = spec.crawl.as_str().to_string();
                if let Ok(handle) = service.submit(&tenant, spec) {
                    handles.push((name, handle));
                }
                // A bursting tenant double-submits this slot — keyed
                // on (tenant identity, slot), not on timing.
                if faults.injects(Fault::TenantBurst, &tenant, c as u32) {
                    let spec = spec_for(t, c, true);
                    let name = spec.crawl.as_str().to_string();
                    if let Ok(handle) = service.submit(&tenant, spec) {
                        handles.push((name, handle));
                    }
                }
            }
        }
        service.run();
        (service, handles)
    };
    let fingerprint = |service: &CampaignService, handles: &[(String, CampaignHandle)]| -> String {
        let trace = Trace::new();
        service.record_metrics(&trace);
        let statuses: Vec<String> = handles
            .iter()
            .map(|(name, h)| {
                format!(
                    "{name}:{:?}/{}",
                    service.status(*h).expect("known handle"),
                    service.campaign_updates_shed(*h)
                )
            })
            .collect();
        format!(
            "{statuses:?}\n{:?}\n{}",
            service.accounting(),
            trace.export_prometheus()
        )
    };

    let (service, handles) = run_fleet(workers);
    println!(
        "fleet: {tenants} tenants x {campaigns} campaigns x {sites_per} sites, \
         {workers} executors, queue {queue_capacity}, policy {policy:?}, storm {storm}"
    );
    let mut violations = Vec::new();
    for acc in service.accounting() {
        let rejected: u64 = acc.rejected.values().sum();
        println!(
            "  {:<10} admitted {:>3}  completed {:>3}  deadline-shed {:>2}  drained {:>2}  \
             rejected {:>2}  updates {:>4} (-{} shed)  blocks {:>3}  depth<= {}",
            acc.tenant,
            acc.admitted,
            acc.completed,
            acc.shed,
            acc.drained,
            rejected,
            acc.updates,
            acc.updates_shed,
            acc.queue_blocks,
            acc.queue_high_water
        );
        if !acc.reconciles() {
            violations.push(format!(
                "{}: admitted {} != completed {} + shed {} + drained {} + in-flight {}",
                acc.tenant, acc.admitted, acc.completed, acc.shed, acc.drained, acc.in_flight
            ));
        }
        if acc.in_flight != 0 {
            violations.push(format!(
                "{}: {} campaigns never drained",
                acc.tenant, acc.in_flight
            ));
        }
    }

    if let Some(path) = opts.get("metrics-out") {
        let trace = Trace::new();
        service.record_metrics(&trace);
        std::fs::write(path, trace.export_prometheus())
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("metrics written to {path}");
    }

    let checks: Vec<&str> = opts
        .get("check")
        .map(|c| c.split(',').collect())
        .unwrap_or_default();
    for check in &checks {
        match *check {
            "invariants" => {
                let baseline = fingerprint(&service, &handles);
                let replay_workers = if workers == 1 { 2 } else { 1 };
                let (replayed, replayed_handles) = run_fleet(replay_workers);
                if fingerprint(&replayed, &replayed_handles) != baseline {
                    violations.push(format!(
                        "shed set / accounting / metrics differ between {workers} and \
                         {replay_workers} executors"
                    ));
                } else {
                    println!(
                        "check invariants: ok ({workers} vs {replay_workers} executors byte-equal)"
                    );
                }
            }
            "tables" => {
                let mut compared = 0usize;
                for t in 0..tenants {
                    for c in 0..campaigns {
                        let spec = spec_for(t, c, false);
                        let Some(handle) = handles
                            .iter()
                            .find(|(name, _)| name == spec.crawl.as_str())
                            .map(|(_, h)| *h)
                        else {
                            continue;
                        };
                        if service.status(handle) != Some(CampaignStatus::Completed) {
                            continue;
                        }
                        let sites: Vec<WebSite> =
                            spec.jobs.iter().map(|j| j.site.clone()).collect();
                        let jobs: Vec<CrawlJob<'_>> = sites
                            .iter()
                            .map(|site| CrawlJob {
                                site,
                                malicious_category: None,
                            })
                            .collect();
                        let mut cfg = CrawlConfig::paper(spec.crawl.clone(), spec.os, seed);
                        cfg.workers = spec.nominal_workers;
                        cfg.faults = faults.clone();
                        let batch_store = TelemetryStore::new();
                        run_crawl(&jobs, &cfg, &batch_store);
                        let batch = analyze_crawl_par(&batch_store, &spec.crawl, workers);
                        if service.final_analysis(handle).as_ref() != Some(&batch) {
                            violations.push(format!(
                                "{} tables differ from the batch pipeline",
                                spec.crawl.as_str()
                            ));
                        }
                        compared += 1;
                    }
                }
                println!("check tables: {compared} completed campaigns vs batch pipeline");
            }
            other => return Err(format!("unknown --check {other:?} (invariants|tables)")),
        }
    }
    if violations.is_empty() {
        println!("service degraded cleanly: all tenants reconcile");
        Ok(())
    } else {
        for v in &violations {
            eprintln!("violation: {v}");
        }
        Err(format!("{} invariant violation(s)", violations.len()))
    }
}

/// Parse a comma-separated port list.
fn parse_port_list(list: &str) -> Result<Vec<u16>, String> {
    let ports: Vec<u16> = list
        .split(',')
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .map(|p| {
            p.parse::<u16>()
                .map_err(|_| format!("bad port {p:?} (expect 1-65535)"))
        })
        .collect::<Result<_, _>>()?;
    if ports.is_empty() {
        return Err("empty port list".to_string());
    }
    Ok(ports)
}

/// `knocktalk scan`.
pub fn scan(opts: &Options) -> Result<(), String> {
    use knock_talk::analysis::{
        crossval_population, record_agreement_metrics, run_cross_validation,
    };
    use knock_talk::faults::{Fault, FaultPlan};
    use knock_talk::scanner::{record_scan_metrics, run_scan, Payload, ScanConfig};
    use knock_talk::simnet::{HostEnv, SimNet};
    use knock_talk::trace::metrics::Registry;
    use knock_talk::trace::names::describe_defaults;

    let seed = opts.get_u64("seed", 0x5CA9)?;
    let os = parse_os(opts.get("os").unwrap_or("windows"))?;

    let mut cfg = ScanConfig::new(seed);
    if let Some(list) = opts.get("ports") {
        cfg.ports = parse_port_list(list).map_err(|e| format!("flag --ports: {e}"))?;
    }
    if let Some(list) = opts.get("sequence") {
        cfg.sequences
            .push(parse_port_list(list).map_err(|e| format!("flag --sequence: {e}"))?);
    }
    if let Some(hex) = opts.get("payload") {
        cfg.payload = Some(Payload::from_hex(hex).map_err(|e| format!("flag --payload: {e}"))?);
    }
    cfg.udp = opts.switch("udp", false)?;
    cfg.ipv6 = opts.switch("ipv6", false)?;
    cfg.lan = opts.switch("lan", true)?;
    cfg.workers = opts.positive("concurrency")?.unwrap_or(cfg.workers);
    if let Some(ms) = opts.positive("timeout-ms")? {
        cfg.timeout_ms = ms as u64;
    }
    let default_retries = u64::from(cfg.retry.max_attempts.saturating_sub(1));
    cfg.retry.max_attempts = opts.get_u64("retries", default_retries)? as u32 + 1;
    cfg.breaker.threshold =
        opts.get_u64("breaker-threshold", u64::from(cfg.breaker.threshold))? as u32;
    cfg.breaker.cooldown_ms = opts.get_u64("breaker-cooldown-ms", cfg.breaker.cooldown_ms)?;
    if let Some(ms) = opts.positive("deadline-ms")? {
        cfg.deadline_ms = ms as u64;
    }
    if let Some(rate) = opts.get("fault-rate") {
        let rate: f64 = rate
            .parse()
            .ok()
            .filter(|r| (0.0..=1.0).contains(r))
            .ok_or_else(|| format!("flag --fault-rate expects a number in [0, 1], got {rate:?}"))?;
        cfg.faults = FaultPlan::none(seed)
            .with_rate(Fault::ProbeDrop, rate)
            .with_rate(Fault::ProbeDelay, rate)
            .with_rate(Fault::ConnectionReset, rate)
            .with_rate(Fault::DnsFlap, rate)
            .with_rate(Fault::TruncatedCapture, rate);
    }

    let env = HostEnv::sampled(os, seed ^ os.letter() as u64);
    let net = SimNet::new(seed);
    let mut reg = Registry::new();
    describe_defaults(&mut reg);

    if opts.switch("agreement", false)? {
        let sites = opts.positive("sites")?.unwrap_or(24);
        let population = crossval_population(seed, sites);
        let cv = run_cross_validation(&env, &net, &population, &cfg);
        print!("{}", cv.scan.render());
        print!("{}", cv.render());
        record_scan_metrics(&cv.scan, &mut reg);
        record_agreement_metrics(&cv, &mut reg);
    } else {
        let report = run_scan(&env, &net, &cfg);
        print!("{}", report.render());
        record_scan_metrics(&report, &mut reg);
    }

    if let Some(path) = opts.get("metrics-out") {
        std::fs::write(path, reg.render_prometheus())
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("metrics written to {path}");
    }
    Ok(())
}

/// `knocktalk entropy`.
pub fn entropy(opts: &Options) -> Result<(), String> {
    let machines = opts.get_u64("machines", 1_000)? as usize;
    let seed = opts.get_u64("seed", 0xF1)?;
    println!("fingerprinting entropy over {machines} simulated machines:");
    for (label, ports) in [
        ("ThreatMetrix", THREATMETRIX_PORTS.as_slice()),
        ("BIG-IP ASM", BIGIP_PORTS.as_slice()),
    ] {
        for os in Os::ALL {
            let r = scan_entropy(os, ports, machines, seed);
            println!(
                "  {label:<14} {:<8} {:.2} bits, {} distinct profiles",
                os.name(),
                r.shannon_bits,
                r.distinct
            );
        }
    }
    Ok(())
}

/// Parse a fractional flag in `[0, 1]`, with a default.
fn get_fraction(opts: &Options, key: &str, default: f64) -> Result<f64, String> {
    match opts.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse::<f64>()
            .ok()
            .filter(|f| (0.0..=1.0).contains(f))
            .ok_or_else(|| format!("flag --{key} expects a fraction in [0, 1], got {v:?}")),
    }
}

fn snapshot_study_config(
    opts: &Options,
    workers: Option<usize>,
) -> Result<SnapshotStudyConfig, String> {
    let seed = opts.get_u64("seed", 0x00C0_FFEE)?;
    let mut config = SnapshotStudyConfig::quick(seed);
    config.series.size = opts.get_u64("size", config.series.size as u64)? as usize;
    config.series.snapshots = opts.get_u64("snapshots", config.series.snapshots as u64)? as usize;
    config.series.churn = get_fraction(opts, "churn", config.series.churn)?;
    config.series.relist_fraction = get_fraction(opts, "relist", config.series.relist_fraction)?;
    config.content_churn = get_fraction(opts, "content-churn", config.content_churn)?;
    config.workers = workers.unwrap_or(config.workers);
    config.incremental = !opts.switch("full", false)?;
    if config.series.size == 0 || config.series.snapshots == 0 {
        return Err("--size and --snapshots must be positive".to_string());
    }
    if let Some(dir) = opts.get("spill") {
        config.spill = Some(SpillConfig::mmap(std::path::Path::new(dir)));
    }
    Ok(config)
}

/// `knocktalk snapshot crawl`.
fn snapshot_crawl(opts: &Options) -> Result<(), String> {
    let resume = opts.switch("resume", false)?;
    let flags = RunFlags::parse(opts, !resume)?;
    let config = snapshot_study_config(opts, flags.workers)?;
    let study = if resume {
        let path = opts
            .get("journal")
            .ok_or("--resume yes needs --journal FILE")?;
        SnapshotStudy::resume(std::path::Path::new(path), config, flags.trace.as_ref())
            .map_err(|e| e.to_string())?
    } else {
        SnapshotStudy::run(config, flags.options()).map_err(|e| e.to_string())?
    };
    if flags.killed() {
        return flags.finish();
    }
    println!(
        "longitudinal series: {} snapshots x {} sites ({}% churn)",
        study.series.len(),
        study.config.series.size,
        (study.config.series.churn * 100.0).round()
    );
    println!(
        "  visit work: {} executed / {} full-recrawl ({:.1}% incremental fraction)",
        study.work.executed_visits,
        study.work.full_visits,
        study.work.incremental_fraction() * 100.0
    );
    println!(
        "  store: {} chunks, {} linked rows, {} stored bytes vs {} logical ({:.2}x dedup)",
        study.snapshots.chunk_count(),
        study.work.linked_rows,
        study.snapshots.stored_bytes(),
        study.snapshots.logical_bytes(),
        study.snapshots.dedup_ratio()
    );
    if let Some(dir) = opts.get("store") {
        let report = study
            .snapshots
            .save(std::path::Path::new(dir))
            .map_err(|e| format!("saving snapshot store to {dir}: {e}"))?;
        println!(
            "  saved: {} segment file(s), {} chunk(s), {} manifest row(s) -> {dir}",
            report.segments, report.chunks, report.manifest_entries
        );
    }
    flags.finish()
}

/// Open an on-disk snapshot store for `snapshot diff|gc`.
fn open_snapshot_store(opts: &Options) -> Result<(String, SnapshotStore), String> {
    let dir = opts
        .get("store")
        .ok_or("--store DIR is required")?
        .to_string();
    let mode = match opts.get("mode").unwrap_or("mmap") {
        "mmap" => SegmentMode::Mmap,
        "resident" => SegmentMode::Resident,
        other => {
            return Err(format!(
                "unknown --mode {other:?}; expected mmap | resident"
            ))
        }
    };
    let store = SnapshotStore::open(std::path::Path::new(&dir), mode)
        .map_err(|e| format!("opening snapshot store {dir}: {e}"))?;
    Ok((dir, store))
}

/// `knocktalk snapshot diff`.
fn snapshot_diff(opts: &Options) -> Result<(), String> {
    let flags = RunFlags::parse(opts, true)?;
    let (_, store) = open_snapshot_store(opts)?;
    let workers = flags.workers.unwrap_or(4);
    let labels: Vec<String> = match opts.get("snapshots") {
        Some(list) => list.split(',').map(str::to_string).collect(),
        None => store.labels().iter().map(|l| l.to_string()).collect(),
    };
    for label in &labels {
        if store.manifest(label).is_none() {
            return Err(format!("snapshot {label:?} not in store"));
        }
    }
    let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
    let diff =
        knock_talk::analysis::diff_snapshots_traced(&store, &refs, workers, flags.trace.as_ref());
    let rendered = diff.render();
    match opts.get("out") {
        Some(path) => {
            std::fs::write(path, &rendered).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("diff tables written to {path}");
        }
        None => print!("{rendered}"),
    }
    flags.finish()
}

/// `knocktalk snapshot gc`.
fn snapshot_gc(opts: &Options) -> Result<(), String> {
    let (dir, mut store) = open_snapshot_store(opts)?;
    let keep = opts.get_u64("keep", u64::MAX)? as usize;
    if keep == 0 {
        return Err("--keep must be at least 1".to_string());
    }
    let labels: Vec<String> = store.labels().iter().map(|l| l.to_string()).collect();
    let drop_count = labels.len().saturating_sub(keep);
    for label in &labels[..drop_count] {
        store.remove_snapshot(label);
        println!("dropped snapshot {label}");
    }
    let report = store.gc();
    println!(
        "gc: {} chunk(s) reclaimed, {} byte(s); {} snapshot(s) remain",
        report.chunks_dropped,
        report.bytes_reclaimed,
        store.snapshot_count()
    );
    store
        .save(std::path::Path::new(&dir))
        .map_err(|e| format!("rewriting snapshot store {dir}: {e}"))?;
    println!("store rewritten compacted -> {dir}");
    Ok(())
}

/// `knocktalk snapshot fsck`.
fn snapshot_fsck_cmd(opts: &Options) -> Result<(), String> {
    let dir = opts.get("store").ok_or("--store DIR is required")?;
    let report = knock_talk::store::snapshot_fsck(std::path::Path::new(dir))
        .map_err(|e| format!("fsck of snapshot store {dir}: {e}"))?;
    println!(
        "{dir}: {} segment(s), {} chunk(s), {} manifest row(s)",
        report.segments, report.chunks, report.manifest_entries
    );
    if report.clean() {
        println!(
            "  clean: every chunk re-hashes, refcounts reconcile, no dangling or duplicate references"
        );
        return Ok(());
    }
    println!(
        "  damage: {} dangling ref(s), {} duplicate chunk(s), {} hash mismatch(es)",
        report.dangling_refs, report.duplicate_chunks, report.hash_mismatches
    );
    println!(
        "  refcounts: {} mismatch(es), {} orphan chunk(s), {} out-of-bounds entr(ies)",
        report.refcount_mismatches, report.orphan_chunks, report.out_of_bounds
    );
    Err("snapshot store is not clean".to_string())
}
