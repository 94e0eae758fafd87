//! The crawl loop: a supervised worker pool over a site population.
//!
//! Workers share one work-stealing job queue (a [`JobTicket`] — an
//! atomic cursor over the job slice): each worker claims the next
//! unclaimed job, resets its reusable [`World`] to the site (its own
//! DNS cache and latency stream, like a separate VM), performs the
//! paper's connectivity pre-check before every visit, runs the browser
//! with its telemetry streaming into the worker's record encoder, and
//! appends the encoded record to the shared store. A worker bogged down
//! in a retry-heavy site simply claims fewer jobs while its peers
//! drain the queue — no chunk boundary ever serialises the campaign
//! tail. The old static-chunk scheduler survives as
//! [`run_crawl_chunked`], the ablation baseline the perf bench
//! measures the stealing scheduler against.
//!
//! On top of the plain loop sits a resilience layer:
//!
//! * every visit runs under [`catch_unwind`] — a panicking visit is
//!   quarantined as [`LoadOutcome::Crashed`] (salvaging whatever
//!   capture prefix the panic payload carries) and the worker moves
//!   on; `run_crawl` never aborts a campaign;
//! * transient failures ([`is_transient`]) are retried in place with
//!   exponential backoff, then parked on an end-of-campaign recrawl
//!   queue that gets one final pass before the error is allowed into
//!   the Table 1 statistics;
//! * injected faults from the config's [`FaultPlan`] flow through the
//!   same paths as organic failures, so failure-injection tests
//!   exercise the production machinery.
//!
//! Determinism holds across worker counts because every sampled value
//! — latencies, fault decisions, backoff jitter — is keyed by site
//! identity (and attempt number), not by visit order or thread.

use kt_browser::{Browser, BrowserConfig, CrawlerProfile, PageLoadOutcome, World};
use kt_faults::{is_transient, Fault, FaultPlan, RetryPolicy, SalvagedVisit};
use kt_netbase::Os;
use kt_netlog::NetLogger;
use kt_simnet::connectivity::{ConnectivityChecker, Outage};
use kt_store::journal::{JournalWriter, FLAG_FINAL, FLAG_RECRAWL};
use kt_store::{CrawlHandle, CrawlId, LoadOutcome, RecordHeader, TelemetryStore, VisitEncoder};
use kt_trace::{EventRecord, SpanRecord, SpanRing, Trace};
use kt_webgen::WebSite;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::observe::{record_journal_stats, set_stats_gauges, stats_sink, stats_sink_delta};
use crate::queue::{JobTicket, PendingInjector};
use crate::resume::ResumePlan;
use crate::stats::{CrawlStats, StatsMark};

/// One crawl work item.
#[derive(Debug, Clone)]
pub struct CrawlJob<'a> {
    /// The site to visit.
    pub site: &'a WebSite,
    /// Blocklist category code for malicious crawls (0 = malware,
    /// 1 = abuse, 2 = phishing).
    pub malicious_category: Option<u8>,
}

/// Crawl configuration.
#[derive(Debug, Clone)]
pub struct CrawlConfig {
    /// Campaign identifier (keys the store).
    pub crawl: CrawlId,
    /// The crawling OS.
    pub os: Os,
    /// Run seed.
    pub seed: u64,
    /// Worker threads.
    pub workers: usize,
    /// Observation window per page, ms.
    pub window_ms: u64,
    /// Measurement-side network outages to simulate (none in the
    /// paper's crawls; used by failure-injection tests).
    pub outages: Vec<Outage>,
    /// Deep-crawl mode: also visit internal pages (§3.3 extension).
    pub crawl_internal: bool,
    /// How the crawler presents itself to anti-bot sensors (the bias
    /// experiment's knob; the paper's crawler is `Naive`).
    pub profile: CrawlerProfile,
    /// Fault-injection plan (clean in production crawls).
    pub faults: FaultPlan,
    /// Retry/backoff/recrawl policy for transient failures.
    pub retry: RetryPolicy,
}

impl CrawlConfig {
    /// The paper's configuration for one campaign and OS.
    pub fn paper(crawl: CrawlId, os: Os, seed: u64) -> CrawlConfig {
        CrawlConfig {
            crawl,
            os,
            seed,
            workers: 4,
            window_ms: 20_000,
            outages: Vec::new(),
            crawl_internal: false,
            profile: CrawlerProfile::Naive,
            faults: FaultPlan::none(seed),
            retry: RetryPolicy::paper(),
        }
    }
}

/// Wall-clock cost of one visit: the 20 s window plus startup/teardown
/// overhead for the fresh incognito instance. Public so the campaign
/// service's deadline budgets and schedule replays price visits in the
/// same units as the pool.
pub const VISIT_WALL_MS: u64 = 21_000;

/// Per-worker span ring capacity: big enough for every visit of a
/// quick-scale campaign's share, bounded so a pathological retry storm
/// sheds old spans (counted in the trace meta line) instead of
/// growing without limit.
const SPAN_RING_CAP: usize = 4_096;

/// One attempt's result after panic isolation has run. The attempt's
/// events are in the workspace's encoder either way.
enum AttemptEnd {
    /// The browser returned this page outcome.
    Outcome(PageLoadOutcome),
    /// The visit panicked; the encoder holds the salvaged capture
    /// prefix (nothing when the panic was not a cooperative one).
    Crashed,
}

/// One crawl worker's reusable visit state: the world it visits sites
/// in, the encoder its visits stream their telemetry into, and the
/// campaign's store handle. A pool worker resets the world per site
/// (see [`World::reset_for`]) instead of building one per job, and
/// every record it finishes is encoded once, into bytes the store
/// appends and the journal frames as they are.
#[derive(Debug)]
pub struct Workspace {
    world: World,
    encoder: VisitEncoder,
    crawl: CrawlHandle,
}

impl Workspace {
    /// A workspace for `config`'s campaign appending to `store`. Its
    /// world holds only the shared infrastructure until a pool job
    /// installs its site.
    pub fn new(config: &CrawlConfig, store: &TelemetryStore) -> Workspace {
        Workspace::with_world(World::build(&[], config.os, config.seed), config, store)
    }

    /// A workspace over a world that already holds its sites: the
    /// recrawl pass visits its whole queue in one world.
    pub fn with_world(world: World, config: &CrawlConfig, store: &TelemetryStore) -> Workspace {
        Workspace {
            world,
            encoder: VisitEncoder::new(),
            crawl: store.crawl_handle(&config.crawl),
        }
    }

    /// The codec bytes of the last record this workspace finished:
    /// the bytes the store appended and the journal framed.
    pub fn record(&self) -> &[u8] {
        self.encoder.record()
    }
}

/// Optional side channels of a campaign run. Neither perturbs results:
/// the store contents and stats of a journaled or traced run are
/// byte-identical to a plain one.
#[derive(Clone, Copy, Default)]
pub struct RunOptions<'a> {
    /// Write-ahead journal: each visit's terminal verdict is framed
    /// (record + stats delta) before the campaign moves on, so a crash
    /// loses at most the in-flight frame. When its kill switch fires
    /// (a [`kt_store::KillSpec`] boundary or an injected
    /// [`Fault::ProcessKill`]), workers stop claiming jobs and the run
    /// describes an abandoned campaign — the caller is simulating
    /// `kill -9` and should discard it in favour of a resume.
    pub journal: Option<&'a JournalWriter>,
    /// Metrics and span sink: per-visit spans land in lock-free
    /// per-worker ring buffers, per-worker counter sinks are built
    /// from each worker's private tally and merged at join, and the
    /// campaign's derived gauges are set from the final stats.
    pub trace: Option<&'a Trace>,
}

impl<'a> RunOptions<'a> {
    /// A journal and no trace.
    pub fn journaled(journal: &'a JournalWriter) -> RunOptions<'a> {
        RunOptions {
            journal: Some(journal),
            trace: None,
        }
    }

    /// A trace and no journal.
    pub fn traced(trace: &'a Trace) -> RunOptions<'a> {
        RunOptions {
            journal: None,
            trace: Some(trace),
        }
    }

    /// True once the journal's kill switch has fired.
    pub fn killed(&self) -> bool {
        self.journal.is_some_and(JournalWriter::killed)
    }

    /// End a journaled run: make every buffered frame durable and
    /// record the writer's durability counters into the trace.
    /// Journal counters are *writer-owned*: a resumed run reports only
    /// the frames its own process appended, so — unlike the crawl
    /// counters — they legitimately differ between a baseline run and
    /// a kill/resume cycle.
    pub fn sync_journal(&self) {
        let Some(journal) = self.journal else { return };
        journal.sync();
        if let Some(trace) = self.trace {
            record_journal_stats(trace, &journal.stats());
        }
    }
}

/// Run one crawl campaign over `jobs`, appending to `store`.
///
/// Workers pull jobs off a shared work-stealing ticket queue, so a
/// fault-heavy stretch of the population slows only the worker inside
/// it — never a statically-assigned chunk of unrelated sites. Results
/// are bit-identical for any worker count because every sampled value
/// (latency, fault, backoff jitter) is keyed by site identity and
/// attempt number, not by claim order or thread.
///
/// Never aborts: panicking visits are quarantined as
/// [`LoadOutcome::Crashed`] and every job is accounted for exactly
/// once in the returned stats, whatever faults were injected.
pub fn run_crawl(
    jobs: &[CrawlJob<'_>],
    config: &CrawlConfig,
    store: &TelemetryStore,
) -> CrawlStats {
    run_crawl_with(
        jobs,
        &ResumePlan::fresh(jobs.len()),
        config,
        store,
        RunOptions::default(),
    )
}

/// [`run_crawl`] over the remainder `plan` leaves, with optional
/// journal and trace. `plan` says which jobs are already done (their
/// stats and scheduler costs carried in), which were parked for the
/// recrawl pass, and which still need the worker pool; with
/// [`ResumePlan::fresh`] this *is* the uninterrupted crawl.
///
/// Resumed results are byte-identical to an uninterrupted run for
/// outage-free configurations: every visit outcome is a pure function
/// of `(seed, domain, attempt)`, the makespan is a greedy replay over
/// the full per-job cost vector (journaled costs for finished jobs,
/// freshly-recorded ones for the rest), and the recrawl pass is
/// domain-ordered either way. Counter series are derived from
/// [`CrawlStats`] snapshots (worker tallies, the journal-replayed
/// prior, the recrawl pass's delta), so the exported values always sum
/// to the returned stats — byte-identical across `--workers` settings
/// and kill/resume cycles.
pub fn run_crawl_with(
    jobs: &[CrawlJob<'_>],
    plan: &ResumePlan,
    config: &CrawlConfig,
    store: &TelemetryStore,
    options: RunOptions<'_>,
) -> CrawlStats {
    let RunOptions { journal, trace } = options;
    // The schedule replays over the *full* job vector whatever subset
    // actually re-runs, so the worker count it uses must be the one
    // the uninterrupted campaign would have had.
    let sched_workers = config.workers.max(1).min(jobs.len().max(1));
    let pool_workers = config.workers.max(1).min(plan.todo.len().max(1));
    let ticket = JobTicket::new(plan.todo.len());
    let injector = PendingInjector::new(jobs.len());
    let costs: Vec<AtomicU64> = (0..jobs.len()).map(|_| AtomicU64::new(0)).collect();
    for &(i, cost) in &plan.prior_costs {
        costs[i].store(cost, Ordering::Relaxed);
    }
    let mut stats = plan.prior.clone();
    // Work finished before the crash was journaled with its stats
    // deltas; replaying them as a sink makes resumed counters equal to
    // an uninterrupted run's.
    if let Some(trace) = trace {
        trace.merge_sink(&stats_sink(&config.crawl, config.os, &plan.prior));
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..pool_workers)
            .map(|w| {
                let ticket = &ticket;
                let injector = &injector;
                let costs = costs.as_slice();
                let todo = plan.todo.as_slice();
                scope.spawn(move || {
                    crawl_worker(
                        jobs,
                        todo,
                        ticket,
                        injector,
                        costs,
                        config,
                        store,
                        journal,
                        w as u64,
                        pool_workers as u64,
                        trace.is_some(),
                    )
                })
            })
            .collect();
        // Per-worker tallies merge exactly once, at join — the crawl
        // itself holds no shared stats lock. The metrics sink and span
        // ring merge on the same schedule: one uncontended trace lock
        // per worker per campaign, nothing in the visit loop.
        for handle in handles {
            let (worker_stats, ring) = handle.join().expect("crawl worker panicked");
            if let Some(trace) = trace {
                trace.merge_sink(&stats_sink(&config.crawl, config.os, &worker_stats));
                if let Some(ring) = ring {
                    trace.absorb_ring(ring);
                }
            }
            stats.merge(&worker_stats);
        }
    });
    // The simulated makespan. A production pool's claim order follows
    // simulated time — a worker claims its next site the moment the
    // previous one finishes — but the simulation compresses 21 s
    // visits into microseconds, so the OS's thread scheduling would
    // otherwise leak into the claimed-job layout. Replaying the greedy
    // earliest-free-worker schedule over the recorded per-job costs
    // recovers the deterministic duration a real campaign would take.
    stats.makespan_ms = greedy_makespan(&costs, sched_workers as u64);
    let mut queue = injector.drain();
    queue.extend(plan.preparked.iter().copied());
    let dying = journal.is_some_and(|j| j.killed());
    if !queue.is_empty() && !dying {
        // Sorted by domain so the pass is independent of which worker
        // originally parked each site.
        queue.sort_by(|a, b| {
            jobs[*a]
                .site
                .domain
                .as_str()
                .cmp(jobs[*b].site.domain.as_str())
        });
        let before_recrawl = stats.clone();
        let mut ring = trace.map(|_| SpanRing::new(SPAN_RING_CAP));
        recrawl_pass(
            jobs,
            &queue,
            config,
            store,
            &mut stats,
            journal,
            ring.as_mut(),
        );
        if let Some(trace) = trace {
            // The pass mutates the merged tally in place, so its
            // counter contribution is the snapshot difference.
            trace.merge_sink(&stats_sink_delta(
                &config.crawl,
                config.os,
                &stats,
                &before_recrawl,
            ));
            if let Some(ring) = ring {
                trace.absorb_ring(ring);
            }
        }
    }
    // Recrawl wall-clock already journaled by the crashed run.
    stats.makespan_ms += plan.prior_recrawl_wall_ms;
    if let Some(trace) = trace {
        set_stats_gauges(trace, &config.crawl, config.os, &stats);
    }
    stats
}

/// The pre-work-stealing scheduler: jobs statically partitioned into
/// per-worker chunks. Kept as the ablation baseline — the perf bench
/// measures how badly a skewed (fault-heavy) chunk gates the campaign
/// tail compared to [`run_crawl`]. Produces identical stats and store
/// contents; only the wall-clock schedule differs.
pub fn run_crawl_chunked(
    jobs: &[CrawlJob<'_>],
    config: &CrawlConfig,
    store: &TelemetryStore,
) -> CrawlStats {
    let workers = config.workers.max(1).min(jobs.len().max(1));
    let chunk_size = jobs.len().div_ceil(workers).max(1);
    let mut stats = CrawlStats::new();
    let mut queue = Vec::<usize>::new();
    // Chunk results come back through the join handles and merge on
    // the supervisor thread, the same single-merge-point shape as
    // `run_crawl` and the trace registry — the old version funnelled
    // every worker through a Mutex<CrawlStats> + Mutex<Vec> pair, a
    // second hand-rolled merge path that observability would have had
    // to duplicate.
    std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .chunks(chunk_size)
            .enumerate()
            .map(|(w, chunk)| {
                let config = config.clone();
                scope.spawn(move || {
                    let base = w * chunk_size;
                    // A chunk is just a pre-claimed ticket range; reuse
                    // the worker loop via a ticket covering the chunk.
                    let order: Vec<usize> = (0..chunk.len()).collect();
                    let ticket = JobTicket::new(chunk.len());
                    let injector = PendingInjector::new(chunk.len());
                    // With a static assignment the worker's own
                    // accumulated wall clock *is* its schedule, so the
                    // recorded costs are only informational here.
                    let costs: Vec<AtomicU64> =
                        (0..chunk.len()).map(|_| AtomicU64::new(0)).collect();
                    let (stats, _) = crawl_worker(
                        chunk,
                        &order,
                        &ticket,
                        &injector,
                        &costs,
                        &config,
                        store,
                        None,
                        w as u64,
                        workers as u64,
                        false,
                    );
                    let pending: Vec<usize> =
                        injector.drain().into_iter().map(|i| base + i).collect();
                    (stats, pending)
                })
            })
            .collect();
        for handle in handles {
            let (chunk_stats, pending) = handle.join().expect("chunk worker panicked");
            stats.merge(&chunk_stats);
            queue.extend(pending);
        }
    });
    if !queue.is_empty() {
        queue.sort_by(|a, b| {
            jobs[*a]
                .site
                .domain
                .as_str()
                .cmp(jobs[*b].site.domain.as_str())
        });
        recrawl_pass(jobs, &queue, config, store, &mut stats, None, None);
    }
    stats
}

/// Deterministic simulated duration of a work-stealing pool: jobs are
/// handed out in queue order, each to the worker whose clock
/// (initialised to its staggered start) is earliest; the pool is done
/// when its busiest worker is. This is exactly the claim order a real
/// pool follows when visit wall time is real time.
fn greedy_makespan(costs: &[AtomicU64], workers: u64) -> u64 {
    let costs: Vec<u64> = costs.iter().map(|c| c.load(Ordering::Relaxed)).collect();
    simulated_makespan(&costs, workers)
}

/// [`greedy_makespan`] over a plain cost slice — the same greedy
/// earliest-free-worker replay, exposed so the campaign service can
/// price a campaign's schedule from its own per-job cost vector.
pub fn simulated_makespan(costs: &[u64], workers: u64) -> u64 {
    let mut clocks: BinaryHeap<Reverse<u64>> = (0..workers)
        .map(|w| Reverse(w * VISIT_WALL_MS / workers.max(1)))
        .collect();
    for cost in costs {
        let Reverse(clock) = clocks.pop().expect("at least one worker");
        clocks.push(Reverse(clock + cost));
    }
    clocks.into_iter().map(|Reverse(t)| t).max().unwrap_or(0)
}

/// §3.1: ping 8.8.8.8 before each visit — and before each retry, since
/// a backoff can sleep straight into an outage window. Waits out any
/// outage so measurement-side network problems never masquerade as
/// website failures.
fn wait_online(checker: &mut ConnectivityChecker, wall_ms: &mut u64, stats: &mut CrawlStats) {
    while !checker.ping(*wall_ms) {
        stats.connectivity_retries += 1;
        *wall_ms = checker.next_online(*wall_ms);
    }
}

/// One supervised browser attempt: looks up the visit's injected
/// faults, runs the browser under `catch_unwind` with its telemetry
/// streaming into the workspace's encoder, and converts a panic into a
/// quarantined [`AttemptEnd::Crashed`] over whatever capture prefix
/// the encoder holds.
fn attempt_visit(
    ws: &mut Workspace,
    config: &CrawlConfig,
    site: &WebSite,
    attempt: u32,
) -> AttemptEnd {
    let faults = config.faults.visit_faults(site.domain.as_str(), attempt);
    let Workspace { world, encoder, .. } = ws;
    encoder.clear();
    // AssertUnwindSafe: the closure owns the browser; the world's only
    // cross-visit state (DNS cache, counters) is left at worst
    // harmlessly stale by a mid-visit panic, and the visit's whole
    // record is quarantined anyway.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut browser = Browser::new(
            world,
            BrowserConfig {
                os: config.os,
                window_ms: config.window_ms,
                safe_browsing: false,
                incognito: true,
                pna: kt_browser::PnaMode::Off,
                crawl_internal: config.crawl_internal,
                profile: config.profile,
            },
            config.seed,
        );
        browser.visit_with(site, &faults, &mut NetLogger::with_sink(&mut *encoder))
    }));
    match outcome {
        Ok(outcome) => AttemptEnd::Outcome(outcome),
        Err(payload) => {
            // A cooperative panic leaves the capture prefix in the
            // encoder; anything else (a genuine bug) quarantines with
            // an empty capture.
            if !payload.is::<SalvagedVisit>() {
                encoder.clear();
            }
            AttemptEnd::Crashed
        }
    }
}

/// Finish one visit's record and append it, retrying once when the
/// fault plan injects a store-append failure (the retry, like a real
/// fsync hiccup's, succeeds).
fn append_record(
    store: &TelemetryStore,
    ws: &mut Workspace,
    stats: &mut CrawlStats,
    config: &CrawlConfig,
    job: &CrawlJob<'_>,
    (outcome, loaded_at_ms): (LoadOutcome, u64),
    attempt: u32,
) {
    let domain = job.site.domain.as_str();
    if config
        .faults
        .injects(Fault::StoreAppendFailure, domain, attempt)
    {
        stats.store_retries += 1;
    }
    let record = ws.encoder.finish(&RecordHeader {
        crawl: config.crawl.as_str(),
        domain,
        rank: job.site.rank,
        malicious_category: job.malicious_category,
        os: config.os,
        outcome,
        loaded_at_ms,
    });
    store.append_encoded(ws.crawl, domain, config.os, record);
}

/// Frame one visit's terminal verdict in the write-ahead journal:
/// the record the workspace just finished plus the stats delta
/// accumulated since `before` (the mark taken when the job was
/// claimed). Called *after* the stats mutations and store append of
/// the terminal arm, so the delta captures everything the visit
/// contributed — including retries and store-append retries. A
/// [`Fault::ProcessKill`] drawn for this `(domain, attempt)` tears the
/// frame mid-write and latches the journal's kill switch, exactly like
/// power loss under the writer.
#[allow(clippy::too_many_arguments)]
fn journal_visit(
    journal: Option<&JournalWriter>,
    ws: &Workspace,
    config: &CrawlConfig,
    stats: &CrawlStats,
    before: &StatsMark,
    domain: &str,
    cost_ms: u64,
    flags: u8,
    attempt: u32,
) {
    if let Some(journal) = journal {
        let delta = stats.delta_since(before, cost_ms);
        let kill = config.faults.injects(Fault::ProcessKill, domain, attempt);
        journal.append_visit_encoded(ws.record(), &delta, flags, kill);
    }
}

/// One pool job's terminal outcome. The terminal record itself is the
/// workspace's [`Workspace::record`]: the resident campaign service
/// streams it into online aggregation; the batch pool leaves it (the
/// store already holds it).
#[derive(Debug)]
pub struct PoolJobEnd {
    /// The job's whole simulated cost: visits, backoffs, outage waits.
    pub cost_ms: u64,
    /// True when the site was parked for the end-of-campaign recrawl
    /// pass (its stats verdict is deferred to that pass).
    pub parked: bool,
    /// Span status label: "success", "crashed", "error", or "parked".
    pub status: &'static str,
}

/// Run one site through the supervised attempt loop — the unit of work
/// a pool worker claims. Resets the workspace's world to the site, runs
/// the connectivity pre-check before every attempt, retries transient
/// failures in place with deterministic backoff, appends the terminal
/// record to the store, frames it in the journal, and records spans
/// into `ring`. Mutates the caller's `stats` and `wall_ms` exactly as
/// the pool worker's loop always has; extracting it changes nothing
/// observable (the worker-invariance and journal tests pin this).
///
/// The campaign service calls this directly — one job per campaign per
/// scheduling round — so multiplexed campaigns reuse the identical
/// visit machinery and their results stay byte-identical to a batch
/// run of the same campaign.
#[allow(clippy::too_many_arguments)]
pub fn run_pool_job(
    job: &CrawlJob<'_>,
    config: &CrawlConfig,
    store: &TelemetryStore,
    journal: Option<&JournalWriter>,
    ws: &mut Workspace,
    checker: &mut ConnectivityChecker,
    stats: &mut CrawlStats,
    wall_ms: &mut u64,
    worker_id: u64,
    mut ring: Option<&mut SpanRing>,
) -> PoolJobEnd {
    let job_start_ms = *wall_ms;
    let domain = job.site.domain.as_str();
    // Mark for the journal's per-visit stats delta: everything this
    // job adds to the tally lands between here and its terminal arm.
    let before = stats.mark();
    // A per-site world — its own DNS cache and latency stream, like a
    // dedicated VM — reset once per job and reused across that job's
    // retries. Site fates are installed from (domain, seed) alone, so
    // a single-site world observes exactly what a whole-population
    // world would.
    ws.world.reset_for(job.site);
    let mut attempt: u32 = 0;
    loop {
        wait_online(checker, wall_ms, stats);
        let end = attempt_visit(ws, config, job.site, attempt);
        *wall_ms += VISIT_WALL_MS;
        // The terminal verdict: the record's outcome and load time,
        // its journal flags and span status, and the failure to count
        // once the record is stored.
        let (record, flags, status, failure) = match end {
            AttemptEnd::Crashed => {
                // Quarantine immediately: a crash is a measurement
                // artifact, not a website failure — no retries.
                stats.record_crash();
                ((LoadOutcome::Crashed, 0), FLAG_FINAL, "crashed", None)
            }
            AttemptEnd::Outcome(PageLoadOutcome::Loaded { at_ms }) => {
                stats.record_success();
                if attempt > 0 {
                    stats.recovered += 1;
                }
                ((LoadOutcome::Success, at_ms), FLAG_FINAL, "success", None)
            }
            AttemptEnd::Outcome(PageLoadOutcome::Failed(err)) => {
                let transient = is_transient(err);
                if transient && attempt + 1 < config.retry.max_attempts {
                    stats.retries += 1;
                    if let Some(ring) = ring.as_deref_mut() {
                        ring.event(EventRecord {
                            name: "retry",
                            worker: worker_id as u32,
                            at_ms: *wall_ms,
                            target: domain.to_string(),
                            detail: err.name().to_string(),
                        });
                    }
                    *wall_ms += config.retry.backoff_ms(config.seed, domain, attempt + 1);
                    attempt += 1;
                    continue;
                }
                let record = (LoadOutcome::Error(err), 0);
                // A parked site's verdict is deferred to the recrawl
                // pass, and its frame is non-final (flags 0): resume
                // sends it straight to the recrawl queue.
                if transient && config.retry.recrawl {
                    (record, 0, "parked", None)
                } else {
                    (record, FLAG_FINAL, "error", Some(err))
                }
            }
        };
        append_record(store, ws, stats, config, job, record, attempt);
        if let Some(err) = failure {
            stats.record_failure(err);
        }
        let cost_ms = *wall_ms - job_start_ms;
        journal_visit(
            journal, ws, config, stats, &before, domain, cost_ms, flags, attempt,
        );
        visit_span(
            ring.as_deref_mut(),
            worker_id,
            job_start_ms,
            *wall_ms,
            domain,
            status,
        );
        return PoolJobEnd {
            cost_ms,
            parked: status == "parked",
            status,
        };
    }
}

/// One worker's loop: claim jobs off the shared ticket until the queue
/// drains. Returns the worker's private stats tally (merged by the
/// supervisor at join) plus, when `spans` is on, its span ring — one
/// simulated-clock span per terminal visit, one event per in-place
/// retry, recorded lock-free into worker-owned memory. Sites whose
/// transient failures exhausted their in-place retries are parked on
/// the shared `injector` for the end-of-campaign recrawl pass (their
/// stats verdict is deferred to that pass).
#[allow(clippy::too_many_arguments)]
fn crawl_worker(
    jobs: &[CrawlJob<'_>],
    order: &[usize],
    ticket: &JobTicket,
    injector: &PendingInjector,
    costs: &[AtomicU64],
    config: &CrawlConfig,
    store: &TelemetryStore,
    journal: Option<&JournalWriter>,
    worker_id: u64,
    workers: u64,
    spans: bool,
) -> (CrawlStats, Option<SpanRing>) {
    let mut checker = ConnectivityChecker::with_outages(config.outages.clone());
    let mut ring = spans.then(|| SpanRing::new(SPAN_RING_CAP));
    let mut ws = Workspace::new(config, store);
    let mut stats = CrawlStats::new();
    // Staggered start: spread workers evenly across one visit's
    // wall-clock span. The old `wall_ms = worker_id` start (offsets of
    // 0, 1, 2… *milliseconds*) parked every worker's clock inside the
    // same outage windows.
    let mut wall_ms: u64 = worker_id * VISIT_WALL_MS / workers.max(1);
    // Startup connectivity check, before touching the queue: keeps the
    // outage accounting independent of claim races — worker 0's ping
    // at wall zero happens whether or not it wins a single job.
    wait_online(&mut checker, &mut wall_ms, &mut stats);
    while let Some(t) = ticket.claim() {
        // The process "died" mid-frame: stop claiming. Peers observe
        // the same latch; the campaign is abandoned for `resume`.
        if journal.is_some_and(|j| j.killed()) {
            break;
        }
        let i = order[t];
        let job = &jobs[i];
        let end = run_pool_job(
            job,
            config,
            store,
            journal,
            &mut ws,
            &mut checker,
            &mut stats,
            &mut wall_ms,
            worker_id,
            ring.as_mut(),
        );
        if end.parked {
            // Verdict deferred: the recrawl pass decides whether this
            // becomes a Table 1 error. The failure record already in
            // the store stands until (unless) that pass overwrites it.
            injector.push(i);
        }
        // The job's simulated cost — visits, backoffs, outage waits —
        // feeds the supervisor's deterministic schedule replay.
        costs[i].store(end.cost_ms, Ordering::Relaxed);
    }
    // The worker's contribution to the simulated campaign duration is
    // where its wall clock ended up; under a static chunk assignment
    // (the chunked scheduler) this *is* the schedule. `run_crawl`
    // overrides the merged value with its deterministic greedy replay.
    stats.makespan_ms = wall_ms;
    (stats, ring)
}

/// Record one terminal visit span into a worker's ring (if tracing).
fn visit_span(
    ring: Option<&mut SpanRing>,
    worker_id: u64,
    start_ms: u64,
    end_ms: u64,
    target: &str,
    status: &'static str,
) {
    if let Some(ring) = ring {
        ring.span(SpanRecord {
            name: "visit",
            worker: worker_id as u32,
            start_ms,
            end_ms,
            target: target.to_string(),
            status,
        });
    }
}

/// One site's final recrawl visit — the unit of work the
/// end-of-campaign pass (and the campaign service's recrawl phase)
/// performs. The visit is attempt number `max_attempts`: the first
/// fresh fault/backoff draw past the in-place attempts. The caller
/// owns the pass-wide workspace (the recrawl visits its whole queue in
/// one world, unlike the pool's per-site worlds) and the restarted
/// wall clock. The terminal record, already in the store and journal,
/// is left in the workspace ([`Workspace::record`]) for streaming
/// consumers.
#[allow(clippy::too_many_arguments)]
pub fn run_recrawl_job(
    job: &CrawlJob<'_>,
    config: &CrawlConfig,
    store: &TelemetryStore,
    journal: Option<&JournalWriter>,
    ws: &mut Workspace,
    checker: &mut ConnectivityChecker,
    stats: &mut CrawlStats,
    wall_ms: &mut u64,
    ring: Option<&mut SpanRing>,
) {
    let attempt = config.retry.max_attempts;
    let domain = job.site.domain.as_str();
    let before = stats.mark();
    stats.recrawled += 1;
    wait_online(checker, wall_ms, stats);
    let (record, status) = match attempt_visit(ws, config, job.site, attempt) {
        AttemptEnd::Crashed => {
            stats.record_crash();
            ((LoadOutcome::Crashed, 0), "crashed")
        }
        AttemptEnd::Outcome(PageLoadOutcome::Loaded { at_ms }) => {
            stats.record_success();
            stats.recovered += 1;
            // Overwrites the pass-one failure record: the store is
            // last-write-wins per (crawl, domain, os).
            ((LoadOutcome::Success, at_ms), "recovered")
        }
        AttemptEnd::Outcome(PageLoadOutcome::Failed(err)) => {
            stats.record_failure(err);
            stats.gave_up += 1;
            ((LoadOutcome::Error(err), 0), "gave_up")
        }
    };
    append_record(store, ws, stats, config, job, record, attempt);
    // Each recrawl visit costs exactly one wall slot (the pass is
    // serial and outage waits are schedule-, not site-, owned), so
    // the journaled cost is the constant — resume adds one slot
    // back per surviving recrawl frame.
    journal_visit(
        journal,
        ws,
        config,
        stats,
        &before,
        domain,
        VISIT_WALL_MS,
        FLAG_FINAL | FLAG_RECRAWL,
        attempt,
    );
    if let Some(ring) = ring {
        ring.span(SpanRecord {
            name: "recrawl",
            worker: u32::MAX,
            start_ms: *wall_ms,
            end_ms: *wall_ms + VISIT_WALL_MS,
            target: domain.to_string(),
            status,
        });
    }
    *wall_ms += VISIT_WALL_MS;
}

/// The end-of-campaign recrawl: transiently-failing sites get one
/// final visit before their errors are allowed into Table 1.
/// Single-threaded, in domain order, with a fresh world and a wall
/// clock restarted at zero — all independent of the original worker
/// layout, so results stay stable across worker counts. Recrawl spans
/// report as worker `u32::MAX` (the pass is the supervisor's, not any
/// pool worker's).
#[allow(clippy::too_many_arguments)]
fn recrawl_pass(
    jobs: &[CrawlJob<'_>],
    queue: &[usize],
    config: &CrawlConfig,
    store: &TelemetryStore,
    stats: &mut CrawlStats,
    journal: Option<&JournalWriter>,
    mut ring: Option<&mut SpanRing>,
) {
    let sites: Vec<WebSite> = queue.iter().map(|&i| jobs[i].site.clone()).collect();
    let world = World::build(&sites, config.os, config.seed);
    let mut ws = Workspace::with_world(world, config, store);
    let mut checker = ConnectivityChecker::with_outages(config.outages.clone());
    let mut wall_ms: u64 = 0;
    // The recrawl visit is attempt number `max_attempts`: the first
    // fresh fault/backoff draw past the in-place attempts.
    for &index in queue {
        if journal.is_some_and(|j| j.killed()) {
            break;
        }
        run_recrawl_job(
            &jobs[index],
            config,
            store,
            journal,
            &mut ws,
            &mut checker,
            stats,
            &mut wall_ms,
            ring.as_deref_mut(),
        );
    }
    // The recrawl is a serial coda after the parallel phase: it
    // extends the campaign rather than overlapping it.
    stats.makespan_ms += wall_ms;
}

#[cfg(test)]
mod tests {
    use super::*;
    use kt_netbase::DomainName;
    use kt_netlog::NetError;
    use kt_store::VisitRecord;
    use kt_webgen::{Availability, WebSite};

    fn sites(n: usize) -> Vec<WebSite> {
        (0..n)
            .map(|i| {
                let mut s = WebSite::plain(
                    DomainName::parse(&format!("site{i}.example")).unwrap(),
                    Some(i as u32 + 1),
                    3,
                );
                if i % 10 == 9 {
                    s.set_availability_all(Availability::NxDomain);
                }
                s
            })
            .collect()
    }

    fn jobs(sites: &[WebSite]) -> Vec<CrawlJob<'_>> {
        sites
            .iter()
            .map(|site| CrawlJob {
                site,
                malicious_category: None,
            })
            .collect()
    }

    #[test]
    fn crawl_visits_every_site() {
        let population = sites(40);
        let store = TelemetryStore::new();
        let config = CrawlConfig::paper(CrawlId::top2020(), Os::Linux, 5);
        let stats = run_crawl(&jobs(&population), &config, &store);
        assert_eq!(stats.attempted, 40);
        assert_eq!(stats.failed(), 4, "every 10th site is NXDOMAIN");
        assert_eq!(store.len(), 40);
        assert_eq!(stats.failure_count(NetError::NameNotResolved), 4);
    }

    #[test]
    fn stats_are_stable_across_worker_counts() {
        let population = sites(30);
        let mut baseline = None;
        for workers in [1, 2, 4, 8] {
            let store = TelemetryStore::new();
            let mut config = CrawlConfig::paper(CrawlId::top2020(), Os::Windows, 5);
            config.workers = workers;
            let stats = run_crawl(&jobs(&population), &config, &store);
            match &baseline {
                None => baseline = Some(stats),
                Some(b) => {
                    assert_eq!(&stats.attempted, &b.attempted, "workers={workers}");
                    assert_eq!(&stats.failures, &b.failures, "workers={workers}");
                }
            }
        }
    }

    #[test]
    fn faulty_stats_and_store_are_stable_across_worker_counts() {
        // The acceptance bar for the fault layer: a fixed seed and a
        // fixed fault plan give byte-identical stats (including the
        // resilience counters) and store contents whatever the worker
        // count, because every draw is keyed by site identity and
        // attempt number.
        let population = sites(30);
        let plan = FaultPlan::none(7)
            .with_rate(Fault::DnsFlap, 0.2)
            .with_rate(Fault::ConnectionReset, 0.2)
            .with_rate(Fault::TruncatedCapture, 0.15)
            .with_rate(Fault::StoreAppendFailure, 0.15)
            .with_rate(Fault::WorkerPanic, 0.1);
        let mut baseline: Option<(CrawlStats, Vec<VisitRecord>)> = None;
        for workers in [1, 2, 4, 8] {
            let store = TelemetryStore::new();
            let mut config = CrawlConfig::paper(CrawlId::top2020(), Os::Windows, 7);
            config.workers = workers;
            config.faults = plan.clone();
            let mut stats = run_crawl(&jobs(&population), &config, &store);
            // Worker staggering interacts with outage windows and the
            // makespan measures the schedule itself, so those two are
            // the only legitimately schedule-dependent numbers.
            stats.connectivity_retries = 0;
            stats.makespan_ms = 0;
            let mut records = store.crawl_records_on(&CrawlId::top2020(), Os::Windows);
            records.sort_by(|a, b| a.domain.cmp(&b.domain));
            assert_eq!(records.len(), 30, "workers={workers}");
            match &baseline {
                None => baseline = Some((stats, records)),
                Some((b_stats, b_records)) => {
                    assert_eq!(&stats, b_stats, "workers={workers}");
                    assert_eq!(&records, b_records, "workers={workers}");
                }
            }
        }
        let (stats, _) = baseline.unwrap();
        assert!(stats.retries > 0, "the plan should exercise retries");
        assert!(stats.crashed > 0, "the plan should exercise quarantine");
    }

    #[test]
    fn store_bytes_are_identical_across_worker_counts() {
        // The PR's determinism bar, at the byte level: 1, 3, and 8
        // workers produce encoded records that compare equal byte for
        // byte, and identical stats — claim order never leaks into
        // telemetry.
        let population = sites(24);
        let plan = FaultPlan::none(9)
            .with_rate(Fault::ConnectionReset, 0.25)
            .with_rate(Fault::WorkerPanic, 0.1);
        let mut baseline: Option<(CrawlStats, Vec<Vec<u8>>)> = None;
        for workers in [1, 3, 8] {
            let store = TelemetryStore::new();
            let mut config = CrawlConfig::paper(CrawlId::top2020(), Os::MacOs, 9);
            config.workers = workers;
            config.faults = plan.clone();
            let mut stats = run_crawl(&jobs(&population), &config, &store);
            stats.connectivity_retries = 0;
            stats.makespan_ms = 0;
            // `crawl_records` already returns (domain, os)-sorted rows,
            // so the byte streams line up positionally.
            let bytes: Vec<Vec<u8>> = store
                .crawl_records(&CrawlId::top2020())
                .iter()
                .map(|r| kt_store::codec::encode(r).as_ref().to_vec())
                .collect();
            assert_eq!(bytes.len(), 24, "workers={workers}");
            match &baseline {
                None => baseline = Some((stats, bytes)),
                Some((b_stats, b_bytes)) => {
                    assert_eq!(&stats, b_stats, "workers={workers}");
                    assert_eq!(&bytes, b_bytes, "workers={workers}");
                }
            }
        }
    }

    #[test]
    fn chunked_and_stealing_schedulers_produce_identical_results() {
        // The ablation baseline must stay result-equivalent: only the
        // wall-clock schedule may differ between static chunking and
        // work stealing.
        let population = sites(20);
        let plan = FaultPlan::none(3)
            .with_rate(Fault::DnsFlap, 0.2)
            .with_rate(Fault::ConnectionReset, 0.2);
        let mut config = CrawlConfig::paper(CrawlId::top2020(), Os::Linux, 3);
        config.faults = plan;
        let run = |f: fn(&[CrawlJob<'_>], &CrawlConfig, &TelemetryStore) -> CrawlStats| {
            let store = TelemetryStore::new();
            let mut stats = f(&jobs(&population), &config, &store);
            stats.connectivity_retries = 0;
            stats.makespan_ms = 0;
            (stats, store.crawl_records(&CrawlId::top2020()))
        };
        assert_eq!(run(run_crawl), run(run_crawl_chunked));
    }

    #[test]
    fn work_stealing_halves_the_makespan_on_a_skewed_population() {
        // The scheduler's reason to exist: heavy sites (every attempt
        // draws a reset, so each burns max_attempts visits plus
        // backoffs) sorted contiguously at the front land in one
        // static chunk and gate the whole campaign; work stealing
        // spreads them. Outcome counters stay identical — only the
        // simulated makespan may differ, and it must differ by ≥2×.
        let plan = FaultPlan::none(13).with_rate(Fault::ConnectionReset, 0.5);
        let mut heavy = Vec::new();
        let mut light = Vec::new();
        let mut candidate = 0;
        while heavy.len() < 8 || light.len() < 56 {
            let name = format!("skew{candidate}.example");
            candidate += 1;
            let first_two = plan.injects(Fault::ConnectionReset, &name, 0)
                && plan.injects(Fault::ConnectionReset, &name, 1);
            let bucket = if first_two { &mut heavy } else { &mut light };
            let target = if first_two { 8 } else { 56 };
            if bucket.len() < target {
                bucket.push(WebSite::plain(
                    DomainName::parse(&name).unwrap(),
                    Some(bucket.len() as u32 + 1),
                    3,
                ));
            }
        }
        heavy.extend(light);
        let mut config = CrawlConfig::paper(CrawlId::top2020(), Os::Linux, 13);
        config.workers = 8;
        config.faults = plan;
        config.retry = RetryPolicy {
            max_attempts: 4,
            base_backoff_ms: 5_000,
            max_backoff_ms: 60_000,
            recrawl: false,
        };
        let population = jobs(&heavy);
        let steal_store = TelemetryStore::new();
        let stealing = run_crawl(&population, &config, &steal_store);
        let chunk_store = TelemetryStore::new();
        let chunked = run_crawl_chunked(&population, &config, &chunk_store);
        assert_eq!(stealing.attempted, chunked.attempted);
        assert_eq!(stealing.failures, chunked.failures);
        assert_eq!(
            steal_store.crawl_records(&CrawlId::top2020()),
            chunk_store.crawl_records(&CrawlId::top2020())
        );
        assert!(
            stealing.makespan_ms * 2 <= chunked.makespan_ms,
            "stealing {} ms vs chunked {} ms",
            stealing.makespan_ms,
            chunked.makespan_ms
        );
    }

    #[test]
    fn records_are_keyed_by_crawl_and_os() {
        let population = sites(5);
        let store = TelemetryStore::new();
        for os in [Os::Windows, Os::Linux] {
            let config = CrawlConfig::paper(CrawlId::top2020(), os, 5);
            run_crawl(&jobs(&population), &config, &store);
        }
        assert_eq!(store.len(), 10);
        assert!(store
            .get(&CrawlId::top2020(), "site0.example", Os::Windows)
            .is_some());
        assert!(store
            .get(&CrawlId::top2020(), "site0.example", Os::MacOs)
            .is_none());
    }

    #[test]
    fn outages_delay_but_do_not_fail() {
        let population = sites(10);
        let store = TelemetryStore::new();
        let mut config = CrawlConfig::paper(CrawlId::top2020(), Os::Linux, 5);
        config.workers = 1;
        config.outages = vec![Outage {
            start: 0,
            end: 50_000,
        }];
        let stats = run_crawl(&jobs(&population), &config, &store);
        assert!(stats.connectivity_retries > 0);
        assert_eq!(stats.attempted, 10, "every site still crawled");
        assert_eq!(stats.failed(), 1, "only the genuine NXDOMAIN fails");
    }

    #[test]
    fn staggered_workers_do_not_share_outage_windows() {
        // Workers used to start at wall_ms = worker_id — offsets of
        // 0, 1, 2, 3 *milliseconds*, so one outage at the crawl's
        // start stalled all four workers. The stagger now spreads
        // starts across a visit span (0 / 5250 / 10500 / 15750 ms for
        // four workers): an outage over [0, 5000) catches only
        // worker 0's first ping.
        let population = sites(8);
        let store = TelemetryStore::new();
        let mut config = CrawlConfig::paper(CrawlId::top2020(), Os::Linux, 5);
        config.outages = vec![Outage {
            start: 0,
            end: 5_000,
        }];
        let stats = run_crawl(&jobs(&population), &config, &store);
        assert_eq!(
            stats.connectivity_retries, 1,
            "only worker 0 starts inside the outage"
        );
        assert_eq!(stats.attempted, 8);
        assert_eq!(stats.failed(), 0);
    }

    #[test]
    fn outage_starting_mid_backoff_is_waited_out() {
        // Attempt 0 ends at 21 s; the backoff pushes the retry past
        // 26 s; an outage opening at 22 s must be caught by the
        // pre-retry ping rather than crawled through.
        let site = WebSite::plain(DomainName::parse("flaky.example").unwrap(), Some(1), 3);
        let store = TelemetryStore::new();
        let mut config = CrawlConfig::paper(CrawlId::top2020(), Os::Linux, 5);
        config.workers = 1;
        config.faults = FaultPlan::none(5).with_first_attempts(Fault::ConnectionReset, 1);
        config.outages = vec![Outage {
            start: 22_000,
            end: 600_000,
        }];
        let job = [CrawlJob {
            site: &site,
            malicious_category: None,
        }];
        let stats = run_crawl(&job, &config, &store);
        assert_eq!(stats.retries, 1);
        assert!(
            stats.connectivity_retries >= 1,
            "the retry pinged into the outage"
        );
        assert_eq!(
            stats.successful, 1,
            "retry succeeded once the outage lifted"
        );
        assert_eq!(stats.recovered, 1);
    }

    #[test]
    fn injected_panics_never_abort_the_campaign() {
        // Every visit panics: all six are quarantined as Crashed
        // records, the workers keep going, and the campaign accounts
        // for every job.
        let population = sites(6);
        let store = TelemetryStore::new();
        let mut config = CrawlConfig::paper(CrawlId::top2020(), Os::Linux, 5);
        config.workers = 2;
        config.faults = FaultPlan::none(5).with_rate(Fault::WorkerPanic, 1.0);
        let stats = run_crawl(&jobs(&population), &config, &store);
        assert_eq!(stats.attempted, 6, "no job lost to a panic");
        assert_eq!(stats.crashed, 6, "every visit quarantined");
        assert_eq!(store.len(), 6);
        let records = store.crawl_records_on(&CrawlId::top2020(), Os::Linux);
        assert!(records.iter().all(|r| r.outcome.is_crashed()));
    }

    #[test]
    fn transient_failure_recovers_in_place() {
        // A single reset on attempt 0; the in-place retry (attempt 1)
        // succeeds, so the site never reaches the recrawl queue and
        // the store holds a success.
        let site = WebSite::plain(DomainName::parse("wobbly.example").unwrap(), Some(1), 3);
        let store = TelemetryStore::new();
        let mut config = CrawlConfig::paper(CrawlId::top2020(), Os::Linux, 11);
        config.workers = 1;
        config.faults = FaultPlan::none(11).with_first_attempts(Fault::ConnectionReset, 1);
        let job = [CrawlJob {
            site: &site,
            malicious_category: None,
        }];
        let stats = run_crawl(&job, &config, &store);
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.recrawled, 0);
        assert_eq!(stats.recovered, 1);
        assert_eq!(stats.successful, 1);
        assert_eq!(stats.failed(), 0);
        let record = store
            .get(&CrawlId::top2020(), "wobbly.example", Os::Linux)
            .unwrap();
        assert!(record.outcome.is_success());
    }

    #[test]
    fn exhausted_transients_go_to_the_recrawl_queue() {
        // Resets on attempts 0 and 1 exhaust the paper policy's
        // in-place budget (max_attempts = 2); the recrawl pass
        // (attempt 2) is clean and overwrites the failure record.
        let site = WebSite::plain(DomainName::parse("stubborn.example").unwrap(), Some(1), 3);
        let store = TelemetryStore::new();
        let mut config = CrawlConfig::paper(CrawlId::top2020(), Os::Linux, 11);
        config.workers = 1;
        config.faults = FaultPlan::none(11).with_first_attempts(Fault::ConnectionReset, 2);
        let job = [CrawlJob {
            site: &site,
            malicious_category: None,
        }];
        let stats = run_crawl(&job, &config, &store);
        assert_eq!(stats.retries, 1, "one in-place retry before parking");
        assert_eq!(stats.recrawled, 1);
        assert_eq!(stats.recovered, 1);
        assert_eq!(stats.gave_up, 0);
        assert_eq!(stats.attempted, 1, "the site still counts exactly once");
        assert_eq!(stats.failed(), 0, "no Table 1 error for a recovered site");
        let record = store
            .get(&CrawlId::top2020(), "stubborn.example", Os::Linux)
            .unwrap();
        assert!(record.outcome.is_success(), "recrawl overwrote the failure");
    }

    #[test]
    fn permanently_failing_transients_give_up() {
        // Resets on every attempt including the recrawl: the site ends
        // as a genuine CONN_RESET row in Table 1 with gave_up = 1.
        let site = WebSite::plain(DomainName::parse("dead.example").unwrap(), Some(1), 3);
        let store = TelemetryStore::new();
        let mut config = CrawlConfig::paper(CrawlId::top2020(), Os::Linux, 11);
        config.workers = 1;
        config.faults = FaultPlan::none(11).with_first_attempts(Fault::ConnectionReset, 3);
        let job = [CrawlJob {
            site: &site,
            malicious_category: None,
        }];
        let stats = run_crawl(&job, &config, &store);
        assert_eq!(stats.recrawled, 1);
        assert_eq!(stats.gave_up, 1);
        assert_eq!(stats.recovered, 0);
        assert_eq!(stats.failure_count(NetError::ConnectionReset), 1);
        assert_eq!(stats.failed(), 1);
        let record = store
            .get(&CrawlId::top2020(), "dead.example", Os::Linux)
            .unwrap();
        assert_eq!(
            record.outcome,
            LoadOutcome::Error(NetError::ConnectionReset)
        );
    }

    #[test]
    fn store_append_faults_are_retried_and_counted() {
        let population = sites(4);
        let store = TelemetryStore::new();
        let mut config = CrawlConfig::paper(CrawlId::top2020(), Os::Linux, 5);
        config.workers = 1;
        config.faults = FaultPlan::none(5).with_first_attempts(Fault::StoreAppendFailure, 1);
        let stats = run_crawl(&jobs(&population), &config, &store);
        assert_eq!(stats.store_retries, 4, "every site's first append retried");
        assert_eq!(store.len(), 4, "no record lost");
    }

    #[test]
    fn empty_job_list_is_fine() {
        let store = TelemetryStore::new();
        let config = CrawlConfig::paper(CrawlId::top2020(), Os::Linux, 5);
        let stats = run_crawl(&[], &config, &store);
        assert_eq!(stats.attempted, 0);
        assert!(store.is_empty());
    }

    // ---- write-ahead journal integration ----

    use crate::resume::split_campaigns;
    use kt_store::journal::{replay, JournalWriter, KillMode, KillSpec};

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "kt-crawl-journal-{name}-{}.ktj",
            std::process::id()
        ))
    }

    /// A fresh journaled crawl.
    fn journaled(
        jobs: &[CrawlJob<'_>],
        config: &CrawlConfig,
        store: &TelemetryStore,
        journal: &JournalWriter,
    ) -> CrawlStats {
        let plan = ResumePlan::fresh(jobs.len());
        run_crawl_with(jobs, &plan, config, store, RunOptions::journaled(journal))
    }

    /// A fault plan that exercises retries, recrawls, quarantines, and
    /// store-append retries all at once.
    fn stormy_plan(seed: u64) -> FaultPlan {
        FaultPlan::none(seed)
            .with_rate(Fault::DnsFlap, 0.2)
            .with_rate(Fault::ConnectionReset, 0.25)
            .with_rate(Fault::WorkerPanic, 0.1)
            .with_rate(Fault::StoreAppendFailure, 0.15)
    }

    #[test]
    fn journaling_never_perturbs_results_and_replay_rebuilds_the_run() {
        let population = sites(24);
        let mut config = CrawlConfig::paper(CrawlId::top2020(), Os::Windows, 7);
        config.faults = stormy_plan(7);
        let baseline_store = TelemetryStore::new();
        let baseline = run_crawl(&jobs(&population), &config, &baseline_store);

        let path = tmp("no-perturb");
        let journal = JournalWriter::create(&path).unwrap();
        let live_store = TelemetryStore::new();
        let live = journaled(&jobs(&population), &config, &live_store, &journal);
        journal.sync();
        assert!(!journal.killed());
        assert_eq!(live, baseline, "journalling must not perturb stats");
        assert_eq!(
            live_store.crawl_records(&CrawlId::top2020()),
            baseline_store.crawl_records(&CrawlId::top2020()),
        );

        // The journal alone rebuilds the store and (modulo the
        // schedule-owned fields) the whole tally.
        let report = replay(&path).unwrap();
        assert_eq!(report.corrupt_frames, 0);
        assert!(!report.truncated_tail);
        assert_eq!(
            report.store.crawl_records(&CrawlId::top2020()),
            baseline_store.crawl_records(&CrawlId::top2020()),
        );
        let campaigns = split_campaigns(&report.visits, &report.checkpoints);
        let key = ("top2020".to_string(), "Windows".to_string());
        let plan = campaigns[&key].plan(&jobs(&population));
        assert!(plan.nothing_to_run(), "every job has a final frame");
        let mut rebuilt = plan.prior.clone();
        rebuilt.makespan_ms = baseline.makespan_ms;
        assert_eq!(rebuilt, baseline, "deltas rebuild the Table 1 tally");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn kill_at_any_frame_then_resume_reproduces_the_uninterrupted_run() {
        let population = sites(18);
        let mut config = CrawlConfig::paper(CrawlId::top2020(), Os::Linux, 11);
        config.faults = stormy_plan(11);
        let baseline_store = TelemetryStore::new();
        let baseline = run_crawl(&jobs(&population), &config, &baseline_store);
        let baseline_records = baseline_store.crawl_records(&CrawlId::top2020());
        let key = ("top2020".to_string(), "Linux".to_string());

        for at_frame in [0, 2, 5, 9, 14] {
            for mode in [KillMode::MidFrame, KillMode::PostFrame] {
                let path = tmp(&format!("kill-{at_frame}-{mode:?}"));
                let journal = JournalWriter::create(&path).unwrap();
                journal.set_kill(Some(KillSpec { at_frame, mode }));
                let dying_store = TelemetryStore::new();
                let _ = journaled(&jobs(&population), &config, &dying_store, &journal);
                assert!(journal.killed(), "frame {at_frame} must be reached");

                // Recovery: replay what survived, plan the remainder,
                // and run it on top of the replayed store.
                let report = replay(&path).unwrap();
                let campaigns = split_campaigns(&report.visits, &report.checkpoints);
                let plan = campaigns
                    .get(&key)
                    .map(|c| c.plan(&jobs(&population)))
                    .unwrap_or_else(|| ResumePlan::fresh(population.len()));
                let resumed_journal = JournalWriter::open_append(&path).unwrap();
                let resumed = run_crawl_with(
                    &jobs(&population),
                    &plan,
                    &config,
                    &report.store,
                    RunOptions::journaled(&resumed_journal),
                );
                assert_eq!(
                    resumed, baseline,
                    "kill@{at_frame}/{mode:?}: stats must match, makespan included"
                );
                assert_eq!(
                    report.store.crawl_records(&CrawlId::top2020()),
                    baseline_records,
                    "kill@{at_frame}/{mode:?}: store must match byte for byte"
                );
                std::fs::remove_file(&path).ok();
            }
        }
    }

    #[test]
    fn injected_process_kill_tears_the_journal_and_resume_recovers() {
        let population = sites(12);
        let mut config = CrawlConfig::paper(CrawlId::top2020(), Os::MacOs, 23);
        // The kill draw rides along with ordinary faults; the plain
        // baseline carries the same plan (ProcessKill only fires when
        // a journal is attached, like power loss needs a power cord).
        config.faults = stormy_plan(23).with_rate(Fault::ProcessKill, 0.15);
        let baseline_store = TelemetryStore::new();
        let baseline = run_crawl(&jobs(&population), &config, &baseline_store);

        let path = tmp("process-kill");
        let journal = JournalWriter::create(&path).unwrap();
        let dying_store = TelemetryStore::new();
        let _ = journaled(&jobs(&population), &config, &dying_store, &journal);
        assert!(
            journal.killed(),
            "a 15% per-visit kill rate over 12 sites must fire"
        );

        // Resume without re-arming the kill: a real power loss does
        // not deterministically recur at the same visit.
        let mut resume_config = config.clone();
        resume_config.faults = stormy_plan(23);
        let report = replay(&path).unwrap();
        assert!(report.truncated_tail, "the kill tears a frame mid-write");
        let campaigns = split_campaigns(&report.visits, &report.checkpoints);
        let key = ("top2020".to_string(), "Mac".to_string());
        let plan = campaigns
            .get(&key)
            .map(|c| c.plan(&jobs(&population)))
            .unwrap_or_else(|| ResumePlan::fresh(population.len()));
        let resumed_journal = JournalWriter::open_append(&path).unwrap();
        let resumed = run_crawl_with(
            &jobs(&population),
            &plan,
            &resume_config,
            &report.store,
            RunOptions::journaled(&resumed_journal),
        );
        assert_eq!(resumed, baseline);
        assert_eq!(
            report.store.crawl_records(&CrawlId::top2020()),
            baseline_store.crawl_records(&CrawlId::top2020()),
        );
        std::fs::remove_file(&path).ok();
    }
}
