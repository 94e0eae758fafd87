//! The crawl's streamed records are the owned path's records, byte for
//! byte.
//!
//! A crawl worker keeps one world, resets it per site, and streams each
//! visit's events straight into its record encoder. The oracle is the
//! owned path: a fresh `World::build(&[site])`, `Browser::visit_faulted`
//! collecting owned events (or the `SalvagedVisit` payload of a crashed
//! visit), and `codec::encode` of the resulting `VisitRecord`. The two
//! must agree on every site of seeded populations, under every fault
//! the plan injects, for every crawler profile (the WebRTC probe's ICE
//! candidates included), with and without the deep crawl, and under
//! each Private Network Access mode.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Once, OnceLock};

use kt_browser::{Browser, BrowserConfig, CrawlerProfile, PageLoadOutcome, PnaMode, World};
use kt_crawler::{run_crawl, CrawlConfig, CrawlJob};
use kt_faults::{Fault, FaultPlan, SalvagedVisit, VisitFaults};
use kt_netbase::Os;
use kt_netlog::NetLogger;
use kt_store::codec::encode;
use kt_store::{CrawlId, LoadOutcome, RecordHeader, TelemetryStore, VisitEncoder, VisitRecord};
use kt_webgen::{PopulationConfig, WebPopulation, WebSite};
use proptest::prelude::*;

/// Every site of a sensor-planted test-scale population: top-list
/// sites of both years (behaviours, sensors, WebRTC probes) and the
/// malicious list (redirects, developer errors).
fn sites() -> &'static [WebSite] {
    static SITES: OnceLock<Vec<WebSite>> = OnceLock::new();
    SITES.get_or_init(|| {
        let population = WebPopulation::generate(PopulationConfig::bias_scale(41));
        let mut sites = population.sites2020;
        sites.extend(population.sites2021);
        sites.extend(population.malicious_sites);
        sites
    })
}

/// Crashed visits are expected here: keep their panic messages quiet,
/// and every other panic (a failing assertion) loud.
fn quiet_salvage_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !info.payload().is::<SalvagedVisit>() {
                default(info);
            }
        }));
    });
}

/// The record header the crawler writes for a visit that ended with
/// `end` (`None`: the visit crashed).
fn header<'a>(
    crawl: &'a CrawlId,
    site: &'a WebSite,
    os: Os,
    end: Option<PageLoadOutcome>,
) -> RecordHeader<'a> {
    let (outcome, loaded_at_ms) = match end {
        Some(PageLoadOutcome::Loaded { at_ms }) => (LoadOutcome::Success, at_ms),
        Some(PageLoadOutcome::Failed(err)) => (LoadOutcome::Error(err), 0),
        None => (LoadOutcome::Crashed, 0),
    };
    RecordHeader {
        crawl: crawl.as_str(),
        domain: site.domain.as_str(),
        rank: site.rank,
        malicious_category: None,
        os,
        outcome,
        loaded_at_ms,
    }
}

/// The oracle: a fresh single-site world and owned events.
fn owned_record(site: &WebSite, config: BrowserConfig, seed: u64, faults: &VisitFaults) -> Vec<u8> {
    let crawl = CrawlId::top2020();
    let mut world = World::build(std::slice::from_ref(site), config.os, seed);
    let visit = catch_unwind(AssertUnwindSafe(|| {
        Browser::new(&mut world, config, seed).visit_faulted(site, faults)
    }));
    let (end, events) = match visit {
        Ok(result) => (Some(result.outcome), result.capture.events),
        Err(payload) => {
            let salvaged = payload
                .downcast::<SalvagedVisit>()
                .expect("only injected panics");
            (None, salvaged.events)
        }
    };
    let h = header(&crawl, site, config.os, end);
    encode(&VisitRecord {
        crawl: crawl.clone(),
        domain: h.domain.to_string(),
        rank: h.rank,
        malicious_category: h.malicious_category,
        os: h.os,
        outcome: h.outcome,
        loaded_at_ms: h.loaded_at_ms,
        events,
    })
    .to_vec()
}

/// The crawl's path: a reused world, events streamed into an encoder.
fn streamed_record(
    world: &mut World,
    encoder: &mut VisitEncoder,
    site: &WebSite,
    config: BrowserConfig,
    seed: u64,
    faults: &VisitFaults,
) -> Vec<u8> {
    let crawl = CrawlId::top2020();
    world.reset_for(site);
    encoder.clear();
    let end = catch_unwind(AssertUnwindSafe(|| {
        Browser::new(world, config, seed).visit_with(
            site,
            faults,
            &mut NetLogger::with_sink(&mut *encoder),
        )
    }))
    .ok();
    encoder
        .finish(&header(&crawl, site, config.os, end))
        .to_vec()
}

/// Stream a sequence of `(site index, fault bits)` visits through one
/// reused world and encoder and compare each with the owned oracle.
/// Bits 0–3 inject a DNS flap, a reset, a truncated capture and a
/// panic; values of 16 and up inject nothing, so most visits run their
/// whole page.
fn check_sequence(
    picks: &[(usize, u8)],
    os: Os,
    profile: CrawlerProfile,
    pna: PnaMode,
    crawl_internal: bool,
    seed: u64,
) {
    quiet_salvage_panics();
    let sites = sites();
    let config = BrowserConfig {
        pna,
        crawl_internal,
        profile,
        ..BrowserConfig::paper(os)
    };
    // One world and one encoder for the whole sequence, as a worker
    // keeps them for its whole campaign.
    let mut world = World::build(&[], os, seed);
    let mut encoder = VisitEncoder::new();
    for &(index, fault_bits) in picks {
        let site = &sites[index % sites.len()];
        let fault_bits = if fault_bits < 16 { fault_bits } else { 0 };
        let faults = VisitFaults {
            dns_flap: fault_bits & 1 != 0,
            connection_reset: fault_bits & 2 != 0,
            truncate_capture: fault_bits & 4 != 0,
            panic: fault_bits & 8 != 0,
        };
        let streamed = streamed_record(&mut world, &mut encoder, site, config, seed, &faults);
        let owned = owned_record(site, config, seed, &faults);
        prop_assert_eq!(streamed, owned, "{} {:?}", site.domain.as_str(), faults);
    }
}

fn profile_of(i: usize) -> CrawlerProfile {
    CrawlerProfile::ALL[i % CrawlerProfile::ALL.len()]
}

fn pna_of(i: usize) -> PnaMode {
    [
        PnaMode::Off,
        PnaMode::EnforceNoOptIn,
        PnaMode::EnforceNativeOptIn,
        PnaMode::EnforceFullOptIn,
    ][i % 4]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn streamed_records_equal_the_owned_encoding(
        picks in proptest::collection::vec((0usize..20_000, 0u8..64), 1..40),
        os in 0usize..3,
        profile in 0usize..4,
        pna in 0usize..4,
        crawl_internal in any::<bool>(),
        seed in 0u64..1_000,
    ) {
        check_sequence(&picks, Os::ALL[os], profile_of(profile), pna_of(pna), crawl_internal, seed);
    }
}

/// The deterministic sweep behind the property: every site of the
/// population once per OS, in chunks whose fault sets, profile, PNA
/// mode and deep-crawl setting cycle, so every combination is hit.
#[test]
fn every_site_streams_the_owned_encoding() {
    let n = sites().len();
    for (k, os) in Os::ALL.into_iter().enumerate() {
        let indices: Vec<usize> = (0..n).collect();
        for (c, chunk) in indices.chunks(500).enumerate() {
            let c = c + k;
            let picks: Vec<(usize, u8)> =
                chunk.iter().map(|&i| (i, ((i + k) % 64) as u8)).collect();
            check_sequence(
                &picks,
                os,
                profile_of(c),
                pna_of(c / 4),
                c % 2 == 0,
                7 + k as u64,
            );
        }
    }
}

/// The same oracle one level up: what `run_crawl`'s workers store when
/// every visit crashes (the supervisor must store the salvaged prefix
/// its encoder kept across the unwind) or loses its capture's tail.
/// Neither fault depends on the attempt number, so each stored record
/// must be the owned path's record for the site.
#[test]
fn crawled_records_carry_the_owned_salvage_and_truncation() {
    quiet_salvage_panics();
    let sites = &sites()[..400];
    let jobs: Vec<CrawlJob<'_>> = sites
        .iter()
        .map(|site| CrawlJob {
            site,
            malicious_category: None,
        })
        .collect();
    for (fault, faults) in [
        (
            Fault::WorkerPanic,
            VisitFaults {
                panic: true,
                ..VisitFaults::NONE
            },
        ),
        (
            Fault::TruncatedCapture,
            VisitFaults {
                truncate_capture: true,
                ..VisitFaults::NONE
            },
        ),
    ] {
        let mut config = CrawlConfig::paper(CrawlId::top2020(), Os::Windows, 5);
        config.workers = 2;
        config.faults = FaultPlan::none(5).with_rate(fault, 1.0);
        let store = TelemetryStore::new();
        run_crawl(&jobs, &config, &store);
        // The crawler's browser settings are the paper's.
        let browser = BrowserConfig::paper(Os::Windows);
        for site in sites {
            let stored = store
                .get(&config.crawl, site.domain.as_str(), Os::Windows)
                .expect("every site stored");
            let owned = owned_record(site, browser, 5, &faults);
            assert_eq!(
                encode(&stored).to_vec(),
                owned,
                "{fault:?} {}",
                site.domain.as_str()
            );
        }
    }
}
