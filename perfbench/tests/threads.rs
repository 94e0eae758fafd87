//! No pool the benchmark starts runs more threads than the host has
//! cores. A sampler thread reads `/proc/self/status` while the
//! `study_journal` workload and the capture set-up run in this process;
//! the crawl, journal, analysis and deep re-crawl pools all run inside
//! them.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use perfbench::{nproc, RunConfig};

fn threads_now() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|n| n.trim().parse().ok())
        })
        .unwrap_or(0)
}

#[test]
fn no_pool_exceeds_nproc_threads() {
    let cfg = RunConfig {
        seed: 3,
        seconds: 0.1,
        workers: nproc(),
        workdir: std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(".work"),
    };
    std::fs::create_dir_all(&cfg.workdir).unwrap();
    let done = AtomicBool::new(false);
    let peak = AtomicUsize::new(0);
    // This test's thread and the sampler.
    let baseline = std::thread::scope(|scope| {
        scope.spawn(|| {
            while !done.load(Ordering::SeqCst) {
                peak.fetch_max(threads_now(), Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        let baseline = threads_now();
        let study = perfbench::study::run(&cfg, true);
        let captures = perfbench::capture::build_inputs(cfg.seed, cfg.workers);
        done.store(true, Ordering::SeqCst);
        assert_eq!(study.tally.failed, 0);
        assert!(!captures.is_empty());
        baseline
    });
    let peak = peak.load(Ordering::SeqCst);
    assert!(
        peak > baseline,
        "the sampler saw the pools ({peak} vs {baseline})"
    );
    assert!(
        peak - baseline <= nproc(),
        "{} threads above the baseline of {baseline}, nproc is {}",
        peak - baseline,
        nproc()
    );
}
