//! The stage profiler: real-time/allocation breakdown per pipeline
//! stage, plus the opt-in counting global allocator it reads from.
//!
//! This is the one corner of kt-trace where `Instant::now()` is
//! allowed: profiler output is diagnostic, rendered for humans, and
//! never byte-compared across runs — the determinism contract covers
//! the metrics registry and spans, not wall-clock profiles. A stage may
//! also carry a simulated-clock annotation so the table shows both
//! clocks side by side.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

/// Bump the live-bytes gauge and ratchet the peak watermark.
fn count_live(delta: usize) {
    let live = LIVE_BYTES.fetch_add(delta as u64, Ordering::Relaxed) + delta as u64;
    // `fetch_max` keeps the watermark monotone under racing threads; a
    // momentarily stale `live` only ever *under*-reports the peak by
    // bytes another thread freed in the same instant.
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

fn uncount_live(delta: usize) {
    // Saturating: a binary can install the allocator after some early
    // allocations, whose frees would otherwise underflow the gauge.
    let _ = LIVE_BYTES.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |live| {
        Some(live.saturating_sub(delta as u64))
    });
}

/// A pass-through [`System`] allocator that counts every allocation.
/// Install it per-binary:
///
/// ```ignore
/// #[global_allocator]
/// static GLOBAL: kt_trace::CountingAllocator = kt_trace::CountingAllocator;
/// ```
///
/// Reallocs and zeroed allocations count too. Frees don't reduce the
/// cumulative traffic counters, but they do reduce the live-bytes
/// gauge behind [`live_bytes`]/[`peak_bytes`] — that pair is the
/// flat-memory instrument: peak resident heap, not total churn.
/// Binaries that don't install it still link and run —
/// [`alloc_counts`] just stays at zero.
pub struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        count_live(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        uncount_live(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        uncount_live(layout.size());
        count_live(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        count_live(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
}

/// Cumulative (allocations, heap bytes) since process start — zeros
/// unless [`CountingAllocator`] is installed as the global allocator.
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// Currently-live heap bytes (allocated minus freed) — zero unless
/// [`CountingAllocator`] is installed.
pub fn live_bytes() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// High-water mark of [`live_bytes`] since process start. This is the
/// number the flat-memory gates compare against a ceiling: mmap-backed
/// segments never appear in it, resident ones do.
pub fn peak_bytes() -> u64 {
    PEAK_BYTES.load(Ordering::Relaxed)
}

/// Reset the peak watermark to the current live level, so a bench can
/// measure the peak of one phase in isolation.
pub fn reset_peak_bytes() {
    PEAK_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Run `f`, returning its result plus the (allocations, heap bytes)
/// performed while it ran. The counters are process-global, so
/// concurrent allocation on other threads is attributed here too —
/// fine for whole-pipeline stages, which is what the profiler wraps.
pub fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (a0, b0) = alloc_counts();
    let value = f();
    let (a1, b1) = alloc_counts();
    (value, a1 - a0, b1 - b0)
}

/// One profiled stage.
#[derive(Debug, Clone)]
pub struct StageRecord {
    /// Stage label, e.g. `"crawl:T1/Windows"`.
    pub name: String,
    /// Real elapsed seconds.
    pub real_secs: f64,
    /// Allocations during the stage.
    pub allocs: u64,
    /// Heap bytes requested during the stage.
    pub alloc_bytes: u64,
    /// Work-unit count (sites, records, frames…), if annotated.
    pub elements: Option<u64>,
    /// Simulated-clock duration, if the stage has one.
    pub sim_ms: Option<u64>,
}

/// Wraps pipeline stages, recording real time + allocator traffic for
/// each, and renders the per-stage breakdown as an aligned text table
/// in the repo's paper-table style.
#[derive(Debug, Default)]
pub struct StageProfiler {
    stages: Vec<StageRecord>,
}

impl StageProfiler {
    /// An empty profiler.
    pub fn new() -> StageProfiler {
        StageProfiler::default()
    }

    /// Run `f` as a named stage, recording elapsed time and allocator
    /// traffic.
    pub fn run<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let (value, allocs, alloc_bytes) = count_allocs(f);
        self.stages.push(StageRecord {
            name: name.to_string(),
            real_secs: t0.elapsed().as_secs_f64(),
            allocs,
            alloc_bytes,
            elements: None,
            sim_ms: None,
        });
        value
    }

    /// Attach a work-unit count to the most recent stage.
    pub fn annotate_elements(&mut self, elements: u64) {
        if let Some(last) = self.stages.last_mut() {
            last.elements = Some(elements);
        }
    }

    /// Attach a simulated-clock duration to the most recent stage.
    pub fn annotate_sim_ms(&mut self, sim_ms: u64) {
        if let Some(last) = self.stages.last_mut() {
            last.sim_ms = Some(sim_ms);
        }
    }

    /// Append `other`'s stages after this profiler's.
    pub fn append(&mut self, mut other: StageProfiler) {
        self.stages.append(&mut other.stages);
    }

    /// The recorded stages, in execution order.
    pub fn stages(&self) -> &[StageRecord] {
        &self.stages
    }

    /// Render the breakdown as an aligned table with a totals row.
    pub fn render_table(&self) -> String {
        let header = ["stage", "real_s", "sim_s", "elements", "allocs", "alloc_mb"];
        let fmt_opt = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
        let mut rows: Vec<[String; 6]> = self
            .stages
            .iter()
            .map(|s| {
                [
                    s.name.clone(),
                    format!("{:.3}", s.real_secs),
                    s.sim_ms
                        .map_or_else(|| "-".to_string(), |ms| format!("{:.1}", ms as f64 / 1e3)),
                    fmt_opt(s.elements),
                    s.allocs.to_string(),
                    format!("{:.2}", s.alloc_bytes as f64 / 1e6),
                ]
            })
            .collect();
        let total_real: f64 = self.stages.iter().map(|s| s.real_secs).sum();
        let total_allocs: u64 = self.stages.iter().map(|s| s.allocs).sum();
        let total_bytes: u64 = self.stages.iter().map(|s| s.alloc_bytes).sum();
        rows.push([
            "total".to_string(),
            format!("{total_real:.3}"),
            "-".to_string(),
            "-".to_string(),
            total_allocs.to_string(),
            format!("{:.2}", total_bytes as f64 / 1e6),
        ]);

        let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
        for row in &rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        let render_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                if i == 0 {
                    line.push_str(&format!("{cell:<w$}"));
                } else {
                    line.push_str(&format!("{cell:>w$}"));
                }
            }
            line.trim_end().to_string()
        };
        let header_cells: Vec<String> = header.iter().map(|h| h.to_string()).collect();
        let mut out = render_row(&header_cells);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        let n = rows.len();
        for (i, row) in rows.iter().enumerate() {
            if i + 1 == n {
                out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
                out.push('\n');
            }
            out.push_str(&render_row(row.as_slice()));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiler_records_stage_results_and_annotations() {
        let mut prof = StageProfiler::new();
        let v = prof.run("crawl:T1/Linux", || 40 + 2);
        assert_eq!(v, 42);
        prof.annotate_elements(2_000);
        prof.annotate_sim_ms(42_000);
        assert_eq!(prof.stages().len(), 1);
        let s = &prof.stages()[0];
        assert_eq!(s.name, "crawl:T1/Linux");
        assert_eq!(s.elements, Some(2_000));
        assert_eq!(s.sim_ms, Some(42_000));
        assert!(s.real_secs >= 0.0);
    }

    #[test]
    fn table_has_header_rule_rows_and_total() {
        let mut prof = StageProfiler::new();
        prof.run("alpha", || ());
        prof.annotate_elements(10);
        prof.run("beta", || ());
        let table = prof.render_table();
        let lines: Vec<&str> = table.lines().collect();
        assert!(lines[0].starts_with("stage"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines.iter().any(|l| l.starts_with("alpha")));
        assert!(lines.iter().any(|l| l.starts_with("beta")));
        assert!(lines.last().expect("rows").starts_with("total"));
    }

    #[test]
    fn live_and_peak_gauges_are_consistent() {
        // Unit tests run without the counting allocator installed, so
        // only this test touches the gauges (keep it that way — the
        // statics are process-global). Exercise the accounting
        // directly: a live bump must ratchet the watermark, a free
        // must not lower it, and over-freeing saturates at zero.
        reset_peak_bytes();
        assert_eq!(peak_bytes(), live_bytes());
        count_live(4096);
        assert!(peak_bytes() >= live_bytes());
        let peak = peak_bytes();
        uncount_live(4096);
        assert_eq!(peak_bytes(), peak, "frees never lower the watermark");
        assert!(live_bytes() <= peak);
        uncount_live(usize::MAX);
        assert_eq!(live_bytes(), 0, "over-free saturates instead of wrapping");
        reset_peak_bytes();
    }

    #[test]
    fn count_allocs_is_monotonic_and_nonpanicking() {
        // The counting allocator is not installed in unit tests, so the
        // deltas are zero — the contract is just that the plumbing works.
        let (v, allocs, bytes) = count_allocs(|| vec![1u8; 128].len());
        assert_eq!(v, 128);
        let (a, b) = alloc_counts();
        assert!(allocs <= a || a == 0);
        assert!(bytes <= b || b == 0);
    }
}
