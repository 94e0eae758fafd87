//! In-memory span recorder for the traced run.
//!
//! Every call the traced run makes into a layer's public function is
//! wrapped in a [`Tracer::span`]: name, start, end, parent span, the
//! allocations made during the call (kt-trace's counting allocator),
//! and an item count the caller supplies (events parsed, frames
//! replayed...). Spans stay in memory and are written out once, at the
//! end of the run. Nothing here runs in the untraced runs.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use knock_talk::trace::alloc_counts;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `browser.visit`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Allocations made while the span was open (all threads).
    pub allocs: u64,
    /// Items the call processed (caller-defined; 1 by default).
    pub items: u64,
}

/// Totals of every span sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans recorded.
    pub calls: u64,
    /// Summed wall seconds.
    pub secs: f64,
    /// Summed self seconds (duration minus time covered by children).
    pub self_secs: f64,
    /// Summed allocations.
    pub allocs: u64,
    /// Summed items.
    pub items: u64,
}

impl NameTotals {
    /// Mean µs per call.
    pub fn us_per_call(&self) -> f64 {
        self.secs * 1e6 / self.calls.max(1) as f64
    }

    /// Mean allocations per call.
    pub fn allocs_per_call(&self) -> f64 {
        self.allocs as f64 / self.calls.max(1) as f64
    }
}

/// Span recorder. Spans nest by call order: a span opened while
/// another is open becomes its child.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name` that processed one item.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.span_items(name, |t| (f(t), 1))
    }

    /// Run `f` inside a span; `f` returns its result and the number of
    /// items it processed.
    pub fn span_items<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> (T, u64),
    ) -> T {
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: 0,
            end_ns: 0,
            allocs: 0,
            items: 0,
        });
        self.open.push(index);
        let (a0, _) = alloc_counts();
        let start = self.epoch.elapsed().as_nanos() as u64;
        let (value, items) = f(self);
        let end = self.epoch.elapsed().as_nanos() as u64;
        let (a1, _) = alloc_counts();
        self.open.pop();
        let span = &mut self.spans[index as usize];
        span.start_ns = start;
        span.end_ns = end;
        span.allocs = a1 - a0;
        span.items = items;
        value
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of spans recorded so far: pass it to [`Tracer::totals_from`]
    /// to total only the spans opened after this point.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Per-name totals, self time included, of every span.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        self.totals_from(0)
    }

    /// Per-name totals of the spans opened at or after `mark`. A span's
    /// self time is its duration minus the time its direct children
    /// cover; children of one span never overlap, since spans open on
    /// one thread.
    pub fn totals_from(&self, mark: usize) -> BTreeMap<&'static str, NameTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns).skip(mark) {
            let t = out.entry(span.name).or_default();
            let dur = span.end_ns - span.start_ns;
            t.calls += 1;
            t.secs += dur as f64 / 1e9;
            t.self_secs += dur.saturating_sub(children) as f64 / 1e9;
            t.allocs += span.allocs;
            t.items += span.items;
        }
        out
    }

    /// Spans as JSON lines: a header naming the columns and the span
    /// names, then one array per span, `[id, name index, parent id or
    /// -1, start_ns, end_ns, allocs, items]`.
    pub fn to_jsonl(&self) -> String {
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        let quoted: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
        let mut out = String::with_capacity(self.spans.len() * 48);
        let _ = writeln!(
            out,
            "{{\"columns\":[\"id\",\"name\",\"parent\",\"start_ns\",\"end_ns\",\"allocs\",\"items\"],\"names\":[{}]}}",
            quoted.join(",")
        );
        for (i, s) in self.spans.iter().enumerate() {
            let name = names.binary_search(&s.name).expect("name listed");
            let parent = s.parent.map_or(-1, i64::from);
            let _ = writeln!(
                out,
                "[{i},{name},{parent},{},{},{},{}]",
                s.start_ns, s.end_ns, s.allocs, s.items
            );
        }
        out
    }

    /// Per-name self-time table, heaviest first.
    pub fn render_self_times(&self) -> String {
        let mut rows: Vec<(&'static str, NameTotals)> = self.totals().into_iter().collect();
        rows.sort_by(|a, b| b.1.self_secs.total_cmp(&a.1.self_secs));
        let mut out = format!(
            "{:<34} {:>9} {:>11} {:>11} {:>13}\n",
            "span", "calls", "total_s", "self_s", "allocs"
        );
        for (name, t) in rows {
            let _ = writeln!(
                out,
                "{name:<34} {:>9} {:>11.4} {:>11.4} {:>13}",
                t.calls, t.secs, t.self_secs, t.allocs
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_and_self_time_excludes_them() {
        let mut t = Tracer::new();
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let totals = t.totals();
        let outer = totals["outer"];
        let inner = totals["inner"];
        assert_eq!(inner.calls, 2);
        assert!(inner.secs >= 0.010);
        assert!(outer.self_secs < outer.secs - inner.secs + 1e-6);
        assert_eq!(t.to_jsonl().lines().count(), 4);
    }
}
