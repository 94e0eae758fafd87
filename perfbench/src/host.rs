//! The host record written beside every run.
//!
//! A fixed calibration kernel that runs no workspace code (a UTF-8
//! validation scan and a scalar FNV-1a hash over a fixed buffer, the
//! two classes of hot loop the workloads spend their time in), plus
//! scheduler counters for the timed part: the main thread's run and
//! run-queue wait from `/proc/self/schedstat`, the process CPU time
//! from `/proc/self/stat`, and host-wide steal from `/proc/stat`.
//!
//! These numbers are recorded only. No metric is ever divided or
//! scaled by them; they exist so a change in host speed between two
//! sets of runs can be told apart from a change in the program.

use std::hint::black_box;
use std::time::Instant;

/// Calibration buffer: 256 KiB of printable ASCII, the size of one
/// checkpoint JSON document.
const CALIB_BYTES: usize = 256 * 1024;

/// Kernel throughputs, GB/s (median of five repetitions each).
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// `std::str::from_utf8` over the buffer.
    pub utf8_gbps: f64,
    /// FNV-1a 64 over the buffer.
    pub fnv_gbps: f64,
}

fn calib_buffer() -> Vec<u8> {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    (0..CALIB_BYTES)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            b' ' + (x % 95) as u8
        })
        .collect()
}

/// Run the calibration kernel (about 50 ms).
pub fn calibrate() -> Calibration {
    let buf = calib_buffer();
    let rate = |reps: usize, f: &dyn Fn(&[u8]) -> u64| {
        let rates: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                let mut acc = 0u64;
                for _ in 0..reps {
                    acc = acc.wrapping_add(f(black_box(&buf)));
                }
                black_box(acc);
                (reps * buf.len()) as f64 / t.elapsed().as_secs_f64() / 1e9
            })
            .collect();
        crate::median(&rates)
    };
    Calibration {
        utf8_gbps: rate(64, &|b| {
            std::str::from_utf8(b).map_or(0, |s| s.len() as u64)
        }),
        fnv_gbps: rate(4, &|b| crate::fnv(b, crate::FNV_SEED)),
    }
}

/// Scheduler counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedSample {
    /// Main-thread on-CPU ns (`/proc/self/schedstat` field 1).
    pub run_ns: u64,
    /// Main-thread run-queue wait ns (field 2).
    pub wait_ns: u64,
    /// Process user+system CPU, clock ticks (`/proc/self/stat`).
    pub cpu_ticks: u64,
    /// Host-wide steal, clock ticks (`/proc/stat` `cpu` line).
    pub steal_ticks: u64,
}

/// Clock ticks per second of `/proc` CPU counters (USER_HZ).
const USER_HZ: f64 = 100.0;

impl SchedSample {
    /// Read the counters now. Missing files read as zeros.
    pub fn now() -> SchedSample {
        let schedstat = std::fs::read_to_string("/proc/self/schedstat").unwrap_or_default();
        let mut it = schedstat.split_whitespace().map(|f| f.parse().unwrap_or(0));
        let run_ns = it.next().unwrap_or(0);
        let wait_ns = it.next().unwrap_or(0);
        // Fields after the parenthesised command name: utime is the
        // 14th field overall, stime the 15th.
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
        let fields: Vec<u64> = after
            .split_whitespace()
            .map(|f| f.parse().unwrap_or(0))
            .collect();
        let cpu_ticks = fields.get(11).copied().unwrap_or(0) + fields.get(12).copied().unwrap_or(0);
        let host = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let steal_ticks = host
            .lines()
            .next()
            .and_then(|l| l.split_whitespace().nth(8))
            .and_then(|f| f.parse().ok())
            .unwrap_or(0);
        SchedSample {
            run_ns,
            wait_ns,
            cpu_ticks,
            steal_ticks,
        }
    }
}

/// The record printed beside a run's result.
#[derive(Debug, Clone, Copy)]
pub struct HostRecord {
    /// Kernel before the timed part.
    pub before: Calibration,
    /// Kernel after the timed part.
    pub after: Calibration,
    /// Counters at the start of the timed part.
    pub start: SchedSample,
    /// Counters at its end.
    pub end: SchedSample,
    /// Threads the benchmark caps every pool at.
    pub nproc: usize,
}

impl HostRecord {
    /// One JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"calib_utf8_gbps_before\":{:.3},\"calib_utf8_gbps_after\":{:.3},\
             \"calib_fnv_gbps_before\":{:.3},\"calib_fnv_gbps_after\":{:.3},\
             \"main_run_s\":{:.3},\"main_wait_s\":{:.3},\"process_cpu_s\":{:.2},\"host_steal_s\":{:.2}}}",
            self.nproc,
            self.before.utf8_gbps,
            self.after.utf8_gbps,
            self.before.fnv_gbps,
            self.after.fnv_gbps,
            (self.end.run_ns - self.start.run_ns) as f64 / 1e9,
            (self.end.wait_ns - self.start.wait_ns) as f64 / 1e9,
            (self.end.cpu_ticks - self.start.cpu_ticks) as f64 / USER_HZ,
            (self.end.steal_ticks.saturating_sub(self.start.steal_ticks)) as f64 / USER_HZ,
        )
    }
}
