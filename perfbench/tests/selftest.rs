//! Self-tests of the benchmark, run through its command line:
//!
//! - the counts a run prints (visits, events, store and journal frame
//!   bytes, output digest) repeat exactly across two invocations with
//!   one seed, and change with the seed; so do the capture path's
//!   inputs (capture bytes, truncated captures), which only the traced
//!   run ingests (the traced run also checks every replayed journal
//!   against the in-memory study, and `correct` must be true);
//! - a traced run of each declared workload reports every per-layer
//!   metric `BENCHMARK.json` declares and prints the same counts as the
//!   untraced run of that workload.
//!
//! Run with `cargo test --release` from this directory; the runs are
//! serialised because each one uses every core.

use std::process::Command;
use std::sync::Mutex;

use perfbench::capture::{build_inputs, input_counts};
use serde_json::Value;

static SERIAL: Mutex<()> = Mutex::new(());

struct Run {
    counts: String,
    result: Value,
}

fn run(workload: &str, seed: u64, trace: u8) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", &trace.to_string()])
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload} seed {seed} trace {trace} failed: {out:?}"
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let counts = stdout
        .lines()
        .find_map(|l| l.strip_prefix("counts "))
        .expect("a counts line")
        .to_string();
    let last = stdout.lines().last().expect("a result line");
    let result: Value = serde_json::from_str(last).expect("the last line is JSON");
    assert_eq!(result["correct"], Value::Bool(true), "{workload}: {stdout}");
    assert_eq!(result["failed"].as_u64(), Some(0));
    assert!(result["attempted"].as_u64().unwrap_or(0) >= 1);
    Run { counts, result }
}

fn count(run: &Run, key: &str) -> u64 {
    let counts: Value = serde_json::from_str(&run.counts).expect("counts are JSON");
    counts[key]
        .as_u64()
        .unwrap_or_else(|| panic!("count {key} missing"))
}

fn metric_names(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let bench: Value =
        serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
    bench[section]
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| m["name"].as_str().expect("name").to_string())
        .collect()
}

fn assert_reports(run: &Run, names: &[String]) {
    let metrics = run.result["metrics"].as_object().expect("metrics object");
    for name in names {
        let value = metrics
            .get(name)
            .and_then(|m| m["value"].as_f64())
            .unwrap_or_else(|| panic!("metric {name} missing"));
        assert!(value.is_finite(), "{name} = {value}");
    }
    assert_eq!(metrics.len(), names.len(), "exactly the declared metrics");
}

#[test]
fn study_counts_repeat_and_follow_the_seed() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let a = run("study", 7, 0);
    let b = run("study", 7, 0);
    assert_eq!(a.counts, b.counts, "one seed, one set of counts");
    assert_reports(&a, &metric_names("end_to_end"));
    assert!(count(&a, "visits") > 90_000, "a standard-scale study");
    let c = run("study", 8, 0);
    assert_ne!(
        count(&a, "store_bytes"),
        count(&c, "store_bytes"),
        "the seed shapes the inputs"
    );
    let traced = run("study", 7, 1);
    assert_eq!(traced.counts, a.counts, "tracing changes no output");
    assert_reports(&traced, &metric_names("per_layer"));
}

#[test]
fn study_journal_counts_repeat_and_follow_the_seed() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let a = run("study_journal", 7, 0);
    let b = run("study_journal", 7, 0);
    assert_eq!(a.counts, b.counts, "one seed, one set of counts");
    assert_reports(&a, &metric_names("end_to_end"));
    assert_eq!(
        count(&a, "journal_checkpoints"),
        8,
        "the full standard-scale journal"
    );
    assert!(count(&a, "journal_frame_bytes") > 50_000_000);
    assert!(count(&a, "journal_visit_frames") >= count(&a, "visits"));
    let c = run("study_journal", 8, 0);
    assert_ne!(
        count(&a, "journal_frame_bytes"),
        count(&c, "journal_frame_bytes")
    );
    let traced = run("study_journal", 7, 1);
    assert_eq!(traced.counts, a.counts, "tracing changes no output");
    assert_reports(&traced, &metric_names("per_layer"));
}

#[test]
fn capture_inputs_repeat_and_follow_the_seed() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let workers = perfbench::nproc();
    let counts = |seed| input_counts(&build_inputs(seed, workers));
    let a = counts(7);
    assert_eq!(a, counts(7), "one seed, one set of captures");
    let get = |c: &[(&str, u64)], key: &str| c.iter().find(|(k, _)| *k == key).unwrap().1;
    let truncated = get(&a, "truncated_captures");
    assert!(truncated > 0 && truncated < get(&a, "captures"));
    assert_ne!(get(&a, "capture_bytes"), get(&counts(8), "capture_bytes"));
}
