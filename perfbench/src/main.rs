//! `perfbench --workload <study|study_journal> --seed <n>
//! --seconds <n> --trace <0|1>`
//!
//! Untraced (`--trace 0`): sets the workload up, runs it for
//! `--seconds`, checks every output against its oracle and prints the
//! end-to-end metrics. Traced (`--trace 1`): runs the per-layer probe
//! on the same seed and prints the per-layer metrics. The last line of
//! standard output is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}`.

use std::path::Path;
use std::process::ExitCode;

use perfbench::host::{calibrate, HostRecord};
use perfbench::{nproc, RunConfig, RunOutput, Workload};

#[global_allocator]
static GLOBAL: knock_talk::trace::CountingAllocator = knock_talk::trace::CountingAllocator;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn result_json(out: &RunOutput) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.tally.failed == 0,
        out.tally.attempted,
        out.tally.failed,
        metrics.join(",")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workdir = Path::new(env!("CARGO_MANIFEST_DIR")).join(".work");
    if let Err(e) = std::fs::create_dir_all(&workdir) {
        eprintln!("perfbench: creating {}: {e}", workdir.display());
        return ExitCode::from(1);
    }
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        workers: nproc(),
        workdir,
    };
    let before = calibrate();
    let out = if args.trace {
        perfbench::probe::run(&cfg, args.workload)
    } else {
        perfbench::study::run(&cfg, args.workload == Workload::StudyJournal)
    };
    let host = HostRecord {
        before,
        after: calibrate(),
        start: out.sched.0,
        end: out.sched.1,
        nproc: cfg.workers,
    };
    let rates: Vec<String> = out.pass_rates.iter().map(|r| format!("{r:.1}")).collect();
    let setups: Vec<String> = out.setup_times.iter().map(|s| format!("{s:.4}")).collect();
    println!(
        "workload {} seed {} trace {} workers {} pass_rates [{}] setup_times [{}]",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        cfg.workers,
        rates.join(", "),
        setups.join(", ")
    );
    let counts: Vec<String> = out
        .counts
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    println!("counts {{{}}}", counts.join(","));
    println!("host {}", host.to_json());
    for note in &out.tally.notes {
        println!("failure {note}");
    }
    for m in &out.metrics {
        println!("metric {:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "metric {:<40} {:>16.4} share ({} failed of {} attempted)",
        "error_share",
        out.tally.error_share(),
        out.tally.failed,
        out.tally.attempted
    );
    println!("{}", result_json(&out));
    ExitCode::SUCCESS
}
