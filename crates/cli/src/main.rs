//! `knocktalk` — the command-line interface.
//!
//! `knocktalk help` prints the usage of every subcommand. The flags
//! each one accepts are declared once, in [`commands::COMMANDS`]; an
//! unknown flag, a surplus argument, a zero count or a yes/no switch
//! given any other value is an error, never silently ignored.
//!
//! `classify` is the downstream-facing subcommand: point it at a JSON
//! capture from `chrome://net-export` (or from this library) and it
//! prints every locally-destined request plus the behaviour class the
//! site's traffic matches — the paper's §4 analysis, one file at a
//! time. Argument parsing is hand-rolled (the workspace's dependency
//! policy keeps the tree small).

use std::process::ExitCode;

mod args;
mod commands;

// Feeds `knocktalk profile`'s per-stage allocation columns; a
// pass-through to the system allocator everywhere else.
#[global_allocator]
static GLOBAL: knock_talk::trace::CountingAllocator = knock_talk::trace::CountingAllocator;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Look the subcommand up, parse its arguments against the flags it
/// declares, and run it.
fn run(argv: &[String]) -> Result<(), String> {
    let Some((command, mut rest)) = argv.split_first() else {
        commands::help();
        return Ok(());
    };
    let mut name = match command.as_str() {
        "--help" | "-h" => "help".to_string(),
        _ => command.clone(),
    };
    if command == "snapshot" {
        let (sub, tail) = rest
            .split_first()
            .ok_or("snapshot needs a subcommand: crawl | diff | gc | fsck")?;
        name = format!("snapshot {sub}");
        rest = tail;
    }
    let spec = commands::COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| match command.as_str() {
            "snapshot" => format!(
                "unknown snapshot subcommand {:?}; expected crawl | diff | gc | fsck",
                &name["snapshot ".len()..]
            ),
            _ => format!("unknown command {command:?}; try `knocktalk help`"),
        })?;
    let positional = spec.args.split_whitespace().count();
    let opts = args::Options::parse(rest, spec.flags, positional)
        .map_err(|e| format!("{e} (`knocktalk {}`; try `knocktalk help`)", spec.name))?;
    (spec.run)(&opts)
}
