//! The `knocktalk` binary rejects input it would otherwise misread:
//! each case fails with a non-zero exit and a message naming the bad
//! input, before any work starts.

use std::process::Command;

fn knocktalk(args: &str) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_knocktalk"))
        .args(args.split_whitespace())
        .output()
        .expect("knocktalk runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.success(), stderr)
}

#[test]
fn misread_input_is_an_error() {
    for (args, message) in [
        // A misspelled flag would otherwise run without a journal.
        ("health --jounral x.ktj", "unknown flag --jounral"),
        ("bias --workers 2 --bogus 1", "unknown flag --bogus"),
        // Zero workers errors everywhere instead of clamping to one.
        ("bias --workers 0", "--workers expects a positive integer"),
        ("repro --workers 0", "--workers expects a positive integer"),
        ("serve --workers 0", "--workers expects a positive integer"),
        (
            "snapshot crawl --workers 0",
            "--workers expects a positive integer",
        ),
        // Yes/no switches take only their documented values.
        ("fsck a.ktj --repair maybe", "--repair expects yes|no"),
        ("serve --storm on", "--storm expects yes|no"),
        // A resume takes its worker count from the journal.
        ("resume a.ktj --workers 2", "unknown flag --workers"),
        ("repro quick", "unexpected argument \"quick\""),
        ("fsck a.ktj b.ktj", "unexpected argument \"b.ktj\""),
        ("snapshot bogus", "unknown snapshot subcommand"),
        ("bogus", "unknown command"),
        ("crawl --kill-frames 3", "need --journal"),
        (
            "snapshot crawl --resume yes --journal a.ktj --kill-frames 3",
            "only apply to a new journal",
        ),
    ] {
        let (ok, stderr) = knocktalk(args);
        assert!(!ok, "`knocktalk {args}` must fail");
        assert!(
            stderr.contains(message),
            "`knocktalk {args}`: expected {message:?} in {stderr:?}"
        );
    }
}

#[test]
fn help_succeeds() {
    for help in ["help", "--help", "-h"] {
        assert!(knocktalk(help).0, "`knocktalk {help}` succeeds");
    }
}
