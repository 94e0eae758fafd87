//! Minimal hand-rolled option parsing: `--key value` flags plus bare
//! positional arguments, collected in order. Each subcommand declares
//! the flags it accepts and how many positional arguments it takes;
//! anything else is an error rather than silently ignored.

use std::collections::BTreeMap;

/// Parsed command-line options.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Options {
    flags: BTreeMap<String, String>,
    positional: Vec<String>,
}

impl Options {
    /// Parse an argument list for a command that accepts the flags in
    /// `accepted` (groups of space-separated flag names, each with an
    /// optional `=VALUE` usage hint) and at most `max_positional`
    /// positional arguments. Every `--key` consumes the following
    /// token as its value; everything else is positional.
    pub fn parse(
        args: &[String],
        accepted: &[&str],
        max_positional: usize,
    ) -> Result<Options, String> {
        let mut opts = Options::default();
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            if let Some(key) = arg.strip_prefix("--") {
                if key.is_empty() {
                    return Err("empty flag name".to_string());
                }
                if !accepted
                    .iter()
                    .flat_map(|group| group.split_whitespace())
                    .any(|flag| flag.split('=').next() == Some(key))
                {
                    return Err(format!("unknown flag --{key}"));
                }
                let value = iter
                    .next()
                    .ok_or_else(|| format!("flag --{key} needs a value"))?;
                if opts.flags.insert(key.to_string(), value.clone()).is_some() {
                    return Err(format!("flag --{key} given twice"));
                }
            } else if opts.positional.len() < max_positional {
                opts.positional.push(arg.clone());
            } else {
                return Err(format!("unexpected argument {arg:?}"));
            }
        }
        Ok(opts)
    }

    /// A string flag.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// A parsed numeric flag, with a default.
    pub fn get_u64(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("flag --{key} expects an integer, got {v:?}")),
        }
    }

    /// A positive count flag (`--workers`, `--tenants`, …), if given.
    /// Zero is an error, never a silent clamp.
    pub fn positive(&self, key: &str) -> Result<Option<usize>, String> {
        self.flags
            .get(key)
            .map(|v| {
                v.parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("flag --{key} expects a positive integer, got {v:?}"))
            })
            .transpose()
    }

    /// A `--key yes|no` switch, with a default. Any other value is an
    /// error.
    pub fn switch(&self, key: &str, default: bool) -> Result<bool, String> {
        match self.get(key) {
            None => Ok(default),
            Some("yes") => Ok(true),
            Some("no") => Ok(false),
            Some(other) => Err(format!("flag --{key} expects yes|no, got {other:?}")),
        }
    }

    /// Positional arguments in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: &str = "seed=N scale workers repair=yes|no";

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    fn parse(s: &str) -> Result<Options, String> {
        Options::parse(&argv(s), &[FLAGS], 2)
    }

    #[test]
    fn flags_and_positionals() {
        let opts = parse("file.json --seed 42 --scale quick extra").unwrap();
        assert_eq!(opts.get("seed"), Some("42"));
        assert_eq!(opts.get("scale"), Some("quick"));
        assert_eq!(opts.positional(), &["file.json", "extra"]);
        assert_eq!(opts.get_u64("seed", 0).unwrap(), 42);
        assert_eq!(opts.get_u64("missing", 7).unwrap(), 7);
    }

    #[test]
    fn errors() {
        assert!(parse("--seed").is_err(), "missing value");
        assert!(parse("--seed 1 --seed 2").is_err(), "dup");
        assert!(
            parse("--seed abc").unwrap().get_u64("seed", 0).is_err(),
            "non-numeric"
        );
    }

    #[test]
    fn empty_input() {
        let opts = Options::parse(&[], &[], 0).unwrap();
        assert!(opts.positional().is_empty());
        assert_eq!(opts.get("anything"), None);
    }

    #[test]
    fn undeclared_flags_and_extra_positionals_are_rejected() {
        // A misspelled flag must not run the command without it.
        let err = parse("--jounral x.ktj").unwrap_err();
        assert_eq!(err, "unknown flag --jounral");
        assert!(parse("--bogus 1").is_err());
        assert!(Options::parse(&argv("--seed 1"), &[], 0).is_err());
        let err = Options::parse(&argv("a b"), &[FLAGS], 1).unwrap_err();
        assert_eq!(err, "unexpected argument \"b\"");
    }

    #[test]
    fn counts_must_be_positive() {
        assert_eq!(parse("").unwrap().positive("workers").unwrap(), None);
        assert_eq!(
            parse("--workers 3").unwrap().positive("workers").unwrap(),
            Some(3)
        );
        for bad in ["0", "-1", "two"] {
            let opts = parse(&format!("--workers {bad}")).unwrap();
            assert!(opts.positive("workers").is_err(), "--workers {bad}");
        }
    }

    #[test]
    fn switches_take_only_yes_or_no() {
        let opts = parse("--repair yes").unwrap();
        assert!(opts.switch("repair", false).unwrap());
        assert!(!parse("--repair no")
            .unwrap()
            .switch("repair", true)
            .unwrap());
        assert!(parse("").unwrap().switch("repair", true).unwrap());
        for bad in ["maybe", "true", "1", "on"] {
            let opts = parse(&format!("--repair {bad}")).unwrap();
            assert!(opts.switch("repair", false).is_err(), "--repair {bad}");
        }
    }
}
