//! The flag cursor the `serve`, `resilience`, `scale` and `attribute`
//! subcommands parse their arguments with.
//!
//! A flag either stands alone (`--smoke`) or takes the next argument as
//! its value. Every malformed input is an error string for `corp-exp` to
//! print before exiting 2, never a panic, and reads the same whichever
//! subcommand met it.

use std::str::FromStr;

/// A cursor over the arguments following a subcommand's name.
pub(crate) struct Flags<'a> {
    subcommand: &'static str,
    args: std::slice::Iter<'a, String>,
}

impl<'a> Flags<'a> {
    pub(crate) fn new(subcommand: &'static str, args: &'a [String]) -> Self {
        Flags {
            subcommand,
            args: args.iter(),
        }
    }

    /// The next flag, skipping the global `corp-exp` flags (`--fast`,
    /// `--json`) that may trail the subcommand.
    pub(crate) fn next_flag(&mut self) -> Option<&'a str> {
        self.args
            .by_ref()
            .map(String::as_str)
            .find(|arg| !matches!(*arg, "--fast" | "--json"))
    }

    /// The argument after `flag`, whatever it is.
    pub(crate) fn value(&mut self, flag: &str) -> Result<&'a str, String> {
        self.args
            .next()
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} requires a value"))
    }

    /// `flag`'s value parsed as a `T`; `expected` names a `T` in the error.
    pub(crate) fn parsed<T: FromStr>(&mut self, flag: &str, expected: &str) -> Result<T, String> {
        self.value(flag)?
            .parse()
            .map_err(|_| format!("invalid {flag}: expected {expected}"))
    }

    /// `flag`'s value as a count of at least `min`.
    pub(crate) fn count(&mut self, flag: &str, min: usize) -> Result<usize, String> {
        let n: usize = self.parsed(flag, "a count")?;
        if n < min {
            return Err(format!("invalid {flag}: must be at least {min}"));
        }
        Ok(n)
    }

    /// The error for a flag the subcommand does not have.
    pub(crate) fn unknown(&self, flag: &str) -> String {
        format!("unknown {} flag `{flag}`", self.subcommand)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{resilience::ResilienceArgs, scale::ScaleArgs, serve::ServeArgs};

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn cursor_skips_globals_and_reads_values_and_counts() {
        let args = strings(&[
            "--fast", "--smoke", "--json", "--jobs", "--fast", "0", "0", "x", "--vms",
        ]);
        let mut flags = Flags::new("test", &args);
        assert_eq!(flags.next_flag(), Some("--smoke"));
        assert_eq!(flags.next_flag(), Some("--jobs"));
        // In value position an argument is a value, whatever it says.
        assert_eq!(flags.value("--jobs"), Ok("--fast"));
        assert_eq!(flags.count("--jobs", 0), Ok(0));
        let below_min = flags.count("--vms", 1).unwrap_err();
        assert_eq!(below_min, "invalid --vms: must be at least 1");
        let not_a_number = flags.count("--vms", 1).unwrap_err();
        assert_eq!(not_a_number, "invalid --vms: expected a count");
        assert_eq!(flags.next_flag(), Some("--vms"));
        assert_eq!(flags.value("--vms").unwrap_err(), "--vms requires a value");
        assert_eq!(flags.next_flag(), None);
        assert_eq!(flags.unknown("--bogus"), "unknown test flag `--bogus`");
    }

    #[test]
    fn every_subcommand_rejects_the_same_malformed_flags() {
        type Parse = fn(&[String]) -> Result<(), String>;
        let subcommands: [(&str, Parse); 3] = [
            ("serve", |a| ServeArgs::parse(a).map(drop)),
            ("resilience", |a| ResilienceArgs::parse(a).map(drop)),
            ("scale", |a| ScaleArgs::parse(a).map(drop)),
        ];
        let malformed: [(&[&str], &str); 7] = [
            (&["--jobs"], "--jobs requires a value"),
            (&["--seed"], "--seed requires a value"),
            (&["--seed", "0"], "non-zero"),
            (&["--seed", "x"], "invalid --seed"),
            (&["--jobs", "many"], "invalid --jobs: expected a count"),
            (&["--shards", "0"], "invalid --shards: must be at least 1"),
            (&["--shards", "-2"], "invalid --shards: expected a count"),
        ];
        for (name, parse) in subcommands {
            for (args, fragment) in malformed {
                let err = parse(&strings(args)).expect_err(name);
                assert!(err.contains(fragment), "{name} {args:?}: {err}");
            }
            let err = parse(&strings(&["--json", "--bogus"])).unwrap_err();
            assert_eq!(err, format!("unknown {name} flag `--bogus`"));
            // The fan-out width is `CORP_THREADS`'s alone.
            let err = parse(&strings(&["--width", "2"])).unwrap_err();
            assert_eq!(err, format!("unknown {name} flag `--width`"));
            assert_eq!(parse(&strings(&["--fast", "--smoke", "--json"])), Ok(()));
        }
    }
}
