//! Shared command-line parsing for `lapq`.
//!
//! The commands used to probe the raw argument list ad hoc
//! (`args.iter().any(|a| a == "--parallel")`, position-plus-one lookups for
//! valued flags). This module splits the argument vector exactly once into
//! positionals, boolean flags, and valued flags, rejecting unknown flags
//! and missing values up front so every command sees the same behavior.

use std::collections::{BTreeMap, BTreeSet};

/// Boolean flags accepted anywhere on the command line.
pub const BOOL_FLAGS: &[&str] = &["--parallel", "--cache", "--trace"];

/// Flags that consume the next argument as their value.
pub const VALUE_FLAGS: &[&str] = &[
    "--constraints",
    "--domain",
    "--metrics-json",
    "--fault-rate",
    "--fault-seed",
    "--latency-ms",
    "--timeout-ms",
    "--retry",
    "--retry-budget-ms",
    "--io-workers",
    "--batch-width",
    "--journal",
    "--journal-capacity",
    "--journal-sample",
    "--chrome-trace",
    "--feedback",
    "--out",
    "--addr",
];

/// An argument vector split into positionals and recognized flags.
///
/// `positional(0)` is the subcommand; flags may appear anywhere.
#[derive(Clone, Debug, Default)]
pub struct CliArgs {
    positionals: Vec<String>,
    flags: BTreeSet<String>,
    values: BTreeMap<String, String>,
}

impl CliArgs {
    /// Splits `args` into positionals and flags. Fails on a flag outside
    /// [`BOOL_FLAGS`]/[`VALUE_FLAGS`], a valued flag with no value, or any
    /// flag given twice — a repeated flag is always a typo or a stale
    /// shell history entry, and silently keeping the *last* occurrence
    /// (as a map insert would) runs a different configuration than the
    /// user reviewed.
    pub fn parse(args: &[String]) -> Result<CliArgs, String> {
        let mut out = CliArgs::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if BOOL_FLAGS.contains(&arg.as_str()) {
                if !out.flags.insert(arg.clone()) {
                    return Err(format!("duplicate flag {arg}"));
                }
            } else if VALUE_FLAGS.contains(&arg.as_str()) {
                let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                if out.values.insert(arg.clone(), value.clone()).is_some() {
                    return Err(format!("duplicate flag {arg}"));
                }
            } else if arg.starts_with("--") {
                return Err(format!("unknown flag {arg}"));
            } else {
                out.positionals.push(arg.clone());
            }
        }
        Ok(out)
    }

    /// The `i`-th positional argument (0 = the subcommand), if present.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(String::as_str)
    }

    /// The `i`-th positional argument, or `missing` as the error message.
    pub fn require(&self, i: usize, missing: &str) -> Result<&str, String> {
        self.positional(i).ok_or_else(|| missing.to_owned())
    }

    /// Whether the boolean flag `name` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.contains(name)
    }

    /// The value of the valued flag `name`, if given.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// The value of `name` parsed as a `u64`, if given.
    pub fn value_u64(&self, name: &str) -> Result<Option<u64>, String> {
        match self.value(name) {
            Some(raw) => raw
                .parse::<u64>()
                .map(Some)
                .map_err(|e| format!("bad {name} value: {e}")),
            None => Ok(None),
        }
    }

    /// The value of `name` parsed as an `f64`, if given.
    pub fn value_f64(&self, name: &str) -> Result<Option<f64>, String> {
        match self.value(name) {
            Some(raw) => raw
                .parse::<f64>()
                .map(Some)
                .map_err(|e| format!("bad {name} value: {e}")),
            None => Ok(None),
        }
    }

    /// Whether any of the listed valued flags was given.
    pub fn any_value(&self, names: &[&str]) -> bool {
        names.iter().any(|n| self.values.contains_key(*n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn splits_positionals_and_flags() {
        let a = CliArgs::parse(&args(&[
            "check",
            "prog.lap",
            "--parallel",
            "--constraints",
            "sigma.lap",
        ]))
        .unwrap();
        assert_eq!(a.positional(0), Some("check"));
        assert_eq!(a.positional(1), Some("prog.lap"));
        assert!(a.flag("--parallel"));
        assert!(!a.flag("--cache"));
        assert_eq!(a.value("--constraints"), Some("sigma.lap"));
    }

    #[test]
    fn flags_may_precede_positionals() {
        let a = CliArgs::parse(&args(&["--trace", "run", "p.lap", "f.lap"])).unwrap();
        assert!(a.flag("--trace"));
        assert_eq!(a.positional(0), Some("run"));
        assert_eq!(a.positional(2), Some("f.lap"));
    }

    #[test]
    fn missing_value_and_unknown_flag_fail() {
        assert!(CliArgs::parse(&args(&["run", "--domain"]))
            .unwrap_err()
            .contains("--domain needs a value"));
        assert!(CliArgs::parse(&args(&["run", "--frobnicate"]))
            .unwrap_err()
            .contains("unknown flag"));
    }

    #[test]
    fn duplicate_flags_are_a_parse_error() {
        // Regression: `--batch-width 4 --batch-width 0` used to silently
        // keep the last value; now any repeated flag fails up front.
        let err = CliArgs::parse(&args(&["run", "p.lap", "f.lap", "--batch-width", "4", "--batch-width", "0"]))
            .unwrap_err();
        assert!(err.contains("duplicate flag --batch-width"), "{err}");
        let err = CliArgs::parse(&args(&["check", "p.lap", "--trace", "--trace"])).unwrap_err();
        assert!(err.contains("duplicate flag --trace"), "{err}");
        // Same flag once is of course fine.
        assert!(CliArgs::parse(&args(&["run", "p.lap", "--batch-width", "4"])).is_ok());
    }

    #[test]
    fn u64_values_parse_or_explain() {
        let a = CliArgs::parse(&args(&["run", "--domain", "1000"])).unwrap();
        assert_eq!(a.value_u64("--domain").unwrap(), Some(1000));
        let bad = CliArgs::parse(&args(&["run", "--domain", "lots"])).unwrap();
        assert!(bad.value_u64("--domain").unwrap_err().contains("--domain"));
        assert_eq!(a.value_u64("--metrics-json").unwrap(), None);
    }
}
