//! Strict command-line parsing shared by the workspace binaries and
//! `xtask`.
//!
//! [`strip_threads_flag`] takes the engine's `--threads` worker count out
//! of an argument list; [`Flags`] parses the rest: switches, typed values
//! checked by a validity predicate, and repeatable values. One strict
//! parser keeps every tool's behavior (and error messages) identical and
//! stops an unknown flag or a missing or malformed value from being
//! silently misread as another argument.

use std::str::FromStr;

/// Strips `--threads N` / `--threads=N` from `args`, applying the value via
/// [`set_threads`](crate::set_threads), and returns the remaining
/// arguments.
///
/// Returns an error message (suitable for printing next to a usage line)
/// when the flag is present but the value is missing, non-numeric, or zero.
pub fn strip_threads_flag(args: Vec<String>) -> Result<Vec<String>, String> {
    let mut rest = Vec::with_capacity(args.len());
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        let value = if arg == "--threads" {
            Some(
                iter.next()
                    .ok_or("--threads requires a worker count, e.g. --threads 8")?,
            )
        } else {
            arg.strip_prefix("--threads=").map(str::to_string)
        };
        match value {
            Some(value) => {
                let n: usize = value
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("invalid --threads value: {value}"))?;
                crate::set_threads(n);
            }
            None => rest.push(arg),
        }
    }
    Ok(rest)
}

/// Applies one occurrence of a flag, given its value (empty for a switch),
/// to the variable the flag is bound to.
type Setter<'a> = Box<dyn FnMut(&str) -> Result<(), String> + 'a>;

/// A strict parser over a fixed set of flags, each bound to the variable
/// it sets. Variables keep their defaults unless a flag overrides them; a
/// value flag given twice keeps the last value.
///
/// # Examples
///
/// ```
/// use sram_exec::cli::Flags;
///
/// let (mut gate, mut requests, mut specs) = (false, 512usize, Vec::<String>::new());
/// let args = ["--requests", "64", "--spec", "a.toml", "--gate", "--spec", "b.toml"];
/// Flags::default()
///     .switch("--gate", &mut gate)
///     .value("--requests", &mut requests, |&n| n > 0)
///     .repeated("--spec", &mut specs)
///     .parse(args.map(String::from))
///     .unwrap();
/// assert!(gate);
/// assert_eq!(requests, 64);
/// assert_eq!(specs, ["a.toml", "b.toml"]);
/// ```
#[derive(Default)]
pub struct Flags<'a> {
    /// `(name, takes a value, setter)` per bound flag.
    flags: Vec<(&'static str, bool, Setter<'a>)>,
}

impl<'a> Flags<'a> {
    /// Binds the switch `name`, which sets `target` to `true`.
    pub fn switch(mut self, name: &'static str, target: &'a mut bool) -> Self {
        let set = move |_: &str| {
            *target = true;
            Ok(())
        };
        self.flags.push((name, false, Box::new(set)));
        self
    }

    /// Binds `name VALUE`, which parses `VALUE` into `target` and rejects
    /// it unless `valid` accepts it.
    pub fn value<T: FromStr + 'a>(
        self,
        name: &'static str,
        target: &'a mut T,
        valid: fn(&T) -> bool,
    ) -> Self {
        self.bind(name, move |value| {
            *target = parse_value(name, value, valid)?;
            Ok(())
        })
    }

    /// Binds `name VALUE` to a setting with no default: `target` becomes
    /// `Some` of the parsed value, which `valid` must accept.
    pub fn optional<T: FromStr + 'a>(
        self,
        name: &'static str,
        target: &'a mut Option<T>,
        valid: fn(&T) -> bool,
    ) -> Self {
        self.bind(name, move |value| {
            *target = Some(parse_value(name, value, valid)?);
            Ok(())
        })
    }

    /// Binds the repeatable `name VALUE`: every occurrence appends its
    /// parsed value to `target`.
    pub fn repeated<T: FromStr + 'a>(self, name: &'static str, target: &'a mut Vec<T>) -> Self {
        self.bind(name, move |value| {
            target.push(parse_value(name, value, |_| true)?);
            Ok(())
        })
    }

    fn bind(
        mut self,
        name: &'static str,
        set: impl FnMut(&str) -> Result<(), String> + 'a,
    ) -> Self {
        self.flags.push((name, true, Box::new(set)));
        self
    }

    /// Applies `args` in order. Returns an error message (suitable for
    /// printing next to a usage line) on the first unknown argument,
    /// missing value, or value that fails to parse or validate.
    pub fn parse(mut self, args: impl IntoIterator<Item = String>) -> Result<(), String> {
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let (_, takes_value, set) = self
                .flags
                .iter_mut()
                .find(|(name, ..)| *name == arg)
                .ok_or_else(|| format!("unknown argument: {arg}"))?;
            let value = if *takes_value {
                args.next()
                    .ok_or_else(|| format!("{arg} requires a value"))?
            } else {
                String::new()
            };
            set(&value)?;
        }
        Ok(())
    }
}

fn parse_value<T: FromStr>(name: &str, value: &str, valid: fn(&T) -> bool) -> Result<T, String> {
    value
        .parse()
        .ok()
        .filter(valid)
        .ok_or_else(|| format!("invalid {name} value: {value}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn strips_flag_and_sets_threads() {
        let _gate = crate::test_gate();
        let rest = strip_threads_flag(args(&["quick", "--threads", "3", "fig5"])).unwrap();
        assert_eq!(rest, args(&["quick", "fig5"]));
        assert_eq!(crate::effective_threads(), 3);
        let rest = strip_threads_flag(args(&["--threads=5"])).unwrap();
        assert!(rest.is_empty());
        assert_eq!(crate::effective_threads(), 5);
        crate::clear_threads();
    }

    #[test]
    fn passes_through_unrelated_args() {
        let rest = strip_threads_flag(args(&["1000", "fig7"])).unwrap();
        assert_eq!(rest, args(&["1000", "fig7"]));
    }

    #[test]
    fn rejects_missing_zero_and_garbage_values() {
        assert!(strip_threads_flag(args(&["--threads"])).is_err());
        assert!(strip_threads_flag(args(&["--threads", "0"])).is_err());
        assert!(strip_threads_flag(args(&["--threads=zippy"])).is_err());
    }

    #[test]
    fn flags_reject_an_unknown_flag() {
        let mut gate = false;
        let err = Flags::default()
            .switch("--gate", &mut gate)
            .parse(args(&["--gate", "--bogus"]))
            .unwrap_err();
        assert_eq!(err, "unknown argument: --bogus");
    }

    #[test]
    fn flags_reject_a_missing_value() {
        let mut requests = 512usize;
        let err = Flags::default()
            .value("--requests", &mut requests, |&n| n > 0)
            .parse(args(&["--requests"]))
            .unwrap_err();
        assert_eq!(err, "--requests requires a value");
    }

    #[test]
    fn flags_reject_values_the_predicate_refuses() {
        for bad in ["0", "-3", "many"] {
            let mut requests = 512usize;
            let err = Flags::default()
                .value("--requests", &mut requests, |&n| n > 0)
                .parse(args(&["--requests", bad]))
                .unwrap_err();
            assert_eq!(err, format!("invalid --requests value: {bad}"));
        }
        let mut floor = None;
        assert!(Flags::default()
            .optional("--min-speedup", &mut floor, |x: &f64| *x > 0.0
                && x.is_finite())
            .parse(args(&["--min-speedup", "inf"]))
            .is_err());
        assert_eq!(floor, None);
    }

    #[test]
    fn flags_keep_defaults_and_the_last_repeated_value() {
        let (mut seed, mut report, mut chaos) = (7u64, None::<String>, false);
        Flags::default()
            .value("--seed", &mut seed, |_| true)
            .optional("--report", &mut report, |_| true)
            .switch("--chaos", &mut chaos)
            .parse(args(&["--seed", "1", "--seed", "2"]))
            .unwrap();
        assert_eq!((seed, report, chaos), (2, None, false));
    }

    #[test]
    fn repeated_flags_accumulate_in_order() {
        let mut specs: Vec<std::path::PathBuf> = Vec::new();
        Flags::default()
            .repeated("--spec", &mut specs)
            .parse(args(&["--spec", "a.toml", "--spec", "b.toml"]))
            .unwrap();
        assert_eq!(specs, ["a.toml", "b.toml"].map(std::path::PathBuf::from));
    }

    #[test]
    fn threads_are_stripped_and_applied_before_the_flags_parse() {
        let _gate = crate::test_gate();
        for (list, workers) in [
            (&["--requests", "9", "--threads", "2"][..], 2),
            (&["--threads=3", "--requests", "9"][..], 3),
        ] {
            let mut requests = 512usize;
            let rest = strip_threads_flag(args(list)).unwrap();
            Flags::default()
                .value("--requests", &mut requests, |&n| n > 0)
                .parse(rest)
                .unwrap();
            assert_eq!(requests, 9);
            assert_eq!(crate::effective_threads(), workers);
        }
        crate::clear_threads();
    }
}
