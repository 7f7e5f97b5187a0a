//! Strict command-line parsing shared by the `reproduce` and
//! `fleet_sim` binaries. An unknown flag, a flag missing its value, or
//! a value that does not parse is a [`Usage`] error naming the flag —
//! never a silently ignored argument or a silently defaulted knob.

use std::fmt::Display;
use std::str::FromStr;

/// A bad invocation. The message names the offending flag or argument;
/// the binaries print it and exit with status 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Usage(pub String);

/// The flags one binary accepts.
#[derive(Debug, Clone, Copy)]
pub struct Flags {
    /// Flags that take the next argument as their value (`--jobs 4`).
    pub valued: &'static [&'static str],
    /// Flags that stand alone (`--smoke`).
    pub switches: &'static [&'static str],
}

impl Flags {
    /// Checks every argument against the accepted flags and returns the
    /// positional ones (arguments that are neither a flag nor a flag's
    /// value), in order.
    ///
    /// # Errors
    ///
    /// A [`Usage`] error for the first unknown `--flag` or valued flag
    /// without a value.
    pub fn positionals<'a>(&self, args: &'a [String]) -> Result<Vec<&'a str>, Usage> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let arg = args[i].as_str();
            if self.valued.contains(&arg) {
                if args.get(i + 1).is_none_or(|v| v.starts_with("--")) {
                    return Err(Usage(format!("{arg} expects a value")));
                }
                i += 2;
                continue;
            }
            if arg.starts_with("--") && !self.switches.contains(&arg) {
                return Err(Usage(format!("unknown flag {arg}")));
            }
            if !arg.starts_with("--") {
                out.push(arg);
            }
            i += 1;
        }
        Ok(out)
    }
}

/// Whether the switch `flag` is present.
#[must_use]
pub fn has(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// The value following `flag`: `Ok(None)` if the flag is absent.
///
/// # Errors
///
/// A [`Usage`] error if the flag is present without a value.
pub fn flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, Usage> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => match args.get(i + 1).map(String::as_str) {
            Some(v) if !v.starts_with("--") => Ok(Some(v)),
            _ => Err(Usage(format!("{flag} expects a value"))),
        },
    }
}

/// [`flag_value`] parsed as `T`.
///
/// # Errors
///
/// A [`Usage`] error if the flag has no value or its value does not
/// parse.
pub fn parse_flag<T>(args: &[String], flag: &str) -> Result<Option<T>, Usage>
where
    T: FromStr,
    T::Err: Display,
{
    flag_value(args, flag)?
        .map(|v| {
            v.parse()
                .map_err(|e| Usage(format!("{flag}: invalid value {v:?} ({e})")))
        })
        .transpose()
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: Flags = Flags {
        valued: &["--bss", "--trace"],
        switches: &["--smoke"],
    };

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn accepts_known_flags_and_returns_positionals() {
        let a = args(&["fig7", "--bss", "3", "--smoke", "--trace", "t.jsonl"]);
        assert_eq!(FLAGS.positionals(&a), Ok(vec!["fig7"]));
        assert_eq!(parse_flag::<usize>(&a, "--bss"), Ok(Some(3)));
        assert_eq!(flag_value(&a, "--trace"), Ok(Some("t.jsonl")));
        assert_eq!(parse_flag::<usize>(&a, "--jobs"), Ok(None));
        assert!(has(&a, "--smoke"));
    }

    #[test]
    fn rejects_unknown_flags_missing_and_unparsable_values() {
        let err = FLAGS.positionals(&args(&["--bogus"])).unwrap_err();
        assert!(err.0.contains("--bogus"), "{err:?}");
        let err = FLAGS.positionals(&args(&["--bss"])).unwrap_err();
        assert!(err.0.contains("--bss"), "{err:?}");
        let err = FLAGS.positionals(&args(&["--bss", "--smoke"])).unwrap_err();
        assert!(err.0.contains("--bss"), "{err:?}");
        let err = parse_flag::<usize>(&args(&["--bss", "abc"]), "--bss").unwrap_err();
        assert!(err.0.contains("--bss") && err.0.contains("abc"), "{err:?}");
    }
}
