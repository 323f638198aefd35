//! A small, dependency-free argument parser for the `mbus` binary.

use std::collections::BTreeMap;

/// Upper bound on a user-set thread count (`--workers`, `--concurrency`).
/// Each unit becomes one OS thread, so an unchecked value could ask the
/// kernel for tens of thousands of them.
pub const MAX_THREADS: usize = 256;

/// Parsed command line: one subcommand, positional arguments, and
/// `--key value` / `--flag` options.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The subcommand (first non-flag argument).
    pub command: String,
    /// Positional arguments after the subcommand.
    pub positional: Vec<String>,
    /// `--key value` options and bare `--flag`s (mapped to `"true"`).
    pub options: BTreeMap<String, String>,
}

impl Args {
    /// Parses an argument list (without the program name).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut parsed = Args::default();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            if let Some(key) = arg.strip_prefix("--") {
                let value = match iter.peek() {
                    Some(next) if !next.starts_with("--") => {
                        iter.next().unwrap_or_else(|| "true".to_owned())
                    }
                    _ => "true".to_owned(),
                };
                parsed.options.insert(key.to_owned(), value);
            } else if parsed.command.is_empty() {
                parsed.command = arg;
            } else {
                parsed.positional.push(arg);
            }
        }
        parsed
    }

    /// A string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// A parsed option with a default.
    ///
    /// # Errors
    ///
    /// Returns a message when the value does not parse.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("--{key}: cannot parse '{raw}'")),
        }
    }

    /// A thread-count option with a default. A value given on the command
    /// line must not exceed [`MAX_THREADS`]; the default is taken as is.
    ///
    /// # Errors
    ///
    /// Returns a message naming the flag when the value does not parse or
    /// exceeds the cap.
    pub fn threads_or(&self, key: &str, default: usize) -> Result<usize, String> {
        let threads = self.get_or(key, default)?;
        if self.get(key).is_some() && threads > MAX_THREADS {
            return Err(format!(
                "--{key}: {threads} threads exceeds the limit of {MAX_THREADS}"
            ));
        }
        Ok(threads)
    }

    /// Whether a bare flag (or `--key true`) is present.
    pub fn flag(&self, key: &str) -> bool {
        matches!(self.get(key), Some("true"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_command_positional_and_options() {
        let args = parse("table 2 --csv --n 16 --rate 0.5");
        assert_eq!(args.command, "table");
        assert_eq!(args.positional, vec!["2"]);
        assert!(args.flag("csv"));
        assert_eq!(args.get_or("n", 8usize).unwrap(), 16);
        assert_eq!(args.get_or("rate", 1.0f64).unwrap(), 0.5);
    }

    #[test]
    fn defaults_apply() {
        let args = parse("analyze");
        assert_eq!(args.get_or("n", 8usize).unwrap(), 8);
        assert!(!args.flag("csv"));
    }

    #[test]
    fn bad_values_error() {
        let args = parse("analyze --n banana");
        assert!(args.get_or("n", 8usize).is_err());
    }

    #[test]
    fn thread_counts_are_capped() {
        let capped = parse("serve --workers 257").threads_or("workers", 4);
        assert!(capped.unwrap_err().contains("--workers"));
        let at_cap = parse("serve --workers 256").threads_or("workers", 4);
        assert_eq!(at_cap.unwrap(), MAX_THREADS);
        // A default above the cap (a very wide machine) is not an error.
        assert_eq!(parse("serve").threads_or("workers", 1024).unwrap(), 1024);
    }

    #[test]
    fn flag_followed_by_flag() {
        let args = parse("simulate --resubmission --cycles 100");
        assert!(args.flag("resubmission"));
        assert_eq!(args.get_or("cycles", 0u64).unwrap(), 100);
    }
}
