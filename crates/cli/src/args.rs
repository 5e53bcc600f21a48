//! Minimal dependency-free argument parsing.

use std::collections::HashMap;

/// Parsed command line: a subcommand, its positional arguments and
/// `--key value` / `--flag` options.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Args {
    /// The subcommand (first non-flag argument), if any.
    pub command: Option<String>,
    /// Positional arguments after the subcommand.
    pub positional: Vec<String>,
    /// `--key value` options (flags map to an empty string).
    pub options: HashMap<String, String>,
}

impl Args {
    /// Parses an argument list (excluding the program name).
    ///
    /// Grammar: the first bare token is the subcommand; later bare tokens
    /// are positionals; `--key value` pairs become options unless the next
    /// token is itself an option or missing, in which case `--key` is a
    /// boolean flag.
    #[must_use]
    pub fn parse<I, S>(args: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut out = Args::default();
        let mut iter = args.into_iter().map(Into::into).peekable();
        while let Some(tok) = iter.next() {
            if let Some(key) = tok.strip_prefix("--") {
                let value = match iter.peek() {
                    Some(next) if !next.starts_with("--") => iter.next().expect("peeked"),
                    _ => String::new(),
                };
                out.options.insert(key.to_string(), value);
            } else if out.command.is_none() {
                out.command = Some(tok);
            } else {
                out.positional.push(tok);
            }
        }
        out
    }

    /// A string option.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// A parsed option with a default.
    ///
    /// # Errors
    ///
    /// Returns a description of the offending value if parsing fails.
    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("invalid value '{v}' for --{key}")),
        }
    }

    /// Whether a boolean flag is present.
    #[must_use]
    pub fn flag(&self, key: &str) -> bool {
        self.options.contains_key(key)
    }

    /// Checks every option against `known`, the options the synopsis of
    /// `command` lists.
    ///
    /// # Errors
    ///
    /// Returns a one-line message naming every other option, sorted.
    pub fn check_options(&self, command: &str, known: &[&str]) -> Result<(), String> {
        let mut unknown: Vec<&str> =
            self.options.keys().map(String::as_str).filter(|k| !known.contains(k)).collect();
        if unknown.is_empty() {
            return Ok(());
        }
        unknown.sort_unstable();
        Err(format!("{command}: unknown option: --{} (see 'help')", unknown.join(", --")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_subcommand_positionals_and_options() {
        let a = Args::parse(["run", "e1", "--scale", "full", "--seed", "7", "--csv"]);
        assert_eq!(a.command.as_deref(), Some("run"));
        assert_eq!(a.positional, vec!["e1"]);
        assert_eq!(a.get("scale"), Some("full"));
        assert_eq!(a.get_parsed::<u64>("seed", 0).unwrap(), 7);
        assert!(a.flag("csv"));
        assert!(!a.flag("absent"));
    }

    #[test]
    fn flags_before_values_do_not_consume_options() {
        let a = Args::parse(["x", "--flag", "--key", "v"]);
        assert!(a.flag("flag"));
        assert_eq!(a.get("key"), Some("v"));
    }

    #[test]
    fn parse_errors_are_reported() {
        let a = Args::parse(["x", "--n", "abc"]);
        assert!(a.get_parsed::<u64>("n", 1).is_err());
        assert_eq!(a.get_parsed::<u64>("missing", 5).unwrap(), 5);
    }

    #[test]
    fn unknown_options_are_named_in_order() {
        let a = Args::parse(["x", "--seed", "1", "--zz", "--aa", "v"]);
        assert_eq!(a.check_options("x", &["seed", "aa", "zz"]), Ok(()));
        assert_eq!(
            a.check_options("x", &["seed"]),
            Err("x: unknown option: --aa, --zz (see 'help')".to_string())
        );
    }

    #[test]
    fn empty_input() {
        let a = Args::parse(Vec::<String>::new());
        assert!(a.command.is_none());
        assert!(a.positional.is_empty());
    }
}
