//! Minimal `--flag value` argument parsing (no external dependencies).
//!
//! [`Args::parse`] splits a command line without knowing any command; the
//! command table ([`crate::cli::commands`]) then checks the result against
//! the [`Flag`]s the command takes, and the command reads each value
//! through an accessor that takes the same `Flag` — so a flag's name,
//! kind and default are written once.

use std::collections::BTreeMap;

/// One `--name` a command may take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flag {
    /// The name, without the leading dashes.
    pub name: &'static str,
    /// Whether it takes a value.
    pub kind: FlagKind,
}

/// Whether a [`Flag`] takes a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlagKind {
    /// Present or absent; never given a value.
    Switch,
    /// Given a non-empty value.
    Value {
        /// What the value is, for `lbe help` and error messages.
        placeholder: &'static str,
        /// The value an absent flag reads as.
        default: Option<&'static str>,
    },
}

impl Flag {
    /// A flag that is present or absent.
    pub const fn switch(name: &'static str) -> Flag {
        Flag {
            name,
            kind: FlagKind::Switch,
        }
    }

    /// A flag that takes a value, and reads as `default` when absent.
    pub const fn value(
        name: &'static str,
        placeholder: &'static str,
        default: Option<&'static str>,
    ) -> Flag {
        Flag {
            name,
            kind: FlagKind::Value {
                placeholder,
                default,
            },
        }
    }
}

/// Parsed command line: a subcommand, positional args, and `--key value`
/// options (flags without values hold `""`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    /// The subcommand (first non-flag token).
    pub command: String,
    /// Positional arguments after the subcommand.
    pub positional: Vec<String>,
    /// `--key value` options, keys without the leading dashes.
    options: BTreeMap<String, String>,
}

/// A parse/validation failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses tokens (exclusive of the program name).
    pub fn parse<I: IntoIterator<Item = String>>(tokens: I) -> Result<Args, ArgError> {
        let mut args = Args::default();
        let mut it = tokens.into_iter().peekable();
        while let Some(tok) = it.next() {
            if let Some(key) = tok.strip_prefix("--") {
                if key.is_empty() {
                    return Err(ArgError("empty flag '--'".into()));
                }
                // A value follows unless the next token is another flag.
                let value = match it.peek() {
                    Some(next) if !next.starts_with("--") => it.next().unwrap(),
                    _ => String::new(),
                };
                if args.options.insert(key.to_string(), value).is_some() {
                    return Err(ArgError(format!("duplicate option --{key}")));
                }
            } else if args.command.is_empty() {
                args.command = tok;
            } else {
                args.positional.push(tok);
            }
        }
        Ok(args)
    }

    /// Checks every given option against the flags `command` takes: each
    /// must be one of them, a switch must have no value and a valued flag
    /// a non-empty one. Each error names the flag and the command.
    pub fn check_flags(&self, command: &str, allowed: &[&Flag]) -> Result<(), ArgError> {
        for (key, value) in &self.options {
            let Some(flag) = allowed.iter().find(|f| f.name == key) else {
                let names: Vec<String> = allowed.iter().map(|f| format!("--{}", f.name)).collect();
                return Err(ArgError(format!(
                    "{command}: unknown option --{key} (allowed: {})",
                    names.join(", ")
                )));
            };
            match flag.kind {
                FlagKind::Switch if !value.is_empty() => {
                    return Err(ArgError(format!(
                        "{command}: --{key} is a switch and takes no value (got {value:?})"
                    )))
                }
                FlagKind::Value { placeholder, .. } if value.is_empty() => {
                    return Err(ArgError(format!(
                        "{command}: --{key} needs a value ({placeholder})"
                    )))
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// `true` if the flag was given.
    pub fn has(&self, flag: &Flag) -> bool {
        self.options.contains_key(flag.name)
    }

    /// The flag's value as given, else its default.
    pub fn text(&self, flag: &Flag) -> Option<&str> {
        match (self.options.get(flag.name), flag.kind) {
            (Some(v), _) => Some(v),
            (None, FlagKind::Value { default, .. }) => default,
            (None, FlagKind::Switch) => None,
        }
    }

    /// The flag's non-empty value (or default), else an error.
    pub fn require(&self, flag: &Flag) -> Result<&str, ArgError> {
        self.text(flag)
            .filter(|v| !v.is_empty())
            .ok_or_else(|| ArgError(format!("missing required option --{}", flag.name)))
    }

    /// The flag's value (or default) parsed as `T`.
    pub fn value<T: std::str::FromStr>(&self, flag: &Flag) -> Result<T, ArgError> {
        let v = self.require(flag)?;
        v.parse()
            .map_err(|_| ArgError(format!("invalid value for --{}: {v:?}", flag.name)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const IN: Flag = Flag::value("in", "FILE", None);
    const OUT: Flag = Flag::value("out", "FILE", None);
    const MISSED: Flag = Flag::value("missed-cleavages", "N", Some("0"));
    const GSIZE: Flag = Flag::value("gsize", "N", Some("20"));
    const VERBOSE: Flag = Flag::switch("verbose");
    const N: Flag = Flag::value("n", "N", None);
    const SKEW: Flag = Flag::value("skew", "X", Some("0"));

    fn parse(s: &str) -> Result<Args, ArgError> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn command_and_options() {
        let a = parse("digest --in x.fasta --missed-cleavages 2").unwrap();
        assert_eq!(a.command, "digest");
        assert_eq!(a.require(&IN).unwrap(), "x.fasta");
        assert_eq!(a.value::<u8>(&MISSED).unwrap(), 2);
    }

    #[test]
    fn defaults_applied() {
        let a = parse("digest").unwrap();
        assert_eq!(a.value::<usize>(&GSIZE).unwrap(), 20);
        assert_eq!(a.text(&GSIZE), Some("20"));
        assert!(!a.has(&GSIZE));
        assert!(a.text(&OUT).is_none());
        assert!(a.text(&VERBOSE).is_none());
    }

    #[test]
    fn flags_without_values() {
        let a = parse("index --verbose --out x").unwrap();
        assert!(a.has(&VERBOSE));
        assert_eq!(a.require(&OUT).unwrap(), "x");
    }

    #[test]
    fn positional_args() {
        let a = parse("search a.slm b.ms2").unwrap();
        assert_eq!(a.positional, vec!["a.slm", "b.ms2"]);
    }

    #[test]
    fn errors() {
        assert!(parse("x --a 1 --a 2").is_err()); // duplicate
        assert!(parse("x --").is_err()); // empty flag
        let a = parse("x").unwrap();
        assert!(a.require(&IN).is_err()); // missing
        let a = parse("x --n abc").unwrap();
        assert!(a.value::<usize>(&N).is_err()); // bad value
    }

    #[test]
    fn reject_unknown_flags() {
        const BOGUS: Flag = Flag::value("bogus", "N", None);
        let a = parse("x --in f --bogus 1").unwrap();
        assert!(a.check_flags("x", &[&IN]).is_err());
        assert!(a.check_flags("x", &[&IN, &BOGUS]).is_ok());
    }

    #[test]
    fn empty_input() {
        let a = parse("").unwrap();
        assert!(a.command.is_empty());
    }

    #[test]
    fn error_messages_name_the_offending_option() {
        let e = parse("x --a 1 --a 2").unwrap_err();
        assert_eq!(e.to_string(), "duplicate option --a");

        let e = parse("x --").unwrap_err();
        assert_eq!(e.to_string(), "empty flag '--'");

        let a = parse("x").unwrap();
        assert_eq!(
            a.require(&IN).unwrap_err().to_string(),
            "missing required option --in"
        );

        let a = parse("x --n abc").unwrap();
        let e = a.value::<usize>(&N).unwrap_err();
        assert_eq!(e.to_string(), "invalid value for --n: \"abc\"");

        // One row per error class of `check_flags`; each names the flag
        // and the command.
        for (line, want) in [
            (
                "x --bogus 1",
                "x: unknown option --bogus (allowed: --in, --out, --verbose)",
            ),
            (
                "x --verbose nonsense",
                "x: --verbose is a switch and takes no value (got \"nonsense\")",
            ),
            ("x --out --verbose", "x: --out needs a value (FILE)"),
        ] {
            let e = parse(line)
                .unwrap()
                .check_flags("x", &[&IN, &OUT, &VERBOSE])
                .unwrap_err();
            assert_eq!(e.to_string(), want, "{line}");
        }
    }

    #[test]
    fn key_value_round_trips() {
        const INDEX: Flag = Flag::value("index", "DIR", None);
        const QUERIES: Flag = Flag::value("queries", "FILE", None);
        const TOP_K: Flag = Flag::value("top-k", "N", Some("10"));
        let a = parse("search --index a.slm --queries q.ms2 --top-k 3").unwrap();
        assert!(a.check_flags("search", &[&INDEX, &QUERIES, &TOP_K]).is_ok());
        assert_eq!(a.text(&INDEX), Some("a.slm"));
        assert_eq!(a.text(&QUERIES), Some("q.ms2"));
        assert_eq!(a.value::<usize>(&TOP_K).unwrap(), 3);
        assert_eq!(a.text(&OUT), None);
    }

    #[test]
    fn flag_followed_by_flag_takes_no_value() {
        // `--verbose` must not swallow `--out` as its value.
        let a = parse("index --verbose --out x.slm").unwrap();
        assert_eq!(a.text(&VERBOSE), Some(""));
        assert_eq!(a.require(&OUT).unwrap(), "x.slm");
        // An empty-valued option fails `require` but satisfies `has`.
        assert!(a.require(&VERBOSE).is_err());
        assert!(a.has(&VERBOSE));
    }

    #[test]
    fn negative_numbers_parse_as_values() {
        // A leading single dash is a value, not a flag.
        let a = parse("x --skew -0.5").unwrap();
        assert_eq!(a.value::<f64>(&SKEW).unwrap(), -0.5);
    }
}
