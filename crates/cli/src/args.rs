//! Minimal `--key value` / `--flag` argument parser (no external deps).

use std::collections::HashMap;

/// Parsed command line: a subcommand, keyed options, and bare flags.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Args {
    /// First positional token (the subcommand).
    pub command: Option<String>,
    /// Second positional token (a sub-action, e.g. `store stats`).
    pub subaction: Option<String>,
    options: HashMap<String, String>,
    flags: Vec<String>,
}

/// Parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// A value failed to parse.
    BadValue {
        /// Offending key.
        key: String,
        /// Raw value.
        value: String,
        /// Expected type/format.
        expected: &'static str,
    },
    /// Unexpected positional argument.
    UnexpectedPositional(String),
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::BadValue {
                key,
                value,
                expected,
            } => {
                write!(f, "--{key}: cannot parse '{value}' as {expected}")
            }
            ArgError::UnexpectedPositional(p) => write!(f, "unexpected argument '{p}'"),
        }
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parse raw tokens (without the program name).
    ///
    /// Tokens starting with `--` become options when followed by a
    /// non-`--` token, otherwise flags. The first bare token is the
    /// subcommand, the second is its sub-action (commands that take none
    /// reject it at dispatch); further bare tokens are errors.
    pub fn parse<I: IntoIterator<Item = String>>(tokens: I) -> Result<Args, ArgError> {
        let mut args = Args::default();
        let mut it = tokens.into_iter().peekable();
        while let Some(tok) = it.next() {
            if let Some(key) = tok.strip_prefix("--") {
                let takes_value = it.peek().map(|n| !n.starts_with("--")).unwrap_or(false);
                if takes_value {
                    args.options
                        .insert(key.to_owned(), it.next().expect("peeked"));
                } else {
                    args.flags.push(key.to_owned());
                }
            } else if args.command.is_none() {
                args.command = Some(tok);
            } else if args.subaction.is_none() {
                args.subaction = Some(tok);
            } else {
                return Err(ArgError::UnexpectedPositional(tok));
            }
        }
        Ok(args)
    }

    /// Every `--key` given, with whether it carried a value (`--key value`)
    /// or stood bare (`--flag`).
    pub fn given(&self) -> impl Iterator<Item = (&str, bool)> {
        self.options
            .keys()
            .map(|k| (k.as_str(), true))
            .chain(self.flags.iter().map(|f| (f.as_str(), false)))
    }

    /// Whether `--name` was given as a bare flag.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// Raw string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// String option with default.
    pub fn str_or(&self, key: &str, default: &str) -> String {
        self.get(key).unwrap_or(default).to_owned()
    }

    /// Typed option with default.
    pub fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgError::BadValue {
                key: key.to_owned(),
                value: v.to_owned(),
                expected: std::any::type_name::<T>(),
            }),
        }
    }

    /// Comma-separated typed list with default.
    pub fn parse_list_or<T: std::str::FromStr>(
        &self,
        key: &str,
        default: Vec<T>,
    ) -> Result<Vec<T>, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .split(',')
                .map(|s| {
                    s.trim().parse().map_err(|_| ArgError::BadValue {
                        key: key.to_owned(),
                        value: s.to_owned(),
                        expected: "comma-separated list",
                    })
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, ArgError> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn subcommand_options_flags() {
        let a = parse("run --rate 0.5 --trace --gpus 8").unwrap();
        assert_eq!(a.command.as_deref(), Some("run"));
        assert_eq!(a.get("rate"), Some("0.5"));
        assert!(a.flag("trace"));
        assert!(!a.flag("verbose"));
        assert_eq!(a.parse_or("gpus", 1usize).unwrap(), 8);
    }

    #[test]
    fn defaults_apply() {
        let a = parse("run").unwrap();
        assert_eq!(a.parse_or("gpus", 4usize).unwrap(), 4);
        assert_eq!(a.str_or("dist", "uniform"), "uniform");
    }

    #[test]
    fn trailing_flag_without_value() {
        let a = parse("run --fast").unwrap();
        assert!(a.flag("fast"));
    }

    #[test]
    fn bad_value_reported() {
        let a = parse("run --gpus eight").unwrap();
        let err = a.parse_or("gpus", 1usize).unwrap_err();
        assert!(matches!(err, ArgError::BadValue { .. }));
        assert!(err.to_string().contains("eight"));
    }

    #[test]
    fn list_parsing() {
        let a = parse("sweep --values 1,2,3").unwrap();
        assert_eq!(
            a.parse_list_or("values", vec![9usize]).unwrap(),
            vec![1, 2, 3]
        );
        assert_eq!(a.parse_list_or("other", vec![9usize]).unwrap(), vec![9]);
        let bad = parse("sweep --values 1,x").unwrap();
        assert!(bad.parse_list_or::<usize>("values", vec![]).is_err());
    }

    #[test]
    fn subaction_accepted_third_positional_rejected() {
        let a = parse("store stats --dir x").unwrap();
        assert_eq!(a.command.as_deref(), Some("store"));
        assert_eq!(a.subaction.as_deref(), Some("stats"));
        assert_eq!(a.get("dir"), Some("x"));
        assert!(matches!(
            parse("store stats stray"),
            Err(ArgError::UnexpectedPositional(_))
        ));
    }

    #[test]
    fn given_lists_options_and_flags() {
        let a = parse("run --gpus 2 --steal").unwrap();
        let mut given: Vec<(&str, bool)> = a.given().collect();
        given.sort_unstable();
        assert_eq!(given, vec![("gpus", true), ("steal", false)]);
    }

    #[test]
    fn empty_is_ok() {
        let a = parse("").unwrap();
        assert_eq!(a.command, None);
    }
}
