//! Tiny hand-rolled argument parser (no external CLI crates on the
//! offline allowlist): `--key value` pairs and flags after a
//! subcommand.

use std::collections::BTreeMap;

/// Parsed command line: a subcommand plus `--key value` options.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The subcommand (first non-flag argument).
    pub command: Option<String>,
    opts: BTreeMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parse from an iterator of argument strings (no program name).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut out = Args::default();
        let mut it = args.into_iter().peekable();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                // A value follows unless the next token is another flag
                // or the end of input.
                match it.peek() {
                    Some(v) if !v.starts_with("--") => {
                        let v = it.next().expect("peeked");
                        out.opts.insert(key.to_string(), v);
                    }
                    _ => out.flags.push(key.to_string()),
                }
            } else if out.command.is_none() {
                out.command = Some(a);
            } else {
                return Err(format!("unexpected positional argument {a:?}"));
            }
        }
        Ok(out)
    }

    /// Parse from the process environment.
    pub fn from_env() -> Result<Self, String> {
        Self::parse(std::env::args().skip(1))
    }

    /// String option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.opts.get(key).map(|s| s.as_str())
    }

    /// Typed option with a default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.opts.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse {v:?}")),
        }
    }

    /// Boolean flag (present without a value).
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Reject every option outside `opts` (`--key value`) and every flag
    /// outside `flags` (`--key`), both space-separated key lists, naming
    /// the first offender.
    pub fn only(&self, opts: &str, flags: &str) -> Result<(), String> {
        let listed = |list: &str, key: &str| list.split_whitespace().any(|k| k == key);
        for (key, value) in &self.opts {
            if listed(flags, key) {
                return Err(format!("--{key} takes no value (got {value:?})"));
            }
            if !listed(opts, key) {
                return Err(format!("unknown option --{key}"));
            }
        }
        for key in &self.flags {
            if listed(opts, key) {
                return Err(format!("--{key} needs a value"));
            }
            if !listed(flags, key) {
                return Err(format!("unknown option --{key}"));
            }
        }
        Ok(())
    }

    /// Comma-separated list option.
    pub fn get_list(&self, key: &str) -> Result<Option<Vec<usize>>, String> {
        match self.opts.get(key) {
            None => Ok(None),
            Some(v) => v
                .split(',')
                .map(|p| {
                    p.trim()
                        .parse::<usize>()
                        .map_err(|_| format!("--{key}: bad element {p:?}"))
                })
                .collect::<Result<Vec<_>, _>>()
                .map(Some),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn subcommand_options_and_flags() {
        let a = parse("solve --m 64 --n 512 --verbose --engine gpu");
        assert_eq!(a.command.as_deref(), Some("solve"));
        assert_eq!(a.get("m"), Some("64"));
        assert_eq!(a.get_or("n", 0usize).unwrap(), 512);
        assert_eq!(a.get_or("missing", 7usize).unwrap(), 7);
        assert!(a.flag("verbose"));
        assert!(!a.flag("quiet"));
        assert_eq!(a.get("engine"), Some("gpu"));
    }

    #[test]
    fn lists_and_errors() {
        let a = parse("tune --m-list 1,16,256");
        assert_eq!(a.get_list("m-list").unwrap(), Some(vec![1, 16, 256]));
        assert_eq!(a.get_list("absent").unwrap(), None);
        assert!(parse("tune --m-list 1,x").get_list("m-list").is_err());
        assert!(Args::parse(["solve".into(), "extra".into()]).is_err());
        assert!(parse("solve --n notanumber").get_or("n", 0usize).is_err());
    }

    #[test]
    fn only_rejects_what_a_command_does_not_read() {
        let a = parse("solve --m 4 --verbose");
        assert!(a.only("m n", "verbose").is_ok());
        let err = |s: &str| parse(s).only("m n", "verbose").unwrap_err();
        assert_eq!(err("solve --preicsion f32"), "unknown option --preicsion");
        assert_eq!(err("solve --sweep"), "unknown option --sweep");
        assert_eq!(
            err("solve --verbose yes"),
            "--verbose takes no value (got \"yes\")"
        );
        assert_eq!(err("solve --m"), "--m needs a value");
    }

    #[test]
    fn trailing_flag() {
        let a = parse("info --fast");
        assert!(a.flag("fast"));
        assert_eq!(a.command.as_deref(), Some("info"));
    }
}
