//! Minimal argument parsing: one subcommand, one positional, `--key value`
//! flags. No external dependencies.

use std::collections::HashMap;
use std::fmt;

/// Parsed command line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Args {
    /// Subcommand (`generate`, `build`, `model`, `simulate`, ...).
    pub command: String,
    /// The single positional argument (data spec or input file).
    pub positional: String,
    flags: HashMap<String, String>,
}

/// Argument or execution error; carries the message shown to the user.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

/// Shorthand constructor.
pub(crate) fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Flags that are presence toggles and take no value. Everything else uses
/// the uniform `--key value` form.
const BOOL_FLAGS: &[&str] = &[
    "json", "prom", "plant", "shutdown", "quick", "writers", "adaptive", "csv",
];

/// Subcommands that are fully seed-driven and take no input argument.
const NO_POSITIONAL: &[&str] = &["chaos"];

impl Args {
    /// Parses raw arguments (without the program name).
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Self, CliError> {
        let mut iter = raw.into_iter().peekable();
        let command = iter.next().ok_or_else(|| err("missing subcommand"))?;
        if command == "--help" || command == "-h" {
            return Err(err("help"));
        }
        let mut positional = None;
        let mut flags = HashMap::new();
        while let Some(tok) = iter.next() {
            if let Some(name) = tok.strip_prefix("--") {
                if name == "help" {
                    return Err(err("help"));
                }
                let value = if BOOL_FLAGS.contains(&name) {
                    "true".to_string()
                } else {
                    iter.next()
                        .ok_or_else(|| err(format!("--{name} needs a value")))?
                };
                if flags.insert(name.to_string(), value).is_some() {
                    return Err(err(format!("--{name} given twice")));
                }
            } else if positional.is_none() {
                positional = Some(tok);
            } else {
                return Err(err(format!("unexpected argument {tok:?}")));
            }
        }
        let positional = match positional {
            Some(p) => p,
            None if NO_POSITIONAL.contains(&command.as_str()) => String::new(),
            None => return Err(err("missing input argument")),
        };
        Ok(Args {
            command,
            positional,
            flags,
        })
    }

    /// A string flag.
    pub fn flag(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// True when a presence-toggle flag (e.g. `--json`) was given.
    pub fn flag_bool(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    /// A parsed flag with a default.
    pub fn flag_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError>
    where
        T::Err: fmt::Display,
    {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| err(format!("--{name} {v:?}: {e}"))),
        }
    }

    /// A comma-separated list of integers.
    pub fn flag_list(&self, name: &str, default: &[usize]) -> Result<Vec<usize>, CliError> {
        match self.flags.get(name) {
            None => Ok(default.to_vec()),
            Some(v) => v
                .split(',')
                .map(|p| {
                    p.trim()
                        .parse::<usize>()
                        .map_err(|e| err(format!("--{name} {p:?}: {e}")))
                })
                .collect(),
        }
    }

    /// Rejects flags outside the allowed set (typo guard).
    pub fn allow_flags(&self, allowed: &[&str]) -> Result<(), CliError> {
        for k in self.flags.keys() {
            if !allowed.contains(&k.as_str()) {
                return Err(err(format!("unknown flag --{k} for {}", self.command)));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, CliError> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_command_positional_and_flags() {
        let a = parse("build data.csv --loader HS --cap 50").unwrap();
        assert_eq!(a.command, "build");
        assert_eq!(a.positional, "data.csv");
        assert_eq!(a.flag("loader"), Some("HS"));
        assert_eq!(a.flag_or("cap", 100usize).unwrap(), 50);
        assert_eq!(a.flag_or("seed", 7u64).unwrap(), 7);
    }

    #[test]
    fn flag_lists() {
        let a = parse("model t.desc --buffers 10,50,200").unwrap();
        assert_eq!(a.flag_list("buffers", &[1]).unwrap(), vec![10, 50, 200]);
        assert_eq!(a.flag_list("other", &[9]).unwrap(), vec![9]);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse("").is_err());
        assert!(parse("build").is_err());
        assert!(parse("build a b").is_err());
        assert!(parse("build a --cap").is_err());
        assert!(parse("build a --cap 5 --cap 6").is_err());
        assert!(parse("model t.desc --buffers 1,x")
            .unwrap()
            .flag_list("buffers", &[])
            .is_err());
    }

    #[test]
    fn bool_flags_take_no_value() {
        let a = parse("trace d.csv --json --policy LRU --prom").unwrap();
        assert!(a.flag_bool("json"));
        assert!(a.flag_bool("prom"));
        assert!(!a.flag_bool("csv"));
        assert_eq!(a.flag("policy"), Some("LRU"));
        // A bool flag at the end must not swallow a missing value error
        // elsewhere.
        assert!(parse("trace d.csv --policy").is_err());
        assert!(parse("trace d.csv --json --json").is_err());
    }

    #[test]
    fn a_flag_shaped_value_is_a_value_not_a_flag() {
        // `--miss-ns` last: the missing value is an error, not a silent
        // fall-back to the default.
        assert!(parse("bench macrobench --quick --miss-ns").is_err());
        // `--quick` in value position belongs to `--miss-ns`; it neither
        // switches quick mode on nor parses as a latency.
        let a = parse("bench macrobench --miss-ns --quick").unwrap();
        assert!(!a.flag_bool("quick"));
        assert!(a.flag_or("miss-ns", 1.0f64).is_err());
    }

    #[test]
    fn chaos_needs_no_positional() {
        let a = parse("chaos --seed 7 --ops 50 --plant").unwrap();
        assert_eq!(a.command, "chaos");
        assert_eq!(a.positional, "");
        assert_eq!(a.flag_or("seed", 0u64).unwrap(), 7);
        assert!(a.flag_bool("plant"));
        // Other commands still require their input argument.
        assert!(parse("build --cap 5").is_err());
    }

    #[test]
    fn unknown_flag_guard() {
        let a = parse("build a --weird 1").unwrap();
        assert!(a.allow_flags(&["cap"]).is_err());
        assert!(a.allow_flags(&["weird"]).is_ok());
    }

    #[test]
    fn help_is_signalled() {
        assert_eq!(parse("--help").unwrap_err().0, "help");
        assert_eq!(parse("build x --help").unwrap_err().0, "help");
    }
}
