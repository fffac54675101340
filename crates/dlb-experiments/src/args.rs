//! Minimal `--key value` argument parsing for the experiment binaries
//! (no external CLI dependency).  A `--name` followed by another
//! `--option` (or by nothing) is a boolean flag, equivalent to
//! `--name true`.
//!
//! Every binary (and every `dlb-exp` row) declares the keys it reads
//! with [`keys!`](crate::keys); [`Args::parse`] refuses an undeclared
//! key, a value that does not parse as the declared type and a bare
//! word — before the experiment starts, as `dlb` does.  A value that
//! parses but cannot be built into what the tool needs goes through
//! [`Args::build_or_exit`] to the same end.

use std::collections::HashMap;
use std::fmt::Display;
use std::str::FromStr;

/// One declared `--name` and the type its value must parse as.
#[derive(Debug, Clone, Copy)]
pub struct Key {
    /// The option, without the leading `--`.
    pub name: &'static str,
    ty: &'static str,
    check: fn(&str) -> Result<(), String>,
}

impl Key {
    /// Declares `--name` with values of type `T` (see [`keys!`](crate::keys)).
    pub const fn new<T: FromStr>(name: &'static str, ty: &'static str) -> Key
    where
        T::Err: std::fmt::Display,
    {
        Key {
            name,
            ty,
            check: |raw| raw.parse::<T>().map(drop).map_err(|e| e.to_string()),
        }
    }
}

/// Declares a key list: `keys!["runs": usize, "out": String, "smoke": Flag]`.
/// [`Args::get`] must read a key as the type declared here.
#[macro_export]
macro_rules! keys {
    ($($name:literal: $ty:ty),* $(,)?) => {
        &[$($crate::args::Key::new::<$ty>($name, stringify!($ty))),*]
    };
}

/// The type of a boolean `--flag`: bare, or `true`/`1`/`yes`/`false`/`0`/`no`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flag(pub bool);

impl FromStr for Flag {
    type Err = &'static str;

    fn from_str(raw: &str) -> Result<Self, Self::Err> {
        match raw {
            "true" | "1" | "yes" => Ok(Flag(true)),
            "false" | "0" | "no" => Ok(Flag(false)),
            _ => Err("expected true|1|yes|false|0|no, or no value"),
        }
    }
}

/// Parsed and validated `--key value` pairs.
#[derive(Debug, Clone)]
pub struct Args {
    /// What the usage line calls the binary (`dlb-exp fig7_quality`).
    program: String,
    values: HashMap<String, String>,
    keys: &'static [Key],
    /// Where an output lands when its key is not supplied.
    results: String,
}

impl Args {
    /// Parses the process arguments against `keys`; on a refusal prints
    /// the reason and `program`'s usage line and exits 2.
    pub fn from_env(program: &str, keys: &'static [Key]) -> Self {
        Self::parse_or_exit(program, std::env::args().skip(1), keys)
    }

    /// [`Args::parse`], exiting 2 with the reason and the usage line.
    pub fn parse_or_exit<I>(program: &str, iter: I, keys: &'static [Key]) -> Self
    where
        I: IntoIterator<Item = String>,
    {
        Self::parse(program, iter, keys).unwrap_or_else(|reason| {
            eprintln!("error: {reason}\n{}", usage(program, keys));
            std::process::exit(2)
        })
    }

    /// Unwraps what an experiment built from the value of `--name`.  A
    /// value that parsed but cannot be built is refused as one that did
    /// not parse is: the reason, the usage line, exit 2.
    pub fn build_or_exit<T, E: Display>(&self, name: &str, built: Result<T, E>) -> T {
        built.unwrap_or_else(|why| {
            eprintln!(
                "error: {}\n{}",
                self.refusal(name, &why),
                usage(&self.program, self.keys)
            );
            std::process::exit(2)
        })
    }

    /// `--delta 0: <why>`, or the reason alone when `--name` was not
    /// supplied.
    fn refusal(&self, name: &str, why: &dyn Display) -> String {
        self.assert_declared(name);
        match self.values.get(name) {
            Some(raw) => format!("--{name} {raw}: {why}"),
            None => why.to_string(),
        }
    }

    /// Parses `--key value` pairs, accepting only declared keys whose
    /// value parses as the declared type.
    pub fn parse<I>(program: &str, iter: I, keys: &'static [Key]) -> Result<Self, String>
    where
        I: IntoIterator<Item = String>,
    {
        let mut values = HashMap::new();
        let mut iter = iter.into_iter().peekable();
        while let Some(arg) = iter.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!(
                    "unexpected argument {arg:?}; expected --key value pairs"
                ));
            };
            let Some(key) = keys.iter().find(|k| k.name == name) else {
                return Err(format!("unknown option --{name}"));
            };
            let value = match iter.peek() {
                Some(next) if !next.starts_with("--") => iter.next().expect("peeked"),
                _ => "true".to_string(), // bare flag, e.g. --smoke
            };
            (key.check)(&value)
                .map_err(|e| format!("invalid value {value:?} for --{name}: {e}"))?;
            values.insert(name.to_string(), value);
        }
        Ok(Args {
            program: program.to_string(),
            values,
            keys,
            results: "results".to_string(),
        })
    }

    /// The same arguments with every default output under `dir`
    /// instead of `results/`.
    pub fn under(self, dir: &str) -> Self {
        Args {
            results: dir.to_string(),
            ..self
        }
    }

    /// The directory default outputs land in: `results` unless
    /// [`Args::under`] moved it.
    pub fn results(&self) -> &str {
        &self.results
    }

    /// `--name`, or `file` in [`Args::results`] when it is absent.
    pub fn output(&self, name: &str, file: &str) -> String {
        self.get(name, format!("{}/{file}", self.results))
    }

    /// Returns `--name` parsed as `T`, or `default` when absent.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not a declared key or `T` is not its
    /// declared type — bugs in the caller, not in the command line.
    pub fn get<T: FromStr>(&self, name: &str, default: T) -> T
    where
        T::Err: std::fmt::Display,
    {
        self.assert_declared(name);
        match self.values.get(name) {
            None => default,
            Some(raw) => raw.parse().unwrap_or_else(|e| {
                panic!("--{name} {raw:?} read as another type than declared: {e}")
            }),
        }
    }

    /// True when `--name` was supplied.
    pub fn has(&self, name: &str) -> bool {
        self.assert_declared(name);
        self.values.contains_key(name)
    }

    /// True when `--name` was supplied as a bare flag or with a truthy
    /// value (`true`/`1`/`yes`).
    pub fn flag(&self, name: &str) -> bool {
        self.get(name, Flag(false)).0
    }

    fn assert_declared(&self, name: &str) {
        assert!(
            self.keys.iter().any(|k| k.name == name),
            "--{name} is read but not declared in the key list"
        );
    }
}

/// `usage: <program> [--key <type>] …`, the line printed with a refusal.
pub fn usage(program: &str, keys: &[Key]) -> String {
    let mut line = format!("usage: {program}");
    for key in keys {
        match key.ty {
            // `stringify!(Flag)`: a flag takes no value.
            "Flag" => line.push_str(&format!(" [--{}]", key.name)),
            ty => line.push_str(&format!(" [--{} <{ty}>]", key.name)),
        }
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEYS: &[Key] = keys![
        "delta": usize,
        "f": f64,
        "out": String,
        "runs": usize,
        "jobs": usize,
        "smoke": Flag,
        "verbose": Flag,
    ];

    fn parse(parts: &[&str]) -> Result<Args, String> {
        Args::parse("dlb-exp x", parts.iter().map(|s| s.to_string()), KEYS)
    }

    fn args(parts: &[&str]) -> Args {
        parse(parts).expect("valid arguments")
    }

    #[test]
    fn parses_typed_values() {
        let a = args(&["--delta", "4", "--f", "1.8", "--out", "x.csv"]);
        assert_eq!(a.get("delta", 1usize), 4);
        assert!((a.get("f", 1.1f64) - 1.8).abs() < 1e-12);
        assert_eq!(a.get::<String>("out", "d".into()), "x.csv");
        assert_eq!(a.get("runs", 100usize), 100, "default used");
        assert!(a.has("delta") && !a.has("runs"));
    }

    #[test]
    fn bare_flags_parse_as_true() {
        let a = args(&["--smoke", "--jobs", "4", "--verbose"]);
        assert!(a.flag("smoke") && a.flag("verbose"));
        assert_eq!(a.get("jobs", 1usize), 4);
        assert!(args(&["--smoke", "false"]).has("smoke"));
        assert!(!args(&["--smoke", "false"]).flag("smoke"));
        assert!(!args(&[]).flag("smoke"));
    }

    #[test]
    fn bare_word_is_refused() {
        let err = parse(&["delta", "4"]).unwrap_err();
        assert!(err.contains("expected --key value"), "{err}");
    }

    #[test]
    fn unknown_key_is_refused_by_name() {
        let err = parse(&["--runs", "3", "--jbos", "4"]).unwrap_err();
        assert_eq!(err, "unknown option --jbos");
    }

    #[test]
    fn unparsable_value_is_refused_by_name() {
        let err = parse(&["--runs", "x"]).unwrap_err();
        assert!(err.starts_with("invalid value \"x\" for --runs: "), "{err}");
        let err = parse(&["--smoke", "maybe"]).unwrap_err();
        assert!(
            err.starts_with("invalid value \"maybe\" for --smoke: "),
            "{err}"
        );
        // A key that needs a value but is given bare is a bad value too.
        assert!(parse(&["--runs", "--smoke"]).is_err());
    }

    #[test]
    fn unbuildable_value_is_refused_by_name() {
        let params = |a: &Args| dlb_core::Params::new(64, a.get("delta", 1), 1.1, 4);
        let a = args(&["--delta", "0", "--runs", "3"]);
        assert_eq!(
            a.refusal("delta", &params(&a).unwrap_err()),
            "--delta 0: neighbourhood size delta = 0 must satisfy 1 <= delta < n = 64"
        );
        let a = args(&["--delta", "64"]);
        assert_eq!(
            a.refusal("delta", &params(&a).unwrap_err()),
            "--delta 64: neighbourhood size delta = 64 must satisfy 1 <= delta < n = 64"
        );
        // Not supplied: the reason stands alone.
        assert_eq!(args(&[]).refusal("delta", &"why"), "why");
        let a = args(&["--delta", "63"]);
        assert_eq!(a.build_or_exit("delta", params(&a)).delta(), 63);
    }

    #[test]
    fn default_outputs_follow_the_results_directory() {
        assert_eq!(args(&[]).output("out", "x.csv"), "results/x.csv");
        let moved = args(&[]).under("/tmp/r");
        assert_eq!(
            (moved.results(), moved.output("out", "x.csv").as_str()),
            ("/tmp/r", "/tmp/r/x.csv")
        );
        // A supplied path wins wherever the defaults are.
        assert_eq!(
            args(&["--out", "y.csv"])
                .under("/tmp/r")
                .output("out", "x.csv"),
            "y.csv"
        );
    }

    #[test]
    fn usage_lists_every_declared_key() {
        assert_eq!(
            usage("dlb-exp x", keys!["runs": usize, "smoke": Flag]),
            "usage: dlb-exp x [--runs <usize>] [--smoke]"
        );
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn reading_an_undeclared_key_is_a_bug() {
        args(&[]).get("ruins", 1usize);
    }
}
