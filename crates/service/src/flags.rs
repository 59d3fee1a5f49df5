//! Command-line flags of the two server binaries, `mmjoin-serve` and
//! `mmjoin-netd`: one table per binary, one parser for both. A flag the
//! binary does not have, a flag without its value and a value that does
//! not parse are all errors — a server must not come up on defaults
//! because its command line was misread.

use crate::ServiceConfig;

/// What follows a flag on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Nothing: the flag's presence is the value (`--calibrate`).
    Switch,
    /// A non-negative integer (`--threads 2`).
    Count,
    /// Any one argument (`--addr 127.0.0.1:7878`).
    Text,
}

/// A binary's name and the flags it takes.
#[derive(Debug)]
pub struct FlagSet {
    /// The binary's name, as printed in front of errors and usage.
    pub binary: &'static str,
    /// Every flag the binary knows, with what follows it.
    pub flags: &'static [(&'static str, Kind)],
}

/// `mmjoin-serve`, the stdin/stdout REPL.
pub const SERVE: FlagSet = FlagSet {
    binary: "mmjoin-serve",
    flags: &[
        ("--threads", Kind::Count),
        ("--calibrate", Kind::Switch),
        ("--calibration", Kind::Text),
        ("--slow-query", Kind::Count),
        ("--trace-out", Kind::Text),
    ],
};

/// `mmjoin-netd`, the TCP server: the REPL's flags and the front end's.
pub const NETD: FlagSet = FlagSet {
    binary: "mmjoin-netd",
    flags: &[
        ("--threads", Kind::Count),
        ("--calibrate", Kind::Switch),
        ("--calibration", Kind::Text),
        ("--slow-query", Kind::Count),
        ("--trace-out", Kind::Text),
        ("--addr", Kind::Text),
        ("--dispatchers", Kind::Count),
        ("--queue", Kind::Count),
        ("--quota", Kind::Count),
        ("--trace-sample", Kind::Count),
    ],
};

/// A parsed command line: each flag given, with its value (empty for a
/// switch). Counts were checked by [`FlagSet::parse`].
#[derive(Debug)]
pub struct Flags(Vec<(&'static str, String)>);

impl Flags {
    /// The value of a flag, if it was given (the last one, if it was
    /// given twice).
    pub fn text(&self, flag: &str) -> Option<&str> {
        let (_, value) = self.0.iter().rev().find(|(f, _)| *f == flag)?;
        Some(value)
    }

    /// The value of a [`Kind::Count`] flag, if it was given.
    pub fn count(&self, flag: &str) -> Option<usize> {
        self.text(flag)?.parse().ok()
    }

    /// Whether a flag was given.
    pub fn is_set(&self, flag: &str) -> bool {
        self.text(flag).is_some()
    }

    /// The service both servers build from the flags they share.
    pub fn service_config(&self) -> ServiceConfig {
        let calibration_path = self.text("--calibration").map(std::path::PathBuf::from);
        let mut config = ServiceConfig {
            slow_query_us: self.count("--slow-query").unwrap_or(0) as u64,
            calibrate_cost: calibration_path.is_some() || self.is_set("--calibrate"),
            calibration_path,
            ..ServiceConfig::default()
        };
        if let Some(budget) = self.count("--threads") {
            // `--threads n` grants an intra-query budget of n and asks the
            // engines to use all of it (`join_config.threads = 0` means "the
            // executor's full budget"); 0 means machine parallelism. The
            // startup calibration sweeps its cores axis up to this budget.
            config.thread_budget = budget;
            config.join_config.threads = 0;
        }
        config
    }
}

impl FlagSet {
    /// `usage: <binary> [--flag <n>] …`, every flag the binary takes.
    pub fn usage(&self) -> String {
        let mut line = format!("usage: {}", self.binary);
        for (flag, kind) in self.flags {
            line.push_str(&match kind {
                Kind::Switch => format!(" [{flag}]"),
                Kind::Count => format!(" [{flag} <n>]"),
                Kind::Text => format!(" [{flag} <value>]"),
            });
        }
        line
    }

    /// Parses the arguments after the program name; the error says which
    /// argument was refused and why.
    pub fn parse(&self, args: impl IntoIterator<Item = String>) -> Result<Flags, String> {
        let mut given = Vec::new();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let Some(&(flag, kind)) = self.flags.iter().find(|(f, _)| *f == arg) else {
                return Err(format!("unknown flag `{arg}`"));
            };
            let value = match kind {
                Kind::Switch => String::new(),
                Kind::Count | Kind::Text => args
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("`{flag}` needs a value"))?,
            };
            if kind == Kind::Count && value.parse::<usize>().is_err() {
                return Err(format!("`{flag} {value}`: not a non-negative integer"));
            }
            given.push((flag, value));
        }
        Ok(Flags(given))
    }

    /// Parses the process's own command line; on an error prints it and
    /// the usage line to stderr and exits with status 2.
    pub fn parse_env(&self) -> Flags {
        self.parse(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("{}: {e}\n{}", self.binary, self.usage());
            std::process::exit(2)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn unknown_flag_is_refused() {
        // The pool both binaries used to size is gone, and so is its flag.
        for set in [&SERVE, &NETD] {
            assert_eq!(
                set.parse(args("--threads 2 --workers 2")).unwrap_err(),
                "unknown flag `--workers`"
            );
        }
        // A flag of the other binary is as unknown as a misspelt one.
        assert_eq!(
            SERVE.parse(args("--queue 8")).unwrap_err(),
            "unknown flag `--queue`"
        );
        assert_eq!(
            NETD.parse(args("stray")).unwrap_err(),
            "unknown flag `stray`"
        );
    }

    #[test]
    fn missing_value_is_refused() {
        assert_eq!(
            NETD.parse(args("--queue")).unwrap_err(),
            "`--queue` needs a value"
        );
        assert_eq!(
            SERVE.parse(args("--trace-out --calibrate")).unwrap_err(),
            "`--trace-out` needs a value"
        );
    }

    #[test]
    fn unparsable_value_is_refused() {
        assert_eq!(
            NETD.parse(args("--queue abc")).unwrap_err(),
            "`--queue abc`: not a non-negative integer"
        );
        assert_eq!(
            SERVE.parse(args("--threads -1")).unwrap_err(),
            "`--threads -1`: not a non-negative integer"
        );
    }

    #[test]
    fn serve_line_parses() {
        let f = SERVE
            .parse(args(
                "--threads 2 --slow-query 500 --calibration /tmp/m.txt",
            ))
            .unwrap();
        assert_eq!(f.count("--threads"), Some(2));
        assert_eq!(f.count("--slow-query"), Some(500));
        assert_eq!(f.text("--calibration"), Some("/tmp/m.txt"));
        assert_eq!(f.text("--trace-out"), None);
        assert!(!f.is_set("--calibrate"));
        let config = f.service_config();
        assert_eq!((config.thread_budget, config.join_config.threads), (2, 0));
        assert_eq!(config.slow_query_us, 500);
        assert!(config.calibrate_cost, "a manifest path implies calibration");
        // No flag is a good line too, and leaves the engines serial.
        let config = SERVE.parse(Vec::new()).unwrap().service_config();
        assert_eq!((config.thread_budget, config.join_config.threads), (0, 1));
        assert!(!config.calibrate_cost);
    }

    #[test]
    fn netd_line_parses() {
        let f = NETD
            .parse(args(
                "--addr 127.0.0.1:7979 --dispatchers 2 --threads 2 --queue 8 --quota 2 \
                 --trace-sample 10 --calibrate",
            ))
            .unwrap();
        assert_eq!(f.text("--addr"), Some("127.0.0.1:7979"));
        assert_eq!(f.count("--dispatchers"), Some(2));
        assert_eq!(f.count("--threads"), Some(2));
        assert_eq!(f.count("--queue"), Some(8));
        assert_eq!(f.count("--quota"), Some(2));
        assert_eq!(f.count("--trace-sample"), Some(10));
        assert!(f.is_set("--calibrate"));
    }

    #[test]
    fn usage_names_every_flag() {
        let usage = NETD.usage();
        assert!(usage.starts_with("usage: mmjoin-netd "), "{usage}");
        for (flag, _) in NETD.flags {
            assert!(usage.contains(flag), "{usage}");
        }
    }
}
