//! The one `--flag value` parser every `sdbp-repro` command uses: the
//! experiment runner, `trace`, `serve` and `submit`.
//!
//! A command names its valued flags and its bare switches; anything not
//! starting with `--` is positional. Repeating a valued flag keeps every
//! value ([`Flags::get_all`]); [`Flags::get`] reads the last one. Numbers
//! accept `_` digit separators (`--instructions 8_000_000`).

use sdbp_engine::report::DEFAULT_REPORT_PATH;
use sdbp_workloads::DEFAULT_INSTRUCTIONS;
use std::path::PathBuf;
use std::str::FromStr;

/// Parsed command-line flags and positional arguments.
#[derive(Debug)]
pub struct Flags {
    pairs: Vec<(String, String)>,
    switches: Vec<String>,
    /// Arguments that are not flags, in order.
    pub positional: Vec<String>,
}

impl Flags {
    /// Parses `args`: `valued` flags take the next argument as their
    /// value, `switches` take none.
    ///
    /// # Errors
    ///
    /// An unknown flag or a valued flag with no value (the next argument
    /// missing or itself a `--flag`), with `usage` appended.
    pub fn parse(
        args: &[String],
        valued: &[&str],
        switches: &[&str],
        usage: &str,
    ) -> Result<Flags, String> {
        let mut flags = Flags {
            pairs: Vec::new(),
            switches: Vec::new(),
            positional: Vec::new(),
        };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            match arg.strip_prefix("--") {
                Some(key) if switches.contains(&key) => flags.switches.push(key.to_owned()),
                Some(key) if valued.contains(&key) => {
                    let Some(value) = args.next().filter(|v| !v.starts_with("--")) else {
                        return Err(format!("--{key} needs a value\n{usage}"));
                    };
                    flags.pairs.push((key.to_owned(), value.clone()));
                }
                Some(key) => return Err(format!("unknown flag --{key}\n{usage}")),
                None => flags.positional.push(arg.clone()),
            }
        }
        Ok(flags)
    }

    /// The last value given for `--key`.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// All values of a repeatable flag, in the order given.
    pub fn get_all(&self, key: &str) -> Vec<&str> {
        self.pairs
            .iter()
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    /// Whether the switch `--key` was given.
    pub fn has(&self, key: &str) -> bool {
        self.switches.iter().any(|k| k == key)
    }

    /// `--key` parsed as a number, if given.
    ///
    /// # Errors
    ///
    /// A value that does not parse as `T`.
    pub fn number<T: FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.get(key)
            .map(|v| {
                v.replace('_', "")
                    .parse()
                    .map_err(|_| format!("--{key} cannot parse '{v}'"))
            })
            .transpose()
    }

    /// `--key` as a positive integer, if given.
    ///
    /// # Errors
    ///
    /// A value that is not a positive integer.
    pub fn positive<T: FromStr + PartialOrd + Default>(
        &self,
        key: &str,
    ) -> Result<Option<T>, String> {
        let Some(v) = self.get(key) else {
            return Ok(None);
        };
        match v.replace('_', "").parse() {
            Ok(n) if n > T::default() => Ok(Some(n)),
            _ => Err(format!("--{key} needs a positive integer, got '{v}'")),
        }
    }

    /// The per-benchmark instruction budget: `--instructions N`, else
    /// [`DEFAULT_INSTRUCTIONS`].
    ///
    /// # Errors
    ///
    /// A value that is not a positive integer.
    pub fn instructions(&self) -> Result<u64, String> {
        Ok(self
            .positive("instructions")?
            .unwrap_or(DEFAULT_INSTRUCTIONS))
    }

    /// The requested set-shard count: `--shards N`, `--shards auto`
    /// (which resolves to `auto`), or 1 when absent.
    ///
    /// # Errors
    ///
    /// A value that is neither a positive integer nor `auto`.
    pub fn shards(&self, auto: usize) -> Result<usize, String> {
        match self.get("shards") {
            Some("auto") => Ok(auto),
            _ => Ok(self.positive("shards")?.unwrap_or(1)),
        }
    }

    /// `--key DIR`, if given.
    ///
    /// # Errors
    ///
    /// A path that is not an existing directory.
    pub fn dir(&self, key: &str) -> Result<Option<PathBuf>, String> {
        self.get(key)
            .map(|d| match PathBuf::from(d) {
                dir if dir.is_dir() => Ok(dir),
                _ => Err(format!("--{key} needs an existing directory, got '{d}'")),
            })
            .transpose()
    }

    /// Where to write the engine telemetry report: `--engine-report FILE`,
    /// else [`DEFAULT_REPORT_PATH`].
    pub fn engine_report(&self) -> PathBuf {
        PathBuf::from(self.get("engine-report").unwrap_or(DEFAULT_REPORT_PATH))
    }
}

/// The hardware thread count, which `--shards auto` means outside the
/// experiment runner.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Flags, String> {
        let args: Vec<String> = args.iter().map(|&a| a.to_owned()).collect();
        Flags::parse(
            &args,
            &["instructions", "shards", "policy", "engine-report"],
            &["serial"],
            "U",
        )
    }

    #[test]
    fn flags_switches_and_positionals_interleave() {
        let f = parse(&[
            "fig4", "--policy", "lru", "--serial", "--policy", "rrip", "fig5",
        ])
        .unwrap();
        assert_eq!(f.positional, ["fig4", "fig5"]);
        assert_eq!(f.get_all("policy"), ["lru", "rrip"]);
        assert_eq!(f.get("policy"), Some("rrip"));
        assert!(f.has("serial"));
        assert_eq!(parse(&["--bogus"]).unwrap_err(), "unknown flag --bogus\nU");
        assert_eq!(
            parse(&["--policy"]).unwrap_err(),
            "--policy needs a value\nU"
        );
        assert_eq!(parse(&["--serial", "x"]).unwrap().positional, ["x"]);
        let swallowed = parse(&["--engine-report", "--serial", "fig4"]).unwrap_err();
        assert_eq!(swallowed, "--engine-report needs a value\nU");
    }

    #[test]
    fn budgets_and_shards_parse_in_one_place() {
        assert_eq!(parse(&[]).unwrap().instructions(), Ok(DEFAULT_INSTRUCTIONS));
        assert_eq!(
            parse(&["--instructions", "2_000_000"])
                .unwrap()
                .instructions(),
            Ok(2_000_000)
        );
        for bad in ["0", "-3", "many"] {
            let err = parse(&["--instructions", bad])
                .unwrap()
                .instructions()
                .unwrap_err();
            assert!(err.contains("positive integer"), "{bad}: {err}");
        }
        assert_eq!(parse(&[]).unwrap().shards(5), Ok(1));
        assert_eq!(parse(&["--shards", "auto"]).unwrap().shards(5), Ok(5));
        assert_eq!(parse(&["--shards", "3"]).unwrap().shards(5), Ok(3));
        assert!(parse(&["--shards", "0"]).unwrap().shards(5).is_err());
    }

    #[test]
    fn engine_report_flag_overrides_the_default_path() {
        assert_eq!(
            parse(&[]).unwrap().engine_report(),
            PathBuf::from(DEFAULT_REPORT_PATH)
        );
        let f = parse(&["--engine-report", "target/other-report.json"]).unwrap();
        assert_eq!(f.engine_report(), PathBuf::from("target/other-report.json"));
    }
}
