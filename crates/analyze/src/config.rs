//! The checked-in policy file (`analyze.toml`): the *audited* scope
//! opt-outs from the rule set.
//!
//! Rules apply workspace-wide by default (new crates are covered the day
//! they are created); an `[[exempt]]` entry is the explicit, justified
//! statement that a rule's invariant does not govern a path subtree at
//! all (e.g. nested result matrices in the reporting harness, which are
//! not per-access metadata). Individual findings are excused in-line
//! with `// sdbp-allow(rule): reason` escapes instead.
//!
//! The format is a deliberately small TOML subset — array headers with
//! `key = "value"` string pairs — parsed by hand because the workspace
//! is std-only. Every entry must carry a `reason`; a line without a
//! justification is itself a config error, so the audit trail can never
//! silently erode. Unknown rule ids are rejected too, which catches
//! stale entries when rules are renamed or retired.
//!
//! ```text
//! # analyze.toml
//! [[exempt]]
//! rule = "flat-metadata"
//! path = "crates/harness/src"
//! reason = "cold result matrices, not per-access metadata"
//! ```

use std::path::Path;

/// One audited opt-out: `rule` does not apply under path prefix `path`
/// because `reason`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ExemptEntry {
    /// Rule id the opt-out applies to.
    pub rule: String,
    /// Workspace-relative path prefix (a file or a directory).
    pub path: String,
    /// Why this opt-out is sound. Required.
    pub reason: String,
}

/// The parsed policy file.
#[derive(Clone, Default, Debug)]
pub struct Config {
    /// Audited rule opt-outs, in file order.
    pub exempts: Vec<ExemptEntry>,
}

impl Config {
    /// Parses `text`, validating every entry against `known_rules`.
    ///
    /// # Errors
    ///
    /// Malformed lines, entries missing `rule`/`path`/`reason`, or
    /// entries naming unknown rules; messages carry the line number.
    pub fn parse(text: &str, known_rules: &[&str]) -> Result<Config, String> {
        let mut cfg = Config::default();
        // (entry, header line)
        let mut current: Option<(ExemptEntry, usize)> = None;
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "[[exempt]]" {
                if let Some(cur) = current.take() {
                    cfg.exempts.push(finish_entry(cur, known_rules)?);
                }
                current = Some((
                    ExemptEntry { rule: String::new(), path: String::new(), reason: String::new() },
                    lineno,
                ));
                continue;
            }
            let Some((key, value)) = parse_kv(line) else {
                return Err(format!("analyze.toml:{lineno}: cannot parse `{line}`"));
            };
            let Some((entry, _)) = current.as_mut() else {
                return Err(format!("analyze.toml:{lineno}: `{key}` outside an [[exempt]] entry"));
            };
            match key {
                "rule" => entry.rule = value,
                "path" => entry.path = value,
                "reason" => entry.reason = value,
                other => {
                    return Err(format!("analyze.toml:{lineno}: unknown key `{other}`"));
                }
            }
        }
        if let Some(cur) = current.take() {
            cfg.exempts.push(finish_entry(cur, known_rules)?);
        }
        Ok(cfg)
    }

    /// Loads and parses `path`; a missing file is an empty config (the
    /// tool works out of the box on a clean tree).
    ///
    /// # Errors
    ///
    /// Unreadable files or parse failures.
    pub fn load(path: &Path, known_rules: &[&str]) -> Result<Config, String> {
        if !path.exists() {
            return Ok(Config::default());
        }
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::parse(&text, known_rules)
    }

    /// The entry exempting `path` from `rule`, if any.
    pub fn exempts(&self, rule: &str, path: &str) -> Option<&ExemptEntry> {
        self.exempts
            .iter()
            .find(|a| a.rule == rule && (path == a.path || path.starts_with(a.path.as_str())))
    }
}

/// Parses `key = "value"`.
fn parse_kv(line: &str) -> Option<(&str, String)> {
    let (key, rest) = line.split_once('=')?;
    let rest = rest.trim();
    let inner = rest.strip_prefix('"')?.strip_suffix('"')?;
    // The subset forbids embedded quotes, so no unescaping is needed.
    if inner.contains('"') {
        return None;
    }
    Some((key.trim(), inner.to_owned()))
}

/// Validates a completed entry.
fn finish_entry(
    (entry, lineno): (ExemptEntry, usize),
    known_rules: &[&str],
) -> Result<ExemptEntry, String> {
    if entry.rule.is_empty() || entry.path.is_empty() {
        return Err(format!(
            "analyze.toml:{lineno}: [[exempt]] entry needs both `rule` and `path`"
        ));
    }
    if entry.reason.is_empty() {
        return Err(format!(
            "analyze.toml:{lineno}: [[exempt]] for `{}` at `{}` has no `reason` — \
             every exception must be justified",
            entry.rule, entry.path
        ));
    }
    if !known_rules.contains(&entry.rule.as_str()) {
        return Err(format!(
            "analyze.toml:{lineno}: unknown rule `{}` (known: {})",
            entry.rule,
            known_rules.join(", ")
        ));
    }
    Ok(entry)
}

#[cfg(test)]
mod tests {
    use super::*;

    const RULES: &[&str] = &["flat-metadata", "seed-discipline"];

    #[test]
    fn parses_entries_and_matches_prefixes() {
        let text = "# comment\n\n[[exempt]]\nrule = \"flat-metadata\"\n\
                    path = \"crates/harness/src\"\nreason = \"cold result matrices\"\n";
        let cfg = Config::parse(text, RULES).expect("parses");
        assert_eq!(cfg.exempts.len(), 1);
        assert!(cfg.exempts("flat-metadata", "crates/harness/src/table.rs").is_some());
        assert!(cfg.exempts("flat-metadata", "crates/cache/src/lru.rs").is_none());
        assert!(cfg.exempts("seed-discipline", "crates/harness/src/table.rs").is_none());
    }

    #[test]
    fn missing_reason_is_rejected() {
        let text = "[[exempt]]\nrule = \"flat-metadata\"\npath = \"crates/x\"\n";
        let err = Config::parse(text, RULES).expect_err("must fail");
        assert!(err.contains("reason"), "{err}");
    }

    #[test]
    fn unknown_rule_is_rejected() {
        let text = "[[exempt]]\nrule = \"no-such-rule\"\npath = \"x\"\nreason = \"y\"\n";
        let err = Config::parse(text, RULES).expect_err("must fail");
        assert!(err.contains("unknown rule"), "{err}");
    }

    #[test]
    fn stray_keys_garbage_and_retired_tables_are_rejected() {
        assert!(Config::parse("rule = \"flat-metadata\"", RULES).is_err());
        assert!(Config::parse("[[exempt]]\nnot a kv line", RULES).is_err());
        assert!(Config::parse("[[exempt]]\ncolor = \"red\"", RULES).is_err());
        assert!(
            Config::parse("[[allow]]\nrule = \"flat-metadata\"", RULES).is_err(),
            "[[allow]] is not an entry kind"
        );
    }

    #[test]
    fn empty_and_comment_only_configs_are_valid() {
        assert!(Config::parse("", RULES).expect("empty ok").exempts.is_empty());
        assert!(Config::parse("# nothing\n", RULES).expect("ok").exempts.is_empty());
    }
}
