//! The workspace policy registry: every policy of the experiment matrix,
//! buildable from a spec string.
//!
//! [`standard()`] extends [`Registry::base`] (LRU, random, PLRU, SRRIP,
//! RRIP, DIP, TADIP) with the predictor-driven policies defined by this
//! crate and `sdbp-predictors`: TDBP, CDBP, the sampler and its random- and
//! SRRIP-based variants, AIP, and burst-filtered TDBP. The `sampler` entry
//! is parameterized: its `key=value` params are deltas on
//! [`SdbpConfig::paper`], so `sampler` alone is the paper configuration and
//! e.g. `sampler:assoc=16,tables=1,entries=16384,threshold=2` is the
//! Figure 6 "DBRB+sampler" ablation rung ([`sampler_spec`] encodes a
//! config as such a spec).

use crate::config::{SamplerConfig, SdbpConfig, TableConfig, SAMPLER_ASSOC_MAX};
use crate::policies;
use crate::predictor::SamplingPredictor;
use sdbp_cache::policy::Lru;
use sdbp_predictors::counting::Aip;
use sdbp_predictors::dbrb::{DbrbConfig, DeadBlockReplacement};
use sdbp_predictors::hash::SKEWED_TABLES_MAX;
use sdbp_predictors::reftrace::{BurstMode, RefTrace};
use sdbp_replacement::Srrip;

pub use sdbp_replacement::registry::{
    reject_params, BuildFn, PolicyEntry, PolicySpec, Registry, SpecError, REGISTRY_SEED,
};

/// The full policy registry: base replacement policies plus every
/// predictor-driven policy of the paper's experiment matrix.
pub fn standard() -> Registry {
    let mut r = Registry::base();
    r.register(PolicyEntry {
        name: "tdbp",
        label: "TDBP",
        summary: "reftrace dead block replacement and bypass over LRU",
        shardable: false,
        build: |spec, llc, _| {
            reject_params(spec)?;
            Ok(policies::tdbp(llc))
        },
    });
    r.register(PolicyEntry {
        name: "cdbp",
        label: "CDBP",
        summary: "counting (LvP) dead block replacement and bypass over LRU",
        shardable: false,
        build: |spec, llc, _| {
            reject_params(spec)?;
            Ok(policies::cdbp(llc))
        },
    });
    r.register(PolicyEntry {
        name: "sampler",
        label: "Sampler",
        summary: "sampling dead block prediction over LRU (params are deltas \
                  on the paper config, e.g. sampler:assoc=16,tables=1)",
        shardable: false,
        build: |spec, llc, _| Ok(policies::sampler_with_config(llc, parse_sdbp(spec)?)),
    });
    r.register(PolicyEntry {
        name: "random-sampler",
        label: "Random Sampler",
        summary: "sampling dead block prediction over random replacement",
        shardable: false,
        build: |spec, llc, _| {
            reject_params(spec)?;
            Ok(policies::sampler_random(llc))
        },
    });
    r.register(PolicyEntry {
        name: "random-cdbp",
        label: "Random CDBP",
        summary: "counting dead block prediction over random replacement",
        shardable: false,
        build: |spec, llc, _| {
            reject_params(spec)?;
            Ok(policies::cdbp_random(llc))
        },
    });
    r.register(PolicyEntry {
        name: "tdbp-bursts",
        label: "TDBP-bursts",
        summary: "burst-filtered reftrace DBRB over LRU (paper §II-A3)",
        shardable: false,
        build: |spec, llc, _| {
            reject_params(spec)?;
            Ok(Box::new(DeadBlockReplacement::new(
                llc,
                Lru::new(llc.sets, llc.ways),
                RefTrace::with_mode(llc, BurstMode::Bursts),
                DbrbConfig::default(),
            )))
        },
    });
    r.register(PolicyEntry {
        name: "aip",
        label: "AIP",
        summary: "access interval predictor DBRB over LRU",
        shardable: false,
        build: |spec, llc, _| {
            reject_params(spec)?;
            Ok(Box::new(DeadBlockReplacement::new(
                llc,
                Lru::new(llc.sets, llc.ways),
                Aip::new(llc),
                DbrbConfig::default(),
            )))
        },
    });
    r.register(PolicyEntry {
        name: "sampler-srrip",
        label: "Sampler/SRRIP",
        summary: "sampling dead block prediction over a default SRRIP cache",
        shardable: false,
        build: |spec, llc, _| {
            reject_params(spec)?;
            Ok(Box::new(DeadBlockReplacement::new(
                llc,
                Srrip::new(llc),
                SamplingPredictor::paper(llc),
                DbrbConfig::default(),
            )))
        },
    });
    r
}

fn parse_num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, SpecError> {
    value
        .parse()
        .map_err(|_| SpecError::InvalidValue { key: key.to_owned(), value: value.to_owned() })
}

fn parse_flag(key: &str, value: &str) -> Result<bool, SpecError> {
    match value {
        "true" => Ok(true),
        "false" => Ok(false),
        _ => Err(SpecError::InvalidValue { key: key.to_owned(), value: value.to_owned() }),
    }
}

fn invalid(key: &str, value: &str) -> SpecError {
    SpecError::InvalidValue { key: key.to_owned(), value: value.to_owned() }
}

/// Interprets a `sampler` spec's params as deltas on [`SdbpConfig::paper`].
///
/// Keys: `sampler=none` (PC-only ablation), sampler geometry `sets`,
/// `assoc`, `tag-bits`, `pc-bits`, `dead-victims`, and table organization
/// `tables`, `entries`, `threshold`, `counter-max`.
///
/// # Errors
///
/// Unknown keys, uninterpretable or out-of-range values, and the
/// contradiction `sampler=none` + sampler geometry keys.
pub fn parse_sdbp(spec: &PolicySpec) -> Result<SdbpConfig, SpecError> {
    let mut sampler_none = false;
    let mut s = SamplerConfig::default();
    let mut geometry_touched = false;
    let mut t = TableConfig::skewed();
    for (key, value) in &spec.params {
        match key.as_str() {
            "sampler" => {
                if value != "none" {
                    return Err(invalid(key, value));
                }
                sampler_none = true;
            }
            "sets" => {
                s.sets = parse_num(key, value)?;
                geometry_touched = true;
            }
            "assoc" => {
                s.assoc = parse_num(key, value)?;
                geometry_touched = true;
            }
            "tag-bits" => {
                s.tag_bits = parse_num(key, value)?;
                geometry_touched = true;
            }
            "pc-bits" => {
                s.pc_bits = parse_num(key, value)?;
                geometry_touched = true;
            }
            "dead-victims" => {
                s.dead_block_victims = parse_flag(key, value)?;
                geometry_touched = true;
            }
            "tables" => t.tables = parse_num(key, value)?,
            "entries" => t.entries_per_table = parse_num(key, value)?,
            "threshold" => t.threshold = parse_num(key, value)?,
            "counter-max" => t.counter_max = parse_num(key, value)?,
            _ => {
                return Err(SpecError::UnknownParam {
                    policy: spec.name.clone(),
                    key: key.clone(),
                })
            }
        }
    }
    if sampler_none && geometry_touched {
        return Err(SpecError::Conflict(
            "sampler=none excludes the sampler geometry keys".to_owned(),
        ));
    }
    // Pre-validate what SdbpConfig::validate / Sampler::new would panic on,
    // so a bad spec string is an error, not a crash.
    if t.tables < 1 || !t.entries_per_table.is_power_of_two() || t.counter_max < 1 {
        return Err(invalid("tables", &format!("{}x{}", t.tables, t.entries_per_table)));
    }
    // Tables past the hash's salt count would alias table 0's index stream.
    if t.tables > SKEWED_TABLES_MAX {
        return Err(invalid("tables", &t.tables.to_string()));
    }
    // A skewed bank hashes into 1..=32 index bits.
    if t.tables > 1 && !(2..=1 << 32).contains(&t.entries_per_table) {
        return Err(invalid("entries", &t.entries_per_table.to_string()));
    }
    let max_sum = t.tables as u32 * u32::from(t.counter_max);
    if t.threshold < 1 || t.threshold > max_sum {
        return Err(invalid("threshold", &t.threshold.to_string()));
    }
    if !sampler_none {
        if s.sets < 1 || s.assoc < 1 {
            return Err(invalid("sets", &format!("{}x{}", s.sets, s.assoc)));
        }
        // The sampler's recency order is a u8 rank per entry.
        if s.assoc > SAMPLER_ASSOC_MAX {
            return Err(invalid("assoc", &s.assoc.to_string()));
        }
        if !(1..=16).contains(&s.tag_bits) || !(1..=16).contains(&s.pc_bits) {
            return Err(invalid("tag-bits", &format!("{}/{}", s.tag_bits, s.pc_bits)));
        }
    }
    Ok(SdbpConfig { sampler: (!sampler_none).then_some(s), tables: t })
}

/// Encodes a config as `sampler` spec params: only the fields that differ
/// from [`SdbpConfig::paper`], in canonical key order, so
/// `parse_sdbp(&spec(cfg))` round-trips and the paper config encodes as
/// plain `sampler`.
pub fn sdbp_params(cfg: &SdbpConfig) -> Vec<(String, String)> {
    let mut p: Vec<(String, String)> = Vec::new();
    let mut push = |key: &str, value: String| p.push((key.to_owned(), value));
    match cfg.sampler {
        None => push("sampler", "none".to_owned()),
        Some(s) => {
            let d = SamplerConfig::default();
            if s.sets != d.sets {
                push("sets", s.sets.to_string());
            }
            if s.assoc != d.assoc {
                push("assoc", s.assoc.to_string());
            }
            if s.tag_bits != d.tag_bits {
                push("tag-bits", s.tag_bits.to_string());
            }
            if s.pc_bits != d.pc_bits {
                push("pc-bits", s.pc_bits.to_string());
            }
            if s.dead_block_victims != d.dead_block_victims {
                push("dead-victims", s.dead_block_victims.to_string());
            }
        }
    }
    let d = TableConfig::skewed();
    if cfg.tables.tables != d.tables {
        push("tables", cfg.tables.tables.to_string());
    }
    if cfg.tables.entries_per_table != d.entries_per_table {
        push("entries", cfg.tables.entries_per_table.to_string());
    }
    if cfg.tables.threshold != d.threshold {
        push("threshold", cfg.tables.threshold.to_string());
    }
    if cfg.tables.counter_max != d.counter_max {
        push("counter-max", cfg.tables.counter_max.to_string());
    }
    p
}

/// The `sampler` spec describing `cfg`: `sampler` plus [`sdbp_params`].
pub fn sampler_spec(cfg: &SdbpConfig) -> PolicySpec {
    PolicySpec { name: "sampler".to_owned(), params: sdbp_params(cfg) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdbp_cache::CacheConfig;

    fn llc() -> CacheConfig {
        CacheConfig::new(256, 16)
    }

    #[test]
    fn standard_registry_builds_every_entry() {
        let r = standard();
        assert_eq!(r.entries().len(), 15);
        for entry in r.entries() {
            let p = r.build_str(entry.name, llc(), 4).expect("entry builds bare");
            assert!(!p.name().is_empty(), "{}", entry.name);
        }
    }

    /// Every registry entry and every ablation preset builds from its spec,
    /// the parsed-spec and spec-string paths build the same policy, and the
    /// spec round-trips through its display form.
    #[test]
    fn every_policy_kind_builds_through_the_registry() {
        let r = standard();
        let mut specs: Vec<PolicySpec> =
            r.entries().iter().map(|e| PolicySpec::plain(e.name)).collect();
        specs.extend(
            [
                SdbpConfig::dbrb_alone(),
                SdbpConfig::dbrb_skewed(),
                SdbpConfig::sampler_only(),
                SdbpConfig::sampler_skewed(),
                SdbpConfig::sampler_12way(),
            ]
            .iter()
            .map(sampler_spec),
        );
        for spec in specs {
            let entry = r.find(&spec.name).expect("registered");
            assert!(!entry.label.is_empty(), "{spec}");
            let p = r.build(&spec, llc(), 4).expect("spec builds");
            assert!(!p.name().is_empty(), "{spec}");
            let text = spec.to_string();
            assert_eq!(r.build_str(&text, llc(), 4).expect("string builds").name(), p.name());
            let reparsed: PolicySpec = text.parse().expect("round trip");
            assert_eq!(reparsed, spec);
        }
    }

    #[test]
    fn ablation_presets_have_the_expected_specs() {
        let cases = [
            (SdbpConfig::paper(), "sampler"),
            (SdbpConfig::dbrb_alone(), "sampler:sampler=none,tables=1,entries=16384,threshold=2"),
            (SdbpConfig::dbrb_skewed(), "sampler:sampler=none"),
            (SdbpConfig::sampler_only(), "sampler:assoc=16,tables=1,entries=16384,threshold=2"),
            (SdbpConfig::sampler_skewed(), "sampler:assoc=16"),
            (SdbpConfig::sampler_12way(), "sampler:tables=1,entries=16384,threshold=2"),
        ];
        for (cfg, expected) in cases {
            let spec = sampler_spec(&cfg);
            assert_eq!(spec.to_string(), expected);
            let reparsed = parse_sdbp(&spec.to_string().parse().expect("parses"));
            assert_eq!(reparsed, Ok(cfg), "{expected} must round-trip");
        }
    }

    #[test]
    fn sampler_rejects_unknown_and_invalid_params() {
        let parse = |s: &str| parse_sdbp(&s.parse().expect("well-formed"));
        assert_eq!(
            parse("sampler:zap=1"),
            Err(SpecError::UnknownParam { policy: "sampler".into(), key: "zap".into() })
        );
        assert_eq!(
            parse("sampler:assoc=many"),
            Err(SpecError::InvalidValue { key: "assoc".into(), value: "many".into() })
        );
        assert_eq!(
            parse("sampler:sampler=off"),
            Err(SpecError::InvalidValue { key: "sampler".into(), value: "off".into() })
        );
        assert_eq!(
            parse("sampler:dead-victims=maybe"),
            Err(SpecError::InvalidValue { key: "dead-victims".into(), value: "maybe".into() })
        );
        assert!(matches!(parse("sampler:sampler=none,assoc=16"), Err(SpecError::Conflict(_))));
        assert!(parse("sampler:threshold=100").is_err(), "unreachable threshold");
        assert!(parse("sampler:entries=4000").is_err(), "non-power-of-two entries");
        assert!(parse("sampler:tag-bits=30").is_err(), "tag wider than its storage");
    }

    /// Specs that used to parse and then misbehave: a one-entry skewed
    /// table panicked on the first access, a ninth table reused table 0's
    /// salt, and a 300-way sampler truncated its u8 recency ranks.
    #[test]
    fn sampler_rejects_specs_the_tables_and_sampler_cannot_hold() {
        let parse = |s: &str| parse_sdbp(&s.parse().expect("well-formed"));
        let invalid = |key: &str, value: &str| {
            Err(SpecError::InvalidValue { key: key.into(), value: value.into() })
        };
        assert_eq!(parse("sampler:entries=1"), invalid("entries", "1"));
        assert_eq!(parse("sampler:tables=9"), invalid("tables", "9"));
        assert_eq!(parse("sampler:assoc=300"), invalid("assoc", "300"));
        // The limits themselves still build, and so does an unskewed
        // one-entry table (direct indexing needs no hash bits).
        for ok in [
            "sampler:tables=8",
            "sampler:assoc=256",
            "sampler:entries=2",
            "sampler:tables=1,entries=1,threshold=2",
        ] {
            let spec: PolicySpec = ok.parse().expect("well-formed");
            let mut cache = sdbp_cache::Cache::with_policy(
                llc(),
                standard().build(&spec, llc(), 1).expect("limit builds"),
            );
            for b in 0..2_000u64 {
                cache.access(&sdbp_cache::Access::demand(
                    sdbp_trace::Pc::new(0x400 + (b % 7) * 4),
                    sdbp_trace::BlockAddr::new(b % 700),
                    sdbp_trace::AccessKind::Read,
                    0,
                ));
            }
            assert_eq!(cache.stats().predictions, 2_000, "{ok}");
        }
    }

    #[test]
    fn dead_victims_toggle_round_trips() {
        let cfg = SdbpConfig {
            sampler: Some(SamplerConfig { dead_block_victims: false, ..SamplerConfig::default() }),
            tables: TableConfig::skewed(),
        };
        let spec = sampler_spec(&cfg);
        assert_eq!(spec.to_string(), "sampler:dead-victims=false");
        assert_eq!(parse_sdbp(&spec), Ok(cfg));
    }
}
