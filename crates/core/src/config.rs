//! Configuration of the sampling predictor and its ablation variants.

use sdbp_predictors::hash::SKEWED_TABLES_MAX;

/// Largest sampler associativity: each entry's recency rank is a `u8`.
pub const SAMPLER_ASSOC_MAX: usize = 256;

/// Geometry of the prediction table(s).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct TableConfig {
    /// Number of skewed tables (1 = unskewed).
    pub tables: usize,
    /// Entries per table (a power of two).
    pub entries_per_table: usize,
    /// A block is predicted dead when the *sum* of its counters across all
    /// tables reaches this threshold.
    pub threshold: u32,
    /// Saturation value of each counter (3 for 2-bit counters).
    pub counter_max: u8,
}

impl TableConfig {
    /// The paper's skewed organization: 3 × 4096 × 2-bit, threshold 8.
    pub fn skewed() -> Self {
        TableConfig {
            tables: 3,
            entries_per_table: 4096,
            threshold: 8,
            counter_max: 3,
        }
    }

    /// The unskewed ablation: one table with the same total capacity
    /// budget as the paper's single-table baseline (4× the size of each
    /// skewed table, §VII-A4), threshold 2 of a 2-bit counter.
    pub fn single() -> Self {
        TableConfig {
            tables: 1,
            entries_per_table: 16384,
            threshold: 2,
            counter_max: 3,
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if any field is degenerate.
    pub fn validate(&self) {
        assert!(self.tables >= 1, "need at least one table");
        assert!(
            self.tables <= SKEWED_TABLES_MAX,
            "at most {SKEWED_TABLES_MAX} skewed tables have distinct hashes"
        );
        assert!(
            self.tables == 1 || (2..=1 << 32).contains(&self.entries_per_table),
            "skewed tables need 2..=2^32 entries"
        );
        assert!(
            self.entries_per_table.is_power_of_two(),
            "entries_per_table must be a power of two"
        );
        assert!(self.counter_max >= 1, "counter_max must be positive");
        let max_sum = self.tables as u32 * u32::from(self.counter_max);
        assert!(
            self.threshold >= 1 && self.threshold <= max_sum,
            "threshold {} outside achievable range 1..={}",
            self.threshold,
            max_sum
        );
    }
}

/// Geometry and behaviour of the sampler tag array.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct SamplerConfig {
    /// Number of sampler sets (the paper uses 32 regardless of LLC size).
    pub sets: usize,
    /// Sampler associativity (12 in the paper, vs the LLC's 16).
    pub assoc: usize,
    /// Partial tag width in bits (15).
    pub tag_bits: u32,
    /// Partial PC width in bits (15).
    pub pc_bits: u32,
    /// Prefer predicted-dead sampler entries as sampler victims, letting
    /// the predictor learn from its own evictions (paper §V-B).
    pub dead_block_victims: bool,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            sets: 32,
            assoc: 12,
            tag_bits: 15,
            pc_bits: 15,
            dead_block_victims: true,
        }
    }
}

impl SamplerConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if any field is degenerate.
    pub fn validate(&self) {
        assert!(self.sets >= 1, "sampler needs at least one set");
        assert!(self.assoc >= 1, "sampler needs at least one way");
        assert!(
            self.assoc <= SAMPLER_ASSOC_MAX,
            "sampler recency ranks are u8: at most {SAMPLER_ASSOC_MAX} ways"
        );
        assert!(
            (1..=32).contains(&self.tag_bits) && (1..=32).contains(&self.pc_bits),
            "partial widths must be in 1..=32"
        );
    }
}

/// Full configuration of a sampling predictor instance.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct SdbpConfig {
    /// The sampler; `None` selects the PC-only ablation mode ("DBRB
    /// alone"), where the predictor trains on every LLC access and
    /// eviction and each cache line carries its last-touch partial PC.
    pub sampler: Option<SamplerConfig>,
    /// The prediction table organization.
    pub tables: TableConfig,
}

impl SdbpConfig {
    /// The paper's configuration (Figure 6's "DBRB+sampler+3 tables+12-way").
    pub fn paper() -> Self {
        SdbpConfig {
            sampler: Some(SamplerConfig::default()),
            tables: TableConfig::skewed(),
        }
    }

    /// Figure 6 ablation: "DBRB alone" (PC-only, single table, no sampler).
    pub fn dbrb_alone() -> Self {
        SdbpConfig {
            sampler: None,
            tables: TableConfig::single(),
        }
    }

    /// Figure 6 ablation: "DBRB+3 tables" (skew but no sampler).
    pub fn dbrb_skewed() -> Self {
        SdbpConfig {
            sampler: None,
            tables: TableConfig::skewed(),
        }
    }

    /// Figure 6 ablation: "DBRB+sampler" (16-way sampler, single table).
    pub fn sampler_only() -> Self {
        SdbpConfig {
            sampler: Some(SamplerConfig {
                assoc: 16,
                ..SamplerConfig::default()
            }),
            tables: TableConfig::single(),
        }
    }

    /// Figure 6 ablation: "DBRB+sampler+3 tables" (16-way sampler, skew).
    pub fn sampler_skewed() -> Self {
        SdbpConfig {
            sampler: Some(SamplerConfig {
                assoc: 16,
                ..SamplerConfig::default()
            }),
            tables: TableConfig::skewed(),
        }
    }

    /// Figure 6 ablation: "DBRB+sampler+12-way" (single table).
    pub fn sampler_12way() -> Self {
        SdbpConfig {
            sampler: Some(SamplerConfig::default()),
            tables: TableConfig::single(),
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if any component is degenerate.
    pub fn validate(&self) {
        self.tables.validate();
        if let Some(s) = &self.sampler {
            s.validate();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_presets_validate() {
        for cfg in [
            SdbpConfig::paper(),
            SdbpConfig::dbrb_alone(),
            SdbpConfig::dbrb_skewed(),
            SdbpConfig::sampler_only(),
            SdbpConfig::sampler_skewed(),
            SdbpConfig::sampler_12way(),
        ] {
            cfg.validate();
        }
    }

    #[test]
    fn skewed_tables_are_each_a_quarter_of_the_single_table() {
        // Paper §VII-A4: three tables, "each one-fourth the size of the
        // single-table predictor".
        let skewed = TableConfig::skewed();
        let single = TableConfig::single();
        assert_eq!(skewed.entries_per_table * 4, single.entries_per_table);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn unreachable_threshold_rejected() {
        let mut t = TableConfig::skewed();
        t.threshold = 10; // 3 tables × max 3 = 9
        t.validate();
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_entries_rejected() {
        let mut t = TableConfig::skewed();
        t.entries_per_table = 4000;
        t.validate();
    }
}
