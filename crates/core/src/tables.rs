//! The skewed prediction tables (paper §III-E).
//!
//! Three tables of 2-bit counters are indexed by three different hashes of
//! the 15-bit PC signature. Unrelated signatures that conflict in one table
//! are unlikely to conflict in all three, and summing the three counters
//! yields nine confidence levels instead of four — the paper finds a
//! threshold of eight gives the best accuracy.

use crate::config::TableConfig;
use sdbp_predictors::hash::skewed_hash;
use sdbp_predictors::predictor::CounterTable;

/// A bank of one or more hashed counter tables with summed confidence.
#[derive(Clone, Debug)]
pub struct SkewedTables {
    tables: Vec<CounterTable>,
    index_bits: u32,
    threshold: u32,
}

impl SkewedTables {
    /// Builds the tables.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid (see [`TableConfig::validate`]).
    pub fn new(config: TableConfig) -> Self {
        config.validate();
        SkewedTables {
            tables: (0..config.tables)
                .map(|_| CounterTable::new(config.entries_per_table, config.counter_max))
                .collect(),
            index_bits: config.entries_per_table.trailing_zeros(),
            threshold: config.threshold,
        }
    }

    /// True when more than one table is in use (the skewed organization).
    pub fn is_skewed(&self) -> bool {
        self.tables.len() > 1
    }

    fn index(&self, table: usize, signature: u64) -> usize {
        let i = if self.tables.len() == 1 {
            // Unskewed: direct indexing, as in the reftrace-style predictor.
            (signature as usize) & ((1 << self.index_bits) - 1)
        } else {
            skewed_hash(signature, table as u32, self.index_bits)
        };
        debug_assert!(
            i < (1usize << self.index_bits),
            "hash produced index {i} for a {}-bit table",
            self.index_bits
        );
        i
    }

    /// Summed confidence of `signature` across all tables.
    pub fn confidence(&self, signature: u64) -> u32 {
        self.tables
            .iter()
            .enumerate()
            .map(|(t, tab)| u32::from(tab.get(self.index(t, signature))))
            .sum()
    }

    /// Whether `signature` is predicted dead (confidence ≥ threshold).
    pub fn predict(&self, signature: u64) -> bool {
        self.confidence(signature) >= self.threshold
    }

    /// Trains `signature` toward dead (a block it last touched died).
    pub fn train_dead(&mut self, signature: u64) {
        for t in 0..self.tables.len() {
            let i = self.index(t, signature);
            self.tables[t].increment(i);
        }
    }

    /// Trains `signature` toward live (a block it touched was reused).
    pub fn train_live(&mut self, signature: u64) {
        for t in 0..self.tables.len() {
            let i = self.index(t, signature);
            self.tables[t].decrement(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untrained_signature_is_live() {
        let t = SkewedTables::new(TableConfig::skewed());
        assert!(!t.predict(0x1234));
        assert_eq!(t.confidence(0x1234), 0);
    }

    #[test]
    fn saturated_training_predicts_dead() {
        let mut t = SkewedTables::new(TableConfig::skewed());
        for _ in 0..3 {
            t.train_dead(0x42);
        }
        assert_eq!(t.confidence(0x42), 9);
        assert!(t.predict(0x42));
    }

    #[test]
    fn threshold_8_requires_near_saturation() {
        let mut t = SkewedTables::new(TableConfig::skewed());
        t.train_dead(0x42);
        t.train_dead(0x42); // confidence 6
        assert!(!t.predict(0x42));
        t.train_dead(0x42); // 9
        assert!(t.predict(0x42));
        t.train_live(0x42); // 6
        assert!(!t.predict(0x42));
    }

    #[test]
    fn training_one_signature_rarely_disturbs_another() {
        let mut t = SkewedTables::new(TableConfig::skewed());
        for sig in 0..100u64 {
            for _ in 0..3 {
                t.train_dead(sig);
            }
        }
        // Signatures outside the trained set: full-conflict (confidence 9)
        // requires colliding in all three tables, which should essentially
        // never happen for 100 trained signatures in 4096-entry tables.
        let fully_conflicting = (1000..2000u64).filter(|&sig| t.predict(sig)).count();
        assert_eq!(fully_conflicting, 0);
    }

    #[test]
    fn single_table_mode_uses_direct_indexing() {
        let mut t = SkewedTables::new(TableConfig::single());
        t.train_dead(5);
        t.train_dead(5);
        assert!(t.predict(5));
        // Aliased signature (same low 14 bits) shares the entry.
        assert!(t.predict(5 + (1 << 14)));
        // Different index does not.
        assert!(!t.predict(6));
    }

    #[test]
    fn skewed_mode_decorrelates_aliases() {
        let mut t = SkewedTables::new(TableConfig::skewed());
        for _ in 0..3 {
            t.train_dead(5);
        }
        // The single-table alias from the previous test must not be
        // predicted dead under the skewed organization.
        assert!(!t.predict(5 + (1 << 14)));
    }
}
