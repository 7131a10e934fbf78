//! Cache and predictor statistics.

use std::ops::AddAssign;

/// Counters accumulated by a [`Cache`](crate::Cache) plus optional
/// predictor-side counters exported by policies.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Total accesses presented.
    pub accesses: u64,
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Misses whose incoming block was not placed.
    pub bypasses: u64,
    /// Blocks placed.
    pub fills: u64,
    /// Valid blocks displaced by fills.
    pub evictions: u64,
    /// Dirty blocks displaced by fills (write-back traffic).
    pub writebacks: u64,
    /// Positive ("dead") predictions made by a dead block predictor, if the
    /// policy uses one.
    pub predictions_dead: u64,
    /// Positive predictions later disproven by a hit on the same resident
    /// block (false positives), if the policy uses a predictor.
    pub false_positives: u64,
    /// Total predictor consultations, if the policy uses a predictor.
    pub predictions: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; zero when no accesses were recorded.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }

    /// Misses per kilo-instruction given the instruction count of the run.
    ///
    /// # Panics
    ///
    /// Panics if `instructions` is zero.
    pub fn mpki(&self, instructions: u64) -> f64 {
        assert!(instructions > 0, "instruction count must be positive");
        self.misses as f64 * 1000.0 / instructions as f64
    }

    /// Predictor coverage: positive predictions / consultations
    /// (paper §VII-C). Zero when the policy made no predictions.
    pub fn coverage(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.predictions_dead as f64 / self.predictions as f64
        }
    }

    /// False-positive rate: disproven positives / consultations
    /// (paper §VII-C). Zero when the policy made no predictions.
    pub fn false_positive_rate(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.false_positives as f64 / self.predictions as f64
        }
    }
}

impl AddAssign<&CacheStats> for CacheStats {
    fn add_assign(&mut self, rhs: &CacheStats) {
        self.accesses += rhs.accesses;
        self.hits += rhs.hits;
        self.misses += rhs.misses;
        self.bypasses += rhs.bypasses;
        self.fills += rhs.fills;
        self.evictions += rhs.evictions;
        self.writebacks += rhs.writebacks;
        self.predictions_dead += rhs.predictions_dead;
        self.false_positives += rhs.false_positives;
        self.predictions += rhs.predictions;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_zero_denominators() {
        let s = CacheStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.coverage(), 0.0);
        assert_eq!(s.false_positive_rate(), 0.0);
    }

    #[test]
    fn mpki_scales_by_kilo_instruction() {
        let s = CacheStats {
            misses: 50,
            ..Default::default()
        };
        assert!((s.mpki(10_000) - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "instruction count")]
    fn mpki_rejects_zero_instructions() {
        let _ = CacheStats::default().mpki(0);
    }

    #[test]
    fn add_assign_accumulates_all_fields() {
        let mut a = CacheStats {
            accesses: 1,
            hits: 1,
            ..Default::default()
        };
        let b = CacheStats {
            accesses: 2,
            hits: 1,
            misses: 1,
            bypasses: 1,
            fills: 1,
            evictions: 1,
            writebacks: 1,
            predictions_dead: 2,
            false_positives: 1,
            predictions: 5,
        };
        a += &b;
        assert_eq!(a.accesses, 3);
        assert_eq!(a.hits, 2);
        assert_eq!(a.misses, 1);
        assert_eq!(a.predictions, 5);
        assert!((a.coverage() - 0.4).abs() < 1e-12);
        assert!((a.false_positive_rate() - 0.2).abs() < 1e-12);
    }
}
