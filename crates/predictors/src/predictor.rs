//! The dead block predictor interface.
//!
//! A predictor is driven by the [`DeadBlockReplacement`](crate::dbrb)
//! policy, which translates LLC events into the four callbacks below.
//! Lines are identified by a flat `line = set * ways + way` index so
//! predictors can keep per-line metadata in plain vectors (mirroring the
//! per-block metadata bits of the hardware proposals).

use sdbp_cache::policy::Access;
use sdbp_trace::BlockAddr;
use std::borrow::Cow;

/// A dead block predictor.
///
/// Return values are the *dead* prediction for the block in question: `true`
/// means the block is predicted not to be referenced again before eviction.
pub trait DeadBlockPredictor {
    /// Display name used in tables ("reftrace", "counting", "sampler").
    fn name(&self) -> Cow<'static, str>;

    /// An access hit the resident block in `line`. Trains the predictor
    /// (the block just proved it was live) and returns the *new* prediction
    /// for the block given this latest access.
    fn on_hit(&mut self, set: usize, line: usize, access: &Access) -> bool;

    /// An access missed in `set`. Returns the dead-on-arrival prediction
    /// for the incoming block (used for bypass).
    fn on_miss(&mut self, set: usize, access: &Access) -> bool;

    /// The incoming block was placed in `line`; initialise per-line state.
    fn on_fill(&mut self, set: usize, line: usize, access: &Access);

    /// The block `victim` in `line` is being evicted (to make room for
    /// `access`'s block). Predictors that learn from evictions train here.
    fn on_evict(&mut self, set: usize, line: usize, victim: BlockAddr, access: &Access);

    /// Time-based predictors (AIP) re-evaluate a line's deadness lazily at
    /// victim-selection time; others return `None` to keep the prediction
    /// made at the line's last access.
    fn reassess(&mut self, set: usize, line: usize) -> Option<bool> {
        let _ = (set, line);
        None
    }
}

/// Coverage/accuracy counters maintained by the DBRB policy on behalf of
/// whatever predictor it drives (paper §VII-C, Figure 9).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct PredictorStats {
    /// Predictor consultations (one per LLC access).
    pub predictions: u64,
    /// Consultations that predicted "dead".
    pub positives: u64,
    /// Positive predictions disproven by a subsequent touch: a hit on a
    /// resident line whose dead bit was set, or a re-access shortly after a
    /// bypass or a dead-block eviction.
    pub false_positives: u64,
}

impl PredictorStats {
    /// Coverage: fraction of consultations that predicted dead.
    pub fn coverage(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.positives as f64 / self.predictions as f64
        }
    }

    /// False positives as a fraction of consultations.
    pub fn false_positive_rate(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.false_positives as f64 / self.predictions as f64
        }
    }
}

/// A 2-bit saturating counter table with threshold-based prediction, the
/// building block of the reftrace and sampling predictors.
#[derive(Clone, Debug)]
pub struct CounterTable {
    counters: Vec<u8>,
    max: u8,
}

impl CounterTable {
    /// Creates `entries` counters saturating at `max`.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or `max` is zero.
    pub fn new(entries: usize, max: u8) -> Self {
        assert!(entries > 0, "counter table needs at least one entry");
        assert!(max > 0, "counter maximum must be positive");
        CounterTable {
            counters: vec![0; entries],
            max,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// True if the table has no entries (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// Current value of entry `i`.
    #[inline]
    pub fn get(&self, i: usize) -> u8 {
        self.counters[i]
    }

    /// Saturating increment ("trained dead").
    #[inline]
    pub fn increment(&mut self, i: usize) {
        let c = &mut self.counters[i];
        *c = c.saturating_add(1).min(self.max);
        debug_assert!(*c <= self.max, "counter {i} escaped its saturation bound");
    }

    /// Saturating decrement ("trained live").
    #[inline]
    pub fn decrement(&mut self, i: usize) {
        let c = &mut self.counters[i];
        *c = c.saturating_sub(1);
        debug_assert!(*c <= self.max, "counter {i} escaped its saturation bound");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_saturates_both_ways() {
        let mut t = CounterTable::new(4, 3);
        for _ in 0..10 {
            t.increment(1);
        }
        assert_eq!(t.get(1), 3);
        for _ in 0..10 {
            t.decrement(1);
        }
        assert_eq!(t.get(1), 0);
        assert_eq!(t.get(0), 0, "other entries untouched");
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn empty_table_rejected() {
        let _ = CounterTable::new(0, 3);
    }

    #[test]
    fn stats_rates() {
        let s = PredictorStats {
            predictions: 100,
            positives: 59,
            false_positives: 3,
        };
        assert!((s.coverage() - 0.59).abs() < 1e-12);
        assert!((s.false_positive_rate() - 0.03).abs() < 1e-12);
        assert_eq!(PredictorStats::default().coverage(), 0.0);
        assert_eq!(PredictorStats::default().false_positive_rate(), 0.0);
    }
}
