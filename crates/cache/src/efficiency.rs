//! Live/dead-time accounting behind the paper's Figure 1.
//!
//! A block is *live* from its placement until its last access, and *dead*
//! from the last access until eviction (paper §I). Cache efficiency is the
//! fraction of block-frame time spent live. The tracker records, per frame,
//! the accumulated live and total residency time, which reproduces both the
//! Figure 1 greyscale maps and the "blocks are dead on average 86% of the
//! time" headline statistic.

#![expect(
    clippy::indexing_slicing,
    reason = "hot data plane: per-line counters indexed by validated set/way pairs"
)]

use crate::config::CacheConfig;

/// Per-frame live/total time accounting. Time is measured in cache accesses
/// (any monotone clock works; the ratio is unit-free).
#[derive(Clone, Debug)]
pub struct EfficiencyTracker {
    config: CacheConfig,
    fill_time: Vec<u64>,
    last_access: Vec<u64>,
    resident: Vec<bool>,
    live_time: Vec<u64>,
    total_time: Vec<u64>,
}

impl EfficiencyTracker {
    /// Creates a tracker for a cache of the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let n = config.lines();
        EfficiencyTracker {
            config,
            fill_time: vec![0; n],
            last_access: vec![0; n],
            resident: vec![false; n],
            live_time: vec![0; n],
            total_time: vec![0; n],
        }
    }

    fn idx(&self, set: usize, way: usize) -> usize {
        set * self.config.ways + way
    }

    /// A block was placed in `(set, way)` at time `now`.
    pub fn on_fill(&mut self, set: usize, way: usize, now: u64) {
        let i = self.idx(set, way);
        self.fill_time[i] = now;
        self.last_access[i] = now;
        self.resident[i] = true;
    }

    /// The resident block in `(set, way)` was accessed at time `now`.
    pub fn on_hit(&mut self, set: usize, way: usize, now: u64) {
        let i = self.idx(set, way);
        self.last_access[i] = now;
    }

    /// The resident block in `(set, way)` was evicted at time `now`.
    /// Also used at end-of-run to flush still-resident blocks.
    pub fn on_evict(&mut self, set: usize, way: usize, now: u64) {
        let i = self.idx(set, way);
        if !self.resident[i] {
            return;
        }
        self.live_time[i] += self.last_access[i] - self.fill_time[i];
        self.total_time[i] += now - self.fill_time[i];
        self.resident[i] = false;
    }

    /// Efficiency of one frame in `[0, 1]` (1.0 for frames never filled,
    /// matching the convention that an unused frame wastes no live time —
    /// callers typically mask those out via [`EfficiencyTracker::used`]).
    pub fn frame_efficiency(&self, set: usize, way: usize) -> f64 {
        let i = self.idx(set, way);
        if self.total_time[i] == 0 {
            1.0
        } else {
            self.live_time[i] as f64 / self.total_time[i] as f64
        }
    }

    /// Whether the frame ever held an (evicted or flushed) block.
    pub fn used(&self, set: usize, way: usize) -> bool {
        self.total_time[self.idx(set, way)] > 0
    }

    /// Overall cache efficiency: Σ live time / Σ residency time.
    pub fn overall(&self) -> f64 {
        let live: u64 = self.live_time.iter().sum();
        let total: u64 = self.total_time.iter().sum();
        if total == 0 {
            0.0
        } else {
            live as f64 / total as f64
        }
    }

    /// A sets × ways matrix of per-frame efficiencies, for greyscale
    /// rendering (Figure 1).
    // sdbp-allow(flat-metadata): cold reporting accessor building rows for rendering, not per-access state
    pub fn matrix(&self) -> Vec<Vec<f64>> {
        (0..self.config.sets)
            .map(|s| (0..self.config.ways).map(|w| self.frame_efficiency(s, w)).collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> CacheConfig {
        CacheConfig::new(2, 2)
    }

    #[test]
    fn fully_live_block_has_efficiency_one() {
        let mut t = EfficiencyTracker::new(cfg());
        t.on_fill(0, 0, 10);
        t.on_hit(0, 0, 20);
        t.on_evict(0, 0, 20); // evicted exactly at last access
        assert!((t.frame_efficiency(0, 0) - 1.0).abs() < 1e-12);
        assert!(t.used(0, 0));
    }

    #[test]
    fn dead_tail_reduces_efficiency() {
        let mut t = EfficiencyTracker::new(cfg());
        t.on_fill(0, 0, 0);
        t.on_hit(0, 0, 50);
        t.on_evict(0, 0, 100); // live 50, total 100
        assert!((t.frame_efficiency(0, 0) - 0.5).abs() < 1e-12);
        assert!((t.overall() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn never_touched_block_is_fully_dead() {
        let mut t = EfficiencyTracker::new(cfg());
        t.on_fill(0, 0, 0);
        t.on_evict(0, 0, 80); // never hit: live 0
        assert_eq!(t.frame_efficiency(0, 0), 0.0);
    }

    #[test]
    fn multiple_generations_accumulate() {
        let mut t = EfficiencyTracker::new(cfg());
        t.on_fill(0, 0, 0);
        t.on_hit(0, 0, 10);
        t.on_evict(0, 0, 10); // gen 1: 10/10
        t.on_fill(0, 0, 10);
        t.on_evict(0, 0, 40); // gen 2: 0/30
        assert!((t.frame_efficiency(0, 0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn evict_without_fill_is_ignored() {
        let mut t = EfficiencyTracker::new(cfg());
        t.on_evict(0, 1, 99);
        assert!(!t.used(0, 1));
        assert_eq!(t.overall(), 0.0);
    }

    #[test]
    fn matrix_shape_matches_geometry() {
        let t = EfficiencyTracker::new(CacheConfig::new(4, 3));
        let m = t.matrix();
        assert_eq!(m.len(), 4);
        assert!(m.iter().all(|row| row.len() == 3));
    }
}
