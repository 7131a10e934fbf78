//! Live/dead-time accounting behind the paper's Figure 1.
//!
//! A block is *live* from its placement until its last access, and *dead*
//! from the last access until eviction (paper §I). Cache efficiency is the
//! fraction of block-frame time spent live. [`EfficiencyTracker`] is a
//! [`ReplayProbe`] that records, per frame, the accumulated live and total
//! residency time, which reproduces both the Figure 1 greyscale maps and
//! the "blocks are dead on average 86% of the time" headline statistic.

use crate::cache::AccessOutcome;
use crate::config::CacheConfig;
use crate::recorder::LlcAccess;
use crate::replay::ReplayProbe;

/// One frame's accounting: the fill and last-access times of the block it
/// holds, if any, and the live and total time of its ended generations.
#[derive(Clone, Copy, Default, Debug)]
struct Frame {
    resident: Option<(u64, u64)>,
    live: u64,
    total: u64,
}

impl Frame {
    /// Ends the resident block's generation, if any, at time `now`.
    fn close(&mut self, now: u64) {
        if let Some((fill, last)) = self.resident.take() {
            self.live += last - fill;
            self.total += now - fill;
        }
    }
}

/// Per-frame live/total time accounting, driven as a [`ReplayProbe`].
///
/// Time is measured in accesses: the access at `index` happens at time
/// `index + 1`, and [`finish`](Self::finish) ends every still-resident
/// block at the count of accesses seen (any monotone clock works; the
/// ratio is unit-free). The tracker follows residency from the outcomes
/// alone, so it needs no cache to flush.
///
/// ```
/// use sdbp_cache::efficiency::EfficiencyTracker;
/// use sdbp_cache::replay::replay_with_probe;
/// use sdbp_cache::{Cache, CacheConfig};
/// use sdbp_cache::recorder::record;
/// use sdbp_trace::{kernel::KernelSpec, TraceBuilder};
///
/// let t = TraceBuilder::new(9).kernel(KernelSpec::hot_set(1 << 14)).build();
/// let w = record("demo", t, 20_000);
/// let config = CacheConfig::new(64, 8);
/// let mut tracker = EfficiencyTracker::new(config);
/// replay_with_probe(&w.llc, &mut Cache::new(config), &mut tracker);
/// tracker.finish();
/// assert!((0.0..=1.0).contains(&tracker.overall()));
/// ```
#[derive(Clone, Debug)]
pub struct EfficiencyTracker {
    config: CacheConfig,
    /// Accesses seen: the time of the end-of-run flush.
    seen: u64,
    frames: Vec<Frame>,
}

impl EfficiencyTracker {
    /// Creates a tracker for a cache of the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        EfficiencyTracker {
            config,
            seen: 0,
            frames: vec![Frame::default(); config.lines()],
        }
    }

    /// The index of frame `(set, way)`, if the geometry has it.
    fn index(&self, set: usize, way: usize) -> Option<usize> {
        (way < self.config.ways).then_some(set * self.config.ways + way)
    }

    fn frame_mut(&mut self, set: usize, way: usize) -> Option<&mut Frame> {
        self.index(set, way).and_then(|i| self.frames.get_mut(i))
    }

    /// Ends every still-resident block's generation at the count of
    /// accesses seen, so that it contributes its in-cache time. Call it
    /// once the replay is over; it is idempotent.
    pub fn finish(&mut self) {
        let now = self.seen;
        for frame in &mut self.frames {
            frame.close(now);
        }
    }

    /// The accumulated live and total residency time of frame
    /// `(set, way)`, over generations that ended (by eviction or
    /// [`finish`](Self::finish)); `(0, 0)` outside the geometry.
    pub fn times(&self, set: usize, way: usize) -> (u64, u64) {
        let frame = self.index(set, way).and_then(|i| self.frames.get(i));
        frame.map_or((0, 0), |f| (f.live, f.total))
    }

    /// Efficiency of one frame in `[0, 1]` (1.0 for frames never filled,
    /// matching the convention that an unused frame wastes no live time).
    pub fn frame_efficiency(&self, set: usize, way: usize) -> f64 {
        match self.times(set, way) {
            (_, 0) => 1.0,
            (live, total) => live as f64 / total as f64,
        }
    }

    /// Overall cache efficiency: Σ live time / Σ residency time.
    pub fn overall(&self) -> f64 {
        let live: u64 = self.frames.iter().map(|f| f.live).sum();
        let total: u64 = self.frames.iter().map(|f| f.total).sum();
        if total == 0 {
            0.0
        } else {
            live as f64 / total as f64
        }
    }
}

impl ReplayProbe for EfficiencyTracker {
    /// A hit marks its frame's last access; a fill ends the frame's
    /// previous generation, if any, and starts a new one.
    fn on_outcome(&mut self, index: usize, access: &LlcAccess, outcome: AccessOutcome) {
        self.seen += 1;
        let now = index as u64 + 1;
        let set = access.block.set_index(self.config.sets);
        match outcome {
            AccessOutcome::Hit { way } => {
                let resident = self.frame_mut(set, way).and_then(|f| f.resident.as_mut());
                if let Some((_, last)) = resident {
                    *last = now;
                }
            }
            AccessOutcome::Filled { way, .. } => {
                if let Some(frame) = self.frame_mut(set, way) {
                    frame.close(now);
                    frame.resident = Some((now, now));
                }
            }
            AccessOutcome::Bypassed => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdbp_trace::{AccessKind, BlockAddr, Pc};

    const FILL: AccessOutcome = AccessOutcome::Filled {
        way: 0,
        evicted: None,
    };
    const HIT: AccessOutcome = AccessOutcome::Hit { way: 0 };

    /// A 2-set, 2-way tracker fed `outcomes` for set 0 at the given times.
    fn fed(outcomes: &[(usize, AccessOutcome)]) -> EfficiencyTracker {
        let mut t = EfficiencyTracker::new(CacheConfig::new(2, 2));
        let access = LlcAccess {
            pc: Pc::new(0x400),
            block: BlockAddr::new(0),
            kind: AccessKind::Read,
            core: 0,
            instr: 0,
        };
        for &(now, outcome) in outcomes {
            t.on_outcome(now - 1, &access, outcome);
        }
        t
    }

    #[test]
    fn fully_live_block_has_efficiency_one() {
        let mut t = fed(&[(1, FILL), (2, HIT)]);
        t.finish(); // at the second access: the last one
        assert_eq!(t.times(0, 0), (1, 1));
        assert!((t.frame_efficiency(0, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dead_tail_reduces_efficiency() {
        let t = fed(&[(1, FILL), (51, HIT), (101, FILL)]); // live 50, total 100
        assert!((t.frame_efficiency(0, 0) - 0.5).abs() < 1e-12);
        assert!((t.overall() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn never_touched_block_is_fully_dead() {
        let t = fed(&[(1, FILL), (81, FILL)]); // never hit: live 0
        assert_eq!(t.frame_efficiency(0, 0), 0.0);
    }

    #[test]
    fn multiple_generations_accumulate() {
        // gen 1: 10/10, gen 2: 0/30
        let t = fed(&[(1, FILL), (11, HIT), (11, FILL), (41, FILL)]);
        assert!((t.frame_efficiency(0, 0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn evict_without_fill_is_ignored() {
        let outside = AccessOutcome::Hit { way: 7 };
        let mut t = fed(&[(99, AccessOutcome::Hit { way: 1 }), (99, outside)]);
        t.finish();
        assert_eq!(t.times(0, 1), (0, 0));
        assert_eq!(t.times(0, 7), (0, 0));
        assert_eq!(t.overall(), 0.0);
    }
}
