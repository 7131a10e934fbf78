//! Counting-based dead block predictors (Kharbutli & Solihin, the paper's
//! CDBP).
//!
//! The Live-time Predictor ([`Lvp`]) counts accesses per block generation.
//! On eviction the count is stored in a table indexed by the hashed fill PC
//! and hashed block address; a one-bit confidence requires the last two
//! generations to agree. A block is predicted dead once it has been
//! accessed as many times as its previous (confident) generation.
//!
//! The Access Interval Predictor ([`Aip`]) is described in the same paper;
//! ours is a faithful-in-spirit implementation provided as an extension
//! (the SDBP paper evaluates only LvP, which it found more accurate).

use crate::hash::mix64;
use crate::predictor::DeadBlockPredictor;
use sdbp_cache::policy::Access;
use sdbp_cache::{CacheConfig, MetaPlane};
use sdbp_trace::{BlockAddr, Pc};
use std::borrow::Cow;

/// Rows/columns are indexed by 8-bit hashes (256 × 256 = 2^16 entries,
/// 5 bits each = 40 KB, matching Table I).
const INDEX_BITS: u32 = 8;
/// Per-generation access counts saturate at 4 bits.
const COUNT_MAX: u8 = 15;

fn hash8(x: u64) -> usize {
    (mix64(x) & ((1 << INDEX_BITS) - 1)) as usize
}

fn table_index(pc: Pc, block: BlockAddr) -> usize {
    (hash8(pc.raw() >> 2) << INDEX_BITS) | hash8(block.raw())
}

#[derive(Copy, Clone, Default, Debug)]
struct LvpEntry {
    /// Access count of the previous generation (the "live time").
    threshold: u8,
    /// Set when the last two generations agreed.
    confident: bool,
}

/// The Live-time Predictor. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct Lvp {
    table: Vec<LvpEntry>,
    /// Per-line: 8-bit hashed fill PC (kept wider here; hardware stores 8
    /// bits, we store the index directly).
    fill_pc: MetaPlane<Pc>,
    /// Per-line access count this generation (including the fill).
    count: MetaPlane<u8>,
}

impl Lvp {
    /// Creates LvP for a cache of the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        Lvp {
            table: vec![LvpEntry::default(); 1 << (2 * INDEX_BITS)],
            fill_pc: MetaPlane::new(config.sets, config.ways, Pc::new(0)),
            count: MetaPlane::new(config.sets, config.ways, 0),
        }
    }

    fn entry(&self, pc: Pc, block: BlockAddr) -> LvpEntry {
        self.table[table_index(pc, block)]
    }

    fn predict(&self, line: usize, block: BlockAddr) -> bool {
        let e = self.entry(self.fill_pc[line], block);
        e.confident && e.threshold > 0 && self.count[line] >= e.threshold
    }
}

impl DeadBlockPredictor for Lvp {
    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("counting")
    }

    #[inline]
    fn on_hit(&mut self, _set: usize, line: usize, access: &Access) -> bool {
        self.count[line] = (self.count[line] + 1).min(COUNT_MAX);
        self.predict(line, access.block)
    }

    #[inline]
    fn on_miss(&mut self, _set: usize, access: &Access) -> bool {
        // Dead on arrival: previous generations were never re-accessed
        // after the fill.
        let e = self.entry(access.pc, access.block);
        e.confident && e.threshold == 1
    }

    #[inline]
    fn on_fill(&mut self, _set: usize, line: usize, access: &Access) {
        self.fill_pc[line] = access.pc;
        self.count[line] = 1; // the fill counts as the first access
    }

    #[inline]
    fn on_evict(&mut self, _set: usize, line: usize, victim: BlockAddr, _access: &Access) {
        let idx = table_index(self.fill_pc[line], victim);
        let e = &mut self.table[idx];
        e.confident = e.threshold == self.count[line];
        e.threshold = self.count[line];
    }
}

/// Learned access interval per (PC, block) bucket, in set-local access
/// ticks, with the same one-bit confidence scheme as LvP.
#[derive(Copy, Clone, Default, Debug)]
struct AipEntry {
    interval: u16,
    confident: bool,
}

/// The Access Interval Predictor: a block is dead once the time since its
/// last access exceeds twice its learned maximum access interval.
#[derive(Clone, Debug)]
pub struct Aip {
    table: Vec<AipEntry>,
    fill_pc: MetaPlane<Pc>,
    block_of: MetaPlane<BlockAddr>,
    last_tick: MetaPlane<u32>,
    max_interval: MetaPlane<u16>,
    /// Per-set (not per-line) access clock, so it stays a plain vector.
    set_tick: Vec<u32>,
    ways: usize,
}

impl Aip {
    /// Creates AIP for a cache of the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        Aip {
            table: vec![AipEntry::default(); 1 << (2 * INDEX_BITS)],
            fill_pc: MetaPlane::new(config.sets, config.ways, Pc::new(0)),
            block_of: MetaPlane::new(config.sets, config.ways, BlockAddr::new(0)),
            last_tick: MetaPlane::new(config.sets, config.ways, 0),
            max_interval: MetaPlane::new(config.sets, config.ways, 0),
            set_tick: vec![0; config.sets],
            ways: config.ways,
        }
    }
}

impl DeadBlockPredictor for Aip {
    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("aip")
    }

    #[inline]
    fn on_hit(&mut self, set: usize, line: usize, access: &Access) -> bool {
        self.set_tick[set] += 1;
        let now = self.set_tick[set];
        let interval = (now - self.last_tick[line]).min(u16::MAX as u32) as u16;
        self.max_interval[line] = self.max_interval[line].max(interval);
        self.last_tick[line] = now;
        self.block_of[line] = access.block;
        false // deadness only manifests through reassess()
    }

    #[inline]
    fn on_miss(&mut self, set: usize, _access: &Access) -> bool {
        self.set_tick[set] += 1;
        false // AIP does not predict dead-on-arrival
    }

    #[inline]
    fn on_fill(&mut self, set: usize, line: usize, access: &Access) {
        self.fill_pc[line] = access.pc;
        self.block_of[line] = access.block;
        self.last_tick[line] = self.set_tick[set];
        self.max_interval[line] = 0;
    }

    #[inline]
    fn on_evict(&mut self, _set: usize, line: usize, victim: BlockAddr, _access: &Access) {
        let idx = table_index(self.fill_pc[line], victim);
        let e = &mut self.table[idx];
        let new = self.max_interval[line];
        // Confidence: the interval is stable across generations (±25%).
        let old = e.interval;
        e.confident = old > 0 && new.abs_diff(old) <= old / 4;
        e.interval = new;
    }

    #[inline]
    fn reassess(&mut self, set: usize) -> Option<u16> {
        let mut dead = 0u16;
        for way in 0..self.ways {
            let line = set * self.ways + way;
            let e = self.table[table_index(self.fill_pc[line], self.block_of[line])];
            let idle = self.set_tick[set].saturating_sub(self.last_tick[line]);
            let idle_dead = e.confident && e.interval != 0 && idle > 2 * u32::from(e.interval);
            dead |= u16::from(idle_dead) << way;
        }
        Some(dead)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdbp_trace::AccessKind;

    fn cfg() -> CacheConfig {
        CacheConfig::new(2, 2)
    }

    fn acc(pc: u64, block: u64) -> Access {
        Access::demand(Pc::new(pc), BlockAddr::new(block), AccessKind::Read, 0)
    }

    fn lvp_generation(p: &mut Lvp, line: usize, pc: u64, block: u64, hits: usize) {
        p.on_fill(0, line, &acc(pc, block));
        for _ in 0..hits {
            p.on_hit(0, line, &acc(0x900, block));
        }
        p.on_evict(0, line, BlockAddr::new(block), &acc(0x999, block + 100));
    }

    #[test]
    fn lvp_predicts_after_stable_generations() {
        let mut p = Lvp::new(cfg());
        // Two generations with 3 accesses each (fill + 2 hits) establish
        // confidence.
        lvp_generation(&mut p, 0, 0x400, 5, 2);
        lvp_generation(&mut p, 0, 0x400, 5, 2);
        // Third generation: dead exactly at the 3rd access.
        p.on_fill(0, 0, &acc(0x400, 5));
        assert!(!p.on_hit(0, 0, &acc(0x900, 5)), "2nd access: still live");
        assert!(p.on_hit(0, 0, &acc(0x900, 5)), "3rd access: predicted dead");
    }

    #[test]
    fn lvp_loses_confidence_on_change() {
        let mut p = Lvp::new(cfg());
        lvp_generation(&mut p, 0, 0x400, 5, 2);
        lvp_generation(&mut p, 0, 0x400, 5, 2);
        lvp_generation(&mut p, 0, 0x400, 5, 7); // live time changed
        p.on_fill(0, 0, &acc(0x400, 5));
        for _ in 0..8 {
            assert!(!p.on_hit(0, 0, &acc(0x900, 5)), "unconfident: never dead");
        }
    }

    #[test]
    fn lvp_dead_on_arrival_for_no_reuse_blocks() {
        let mut p = Lvp::new(cfg());
        // Two generations with zero hits: threshold 1, confident.
        lvp_generation(&mut p, 0, 0x700, 9, 0);
        lvp_generation(&mut p, 0, 0x700, 9, 0);
        assert!(p.on_miss(0, &acc(0x700, 9)));
        assert!(!p.on_miss(0, &acc(0x704, 9)), "different PC bucket");
    }

    #[test]
    fn lvp_distinguishes_blocks_by_address_hash() {
        let mut p = Lvp::new(cfg());
        lvp_generation(&mut p, 0, 0x400, 5, 0);
        lvp_generation(&mut p, 0, 0x400, 5, 0);
        // Same PC, different block: almost surely a different column.
        assert!(!p.on_miss(0, &acc(0x400, 123_456)));
    }

    #[test]
    fn aip_reassesses_idle_lines_as_dead() {
        let mut p = Aip::new(cfg());
        // Generation 1 & 2: accesses 2 ticks apart establish a stable
        // interval.
        for _ in 0..2 {
            p.on_fill(0, 0, &acc(0x400, 5));
            for _ in 0..3 {
                p.on_miss(0, &acc(0x500, 77)); // other traffic: tick
                p.on_hit(0, 0, &acc(0x900, 5));
            }
            p.on_evict(0, 0, BlockAddr::new(5), &acc(0x999, 80));
        }
        // Generation 3: after filling, stay idle well past 2x interval.
        p.on_fill(0, 0, &acc(0x400, 5));
        p.on_miss(0, &acc(0x500, 77));
        assert_eq!(
            p.reassess(0).map(|dead| dead & 1),
            Some(0),
            "not yet idle long enough"
        );
        for _ in 0..20 {
            p.on_miss(0, &acc(0x500, 77));
        }
        assert_eq!(
            p.reassess(0).map(|dead| dead & 1),
            Some(1),
            "long-idle line is dead"
        );
    }

    #[test]
    fn aip_never_predicts_without_confidence() {
        let mut p = Aip::new(cfg());
        p.on_fill(0, 0, &acc(0x400, 5));
        for _ in 0..100 {
            p.on_miss(0, &acc(0x500, 77));
        }
        assert_eq!(p.reassess(0), Some(0));
    }

    #[test]
    fn names() {
        assert_eq!(Lvp::new(cfg()).name(), "counting");
        assert_eq!(Aip::new(cfg()).name(), "aip");
    }
}
