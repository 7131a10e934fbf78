//! The fixed L1/L2 front of the memory hierarchy.
//!
//! The paper models a Nehalem-like hierarchy: 32 KB 8-way L1D, 256 KB 8-way
//! unified L2, and the LLC under study. The upper levels always use LRU and
//! are non-inclusive with respect to the LLC; no back-invalidation occurs.
//! Consequently the demand stream reaching the LLC does not depend on the
//! LLC's replacement policy — the property the
//! [recorder](crate::recorder) exploits.
//!
//! Dirty victims are written back one level down (L1 → L2) without
//! allocating on a writeback miss, and L2 dirty victims are written to
//! memory directly; writeback traffic therefore never perturbs the demand
//! stream (see DESIGN.md §2).

use crate::config::CacheConfig;
use crate::lru::LruArray;
use sdbp_trace::BlockAddr;

/// The level at which a demand access was serviced.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum ServiceLevel {
    /// Hit in the L1 data cache.
    L1,
    /// Hit in the L2.
    L2,
    /// Missed both upper levels: the access proceeds to the LLC.
    Llc,
}

/// L1 + L2 pair servicing a single core's demand stream, `L1W`- and
/// `L2W`-way; the paper's pair is 8-way at both levels.
#[derive(Clone, Debug)]
pub struct UpperLevels<const L1W: usize = 8, const L2W: usize = 8> {
    l1: LruArray<L1W>,
    l2: LruArray<L2W>,
    writebacks_to_l2: u64,
}

impl Default for UpperLevels {
    fn default() -> Self {
        Self::new()
    }
}

impl UpperLevels {
    /// Creates the paper's 32 KB L1 / 256 KB L2 pair.
    pub fn new() -> Self {
        Self::with_configs(CacheConfig::l1d(), CacheConfig::l2())
    }
}

impl<const L1W: usize, const L2W: usize> UpperLevels<L1W, L2W> {
    /// Creates a pair with custom geometries (used by tests).
    ///
    /// # Panics
    ///
    /// Panics if `l1` is not `L1W`-way or `l2` is not `L2W`-way.
    pub fn with_configs(l1: CacheConfig, l2: CacheConfig) -> Self {
        UpperLevels {
            l1: LruArray::new(l1),
            l2: LruArray::new(l2),
            writebacks_to_l2: 0,
        }
    }

    /// Presents a demand access; fills both levels on the way back
    /// (write-allocate) and returns where the access was serviced.
    #[inline(always)]
    pub fn access(&mut self, block: BlockAddr, is_write: bool) -> ServiceLevel {
        let l1_out = self.l1.access(block, is_write);
        if l1_out.hit {
            return ServiceLevel::L1;
        }
        // L1 dirty victim is written back into the L2 (no allocate on miss:
        // the probe only updates recency/dirty state if present).
        if let Some(wb) = l1_out.writeback {
            if self.l2.write_back(wb) {
                self.writebacks_to_l2 += 1;
            }
        }
        let l2_out = self.l2.access(block, is_write);
        if l2_out.hit {
            ServiceLevel::L2
        } else {
            ServiceLevel::Llc
        }
    }

    /// L1 hit count.
    pub const fn l1_hits(&self) -> u64 {
        self.l1.hits()
    }

    /// L2 hit count (demand only).
    pub fn l2_hits(&self) -> u64 {
        // Subtract the writeback probes that hit, which are not demand hits.
        self.l2.hits() - self.writebacks_to_l2
    }

    /// Demand accesses that missed both levels.
    pub fn llc_accesses(&self) -> u64 {
        self.l2.misses()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> UpperLevels<2, 4> {
        // L1: 4 blocks, L2: 16 blocks.
        UpperLevels::with_configs(CacheConfig::new(2, 2), CacheConfig::new(4, 4))
    }

    #[test]
    fn first_touch_goes_to_llc() {
        let mut u = tiny();
        assert_eq!(u.access(BlockAddr::new(0), false), ServiceLevel::Llc);
    }

    #[test]
    fn immediate_reuse_hits_l1() {
        let mut u = tiny();
        u.access(BlockAddr::new(0), false);
        assert_eq!(u.access(BlockAddr::new(0), false), ServiceLevel::L1);
    }

    #[test]
    fn l1_capacity_eviction_falls_to_l2() {
        let mut u = tiny();
        // Fill L1 set 0 (blocks 0, 2) then displace 0 with 4.
        u.access(BlockAddr::new(0), false);
        u.access(BlockAddr::new(2), false);
        u.access(BlockAddr::new(4), false);
        // 0 is out of L1 but still in L2.
        assert_eq!(u.access(BlockAddr::new(0), false), ServiceLevel::L2);
    }

    #[test]
    fn l2_filtering_reduces_llc_stream() {
        let mut u = tiny();
        // A loop over 8 blocks fits in L2 (16 blocks) but not L1 (4 blocks).
        let mut llc_accesses = 0;
        for round in 0..4 {
            for b in 0..8u64 {
                if u.access(BlockAddr::new(b * 2), false) == ServiceLevel::Llc {
                    llc_accesses += 1;
                    assert_eq!(round, 0, "LLC access after warmup round");
                }
            }
        }
        assert_eq!(llc_accesses, 8); // cold misses only
        assert_eq!(u.llc_accesses(), 8);
    }

    #[test]
    fn hit_counters_track_levels() {
        let mut u = tiny();
        u.access(BlockAddr::new(0), false); // llc
        u.access(BlockAddr::new(0), false); // l1
        u.access(BlockAddr::new(2), false); // llc
        u.access(BlockAddr::new(4), false); // llc, evicts 0 from L1 set 0
        u.access(BlockAddr::new(0), false); // l2
        assert_eq!(u.l1_hits(), 1);
        assert_eq!(u.l2_hits(), 1);
        assert_eq!(u.llc_accesses(), 3);
    }

    #[test]
    fn writeback_probe_does_not_allocate_in_l2() {
        let mut u = tiny();
        // Dirty block 0 in L1, then force it out of both L1 and L2, then
        // displace it from L1 again: the writeback probe must not
        // re-allocate it in L2.
        u.access(BlockAddr::new(0), true);
        // Evict 0 from L2 (set 0 of L2 holds blocks ≡ 0 mod 4): 0,4,8,12,16.
        for b in [4u64, 8, 16, 24, 32] {
            u.access(BlockAddr::new(b), false);
        }
        assert_eq!(u.access(BlockAddr::new(0), false), ServiceLevel::Llc);
    }
}
