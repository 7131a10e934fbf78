//! A complete three-level hierarchy simulated *together* (no recording),
//! with configurable inclusion and writeback handling.
//!
//! The experiment pipeline uses the faster record-once/replay-per-policy
//! path ([`crate::recorder`]/[`mod@crate::replay`]), which is exact for a
//! non-inclusive hierarchy. This module provides:
//!
//! * the same non-inclusive behaviour in one pass — used by tests to prove
//!   the record/replay decomposition exact;
//! * an **inclusive** LLC mode, where evicting an LLC block
//!   back-invalidates it from L1/L2 (the configuration under which the LLC
//!   stream *does* depend on LLC policy, and hence recording would be
//!   unsound);
//! * optional propagation of L2 **writebacks** into the LLC as write
//!   accesses.

use crate::cache::{AccessOutcome, Cache};
use crate::hierarchy::ServiceLevel;
use crate::lru::LruArray;
use crate::policy::Access;
use crate::CacheConfig;
use sdbp_trace::{AccessKind, BlockAddr, Instr, Pc};

/// Whether the LLC enforces inclusion of the upper levels.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Inclusion {
    /// No relationship is enforced (the paper's configuration, and the one
    /// the recorder exploits).
    NonInclusive,
    /// Every block in L1/L2 is also in the LLC; LLC evictions
    /// back-invalidate the upper levels.
    Inclusive,
}

/// Configuration for a [`FullHierarchy`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct FullHierarchyConfig {
    /// L1 data cache geometry.
    pub l1: CacheConfig,
    /// L2 geometry.
    pub l2: CacheConfig,
    /// Inclusion policy.
    pub inclusion: Inclusion,
    /// If true, L2 dirty victims are written to the LLC (as write
    /// accesses with a sentinel PC); otherwise they go straight to memory.
    pub writebacks_to_llc: bool,
}

impl Default for FullHierarchyConfig {
    fn default() -> Self {
        FullHierarchyConfig {
            l1: CacheConfig::l1d(),
            l2: CacheConfig::l2(),
            inclusion: Inclusion::NonInclusive,
            writebacks_to_llc: false,
        }
    }
}

/// PC attributed to writeback traffic (no instruction performs it).
pub const WRITEBACK_PC: Pc = Pc::new(u64::MAX);

/// The jointly-simulated three-level hierarchy.
#[derive(Debug)]
pub struct FullHierarchy {
    config: FullHierarchyConfig,
    l1: LruArray,
    l2: LruArray,
    llc: Cache,
    back_invalidations: u64,
    llc_writebacks_seen: u64,
    instructions: u64,
}

impl FullHierarchy {
    /// Builds the hierarchy around a caller-configured LLC.
    pub fn new(config: FullHierarchyConfig, llc: Cache) -> Self {
        FullHierarchy {
            config,
            l1: LruArray::new(config.l1),
            l2: LruArray::new(config.l2),
            llc,
            back_invalidations: 0,
            llc_writebacks_seen: 0,
            instructions: 0,
        }
    }

    /// The LLC (for statistics).
    pub fn llc(&self) -> &Cache {
        &self.llc
    }

    /// Back-invalidations performed (inclusive mode only).
    pub const fn back_invalidations(&self) -> u64 {
        self.back_invalidations
    }

    /// Writeback accesses the LLC received.
    pub const fn llc_writebacks(&self) -> u64 {
        self.llc_writebacks_seen
    }

    /// Instructions executed so far.
    pub const fn instructions(&self) -> u64 {
        self.instructions
    }

    fn back_invalidate(&mut self, block: BlockAddr) {
        if self.config.inclusion == Inclusion::Inclusive {
            // Dirty upper-level copies would be written back to memory; for
            // miss accounting only the invalidation matters.
            self.l1.invalidate(block);
            self.l2.invalidate(block);
            self.back_invalidations += 1;
        }
    }

    fn llc_access(&mut self, pc: Pc, block: BlockAddr, kind: AccessKind) -> AccessOutcome {
        let outcome = self.llc.access(&Access::demand(pc, block, kind, 0));
        if let AccessOutcome::Filled {
            evicted: Some(victim),
        } = outcome
        {
            self.back_invalidate(victim);
        }
        outcome
    }

    /// Executes one instruction; returns where its memory reference (if
    /// any) was serviced.
    pub fn execute(&mut self, instr: &Instr) -> Option<ServiceLevel> {
        self.instructions += 1;
        let m = instr.mem?;
        let block = m.addr.block();
        let l1_out = self.l1.access(block, m.kind.is_write());
        if l1_out.hit {
            return Some(ServiceLevel::L1);
        }
        if let Some(wb) = l1_out.writeback {
            // L1 dirty victim updates the L2 if present (no allocation).
            self.l2.write_back(wb);
        }
        let l2_out = self.l2.access(block, m.kind.is_write());
        if let Some(wb) = l2_out.writeback {
            if self.config.writebacks_to_llc {
                self.llc_writebacks_seen += 1;
                self.llc_access(WRITEBACK_PC, wb, AccessKind::Write);
            }
        }
        if l2_out.hit {
            return Some(ServiceLevel::L2);
        }
        self.llc_access(instr.pc, block, m.kind);
        Some(ServiceLevel::Llc)
    }

    /// Checks the inclusion invariant over a list of blocks (test helper):
    /// under [`Inclusion::Inclusive`], anything resident in L1 or L2 must
    /// be in the LLC.
    pub fn inclusion_holds_for(&self, blocks: impl IntoIterator<Item = BlockAddr>) -> bool {
        if self.config.inclusion == Inclusion::NonInclusive {
            return true;
        }
        blocks
            .into_iter()
            .all(|b| (!self.l1.contains(b) && !self.l2.contains(b)) || self.llc.contains(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::record;
    use crate::replay::replay;
    use sdbp_trace::kernel::KernelSpec;
    use sdbp_trace::TraceBuilder;

    fn workload_trace(seed: u64) -> impl Iterator<Item = Instr> {
        TraceBuilder::new(seed)
            .kernel(KernelSpec::streaming(1 << 21))
            .kernel(KernelSpec::hot_set(1 << 15).weight(2.0))
            .kernel(KernelSpec::classed(1 << 19, 2048, vec![(2.0, 1), (1.0, 4)]))
            .build()
    }

    #[test]
    fn non_inclusive_full_sim_matches_record_replay_exactly() {
        // The load-bearing methodology check: simulating all three levels
        // together must give the identical LLC hit/miss sequence as the
        // record-once/replay path.
        let n = 120_000u64;
        let llc_cfg = CacheConfig::new(256, 8);

        let mut full = FullHierarchy::new(FullHierarchyConfig::default(), Cache::new(llc_cfg));
        for i in workload_trace(5).take(usize::try_from(n).unwrap()) {
            full.execute(&i);
        }

        let w = record("w", workload_trace(5), n);
        let mut replay_cache = Cache::new(llc_cfg);
        let r = replay(&w.llc, &mut replay_cache);

        let full_stats = full.llc().stats();
        assert_eq!(full_stats.accesses, r.stats.accesses);
        assert_eq!(full_stats.hits, r.stats.hits);
        assert_eq!(full_stats.misses, r.stats.misses);
        assert_eq!(full_stats.writebacks, r.stats.writebacks);
    }

    #[test]
    fn inclusive_mode_back_invalidates() {
        // A tiny LLC under an ordinary L1/L2 forces LLC evictions of
        // blocks the upper levels still hold.
        let cfg = FullHierarchyConfig {
            inclusion: Inclusion::Inclusive,
            ..FullHierarchyConfig::default()
        };
        let mut full = FullHierarchy::new(cfg, Cache::new(CacheConfig::new(16, 2)));
        let mut blocks = Vec::new();
        for i in workload_trace(9).take(60_000) {
            if let Some(m) = i.mem {
                blocks.push(m.addr.block());
            }
            full.execute(&i);
        }
        assert!(
            full.back_invalidations() > 0,
            "inclusive LLC must back-invalidate"
        );
        blocks.sort_unstable_by_key(|b| b.raw());
        blocks.dedup();
        assert!(
            full.inclusion_holds_for(blocks),
            "inclusion invariant violated"
        );
    }

    #[test]
    fn inclusion_costs_upper_level_hits() {
        // Same stream, inclusive vs non-inclusive with a small LLC: the
        // inclusive hierarchy cannot hit more often at L1.
        let run = |inclusion| {
            let cfg = FullHierarchyConfig {
                inclusion,
                ..FullHierarchyConfig::default()
            };
            let mut full = FullHierarchy::new(cfg, Cache::new(CacheConfig::new(16, 2)));
            let mut l1_hits = 0u64;
            for i in workload_trace(13).take(60_000) {
                if full.execute(&i) == Some(ServiceLevel::L1) {
                    l1_hits += 1;
                }
            }
            l1_hits
        };
        assert!(run(Inclusion::Inclusive) <= run(Inclusion::NonInclusive));
    }

    #[test]
    fn writebacks_reach_the_llc_when_enabled() {
        let cfg = FullHierarchyConfig {
            writebacks_to_llc: true,
            ..Default::default()
        };
        let mut full = FullHierarchy::new(cfg, Cache::new(CacheConfig::new(256, 8)));
        for i in workload_trace(21).take(200_000) {
            full.execute(&i);
        }
        assert!(
            full.llc_writebacks() > 0,
            "write-heavy stream must produce L2 victims"
        );
        // The LLC saw strictly more accesses than the demand-only config.
        let mut demand_only = FullHierarchy::new(
            FullHierarchyConfig::default(),
            Cache::new(CacheConfig::new(256, 8)),
        );
        for i in workload_trace(21).take(200_000) {
            demand_only.execute(&i);
        }
        assert!(full.llc().stats().accesses > demand_only.llc().stats().accesses);
    }

    #[test]
    fn instruction_counter_counts_everything() {
        let mut full = FullHierarchy::new(Default::default(), Cache::new(CacheConfig::new(16, 2)));
        for i in workload_trace(2).take(1000) {
            full.execute(&i);
        }
        assert_eq!(full.instructions(), 1000);
    }
}
