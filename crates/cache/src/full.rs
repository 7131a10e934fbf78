//! The complete three-level hierarchy simulated *together* (no
//! recording): the oracle for the record/replay decomposition.
//!
//! The experiment pipeline uses the faster record-once/replay-per-policy
//! path ([`crate::recorder`]/[`mod@crate::replay`]), which is exact
//! because the hierarchy is non-inclusive: the LLC's replacement policy
//! never changes what reaches it. [`FullHierarchy`] runs the same L1/L2
//! pair ([`UpperLevels`]) in front of a live LLC in one pass, so a test
//! can check that its LLC sees exactly the recorded stream's hits and
//! misses.

use crate::cache::Cache;
use crate::hierarchy::{ServiceLevel, UpperLevels};
use crate::policy::Access;
use sdbp_trace::Instr;

/// The jointly simulated three-level hierarchy: the paper's L1/L2 in
/// front of a caller-configured LLC.
#[derive(Debug)]
pub struct FullHierarchy {
    upper: UpperLevels,
    llc: Cache,
    instructions: u64,
}

impl FullHierarchy {
    /// Builds the hierarchy around `llc`.
    pub fn new(llc: Cache) -> Self {
        FullHierarchy {
            upper: UpperLevels::new(),
            llc,
            instructions: 0,
        }
    }

    /// The LLC (for statistics).
    pub fn llc(&self) -> &Cache {
        &self.llc
    }

    /// Instructions executed so far.
    pub const fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Executes one instruction; returns where its memory reference (if
    /// any) was serviced.
    pub fn execute(&mut self, instr: &Instr) -> Option<ServiceLevel> {
        self.instructions += 1;
        let m = instr.mem?;
        let block = m.addr.block();
        let level = self.upper.access(block, m.kind.is_write());
        if level == ServiceLevel::Llc {
            self.llc.access(&Access::demand(instr.pc, block, m.kind, 0));
        }
        Some(level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::record;
    use crate::replay::replay;
    use crate::CacheConfig;
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

        let mut full = FullHierarchy::new(Cache::new(llc_cfg));
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
    fn instruction_counter_counts_everything() {
        let mut full = FullHierarchy::new(Cache::new(CacheConfig::new(16, 2)));
        for i in workload_trace(2).take(1000) {
            full.execute(&i);
        }
        assert_eq!(full.instructions(), 1000);
    }
}
