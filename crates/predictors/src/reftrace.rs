//! The reference-trace dead block predictor (Lai et al., the paper's TDBP).
//!
//! Every cache block carries a 15-bit *signature*: the truncated sum of the
//! PCs of the instructions that accessed it this generation. The theory is
//! that if a given trace of instructions led to the last access of one
//! block, the same trace ends other blocks' lives too. A 2^15-entry table
//! of 2-bit counters maps signatures to dead/live, trained live on every
//! hit (with the pre-update signature) and dead on every eviction.
//!
//! The paper shows this predictor — excellent at the L1/L2 — collapses at
//! the LLC behind a 256 KB mid-level cache, because the L2 filters most of
//! the temporal locality and the surviving per-block reference traces stop
//! being repeatable (§VII-A3). It also charges 16 bits of metadata per
//! cache block (Table I).

use crate::predictor::{CounterTable, DeadBlockPredictor};
use sdbp_cache::policy::Access;
use sdbp_cache::{CacheConfig, MetaPlane};
use sdbp_trace::{BlockAddr, Pc};
use std::borrow::Cow;

/// Signature width in bits (paper §IV-A).
pub const SIGNATURE_BITS: u32 = 15;
/// Dead threshold for the 2-bit counters. The paper measures the
/// reftrace predictor at an aggressive operating point (88% coverage,
/// 19.9% false positives at the LLC, §VII-C); a threshold of 1 — predict
/// dead once a signature has ever been observed to die and not since been
/// out-trained — reproduces that behaviour.
const THRESHOLD: u8 = 1;

/// Optional cache-burst filtering (paper §II-A3, implemented as an
/// extension): when enabled, consecutive accesses to the same block by the
/// same PC are treated as one *burst* and do not extend the signature.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum BurstMode {
    /// Classic reftrace: every access updates the signature.
    EveryAccess,
    /// Burst-filtered: repeated same-PC touches collapse into one update.
    Bursts,
}

/// The reference trace predictor. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct RefTrace {
    table: CounterTable,
    signatures: MetaPlane<u16>,
    last_pc: MetaPlane<u16>,
    mode: BurstMode,
}

impl RefTrace {
    /// Creates the predictor for a cache of the given geometry, with the
    /// paper's 8 KB (2^15 × 2-bit) table.
    pub fn new(config: CacheConfig) -> Self {
        Self::with_mode(config, BurstMode::EveryAccess)
    }

    /// Creates the predictor with explicit burst filtering behaviour.
    pub fn with_mode(config: CacheConfig, mode: BurstMode) -> Self {
        RefTrace {
            table: CounterTable::new(1 << SIGNATURE_BITS, 3),
            signatures: MetaPlane::new(config.sets, config.ways, 0),
            last_pc: MetaPlane::new(config.sets, config.ways, 0),
            mode,
        }
    }

    #[inline]
    fn pc_term(pc: Pc) -> u16 {
        // PCs are 4-byte aligned; drop the always-zero bits for entropy.
        ((pc.raw() >> 2) & ((1 << SIGNATURE_BITS) - 1)) as u16
    }

    #[inline]
    fn extend(sig: u16, pc: Pc) -> u16 {
        (sig.wrapping_add(Self::pc_term(pc))) & ((1 << SIGNATURE_BITS) - 1)
    }

    #[inline]
    fn predict(&self, sig: u16) -> bool {
        self.table.get(sig as usize) >= THRESHOLD
    }
}

impl DeadBlockPredictor for RefTrace {
    fn name(&self) -> Cow<'static, str> {
        match self.mode {
            BurstMode::EveryAccess => Cow::Borrowed("reftrace"),
            BurstMode::Bursts => Cow::Borrowed("reftrace-bursts"),
        }
    }

    #[inline]
    fn on_hit(&mut self, _set: usize, line: usize, access: &Access) -> bool {
        let pc_term = Self::pc_term(access.pc);
        if self.mode == BurstMode::Bursts && self.last_pc[line] == pc_term {
            // Same burst: neither train nor extend.
            return self.predict(self.signatures[line]);
        }
        // The block proved live: the trace recorded so far did not kill it.
        self.table.decrement(self.signatures[line] as usize);
        self.signatures[line] = Self::extend(self.signatures[line], access.pc);
        self.last_pc[line] = pc_term;
        self.predict(self.signatures[line])
    }

    #[inline]
    fn on_miss(&mut self, _set: usize, access: &Access) -> bool {
        // Dead-on-arrival check: the incoming block's signature would start
        // with just this PC.
        self.predict(Self::pc_term(access.pc))
    }

    #[inline]
    fn on_fill(&mut self, _set: usize, line: usize, access: &Access) {
        self.signatures[line] = Self::pc_term(access.pc);
        self.last_pc[line] = Self::pc_term(access.pc);
    }

    #[inline]
    fn on_evict(&mut self, _set: usize, line: usize, _victim: BlockAddr, _access: &Access) {
        // The trace accumulated by the dying block led to its death.
        self.table.increment(self.signatures[line] as usize);
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

    /// Drives one block through fill → hits → eviction.
    fn one_generation(p: &mut RefTrace, line: usize, pcs: &[u64]) {
        p.on_fill(0, line, &acc(pcs[0], 7));
        for &pc in &pcs[1..] {
            p.on_hit(0, line, &acc(pc, 7));
        }
        p.on_evict(0, line, BlockAddr::new(7), &acc(0x999, 8));
    }

    #[test]
    fn learns_repeating_trace() {
        let mut p = RefTrace::new(cfg());
        // Train: the trace [0x400, 0x404, 0x408] always ends a life.
        for _ in 0..4 {
            one_generation(&mut p, 0, &[0x400, 0x404, 0x408]);
        }
        // A new block following the same trace should be predicted dead
        // after its last access.
        p.on_fill(0, 1, &acc(0x400, 9));
        let mid = p.on_hit(0, 1, &acc(0x404, 9));
        let end = p.on_hit(0, 1, &acc(0x408, 9));
        assert!(!mid, "mid-trace must not be predicted dead");
        assert!(end, "end-of-trace must be predicted dead");
    }

    #[test]
    fn live_training_suppresses_prediction() {
        let mut p = RefTrace::new(cfg());
        // Train the 2-PC trace dead...
        for _ in 0..4 {
            one_generation(&mut p, 0, &[0x100, 0x104]);
        }
        // ...then observe blocks surviving past it (a third access): each
        // hit decrements the signature that previously looked dead.
        for _ in 0..8 {
            one_generation(&mut p, 0, &[0x100, 0x104, 0x108]);
        }
        p.on_fill(0, 1, &acc(0x100, 11));
        let after_two = p.on_hit(0, 1, &acc(0x104, 11));
        assert!(!after_two, "trace no longer terminal after live training");
    }

    #[test]
    fn dead_on_arrival_detection() {
        let mut p = RefTrace::new(cfg());
        // Blocks brought in by PC 0x700 and never touched again.
        for _ in 0..4 {
            p.on_fill(0, 0, &acc(0x700, 13));
            p.on_evict(0, 0, BlockAddr::new(13), &acc(0x999, 14));
        }
        assert!(
            p.on_miss(0, &acc(0x700, 15)),
            "streaming PC should be dead-on-arrival"
        );
        assert!(!p.on_miss(0, &acc(0x704, 15)), "unrelated PC should not");
    }

    #[test]
    fn signature_is_order_insensitive_but_content_sensitive() {
        // Truncated *sum*: [a, b] and [b, a] give the same signature, but
        // [a, c] differs.
        let s1 = RefTrace::extend(RefTrace::pc_term(Pc::new(0x400)), Pc::new(0x500));
        let s2 = RefTrace::extend(RefTrace::pc_term(Pc::new(0x500)), Pc::new(0x400));
        let s3 = RefTrace::extend(RefTrace::pc_term(Pc::new(0x400)), Pc::new(0x504));
        assert_eq!(s1, s2);
        assert_ne!(s1, s3);
    }

    #[test]
    fn burst_mode_collapses_same_pc_runs() {
        let mut classic = RefTrace::new(cfg());
        let mut bursts = RefTrace::with_mode(cfg(), BurstMode::Bursts);
        for p in [&mut classic, &mut bursts] {
            p.on_fill(0, 0, &acc(0x400, 3));
            p.on_hit(0, 0, &acc(0x400, 3));
            p.on_hit(0, 0, &acc(0x400, 3));
        }
        // Burst mode: signature still just the fill PC; classic: extended twice.
        assert_eq!(bursts.signatures[0], RefTrace::pc_term(Pc::new(0x400)));
        assert_ne!(classic.signatures[0], bursts.signatures[0]);
    }

    #[test]
    fn names_distinguish_modes() {
        assert_eq!(RefTrace::new(cfg()).name(), "reftrace");
        assert_eq!(
            RefTrace::with_mode(cfg(), BurstMode::Bursts).name(),
            "reftrace-bursts"
        );
    }
}
