//! Virtual victim cache (paper §II-A1, reference \[10\]: Khan, Jiménez,
//! Falsafi & Burger, PACT 2010).
//!
//! The same authors' companion work uses dead block prediction for a
//! different optimization: instead of *replacing* dead blocks with demand
//! fills, it treats the pool of predicted-dead frames as a **virtual
//! victim cache** — LRU victims evicted from a set are parked in a
//! predicted-dead frame of a *partner set*, and misses probe the partner
//! set before going to memory. Hot sets thereby borrow capacity from cold
//! ones without any dedicated victim-cache storage.
//!
//! This implementation drives the mechanism with the MICRO-43 sampling
//! predictor, exactly as the future-work discussion suggests. It is a
//! standalone simulator over recorded LLC streams (the cross-set block
//! motion does not fit the per-set [`ReplacementPolicy`] interface).
//!
//! [`ReplacementPolicy`]: sdbp_cache::ReplacementPolicy

use crate::config::SdbpConfig;
use crate::predictor::SamplingPredictor;
use sdbp_cache::policy::Access;
use sdbp_cache::recorder::LlcAccess;
use sdbp_cache::CacheConfig;
use sdbp_predictors::DeadBlockPredictor;
use sdbp_trace::BlockAddr;

/// Outcome counters of a VVC run.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct VvcStats {
    /// Hits in the block's home set.
    pub home_hits: u64,
    /// Hits found in the partner set (rescued victims).
    pub victim_hits: u64,
    /// Misses that went to memory.
    pub misses: u64,
    /// Victims parked into partner-set dead frames.
    pub parked: u64,
}

impl VvcStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.home_hits + self.victim_hits + self.misses
    }

    /// All hits (home + victim).
    pub fn hits(&self) -> u64 {
        self.home_hits + self.victim_hits
    }
}

#[derive(Copy, Clone, Default)]
struct Frame {
    valid: bool,
    block: u64,
    /// Set whose resident this frame logically belongs to (== its own set
    /// unless it holds a parked victim).
    dead: bool,
    stamp: u64,
}

/// An LRU LLC whose predicted-dead frames double as a victim cache for
/// the partner set. See the [module docs](self).
pub struct VirtualVictimCache {
    config: CacheConfig,
    frames: Vec<Frame>,
    predictor: SamplingPredictor,
    clock: u64,
    stats: VvcStats,
}

impl std::fmt::Debug for VirtualVictimCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VirtualVictimCache")
            .field("config", &self.config)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl VirtualVictimCache {
    /// Creates a VVC-managed LLC driven by the paper-configured sampling
    /// predictor.
    pub fn new(config: CacheConfig) -> Self {
        VirtualVictimCache {
            config,
            frames: vec![Frame::default(); config.lines()],
            predictor: SamplingPredictor::new(SdbpConfig::paper(), config),
            clock: 0,
            stats: VvcStats::default(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> &VvcStats {
        &self.stats
    }

    fn partner(&self, set: usize) -> usize {
        // Flip the top set-index bit: pairs distant sets, so hot regions
        // borrow from a different part of the index space.
        set ^ (self.config.sets / 2).max(1)
    }

    fn find(&self, set: usize, block: u64) -> Option<usize> {
        let base = set * self.config.ways;
        (0..self.config.ways)
            .map(|w| base + w)
            .find(|&i| self.frames[i].valid && self.frames[i].block == block)
    }

    fn lru_way(&self, set: usize) -> usize {
        let base = set * self.config.ways;
        (0..self.config.ways)
            .min_by_key(|&w| {
                let f = &self.frames[base + w];
                if f.valid {
                    f.stamp
                } else {
                    0
                }
            })
            .expect("ways >= 1")
    }

    /// A predicted-dead frame in `set`, oldest first.
    fn dead_frame(&self, set: usize) -> Option<usize> {
        let base = set * self.config.ways;
        (0..self.config.ways)
            .map(|w| base + w)
            .filter(|&i| !self.frames[i].valid || self.frames[i].dead)
            .min_by_key(|&i| {
                if self.frames[i].valid {
                    self.frames[i].stamp
                } else {
                    0
                }
            })
    }

    /// Presents one access. Probes the home set, then the partner set;
    /// fills into the home set on miss, parking the LRU victim in a dead
    /// partner frame when one exists.
    pub fn access(&mut self, a: &LlcAccess) -> bool {
        self.clock += 1;
        let access = Access::demand(a.pc, a.block, a.kind, a.core);
        let set = a.block.set_index(self.config.sets);
        let block = a.block.raw();

        // Home-set probe.
        if let Some(i) = self.find(set, block) {
            self.stats.home_hits += 1;
            let line = i; // frame index doubles as predictor line id
            let dead = self.predictor.on_hit(set, line, &access);
            let f = &mut self.frames[i];
            f.stamp = self.clock;
            f.dead = dead;
            return true;
        }
        // Partner-set probe (the "virtual victim cache" hit).
        let partner = self.partner(set);
        if let Some(i) = self.find(partner, block) {
            self.stats.victim_hits += 1;
            // Promote back into the home set: swap with the home LRU.
            let home_lru = set * self.config.ways + self.lru_way(set);
            self.frames.swap(i, home_lru);
            let f = &mut self.frames[home_lru];
            f.stamp = self.clock;
            f.dead = false;
            // The displaced home block takes the partner frame (parked).
            self.frames[i].dead = true;
            return true;
        }

        // Miss: train, then fill the home set.
        self.stats.misses += 1;
        self.predictor.on_miss(set, &access);
        let victim_way = self.lru_way(set);
        let victim_idx = set * self.config.ways + victim_way;
        let victim = self.frames[victim_idx];
        if victim.valid {
            self.predictor
                .on_evict(set, victim_idx, BlockAddr::new(victim.block), &access);
            // Park the victim into a predicted-dead partner frame, unless
            // the victim itself is predicted dead (not worth saving).
            if !victim.dead {
                if let Some(p) = self.dead_frame(self.partner(set)) {
                    // Freshly stamped so the parked victim survives the
                    // partner set's own (timestamp-ordered) evictions for
                    // a while; it only ever occupies a dead frame.
                    self.frames[p] = Frame {
                        dead: true,
                        stamp: self.clock,
                        ..victim
                    };
                    self.stats.parked += 1;
                }
            }
        }
        self.predictor.on_fill(set, victim_idx, &access);
        self.frames[victim_idx] = Frame {
            valid: true,
            block,
            dead: false,
            stamp: self.clock,
        };
        false
    }

    /// Runs a whole stream, returning the final statistics.
    pub fn run(stream: &[LlcAccess], config: CacheConfig) -> VvcStats {
        let mut vvc = Self::new(config);
        for a in stream {
            vvc.access(a);
        }
        vvc.stats.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdbp_cache::recorder::record;
    use sdbp_trace::kernel::KernelSpec;
    use sdbp_trace::TraceBuilder;

    fn stream(seed: u64) -> Vec<LlcAccess> {
        let t = TraceBuilder::new(seed)
            // A hot-set-pressure workload: skewed pressure across sets is
            // exactly what VVC exploits.
            .kernel(KernelSpec::hot_set(1 << 18).weight(2.0))
            .kernel(KernelSpec::classed(1 << 21, 3000, vec![(2.0, 1), (1.0, 4)]).variants(4))
            .kernel(KernelSpec::streaming(1 << 22))
            .build();
        record("vvc", t, 400_000).llc
    }

    #[test]
    fn counters_are_consistent() {
        let s = stream(1);
        let stats = VirtualVictimCache::run(&s, CacheConfig::new(128, 8));
        assert_eq!(stats.accesses(), s.len() as u64);
        assert_eq!(stats.hits() + stats.misses, s.len() as u64);
    }

    #[test]
    fn victim_hits_occur_and_reduce_misses_vs_lru_under_set_imbalance() {
        // VVC's win condition: pressure concentrated on a few sets while
        // their partner sets sit idle. Four blocks cycle through the
        // 2-way set 0 of an 8-set cache (pure LRU thrash); set 4 (the
        // partner) is untouched, so its frames host the victims.
        let cfg = CacheConfig::new(8, 2);
        let acc = |b: u64| LlcAccess {
            pc: sdbp_trace::Pc::new(0x400),
            block: BlockAddr::new(b),
            kind: sdbp_trace::AccessKind::Read,
            core: 0,
            instr: 0,
        };
        let mut refs = Vec::new();
        for _ in 0..200 {
            for k in 0..4u64 {
                refs.push(acc(k * 8)); // blocks 0, 8, 16, 24: all set 0
            }
        }
        let stats = VirtualVictimCache::run(&refs, cfg);
        assert!(stats.parked > 0, "victims should be parked");
        assert!(stats.victim_hits > 0, "parked victims should be rescued");
        let lru = sdbp_cache::replay(&refs, &mut sdbp_cache::Cache::new(cfg)).stats;
        assert_eq!(lru.hits, 0, "plain LRU must thrash here");
        assert!(
            stats.misses < lru.misses,
            "VVC ({}) should beat plain LRU ({})",
            stats.misses,
            lru.misses
        );
    }

    #[test]
    fn vvc_does_not_hurt_balanced_workloads_much() {
        // Under uniform pressure there is little to borrow; VVC should be
        // within a few percent of LRU either way.
        let s = stream(2);
        let cfg = CacheConfig::new(128, 8);
        let stats = VirtualVictimCache::run(&s, cfg);
        let lru = sdbp_cache::replay(&s, &mut sdbp_cache::Cache::new(cfg)).stats;
        let ratio = stats.misses as f64 / lru.misses as f64;
        assert!(ratio < 1.10, "VVC degraded a balanced workload by {ratio}");
    }

    #[test]
    fn rescued_block_is_home_again() {
        // Deterministic micro-sequence on a 2-set, 1-way cache: block A's
        // home set is 0; displacing it parks it in set 1; re-access finds
        // it (victim hit), then it hits at home.
        let cfg = CacheConfig::new(2, 1);
        let mut vvc = VirtualVictimCache::new(cfg);
        let acc = |b: u64| LlcAccess {
            pc: sdbp_trace::Pc::new(0x400),
            block: BlockAddr::new(b),
            kind: sdbp_trace::AccessKind::Read,
            core: 0,
            instr: 0,
        };
        assert!(!vvc.access(&acc(0))); // fill set 0
        assert!(!vvc.access(&acc(2))); // set 0 again: evicts 0, parks in set 1
        assert_eq!(vvc.stats().parked, 1);
        assert!(
            vvc.access(&acc(0)),
            "parked block must be found in partner set"
        );
        assert_eq!(vvc.stats().victim_hits, 1);
        assert!(vvc.access(&acc(0)), "rescued block must now hit at home");
        assert_eq!(vvc.stats().home_hits, 1);
    }

    #[test]
    fn run_is_deterministic() {
        let s = stream(3);
        let cfg = CacheConfig::new(64, 8);
        assert_eq!(
            VirtualVictimCache::run(&s, cfg),
            VirtualVictimCache::run(&s, cfg)
        );
    }
}
