//! Re-Reference Interval Prediction [Jaleel et al. ISCA'10].
//!
//! Each line carries a 2-bit re-reference prediction value (RRPV). SRRIP
//! inserts with a *long* interval (RRPV = 2), promotes to *near* (RRPV = 0)
//! on a hit, and evicts a *distant* line (RRPV = 3), aging the set when no
//! distant line exists. BRRIP inserts distant most of the time. DRRIP
//! duels the two; with several cores the duel is per-thread (TA-DRRIP),
//! which is what the paper benchmarks as multi-core RRIP.

use crate::dueling::{DuelingMap, Psel, Role};
use sdbp_cache::policy::{Access, ReplacementPolicy, Victim};
use sdbp_cache::{CacheConfig, MAX_WAYS};
use sdbp_trace::rng::Rng64;
use std::any::Any;
use std::borrow::Cow;

/// Maximum RRPV for 2-bit counters ("distant re-reference").
const RRPV_MAX: u8 = 3;
/// Insertion RRPV for SRRIP ("long re-reference").
const RRPV_LONG: u8 = 2;
/// BRRIP inserts with RRPV_LONG once every 1/epsilon fills.
const BRRIP_EPSILON: f64 = 1.0 / 32.0;
/// Leader sets per policy per core.
const LEADER_SETS: usize = 32;
/// PSEL width.
const PSEL_BITS: u32 = 10;

/// RRPV array plus the victim-selection algorithm shared by all variants.
///
/// One `u32` per set holds the set's 2-bit RRPVs, way `w` in bits
/// `2w..2w + 2`; the lanes past the geometry's ways stay 0 and never age.
#[derive(Clone, Debug)]
struct RrpvArray {
    rrpv: Vec<u32>,
    /// The low bit of every lane the geometry has.
    lanes: u32,
}

impl RrpvArray {
    fn new(config: CacheConfig) -> Self {
        let lanes = 0x5555_5555 >> (2 * (MAX_WAYS - config.ways));
        RrpvArray {
            rrpv: vec![lanes * u32::from(RRPV_MAX); config.sets],
            lanes,
        }
    }

    #[inline]
    fn insert(&mut self, set: usize, way: usize, rrpv: u8) {
        let r = &mut self.rrpv[set];
        *r = *r & !(3 << (2 * way)) | u32::from(rrpv) << (2 * way);
    }

    #[inline]
    fn promote(&mut self, set: usize, way: usize) {
        self.insert(set, way, 0);
    }

    /// SRRIP victim search: the free way if any, else the first distant
    /// line, aging the set until one exists. Aging step by step until
    /// some lane reaches `RRPV_MAX` adds `RRPV_MAX - max` to every lane,
    /// so it is one add, and the victim is the first lane holding the
    /// set's largest RRPV.
    #[inline]
    fn victim(&mut self, set: usize, free: Option<usize>) -> usize {
        if let Some(w) = free {
            return w;
        }
        let r = &mut self.rrpv[set];
        let x = *r;
        let high = x >> 1 & self.lanes;
        let age = if x & high != 0 {
            0
        } else if high != 0 {
            1
        } else if x & self.lanes != 0 {
            2
        } else {
            3
        };
        *r = x + age * self.lanes;
        (*r & *r >> 1 & self.lanes).trailing_zeros() as usize / 2
    }
}

/// Static RRIP: always insert with a long re-reference interval.
///
/// ```
/// use sdbp_cache::{Cache, CacheConfig};
/// use sdbp_replacement::Srrip;
/// let cfg = CacheConfig::llc_2mb();
/// let cache = Cache::with_policy(cfg, Box::new(Srrip::new(cfg)));
/// assert_eq!(cache.policy().name(), "SRRIP");
/// ```
#[derive(Clone, Debug)]
pub struct Srrip {
    rrpv: RrpvArray,
}

impl Srrip {
    /// Creates SRRIP for the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        Srrip {
            rrpv: RrpvArray::new(config),
        }
    }
}

impl ReplacementPolicy for Srrip {
    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("SRRIP")
    }

    #[inline]
    fn on_hit(&mut self, set: usize, way: usize, _access: &Access) {
        self.rrpv.promote(set, way);
    }

    #[inline]
    fn choose_victim(&mut self, set: usize, free: Option<usize>, _access: &Access) -> Victim {
        Victim::Way(self.rrpv.victim(set, free))
    }

    #[inline]
    fn on_fill(&mut self, set: usize, way: usize, _access: &Access) {
        self.rrpv.insert(set, way, RRPV_LONG);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Dynamic RRIP: per-core set dueling between SRRIP and BRRIP insertion.
/// With `cores == 1` this is the single-thread DRRIP of the RRIP paper
/// (the paper's Figure 4/5 "RRIP" bars); with more cores it is TA-DRRIP
/// (the paper's multi-core RRIP).
#[derive(Clone, Debug)]
pub struct Drrip {
    rrpv: RrpvArray,
    map: DuelingMap,
    psels: Vec<Psel>,
    rng: Rng64,
}

impl Drrip {
    /// Creates DRRIP for `cores` cores sharing the cache.
    pub fn new(config: CacheConfig, cores: usize, seed: u64) -> Self {
        let leaders = crate::dip::fit_leaders(config.sets, cores, LEADER_SETS);
        Drrip {
            rrpv: RrpvArray::new(config),
            map: DuelingMap::new(config.sets, cores, leaders),
            psels: vec![Psel::new(PSEL_BITS); cores],
            rng: Rng64::seed_from_u64(seed),
        }
    }

    fn core_index(&self, access: &Access) -> usize {
        (access.core as usize).min(self.map.cores() - 1)
    }

    fn brrip_rrpv(&mut self) -> u8 {
        if self.rng.gen_bool(BRRIP_EPSILON) {
            RRPV_LONG
        } else {
            RRPV_MAX
        }
    }
}

impl ReplacementPolicy for Drrip {
    fn name(&self) -> Cow<'static, str> {
        if self.map.cores() > 1 {
            Cow::Borrowed("TA-DRRIP")
        } else {
            Cow::Borrowed("RRIP")
        }
    }

    #[inline]
    fn on_hit(&mut self, set: usize, way: usize, _access: &Access) {
        self.rrpv.promote(set, way);
    }

    #[inline]
    fn on_miss(&mut self, set: usize, _access: &Access) {
        // All cores' misses in a leader set train the owner's PSEL (see
        // InsertionDueler::on_miss for rationale).
        if let Some((core, role)) = self.map.leader_of(set) {
            match role {
                Role::LeaderBaseline => self.psels[core].baseline_missed(),
                Role::LeaderChallenger => self.psels[core].challenger_missed(),
                Role::Follower => unreachable!("leader_of returned Follower"),
            }
        }
    }

    #[inline]
    fn choose_victim(&mut self, set: usize, free: Option<usize>, _access: &Access) -> Victim {
        Victim::Way(self.rrpv.victim(set, free))
    }

    #[inline]
    fn on_fill(&mut self, set: usize, way: usize, access: &Access) {
        let core = self.core_index(access);
        let use_brrip = match self.map.role(set, core) {
            Role::LeaderBaseline => false,
            Role::LeaderChallenger => true,
            Role::Follower => self.psels[core].challenger_wins(),
        };
        let rrpv = if use_brrip {
            self.brrip_rrpv()
        } else {
            RRPV_LONG
        };
        self.rrpv.insert(set, way, rrpv);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdbp_cache::Cache;
    use sdbp_trace::{AccessKind, BlockAddr, Pc};

    fn acc(block: u64) -> Access {
        Access::demand(Pc::new(0), BlockAddr::new(block), AccessKind::Read, 0)
    }

    #[test]
    fn srrip_victim_prefers_distant_lines() {
        let cfg = CacheConfig::new(1, 4);
        let mut s = Srrip::new(cfg);
        let a = acc(0);
        for w in 0..4 {
            s.on_fill(0, w, &a); // all RRPV = 2
        }
        s.on_hit(0, 2, &a); // way 2 RRPV = 0

        // No distant line: aging bumps everyone; ways 0,1,3 reach 3 first.
        let v = s.choose_victim(0, None, &a);
        assert!(matches!(v, Victim::Way(w) if w != 2));
    }

    #[test]
    fn srrip_scan_resists_thrash_better_than_lru() {
        // Mixed stream: a hot loop whose blocks are touched twice per round
        // (so RRIP learns they are near-re-reference) plus one-shot scan
        // blocks. SRRIP evicts the never-re-referenced scans; LRU lets the
        // scans push the hot blocks out.
        let cfg = CacheConfig::new(16, 4);
        let mut srrip = Cache::with_policy(cfg, Box::new(Srrip::new(cfg)));
        let mut lru = Cache::new(cfg);
        let mut scan_next = 10_000u64;
        let mut srrip_hot_hits = 0u64;
        let mut lru_hot_hits = 0u64;
        for round in 0..200 {
            for b in 0..32u64 {
                let hot = acc(b);
                let s_hit = srrip.access(&hot).is_hit();
                let l_hit = lru.access(&hot).is_hit();
                // Second touch establishes the near-re-reference interval.
                srrip.access(&hot);
                lru.access(&hot);
                if round >= 2 {
                    srrip_hot_hits += u64::from(s_hit);
                    lru_hot_hits += u64::from(l_hit);
                }
                // Two one-shot scan blocks per hot block.
                for _ in 0..2 {
                    let scan = acc(scan_next);
                    scan_next += 1;
                    srrip.access(&scan);
                    lru.access(&scan);
                }
            }
        }
        assert!(
            srrip_hot_hits > 2 * lru_hot_hits.max(1),
            "SRRIP hot hits {srrip_hot_hits} not better than LRU {lru_hot_hits}"
        );
    }

    #[test]
    fn drrip_beats_srrip_on_pure_thrash() {
        // Cyclic loop 4x the cache: BRRIP retains a fraction, SRRIP
        // (inserting everyone at long) behaves close to LRU.
        let cfg = CacheConfig::new(64, 4);
        let mut drrip = Cache::with_policy(cfg, Box::new(Drrip::new(cfg, 1, 3)));
        let mut srrip = Cache::with_policy(cfg, Box::new(Srrip::new(cfg)));
        let blocks = (64 * 4 * 4) as u64;
        for _ in 0..20 {
            for b in 0..blocks {
                drrip.access(&acc(b));
                srrip.access(&acc(b));
            }
        }
        assert!(
            drrip.stats().hits > srrip.stats().hits,
            "DRRIP {} should beat SRRIP {} on thrash",
            drrip.stats().hits,
            srrip.stats().hits
        );
    }

    #[test]
    fn names_reflect_core_count() {
        let cfg = CacheConfig::new(512, 16);
        assert_eq!(Drrip::new(cfg, 1, 0).name(), "RRIP");
        assert_eq!(Drrip::new(cfg, 4, 0).name(), "TA-DRRIP");
    }

    #[test]
    fn drrip_is_deterministic() {
        let run = || {
            let cfg = CacheConfig::new(64, 4);
            let mut c = Cache::with_policy(cfg, Box::new(Drrip::new(cfg, 1, 7)));
            (0..30_000u64)
                .map(|b| c.access(&acc(b % 777)).is_hit())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn aging_terminates_and_chooses_valid_way() {
        let cfg = CacheConfig::new(1, 8);
        let mut s = Srrip::new(cfg);
        let a = acc(0);
        for w in 0..8 {
            s.on_fill(0, w, &a);
            s.on_hit(0, w, &a); // all RRPV = 0
        }
        match s.choose_victim(0, None, &a) {
            Victim::Way(w) => assert!(w < 8),
            Victim::Bypass => panic!("SRRIP never bypasses"),
        }
    }
}
