//! Dynamic Insertion Policy (DIP) and its thread-aware variant (TADIP).
//!
//! DIP [Qureshi et al. ISCA'07] duels LRU insertion (insert at MRU) against
//! the Bimodal Insertion Policy (BIP: insert at LRU, promoting to MRU with
//! probability 1/32), which protects the cache against thrashing working
//! sets. TADIP [Jaleel et al. PACT'08] repeats the duel per thread so
//! thrashing and cache-friendly co-runners can choose independently.

use crate::dueling::{DuelingMap, Psel, Role};
use sdbp_cache::policy::{Access, ReplacementPolicy, Victim};
use sdbp_cache::{CacheConfig, MetaPlane};
use sdbp_trace::rng::Rng64;
use std::any::Any;
use std::borrow::Cow;

/// BIP promotes an insertion to MRU once every `BIP_EPSILON` fills.
const BIP_EPSILON: f64 = 1.0 / 32.0;
/// Leader sets per policy (per core for TADIP), as in the DIP paper.
const LEADER_SETS: usize = 32;
/// PSEL width in bits.
const PSEL_BITS: u32 = 10;

/// Which insertion a fill should use.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Insertion {
    Mru,
    Bip,
}

/// DIP's LRU stack: a 64-bit recency stamp per line.
///
/// Not [`sdbp_cache::policy::Lru`]'s rank permutation: BIP inserts "older
/// than every other line in the set", which in a cold set means stamp
/// `0 - 1`, saturated to 0. Demoted ways of a cold set therefore tie with
/// the never-filled ones, and the lowest way of a tie is the victim. A
/// rank order cannot express the tie, and the golden dip/tadip rows pin
/// it.
#[derive(Clone, Debug)]
struct Stamps {
    stamps: MetaPlane<u64>,
    clock: u64,
}

impl Stamps {
    fn new(config: CacheConfig) -> Self {
        Stamps {
            stamps: MetaPlane::new(config.sets, config.ways, 0),
            clock: 0,
        }
    }

    /// Moves `(set, way)` to the MRU position.
    fn promote(&mut self, set: usize, way: usize) {
        self.clock += 1;
        self.stamps[(set, way)] = self.clock;
    }

    /// Inserts `(set, way)` at the LRU position: one below the oldest
    /// other stamp of the set, saturating at 0.
    fn demote(&mut self, set: usize, way: usize) {
        let min = self
            .stamps
            .row(set)
            .iter()
            .enumerate()
            .filter(|&(w, _)| w != way)
            .map(|(_, &s)| s)
            .min()
            .unwrap_or(0);
        self.stamps[(set, way)] = min.saturating_sub(1);
    }

    /// The oldest way of a full set; the lowest way wins a tie.
    fn lru_way(&self, set: usize) -> usize {
        let row = self.stamps.row(set);
        (0..row.len()).min_by_key(|&w| row[w]).unwrap_or(0)
    }

    fn victim(&self, set: usize, free: Option<usize>) -> Victim {
        Victim::Way(free.unwrap_or_else(|| self.lru_way(set)))
    }
}

/// Shared machinery for DIP/TADIP.
#[derive(Clone, Debug)]
struct InsertionDueler {
    lru: Stamps,
    map: DuelingMap,
    psels: Vec<Psel>,
    rng: Rng64,
}

/// Largest leader count (≤ the requested one) the geometry can host: each
/// group of `sets / leaders` sets must fit two leader slots per core.
pub(crate) fn fit_leaders(sets: usize, cores: usize, requested: usize) -> usize {
    let mut leaders = requested.min(sets / (2 * cores)).max(1);
    // Keep sets / leaders integral by rounding down to a power of two
    // (set counts are powers of two).
    while !leaders.is_power_of_two() {
        leaders -= 1;
    }
    leaders
}

impl InsertionDueler {
    fn new(config: CacheConfig, cores: usize, seed: u64) -> Self {
        let leaders = fit_leaders(config.sets, cores, LEADER_SETS);
        InsertionDueler {
            lru: Stamps::new(config),
            map: DuelingMap::new(config.sets, cores, leaders),
            psels: vec![Psel::new(PSEL_BITS); cores],
            rng: Rng64::seed_from_u64(seed),
        }
    }

    fn core_index(&self, access: &Access) -> usize {
        (access.core as usize).min(self.map.cores() - 1)
    }

    fn on_miss(&mut self, set: usize, _access: &Access) {
        // Every miss in a leader set trains the owning core's PSEL (all
        // cores' misses count, so cross-core benefits of the owner's
        // insertion choice register — the TADIP-F feedback).
        if let Some((core, role)) = self.map.leader_of(set) {
            match role {
                Role::LeaderBaseline => self.psels[core].baseline_missed(),
                Role::LeaderChallenger => self.psels[core].challenger_missed(),
                Role::Follower => unreachable!("leader_of returned Follower"),
            }
        }
    }

    fn insertion_for(&mut self, set: usize, access: &Access) -> Insertion {
        let core = self.core_index(access);
        match self.map.role(set, core) {
            Role::LeaderBaseline => Insertion::Mru,
            Role::LeaderChallenger => Insertion::Bip,
            Role::Follower => {
                if self.psels[core].challenger_wins() {
                    Insertion::Bip
                } else {
                    Insertion::Mru
                }
            }
        }
    }

    fn fill(&mut self, set: usize, way: usize, access: &Access) {
        match self.insertion_for(set, access) {
            Insertion::Mru => self.lru.promote(set, way),
            Insertion::Bip => {
                if self.rng.gen_bool(BIP_EPSILON) {
                    self.lru.promote(set, way);
                } else {
                    self.lru.demote(set, way);
                }
            }
        }
    }
}

/// Single-core DIP with 32 leader sets per policy and a 10-bit PSEL.
///
/// ```
/// use sdbp_cache::{Cache, CacheConfig};
/// use sdbp_replacement::Dip;
/// let cfg = CacheConfig::llc_2mb();
/// let cache = Cache::with_policy(cfg, Box::new(Dip::new(cfg, 1)));
/// assert_eq!(cache.policy().name(), "DIP");
/// ```
#[derive(Clone, Debug)]
pub struct Dip {
    inner: InsertionDueler,
}

impl Dip {
    /// Creates DIP for the given geometry.
    pub fn new(config: CacheConfig, seed: u64) -> Self {
        Dip {
            inner: InsertionDueler::new(config, 1, seed),
        }
    }
}

impl ReplacementPolicy for Dip {
    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("DIP")
    }

    fn on_hit(&mut self, set: usize, way: usize, _access: &Access) {
        self.inner.lru.promote(set, way);
    }

    fn on_miss(&mut self, set: usize, access: &Access) {
        self.inner.on_miss(set, access);
    }

    fn choose_victim(&mut self, set: usize, free: Option<usize>, _access: &Access) -> Victim {
        self.inner.lru.victim(set, free)
    }

    fn on_fill(&mut self, set: usize, way: usize, access: &Access) {
        self.inner.fill(set, way, access);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Thread-aware DIP: per-core leader sets and PSELs (TADIP-F).
#[derive(Clone, Debug)]
pub struct Tadip {
    inner: InsertionDueler,
}

impl Tadip {
    /// Creates TADIP for `cores` cores sharing the cache.
    pub fn new(config: CacheConfig, cores: usize, seed: u64) -> Self {
        Tadip {
            inner: InsertionDueler::new(config, cores, seed),
        }
    }
}

impl ReplacementPolicy for Tadip {
    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("TADIP")
    }

    fn on_hit(&mut self, set: usize, way: usize, _access: &Access) {
        self.inner.lru.promote(set, way);
    }

    fn on_miss(&mut self, set: usize, access: &Access) {
        self.inner.on_miss(set, access);
    }

    fn choose_victim(&mut self, set: usize, free: Option<usize>, _access: &Access) -> Victim {
        self.inner.lru.victim(set, free)
    }

    fn on_fill(&mut self, set: usize, way: usize, access: &Access) {
        self.inner.fill(set, way, access);
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

    fn dip_cache(sets: usize, ways: usize) -> Cache {
        let cfg = CacheConfig::new(sets, ways);
        Cache::with_policy(cfg, Box::new(Dip::new(cfg, 3)))
    }

    #[test]
    fn behaves_like_lru_on_friendly_stream() {
        // A loop that fits: DIP should converge to (or keep) MRU insertion
        // and match LRU's perfect hit rate after warmup.
        let mut dip = dip_cache(64, 4);
        let mut lru = Cache::new(CacheConfig::new(64, 4));
        let blocks = 64 * 4;
        for _ in 0..20 {
            for b in 0..blocks as u64 {
                dip.access(&acc(b));
                lru.access(&acc(b));
            }
        }
        let dh = dip.stats().hits as f64;
        let lh = lru.stats().hits as f64;
        assert!(dh >= 0.95 * lh, "DIP hits {dh} far below LRU {lh}");
    }

    #[test]
    fn beats_lru_on_thrashing_stream() {
        // Cyclic loop slightly larger than the cache: LRU gets zero hits,
        // BIP retains a resident fraction.
        let mut dip = dip_cache(64, 4);
        let mut lru = Cache::new(CacheConfig::new(64, 4));
        let blocks = (64 * 4 * 2) as u64;
        for _ in 0..30 {
            for b in 0..blocks {
                dip.access(&acc(b));
                lru.access(&acc(b));
            }
        }
        assert!(
            dip.stats().hits > lru.stats().hits + 1000,
            "DIP ({}) should beat LRU ({}) on a thrashing loop",
            dip.stats().hits,
            lru.stats().hits
        );
    }

    #[test]
    fn tadip_isolates_thrashing_core() {
        // Core 0 thrashes, core 1 runs a friendly loop. TADIP should let
        // core 1 keep near-perfect hits.
        let cfg = CacheConfig::new(64, 4);
        let mut cache = Cache::with_policy(cfg, Box::new(Tadip::new(cfg, 2, 3)));
        let friendly_blocks = 32u64;
        let thrash_blocks = 4096u64;
        let mut friendly_hits = 0u64;
        let mut friendly_refs = 0u64;
        for round in 0..60 {
            for i in 0..thrash_blocks {
                cache.access(&Access::demand(
                    Pc::new(1),
                    BlockAddr::new(1_000_000 + (i % thrash_blocks)),
                    AccessKind::Read,
                    0,
                ));
                if i % 16 == 0 {
                    let b = (i / 16) % friendly_blocks;
                    let hit = cache
                        .access(&Access::demand(
                            Pc::new(2),
                            BlockAddr::new(b),
                            AccessKind::Read,
                            1,
                        ))
                        .is_hit();
                    if round >= 30 {
                        friendly_refs += 1;
                        friendly_hits += u64::from(hit);
                    }
                }
            }
        }
        let rate = friendly_hits as f64 / friendly_refs as f64;
        assert!(
            rate > 0.5,
            "friendly core hit rate {rate} too low under TADIP"
        );
    }

    #[test]
    fn demote_makes_way_next_victim() {
        let mut lru = Stamps::new(CacheConfig::new(1, 4));
        for way in 0..4 {
            lru.promote(0, way);
        }
        lru.demote(0, 3);
        assert_eq!(lru.victim(0, None), Victim::Way(3));
    }

    /// BIP insertion into a cold set: every demoted way ties at stamp 0
    /// with the still-empty ways, so the lowest way is the victim, not the
    /// way demoted last. A rank-only LRU would pick way 3 here.
    #[test]
    fn bip_fills_of_a_cold_set_tie_at_the_bottom() {
        let mut lru = Stamps::new(CacheConfig::new(1, 4));
        for way in 0..4 {
            lru.demote(0, way);
        }
        assert_eq!(lru.stamps.row(0), &[0, 0, 0, 0]);
        assert_eq!(lru.victim(0, None), Victim::Way(0));
        lru.promote(0, 0);
        assert_eq!(lru.victim(0, None), Victim::Way(1));
        // A demotion below a promoted way still ties at 0 with ways 2 and 3.
        lru.demote(0, 1);
        assert_eq!(lru.victim(0, None), Victim::Way(1));
        assert_eq!(lru.victim(0, Some(2)), Victim::Way(2));
    }

    /// The same tie through the policy: a challenger (BIP) leader set of a
    /// cold 4-way cache filled by four misses evicts way 0 on the fifth.
    #[test]
    fn dip_challenger_set_evicts_the_lowest_tied_way() {
        let cfg = CacheConfig::new(64, 4);
        let dip = Dip::new(cfg, 3);
        let set = (0..cfg.sets)
            .find(|&s| dip.inner.map.role(s, 0) == Role::LeaderChallenger)
            .expect("DIP has challenger leader sets");
        let blocks: Vec<u64> = (0..5).map(|i| (set + i * cfg.sets) as u64).collect();
        // The four fills are the only draws on the insertion RNG; with this
        // seed none of them takes BIP's 1/32 promotion.
        let mut draws = dip.inner.rng.clone();
        assert!((0..4).all(|_| !draws.gen_bool(BIP_EPSILON)));
        let mut cache = Cache::with_policy(cfg, Box::new(dip));
        for &b in &blocks[..4] {
            cache.access(&acc(b));
        }
        assert_eq!(
            cache.access(&acc(blocks[4])),
            sdbp_cache::AccessOutcome::Filled {
                way: 0,
                evicted: Some(BlockAddr::new(blocks[0]))
            },
            "the lowest tied way is the victim"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let cfg = CacheConfig::new(64, 4);
            let mut c = Cache::with_policy(cfg, Box::new(Dip::new(cfg, seed)));
            (0..20_000u64)
                .map(|b| c.access(&acc(b % 511)).is_hit())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
    }
}
