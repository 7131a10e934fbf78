//! The sampler: a decoupled partial-tag array (paper §III-A/B).
//!
//! The sampler shadows a small subset of LLC sets (one in every
//! `llc_sets / sampler_sets`). Every LLC access to a sampled set — hit or
//! miss — is presented to the sampler, which maintains its own partial tags
//! under LRU, *independently of the LLC's contents and policy*:
//!
//! * sampler **hit**: the entry's previous partial PC is trained *live*
//!   (its block was reused), the entry takes the new PC, and moves to MRU;
//! * sampler **miss**: the LRU (or, when learning from its own evictions,
//!   a predicted-dead) entry is evicted and its last PC trained *dead*;
//!   the new tag is inserted at MRU. Tags never bypass the sampler.
//!
//! Because the sampler's replacement is deterministic LRU, the predictor
//! learns a clean signal even when the LLC itself is randomly replaced —
//! the key to Figures 7/8.

use crate::config::SamplerConfig;
use crate::tables::SkewedTables;
use sdbp_cache::MetaPlane;
use sdbp_trace::{BlockAddr, Pc};

#[derive(Copy, Clone, Debug, Default)]
struct SamplerEntry {
    valid: bool,
    tag: u16,
    pc: u16,
    dead: bool,
    /// 0 = MRU, assoc-1 = LRU.
    lru: u8,
}

/// The sampler tag array. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct Sampler {
    config: SamplerConfig,
    /// One row per sampler set, `assoc` entries wide (the sampler's own
    /// associativity, not the LLC's).
    entries: MetaPlane<SamplerEntry>,
    /// LLC sets per sampler set.
    stride: usize,
    /// Bits of LLC set index below the tag.
    tag_shift: u32,
    hits: u64,
    misses: u64,
}

impl Sampler {
    /// Creates a sampler shadowing an LLC with `llc_sets` sets.
    ///
    /// # Panics
    ///
    /// Panics if the config is invalid or the LLC has fewer sets than the
    /// sampler.
    pub fn new(config: SamplerConfig, llc_sets: usize) -> Self {
        config.validate();
        assert!(
            llc_sets >= config.sets,
            "LLC with {llc_sets} sets cannot be sampled by {} sampler sets",
            config.sets
        );
        let mut entries = MetaPlane::new(config.sets, config.assoc, SamplerEntry::default());
        // Start with a well-formed LRU ordering.
        for set in 0..config.sets {
            for (way, e) in entries.row_mut(set).iter_mut().enumerate() {
                e.lru = way as u8;
            }
        }
        Sampler {
            config,
            entries,
            stride: llc_sets / config.sets,
            tag_shift: llc_sets.trailing_zeros(),
            hits: 0,
            misses: 0,
        }
    }

    /// Maps an LLC set to its sampler set, if sampled.
    pub fn sampler_set(&self, llc_set: usize) -> Option<usize> {
        // Every LLC access asks; the paper geometries have a power-of-two
        // stride, where the test is a mask rather than a division.
        let sampled = if self.stride.is_power_of_two() {
            llc_set & (self.stride - 1) == 0
        } else {
            llc_set.is_multiple_of(self.stride)
        };
        if sampled {
            let s = llc_set / self.stride;
            (s < self.config.sets).then_some(s)
        } else {
            None
        }
    }

    /// Sampler hits observed (diagnostics).
    pub const fn hits(&self) -> u64 {
        self.hits
    }

    /// Sampler misses observed (diagnostics).
    pub const fn misses(&self) -> u64 {
        self.misses
    }

    fn partial_tag(&self, block: BlockAddr) -> u16 {
        // Tag = block address above the LLC set index bits, truncated to
        // the configured partial width. The width must fit the u16 entry
        // field for the truncation to be the mask and nothing more.
        debug_assert!(
            self.config.tag_bits <= 16,
            "partial tag wider than its storage"
        );
        ((block.raw() >> self.tag_shift) & ((1 << self.config.tag_bits) - 1)) as u16
    }

    fn partial_pc(&self, pc: Pc) -> u16 {
        debug_assert!(
            self.config.pc_bits <= 16,
            "partial PC wider than its storage"
        );
        ((pc.raw() >> 2) & ((1 << self.config.pc_bits) - 1)) as u16
    }

    fn promote(&mut self, set: usize, way: usize) {
        debug_assert!(
            way < self.config.assoc,
            "way {way} outside the sampler associativity"
        );
        let row = self.entries.row_mut(set);
        let old = row[way].lru;
        for e in row.iter_mut() {
            if e.lru < old {
                e.lru += 1;
            }
        }
        row[way].lru = 0;
    }

    /// Presents one access to a *sampled* LLC set. Trains `tables` and
    /// returns whether the access hit in the sampler (diagnostics only —
    /// callers should not couple LLC behaviour to this).
    pub fn access(
        &mut self,
        sampler_set: usize,
        block: BlockAddr,
        pc: Pc,
        tables: &mut SkewedTables,
    ) -> bool {
        debug_assert!(sampler_set < self.config.sets);
        let tag = self.partial_tag(block);
        let partial_pc = self.partial_pc(pc);
        let row = self.entries.row_mut(sampler_set);

        // Lookup by partial tag.
        if let Some(way) = row.iter().position(|e| e.valid && e.tag == tag) {
            self.hits += 1;
            let prev_pc = row[way].pc;
            // The block proved live: its previous last-toucher did not kill it.
            tables.train_live(u64::from(prev_pc));
            row[way].pc = partial_pc;
            row[way].dead = tables.predict(u64::from(partial_pc));
            self.promote(sampler_set, way);
            return true;
        }

        self.misses += 1;
        // Victim: invalid way, else (optionally) a predicted-dead entry
        // closest to LRU, else the LRU entry.
        let victim = row
            .iter()
            .position(|e| !e.valid)
            .or_else(|| {
                if self.config.dead_block_victims {
                    row.iter()
                        .enumerate()
                        .filter(|(_, e)| e.dead)
                        .max_by_key(|(_, e)| e.lru)
                        .map(|(w, _)| w)
                } else {
                    None
                }
            })
            .unwrap_or_else(|| {
                row.iter()
                    .enumerate()
                    .max_by_key(|(_, e)| e.lru)
                    .map(|(w, _)| w)
                    .expect("sampler set has at least one way")
            });

        if row[victim].valid {
            // The victim fell out of the sampler's LRU window: its last
            // toucher is trained dead.
            let dead_pc = row[victim].pc;
            tables.train_dead(u64::from(dead_pc));
        }
        let dead = tables.predict(u64::from(partial_pc));
        row[victim] = SamplerEntry {
            valid: true,
            tag,
            pc: partial_pc,
            dead,
            lru: row[victim].lru,
        };
        self.promote(sampler_set, victim);
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TableConfig;

    fn small_sampler(assoc: usize) -> (Sampler, SkewedTables) {
        let cfg = SamplerConfig {
            sets: 2,
            assoc,
            ..SamplerConfig::default()
        };
        (
            Sampler::new(cfg, 128),
            SkewedTables::new(TableConfig::skewed()),
        )
    }

    fn block(i: u64) -> BlockAddr {
        // Distinct partial tags: place bits above bit 11.
        BlockAddr::new(i << 11)
    }

    #[test]
    fn set_mapping_samples_every_strideth_set() {
        let (s, _) = small_sampler(4);
        assert_eq!(s.sampler_set(0), Some(0));
        assert_eq!(s.sampler_set(64), Some(1));
        assert_eq!(s.sampler_set(1), None);
        assert_eq!(s.sampler_set(63), None);
    }

    #[test]
    fn hit_trains_live_and_miss_eviction_trains_dead() {
        let (mut s, mut t) = small_sampler(2);
        let kill_pc = Pc::new(0x500);
        // Fill way A with block 1 (last PC = kill_pc)...
        s.access(0, block(1), kill_pc, &mut t);
        // ...and push it out with two other blocks: eviction trains dead.
        s.access(0, block(2), Pc::new(0x900), &mut t);
        s.access(0, block(3), Pc::new(0x904), &mut t);
        assert!(t.confidence((kill_pc.raw() >> 2) & 0x7fff) > 0);
    }

    #[test]
    fn repeated_death_pattern_becomes_predicted() {
        let (mut s, mut t) = small_sampler(2);
        let kill = Pc::new(0x500);
        for i in 0..10u64 {
            // Each block touched once by the kill PC, then evicted by two
            // fresh blocks.
            s.access(0, block(100 + 3 * i), kill, &mut t);
            s.access(0, block(101 + 3 * i), Pc::new(0x900), &mut t);
            s.access(0, block(102 + 3 * i), Pc::new(0x904), &mut t);
        }
        let sig = (kill.raw() >> 2) & 0x7fff;
        assert!(t.predict(sig), "kill PC should be predicted dead");
        // But the filler PCs also die here; the point is the trained
        // signal appears where deaths happen and reuse suppresses it:
        let (mut s2, mut t2) = small_sampler(2);
        for _ in 0..10 {
            s2.access(0, block(7), Pc::new(0x700), &mut t2); // same block: hits
        }
        assert!(
            !t2.predict((0x700u64 >> 2) & 0x7fff),
            "reused PC stays live"
        );
    }

    #[test]
    fn sampler_is_lru_ordered() {
        let (mut s, mut t) = small_sampler(2);
        s.access(0, block(1), Pc::new(0x100), &mut t);
        s.access(0, block(2), Pc::new(0x104), &mut t);
        // Touch block 1: block 2 becomes LRU.
        assert!(s.access(0, block(1), Pc::new(0x108), &mut t));
        // New block evicts block 2; block 1 must survive.
        s.access(0, block(3), Pc::new(0x10c), &mut t);
        assert!(
            s.access(0, block(1), Pc::new(0x110), &mut t),
            "block 1 evicted out of order"
        );
        assert!(
            !s.access(0, block(2), Pc::new(0x114), &mut t),
            "block 2 should be gone"
        );
    }

    #[test]
    fn sets_are_independent() {
        let (mut s, mut t) = small_sampler(2);
        s.access(0, block(1), Pc::new(0x100), &mut t);
        s.access(1, block(2), Pc::new(0x104), &mut t);
        s.access(1, block(3), Pc::new(0x108), &mut t);
        s.access(1, block(4), Pc::new(0x10c), &mut t);
        // Set 0 content untouched by set 1 evictions.
        assert!(s.access(0, block(1), Pc::new(0x110), &mut t));
    }

    #[test]
    fn partial_tags_alias_as_specified() {
        let (mut s, mut t) = small_sampler(2);
        // Two blocks whose bits 11..26 agree share a partial tag.
        let a = BlockAddr::new(0x123 << 11);
        let b = BlockAddr::new((0x123 << 11) | (1 << 26));
        s.access(0, a, Pc::new(0x100), &mut t);
        assert!(
            s.access(0, b, Pc::new(0x104), &mut t),
            "15-bit partial tags must alias"
        );
    }

    #[test]
    fn hit_miss_counters_accumulate() {
        let (mut s, mut t) = small_sampler(4);
        s.access(0, block(1), Pc::new(0x100), &mut t);
        s.access(0, block(1), Pc::new(0x100), &mut t);
        s.access(0, block(2), Pc::new(0x100), &mut t);
        assert_eq!(s.hits(), 1);
        assert_eq!(s.misses(), 2);
    }

    #[test]
    #[should_panic(expected = "cannot be sampled")]
    fn llc_smaller_than_sampler_rejected() {
        let cfg = SamplerConfig {
            sets: 32,
            ..SamplerConfig::default()
        };
        let _ = Sampler::new(cfg, 16);
    }
}
