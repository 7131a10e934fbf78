//! Belady's MIN replacement extended with optimal bypass (paper §VI-B).
//!
//! Given the complete (recorded) LLC reference stream, MIN evicts the block
//! whose next use is farthest in the future. The paper enhances it with a
//! bypass rule: if the incoming block's next access lies beyond the next
//! accesses of *every* block in the set, the block is not placed at all.
//! The paper reports miss counts (not speedups) for this policy, as do we.
//!
//! # Implementation
//!
//! MIN is exact per set: a set's hits, evictions and bypasses depend only
//! on the accesses that map to it. [`simulate`] therefore never builds a
//! whole-stream map. It runs the shared set-partitioned reuse-link pass
//! of [`sdbp_cache::reuse`] (a stable counting sort of the block tags by
//! set, then one backward next-use pass per set) and, per set, a forward
//! pass that keeps one `ways`-wide frame of next-use positions. A block
//! is resident exactly when a frame holds the position of the access now
//! being served, so frames never store the block itself, and an index
//! from each pending position to its frame makes the residency test one
//! lookup.
//!
//! Positions are `u32` indices local to the set, with `u32::MAX` meaning
//! "never referenced again"; one set may receive at most `u32::MAX - 1`
//! accesses. Local positions keep the stream's relative order, so the
//! bypass rule compares exactly as it would on global indices: a miss in
//! a full set is bypassed when `incoming_next >= victim_next`, where the
//! victim is the frame reused farthest in the future. Ties favour bypass
//! (equal distances mean equal misses, and bypassing avoids a fill); the
//! only possible tie is between blocks never referenced again.
//!
//! [`next_use_distances`] runs the same pass with each slot's stream
//! position kept, and maps the links back to global stream indices.
//!
//! # Example
//!
//! ```
//! use sdbp_cache::{CacheConfig, recorder::LlcAccess};
//! use sdbp_trace::{AccessKind, BlockAddr, Pc};
//! let a = |b: u64| LlcAccess {
//!     pc: Pc::new(0), block: BlockAddr::new(b),
//!     kind: AccessKind::Read, core: 0, instr: 0,
//! };
//! // Single set, 1 way: [0, 1, 0] — MIN bypasses block 1.
//! let stream = vec![a(0), a(1), a(0)];
//! let r = sdbp_optimal::simulate(&stream, CacheConfig::new(1, 1));
//! assert_eq!(r.misses, 2);
//! assert_eq!(r.bypasses, 1);
//! ```

#![warn(clippy::cast_possible_truncation)]
#![warn(missing_debug_implementations)]

use sdbp_cache::recorder::LlcAccess;
use sdbp_cache::reuse::{NextUse, SetPartition, NEVER as LOCAL_NEVER};
use sdbp_cache::CacheConfig;

/// Sentinel meaning "never referenced again".
pub const NEVER: u64 = u64::MAX;

/// Sets [`next_use_distances`] partitions by. Any power of two yields the
/// same links (a block maps to exactly one set); this one is the paper's
/// LLC, which keeps each set's table small.
const NEXT_USE_SETS: usize = 2048;

/// Result of an optimal-policy simulation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct OptimalResult {
    /// Accesses presented.
    pub accesses: u64,
    /// Hits.
    pub hits: u64,
    /// Misses (compulsory + capacity/conflict under MIN).
    pub misses: u64,
    /// Misses whose block was not placed (optimal bypass).
    pub bypasses: u64,
}

impl OptimalResult {
    /// Misses per kilo-instruction for a run of `instructions` instructions.
    pub fn mpki(&self, instructions: u64) -> f64 {
        assert!(instructions > 0, "instruction count must be positive");
        self.misses as f64 * 1000.0 / instructions as f64
    }
}

/// For each access, the index of the next access to the same block
/// ([`NEVER`] if none). O(n): a stable set partition that keeps each
/// slot's `u32` stream position, then one backward pass per set.
///
/// # Panics
///
/// Panics if `stream` holds `u32::MAX` or more accesses.
pub fn next_use_distances(stream: &[LlcAccess]) -> Vec<u64> {
    let partition = SetPartition::with_origins(stream.iter().map(|a| a.block), NEXT_USE_SETS);
    let mut links = NextUse::default();
    let mut next = vec![NEVER; stream.len()];
    for (tags, origins) in partition.sets() {
        for (&at, &n) in origins.iter().zip(links.link(tags)) {
            if n != LOCAL_NEVER {
                next[at as usize] = u64::from(origins[n as usize]);
            }
        }
    }
    next
}

/// Simulates MIN-with-bypass exactly over `stream` for an LLC of geometry
/// `config` (the paper's optimal policy).
///
/// # Panics
///
/// Panics if one set receives `u32::MAX` or more accesses.
pub fn simulate(stream: &[LlcAccess], config: CacheConfig) -> OptimalResult {
    simulate_with_options(stream, config, true)
}

/// Classic Belady MIN without the bypass enhancement: every miss is
/// placed, evicting the resident block reused farthest in the future.
/// Comparing against [`simulate`] isolates the benefit of optimal bypass.
///
/// # Panics
///
/// Panics if one set receives `u32::MAX` or more accesses.
pub fn simulate_no_bypass(stream: &[LlcAccess], config: CacheConfig) -> OptimalResult {
    simulate_with_options(stream, config, false)
}

/// Shared implementation for the two optimal variants.
///
/// # Panics
///
/// Panics if one set receives `u32::MAX` or more accesses.
pub fn simulate_with_options(
    stream: &[LlcAccess],
    config: CacheConfig,
    bypass: bool,
) -> OptimalResult {
    let partition = SetPartition::new(stream.iter().map(|a| a.block), config.sets);
    let mut links = NextUse::default();
    // The resident blocks' next-use positions, one set at a time, and for
    // each position the frame that last took it. The last entry is a sink
    // for `LOCAL_NEVER`; an entry whose frame has since moved on fails the
    // `frames[k] == i` check, as no other access shares its position.
    let mut frames: Vec<u32> = Vec::with_capacity(config.ways);
    let mut holder: Vec<usize> = Vec::new();
    let mut result =
        OptimalResult { accesses: stream.len() as u64, hits: 0, misses: 0, bypasses: 0 };

    for (tags, _) in partition.sets() {
        let next = links.link(tags);
        frames.clear();
        holder.clear();
        holder.resize(next.len() + 1, 0);
        let sink = next.len();
        for (i, &incoming_next) in (0u32..).zip(next) {
            let park = (incoming_next as usize).min(sink);
            // The frame that expected this access holds its block.
            let k = holder[i as usize];
            if frames.get(k) == Some(&i) {
                result.hits += 1;
                frames[k] = incoming_next;
                holder[park] = k;
                continue;
            }
            result.misses += 1;
            if frames.len() < config.ways {
                holder[park] = frames.len();
                frames.push(incoming_next);
                continue;
            }
            // Full set: the victim is the frame with the farthest next use.
            let victim_next = frames.iter().copied().max().unwrap_or(LOCAL_NEVER);
            if bypass && incoming_next >= victim_next {
                // Incoming is re-used no sooner than every resident block:
                // placing it cannot help.
                result.bypasses += 1;
            } else if let Some(k) = frames.iter().position(|&f| f == victim_next) {
                frames[k] = incoming_next;
                holder[park] = k;
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdbp_trace::{AccessKind, BlockAddr, Pc};

    fn acc(block: u64) -> LlcAccess {
        LlcAccess {
            pc: Pc::new(0),
            block: BlockAddr::new(block),
            kind: AccessKind::Read,
            core: 0,
            instr: 0,
        }
    }

    fn stream(blocks: &[u64]) -> Vec<LlcAccess> {
        blocks.iter().copied().map(acc).collect()
    }

    #[test]
    fn next_use_links_are_correct() {
        let s = stream(&[1, 2, 1, 3, 2, 1]);
        assert_eq!(next_use_distances(&s), vec![2, 4, 5, NEVER, NEVER, NEVER]);
    }

    #[test]
    fn all_hits_after_compulsory_when_everything_fits() {
        let s = stream(&[0, 1, 2, 3, 0, 1, 2, 3]);
        let r = simulate(&s, CacheConfig::new(2, 2));
        assert_eq!(r.misses, 4);
        assert_eq!(r.hits, 4);
        assert_eq!(r.bypasses, 0);
    }

    #[test]
    fn belady_beats_lru_on_cyclic_thrash() {
        // Cyclic loop of 2N distinct blocks through an N-block cache:
        // LRU gets 0 hits; MIN keeps N-1 blocks hitting every round.
        let n = 8u64; // 1 set × 8 ways
        let loop_blocks: Vec<u64> = (0..2 * n).collect();
        let mut refs = Vec::new();
        for _ in 0..50 {
            refs.extend_from_slice(&loop_blocks);
        }
        let s = stream(&refs);
        let r = simulate(&s, CacheConfig::new(1, usize::try_from(n).unwrap()));
        // LRU baseline for comparison.
        let mut lru = sdbp_cache::Cache::new(CacheConfig::new(1, usize::try_from(n).unwrap()));
        let lru_res = sdbp_cache::replay(&s, &mut lru);
        assert_eq!(lru_res.stats.hits, 0, "LRU must thrash");
        // MIN retains n-1 of the 2n blocks: hit rate ≈ (n-1)/2n.
        let expect = (50 * 2 * n) as f64 * ((n - 1) as f64 / (2 * n) as f64);
        assert!(
            (r.hits as f64) > 0.9 * expect,
            "MIN hits {} far below expectation {expect}",
            r.hits
        );
    }

    #[test]
    fn never_worse_than_lru_on_random_streams() {
        use sdbp_trace::rng::Rng64;
        let mut rng = Rng64::seed_from_u64(31);
        for trial in 0..10 {
            let refs: Vec<u64> = (0..5_000).map(|_| rng.gen_range(0..300)).collect();
            let s = stream(&refs);
            let cfg = CacheConfig::new(8, 4);
            let opt = simulate(&s, cfg);
            let mut lru = sdbp_cache::Cache::new(cfg);
            let lru_res = sdbp_cache::replay(&s, &mut lru);
            assert!(
                opt.misses <= lru_res.stats.misses,
                "trial {trial}: MIN ({}) worse than LRU ({})",
                opt.misses,
                lru_res.stats.misses
            );
        }
    }

    #[test]
    fn bypass_skips_never_reused_blocks() {
        // Resident pair is reused forever; interleaved singles are not.
        let mut refs = Vec::new();
        for i in 0..100u64 {
            refs.push(0);
            refs.push(2);
            refs.push(1000 + 2 * i); // same set (even), never again
        }
        let s = stream(&refs);
        let r = simulate(&s, CacheConfig::new(2, 2));
        // 0 and 2 miss once; every one-shot block misses and bypasses.
        assert_eq!(r.misses, 2 + 100);
        assert_eq!(r.bypasses, 100);
        assert_eq!(r.hits, 198);
    }

    #[test]
    fn counts_are_consistent() {
        use sdbp_trace::rng::Rng64;
        let mut rng = Rng64::seed_from_u64(5);
        let refs: Vec<u64> = (0..2_000).map(|_| rng.gen_range(0..500)).collect();
        let s = stream(&refs);
        let r = simulate(&s, CacheConfig::new(4, 4));
        assert_eq!(r.hits + r.misses, r.accesses);
        assert!(r.bypasses <= r.misses);
        assert!(r.mpki(1_000_000) > 0.0);
    }

    #[test]
    fn no_bypass_variant_never_bypasses_and_is_at_most_as_good() {
        use sdbp_trace::rng::Rng64;
        let mut rng = Rng64::seed_from_u64(77);
        let refs: Vec<u64> = (0..5_000).map(|_| rng.gen_range(0..400)).collect();
        let s = stream(&refs);
        let cfg = CacheConfig::new(8, 4);
        let with = simulate(&s, cfg);
        let without = simulate_no_bypass(&s, cfg);
        assert_eq!(without.bypasses, 0);
        assert!(with.misses <= without.misses, "bypass must never hurt MIN");
        assert_eq!(without.hits + without.misses, s.len() as u64);
    }

    #[test]
    fn bypass_benefit_appears_on_one_shot_pollution() {
        // Resident pair + one-shot blocks: plain MIN still keeps the pair
        // (it evicts the one-shots), so misses tie — but with a *window* of
        // reuse distance exactly at capacity the bypass wins. Construct:
        // three blocks cycling in a 2-way set plus never-reused pollution.
        let mut refs = Vec::new();
        for i in 0..200u64 {
            refs.push(0);
            refs.push(2);
            refs.push(4); // 3 live blocks in a 2-way set: someone must go
            refs.push(1000 + 2 * i); // one-shot
        }
        let s = stream(&refs);
        let cfg = CacheConfig::new(1, 2);
        let with = simulate(&s, cfg);
        let without = simulate_no_bypass(&s, cfg);
        assert!(with.misses <= without.misses);
        assert!(with.bypasses > 0);
    }

    /// Brute-force MIN sharing no code with the crate: each next use is a
    /// forward scan of the whole stream, and each set's frames are a plain
    /// `Vec` of `(block, next)` searched by block. Quadratic in the stream.
    fn reference(stream: &[LlcAccess], config: CacheConfig, bypass: bool) -> OptimalResult {
        let blocks: Vec<u64> = stream.iter().map(|a| a.block.raw()).collect();
        let next_of = |i: usize| {
            (i + 1..blocks.len()).find(|&j| blocks[j] == blocks[i]).map_or(NEVER, |j| j as u64)
        };
        let mut frames: Vec<Vec<(u64, u64)>> = vec![Vec::new(); config.sets];
        let mut r =
            OptimalResult { accesses: blocks.len() as u64, hits: 0, misses: 0, bypasses: 0 };
        for (i, &block) in blocks.iter().enumerate() {
            let set = &mut frames[usize::try_from(block % config.sets as u64).unwrap()];
            let next = next_of(i);
            if let Some(f) = set.iter_mut().find(|f| f.0 == block) {
                r.hits += 1;
                f.1 = next;
            } else if set.len() < config.ways {
                r.misses += 1;
                set.push((block, next));
            } else {
                r.misses += 1;
                let victim = (0..set.len()).max_by_key(|&k| set[k].1).unwrap();
                if bypass && next >= set[victim].1 {
                    r.bypasses += 1;
                } else {
                    set[victim] = (block, next);
                }
            }
        }
        r
    }

    /// Seeded streams in four shapes: a mixed footprint, mostly one-shot
    /// blocks (many `NEVER` ties), blocks confined to a few sets (the rest
    /// stay empty), and blocks that share their low bits but differ high.
    fn differential_streams() -> Vec<Vec<u64>> {
        use sdbp_trace::rng::Rng64;
        let mut rng = Rng64::seed_from_u64(0x0b7_1de5);
        let mut streams = vec![Vec::new(), vec![7]];
        for _ in 0..6 {
            let len = rng.gen_range(1usize..1500);
            let footprint = rng.gen_range(1u64..600);
            streams.push((0..len).map(|_| rng.gen_range(0..footprint)).collect());
            streams.push(
                (0..len)
                    .map(|i| if rng.gen_bool(0.2) { rng.gen_range(0..8) } else { 1_000 + i as u64 })
                    .collect(),
            );
            streams.push((0..len).map(|_| 128 * rng.gen_range(0..footprint)).collect());
            streams.push(
                (0..len)
                    .map(|_| (rng.gen_range(0..footprint) << 40) | rng.gen_range(0..4))
                    .collect(),
            );
        }
        streams
    }

    #[test]
    fn set_partitioned_min_matches_brute_force_reference() {
        for blocks in differential_streams() {
            let s = stream(&blocks);
            for sets in [1, 8, 64] {
                for ways in [1, 2, 16] {
                    let cfg = CacheConfig::new(sets, ways);
                    assert_eq!(simulate(&s, cfg), reference(&s, cfg, true), "{sets}x{ways} bypass");
                    assert_eq!(
                        simulate_no_bypass(&s, cfg),
                        reference(&s, cfg, false),
                        "{sets}x{ways} no bypass"
                    );
                }
            }
        }
    }

    #[test]
    fn next_use_links_match_forward_scan() {
        for blocks in differential_streams() {
            let expect: Vec<u64> = (0..blocks.len())
                .map(|i| {
                    (i + 1..blocks.len())
                        .find(|&j| blocks[j] == blocks[i])
                        .map_or(NEVER, |j| j as u64)
                })
                .collect();
            assert_eq!(next_use_distances(&stream(&blocks)), expect);
        }
    }

    #[test]
    fn empty_stream_is_empty_result() {
        let r = simulate(&[], CacheConfig::new(4, 4));
        assert_eq!(r, OptimalResult { accesses: 0, hits: 0, misses: 0, bypasses: 0 });
    }
}
