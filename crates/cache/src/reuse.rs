//! The set-partitioned reuse-link pass: for each access of a stream, the
//! position of the next access to the same block.
//!
//! Two accesses to one block always map to one set, so the links can be
//! built one set at a time. [`SetPartition`] counting-sorts a stream's
//! block tags by set index (two sequential passes; the sort is stable, so
//! every set keeps its accesses in stream order), and [`NextUse`] links
//! one set's substream in a backward pass through an open-addressing
//! table sized to that substream. The table is allocated once and reused
//! across sets, so it stays cache-resident; no whole-stream map is ever
//! built.
//!
//! This one pass serves three consumers: Belady's MIN (`sdbp-optimal`),
//! its whole-stream `next_use_distances`, and the reuse-distance and
//! first-touch features of [`WindowFingerprint`](crate::WindowFingerprint).
//!
//! ```
//! use sdbp_cache::reuse::{NextUse, SetPartition, NEVER};
//! use sdbp_trace::BlockAddr;
//!
//! // Blocks 0 and 2 share set 0 of a 2-set cache; block 1 is in set 1.
//! let blocks = [0u64, 1, 2, 0, 1].map(BlockAddr::new);
//! let partition = SetPartition::with_origins(blocks, 2);
//! let mut links = NextUse::default();
//! let sets: Vec<(Vec<u32>, Vec<u32>)> = partition
//!     .sets()
//!     .map(|(tags, origins)| (links.link(tags).to_vec(), origins.to_vec()))
//!     .collect();
//! // Set 0 holds stream positions 0, 2, 3; position 0 is next used at set-local 2.
//! assert_eq!(sets[0], (vec![2, NEVER, NEVER], vec![0, 2, 3]));
//! assert_eq!(sets[1], (vec![1, NEVER], vec![1, 4]));
//! ```

#![expect(
    clippy::indexing_slicing,
    reason = "hot data plane: slots are bounded by each set's start offsets and the table mask"
)]

use sdbp_trace::BlockAddr;

/// A set-local position meaning "never referenced again".
pub const NEVER: u32 = u32::MAX;

/// A stream's block tags counting-sorted by set index: set `s` owns slots
/// `starts[s]..starts[s + 1]`, in stream order.
#[derive(Clone, Debug)]
pub struct SetPartition {
    starts: Vec<usize>,
    tags: Vec<u64>,
    /// The stream position of every slot, when built [`with_origins`](Self::with_origins).
    origins: Vec<u32>,
}

impl SetPartition {
    /// Partitions `blocks` over `sets` sets, keeping only the tags.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two.
    pub fn new<I>(blocks: I, sets: usize) -> Self
    where
        I: IntoIterator<Item = BlockAddr>,
        I::IntoIter: Clone,
    {
        Self::build(blocks.into_iter(), sets, false)
    }

    /// Partitions `blocks` over `sets` sets, also keeping each slot's
    /// position in the stream (the sort's permutation).
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two, or if the stream holds
    /// `u32::MAX` or more blocks.
    pub fn with_origins<I>(blocks: I, sets: usize) -> Self
    where
        I: IntoIterator<Item = BlockAddr>,
        I::IntoIter: Clone,
    {
        Self::build(blocks.into_iter(), sets, true)
    }

    /// Counts each set's blocks, then scatters every tag (and, with
    /// `origins`, its stream position) to its set's next free slot.
    fn build<I>(blocks: I, sets: usize, origins: bool) -> Self
    where
        I: Iterator<Item = BlockAddr> + Clone,
    {
        assert!(
            sets.is_power_of_two(),
            "sets must be a power of two, got {sets}"
        );
        let mut starts = vec![0usize; sets + 1];
        for b in blocks.clone() {
            starts[b.set_index(sets) + 1] += 1;
        }
        for s in 0..sets {
            starts[s + 1] += starts[s];
        }
        let len = starts[sets];
        let mut cursor = starts.clone();
        let mut tags = vec![0u64; len];
        let mut positions = Vec::new();
        if origins {
            assert!(
                u32::try_from(len).is_ok_and(|n| n < NEVER),
                "a stream with origins holds fewer than u32::MAX blocks"
            );
            positions = vec![0u32; len];
            for (b, i) in blocks.zip(0u32..) {
                let slot = &mut cursor[b.set_index(sets)];
                tags[*slot] = b.tag(sets);
                positions[*slot] = i;
                *slot += 1;
            }
        } else {
            for b in blocks {
                let slot = &mut cursor[b.set_index(sets)];
                tags[*slot] = b.tag(sets);
                *slot += 1;
            }
        }
        SetPartition {
            starts,
            tags,
            origins: positions,
        }
    }

    /// Each set's tags and their stream positions, in set order. The
    /// positions are empty unless the partition was built
    /// [`with_origins`](Self::with_origins).
    pub fn sets(&self) -> impl Iterator<Item = (&[u64], &[u32])> + '_ {
        self.starts.windows(2).map(|w| {
            let origins = self.origins.get(w[0]..w[1]).unwrap_or(&[]);
            (&self.tags[w[0]..w[1]], origins)
        })
    }
}

/// The backward next-use pass over one set's substream, with its
/// open-addressing table of `(tag, latest position)` slots reused across
/// sets. A slot whose position is [`NEVER`] is empty.
#[derive(Clone, Debug, Default)]
pub struct NextUse {
    slots: Vec<(u64, u32)>,
    next: Vec<u32>,
}

impl NextUse {
    /// Links each of `tags` to the set-local position of the same tag's
    /// next occurrence, [`NEVER`] if none.
    ///
    /// # Panics
    ///
    /// Panics if `tags` holds `u32::MAX` or more entries.
    pub fn link(&mut self, tags: &[u64]) -> &[u32] {
        let len = u32::try_from(tags.len()).unwrap_or(NEVER);
        assert!(len < NEVER, "one set receives fewer than u32::MAX accesses");
        // Load factor at most 1/2, so probe runs stay short; at least two
        // slots, so the hash shift stays below 64.
        let capacity = (2 * tags.len()).next_power_of_two().max(2);
        let shift = 64 - capacity.trailing_zeros();
        self.slots.clear();
        self.slots.resize(capacity, (0, NEVER));
        self.next.clear();
        self.next.resize(tags.len(), NEVER);
        for i in (0..len).rev() {
            let tag = tags[i as usize];
            let mut h = home_slot(tag, shift);
            loop {
                let slot = &mut self.slots[h];
                if slot.1 == NEVER {
                    *slot = (tag, i);
                    break;
                }
                if slot.0 == tag {
                    self.next[i as usize] = slot.1;
                    slot.1 = i;
                    break;
                }
                h = (h + 1) & (capacity - 1);
            }
        }
        &self.next
    }
}

/// Fibonacci hashing: the top `64 - shift` bits of `key × 2^64/φ`. Keys
/// in one table differ in any bits, low ones included, and every key bit
/// reaches the top of the product. The keys come from traces; a crafted
/// trace can make one table's probes long, never wrong.
#[expect(
    clippy::cast_possible_truncation,
    reason = "the shifted hash is below the table capacity, a usize"
)]
pub(crate) const fn home_slot(key: u64, shift: u32) -> usize {
    (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> shift) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Forward-scan links on one whole stream, for comparison.
    fn scan(blocks: &[u64]) -> Vec<Option<usize>> {
        (0..blocks.len())
            .map(|i| (i + 1..blocks.len()).find(|&j| blocks[j] == blocks[i]))
            .collect()
    }

    #[test]
    fn links_map_back_to_forward_scan_for_any_set_count() {
        use sdbp_trace::rng::Rng64;
        let mut rng = Rng64::seed_from_u64(0x5e7_11e5);
        for _ in 0..20 {
            let len = rng.gen_range(0usize..600);
            let footprint = rng.gen_range(1u64..200);
            let blocks: Vec<u64> = (0..len)
                .map(|_| (rng.gen_range(0..footprint) << rng.gen_range(0u64..40)) ^ u64::MAX)
                .collect();
            let expect = scan(&blocks);
            for sets in [1, 2, 64, 2048] {
                let partition =
                    SetPartition::with_origins(blocks.iter().map(|&b| BlockAddr::new(b)), sets);
                let mut links = NextUse::default();
                let mut got = vec![None; len];
                for (tags, origins) in partition.sets() {
                    for (k, &n) in links.link(tags).iter().enumerate() {
                        got[origins[k] as usize] =
                            (n != NEVER).then(|| origins[n as usize] as usize);
                    }
                }
                assert_eq!(got, expect, "{sets} sets");
            }
        }
    }
}
