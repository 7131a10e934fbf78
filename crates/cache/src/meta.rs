//! The data plane: shared metadata storage for caches and policies.
//!
//! Every replacement policy and dead block predictor keeps some per-line
//! state — recency stamps, RRPVs, PLRU tree bits, dead bits, partial
//! signatures. [`MetaPlane`] is the one storage idiom for all of them: a
//! single contiguous `Vec<T>` holding `sets × width` lanes, addressable
//! either by flat line index (`plane[line]`, the DBRB convention
//! `line = set * ways + way`) or by `(set, lane)` pair, with whole-set
//! slice views for scans. The flat layout is what the hardware equivalent
//! would be — one SRAM array, not a vector of vectors — and keeps every
//! per-set scan on one cache line's worth of metadata.
//!
//! [`HitMap`] is the measurement-plane counterpart: the per-access
//! hit/miss outcome of a replay packed one bit per access (8× smaller
//! than the `Vec<bool>` it replaced, which matters when the parallel
//! engine holds one map per (benchmark, policy) cell in flight).

#![expect(
    clippy::indexing_slicing,
    reason = "hot data plane: metadata arrays sized from the validated cache geometry"
)]

use std::ops::{Index, IndexMut, Range};

/// A contiguous per-set metadata array: `sets` rows of `width` lanes each.
///
/// The width is explicit rather than tied to the cache's associativity
/// because not every structure is per-way: tree-PLRU stores `ways - 1`
/// bits per set and the SDBP sampler has its own associativity.
///
/// ```
/// use sdbp_cache::meta::MetaPlane;
///
/// let mut stamps = MetaPlane::new(2, 4, 0u64);
/// stamps[(1, 2)] = 7;             // (set, lane)
/// assert_eq!(stamps[1 * 4 + 2], 7); // flat line index
/// assert_eq!(stamps.row(1), &[0, 0, 7, 0]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetaPlane<T: Copy> {
    width: usize,
    data: Vec<T>,
}

impl<T: Copy> MetaPlane<T> {
    /// A plane of `sets × width` lanes, all holding `init`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero (a zero-*set* plane is fine and is how
    /// optional structures represent "absent").
    pub fn new(sets: usize, width: usize, init: T) -> Self {
        assert!(width > 0, "metadata plane needs a non-zero row width");
        MetaPlane {
            width,
            data: vec![init; sets * width],
        }
    }

    /// Lanes per set.
    pub const fn width(&self) -> usize {
        self.width
    }

    /// Number of sets (rows).
    pub fn sets(&self) -> usize {
        self.data.len() / self.width
    }

    /// Total number of lanes (`sets × width`).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the plane holds no lanes at all.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// One set's lanes as a slice.
    pub fn row(&self, set: usize) -> &[T] {
        &self.data[set * self.width..(set + 1) * self.width]
    }

    /// One set's lanes as a mutable slice.
    pub fn row_mut(&mut self, set: usize) -> &mut [T] {
        &mut self.data[set * self.width..(set + 1) * self.width]
    }

    /// The whole plane as one flat slice, line-indexed.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Resets every lane to `value`.
    pub fn fill(&mut self, value: T) {
        self.data.fill(value);
    }
}

impl<T: Copy> Index<usize> for MetaPlane<T> {
    type Output = T;

    fn index(&self, line: usize) -> &T {
        &self.data[line]
    }
}

impl<T: Copy> IndexMut<usize> for MetaPlane<T> {
    fn index_mut(&mut self, line: usize) -> &mut T {
        &mut self.data[line]
    }
}

impl<T: Copy> Index<(usize, usize)> for MetaPlane<T> {
    type Output = T;

    fn index(&self, (set, lane): (usize, usize)) -> &T {
        debug_assert!(
            lane < self.width,
            "lane {lane} outside row width {}",
            self.width
        );
        &self.data[set * self.width + lane]
    }
}

impl<T: Copy> IndexMut<(usize, usize)> for MetaPlane<T> {
    fn index_mut(&mut self, (set, lane): (usize, usize)) -> &mut T {
        debug_assert!(
            lane < self.width,
            "lane {lane} outside row width {}",
            self.width
        );
        &mut self.data[set * self.width + lane]
    }
}

/// A packed per-access hit bitmap: one bit per replayed LLC access.
///
/// Bits are append-only (`push`) and trailing bits of the last word are
/// kept zero, so derived equality is exact content equality.
///
/// ```
/// use sdbp_cache::meta::HitMap;
///
/// let hits: HitMap = [true, false, true].into_iter().collect();
/// assert_eq!(hits.len(), 3);
/// assert_eq!(hits.get(1), Some(false));
/// assert_eq!(hits.count_ones(), 2);
/// assert_eq!(hits.iter().collect::<Vec<_>>(), vec![true, false, true]);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HitMap {
    words: Vec<u64>,
    len: usize,
}

impl HitMap {
    /// An empty map.
    pub const fn new() -> Self {
        HitMap {
            words: Vec::new(),
            len: 0,
        }
    }

    /// An empty map with room for `bits` accesses.
    pub fn with_capacity(bits: usize) -> Self {
        HitMap {
            words: Vec::with_capacity(bits.div_ceil(64)),
            len: 0,
        }
    }

    /// A map of `len` copies of `value`.
    pub fn repeat(value: bool, len: usize) -> Self {
        let mut words = vec![if value { u64::MAX } else { 0 }; len.div_ceil(64)];
        if value && !len.is_multiple_of(64) {
            if let Some(last) = words.last_mut() {
                *last = (1u64 << (len % 64)) - 1;
            }
        }
        HitMap { words, len }
    }

    /// Packs an unpacked bool slice.
    pub fn from_bools(bits: &[bool]) -> Self {
        bits.iter().copied().collect()
    }

    /// Appends one outcome.
    pub fn push(&mut self, hit: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        if hit {
            if let Some(word) = self.words.last_mut() {
                *word |= 1u64 << (self.len % 64);
            }
        }
        self.len += 1;
    }

    /// Appends outcomes `range` of `src`, 64 at a time; positions at or
    /// past `src.len()` append misses, so an empty `src` pads with
    /// misses.
    pub fn extend_from_range(&mut self, src: &HitMap, range: Range<usize>) {
        let mut pos = range.start;
        let end = range.end.max(pos);
        self.words
            .reserve((self.len + (end - pos)).div_ceil(64) - self.words.len());
        while pos < end {
            let take = (end - pos).min(64);
            self.push_word(src.word_at(pos) & low_bits(take), take);
            pos += take;
        }
    }

    /// The 64 outcomes starting at access `pos`, bit `i` for access
    /// `pos + i`; accesses past the end read as misses.
    fn word_at(&self, pos: usize) -> u64 {
        let (index, shift) = (pos / 64, pos % 64);
        let word = |i: usize| self.words.get(i).copied().unwrap_or(0);
        match shift {
            0 => word(index),
            _ => word(index) >> shift | word(index + 1) << (64 - shift),
        }
    }

    /// Appends the low `count` bits of `bits` (higher bits must be zero).
    fn push_word(&mut self, bits: u64, count: usize) {
        let shift = self.len % 64;
        if shift == 0 {
            self.words.push(bits);
        } else {
            if let Some(last) = self.words.last_mut() {
                *last |= bits << shift;
            }
            if count > 64 - shift {
                self.words.push(bits >> (64 - shift));
            }
        }
        self.len += count;
    }

    /// The outcome of access `index`, or `None` past the end.
    pub fn get(&self, index: usize) -> Option<bool> {
        if index >= self.len {
            return None;
        }
        self.words
            .get(index / 64)
            .map(|w| (w >> (index % 64)) & 1 == 1)
    }

    /// The packed words: access `i` is bit `i % 64` of word `i / 64`.
    /// Bits past [`len`](Self::len) are zero, so a reader that runs off
    /// the end of the map reads misses.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of accesses recorded.
    pub const fn len(&self) -> usize {
        self.len
    }

    /// Whether no accesses have been recorded.
    pub const fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of hits (set bits).
    pub fn count_ones(&self) -> u64 {
        self.words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// Iterates the outcomes in access order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| {
            self.words
                .get(i / 64)
                .is_some_and(|w| (w >> (i % 64)) & 1 == 1)
        })
    }
}

/// A word with its low `count` bits set (`count` ≤ 64).
const fn low_bits(count: usize) -> u64 {
    match count {
        64.. => u64::MAX,
        _ => (1u64 << count) - 1,
    }
}

impl FromIterator<bool> for HitMap {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut map = HitMap::with_capacity(iter.size_hint().0);
        for bit in iter {
            map.push(bit);
        }
        map
    }
}

impl Extend<bool> for HitMap {
    fn extend<I: IntoIterator<Item = bool>>(&mut self, iter: I) {
        for bit in iter {
            self.push(bit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdbp_trace::rng::Rng64;

    #[test]
    fn plane_indexes_flat_and_by_set() {
        let mut p = MetaPlane::new(4, 3, 0u8);
        assert_eq!((p.sets(), p.width(), p.len()), (4, 3, 12));
        p[(2, 1)] = 9;
        p[11] = 7;
        assert_eq!(p[2 * 3 + 1], 9);
        assert_eq!(p[(3, 2)], 7);
        assert_eq!(p.row(2), &[0, 9, 0]);
        p.row_mut(0).fill(5);
        assert_eq!(p.as_slice()[..3], [5, 5, 5]);
        p.fill(1);
        assert!(p.as_slice().iter().all(|&v| v == 1));
    }

    #[test]
    fn zero_set_plane_is_empty_but_keeps_width() {
        let p = MetaPlane::new(0, 16, 0u16);
        assert!(p.is_empty());
        assert_eq!(p.width(), 16);
        assert_eq!(p.sets(), 0);
    }

    #[test]
    #[should_panic(expected = "non-zero row width")]
    fn zero_width_plane_rejected() {
        let _ = MetaPlane::new(4, 0, 0u8);
    }

    #[test]
    fn hitmap_matches_vec_bool_on_fixed_seed_streams() {
        let mut rng = Rng64::seed_from_u64(0x4b17);
        for _ in 0..32 {
            let bools: Vec<bool> = (0..rng.gen_range(0usize..500))
                .map(|_| rng.gen_bool(0.5))
                .collect();
            let map = HitMap::from_bools(&bools);
            assert_eq!(map.len(), bools.len());
            assert!(map.iter().eq(bools.iter().copied()), "bit-exact mismatch");
            assert_eq!(
                map.count_ones(),
                bools.iter().filter(|&&b| b).count() as u64
            );
            for (i, &b) in bools.iter().enumerate() {
                assert_eq!(map.get(i), Some(b));
            }
            assert_eq!(map.get(bools.len()), None);
        }
    }

    #[test]
    fn hitmap_boundary_lengths() {
        for len in [0usize, 63, 64, 65] {
            let bools: Vec<bool> = (0..len).map(|i| i % 3 == 0).collect();
            let map: HitMap = bools.iter().copied().collect();
            assert_eq!(map.len(), len);
            assert_eq!(map.is_empty(), len == 0);
            assert!(map.iter().eq(bools.iter().copied()), "length {len}");
            // repeat() must mask the tail so equality stays structural.
            let ones = HitMap::repeat(true, len);
            let pushed: HitMap = (0..len).map(|_| true).collect();
            assert_eq!(ones, pushed, "length {len}");
            assert_eq!(
                HitMap::repeat(false, len),
                (0..len).map(|_| false).collect()
            );
        }
    }

    #[test]
    fn hitmap_words_pack_bits_and_zero_the_tail() {
        let bools: Vec<bool> = (0..130).map(|i| i % 5 != 0).collect();
        let map = HitMap::from_bools(&bools);
        assert_eq!(map.words().len(), 3);
        for (i, &b) in bools.iter().enumerate() {
            assert_eq!((map.words()[i / 64] >> (i % 64)) & 1 == 1, b, "bit {i}");
        }
        assert_eq!(map.words()[2] >> 2, 0, "bits past len must read as misses");
        assert_eq!(HitMap::repeat(true, 70).words()[1], 0b11_1111);
    }

    #[test]
    fn hitmap_equality_is_content_equality() {
        let a: HitMap = [true, false].into_iter().collect();
        let b = HitMap::from_bools(&[true, false]);
        let c = HitMap::from_bools(&[true, true]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, HitMap::from_bools(&[true]));
    }

    #[test]
    fn hitmap_range_append_matches_bitwise_append() {
        let mut rng = Rng64::seed_from_u64(0x7a9e);
        let src = HitMap::from_bools(&(0..300).map(|_| rng.gen_bool(0.5)).collect::<Vec<_>>());
        for _ in 0..200 {
            let prefix: Vec<bool> = (0..rng.gen_range(0usize..130))
                .map(|_| rng.gen_bool(0.5))
                .collect();
            let start = rng.gen_range(0usize..320);
            let end = start + rng.gen_range(0usize..200);
            let mut fast = HitMap::from_bools(&prefix);
            fast.extend_from_range(&src, start..end);
            let mut slow = HitMap::from_bools(&prefix);
            slow.extend((start..end).map(|i| src.get(i).unwrap_or(false)));
            // Structural equality also pins the zeroed tail.
            assert_eq!(fast, slow, "prefix {} range {start}..{end}", prefix.len());
        }
        let mut padded = HitMap::from_bools(&[true]);
        padded.extend_from_range(&HitMap::new(), 0..100);
        assert_eq!(padded.len(), 101);
        assert_eq!(padded.count_ones(), 1);
    }

    #[test]
    fn hitmap_extend_appends() {
        let mut map = HitMap::from_bools(&[true]);
        map.extend([false, true]);
        assert_eq!(map, HitMap::from_bools(&[true, false, true]));
    }
}
