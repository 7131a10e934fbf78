//! Small integer hashes used to index prediction tables.
//!
//! All predictor tables are indexed by hashes of PCs, signatures, or block
//! addresses. These are cheap multiplicative/xor-fold mixers: in hardware
//! they correspond to a few XOR gates over bit subsets, which is what the
//! skewed-predictor literature assumes.

/// Finalizing mixer (Stafford's Mix13 variant of SplitMix64).
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Folds a 64-bit value down to `bits` bits by XOR of all `bits`-wide
/// chunks.
///
/// The chunks are combined by doubling shifts (`bits`, `2 * bits`,
/// `4 * bits`, ...) until the shift reaches 64, so the step count is
/// `ceil(log2(64 / bits))` whatever `x` is: three steps for the paper's
/// 12-bit tables, with no data-dependent branch.
///
/// # Panics
///
/// Panics if `bits` is zero or greater than 32.
#[inline]
pub fn fold(x: u64, bits: u32) -> u64 {
    assert!((1..=32).contains(&bits), "fold width must be in 1..=32");
    let mut folded = x;
    let mut shift = bits;
    while shift < 64 {
        folded ^= folded >> shift;
        shift *= 2;
    }
    folded & ((1u64 << bits) - 1)
}

/// Per-table salts of [`skewed_hash`]; a skewed organization has at most
/// this many tables.
const SALTS: [u64; 8] = [
    0x9e3779b97f4a7c15,
    0xc2b2ae3d27d4eb4f,
    0x165667b19e3779f9,
    0x27d4eb2f165667c5,
    0x85ebca6b1f8f296b,
    0xd6e8feb86659fd93,
    0xa0761d6478bd642f,
    0xe7037ed1a0b428db,
];

/// Most tables [`skewed_hash`] gives independent index streams: table `t`
/// and table `t + SKEWED_TABLES_MAX` share a salt.
pub const SKEWED_TABLES_MAX: usize = SALTS.len();

/// One of a family of independent hashes of `x` into `bits` bits.
/// Different `table` values below [`SKEWED_TABLES_MAX`] give (empirically)
/// independent index streams, which is what the skewed organization needs
/// to break conflicts.
#[inline]
pub fn skewed_hash(x: u64, table: u32, bits: u32) -> usize {
    // Salt the input per table, then mix and fold.
    let salt = SALTS[(table as usize) % SALTS.len()];
    fold(mix64(x ^ salt), bits) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_respects_width() {
        for bits in [1u32, 4, 8, 12, 15, 16, 32] {
            for x in [0u64, 1, u64::MAX, 0xdead_beef_cafe_f00d] {
                assert!(fold(x, bits) < (1 << bits));
            }
        }
    }

    /// The doubling-shift fold equals the chunk-at-a-time loop it replaced.
    #[test]
    fn fold_matches_the_stop_at_zero_loop() {
        fn reference(x: u64, bits: u32) -> u64 {
            let mask = (1u64 << bits) - 1;
            let (mut v, mut out) = (x, 0);
            while v != 0 {
                out ^= v & mask;
                v >>= bits;
            }
            out
        }
        for bits in 1..=32 {
            for x in [
                0u64,
                1,
                0xfff,
                u64::MAX,
                0xdead_beef_cafe_f00d,
                mix64(u64::from(bits)),
            ] {
                assert_eq!(fold(x, bits), reference(x, bits), "x {x:#x}, {bits} bits");
            }
        }
    }

    #[test]
    fn fold_of_small_value_is_identity() {
        assert_eq!(fold(0x3ff, 12), 0x3ff);
    }

    #[test]
    #[should_panic(expected = "fold width")]
    fn fold_rejects_zero_width() {
        let _ = fold(1, 0);
    }

    #[test]
    fn mix64_changes_single_bit_inputs() {
        // Avalanche sanity: flipping one input bit flips many output bits.
        let base = mix64(0x1234);
        for bit in 0..64 {
            let flipped = mix64(0x1234 ^ (1 << bit));
            let differing = (base ^ flipped).count_ones();
            assert!(differing >= 16, "bit {bit} only changed {differing} bits");
        }
    }

    #[test]
    fn skewed_tables_decorrelate() {
        // Two inputs colliding in one table should rarely collide in
        // another: estimate the joint collision rate over many pairs.
        let bits = 12;
        let n = 4000u64;
        let mut joint = 0;
        let mut single = 0;
        for i in 0..n {
            let a = i * 64;
            let b = i * 64 + 1_000_003;
            if skewed_hash(a, 0, bits) == skewed_hash(b, 0, bits) {
                single += 1;
                if skewed_hash(a, 1, bits) == skewed_hash(b, 1, bits) {
                    joint += 1;
                }
            }
        }
        // P(collision) ≈ 1/4096; joint collisions should be ~0.
        assert!(
            single <= 10,
            "unexpectedly many single-table collisions: {single}"
        );
        assert_eq!(joint, 0, "tables are correlated");
    }

    #[test]
    fn skewed_hash_is_deterministic() {
        assert_eq!(skewed_hash(42, 2, 12), skewed_hash(42, 2, 12));
        assert_ne!(
            skewed_hash(42, 0, 12),
            skewed_hash(42, 5, 12).wrapping_add(1 << 13)
        );
    }
}
