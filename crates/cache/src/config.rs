//! Cache geometry and latency configuration.

use sdbp_trace::access::BLOCK_BYTES;
use std::fmt;

/// Most ways a cache holds: one set's frames are the bits of a `u16`
/// mask, and its recency list is sixteen 4-bit way indices in a `u64`
/// (the paper's LLCs are 16-way, its L1 and L2 8-way).
pub const MAX_WAYS: usize = 16;

/// Why a `sets` × `ways` pair is not a cache geometry.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum GeometryError {
    /// The set count is not a power of two (zero included).
    SetsNotPowerOfTwo(usize),
    /// The associativity is zero.
    NoWays,
    /// The associativity exceeds [`MAX_WAYS`].
    TooManyWays(usize),
}

impl fmt::Display for GeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeometryError::SetsNotPowerOfTwo(sets) => {
                write!(f, "sets must be a power of two, got {sets}")
            }
            GeometryError::NoWays => f.write_str("ways must be at least 1"),
            GeometryError::TooManyWays(ways) => {
                write!(f, "ways must be at most {MAX_WAYS}, got {ways}")
            }
        }
    }
}

impl std::error::Error for GeometryError {}

/// Geometry of one cache level.
///
/// All caches use 64 B blocks (the paper's configuration); capacity is
/// therefore `sets * ways * 64` bytes.
///
/// ```
/// use sdbp_cache::CacheConfig;
/// let llc = CacheConfig::llc_2mb();
/// assert_eq!(llc.sets, 2048);
/// assert_eq!(llc.ways, 16);
/// assert_eq!(llc.capacity_bytes(), 2 << 20);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct CacheConfig {
    /// Number of sets; must be a power of two.
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
}

impl CacheConfig {
    /// Creates a configuration, validating the geometry.
    ///
    /// # Panics
    ///
    /// Panics where [`CacheConfig::try_new`] fails.
    #[expect(
        clippy::panic,
        reason = "the panicking constructor for trusted geometries; untrusted input goes through try_new"
    )]
    pub fn new(sets: usize, ways: usize) -> Self {
        match Self::try_new(sets, ways) {
            Ok(config) => config,
            Err(e) => panic!("{e}"),
        }
    }

    /// Creates a configuration from untrusted input.
    ///
    /// # Errors
    ///
    /// A [`GeometryError`] unless `sets` is a power of two and `ways` is in
    /// `1..=`[`MAX_WAYS`].
    pub const fn try_new(sets: usize, ways: usize) -> Result<Self, GeometryError> {
        if !sets.is_power_of_two() {
            Err(GeometryError::SetsNotPowerOfTwo(sets))
        } else if ways == 0 {
            Err(GeometryError::NoWays)
        } else if ways > MAX_WAYS {
            Err(GeometryError::TooManyWays(ways))
        } else {
            Ok(CacheConfig { sets, ways })
        }
    }

    /// Re-checks a configuration built field by field.
    ///
    /// # Errors
    ///
    /// As [`CacheConfig::try_new`].
    pub const fn validate(self) -> Result<Self, GeometryError> {
        Self::try_new(self.sets, self.ways)
    }

    /// Builds a configuration from a capacity in bytes and an associativity.
    ///
    /// # Panics
    ///
    /// Panics if the implied set count is not a positive power of two, or
    /// `ways` is outside `1..=`[`MAX_WAYS`].
    pub fn with_capacity(capacity_bytes: u64, ways: usize) -> Self {
        assert!(ways >= 1, "ways must be at least 1");
        let sets = capacity_bytes / (ways as u64 * BLOCK_BYTES);
        assert!(
            sets >= 1,
            "capacity too small for the requested associativity"
        );
        // A count beyond `usize` is no valid geometry; `new` rejects `usize::MAX`.
        Self::new(usize::try_from(sets).unwrap_or(usize::MAX), ways)
    }

    /// The paper's L1 data cache: 32 KB, 8-way.
    pub fn l1d() -> Self {
        Self::with_capacity(32 << 10, 8)
    }

    /// The paper's unified L2: 256 KB, 8-way.
    pub fn l2() -> Self {
        Self::with_capacity(256 << 10, 8)
    }

    /// The paper's single-core LLC: 2 MB, 16-way.
    pub fn llc_2mb() -> Self {
        Self::with_capacity(2 << 20, 16)
    }

    /// The paper's quad-core shared LLC: 8 MB, 16-way.
    pub fn llc_8mb() -> Self {
        Self::with_capacity(8 << 20, 16)
    }

    /// An LLC of arbitrary capacity (16-way), for Table IV's
    /// cache-sensitivity curves (128 KB .. 32 MB).
    pub fn llc_with_capacity(capacity_bytes: u64) -> Self {
        Self::with_capacity(capacity_bytes, 16)
    }

    /// Total capacity in bytes.
    pub const fn capacity_bytes(&self) -> u64 {
        (self.sets * self.ways) as u64 * BLOCK_BYTES
    }

    /// Total number of block frames.
    pub const fn lines(&self) -> usize {
        self.sets * self.ways
    }
}

/// Access latencies (in cycles) of each level of the hierarchy, consumed by
/// the timing model. Defaults follow the paper's Nehalem-like setup.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct Latencies {
    /// L1 hit latency.
    pub l1: u32,
    /// L2 hit latency.
    pub l2: u32,
    /// LLC hit latency.
    pub llc: u32,
    /// Main memory latency.
    pub memory: u32,
}

impl Default for Latencies {
    fn default() -> Self {
        Latencies {
            l1: 1,
            l2: 10,
            llc: 30,
            memory: 200,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper() {
        assert_eq!(CacheConfig::l1d(), CacheConfig::new(64, 8));
        assert_eq!(CacheConfig::l2(), CacheConfig::new(512, 8));
        assert_eq!(CacheConfig::llc_2mb(), CacheConfig::new(2048, 16));
        assert_eq!(CacheConfig::llc_8mb(), CacheConfig::new(8192, 16));
    }

    #[test]
    fn capacity_round_trips() {
        for kb in [128u64, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768] {
            let c = CacheConfig::llc_with_capacity(kb << 10);
            assert_eq!(c.capacity_bytes(), kb << 10);
        }
    }

    #[test]
    fn lines_is_sets_times_ways() {
        assert_eq!(CacheConfig::llc_2mb().lines(), 2048 * 16);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        let _ = CacheConfig::new(100, 4);
    }

    #[test]
    #[should_panic(expected = "ways must be at least 1")]
    fn zero_ways_rejected() {
        let _ = CacheConfig::new(64, 0);
    }

    #[test]
    #[should_panic(expected = "ways must be at most 16, got 17")]
    fn seventeen_ways_rejected() {
        let _ = CacheConfig::new(64, 17);
    }

    #[test]
    fn try_new_reports_each_geometry_error() {
        assert_eq!(CacheConfig::try_new(2048, 16), Ok(CacheConfig::llc_2mb()));
        assert_eq!(
            CacheConfig::try_new(0, 16),
            Err(GeometryError::SetsNotPowerOfTwo(0))
        );
        assert_eq!(CacheConfig::try_new(64, 0), Err(GeometryError::NoWays));
        assert_eq!(
            CacheConfig::try_new(64, 17),
            Err(GeometryError::TooManyWays(17))
        );
        assert_eq!(
            CacheConfig { sets: 4, ways: 256 }.validate(),
            Err(GeometryError::TooManyWays(256))
        );
    }

    #[test]
    fn default_latencies() {
        let l = Latencies::default();
        assert_eq!((l.l1, l.l2, l.llc, l.memory), (1, 10, 30, 200));
    }
}
