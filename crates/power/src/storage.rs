//! Table I: storage overhead of the three predictors.
//!
//! All figures assume the paper's 2 MB LLC with 64 B blocks (32 K blocks).

/// Blocks in the paper's 2 MB LLC.
pub const LLC_BLOCKS: u64 = 32 * 1024;

/// Which predictor a report describes.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum PredictorKind {
    /// Reference trace predictor (TDBP).
    RefTrace,
    /// Counting predictor, LvP (CDBP).
    Counting,
    /// The sampling predictor (SDBP), with the paper's Table I accounting
    /// (1,536 sampler entries, §IV-C).
    Sampler,
}

impl PredictorKind {
    /// All three predictors, in Table I order.
    pub const ALL: [PredictorKind; 3] = [
        PredictorKind::RefTrace,
        PredictorKind::Counting,
        PredictorKind::Sampler,
    ];

    /// Display name as used in the paper's tables.
    pub const fn name(self) -> &'static str {
        match self {
            PredictorKind::RefTrace => "reftrace",
            PredictorKind::Counting => "counting",
            PredictorKind::Sampler => "sampler",
        }
    }
}

/// One row of Table I.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct StorageReport {
    /// The predictor described.
    pub kind: PredictorKind,
    /// Bits in dedicated predictor structures (tables, sampler).
    pub predictor_bits: u64,
    /// Bits of metadata added to the cache (per-block fields).
    pub metadata_bits: u64,
}

impl StorageReport {
    /// Total storage in bits.
    pub const fn total_bits(&self) -> u64 {
        self.predictor_bits + self.metadata_bits
    }

    /// Total storage in kilobytes.
    pub fn total_kb(&self) -> f64 {
        self.total_bits() as f64 / 8.0 / 1024.0
    }

    /// Storage as a percentage of a 2 MB LLC's data capacity.
    pub fn percent_of_llc(&self) -> f64 {
        self.total_bits() as f64 / (2.0 * 1024.0 * 1024.0 * 8.0) * 100.0
    }
}

/// Computes a predictor's Table I row from its structure definitions.
pub fn predictor_storage(kind: PredictorKind) -> StorageReport {
    match kind {
        PredictorKind::RefTrace => StorageReport {
            kind,
            // 2^15 two-bit counters = 8 KB.
            predictor_bits: (1 << 15) * 2,
            // 15-bit signature + 1 dead bit per block = 16 bits × 32 K.
            metadata_bits: LLC_BLOCKS * 16,
        },
        PredictorKind::Counting => StorageReport {
            kind,
            // 2^16 entries × (4-bit count + 1-bit confidence) = 40 KB.
            predictor_bits: (1 << 16) * 5,
            // 8-bit hashed PC + two 4-bit counts + 1-bit confidence = 17
            // bits × 32 K blocks.
            metadata_bits: LLC_BLOCKS * 17,
        },
        PredictorKind::Sampler => StorageReport {
            kind,
            // 3 × 4096 two-bit counters (3 KB) + 1,536 sampler entries of
            // 15 + 15 + 1 + 1 + 4 = 36 bits (6.75 KB).
            predictor_bits: 3 * 4096 * 2 + 1536 * 36,
            // One dead bit per block.
            metadata_bits: LLC_BLOCKS,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_1_reftrace_is_72_kb() {
        let r = predictor_storage(PredictorKind::RefTrace);
        assert_eq!(r.predictor_bits, 8 * 1024 * 8);
        assert_eq!(r.metadata_bits, 64 * 1024 * 8);
        assert!((r.total_kb() - 72.0).abs() < 1e-9);
        assert!((r.percent_of_llc() - 3.5).abs() < 0.1);
    }

    #[test]
    fn table_1_counting_is_108_kb() {
        let r = predictor_storage(PredictorKind::Counting);
        assert_eq!(r.predictor_bits, 40 * 1024 * 8);
        assert_eq!(r.metadata_bits, 68 * 1024 * 8);
        assert!((r.total_kb() - 108.0).abs() < 1e-9);
        assert!((r.percent_of_llc() - 5.3).abs() < 0.1);
    }

    #[test]
    fn table_1_sampler_is_13_75_kb() {
        let r = predictor_storage(PredictorKind::Sampler);
        assert!((r.total_kb() - 13.75).abs() < 1e-9);
        assert!(
            r.percent_of_llc() < 1.0,
            "paper: less than 1% of LLC capacity"
        );
    }

    #[test]
    fn sampler_is_far_smaller_than_both_competitors() {
        let s = predictor_storage(PredictorKind::Sampler).total_bits();
        let r = predictor_storage(PredictorKind::RefTrace).total_bits();
        let c = predictor_storage(PredictorKind::Counting).total_bits();
        assert!(s * 5 < r);
        assert!(s * 7 < c);
    }

    #[test]
    fn names_and_order_match_table_1() {
        let names: Vec<&str> = PredictorKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, vec!["reftrace", "counting", "sampler"]);
    }
}
