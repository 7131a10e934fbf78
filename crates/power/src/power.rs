//! Table II: leakage and dynamic power of the predictor structures.
//!
//! Analytic CACTI substitute. Two calibrated coefficients:
//!
//! * **leakage** — proportional to retained bits, calibrated so the 2 MB
//!   LLC (data + tag + state arrays) leaks the paper's 0.512 W;
//! * **dynamic** — proportional to *bits activated per access* times a
//!   wire-length factor `sqrt(array bits)`, calibrated so the LLC's peak
//!   dynamic power is the paper's 2.75 W. Metadata embedded in the LLC
//!   data array is charged as the difference between the LLC with and
//!   without the extra bits — the same methodology the paper describes.
//!
//! Like CACTI (as the paper notes), these are *peak* dynamic figures: the
//! sampler is only touched on ~1.6% of accesses, so its real dynamic power
//! is far lower than even the number reported here.

use crate::storage::{predictor_storage, PredictorKind, LLC_BLOCKS};

/// Tag + coherence/state bits per LLC way assumed by the LLC model.
const LLC_TAG_STATE_BITS: u64 = 29;
/// Data bits per block.
const BLOCK_BITS: u64 = 512;
/// LLC associativity.
const LLC_WAYS: u64 = 16;
/// Row width (bits) read+written per access of a small tagless RAM.
const RAM_ROW_BITS: u64 = 64;

/// One structure's contribution to a predictor's power.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct PowerComponent {
    /// Human-readable structure name.
    pub name: &'static str,
    /// Leakage power in watts.
    pub leakage_w: f64,
    /// Peak dynamic power in watts.
    pub dynamic_w: f64,
}

/// A full Table II row.
#[derive(Clone, PartialEq, Debug)]
pub struct PowerReport {
    /// The predictor described.
    pub kind: PredictorKind,
    /// Per-structure breakdown (predictor structures, cache metadata).
    pub components: Vec<PowerComponent>,
}

impl PowerReport {
    /// Total leakage in watts.
    pub fn leakage_w(&self) -> f64 {
        self.components.iter().map(|c| c.leakage_w).sum()
    }

    /// Total peak dynamic power in watts.
    pub fn dynamic_w(&self) -> f64 {
        self.components.iter().map(|c| c.dynamic_w).sum()
    }
}

/// The calibrated SRAM power model.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct PowerModel {
    /// Watts of leakage per retained bit.
    pub leak_per_bit: f64,
    /// Watts of peak dynamic power per (activated bit × sqrt(array bits)).
    pub dyn_coeff: f64,
}

impl Default for PowerModel {
    fn default() -> Self {
        Self::calibrated()
    }
}

impl PowerModel {
    /// Calibrates both coefficients against the paper's LLC figures.
    pub fn calibrated() -> Self {
        let llc_bits = Self::llc_total_bits() as f64;
        let leak_per_bit = 0.512 / llc_bits;
        let act = Self::llc_activated_bits(0) as f64;
        let dyn_coeff = 2.75 / (act * llc_bits.sqrt());
        PowerModel {
            leak_per_bit,
            dyn_coeff,
        }
    }

    /// Total retained bits of the baseline LLC (data + tag/state).
    fn llc_total_bits() -> u64 {
        LLC_BLOCKS * (BLOCK_BITS + LLC_TAG_STATE_BITS)
    }

    /// Bits activated per LLC access when each block carries `extra` bits
    /// of predictor metadata: all ways' tags/state/data are read in
    /// parallel, extra metadata is read in all ways and written back once
    /// (the read/modify/write cycle the paper highlights).
    fn llc_activated_bits(extra: u64) -> u64 {
        LLC_WAYS * (LLC_TAG_STATE_BITS + BLOCK_BITS + extra) + extra
    }

    /// Leakage of a structure holding `bits`.
    pub fn leakage_w(&self, bits: u64) -> f64 {
        self.leak_per_bit * bits as f64
    }

    /// Peak dynamic power of an SRAM of `total_bits` activating
    /// `activated_bits` per access.
    pub fn dynamic_w(&self, total_bits: u64, activated_bits: u64) -> f64 {
        self.dyn_coeff * activated_bits as f64 * (total_bits as f64).sqrt()
    }

    /// Power attributed to `extra` metadata bits per LLC block: the
    /// difference between the LLC with and without them.
    fn metadata_power(&self, extra: u64) -> PowerComponent {
        let base_bits = Self::llc_total_bits();
        let with_bits = base_bits + LLC_BLOCKS * extra;
        let leakage = self.leakage_w(with_bits) - self.leakage_w(base_bits);
        let dynamic = self.dynamic_w(with_bits, Self::llc_activated_bits(extra))
            - self.dynamic_w(base_bits, Self::llc_activated_bits(0));
        PowerComponent {
            name: "cache metadata",
            leakage_w: leakage,
            dynamic_w: dynamic,
        }
    }

    /// The baseline LLC's power (sanity anchor for percentages).
    pub fn llc_power(&self) -> PowerComponent {
        PowerComponent {
            name: "2MB LLC",
            leakage_w: self.leakage_w(Self::llc_total_bits()),
            dynamic_w: self.dynamic_w(Self::llc_total_bits(), Self::llc_activated_bits(0)),
        }
    }

    /// Builds the Table II row for `kind`.
    pub fn report(&self, kind: PredictorKind) -> PowerReport {
        let storage = predictor_storage(kind);
        let mut components = Vec::new();
        match kind {
            PredictorKind::RefTrace => {
                // One 8 KB tagless RAM, read/modify/write per access.
                let bits = storage.predictor_bits;
                components.push(PowerComponent {
                    name: "prediction table",
                    leakage_w: self.leakage_w(bits),
                    dynamic_w: self.dynamic_w(bits, 2 * RAM_ROW_BITS),
                });
                components.push(self.metadata_power(16));
            }
            PredictorKind::Counting => {
                // The paper models the counting table conservatively as a
                // 32 KB tagless RAM.
                let bits = 32 * 1024 * 8;
                components.push(PowerComponent {
                    name: "prediction table",
                    leakage_w: self.leakage_w(storage.predictor_bits),
                    dynamic_w: self.dynamic_w(bits, 2 * RAM_ROW_BITS),
                });
                components.push(self.metadata_power(17));
            }
            PredictorKind::Sampler => {
                // Three 1 KB banks accessed simultaneously.
                let table_bits: u64 = 3 * 4096 * 2;
                let bank_bits = table_bits / 3;
                components.push(PowerComponent {
                    name: "prediction tables",
                    leakage_w: self.leakage_w(table_bits),
                    dynamic_w: 3.0 * self.dynamic_w(bank_bits, 2 * RAM_ROW_BITS),
                });
                // Sampler tag array: all ways' 36-bit entries read, one
                // written (paper accounting: 1,536 entries).
                let sampler_bits: u64 = 1536 * 36;
                components.push(PowerComponent {
                    name: "sampler",
                    leakage_w: self.leakage_w(sampler_bits),
                    dynamic_w: self.dynamic_w(sampler_bits, 12 * 36 + 36),
                });
                components.push(self.metadata_power(1));
            }
        }
        PowerReport { kind, components }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> PowerModel {
        PowerModel::calibrated()
    }

    #[test]
    fn calibration_anchors_llc_power() {
        let llc = model().llc_power();
        assert!((llc.leakage_w - 0.512).abs() < 1e-9);
        assert!((llc.dynamic_w - 2.75).abs() < 1e-9);
    }

    #[test]
    fn sampler_has_lowest_power_of_all_predictors() {
        let m = model();
        let s = m.report(PredictorKind::Sampler);
        let r = m.report(PredictorKind::RefTrace);
        let c = m.report(PredictorKind::Counting);
        assert!(s.leakage_w() < r.leakage_w());
        assert!(s.leakage_w() < c.leakage_w());
        assert!(s.dynamic_w() < r.dynamic_w());
        assert!(s.dynamic_w() < c.dynamic_w());
    }

    #[test]
    fn counting_has_highest_leakage() {
        // Paper: counting 4.7% of LLC leakage > reftrace 2.9% > sampler 1.2%.
        let m = model();
        let r = m.report(PredictorKind::RefTrace).leakage_w();
        let c = m.report(PredictorKind::Counting).leakage_w();
        assert!(c > r, "counting {c} should out-leak reftrace {r}");
    }

    #[test]
    fn leakage_fractions_are_in_paper_ballpark() {
        // Paper: reftrace 2.9%, counting 4.7%, sampler 1.2% of 0.512 W.
        let m = model();
        let frac = |k| m.report(k).leakage_w() / 0.512 * 100.0;
        let r = frac(PredictorKind::RefTrace);
        let c = frac(PredictorKind::Counting);
        let s = frac(PredictorKind::Sampler);
        assert!((r - 2.9).abs() < 1.5, "reftrace {r}%");
        assert!((c - 4.7).abs() < 2.0, "counting {c}%");
        assert!(s < 2.0, "sampler {s}%");
    }

    #[test]
    fn dynamic_fractions_are_small_percentages_of_llc() {
        // Paper: sampler 3.1%, counting 11% of the 2.75 W LLC budget. Our
        // analytic model preserves "a few percent, sampler smallest".
        let m = model();
        let frac = |k| m.report(k).dynamic_w() / 2.75 * 100.0;
        for kind in PredictorKind::ALL {
            let f = frac(kind);
            assert!(f > 0.0 && f < 15.0, "{:?} = {f}% out of range", kind);
        }
        assert!(frac(PredictorKind::Sampler) < frac(PredictorKind::Counting));
    }

    #[test]
    fn metadata_difference_model_is_monotone() {
        let m = model();
        let one = m.metadata_power(1);
        let sixteen = m.metadata_power(16);
        assert!(sixteen.leakage_w > 10.0 * one.leakage_w);
        assert!(sixteen.dynamic_w > 10.0 * one.dynamic_w);
    }

    #[test]
    fn reports_have_expected_components() {
        let m = model();
        assert_eq!(m.report(PredictorKind::RefTrace).components.len(), 2);
        assert_eq!(m.report(PredictorKind::Counting).components.len(), 2);
        assert_eq!(m.report(PredictorKind::Sampler).components.len(), 3);
    }
}
